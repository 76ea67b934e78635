"""Pair-of-traces symbolic execution over relational stores.

A relational store maps each variable either to one expression shared by
both executions (``Single``) or to one expression per execution
(``Pair``).  While the two traces follow the same control path the engine
steps them together; when a condition splits them, it runs the left trace
to completion with the single-trace engine, then the right, re-pairing the
store after every step, and finally resumes the shared continuation.

Loop budget exhaustion havocs the loop's write set on both sides and
asserts the negated (post-havoc) guards, which soundly restricts attention
to terminated pairs.  How aggressively the havoc keeps variables shared is
pluggable: the plain engine pairs every written variable, the dependence
product (driver) keeps provably-agreeing ones single.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from niverify.absint import AbstractState, a_assign, a_guard, analyze
from niverify.lang import Assign, BExpr, Command, If, Program, SKIP, Seq, Skip, While, assigned_vars
from niverify import redsoundse
from niverify.redsoundse import ProductState, bounded_step, product_step
from niverify.solver import Solver
from niverify.soundse import Counter, W0, counter_apply, explore, focus, plug
from niverify.symcore import (
    PreciseStore,
    SVal,
    SymExpr,
    SymbolFactory,
    SymPath,
    SymStore,
    TRUE,
    Valuation,
    eval_sym,
    eval_path,
    pand,
    pnot,
    sym_eval_bool,
    sym_eval_expr,
)


@dataclass(frozen=True)
class Single:
    expr: SymExpr

    def __str__(self) -> str:
        return f"<{self.expr}>"


@dataclass(frozen=True)
class Pair:
    left: SymExpr
    right: SymExpr

    def __str__(self) -> str:
        return f"<{self.left} | {self.right}>"


RelSymExpr = Single | Pair

RelSymStore = dict[str, RelSymExpr]


@dataclass(frozen=True)
class RelPreciseStore:
    rho2: tuple[tuple[str, RelSymExpr], ...]
    path: SymPath

    @staticmethod
    def of(rho2: RelSymStore, path: SymPath) -> RelPreciseStore:
        return RelPreciseStore(tuple(sorted(rho2.items())), path)

    def store(self) -> RelSymStore:
        return dict(self.rho2)

    def __str__(self) -> str:
        bindings = ", ".join(f"{x} -> {e}" for x, e in self.rho2)
        return f"[{bindings}] | {self.path}"


def proj_expr(i: int, expr: RelSymExpr) -> SymExpr:
    if isinstance(expr, Single):
        return expr.expr
    return expr.left if i == 0 else expr.right


def proj(i: int, rho2: RelSymStore) -> SymStore:
    return {x: proj_expr(i, e) for x, e in rho2.items()}


def pairing(rho0: SymStore, rho1: SymStore, path: SymPath, solver: Solver) -> RelSymStore:
    """Merge two stores, keeping a variable Single when both sides are
    syntactically identical or provably equal under the path."""
    out: RelSymStore = {}
    for x in sorted(rho0):
        e0, e1 = rho0[x], rho1[x]
        if e0 == e1 or solver.prove_equal(e0, e1, path):
            out[x] = Single(e0)
        else:
            out[x] = Pair(e0, e1)
    return out


@dataclass(frozen=True)
class RelGuard:
    left: SymPath
    right: SymPath

    @property
    def single(self) -> bool:
        return self.left == self.right


def rel_eval_expr(expr, rho2: RelSymStore) -> RelSymExpr:
    e0 = sym_eval_expr(expr, proj(0, rho2))
    e1 = sym_eval_expr(expr, proj(1, rho2))
    return Single(e0) if e0 == e1 else Pair(e0, e1)


def rel_eval_bool(bexpr: BExpr, rho2: RelSymStore) -> RelGuard:
    return RelGuard(
        sym_eval_bool(bexpr, proj(0, rho2)), sym_eval_bool(bexpr, proj(1, rho2))
    )


def modif_dep(
    rho2: RelSymStore, cmd: Command, low: frozenset[str] | set[str], factory: SymbolFactory
) -> RelSymStore:
    """Relational havoc of everything the command may assign.

    Variables in ``low`` are known to agree after the command, so both
    traces share one fresh symbol; the others get one per trace.  With an
    empty ``low`` this is the plain relational havoc.
    """
    written = assigned_vars(cmd)
    out: RelSymStore = {}
    for x in sorted(rho2):
        if x not in written:
            out[x] = rho2[x]
        elif x in low:
            out[x] = Single(SVal(factory.fresh(x)))
        else:
            out[x] = Pair(SVal(factory.fresh(x)), SVal(factory.fresh(x)))
    return out


def in_gamma_k2(kappa2: RelPreciseStore, store0, store1, valuation: Valuation) -> bool:
    """Concretization membership for a pair of stores (test oracle)."""
    rho2 = kappa2.store()
    for x, e in rho2.items():
        if store0[x] != eval_sym(proj_expr(0, e), valuation):
            return False
        if store1[x] != eval_sym(proj_expr(1, e), valuation):
            return False
    return eval_path(kappa2.path, valuation)


# ---------------------------------------------------------------------------
# Control and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unified:
    cmd: Command


@dataclass(frozen=True)
class Diverged:
    left: Command
    right: Command
    cont: Command


@dataclass(frozen=True)
class RelState:
    control: Unified | Diverged
    kappa2: RelPreciseStore
    a0: AbstractState | None
    a1: AbstractState | None
    counter: Counter
    precise: bool

    @property
    def final(self) -> bool:
        return isinstance(self.control, Unified) and isinstance(self.control.cmd, Skip)


# The havoc hook decides, per written variable, whether both traces can be
# given one shared fresh symbol or must get independent ones.
HavocFn = Callable[
    [RelSymStore, While, SymPath, AbstractState | None, AbstractState | None], RelSymStore
]


@dataclass
class RelEngine:
    """Everything a relational step needs besides the state itself."""

    solver: Solver
    factory: SymbolFactory
    bound: int
    use_intervals: bool
    havoc: HavocFn | None = None

    def havoc_store(self, rho2, loop, path, a0, a1) -> RelSymStore:
        if self.havoc is None:
            return modif_dep(rho2, loop, frozenset(), self.factory)
        return self.havoc(rho2, loop, path, a0, a1)


def _signed(path: SymPath, guard: RelGuard, s0: bool, s1: bool) -> SymPath:
    b0 = guard.left if s0 else pnot(guard.left)
    b1 = guard.right if s1 else pnot(guard.right)
    path = pand(path, b0)
    if b1 != b0:
        path = pand(path, b1)
    return path


def srse_step(state: RelState, engine: RelEngine) -> list[RelState]:
    if isinstance(state.control, Diverged):
        return _diverged_step(state, engine)
    return _unified_step(state, engine)


# The four ways two traces can take a branch, trace 0's choice first.
SIGNS = ((True, True), (True, False), (False, True), (False, False))


def _unified_step(state: RelState, engine: RelEngine) -> list[RelState]:
    solver = engine.solver
    out: list[RelState] = []
    redex, rest = focus(state.control.cmd)
    rho2 = state.kappa2.store()
    path = state.kappa2.path

    def guards(bguard: BExpr, s0: bool, s1: bool):
        if not engine.use_intervals:
            return state.a0, state.a1
        g0 = bguard if s0 else bguard.negate()
        g1 = bguard if s1 else bguard.negate()
        return a_guard(g0, state.a0), a_guard(g1, state.a1)

    def alive(a0, a1) -> bool:
        if not engine.use_intervals:
            return True
        return not a0.is_bottom and not a1.is_bottom

    def reduced(kappa2: RelPreciseStore, a0, a1) -> RelPreciseStore:
        return _reduce2(kappa2, a0, a1) if engine.use_intervals else kappa2

    def fork(bguard: BExpr, beta: RelGuard, signs, taken: Command, not_taken: Command, counter) -> None:
        """Successors where trace 0 takes the guard as s0 and trace 1 as s1."""
        for s0, s1 in signs:
            path2 = _signed(path, beta, s0, s1)
            a0, a1 = guards(bguard, s0, s1)
            if not alive(a0, a1) or not solver.may_sat(path2):
                continue
            c0 = taken if s0 else not_taken
            c1 = taken if s1 else not_taken
            control = Unified(plug(c0, rest)) if s0 == s1 else Diverged(c0, c1, plug(SKIP, rest))
            kappa2 = reduced(RelPreciseStore.of(rho2, path2), a0, a1)
            out.append(RelState(control, kappa2, a0, a1, counter, state.precise))

    match redex:
        case Skip():
            raise ValueError("skip has no successor")
        case Seq(_, second):
            control = Unified(plug(second, rest))
            out.append(RelState(control, state.kappa2, state.a0, state.a1, state.counter, state.precise))
        case Assign(var, expr):
            store = dict(rho2)
            store[var] = rel_eval_expr(expr, rho2)
            a0, a1 = state.a0, state.a1
            if engine.use_intervals:
                a0, a1 = a_assign(var, expr, a0), a_assign(var, expr, a1)
            kappa2 = RelPreciseStore.of(store, path)
            out.append(RelState(Unified(plug(SKIP, rest)), kappa2, a0, a1, state.counter, state.precise))
        case If(bguard, then_branch, else_branch):
            fork(bguard, rel_eval_bool(bguard, rho2), SIGNS, then_branch, else_branch, state.counter)
        case While(bguard, body, active):
            beta = rel_eval_bool(bguard, rho2)
            unrolled = Seq(body, While(bguard, body, active=True))
            continue_ok, continue_counter = counter_apply("continue", active, state.counter, engine.bound)
            fork(bguard, beta, SIGNS[:3] if continue_ok else (), unrolled, SKIP, continue_counter)
            if not continue_ok and (
                solver.may_sat(pand(path, beta.left)) or solver.may_sat(pand(path, beta.right))
            ):
                # Budget spent and some trace could still iterate:
                # summarize the rest of the loop on both sides.
                rho2h = engine.havoc_store(rho2, redex, path, state.a0, state.a1)
                path2 = _signed(path, rel_eval_bool(bguard, rho2h), False, False)
                a0, a1 = state.a0, state.a1
                if engine.use_intervals:
                    a0, a1 = analyze(redex, a0), analyze(redex, a1)
                if alive(a0, a1) and solver.may_sat(path2):
                    kappa2 = reduced(RelPreciseStore.of(rho2h, path2), a0, a1)
                    out.append(RelState(Unified(plug(SKIP, rest)), kappa2, a0, a1, continue_counter, False))
            # Normal exit stays available regardless of the budget.
            _, exit_counter = counter_apply("exit", active, state.counter, engine.bound)
            fork(bguard, beta, SIGNS[3:], unrolled, SKIP, exit_counter)
        case _:
            raise ValueError(f"unknown command {redex!r}")
    return out


def _reduce2(kappa2: RelPreciseStore, a0: AbstractState, a1: AbstractState) -> RelPreciseStore:
    """Reduction over both projections of a relational store.

    ``reduction`` is looked up on its module at call time, so a wrapper
    installed there (as the benchmark's tracer does) sees these calls too.
    """
    rho2 = kappa2.store()
    path = redsoundse.reduction(PreciseStore.of(proj(0, rho2), kappa2.path), a0).path
    path = redsoundse.reduction(PreciseStore.of(proj(1, rho2), path), a1).path
    return RelPreciseStore.of(rho2, path)


def _diverged_step(state: RelState, engine: RelEngine) -> list[RelState]:
    control = state.control
    assert isinstance(control, Diverged)
    if isinstance(control.left, Skip) and isinstance(control.right, Skip):
        return [
            RelState(
                Unified(control.cont), state.kappa2, state.a0, state.a1, state.counter, state.precise
            )
        ]
    side = 0 if not isinstance(control.left, Skip) else 1
    rho2 = state.kappa2.store()
    other = proj(1 - side, rho2)
    sub = ProductState(
        control.left if side == 0 else control.right,
        PreciseStore.of(proj(side, rho2), state.kappa2.path),
        state.a0 if side == 0 else state.a1,
        state.counter,
        state.precise,
    )
    step = product_step if engine.use_intervals else bounded_step

    out: list[RelState] = []
    for nxt in step(sub, engine.bound, engine.solver, engine.factory):
        own2 = nxt.kappa.store()
        if side == 0:
            paired = pairing(own2, other, nxt.kappa.path, engine.solver)
            control2 = Diverged(nxt.cmd, control.right, control.cont)
            a0, a1 = nxt.astate, state.a1
        else:
            paired = pairing(other, own2, nxt.kappa.path, engine.solver)
            control2 = Diverged(control.left, nxt.cmd, control.cont)
            a0, a1 = state.a0, nxt.astate
        out.append(
            RelState(control2, RelPreciseStore.of(paired, nxt.kappa.path), a0, a1, nxt.counter, nxt.precise)
        )
    return out


def srse_explore(
    program: Program,
    rho2_0: RelSymStore,
    engine: RelEngine,
    path_cap: int,
) -> list[tuple[RelPreciseStore, bool]]:
    """All final relational precise stores with their precision flags."""
    a_top = AbstractState.top(program.all_vars) if engine.use_intervals else None
    start = RelState(
        Unified(program.body),
        RelPreciseStore.of(rho2_0, TRUE),
        a_top,
        a_top,
        W0,
        True,
    )
    finals = explore(start, lambda state: srse_step(state, engine), lambda state: state.final, path_cap)
    return [(state.kappa2, state.precise) for state in finals]
