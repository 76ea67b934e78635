"""Pair-of-traces symbolic execution over relational stores.

A relational store maps each variable to a pair of expressions, one per
execution; a pair with equal sides is a value both executions share.
Stores reuse the single-trace ``PreciseStore``.  While the two traces follow
the same control path, the state's control is one command and the engine
steps both traces with it; when a condition splits them, the control is a
``Diverged`` triple: the engine runs the left trace to completion with the
single-trace engine, then the right, re-pairing the store after every step,
and finally resumes the shared continuation.  Whether a state carries
interval states (``a0``/``a1`` not None) decides whether the steps reduce
with them.

Work the two traces share is done once.  Both traces start with one
interval state object, and a lockstep step that moves both the same way
(an assignment, a branch both take on the same side, a loop summary)
computes the transfer once and gives the result to both, so ``a0 is a1``
holds until the traces split at a condition; from there each refines its
own state, and the identity does not come back at the join.  The transfer
functions are pure and mint no symbols, so sharing changes no result.
While it holds, the reduction of trace 1 skips the shared variables, whose
conjuncts trace 0 has just added, and when every bounded variable is
shared it is not called at all, as it would return its path unchanged.
A transfer that changes nothing returns its input state (see ``absint``),
so the identity also holds after a mixed branch whose guards leave the
intervals alone, and the skip is exact there too.  A branch on a guard
both traces share never tries the two mixed sign pairs: their path is
false, so no interval or solver work is spent on them.

The reduction pays for what a step changed.  Each reduced path records
the terms and interval entries it was reduced with, and the next
reduction along it asserts again only the variables whose term or
interval object differs (``redsoundse.reduction``); since a path only
grows by conjunction, the skipped conjuncts are already on it.  The
calls of ``_reduce2`` read each trace's side of the pair store in place,
with no projected store, and find each trace's entry in the same record.
Skipping trace 1's call leaves trace 0's record on the path, which is
exact too: every entry a record holds was asserted on a prefix, and a
conjunct asserted again is dropped (``has_conjunct``).  A record serves
the successors of the state whose path holds it, so the step drops it
once that state is expanded, and drops a final's at once.

A fork pays for its guard once per run.  The engine keeps, for each
program guard, the pairs it last read and the two leaves it built from
them (``RelEngine.guards``), and ``rel_eval_bool`` gives the same leaves
back while every pair it reads is the same object.  A comparison leaf
keeps its negation and rows once computed (see ``symcore``), so the
forks that reuse a guard's leaves build neither again.

A program expression is evaluated for both traces in one walk over the
pair store (``rel_eval_expr``, ``rel_eval_bool``).  Where every variable
it reads holds one object for both sides, it builds one term, or one
guard, and gives it to both; so a shared value stays shared by identity,
and ``Pair.shared`` and the mixed-sign check compare by identity first.

Each loop node counts its own unrolled iterations (``While.unrolled``), so
a trace that runs a loop alone after a split spends that copy's budget.
Loop budget exhaustion havocs the loop's write set on both sides and
asserts the negated (post-havoc) guards, which soundly restricts attention
to terminated pairs.  How aggressively the havoc keeps variables shared is
pluggable: the plain engine pairs every written variable, the dependence
product (driver) keeps provably-agreeing ones shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from niverify.absint import AbstractState, analyze
from niverify import lang
from niverify.lang import Assign, BExpr, Command, Expr, If, Program, SKIP, Seq, Skip, While, assigned_vars
from niverify import redsoundse
from niverify.redsoundse import ProductState, bounded_step, product_step
from niverify.solver import Solver
from niverify.soundse import explore, focus, plug
from niverify.symcore import (
    FALSE,
    PreciseStore,
    SConst,
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
    pcmp,
    pnot,
    sbinop,
)


@dataclass(slots=True, unsafe_hash=True)
class Pair:
    """One expression per execution; shared when both sides are equal."""

    left: SymExpr
    right: SymExpr

    @property
    def shared(self) -> bool:
        return self.left is self.right or self.left == self.right

    def __str__(self) -> str:
        if self.shared:
            return f"<{self.left}>"
        return f"<{self.left} | {self.right}>"


RelSymStore = dict[str, Pair]

# Per program guard: the variables it reads, the pairs it read last and
# the two leaves it built from them.
GuardMemo = dict[BExpr, tuple[tuple[str, ...], tuple[Pair, ...], tuple[SymPath, SymPath]]]


def proj_expr(i: int, expr: Pair) -> SymExpr:
    return expr.left if i == 0 else expr.right


def proj(i: int, rho2: RelSymStore) -> SymStore:
    return {x: proj_expr(i, e) for x, e in rho2.items()}


def agree(e: Pair, path: SymPath, solver: Solver) -> bool:
    """Both sides are equal, syntactically or provably under the path."""
    return e.shared or solver.prove_equal(e.left, e.right, path)


def pairing(rho0: SymStore, rho1: SymStore, path: SymPath, solver: Solver) -> RelSymStore:
    """Merge two stores, sharing a variable whose sides agree under the path."""
    out: RelSymStore = {}
    for x in sorted(rho0):
        e = Pair(rho0[x], rho1[x])
        out[x] = Pair(e.left, e.left) if agree(e, path, solver) else e
    return out


def rel_eval_expr(expr: Expr, rho2: RelSymStore) -> Pair:
    """Both traces' terms in one walk; an operation on operands whose sides
    are one object builds one term, which is then both sides."""
    match expr:
        case lang.Const(value):
            term = SConst(value)
            return Pair(term, term)
        case lang.Var(name):
            return rho2[name]
        case lang.BinOp(op, left, right):
            lp, rp = rel_eval_expr(left, rho2), rel_eval_expr(right, rho2)
            if lp.left is lp.right and rp.left is rp.right:
                term = sbinop(op, lp.left, rp.left)
                return Pair(term, term)
            return Pair(sbinop(op, lp.left, rp.left), sbinop(op, lp.right, rp.right))
    raise lang.LangError(f"unknown expression {expr!r}")


def rel_eval_bool(bexpr: BExpr, rho2: RelSymStore, memo: GuardMemo | None = None) -> tuple[SymPath, SymPath]:
    """Both traces' guards; one object when both operands are shared by identity.

    With a ``memo`` (``RelEngine.guards``), a guard that reads the very
    pair objects it read last time gets the leaves it got then: they are
    built from the same inputs, so they equal fresh ones, and they keep
    their negation and rows.  The memo holds those pairs, so an
    object it compares with ``is`` cannot be freed and its id reused.
    """
    if memo is not None:
        kept = memo.get(bexpr)
        if kept is None:
            names = tuple(lang.used_vars(bexpr))
        else:
            names, pairs, leaves = kept
            if all(rho2[x] is pair for x, pair in zip(names, pairs)):
                return leaves
        leaves = rel_eval_bool(bexpr, rho2)
        memo[bexpr] = (names, tuple(rho2[x] for x in names), leaves)
        return leaves
    lp, rp = rel_eval_expr(bexpr.left, rho2), rel_eval_expr(bexpr.right, rho2)
    g0 = pcmp(bexpr.op, lp.left, rp.left)
    if lp.left is lp.right and rp.left is rp.right:
        return g0, g0
    return g0, pcmp(bexpr.op, lp.right, rp.right)


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
            sym = SVal(factory.fresh(x))
            out[x] = Pair(sym, sym)
        else:
            out[x] = Pair(SVal(factory.fresh(x)), SVal(factory.fresh(x)))
    return out


def in_gamma_k2(kappa2: PreciseStore, store0, store1, valuation: Valuation) -> bool:
    """Concretization membership for a pair of stores (test oracle)."""
    rho2 = kappa2.store()
    for x, e in rho2.items():
        if store0[x] != eval_sym(e.left, valuation):
            return False
        if store1[x] != eval_sym(e.right, valuation):
            return False
    return eval_path(kappa2.path, valuation)


# ---------------------------------------------------------------------------
# Control and states
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Diverged:
    """The traces split at a condition: each runs its own side, then ``cont``."""

    left: Command
    right: Command
    cont: Command


@dataclass(slots=True)
class RelState:
    control: Command | Diverged
    kappa2: PreciseStore
    a0: AbstractState | None
    a1: AbstractState | None
    precise: bool

    @property
    def final(self) -> bool:
        return isinstance(self.control, Skip)


# The havoc hook decides, per written variable, whether both traces can be
# given one shared fresh symbol or must get independent ones.
HavocFn = Callable[
    [RelSymStore, While, SymPath, AbstractState | None, AbstractState | None], RelSymStore
]


@dataclass
class RelEngine:
    """Everything a relational step needs besides the state itself.

    ``use_intervals`` only picks the start state of ``srse_explore``; the
    steps read the domain off the state.  ``guards`` is the run's memo of
    guard leaves (see ``rel_eval_bool``); it lives and dies with the engine.
    """

    solver: Solver
    factory: SymbolFactory
    bound: int
    use_intervals: bool
    havoc: HavocFn | None = None
    guards: GuardMemo = field(default_factory=dict)

    def havoc_store(self, rho2, loop, path, a0, a1) -> RelSymStore:
        if self.havoc is None:
            return modif_dep(rho2, loop, frozenset(), self.factory)
        return self.havoc(rho2, loop, path, a0, a1)


def _signed(path: SymPath, guard: tuple[SymPath, SymPath], s0: bool, s1: bool) -> SymPath:
    g0, g1 = guard
    if s0 != s1 and (g0 is g1 or g0 == g1):
        return FALSE  # one guard for both traces: they cannot split on it
    b0 = g0 if s0 else pnot(g0)
    b1 = b0 if g1 is g0 else g1 if s1 else pnot(g1)
    path = pand(path, b0)
    if b1 is not b0 and b1 != b0:
        path = pand(path, b1)
    return path


def srse_step(state: RelState, engine: RelEngine) -> list[RelState]:
    if isinstance(state.control, Diverged):
        out = _diverged_step(state, engine)
    else:
        out = _unified_step(state, engine)
    # A reduction record serves the successors of the state whose path
    # holds it: drop it once the state is expanded, unless a successor
    # keeps the path, and drop a final's at once, as nothing extends it.
    path = state.kappa2.path
    kept = False
    for nxt in out:
        kept = kept or nxt.kappa2.path is path
        if nxt.final:
            redsoundse.forget_reduction(nxt.kappa2.path)
    if not kept:
        redsoundse.forget_reduction(path)
    return out


# The four ways two traces can take a branch, trace 0's choice first.
SIGNS = ((True, True), (True, False), (False, True), (False, False))


def _unified_step(state: RelState, engine: RelEngine) -> list[RelState]:
    solver = engine.solver
    out: list[RelState] = []
    redex, rest = focus(state.control)
    rho2 = state.kappa2.store()
    path = state.kappa2.path

    # One interval state for both traces, as long as they agree.
    one_domain = state.a1 is state.a0

    def fork(bguard: BExpr, beta: tuple[SymPath, SymPath], signs, taken: Command, not_taken: Command) -> None:
        """Successors where trace 0 takes the guard as s0 and trace 1 as s1."""
        sides = {True: bguard, False: bguard.negate()}
        for s0, s1 in signs:
            path2 = _signed(path, beta, s0, s1)
            if path2 == FALSE:
                continue  # no interval work for a pair the path rules out
            a0 = redsoundse.guard(sides[s0], state.a0)
            a1 = a0 if one_domain and s0 == s1 else redsoundse.guard(sides[s1], state.a1)
            if redsoundse.dead(a0) or redsoundse.dead(a1) or not solver.may_sat(path2):
                continue
            c0 = taken if s0 else not_taken
            c1 = taken if s1 else not_taken
            control = plug(c0, rest) if s0 == s1 else Diverged(c0, c1, plug(SKIP, rest))
            kappa2 = _reduce2(PreciseStore.of(rho2, path2), a0, a1)
            out.append(RelState(control, kappa2, a0, a1, state.precise))

    match redex:
        case Skip():
            raise ValueError("skip has no successor")
        case Seq(_, second):
            out.append(RelState(plug(second, rest), state.kappa2, state.a0, state.a1, state.precise))
        case Assign(var, expr):
            store = dict(rho2)
            store[var] = rel_eval_expr(expr, rho2)
            a0 = redsoundse.assign(var, expr, state.a0)
            a1 = a0 if one_domain else redsoundse.assign(var, expr, state.a1)
            kappa2 = PreciseStore.of(store, path)
            out.append(RelState(plug(SKIP, rest), kappa2, a0, a1, state.precise))
        case If(bguard, then_branch, else_branch):
            fork(bguard, rel_eval_bool(bguard, rho2, engine.guards), SIGNS, then_branch, else_branch)
        case While(bguard, body, unrolled):
            beta = rel_eval_bool(bguard, rho2, engine.guards)
            again = Seq(body, While(bguard, body, unrolled + 1))
            if unrolled < engine.bound:
                fork(bguard, beta, SIGNS[:3], again, SKIP)
            elif solver.may_sat(pand(path, beta[0])) or solver.may_sat(pand(path, beta[1])):
                # Budget spent and some trace could still iterate:
                # summarize the rest of the loop on both sides.
                rho2h = engine.havoc_store(rho2, redex, path, state.a0, state.a1)
                path2 = _signed(path, rel_eval_bool(bguard, rho2h, engine.guards), False, False)
                a0, a1 = state.a0, state.a1
                if a0 is not None:
                    a0 = analyze(redex, a0)
                    a1 = a0 if one_domain else analyze(redex, a1)
                if not redsoundse.dead(a0) and not redsoundse.dead(a1) and solver.may_sat(path2):
                    kappa2 = _reduce2(PreciseStore.of(rho2h, path2), a0, a1)
                    out.append(RelState(plug(SKIP, rest), kappa2, a0, a1, False))
            # Normal exit stays available regardless of the budget.
            fork(bguard, beta, SIGNS[3:], again, SKIP)
        case _:
            raise ValueError(f"unknown command {redex!r}")
    return out


def _reduce2(kappa2: PreciseStore, a0: AbstractState | None, a1: AbstractState | None) -> PreciseStore:
    """Reduction of each side of a relational store; none without a domain.

    With one interval state for both traces, a shared variable's conjunct
    for trace 1 is the one trace 0 has just added, so trace 1 reduces only
    the variables whose sides differ, if any is bounded.  ``reduction`` is
    looked up on its module at call time, so a wrapper installed there (as
    the benchmark's tracer does) sees these calls too.
    """
    if a0 is None:
        return kappa2
    kappa2 = redsoundse.reduction(kappa2, a0, 0)
    if a1 is a0 and not _bounds_unshared(kappa2.rho, a0):
        return kappa2
    return redsoundse.reduction(kappa2, a1, 1, unshared=a1 is a0)


def _bounds_unshared(rho2: RelSymStore, astate: AbstractState) -> bool:
    """Whether ``astate`` bounds a variable whose two sides differ."""
    env = astate.env
    for i in astate.bounded():
        pair = rho2.get(env[i][0])
        if pair is not None and not pair.shared:
            return True
    return False


def _diverged_step(state: RelState, engine: RelEngine) -> list[RelState]:
    control = state.control
    assert isinstance(control, Diverged)
    if isinstance(control.left, Skip) and isinstance(control.right, Skip):
        return [RelState(control.cont, state.kappa2, state.a0, state.a1, state.precise)]
    side = 0 if not isinstance(control.left, Skip) else 1
    rho2 = state.kappa2.store()
    other = proj(1 - side, rho2)
    sub = ProductState(
        control.left if side == 0 else control.right,
        PreciseStore.of(proj(side, rho2), state.kappa2.path),
        state.a0 if side == 0 else state.a1,
        state.precise,
    )
    step = bounded_step if sub.astate is None else product_step

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
            RelState(control2, PreciseStore.of(paired, nxt.kappa.path), a0, a1, nxt.precise)
        )
    return out


def srse_explore(
    program: Program,
    rho2_0: RelSymStore,
    engine: RelEngine,
    path_cap: int,
) -> list[tuple[PreciseStore, bool]]:
    """All final relational precise stores with their precision flags."""
    a_top = AbstractState.top(program.all_vars) if engine.use_intervals else None
    start = RelState(program.body, PreciseStore.of(rho2_0, TRUE), a_top, a_top, True)
    finals = explore(start, lambda state: srse_step(state, engine), lambda state: state.final, path_cap)
    return [(state.kappa2, state.precise) for state in finals]
