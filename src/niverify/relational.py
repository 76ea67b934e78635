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

The reduction pays for what a step changed.  A reduced store records
the terms and interval entries it was reduced with, a step hands the
record on to every store it builds on its path, and the next reduction
asserts again only the variables whose term or interval object differs
(``redsoundse.reduction``); since a path only grows by conjunction, the
skipped conjuncts are already on it.  The calls of ``_reduce2`` read
each trace's side of the pair store in place, with no projected store,
and find each trace's entry in the same record; a trace run alone after
a split reads the pair store's record too.  Skipping trace 1's call
keeps trace 0's record, which is exact as well: every entry a record
holds was asserted on a prefix, and a conjunct asserted again is
dropped (``has_conjunct``).  A record dies with its store, and the
finals are returned without one.

A fork pays for its guard once per run.  The engine hash-conses guard
leaves in one table per run (``RelEngine.leaves``): ``rel_eval_bool``
builds each leaf and gives back the table's object equal to it, so
every equal guard leaf of a run is one object, and a comparison leaf
keeps its rows once computed (see ``symcore``).  The forks that read a
guard again find its rows built.  Equal leaves being one object, the
signed guards of a fork compare by identity alone.

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
from niverify.redsoundse import ProductState, product_step
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


def proj(i: int, rho2: RelSymStore) -> SymStore:
    return {x: e.right if i else e.left for x, e in rho2.items()}


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
    """Both traces' terms in one walk; a constant is the program's own node
    on both sides, and an operation on operands whose sides are one object
    builds one term, which is then both sides."""
    return lang.fold(expr, _const_pair, rho2.__getitem__, _binop_pair)


def _const_pair(const: SConst) -> Pair:
    return Pair(const, const)


def _binop_pair(op: str, lp: Pair, rp: Pair) -> Pair:
    if lp.left is lp.right and rp.left is rp.right:
        term = sbinop(op, lp.left, rp.left)
        return Pair(term, term)
    return Pair(sbinop(op, lp.left, rp.left), sbinop(op, lp.right, rp.right))


def rel_eval_bool(bexpr: BExpr, rho2: RelSymStore, leaves: dict[SymPath, SymPath]) -> tuple[SymPath, SymPath]:
    """Both traces' guards; one object when both operands are shared by identity.
    Each leaf is the table's (``RelEngine.leaves``) object equal to it, which
    keeps the rows computed for it on an earlier fork."""
    lp, rp = rel_eval_expr(bexpr.left, rho2), rel_eval_expr(bexpr.right, rho2)
    g0 = pcmp(bexpr.op, lp.left, rp.left)
    g0 = leaves.setdefault(g0, g0)
    if lp.left is lp.right and rp.left is rp.right:
        return g0, g0
    g1 = pcmp(bexpr.op, lp.right, rp.right)
    return g0, leaves.setdefault(g1, g1)


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


# ---------------------------------------------------------------------------
# Control and states
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
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
    steps read the domain off the state.  ``leaves`` is the run's table of
    guard leaves (see ``rel_eval_bool``); it lives and dies with the engine.
    """

    solver: Solver
    factory: SymbolFactory
    bound: int
    use_intervals: bool
    havoc: HavocFn | None = None
    leaves: dict[SymPath, SymPath] = field(default_factory=dict)

    def havoc_store(self, rho2, loop, path, a0, a1) -> RelSymStore:
        if self.havoc is None:
            return modif_dep(rho2, loop, frozenset(), self.factory)
        return self.havoc(rho2, loop, path, a0, a1)


def _signed(path: SymPath, guard: tuple[SymPath, SymPath], s0: bool, s1: bool) -> SymPath:
    """``path`` and the guards signed; the guards come from the engine's
    table, so they are equal only when they are one object."""
    g0, g1 = guard
    if s0 != s1 and g0 is g1:
        return FALSE  # one guard for both traces: they cannot split on it
    b0 = g0 if s0 else pnot(g0)
    path = pand(path, b0)
    if g1 is g0:
        return path
    return pand(path, g1 if s1 else pnot(g1))


def srse_step(state: RelState, engine: RelEngine) -> list[RelState]:
    if isinstance(state.control, Diverged):
        return _diverged_step(state, engine)
    return _unified_step(state, engine)


# The four ways two traces can take a branch, trace 0's choice first.
SIGNS = ((True, True), (True, False), (False, True), (False, False))


def _unified_step(state: RelState, engine: RelEngine) -> list[RelState]:
    solver = engine.solver
    out: list[RelState] = []
    redex, rest = focus(state.control)
    rho2 = state.kappa2.store()
    path, record = state.kappa2.path, state.kappa2.reduced

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
            kappa2 = _reduce2(PreciseStore(rho2, path2, record), a0, a1)
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
            kappa2 = PreciseStore(store, path, record)
            out.append(RelState(plug(SKIP, rest), kappa2, a0, a1, state.precise))
        case If(bguard, then_branch, else_branch):
            fork(bguard, rel_eval_bool(bguard, rho2, engine.leaves), SIGNS, then_branch, else_branch)
        case While(bguard, body, unrolled):
            beta = rel_eval_bool(bguard, rho2, engine.leaves)
            again = Seq(body, While(bguard, body, unrolled + 1))
            if unrolled < engine.bound:
                fork(bguard, beta, SIGNS[:3], again, SKIP)
            elif solver.may_sat(pand(path, beta[0])) or solver.may_sat(pand(path, beta[1])):
                # Budget spent and some trace could still iterate:
                # summarize the rest of the loop on both sides.
                rho2h = engine.havoc_store(rho2, redex, path, state.a0, state.a1)
                path2 = _signed(path, rel_eval_bool(bguard, rho2h, engine.leaves), False, False)
                a0, a1 = state.a0, state.a1
                if a0 is not None:
                    a0 = analyze(redex, a0)
                    a1 = a0 if one_domain else analyze(redex, a1)
                if not redsoundse.dead(a0) and not redsoundse.dead(a1) and solver.may_sat(path2):
                    kappa2 = _reduce2(PreciseStore(rho2h, path2, record), a0, a1)
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


# The name a tracer labels SoundSE's steps, those with no domain, by.
bounded_step = product_step


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
        PreciseStore(proj(side, rho2), state.kappa2.path, state.kappa2.reduced),
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
            RelState(control2, PreciseStore(paired, nxt.kappa.path, nxt.kappa.reduced), a0, a1, nxt.precise)
        )
    return out


def srse_explore(
    program: Program,
    rho2_0: RelSymStore,
    engine: RelEngine,
    path_cap: int,
) -> list[tuple[PreciseStore, bool]]:
    """All final relational precise stores, with their precision flags and
    without reduction records: a final is never reduced again."""
    a_top = AbstractState.top(program.all_vars) if engine.use_intervals else None
    start = RelState(program.body, PreciseStore.of(rho2_0, TRUE), a_top, a_top, True)
    finals = explore(start, lambda state: srse_step(state, engine), lambda state: state.final, path_cap)
    return [(PreciseStore.of(state.kappa2.rho, state.kappa2.path), state.precise) for state in finals]
