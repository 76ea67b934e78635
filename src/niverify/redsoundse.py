"""Reduced product of bounded symbolic execution with the interval domain.

A product state carries both a precise store and an abstract state; a step
advances them in lockstep along the same syntactic branch, and a branch
survives only if both sides allow it (path may-satisfiable and guarded
abstract state non-bottom).  The reduction operator injects the abstract
constraints into the symbolic path, substituting each program variable by
its current symbolic expression; it runs at branch points and at
loop-summarization steps.  A reduction asserts again only the variables
whose term or interval changed since the reduction whose record its store
carries; the others' conjuncts are already on the path (see
``reduction``).  The relational engine reduces each trace with the same
function, reading that trace's side of its pair store in place.

With no domain (``astate`` None) the product step is plain SoundSE's step,
so this is the one single-trace step of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from niverify.absint import AbstractState, BottomState, a_assign, a_guard, analyze, bounds
from niverify.lang import Assign, BExpr, Command, Expr, If, Program, SKIP, Seq, Skip, While
from niverify.solver import Solver
from niverify.soundse import explore, focus, modif, plug
from niverify.symcore import (
    PreciseStore,
    SConst,
    SymbolFactory,
    SymPath,
    has_conjunct,
    pand,
    pcmp,
    pnot,
    sym_eval_bool,
    sym_eval_expr,
)


@dataclass(slots=True)
class ProductState:
    cmd: Command
    kappa: PreciseStore
    astate: AbstractState | None
    precise: bool


def _unmatched(positions, terms: list, env: tuple, seen_terms: tuple, seen_env: tuple) -> list[int]:
    """The positions whose term or env entry is not the object recorded there.

    An env entry is a (name, interval) pair, and the transfers keep the
    pair of a variable whose interval they leave alone, so a recorded pair
    means a recorded interval.
    """
    return [i for i in positions if terms[i] is not seen_terms[i] or env[i] is not seen_env[i]]


def reduction(kappa: PreciseStore, astate: AbstractState, side: int | None = None, unshared: bool = False) -> PreciseStore:
    """Strengthen the path with the abstract constraints; same concretization.

    Each bound ``x op c`` the state asserts on a variable the store binds
    becomes the conjunct ``rho[x] op c``, the bound rephrased over that
    variable's current symbolic expression; variables the store leaves out
    are not reduced.  Conjuncts already present are not repeated, keeping
    paths small and runs deterministic.

    A relational store (of ``relational.Pair``s) is read in place: with
    ``side`` 0 or 1 a variable's expression is that side of its pair, and
    with ``unshared`` a variable whose two sides are equal is left out, as
    a variable the store does not bind is.  No projected store is built.

    Only what changed is asserted again.  The returned store records the
    interval env and the term of each bounded variable, by position in the
    env, and keeps the newer entry of ``kappa``'s record, so that the two
    traces of a relational step each find their own.  A step hands its
    store's record on to the stores it builds on its path, and a call skips
    each variable whose term object and env entry (hence interval object)
    are the ones recorded at its position.  That is exact: a path only
    grows by conjunction, so the conjuncts of a recorded pair are leaves of
    the path the record was made on, hence of this one, and asking for them
    again would add nothing; or the path is already ``false``.
    """
    env = astate.env
    if env is None:
        raise BottomState("no constraints for bottom")
    rho, path = kappa.store(), kappa.path
    positions = astate.bounded()
    if not positions:
        return kappa
    terms = [None] * len(env)
    if side is None:
        for i in positions:
            terms[i] = rho.get(env[i][0])
    else:
        for i in positions:
            pair = rho.get(env[i][0])
            if pair is not None and not (unshared and pair.shared):
                terms[i] = pair.right if side else pair.left
    record = kappa.reduced
    if record is not None:
        env0, terms0, env1, terms1 = record
        # The older entry first: in a relational step each trace's own
        # entry is the older one, so it leaves the fewest positions.
        if terms1 is not None and len(terms1) == len(terms):
            positions = _unmatched(positions, terms, env, terms1, env1)
        if len(terms0) == len(terms):
            positions = _unmatched(positions, terms, env, terms0, env0)
    for i in positions:
        term = terms[i]
        if term is None:
            continue
        for op, bound in bounds(env[i][1]):
            conjunct = pcmp(op, term, SConst(bound))
            if not has_conjunct(path, conjunct):
                path = pand(path, conjunct)
    record = (env, tuple(terms)) + ((None, None) if record is None else record[:2])
    return PreciseStore(kappa.rho, path, record)


# None-aware transfer functions: with no domain (None) they do nothing.


def guard(bexpr: BExpr, astate: AbstractState | None) -> AbstractState | None:
    return None if astate is None else a_guard(bexpr, astate)


def assign(var: str, expr: Expr, astate: AbstractState | None) -> AbstractState | None:
    return None if astate is None else a_assign(var, expr, astate)


def dead(astate: AbstractState | None) -> bool:
    return astate is not None and astate.is_bottom


def product_step(state: ProductState, k: int, solver: Solver, factory: SymbolFactory) -> list[ProductState]:
    """Lockstep successors, true branch first; dead on either side means pruned."""
    out: list[ProductState] = []
    redex, rest = focus(state.cmd)
    rho, path, astate = state.kappa.store(), state.kappa.path, state.astate
    record = state.kappa.reduced

    def feasible(path2: SymPath, astate2: AbstractState | None) -> bool:
        return not dead(astate2) and solver.may_sat(path2)

    def emit(cmd: Command, kappa: PreciseStore, astate2, precise: bool, reduce=True):
        if dead(astate2):
            return
        if reduce and astate2 is not None:
            kappa = reduction(kappa, astate2)
        out.append(ProductState(plug(cmd, rest), kappa, astate2, precise))

    match redex:
        case Skip():
            raise ValueError("skip has no successor")
        case Seq(_, second):
            emit(second, state.kappa, astate, state.precise, reduce=False)
        case Assign(var, expr):
            rho2 = dict(rho)
            rho2[var] = sym_eval_expr(expr, rho)
            astate2 = assign(var, expr, astate)
            emit(SKIP, PreciseStore(rho2, path, record), astate2, state.precise, reduce=False)
        case If(cond, then_branch, else_branch):
            beta = sym_eval_bool(cond, rho)
            cases = ((then_branch, beta, cond), (else_branch, pnot(beta), cond.negate()))
            for branch, sign, bguard in cases:
                path2 = pand(path, sign)
                astate2 = guard(bguard, astate)
                if feasible(path2, astate2):
                    emit(branch, PreciseStore(rho, path2, record), astate2, state.precise)
        case While(cond, body, unrolled):
            beta = sym_eval_bool(cond, rho)
            path_t = pand(path, beta)
            astate_t = guard(cond, astate)
            if feasible(path_t, astate_t):
                if unrolled < k:
                    again = Seq(body, While(cond, body, unrolled + 1))
                    emit(again, PreciseStore(rho, path_t, record), astate_t, state.precise)
                else:
                    # Summarize the remaining iterations: havoc the write
                    # set, analyze the loop abstractly, then reduce.  The
                    # path is left unchanged.
                    rho2 = modif(rho, redex, factory)
                    astate2 = None if astate is None else analyze(redex, astate)
                    emit(SKIP, PreciseStore(rho2, path, record), astate2, False)
            path_f = pand(path, pnot(beta))
            astate_f = guard(cond.negate(), astate)
            if feasible(path_f, astate_f):
                emit(SKIP, PreciseStore(rho, path_f, record), astate_f, state.precise)
        case _:
            raise ValueError(f"unknown command {redex!r}")
    return out


def product_explore(
    program: Program,
    kappa0: PreciseStore,
    astate0: AbstractState | None,
    k: int,
    path_cap: int,
    solver: Solver,
    factory: SymbolFactory,
) -> list[tuple[PreciseStore, AbstractState | None, bool]]:
    """All final product states, depth first, true branch first.

    With ``astate0`` None this explores with plain SoundSE.
    """
    if dead(astate0):
        return []
    finals = explore(
        ProductState(program.body, kappa0, astate0, True),
        lambda state: product_step(state, k, solver, factory),
        lambda state: isinstance(state.cmd, Skip),
        path_cap,
    )
    return [(state.kappa, state.astate, state.precise) for state in finals]
