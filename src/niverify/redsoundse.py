"""Reduced product of bounded symbolic execution with the interval domain.

A product state carries both a precise store and an abstract state; a step
advances them in lockstep along the same syntactic branch, and a branch
survives only if both sides allow it (path may-satisfiable and guarded
abstract state non-bottom).  The reduction operator injects the abstract
constraints into the symbolic path, substituting each program variable by
its current symbolic expression; it runs at branch points and at
loop-summarization steps.

With no domain (``astate`` None) the product step is plain SoundSE's step,
so this is the one single-trace step of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from niverify.absint import AbstractState, a_assign, a_guard, analyze, constr
from niverify.lang import Assign, BExpr, Command, If, Program, SKIP, Seq, Skip, While
from niverify.solver import Solver
from niverify.soundse import Counter, W0, counter_apply, explore, focus, modif, plug
from niverify.symcore import (
    PAnd,
    PreciseStore,
    SymbolFactory,
    SymPath,
    pand,
    pnot,
    sym_eval_bool,
    sym_eval_expr,
)


@dataclass(frozen=True)
class ProductState:
    cmd: Command
    kappa: PreciseStore
    astate: AbstractState | None
    counter: Counter
    precise: bool


def _conjuncts(path: SymPath) -> set[SymPath]:
    out: set[SymPath] = set()
    stack = [path]
    while stack:
        node = stack.pop()
        if isinstance(node, PAnd):
            stack.extend((node.left, node.right))
        else:
            out.add(node)
    return out


def reduction(kappa: PreciseStore, astate: AbstractState) -> PreciseStore:
    """Strengthen the path with the abstract constraints; same concretization.

    Each bound constraint over a program variable is rephrased over that
    variable's current symbolic expression.  Conjuncts already present are
    not repeated, keeping paths small and runs deterministic.
    """
    rho = kappa.store()
    path = kappa.path
    present = _conjuncts(path)
    for cmp in constr(astate):
        conjunct = sym_eval_bool(cmp, rho)
        if conjunct not in present:
            path = pand(path, conjunct)
            present.add(conjunct)
    return PreciseStore.of(rho, path)


def _guard(bexpr: BExpr, astate: AbstractState | None) -> AbstractState | None:
    return None if astate is None else a_guard(bexpr, astate)


def _dead(astate: AbstractState | None) -> bool:
    return astate is not None and astate.is_bottom


def product_step(state: ProductState, k: int, solver: Solver, factory: SymbolFactory) -> list[ProductState]:
    """Lockstep successors, true branch first; dead on either side means pruned."""
    out: list[ProductState] = []
    redex, rest = focus(state.cmd)
    rho, path, astate = state.kappa.store(), state.kappa.path, state.astate

    def feasible(path2: SymPath, astate2: AbstractState | None) -> bool:
        return not _dead(astate2) and solver.may_sat(path2)

    def emit(cmd: Command, kappa: PreciseStore, astate2, counter: Counter, precise: bool, reduce=True):
        if _dead(astate2):
            return
        if reduce and astate2 is not None:
            kappa = reduction(kappa, astate2)
        out.append(ProductState(plug(cmd, rest), kappa, astate2, counter, precise))

    match redex:
        case Skip():
            raise ValueError("skip has no successor")
        case Seq(_, second):
            emit(second, state.kappa, astate, state.counter, state.precise, reduce=False)
        case Assign(var, expr):
            rho2 = dict(rho)
            rho2[var] = sym_eval_expr(expr, rho)
            astate2 = None if astate is None else a_assign(var, expr, astate)
            emit(SKIP, PreciseStore.of(rho2, path), astate2, state.counter, state.precise, reduce=False)
        case If(guard, then_branch, else_branch):
            beta = sym_eval_bool(guard, rho)
            cases = ((then_branch, beta, guard), (else_branch, pnot(beta), guard.negate()))
            for branch, sign, bguard in cases:
                path2 = pand(path, sign)
                astate2 = _guard(bguard, astate)
                if feasible(path2, astate2):
                    emit(branch, PreciseStore.of(rho, path2), astate2, state.counter, state.precise)
        case While(guard, body, active):
            beta = sym_eval_bool(guard, rho)
            path_t = pand(path, beta)
            astate_t = _guard(guard, astate)
            if feasible(path_t, astate_t):
                ok, counter2 = counter_apply("continue", active, state.counter, k)
                if ok:
                    unrolled = Seq(body, While(guard, body, active=True))
                    emit(unrolled, PreciseStore.of(rho, path_t), astate_t, counter2, state.precise)
                else:
                    # Summarize the remaining iterations: havoc the write
                    # set, analyze the loop abstractly, then reduce.  The
                    # path is left unchanged.
                    rho2 = modif(rho, redex, factory)
                    astate2 = None if astate is None else analyze(redex, astate)
                    emit(SKIP, PreciseStore.of(rho2, path), astate2, counter2, False)
            path_f = pand(path, pnot(beta))
            astate_f = _guard(guard.negate(), astate)
            if feasible(path_f, astate_f):
                _, counter2 = counter_apply("exit", active, state.counter, k)
                emit(SKIP, PreciseStore.of(rho, path_f), astate_f, counter2, state.precise)
        case _:
            raise ValueError(f"unknown command {redex!r}")
    return out


def bounded_step(state: ProductState, k: int, solver: Solver, factory: SymbolFactory) -> list[ProductState]:
    """SoundSE's step: the product step on a state with no domain.

    It keeps its own name so that a tracer can tell the two single-trace
    engines apart.
    """
    return product_step(state, k, solver, factory)


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
    if _dead(astate0):
        return []
    finals = explore(
        ProductState(program.body, kappa0, astate0, W0, True),
        lambda state: product_step(state, k, solver, factory),
        lambda state: isinstance(state.cmd, Skip),
        path_cap,
    )
    return [(state.kappa, state.astate, state.precise) for state in finals]
