"""Shared test machinery: random programs and instrumented coverage walkers.

The walkers follow the engines' own step functions alongside an
independently interpreted concrete run (or run pair).  At each state they
select the successor whose path the current valuation satisfies; when the
engine summarizes a loop they fast-forward the concrete loop to its exit
and record the exit values for the freshly minted symbols.  The final
membership check against the independent interpreter is what the
soundness-coverage tests assert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from niverify import lang
from niverify.absint import AbstractState, state_holds
from niverify.lang import (
    Assign,
    BinOp,
    Cmp,
    Const,
    Final,
    If,
    Program,
    SKIP,
    Seq,
    Skip,
    Var,
    While,
)
from niverify.redsoundse import ProductState, product_explore, product_step
from niverify.relational import (
    Diverged,
    Pair,
    srse_step,
    RelEngine,
    RelState,
    in_gamma_k2,
    proj_expr,
)
from niverify.solver import Solver
from niverify.soundse import focus
from niverify.symcore import (
    PreciseStore,
    SymbolFactory,
    SVal,
    TRUE,
    eval_path,
    eval_sym,
    in_gamma_k,
    symbols_of_expr,
)

WALK_STEP_LIMIT = 100_000

# Random programs can square variables inside loops; beyond this magnitude a
# run is treated like divergence so bignum blowups cannot stall the suite.
MAGNITUDE_CAP = 10**12


class Diverges(Exception):
    """The concrete run (or a fast-forwarded loop) ran out of fuel."""


def run_capped(cmd, store, fuel, cap=MAGNITUDE_CAP):
    """run_command, but values above the cap count as divergence (None)."""
    current = dict(store)
    for _ in range(fuel):
        if isinstance(cmd, Skip):
            return Final.of(current)
        cmd, current = lang.concrete_step((cmd, current))
        if any(abs(v) > cap for v in current.values()):
            return None
    return Final.of(current) if isinstance(cmd, Skip) else None


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

VAR_POOL = ("a", "b", "c", "d")

# Constants at the edges of float precision (2^53) and of machine words
# (2^63), for ``random_program(..., constants=BOUNDARY_CONSTANTS)``.
BOUNDARY_CONSTANTS = (0, 1, -1, 3, 2**53, 2**53 + 1, -(2**53) - 1, 2**63, 10**17 + 3)


def random_expr(rng: random.Random, variables, depth: int, constants=None):
    """A random term; its constants come from ``constants``, or from [-4, 4] if None."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Const(rng.randint(-4, 4) if constants is None else rng.choice(constants))
        return Var(rng.choice(variables))
    op = rng.choice(["+", "+", "-", "*"])
    return BinOp(
        op,
        random_expr(rng, variables, depth - 1, constants),
        random_expr(rng, variables, depth - 1, constants),
    )


def random_cmp(rng: random.Random, variables, depth: int, constants=None) -> Cmp:
    op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
    return Cmp(op, random_expr(rng, variables, depth, constants), random_expr(rng, variables, depth, constants))


def random_command(rng: random.Random, variables, depth: int, constants=None):
    roll = rng.random()
    if depth <= 0 or roll < 0.42:
        return Assign(rng.choice(variables), random_expr(rng, variables, min(depth, 2), constants))
    if roll < 0.58:
        return Seq(
            random_command(rng, variables, depth - 1, constants),
            random_command(rng, variables, depth - 1, constants),
        )
    if roll < 0.62:
        return SKIP
    if roll < 0.84:
        return If(
            random_cmp(rng, variables, 1, constants),
            random_command(rng, variables, depth - 1, constants),
            random_command(rng, variables, depth - 1, constants),
        )
    # Loops are biased toward a counting shape so enough samples terminate.
    v = rng.choice(variables)
    bound = rng.randint(0, 4)
    body = Seq(Assign(v, BinOp("+", Var(v), Const(1))), random_command(rng, variables, depth - 1, constants))
    if rng.random() < 0.25:
        return While(random_cmp(rng, variables, 1, constants), random_command(rng, variables, depth - 1, constants))
    return While(Cmp("<", Var(v), Const(bound)), body)


def random_program(rng: random.Random, max_depth: int = 4, max_vars: int = 4, constants=None) -> Program:
    variables = VAR_POOL[: rng.randint(1, max_vars)]
    body = random_command(rng, variables, max_depth, constants)
    n_low = rng.randint(0, len(variables))
    low = frozenset(rng.sample(variables, n_low))
    return Program(body, low, frozenset(variables))


def random_store(rng: random.Random, program: Program, lo: int = -8, hi: int = 8) -> dict:
    return {x: rng.randint(lo, hi) for x in program.all_vars}


# ---------------------------------------------------------------------------
# Single-trace coverage walker (plain and product engines)
# ---------------------------------------------------------------------------


def se_explore(program, kappa0, k, path_cap, solver, factory):
    """Plain SoundSE exploration: the product with no domain, as (kappa, precise) pairs."""
    finals = product_explore(program, kappa0, None, k, path_cap, solver, factory)
    return [(kappa, precise) for kappa, _, precise in finals]


def _new_symbols(store, nu) -> set:
    out = set()
    for expr in store.values():
        out |= {s for s in symbols_of_expr(expr) if s not in nu}
    return out


@dataclass
class SingleWalk:
    kappa: PreciseStore
    precise: bool
    valuation: dict


def walk_single_coverage(
    program: Program,
    mu0: dict,
    k: int,
    solver: Solver,
    fuel: int,
    with_intervals: bool = False,
) -> SingleWalk:
    """Drive the engine along the run from mu0; returns the covering final.

    Raises Diverges when the concrete run exceeds the fuel.  Any other
    failure (no matching successor, bad membership) is a soundness bug and
    asserts.
    """
    factory = SymbolFactory()
    rho0 = {x: SVal(factory.initial(x)) for x in sorted(program.all_vars)}
    nu = {factory.initial(x): mu0[x] for x in program.all_vars}
    kappa = PreciseStore.of(rho0, TRUE)
    astate = AbstractState.top(program.all_vars) if with_intervals else None
    state = ProductState(program.body, kappa, astate, True)

    for _ in range(WALK_STEP_LIMIT):
        if isinstance(state.cmd, Skip):
            return SingleWalk(state.kappa, state.precise, nu)
        mu = {x: eval_sym(e, nu) for x, e in state.kappa.store().items()}
        if with_intervals:
            assert state_holds(state.astate, mu), "interval state lost the concrete store"
        successors = product_step(state, k, solver, factory)
        exact = [
            s
            for s in successors
            if not _new_symbols(s.kappa.store(), nu) and eval_path(s.kappa.path, nu)
        ]
        assert len(exact) <= 1, "branch paths must partition the concrete successor"
        if exact:
            state = exact[0]
            continue
        havocked = [s for s in successors if _new_symbols(s.kappa.store(), nu)]
        loop, _ = focus(state.cmd)
        assert isinstance(loop, While), "stuck at a non-loop state"
        res = run_capped(loop, mu, fuel)
        if not isinstance(res, Final):
            raise Diverges()
        assert havocked, "concrete run not covered by any successor"
        nxt = havocked[0]
        mu_exit = res.as_store()
        # The havoc gives each written variable one fresh symbol.
        for x, e in nxt.kappa.store().items():
            if isinstance(e, SVal) and e.sym not in nu:
                nu[e.sym] = mu_exit[x]
        assert eval_path(nxt.kappa.path, nu), "havoc summary path does not cover the run"
        state = nxt
    raise AssertionError("walker did not terminate")


# ---------------------------------------------------------------------------
# Relational coverage walker
# ---------------------------------------------------------------------------


def shared(expr) -> Pair:
    """The relational value both executions share."""
    return Pair(expr, expr)


@dataclass
class RelWalk:
    kappa2: PreciseStore
    precise: bool
    valuation: dict


def _rel_new_symbols(rho2, nu) -> set:
    out = set()
    for e in rho2.values():
        for i in (0, 1):
            out |= {s for s in symbols_of_expr(proj_expr(i, e)) if s not in nu}
    return out


def walk_relational_coverage(
    program: Program,
    mu0: dict,
    mu1: dict,
    engine: RelEngine,
    rho2_0,
    fuel: int,
) -> RelWalk:
    """Follow the relational engine along a pair of runs from low-equal stores."""
    nu: dict = {}
    for x, e in rho2_0.items():
        if e.shared:
            assert mu0[x] == mu1[x], "initial stores must be low-equal"
            nu[e.left.sym] = mu0[x]
        else:
            nu[e.left.sym] = mu0[x]
            nu[e.right.sym] = mu1[x]
    a_top = AbstractState.top(program.all_vars) if engine.use_intervals else None
    state = RelState(program.body, PreciseStore.of(rho2_0, TRUE), a_top, a_top, True)

    for _ in range(WALK_STEP_LIMIT):
        if state.final:
            return RelWalk(state.kappa2, state.precise, nu)
        rho2 = state.kappa2.store()
        stores = (
            {x: eval_sym(proj_expr(0, e), nu) for x, e in rho2.items()},
            {x: eval_sym(proj_expr(1, e), nu) for x, e in rho2.items()},
        )
        if engine.use_intervals:
            assert state_holds(state.a0, stores[0]) and state_holds(state.a1, stores[1])
        successors = srse_step(state, engine)
        exact = [
            s
            for s in successors
            if not _rel_new_symbols(s.kappa2.store(), nu) and eval_path(s.kappa2.path, nu)
        ]
        assert len(exact) <= 1, "relational branch paths must partition the pair"
        if exact:
            state = exact[0]
            continue
        havocked = [s for s in successors if _rel_new_symbols(s.kappa2.store(), nu)]
        if isinstance(state.control, Diverged):
            side = 0 if not isinstance(state.control.left, Skip) else 1
            cmd = state.control.left if side == 0 else state.control.right
            loop, _ = focus(cmd)
            assert isinstance(loop, While)
            res = run_capped(loop, stores[side], fuel)
            if not isinstance(res, Final):
                raise Diverges()
            exits = [dict(stores[0]), dict(stores[1])]
            exits[side] = res.as_store()
            assert havocked, "concrete pair not covered by any successor"
            nxt = havocked[0]
        else:
            loop, _ = focus(state.control)
            assert isinstance(loop, While)
            res0 = run_capped(loop, stores[0], fuel)
            res1 = run_capped(loop, stores[1], fuel)
            if not isinstance(res0, Final) or not isinstance(res1, Final):
                raise Diverges()
            exits = [res0.as_store(), res1.as_store()]
            assert havocked, "concrete pair not covered by any successor"
            nxt = havocked[0]
        rho2_next = nxt.kappa2.store()
        for x in sorted(rho2_next):
            e = rho2_next[x]
            if e.shared:
                fresh = [s for s in symbols_of_expr(e.left) if s not in nu]
                if fresh:
                    assert exits[0][x] == exits[1][x], (
                        f"dependence havoc kept {x} shared but the runs disagree"
                    )
                    nu[fresh[0]] = exits[0][x]
            else:
                for i, side_expr in enumerate((e.left, e.right)):
                    fresh = [s for s in symbols_of_expr(side_expr) if s not in nu]
                    if fresh:
                        nu[fresh[0]] = exits[i][x]
        assert eval_path(nxt.kappa2.path, nu), "relational havoc path does not cover the pair"
        state = nxt
    raise AssertionError("walker did not terminate")


def check_single_coverage(program, mu0, k, solver, fuel, with_intervals=False) -> bool:
    """Full soundness-coverage check for one run; False when it diverges."""
    oracle = run_capped(program.body, mu0, fuel)
    if not isinstance(oracle, Final):
        return False
    try:
        walk = walk_single_coverage(program, mu0, k, solver, fuel, with_intervals)
    except Diverges:
        return False
    assert in_gamma_k(walk.kappa, oracle.as_store(), walk.valuation)
    return True


def check_relational_coverage(program, mu0, mu1, engine, rho2_0, fuel) -> bool:
    """Soundness-coverage check for one low-equal pair; False if either run diverges."""
    res0 = run_capped(program.body, mu0, fuel)
    res1 = run_capped(program.body, mu1, fuel)
    if not isinstance(res0, Final) or not isinstance(res1, Final):
        return False
    try:
        walk = walk_relational_coverage(program, mu0, mu1, engine, rho2_0, fuel)
    except Diverges:
        return False
    assert in_gamma_k2(walk.kappa2, res0.as_store(), res1.as_store(), walk.valuation)
    return True
