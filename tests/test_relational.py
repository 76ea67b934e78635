import random

import pytest

from niverify.lang import Cmp, Const, If, Program, SKIP, Var, parse_program
from niverify.relational import (
    Diverged,
    Pair,
    RelEngine,
    RelPreciseStore,
    RelState,
    Single,
    Unified,
    in_gamma_k2,
    modif_dep,
    pairing,
    proj,
    proj_expr,
    rel_eval_bool,
    srse_explore,
    srse_step,
)
from niverify.solver import Sat, Solver
from niverify.soundse import W0
from niverify.symcore import (
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    eval_sym,
    pand,
    pcmp,
)

from helpers import check_relational_coverage, random_program, random_store


@pytest.fixture
def solver():
    return Solver()


def _plain_engine(solver, bound=3) -> RelEngine:
    return RelEngine(solver=solver, factory=SymbolFactory(), bound=bound, use_intervals=False)


def _secret_branch_program():
    return parse_program("low y; high priv; if (priv > 0) { y := 5; } else { y := 5; }")


def _secret_branch_store(factory):
    return {
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
        "y": Single(SVal(factory.initial("y"))),
    }


def test_projections():
    factory = SymbolFactory()
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    rho2 = {"y": Single(SConst(5)), "priv": Pair(p0, p1)}
    assert proj(0, rho2) == {"y": SConst(5), "priv": p0}
    assert proj(1, rho2) == {"y": SConst(5), "priv": p1}
    assert proj_expr(0, Single(SConst(3))) == proj_expr(1, Single(SConst(3))) == SConst(3)


def test_projection_commutes_with_update():
    factory = SymbolFactory()
    rho2 = {"x": Single(SVal(factory.initial("x")))}
    updated = dict(rho2)
    updated["x"] = Pair(SConst(1), SConst(2))
    for i in (0, 1):
        left = proj(i, updated)
        right = dict(proj(i, rho2))
        right["x"] = proj_expr(i, updated["x"])
        assert left == right


def test_pairing(solver):
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    rho = {"x": x, "y": SConst(5)}
    assert pairing(rho, rho, TRUE, solver) == {"x": Single(x), "y": Single(SConst(5))}

    i0, i1 = SVal(factory.fresh("i")), SVal(factory.fresh("i"))
    same = pcmp("==", i0, i1)
    merged = pairing(
        {"v": SBinOp("+", i0, SConst(1))},
        {"v": SBinOp("+", i1, SConst(1))},
        same,
        solver,
    )
    assert merged["v"] == Single(SBinOp("+", i0, SConst(1)))
    unmerged = pairing({"v": i0}, {"v": i1}, TRUE, solver)
    assert unmerged["v"] == Pair(i0, i1)


def test_rel_eval_bool():
    factory = SymbolFactory()
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    guard = rel_eval_bool(Cmp(">", Var("priv"), Const(0)), {"priv": Pair(p0, p1)})
    assert guard.left == pcmp(">", p0, SConst(0))
    assert guard.right == pcmp(">", p1, SConst(0))
    assert not guard.single

    i = SVal(factory.initial("i"))
    low_guard = rel_eval_bool(Cmp("<", Var("i"), Const(1)), {"i": Single(i)})
    assert low_guard.single
    const_guard = rel_eval_bool(Cmp("<", Const(0), Const(1)), {"i": Single(i)})
    assert const_guard.single and const_guard.left == TRUE


def test_step_on_secret_guard_covers_four_combinations(solver):
    engine = _plain_engine(solver)
    program = _secret_branch_program()
    rho2 = _secret_branch_store(engine.factory)
    state = RelState(Unified(program.body), RelPreciseStore.of(rho2, TRUE), None, None, W0, True)
    successors = srse_step(state, engine)
    assert len(successors) == 4
    tt, tf, ft, ff = successors
    assert isinstance(tt.control, Unified) and isinstance(ff.control, Unified)
    assert isinstance(tf.control, Diverged) and isinstance(ft.control, Diverged)
    p0 = proj_expr(0, rho2["priv"])
    p1 = proj_expr(1, rho2["priv"])
    assert tf.kappa2.path == pand(
        pcmp(">", p0, SConst(0)), pcmp("<=", p1, SConst(0))
    )


def test_step_on_shared_guard_stays_in_lockstep(solver):
    engine = _plain_engine(solver)
    factory = engine.factory
    i = SVal(factory.initial("i"))
    cmd = If(Cmp("<", Var("i"), Const(1)), SKIP, SKIP)
    state = RelState(Unified(cmd), RelPreciseStore.of({"i": Single(i)}, TRUE), None, None, W0, True)
    successors = srse_step(state, engine)
    assert len(successors) == 2
    assert all(isinstance(s.control, Unified) for s in successors)


def test_explore_secret_branch_program(solver):
    engine = _plain_engine(solver)
    program = _secret_branch_program()
    rho2 = _secret_branch_store(engine.factory)
    finals = srse_explore(program, rho2, engine, path_cap=512)
    assert len(finals) == 4
    for kappa2, precise in finals:
        assert precise
        assert kappa2.store()["y"] == Single(SConst(5))


def test_explore_unbounded_low_loop_over_approximates(solver):
    engine = _plain_engine(solver, bound=2)
    program = parse_program(
        "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"
    )
    factory = engine.factory
    rho2 = {
        "i": Single(SVal(factory.initial("i"))),
        "z": Single(SVal(factory.initial("z"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    finals = srse_explore(program, rho2, engine, path_cap=512)
    assert any(not precise for _, precise in finals)
    # Plain relational havoc loses the agreement on i.
    summarized = [k for k, precise in finals if not precise]
    assert all(isinstance(k.store()["i"], Pair) for k in summarized)


def test_explore_skip_program(solver):
    engine = _plain_engine(solver)
    program = Program(SKIP, frozenset({"x"}), frozenset({"x"}))
    rho2 = {"x": Single(SVal(engine.factory.initial("x")))}
    finals = srse_explore(program, rho2, engine, path_cap=16)
    assert finals == [(RelPreciseStore.of(rho2, TRUE), True)]


def test_low_guards_never_diverge(solver):
    engine = _plain_engine(solver, bound=4)
    program = parse_program(
        "low i, y; high priv; i := 0; while (i < 4) { i := i + 1; y := y + priv; }"
    )
    factory = engine.factory
    rho2 = {
        "i": Single(SVal(factory.initial("i"))),
        "y": Single(SVal(factory.initial("y"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    stack = [RelState(Unified(program.body), RelPreciseStore.of(rho2, TRUE), None, None, W0, True)]
    while stack:
        state = stack.pop()
        assert isinstance(state.control, Unified), "low guards must keep lockstep"
        if state.final:
            continue
        stack.extend(srse_step(state, engine))


def test_pairing_projection_round_trip(solver):
    rng = random.Random(91)
    from helpers import random_expr
    from niverify.symcore import sym_eval_expr

    for _ in range(60):
        factory = SymbolFactory()
        base0 = {v: SVal(factory.fresh(v)) for v in ("x", "y")}
        base1 = {v: SVal(factory.fresh(v)) for v in ("x", "y")}
        rho0 = {v: sym_eval_expr(random_expr(rng, ("x", "y"), 2), base0) for v in ("x", "y")}
        rho1 = {v: sym_eval_expr(random_expr(rng, ("x", "y"), 2), base1) for v in ("x", "y")}
        path = pcmp("==", base0["x"], base1["x"])
        merged = pairing(rho0, rho1, path, solver)
        for i, rho in ((0, rho0), (1, rho1)):
            for v in ("x", "y"):
                got = proj(i, merged)[v]
                assert got == rho[v] or solver.prove_equal(got, rho[v], path)


def test_plain_havoc_pairs_every_written_variable():
    factory = SymbolFactory()
    program = parse_program(
        "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"
    )
    rho2 = {
        "i": Single(SVal(factory.initial("i"))),
        "z": Single(SVal(factory.initial("z"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    havocked = modif_dep(rho2, program.body, frozenset(), factory)
    assert havocked["z"] == rho2["z"]
    assert isinstance(havocked["i"], Pair) and isinstance(havocked["priv"], Pair)
    assert havocked["i"].left != havocked["i"].right


def test_relational_coverage_random_sample():
    rng = random.Random(92)
    covered = 0
    for _ in range(40):
        p = random_program(rng)
        mu0 = random_store(rng, p)
        mu1 = dict(mu0)
        for x in p.all_vars - p.low_vars:
            mu1[x] = rng.randint(-8, 8)
        solver = Solver()
        engine = RelEngine(solver=solver, factory=SymbolFactory(), bound=2, use_intervals=False)
        from niverify.driver import initial_rel_store

        rho2 = initial_rel_store(p, engine.factory)
        covered += check_relational_coverage(p, mu0, mu1, engine, rho2, fuel=400)
    assert covered >= 20


def test_flag_true_finals_replay_as_two_runs(solver):
    """Satisfiable precise finals admit a concrete two-trace witness."""
    program = parse_program(
        "low i; high priv; while (priv < 0) { i := i + 1; priv := priv + 1; }"
    )
    engine = _plain_engine(solver, bound=2)
    from niverify.driver import initial_rel_store
    from helpers import run_capped
    from niverify.lang import Final

    rho2_0 = initial_rel_store(program, engine.factory)
    finals = srse_explore(program, rho2_0, engine, path_cap=512)
    replayed = 0
    for kappa2, precise in finals:
        if not precise:
            continue
        res = solver.check_sat(kappa2.path)
        if not isinstance(res, Sat):
            continue
        nu = res.valuation()
        for x, e in rho2_0.items():
            for i in (0, 1):
                expr = proj_expr(i, e)
                nu.setdefault(expr.sym, 0)
        mu0 = {x: eval_sym(proj_expr(0, e), nu) for x, e in rho2_0.items()}
        mu1 = {x: eval_sym(proj_expr(1, e), nu) for x, e in rho2_0.items()}
        out0 = run_capped(program.body, mu0, 10_000)
        out1 = run_capped(program.body, mu1, 10_000)
        assert isinstance(out0, Final) and isinstance(out1, Final)
        assert in_gamma_k2(kappa2, out0.as_store(), out1.as_store(), nu)
        replayed += 1
    assert replayed >= 3
