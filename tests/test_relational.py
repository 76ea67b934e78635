import random
from pathlib import Path

import pytest

from niverify import redsoundse, relational
from niverify.absint import AbstractState, Interval
from niverify.driver import MATRIX, AnalysisConfig, Secure, config_for, initial_rel_store, make_rel_engine, verify_ni
from niverify.lang import Cmp, Const, If, Program, SKIP, Var, parse_program, used_vars
from niverify.redsoundse import product_explore
from niverify.relational import (
    Diverged,
    _reduce2,
    Pair,
    RelEngine,
    RelState,
    agree,
    in_gamma_k2,
    modif_dep,
    pairing,
    proj,
    proj_expr,
    rel_eval_bool,
    rel_eval_expr,
    srse_explore,
    srse_step,
)
from niverify.solver import Sat, Solver
from niverify.soundse import PathCapExceeded, explore, initial_precise_store
from niverify.symcore import (
    PreciseStore,
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    eval_sym,
    has_conjunct,
    pand,
    pcmp,
    sym_eval_bool,
    sym_eval_expr,
)

from helpers import (
    check_relational_coverage,
    random_cmp,
    random_expr,
    random_program,
    random_store,
    recorded_final_paths,
    shared,
)


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
        "y": shared(SVal(factory.initial("y"))),
    }


def test_projections():
    factory = SymbolFactory()
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    rho2 = {"y": shared(SConst(5)), "priv": Pair(p0, p1)}
    assert proj(0, rho2) == {"y": SConst(5), "priv": p0}
    assert proj(1, rho2) == {"y": SConst(5), "priv": p1}
    assert proj_expr(0, shared(SConst(3))) == proj_expr(1, shared(SConst(3))) == SConst(3)


def test_shared_pair_prints_one_side_and_skips_the_solver():
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    assert str(Pair(x, x)) == "<x>" and Pair(x, x).shared
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    assert str(Pair(p0, p1)) == f"<{p0} | {p1}>" and not Pair(p0, p1).shared

    class NoSolver:
        def prove_equal(self, *args):
            raise AssertionError("a shared pair needs no proof")

    assert agree(Pair(x, x), TRUE, NoSolver())
    assert agree(Pair(p0, p1), pcmp("==", p0, p1), Solver())
    assert not agree(Pair(p0, p1), TRUE, Solver())


def test_projection_commutes_with_update():
    factory = SymbolFactory()
    rho2 = {"x": shared(SVal(factory.initial("x")))}
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
    assert pairing(rho, rho, TRUE, solver) == {"x": shared(x), "y": shared(SConst(5))}

    i0, i1 = SVal(factory.fresh("i")), SVal(factory.fresh("i"))
    same = pcmp("==", i0, i1)
    merged = pairing(
        {"v": SBinOp("+", i0, SConst(1))},
        {"v": SBinOp("+", i1, SConst(1))},
        same,
        solver,
    )
    assert merged["v"] == shared(SBinOp("+", i0, SConst(1)))
    unmerged = pairing({"v": i0}, {"v": i1}, TRUE, solver)
    assert unmerged["v"] == Pair(i0, i1)


def test_rel_eval_bool():
    factory = SymbolFactory()
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    guard = rel_eval_bool(Cmp(">", Var("priv"), Const(0)), {"priv": Pair(p0, p1)})
    assert guard == (pcmp(">", p0, SConst(0)), pcmp(">", p1, SConst(0)))
    assert guard[0] != guard[1]

    i = SVal(factory.initial("i"))
    low_guard = rel_eval_bool(Cmp("<", Var("i"), Const(1)), {"i": shared(i)})
    assert low_guard[0] == low_guard[1]
    const_guard = rel_eval_bool(Cmp("<", Const(0), Const(1)), {"i": shared(i)})
    assert const_guard == (TRUE, TRUE)


def test_step_on_secret_guard_covers_four_combinations(solver):
    engine = _plain_engine(solver)
    program = _secret_branch_program()
    rho2 = _secret_branch_store(engine.factory)
    state = RelState(program.body, PreciseStore.of(rho2, TRUE), None, None, True)
    successors = srse_step(state, engine)
    assert len(successors) == 4
    tt, tf, ft, ff = successors
    assert not isinstance(tt.control, Diverged) and not isinstance(ff.control, Diverged)
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
    state = RelState(cmd, PreciseStore.of({"i": shared(i)}, TRUE), None, None, True)
    successors = srse_step(state, engine)
    assert len(successors) == 2
    assert not any(isinstance(s.control, Diverged) for s in successors)


def test_shared_guard_does_not_split_past_the_clause_budget(solver):
    """The solver gives up on a path of 2**8 DNF clauses, so only the step can
    see that one guard cannot send the two traces different ways."""
    engine = _plain_engine(solver)
    i = SVal(engine.factory.initial("i"))
    path = TRUE
    for k in range(8):
        path = pand(path, pcmp("!=", i, SConst(10 + k)))
    cmd = If(Cmp("<", Var("i"), Const(1)), SKIP, SKIP)
    state = RelState(cmd, PreciseStore.of({"i": shared(i)}, path), None, None, True)
    successors = srse_step(state, engine)
    assert len(successors) == 2
    assert not any(isinstance(s.control, Diverged) for s in successors)


def test_explore_secret_branch_program(solver):
    engine = _plain_engine(solver)
    program = _secret_branch_program()
    rho2 = _secret_branch_store(engine.factory)
    finals = srse_explore(program, rho2, engine, path_cap=512)
    assert len(finals) == 4
    for kappa2, precise in finals:
        assert precise
        assert kappa2.store()["y"] == shared(SConst(5))


def test_explore_unbounded_low_loop_over_approximates(solver):
    engine = _plain_engine(solver, bound=2)
    program = parse_program(
        "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"
    )
    factory = engine.factory
    rho2 = {
        "i": shared(SVal(factory.initial("i"))),
        "z": shared(SVal(factory.initial("z"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    finals = srse_explore(program, rho2, engine, path_cap=512)
    assert any(not precise for _, precise in finals)
    # Plain relational havoc loses the agreement on i.
    summarized = [k for k, precise in finals if not precise]
    assert all(not k.store()["i"].shared for k in summarized)


def test_explore_skip_program(solver):
    engine = _plain_engine(solver)
    program = Program(SKIP, frozenset({"x"}), frozenset({"x"}))
    rho2 = {"x": shared(SVal(engine.factory.initial("x")))}
    finals = srse_explore(program, rho2, engine, path_cap=16)
    assert finals == [(PreciseStore.of(rho2, TRUE), True)]


def test_low_guards_never_diverge(solver):
    engine = _plain_engine(solver, bound=4)
    program = parse_program(
        "low i, y; high priv; i := 0; while (i < 4) { i := i + 1; y := y + priv; }"
    )
    factory = engine.factory
    rho2 = {
        "i": shared(SVal(factory.initial("i"))),
        "y": shared(SVal(factory.initial("y"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    stack = [RelState(program.body, PreciseStore.of(rho2, TRUE), None, None, True)]
    while stack:
        state = stack.pop()
        assert not isinstance(state.control, Diverged), "low guards must keep lockstep"
        if state.final:
            continue
        stack.extend(srse_step(state, engine))


def test_inner_loop_gets_a_fresh_budget_on_every_entry(solver):
    """Six inner iterations over three entries; a shared budget would summarize."""
    program = parse_program(
        "low i, j; i := 0; while (i < 3) { j := 0; while (j < 2) { j := j + 1; } i := i + 1; }"
    )
    for intervals in (False, True):
        factory = SymbolFactory()
        astate0 = AbstractState.top(program.all_vars) if intervals else None
        kappa0 = initial_precise_store(program, factory)
        finals = product_explore(program, kappa0, astate0, 3, 512, solver, factory)
        assert finals and all(precise for _, _, precise in finals)

        engine = RelEngine(solver=solver, factory=SymbolFactory(), bound=3, use_intervals=intervals)
        rel_finals = srse_explore(program, initial_rel_store(program, engine.factory), engine, 512)
        assert rel_finals and all(precise for _, precise in rel_finals)


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
        "i": shared(SVal(factory.initial("i"))),
        "z": shared(SVal(factory.initial("z"))),
        "priv": Pair(SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))),
    }
    havocked = modif_dep(rho2, program.body, frozenset(), factory)
    assert havocked["z"] == rho2["z"]
    assert not havocked["i"].shared and not havocked["priv"].shared
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


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _default_finals(program, one_domain: bool):
    """Finals under the default config, the traces starting with one or two interval states."""
    config = AnalysisConfig()
    engine = make_rel_engine(program, config, Solver())
    a0 = AbstractState.top(program.all_vars)
    a1 = a0 if one_domain else AbstractState.top(program.all_vars)
    start = RelState(program.body, PreciseStore.of(initial_rel_store(program, engine.factory), TRUE), a0, a1, True)
    try:
        finals = explore(start, lambda state: srse_step(state, engine), lambda state: state.final, config.path_cap)
        return [(str(state.kappa2), state.precise) for state in finals]
    except PathCapExceeded as exc:
        return str(exc)


def test_sharing_the_interval_state_is_invisible():
    """One interval state for both traces gives the same finals as two equal ones."""
    programs = [parse_program(path.read_text()) for path in sorted(CORPUS.glob("*.imp"))]
    programs += [random_program(random.Random(f"share:{i}"), 3, 3) for i in range(30)]
    for program in programs:
        assert _default_finals(program, True) == _default_finals(program, False), program.body


def test_lockstep_branches_run_each_transfer_once(monkeypatch):
    """Three low-guarded ifs fork 7 times: one interval guard per side, none for dead sign pairs."""
    calls = {"a_guard": 0, "a_assign": 0}
    for name in calls:
        real = getattr(redsoundse, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(redsoundse, name, counted)
    program = parse_program(
        "low l1, l2, l3, y; high h;\n"
        + "".join(f"if (l{k} > 0) {{ y := y + {k}; }} else {{ h := h + 1; }}\n" for k in (1, 2, 3))
    )
    assert verify_ni(program, AnalysisConfig()) == Secure()
    assert calls == {"a_guard": 14, "a_assign": 14}


def test_reduce2_skips_only_conjuncts_trace_0_added():
    """Trace 1's reduction skips shared variables only when both traces hold one interval state."""
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    rho2 = {"x": shared(x), "h": Pair(SVal(factory.fresh("h")), SVal(factory.fresh("h")))}
    kappa2 = PreciseStore.of(rho2, TRUE)

    def both_projections(a0, a1):
        path = redsoundse.reduction(PreciseStore.of(proj(0, rho2), TRUE), a0).path
        return PreciseStore.of(rho2, redsoundse.reduction(PreciseStore.of(proj(1, rho2), path), a1).path)

    a0 = AbstractState.of({"x": Interval(0, 5), "h": Interval(1, None)})
    a1 = AbstractState.of({"x": Interval(2, 9), "h": Interval(None, 0)})
    assert _reduce2(kappa2, a0, a0) == both_projections(a0, a0)
    reduced = _reduce2(kappa2, a0, a1)
    assert reduced == both_projections(a0, a1)
    assert has_conjunct(reduced.path, pcmp(">=", x, SConst(2)))


def test_one_walk_evaluation_matches_the_projections():
    """``rel_eval_expr``/``rel_eval_bool`` give each side the term of its own
    projection, and one object for both when every variable read is shared."""
    rng = random.Random(93)
    variables = ("a", "b", "c", "d")
    both_shared = 0
    for _ in range(1000):
        factory = SymbolFactory()
        rho2 = {}
        for x in variables:
            left = sym_eval_expr(random_expr(rng, variables, 1), {v: SVal(factory.initial(v)) for v in variables})
            if rng.random() < 0.5:
                rho2[x] = Pair(left, left)
            else:
                rho2[x] = Pair(left, SVal(factory.fresh(x)))
        expr = random_expr(rng, variables, 3)
        got = rel_eval_expr(expr, rho2)
        assert got == Pair(sym_eval_expr(expr, proj(0, rho2)), sym_eval_expr(expr, proj(1, rho2)))
        bexpr = random_cmp(rng, variables, 2)
        g0, g1 = rel_eval_bool(bexpr, rho2)
        assert (g0, g1) == (sym_eval_bool(bexpr, proj(0, rho2)), sym_eval_bool(bexpr, proj(1, rho2)))
        if all(rho2[v].left is rho2[v].right for v in used_vars(expr)):
            both_shared += 1
            assert got.left is got.right
        if all(rho2[v].left is rho2[v].right for v in used_vars(bexpr)):
            assert g0 is g1
    assert both_shared > 100


def test_a_guard_reading_the_same_pairs_gets_the_same_leaves():
    """The engine's guard memo returns the leaves it built last only when
    every pair the guard reads is the very object it read then; equal
    pairs that are other objects rebuild equal leaves."""
    factory = SymbolFactory()
    x, h0, h1 = SVal(factory.initial("x")), SVal(factory.fresh("h")), SVal(factory.fresh("h"))
    guard = Cmp("<", Var("x"), Var("h"))
    rho2 = {"x": shared(x), "h": Pair(h0, h1)}
    memo = {}
    first = rel_eval_bool(guard, rho2, memo)
    assert first == rel_eval_bool(guard, rho2) and first[0] is not first[1]
    assert rel_eval_bool(guard, dict(rho2), memo) is first
    equal = {"x": shared(x), "h": Pair(h0, h1)}
    assert equal == rho2
    rebuilt = rel_eval_bool(guard, equal, memo)
    assert rebuilt == first and rebuilt is not first
    assert rebuilt[0] is not first[0] and rebuilt[1] is not first[1]
    # The memo now holds the new pairs: the old store rebuilds once more.
    assert rel_eval_bool(guard, equal, memo) is rebuilt
    assert rel_eval_bool(guard, rho2, memo) is not rebuilt
    # A guard on shared pairs keeps one leaf for both traces.
    low = Cmp(">", Var("x"), Const(0))
    leaves = rel_eval_bool(low, rho2, memo)
    assert leaves[0] is leaves[1]
    assert rel_eval_bool(low, {"x": rho2["x"]}, memo) is leaves


def test_skipping_trace_1_reductions_that_add_nothing_keeps_every_final_path(monkeypatch):
    """With one interval state for both traces and every bounded variable
    shared, trace 1's reduction is not called.  The configs with a domain
    explore the same final paths with that skip patched off, where every
    such call is made, and the skip saves calls."""
    programs = [random_program(random.Random(f"cmp:{i}"), 3, 3) for i in range(40)]
    programs.append(parse_program("low x, y; high h; while (x < 6) { if (h > x) { y := y + x; } x := x + 1; }"))
    configs = [config_for(e, s, AnalysisConfig(), path_cap=1024) for e, s in MATRIX if s == "redsoundse"]
    runs, calls = {}, {True: 0, False: 0}
    plain_reduction = redsoundse.reduction

    def counted(*args, **kwargs):
        calls[skipping] += 1
        return plain_reduction(*args, **kwargs)

    monkeypatch.setattr(redsoundse, "reduction", counted)
    for skipping in (True, False):
        if not skipping:
            monkeypatch.setattr(relational, "_bounds_unshared", lambda rho2, astate: True)
        with recorded_final_paths() as lines:
            for program in programs:
                for config in configs:
                    lines.append(str(verify_ni(program, config)))
        runs[skipping] = lines
    assert runs[True] == runs[False]
    assert len(runs[True]) > 250
    assert calls[True] < calls[False]
