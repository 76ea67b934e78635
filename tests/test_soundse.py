import random

import pytest

from niverify.lang import (
    Assign,
    BinOp,
    Cmp,
    Const,
    If,
    Program,
    SKIP,
    Seq,
    Skip,
    Var,
    While,
    parse_program,
)
from niverify.redsoundse import ProductState, product_step
from niverify.solver import Sat, Solver
from niverify.soundse import W0, counter_apply, focus, initial_precise_store, modif, plug
from niverify.symcore import (
    PreciseStore,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    in_gamma_k,
    pcmp,
    symbols_of_expr,
)

from helpers import check_single_coverage, random_program, random_store, se_explore


@pytest.fixture
def solver():
    return Solver()


def _branchy_program():
    return parse_program("low y; high priv; if (priv > 0) { y := 5; } else { y := 5; }")


def _unbounded_loop_program():
    return parse_program(
        "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"
    )


def se_step(cmd, kappa, solver, counter=W0, k=3):
    """SoundSE's step: the product step with no domain."""
    return product_step(ProductState(cmd, kappa, None, counter, True), k, solver, SymbolFactory())


def _counting_loop():
    body = Assign("i", BinOp("+", Var("i"), Const(1)))
    return While(Cmp("<", Var("i"), Const(9)), body), body


def test_se_step_assign(solver):
    factory = SymbolFactory()
    y, priv = SVal(factory.initial("y")), SVal(factory.initial("priv"))
    kappa = PreciseStore.of({"y": y, "priv": priv}, TRUE)
    successors = se_step(Assign("y", Const(5)), kappa, solver)
    assert len(successors) == 1
    succ = successors[0]
    assert succ.cmd == SKIP and succ.counter == W0 and succ.precise and succ.astate is None
    assert succ.kappa.store() == {"y": SConst(5), "priv": priv}
    assert succ.kappa.path == TRUE


def test_se_step_if_splits_on_unconstrained_secret(solver):
    factory = SymbolFactory()
    priv = SVal(factory.initial("priv"))
    kappa = PreciseStore.of({"priv": priv}, TRUE)
    cmd = If(Cmp(">", Var("priv"), Const(0)), SKIP, SKIP)
    successors = se_step(cmd, kappa, solver)
    assert [s.kappa.path for s in successors] == [
        pcmp(">", priv, SConst(0)),
        pcmp("<=", priv, SConst(0)),
    ]


def test_se_step_prunes_infeasible_branch(solver):
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    kappa = PreciseStore.of({"x": x}, pcmp("<=", x, SConst(0)))
    cmd = If(Cmp(">", Var("x"), Const(0)), Assign("x", Const(1)), Assign("x", Const(2)))
    successors = se_step(cmd, kappa, solver)
    assert len(successors) == 1
    assert successors[0].cmd == Assign("x", Const(2))


def test_counter_step_ignores_non_loops(solver):
    kappa = PreciseStore.of({"x": SVal(SymbolFactory().initial("x"))}, TRUE)
    cmd = Seq(Assign("x", Const(1)), While(Cmp("<", Var("x"), Const(9)), SKIP))
    (succ,) = se_step(cmd, kappa, solver, counter=(2,))
    assert succ.counter == (2,) and succ.precise
    (succ,) = se_step(succ.cmd, succ.kappa, solver, counter=(2,))
    assert succ.cmd == cmd.second and succ.counter == (2,)


def test_counter_step_bound_one(solver):
    # First iteration from outside: a zero is pushed, then bumped.
    assert counter_apply("continue", False, W0, k=1) == (True, (1,))
    # Second attempt on the active loop exhausts the budget and pops.
    assert counter_apply("continue", True, (1,), k=1) == (False, ())
    # Exits pop an active loop's entry, and leave an outer loop's alone.
    assert counter_apply("exit", True, (1,), k=1) == (True, ())
    assert counter_apply("exit", False, (1,), k=1) == (True, (1,))

    fresh_loop, body = _counting_loop()
    active_loop = While(fresh_loop.guard, body, active=True)
    kappa = PreciseStore.of({"i": SVal(SymbolFactory().initial("i"))}, TRUE)
    cont, exit_ = se_step(fresh_loop, kappa, solver, k=1)
    assert cont.cmd == Seq(body, active_loop) and cont.counter == (1,) and cont.precise
    assert exit_.cmd == SKIP and exit_.counter == W0
    summary, exit_ = se_step(active_loop, kappa, solver, counter=(1,), k=1)
    assert summary.cmd == SKIP and summary.counter == () and not summary.precise
    (sym,) = symbols_of_expr(summary.kappa.store()["i"])
    assert summary.kappa.path == TRUE and sym.fresh
    assert exit_.counter == () and exit_.precise


def test_counter_step_bound_zero_summarizes_immediately(solver):
    assert counter_apply("continue", False, W0, k=0) == (False, ())
    loop, _ = _counting_loop()
    kappa = PreciseStore.of({"i": SVal(SymbolFactory().initial("i"))}, TRUE)
    summary, _ = se_step(loop, kappa, solver, k=0)
    assert summary.cmd == SKIP and summary.counter == W0 and not summary.precise


def test_focus_and_plug_round_trip():
    loop, body = _counting_loop()
    cmd = Seq(Seq(loop, Assign("i", Const(0))), SKIP)
    redex, rest = focus(cmd)
    assert redex == loop and rest == [SKIP, Assign("i", Const(0))]
    assert plug(redex, rest) == cmd
    assert focus(Seq(SKIP, loop)) == (Seq(SKIP, loop), [])


def test_modif():
    factory = SymbolFactory()
    p = _unbounded_loop_program()
    rho = {x: SVal(factory.initial(x)) for x in sorted(p.all_vars)}
    havocked = modif(rho, p.body, factory)
    assert havocked["z"] == rho["z"]
    for var in ("i", "priv"):
        (sym,) = symbols_of_expr(havocked[var])
        assert sym.fresh and sym.hint == var
    assert modif(rho, SKIP, factory) == rho
    all_written = Seq(Assign("i", Const(0)), Seq(Assign("z", Const(0)), Assign("priv", Const(0))))
    assert all(e != rho[x] for x, e in modif(rho, all_written, factory).items())


def test_explore_branchy_program(solver):
    p = _branchy_program()
    factory = SymbolFactory()
    finals = se_explore(p, initial_precise_store(p, factory), k=3, path_cap=512, solver=solver, factory=factory)
    assert len(finals) == 2
    priv = SVal(factory.initial("priv"))
    assert [kappa.path for kappa, _ in finals] == [
        pcmp(">", priv, SConst(0)),
        pcmp("<=", priv, SConst(0)),
    ]
    for kappa, precise in finals:
        assert kappa.store()["y"] == SConst(5)
        assert precise


def test_explore_unbounded_loop_has_approximate_final(solver):
    p = _unbounded_loop_program()
    factory = SymbolFactory()
    finals = se_explore(p, initial_precise_store(p, factory), k=2, path_cap=512, solver=solver, factory=factory)
    assert any(not precise for _, precise in finals)
    assert any(precise for _, precise in finals)


def test_explore_skip_program(solver):
    p = Program(SKIP, frozenset(), frozenset({"x"}))
    factory = SymbolFactory()
    kappa0 = initial_precise_store(p, factory)
    finals = se_explore(p, kappa0, k=3, path_cap=16, solver=solver, factory=factory)
    assert finals == [(kappa0, True)]


def test_explore_concrete_loop_unrolls_exactly(solver):
    body = Assign("i", BinOp("+", Var("i"), Const(1)))
    p = Program(While(Cmp("<", Var("i"), Const(2)), body), frozenset({"i"}), frozenset({"i"}))
    factory = SymbolFactory()
    kappa0 = PreciseStore.of({"i": SConst(0)}, TRUE)
    finals = se_explore(p, kappa0, k=3, path_cap=64, solver=solver, factory=factory)
    assert len(finals) == 1
    kappa, precise = finals[0]
    assert precise and kappa.store()["i"] == SConst(2) and kappa.path == TRUE


def test_explore_terminates_on_nested_symbolic_loops(solver):
    p = parse_program(
        """
        low a, b;
        while (a < 3) {
          while (b < a) { b := b + 1; }
          a := a + 1;
        }
        """
    )
    factory = SymbolFactory()
    finals = se_explore(p, initial_precise_store(p, factory), k=2, path_cap=4096, solver=solver, factory=factory)
    assert finals


def test_flag_false_is_absorbing(solver):
    p = _unbounded_loop_program()
    factory = SymbolFactory()
    stack = [ProductState(p.body, initial_precise_store(p, factory), None, W0, True)]
    seen = 0
    while stack and seen < 3000:
        state = stack.pop()
        if isinstance(state.cmd, Skip):
            continue
        seen += 1
        for nxt in product_step(state, 2, solver, factory):
            assert state.precise or not nxt.precise
            stack.append(nxt)


def test_coverage_random_sample():
    rng = random.Random(2718)
    solver = Solver()
    covered = 0
    for _ in range(60):
        p = random_program(rng)
        mu = random_store(rng, p)
        covered += check_single_coverage(p, mu, k=2, solver=solver, fuel=400)
    assert covered >= 30


def test_refutation_models_replay(solver):
    """Flag-true satisfiable finals describe really reachable final stores."""
    rng = random.Random(31)
    from helpers import run_capped
    from niverify.lang import Final

    replayed = 0
    for _ in range(40):
        p = random_program(rng)
        factory = SymbolFactory()
        kappa0 = initial_precise_store(p, factory)
        try:
            finals = se_explore(p, kappa0, k=2, path_cap=2048, solver=solver, factory=factory)
        except Exception:
            continue
        for kappa, precise in finals:
            if not precise:
                continue
            res = solver.check_sat(kappa.path)
            if not isinstance(res, Sat):
                continue
            nu = res.valuation()
            for x in p.all_vars:
                nu.setdefault(factory.initial(x), 0)
            mu0 = {x: nu[factory.initial(x)] for x in p.all_vars}
            out = run_capped(p.body, mu0, 2000)
            if out is None:
                continue
            assert isinstance(out, Final)
            assert in_gamma_k(kappa, out.as_store(), nu)
            replayed += 1
    assert replayed >= 25
