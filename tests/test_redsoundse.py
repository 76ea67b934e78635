import random

from niverify.absint import AbstractState, Interval, state_holds
from niverify.lang import Cmp, Const, If, SKIP, Var, parse_program
from niverify.redsoundse import ProductState, _conjuncts, product_explore, product_step, reduction
from niverify.solver import Solver, Unsat
from niverify.soundse import W0, initial_precise_store
from niverify.symcore import (
    PreciseStore,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    eval_sym,
    in_gamma_k,
    pand,
    pcmp,
    pnot,
)

from helpers import random_program, random_store, check_single_coverage, se_explore


def env(**kwargs) -> AbstractState:
    return AbstractState.of({k: Interval(*v) for k, v in kwargs.items()})


def test_reduction_appends_substituted_constraints():
    factory = SymbolFactory()
    i1, priv1 = factory.fresh("i"), factory.fresh("priv")
    kappa = PreciseStore.of({"i": SVal(i1), "priv": SVal(priv1)}, TRUE)
    a = env(i=(10, 10), priv=(2, None))
    kappa2 = reduction(kappa, a)
    assert kappa2.store() == kappa.store()
    assert kappa2.path == pand(
        pcmp("==", SVal(i1), SConst(10)), pcmp(">=", SVal(priv1), SConst(2))
    )


def test_reduction_with_top_is_identity():
    factory = SymbolFactory()
    kappa = PreciseStore.of({"x": SVal(factory.initial("x"))}, TRUE)
    kappa2 = reduction(kappa, AbstractState.top({"x"}))
    assert kappa2 == kappa


def test_reduction_is_gamma_equivalent_when_path_already_implies():
    solver = Solver()
    factory = SymbolFactory()
    i1 = factory.fresh("i")
    path = pand(pcmp(">=", SVal(i1), SConst(10)), pcmp("<=", SVal(i1), SConst(10)))
    kappa = PreciseStore.of({"i": SVal(i1)}, path)
    kappa2 = reduction(kappa, env(i=(10, 10)))
    # Old and new paths entail each other.
    assert isinstance(solver.check_sat(pand(kappa.path, pnot(kappa2.path))), Unsat)
    assert isinstance(solver.check_sat(pand(kappa2.path, pnot(kappa.path))), Unsat)


def test_reduction_preserves_product_membership():
    rng = random.Random(55)
    from helpers import random_expr
    from niverify.symcore import sym_eval_expr

    violations = 0
    for _ in range(250):
        factory = SymbolFactory()
        base = {v: SVal(factory.initial(v)) for v in ("x", "y")}
        rho = {
            v: sym_eval_expr(random_expr(rng, ("x", "y"), 2), base) for v in ("x", "y")
        }
        path = pcmp(
            rng.choice(["<", "<=", "==", "!=", ">", ">="]),
            rho[rng.choice(("x", "y"))],
            SConst(rng.randint(-3, 3)),
        )
        a = env(
            x=(rng.randint(-5, 0), rng.randint(0, 5)),
            y=(rng.randint(-5, 0), rng.randint(0, 5)),
        )
        kappa = PreciseStore.of(rho, path)
        kappa2 = reduction(kappa, a)
        for _ in range(6):
            nu = {s.sym: rng.randint(-8, 8) for s in base.values()}
            mu = {v: eval_sym(e, nu) for v, e in rho.items()}
            if rng.random() < 0.3:
                mu[rng.choice(("x", "y"))] += rng.randint(1, 3)
            before = in_gamma_k(kappa, mu, nu) and state_holds(a, mu)
            after = in_gamma_k(kappa2, mu, nu) and state_holds(a, mu)
            violations += before != after
    assert violations == 0


def test_abstract_only_pruning():
    """A branch the path cannot rule out is still cut by the interval state."""
    solver = Solver()
    factory = SymbolFactory()
    x = SVal(factory.fresh("x"))
    state = ProductState(
        If(Cmp("<=", Var("x"), Const(0)), SKIP, SKIP),
        PreciseStore.of({"x": x}, TRUE),
        env(x=(1, 5)),
        W0,
        True,
    )
    successors = product_step(state, 3, solver, factory)
    assert len(successors) == 1
    # The surviving branch is reduced with the guarded interval x in [1, 5].
    assert successors[0].kappa.path == pand(
        pand(pcmp(">", x, SConst(0)), pcmp(">=", x, SConst(1))), pcmp("<=", x, SConst(5))
    )
    # Symbolically both branches were satisfiable.
    assert solver.may_sat(pand(TRUE, pcmp("<=", x, SConst(0))))


def test_loop_free_product_matches_plain_exploration():
    rng = random.Random(56)
    solver = Solver()
    compared = 0
    for _ in range(40):
        p = random_program(rng)
        from niverify.lang import While as W

        def has_loop(cmd):
            from niverify.lang import If as I, Seq as S

            match cmd:
                case W():
                    return True
                case I(_, t, e):
                    return has_loop(t) or has_loop(e)
                case S(a, b):
                    return has_loop(a) or has_loop(b)
            return False

        if has_loop(p.body):
            continue
        f1 = SymbolFactory()
        plain = se_explore(p, initial_precise_store(p, f1), 3, 512, Solver(), f1)
        f2 = SymbolFactory()
        prod = product_explore(
            p, initial_precise_store(p, f2), AbstractState.top(p.all_vars), 3, 512, Solver(), f2
        )
        assert len(plain) == len(prod)
        for (k1, b1), (k2, _, b2) in zip(plain, prod):
            # Same stores and flags; reduction only adds interval conjuncts.
            assert k1.store() == k2.store() and b1 == b2
            assert _conjuncts(k1.path) <= _conjuncts(k2.path)
        compared += 1
    assert compared >= 10


def test_dead_start_explores_nothing():
    p = parse_program("low x; x := 1;")
    factory = SymbolFactory()
    from niverify.absint import BOTTOM

    finals = product_explore(
        p, initial_precise_store(p, factory), BOTTOM, 3, 64, Solver(), factory
    )
    assert finals == []


def test_coverage_with_intervals_random_sample():
    rng = random.Random(57)
    solver = Solver()
    covered = 0
    for _ in range(40):
        p = random_program(rng)
        mu = random_store(rng, p)
        covered += check_single_coverage(p, mu, k=2, solver=solver, fuel=400, with_intervals=True)
    assert covered >= 20


def test_product_paths_strengthen_plain_paths():
    """Product finals only ever constrain more than the plain engine's."""
    solver = Solver()
    p = parse_program(
        """
        low i, y; high priv;
        if (priv < 0) { priv := 0; } else { skip; }
        while (i < 10) { i := i + 1; priv := priv + 2; }
        if (priv >= 0) { y := 1; } else { y := 2; }
        """
    )
    f2 = SymbolFactory()
    prod = product_explore(
        p, initial_precise_store(p, f2), AbstractState.top(p.all_vars), 1, 2048, solver, f2
    )
    f1 = SymbolFactory()
    plain = se_explore(p, initial_precise_store(p, f1), 1, 2048, Solver(), f1)
    # The interval state prunes the final else branch on summarized paths, so
    # the product explores no more paths than the plain engine.
    assert len(prod) <= len(plain)
    assert any(not precise for _, _, precise in prod)
