import random

import pytest

from niverify import driver, redsoundse
from niverify.absint import AbstractState, Interval, a_guard, state_holds
from niverify.driver import MATRIX, AnalysisConfig, Insecure, config_for, verify_ni
from niverify.lang import Cmp, Const, If, SKIP, Var, parse_program
from niverify.redsoundse import ProductState, product_explore, product_step, reduction
from niverify.solver import Solver, Unsat
from niverify.soundse import initial_precise_store
from niverify.symcore import (
    PreciseStore,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    conjuncts,
    eval_sym,
    in_gamma_k,
    pand,
    pcmp,
    pnot,
)

from helpers import random_program, random_store, check_single_coverage, recorded_final_paths, se_explore


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


def test_reduction_of_an_extension_asks_only_for_what_changed(monkeypatch):
    factory = SymbolFactory()
    x, y, z = (SVal(factory.initial(v)) for v in "xyz")
    a = env(x=(0, 5), y=(1, None), z=(None, 3))
    first = reduction(PreciseStore.of({"x": x, "y": y, "z": z}, pcmp("<", x, y)), a)
    # The guard narrows y alone; z gets a new term; x keeps both.
    a2 = a_guard(Cmp("<=", Var("y"), Const(9)), a)
    assert a2.env[0] is a.env[0] and a2.env[2] is a.env[2]
    rho2 = {"x": x, "y": y, "z": SVal(factory.fresh("z"))}
    path2 = pand(first.path, pcmp("!=", x, z))
    asked = []
    plain_pcmp = redsoundse.pcmp

    def counted(op, left, right):
        asked.append((op, left))
        return plain_pcmp(op, left, right)

    monkeypatch.setattr(redsoundse, "pcmp", counted)
    got = reduction(PreciseStore(rho2, path2, first.reduced), a2)
    assert asked == [(">=", y), ("<=", y), ("<=", rho2["z"])]
    monkeypatch.setattr(redsoundse, "pcmp", plain_pcmp)
    assert got.path == reduction(PreciseStore.of(rho2, path2), a2).path


def test_reduction_records_live_on_the_returned_store():
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    a = env(x=(0, None))
    bound = pcmp(">=", x, SConst(0))
    single = reduction(PreciseStore.of({"x": x}, TRUE), a)
    assert single.path == bound and single.reduced is not None
    assert single == PreciseStore.of({"x": x}, bound)  # the record is not part of the value
    assert reduction(PreciseStore.of({"x": x}, pnot(TRUE)), a).path == pnot(TRUE)
    # A bound the path contradicts makes it false.
    assert reduction(PreciseStore.of({"x": x}, pcmp("<", x, SConst(0))), a).path == pnot(TRUE)
    # Reducing again with what the record holds asserts nothing.
    again = reduction(single, a)
    assert again.path is single.path and again.reduced[2:] == single.reduced[:2]
    # With no bounded variable the store comes back as given.
    assert reduction(single, AbstractState.top({"x"})) is single


# The traces split on a high guard in every iteration of a low loop.
_DIVERGING_LOOP = "low x, y; high h; while (x < 6) { if (h > x) { y := y + x; } x := x + 1; }"


def test_delta_reduction_gives_the_paths_of_full_reduction(monkeypatch):
    """The configs with a domain explore the same final paths whether a
    reduction skips what its store's record covers or asserts every bound."""
    programs = [random_program(random.Random(f"cmp:{i}"), 3, 3) for i in range(40)]
    programs.append(parse_program(_DIVERGING_LOOP))
    configs = [config_for(e, s, AnalysisConfig(), path_cap=1024) for e, s in MATRIX if s == "redsoundse"]
    runs, asked = {}, {True: 0, False: 0}
    plain_pcmp, plain_reduction = redsoundse.pcmp, redsoundse.reduction

    def counted(op, left, right):
        asked[recorded] += 1
        return plain_pcmp(op, left, right)

    def unrecorded(kappa, astate, side=None, unshared=False):
        return plain_reduction(PreciseStore.of(kappa.rho, kappa.path), astate, side, unshared)

    monkeypatch.setattr(redsoundse, "pcmp", counted)
    for recorded in (True, False):
        if not recorded:
            monkeypatch.setattr(redsoundse, "reduction", unrecorded)
        with recorded_final_paths() as lines:
            for program in programs:
                for config in configs:
                    lines.append(str(verify_ni(program, config)))
        runs[recorded] = lines
    assert runs[True] == runs[False]
    assert len(runs[True]) > 250
    assert asked[True] < asked[False] * 0.8


@pytest.mark.parametrize("engine, built", [("soundrse", 122), ("redsoundrse", 118)])
def test_diverged_steps_keep_their_reduction_record(monkeypatch, engine, built):
    """A trace run alone after a split reduces against the record its pair
    state carried and hands its own on to the re-paired store; dropping
    either record makes the diverging loop build 24 more bound conjuncts."""
    asked = []
    plain_pcmp = redsoundse.pcmp

    def counted(op, left, right):
        asked.append(op)
        return plain_pcmp(op, left, right)

    monkeypatch.setattr(redsoundse, "pcmp", counted)
    verdict = verify_ni(parse_program(_DIVERGING_LOOP), config_for(engine, "redsoundse", AnalysisConfig()))
    assert isinstance(verdict, Insecure)
    assert len(asked) == built


@pytest.mark.parametrize("engine", ["soundrse", "redsoundrse"])
def test_relational_finals_carry_no_reduction_record(monkeypatch, engine):
    """A final is never reduced again, so its store drops the record."""
    finals = []
    plain_explore = driver.srse_explore

    def kept(*args):
        out = plain_explore(*args)
        finals.extend(out)
        return out

    monkeypatch.setattr(driver, "srse_explore", kept)
    verify_ni(parse_program(_DIVERGING_LOOP), config_for(engine, "redsoundse", AnalysisConfig()))
    assert finals and all(kappa2.reduced is None for kappa2, _ in finals)


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
            assert set(conjuncts(k1.path)) <= set(conjuncts(k2.path))
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
