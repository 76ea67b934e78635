import random

from niverify.absint import AbstractState, Interval
from niverify.dependence import (
    DepState,
    PcLevel,
    dep_analyze,
    level_of,
    tau_sym_to_dep,
)
from niverify.lang import BinOp, Cmp, Const, Var, low_equal, parse_program
from niverify.relational import Pair
from niverify.solver import Solver
from niverify.symcore import SConst, SVal, SymbolFactory, TRUE, pcmp

from helpers import random_program, random_store, run_capped, shared


def d(*variables) -> DepState:
    return DepState(frozenset(variables))


def test_level_of():
    assert level_of(Const(3), d()) is PcLevel.LOW
    assert level_of(Cmp(">", Var("priv"), Const(0)), d("i", "z")) is PcLevel.HIGH
    assert level_of(BinOp("+", Var("i"), Var("z")), d("i", "z")) is PcLevel.LOW


def test_pc_join_is_absorbing():
    assert PcLevel.LOW.join(PcLevel.HIGH) is PcLevel.HIGH
    assert PcLevel.HIGH.join(PcLevel.HIGH) is PcLevel.HIGH
    assert PcLevel.LOW.join(PcLevel.LOW) is PcLevel.LOW


def test_secret_branch_drops_assigned_variable():
    p = parse_program("low y; high priv; if (priv > 0) { y := 5; } else { y := 5; }")
    out = dep_analyze(p.body, PcLevel.LOW, d("y"))
    assert "y" not in out.low_agree


def test_low_loop_keeps_its_variables():
    p = parse_program(
        "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"
    )
    out = dep_analyze(p.body, PcLevel.LOW, d("i", "z"))
    assert out.low_agree == {"i", "z"}


def test_secret_loop_guard_drops_counter():
    p = parse_program(
        "low i; high priv; while (priv < 0) { i := i + 1; priv := priv + 1; }"
    )
    out = dep_analyze(p.body, PcLevel.LOW, d("i"))
    assert "i" not in out.low_agree


def test_tau():
    solver = Solver()
    factory = SymbolFactory()
    i = SVal(factory.initial("i"))
    z = SVal(factory.initial("z"))
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    rho2 = {"i": shared(i), "z": shared(z), "priv": Pair(p0, p1)}
    assert tau_sym_to_dep(rho2, TRUE, solver).low_agree == {"i", "z"}

    all_single = {"a": shared(SConst(1)), "b": shared(i)}
    assert tau_sym_to_dep(all_single, TRUE, solver).low_agree == {"a", "b"}

    constrained = {"p": Pair(p0, p1)}
    assert tau_sym_to_dep(constrained, pcmp("==", p0, p1), solver).low_agree == {"p"}
    assert tau_sym_to_dep(constrained, TRUE, solver).low_agree == set()


def test_lambda():
    # The two-level lattice makes the dependence-to-low map the identity.
    assert d("i", "z").low_agree == {"i", "z"}
    assert d().low_agree == set()


def test_numeric_refinement_skips_dead_branch():
    p = parse_program(
        """
        low i, x, w; high priv;
        while (i < 10) {
          x := x + 1;
          if (x <= 0) { w := priv; } else { skip; }
          i := i + 1;
        }
        """
    )
    start = d("i", "x", "w")
    without = dep_analyze(p.body, PcLevel.LOW, start)
    assert "w" not in without.low_agree
    numeric = AbstractState.of(
        {"i": Interval(0, 0), "x": Interval(1, 1), "w": Interval(None, None), "priv": Interval(None, None)}
    )
    with_intervals = dep_analyze(p.body, PcLevel.LOW, start, numeric=numeric)
    assert {"i", "x", "w"} <= with_intervals.low_agree


def test_monotone_in_the_low_set():
    rng = random.Random(17)
    for _ in range(120):
        p = random_program(rng)
        variables = sorted(p.all_vars)
        small = frozenset(rng.sample(variables, rng.randint(0, len(variables))))
        extra = frozenset(rng.sample(variables, rng.randint(0, len(variables))))
        big = small | extra
        out_small = dep_analyze(p.body, PcLevel.LOW, DepState(small))
        out_big = dep_analyze(p.body, PcLevel.LOW, DepState(big))
        assert out_small.low_agree <= out_big.low_agree


def test_loop_result_is_a_fixpoint():
    rng = random.Random(18)
    from niverify.lang import While

    checked = 0
    for _ in range(200):
        p = random_program(rng)
        if not isinstance(p.body, While):
            continue
        checked += 1
        start = DepState(p.low_vars)
        stable = dep_analyze(p.body, PcLevel.LOW, start)
        pc = PcLevel.LOW.join(level_of(p.body.guard, stable))
        once_more = dep_analyze(p.body.body, pc, stable)
        assert stable.low_agree & once_more.low_agree == stable.low_agree
    assert checked >= 20


def test_soundness_on_random_low_equal_pairs():
    rng = random.Random(19)
    checked = 0
    for _ in range(120):
        p = random_program(rng)
        claimed = dep_analyze(p.body, PcLevel.LOW, DepState(p.low_vars)).low_agree
        for _ in range(6):
            mu0 = random_store(rng, p)
            mu1 = dict(mu0)
            for x in p.all_vars - p.low_vars:
                mu1[x] = rng.randint(-8, 8)
            r0 = run_capped(p.body, mu0, 300)
            r1 = run_capped(p.body, mu1, 300)
            if r0 is None or r1 is None:
                continue
            checked += 1
            assert low_equal(r0.as_store(), r1.as_store(), claimed), (p.body, mu0, mu1)
    assert checked >= 150
