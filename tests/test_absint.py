import itertools
import random
import time

import pytest

from niverify.absint import (
    BOTTOM,
    AbstractState,
    BottomState,
    Interval,
    a_assign,
    a_guard,
    a_join,
    a_leq,
    a_widen,
    analyze,
    constr,
    state_holds,
)
from niverify.lang import (
    Assign,
    BinOp,
    Cmp,
    Const,
    SKIP,
    Seq,
    Var,
    While,
    eval_bool,
    parse_program,
)

from helpers import random_command, run_capped


def env(**kwargs) -> AbstractState:
    return AbstractState.of({k: Interval(*v) for k, v in kwargs.items()})


def test_assign_examples():
    assert a_assign("x", Const(1), BOTTOM).is_bottom
    a = a_assign("priv", BinOp("+", Var("priv"), Const(2)), env(priv=(0, 0)))
    assert a.get("priv") == Interval(2, 2)
    a = a_assign("x", BinOp("*", Var("y"), Var("y")), env(y=(-2, 3), x=(0, 0)))
    assert a.get("x") == Interval(-6, 9)


def test_guard_examples():
    a = a_guard(Cmp("<", Var("i"), Const(10)), env(i=(0, None)))
    assert a.get("i") == Interval(0, 9)
    a = a_guard(Cmp(">=", Var("priv"), Const(0)), env(priv=(2, None)))
    assert a.get("priv") == Interval(2, None)
    assert a_guard(Cmp(">", Var("x"), Const(0)), env(x=(-5, 0))).is_bottom


def test_guard_through_a_constant_factor_divides_exactly():
    # A float quotient rounds 10**17 + 3 over 2 up to 5 * 10**16 + 2 and
    # back down, dropping the value 5 * 10**16 + 1 the guard admits.
    a = a_guard(Cmp("<=", BinOp("*", Const(2), Var("x")), Const(10**17 + 3)), env(x=(None, None)))
    assert a.get("x") == Interval(None, 5 * 10**16 + 1)
    a = a_guard(Cmp(">=", BinOp("*", Const(-3), Var("x")), Const(7)), env(x=(None, None)))
    assert a.get("x") == Interval(None, -3)


def test_guard_equality_and_disequality():
    a = a_guard(Cmp("==", Var("x"), Const(3)), env(x=(0, 10)))
    assert a.get("x") == Interval(3, 3)
    a = a_guard(Cmp("!=", Var("x"), Const(5)), env(x=(0, 5)))
    assert a.get("x") == Interval(0, 4)
    assert a_guard(Cmp("!=", Var("x"), Const(4)), env(x=(4, 4))).is_bottom


def test_lattice_ops():
    assert a_join(env(x=(0, 1)), env(x=(5, 6))).get("x") == Interval(0, 6)
    widened = a_widen(env(x=(0, 1)), env(x=(0, 2)))
    assert widened.get("x") == Interval(0, None)
    assert a_leq(BOTTOM, env(x=(3, 3)))
    assert a_leq(env(x=(1, 2)), env(x=(0, 5)))
    assert not a_leq(env(x=(0, 5)), env(x=(1, 2)))
    assert a_join(BOTTOM, env(x=(1, 1))) == env(x=(1, 1))


def test_analyze_loop_reaches_exact_bounds():
    loop = While(
        Cmp("<", Var("i"), Const(10)),
        Seq(
            Assign("i", BinOp("+", Var("i"), Const(1))),
            Assign("priv", BinOp("+", Var("priv"), Const(2))),
        ),
    )
    out = analyze(loop, env(i=(0, 0), priv=(0, 0)))
    assert out.get("i") == Interval(10, 10)
    assert out.get("priv") == Interval(2, None)


def test_analyze_trivial_shapes():
    a = env(x=(1, 2))
    assert analyze(SKIP, a) == a
    out = analyze(
        Seq(Assign("x", Const(1)), Assign("x", BinOp("+", Var("x"), Const(1)))),
        AbstractState.top({"x"}),
    )
    assert out.get("x") == Interval(2, 2)


def test_constr():
    a = env(priv=(2, None), i=(10, 10))
    assert constr(a) == [("i", "==", 10), ("priv", ">=", 2)]
    assert constr(AbstractState.top({"x"})) == []
    assert constr(env(x=(3, 3))) == [("x", "==", 3)]
    assert constr(env(x=(None, 4))) == [("x", "<=", 4)]
    with pytest.raises(BottomState):
        constr(BOTTOM)


def _stores_in(a: AbstractState):
    names = [x for x, _ in a.env]
    ranges = [range(iv.lo, iv.hi + 1) for _, iv in a.env]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


def test_guard_inclusion_brute_force():
    rng = random.Random(77)
    for _ in range(200):
        a = env(x=(rng.randint(-4, 0), rng.randint(0, 4)), y=(rng.randint(-4, 0), rng.randint(0, 4)))
        op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
        lhs = Var("x") if rng.random() < 0.6 else BinOp("+", Var("x"), Var("y"))
        guard = Cmp(op, lhs, Const(rng.randint(-3, 3)))
        refined = a_guard(guard, a)
        for mu in _stores_in(a):
            if eval_bool(guard, mu):
                assert state_holds(refined, mu), (guard, a, mu)


def test_analyze_soundness_brute_force():
    rng = random.Random(78)
    variables = ("a", "b")
    for _ in range(150):
        cmd = random_command(rng, variables, 3)
        box = env(a=(rng.randint(-3, 0), rng.randint(0, 3)), b=(rng.randint(-3, 0), rng.randint(0, 3)))
        out = analyze(cmd, box)
        for mu in _stores_in(box):
            res = run_capped(cmd, mu, 300)
            if res is None:
                continue
            assert state_holds(out, res.as_store()), (cmd, mu)


def test_analyze_terminates_on_triple_nested_loops():
    p = parse_program(
        """
        low a, b, c;
        while (a < 10) {
          while (b < a) {
            while (c < b) { c := c + 1; }
            b := b + 1;
          }
          a := a + 1;
        }
        """
    )
    start = time.monotonic()
    out = analyze(p.body, AbstractState.top(p.all_vars))
    assert time.monotonic() - start < 1.0
    assert not out.is_bottom
