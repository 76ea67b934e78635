import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from niverify import absint
from niverify.absint import (
    BOTTOM,
    TOP_INTERVAL,
    AbstractState,
    BottomState,
    Interval,
    a_assign,
    a_guard,
    a_join,
    a_leq,
    a_widen,
    analyze,
    bounds,
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
    apply_cmp,
    eval_bool,
    parse_program,
)
from niverify.redsoundse import reduction
from niverify.symcore import TRUE, PreciseStore

import helpers
from helpers import random_cmp, random_command, random_expr, run_capped


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


def test_bounds_past_the_float_range_meet_infinities_exactly():
    # Python converts an int to a float before adding it to or multiplying
    # it with a float infinity, which overflows from 2**1024 up.
    big = 10**400
    a = a_assign("l", BinOp("+", Var("l"), Var("h")), env(l=(big, big), h=(1, None)))
    assert a.get("l") == Interval(big + 1, None)
    a = a_assign("l", BinOp("-", Var("h"), Const(big)), env(h=(None, 0)))
    assert a.get("l") == Interval(None, -big)
    a = a_assign("l", BinOp("*", Var("h"), Const(big)), env(h=(None, None)))
    assert a.get("l") == Interval(None, None)
    a = a_assign("l", BinOp("*", Var("h"), Const(-big)), env(h=(1, None)))
    assert a.get("l") == Interval(None, -big)
    a = a_guard(Cmp("<=", BinOp("+", Var("x"), Var("h")), Const(big)), env(x=(0, None), h=(None, None)))
    assert (a.get("x"), a.get("h")) == (Interval(0, None), Interval(None, big))
    a = a_guard(Cmp("<", Var("x"), Const(big)), env(x=(None, None)))
    assert a.get("x") == Interval(None, big - 1)


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
    """A state's constraints are its intervals' finite ``bounds``, which the
    reduction asserts; the unreachable state has none to give."""
    a = env(priv=(2, None), i=(10, 10))
    assert [(x, op, c) for x, iv in a.env for op, c in bounds(iv)] == [("i", "==", 10), ("priv", ">=", 2)]
    assert bounds(TOP_INTERVAL) == ()
    assert bounds(Interval(3, 3)) == (("==", 3),)
    assert bounds(Interval(None, 4)) == (("<=", 4),)
    assert bounds(Interval(-1, 4)) == ((">=", -1), ("<=", 4))
    with pytest.raises(BottomState):
        reduction(PreciseStore.of({}, TRUE), BOTTOM)


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


def test_comparison_targets_are_the_hulls_of_the_satisfying_pairs():
    """For every two intervals with ends in [-3, 3], the targets of ``<``,
    ``<=``, ``>``, ``>=`` and ``==`` are the hulls of the values each side
    takes in some pair that satisfies the comparison, and None when no pair
    does; the targets of ``!=`` hold every such value."""
    boxes = [Interval(lo, hi) for lo in range(-3, 4) for hi in range(lo, 4)]
    for a, b, op in itertools.product(boxes, boxes, ("<", "<=", ">", ">=", "==", "!=")):
        pairs = [(x, y) for x in range(a.lo, a.hi + 1) for y in range(b.lo, b.hi + 1) if apply_cmp(op, x, y)]
        got = absint._cmp_targets(op, a, b)
        if not pairs:
            assert got is None, (op, a, b)
        elif op == "!=":
            assert got is not None and all(got[0].contains(x) and got[1].contains(y) for x, y in pairs), (op, a, b)
        else:
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
            assert got == (Interval(min(xs), max(xs)), Interval(min(ys), max(ys))), (op, a, b)


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


def _random_box(rng, variables):
    """A state whose intervals are finite, half-open or unbounded."""
    def bound():
        return None if rng.random() < 0.3 else rng.randint(-4, 4)

    def interval():
        lo, hi = bound(), bound()
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    return AbstractState.of({x: interval() for x in variables})


def test_memoized_transfers_equal_the_uncached_ones():
    """A transfer that changes nothing returns its input and is remembered on
    it; every answer equals the transfer on a copy that remembers nothing."""
    rng = random.Random(91)
    variables = ("a", "b", "c")
    unchanged = 0
    for _ in range(300):
        states = [_random_box(rng, variables) for _ in range(3)]
        transfers = [
            ("guard", random_cmp(rng, variables, 1))
            if rng.random() < 0.5
            else ("assign", (rng.choice(variables), random_expr(rng, variables, 2)))
            for _ in range(4)
        ]
        transfers.append(("guard", Cmp("<=", Var("a"), Const(10**6))))  # a no-op on a finite a
        for _ in range(3):
            for a in states:
                for kind, key in rng.sample(transfers, len(transfers)):
                    fresh = AbstractState(a.env)
                    if kind == "guard":
                        got, want = a_guard(key, a), a_guard(key, fresh)
                    else:
                        got, want = a_assign(*key, a), a_assign(*key, fresh)
                    assert got == want, (kind, key, a)
                    if got == a:
                        unchanged += 1
                        assert got is a and key in a.noops
                    else:
                        assert a.noops is None or key not in a.noops
    assert unchanged > 1000


def test_remembered_transfers_are_not_part_of_the_value():
    a = env(x=(0, 5))
    b = AbstractState(a.env)
    assert a_guard(Cmp(">=", Var("x"), Const(0)), a) is a
    assert a_assign("x", Var("x"), a) is a
    assert a.noops and b.noops is None
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert {a: 1}[b] == 1


# --- the int-endpoint primitives against the float-endpoint formulas --------

# Small ints, the edges of float precision, and ends past float range.
_ENDS = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from([2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 2**1024, -(2**1024), 2**1024 + 1]),
)


@st.composite
def intervals(draw) -> Interval:
    lo, hi = draw(_ENDS), draw(_ENDS)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _exprs(variables=("a", "b", "c")):
    consts = st.builds(Const, st.one_of(st.integers(-3, 3), st.sampled_from([2**53, -(2**1024)])))
    leaves = st.one_of(consts, st.builds(Var, st.sampled_from(variables)))
    return st.recursive(leaves, lambda inner: st.builds(BinOp, st.sampled_from("+-*"), inner, inner), max_leaves=5)


@st.composite
def states(draw, variables=("a", "b", "c")) -> AbstractState:
    return AbstractState.of({x: draw(intervals()) for x in variables})


def _no_float(iv):
    return iv is None or all(end is None or type(end) is int for end in (iv.lo, iv.hi))


@settings(max_examples=300, deadline=None)
@given(intervals(), intervals())
def test_interval_primitives_equal_the_float_endpoint_formulas(a, b):
    for name, ref in (
        ("meet", helpers.ref_meet),
        ("hull", helpers.ref_hull),
        ("widen", helpers.ref_widen),
        ("add", helpers.ref_add),
        ("sub", helpers.ref_sub),
        ("mul", helpers.ref_mul),
    ):
        got = getattr(Interval, name)(a, b) if name in ("meet", "hull", "widen") else getattr(absint, f"interval_{name}")(a, b)
        assert got == ref(a, b), name
        assert _no_float(got), name
        # An operand that is the result is returned itself.
        if got == a:
            assert got is a, name
        elif got == b:
            assert got is b, name
    assert a.leq(b) == helpers.ref_leq(a, b)
    for op in ("<", "<=", ">", ">=", "==", "!="):
        got = absint._cmp_targets(op, a, b)
        assert got == helpers.ref_cmp_targets(op, a, b), op
        if got is not None:
            assert (got[0] is a) == (got[0] == a) and (got[1] is b) == (got[1] == b), op


@settings(max_examples=300, deadline=None)
@given(_exprs(), intervals(), states())
def test_backward_and_eval_equal_the_float_endpoint_formulas(expr, target, a):
    env, want_env = a.as_dict(), a.as_dict()
    assert absint.eval_interval(expr, env) == helpers.ref_eval_interval(expr, env)
    changes = {}
    feasible = absint._backward(expr, target, env, changes)
    assert feasible == helpers.ref_backward(expr, target, want_env)
    if feasible:
        assert env == want_env
        assert all(_no_float(iv) for iv in env.values())
        # Exactly the narrowed variables are recorded as changed.
        assert changes == {x: iv for x, iv in env.items() if iv is not a.as_dict()[x]}
        assert all(iv != a.as_dict()[x] for x, iv in changes.items())


@settings(max_examples=200, deadline=None)
@given(states(), states())
def test_join_and_widen_keep_the_entries_they_leave_alone(a, b):
    for got, op in ((a_join(a, b), helpers.ref_hull), (a_widen(a, b), helpers.ref_widen)):
        assert got == AbstractState.of({x: op(iv, b.get(x)) for x, iv in a.env})
        for entry, before in zip(got.env, a.env):
            assert (entry is before) == (entry[1] == before[1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), _exprs(), _exprs(), st.sampled_from("abcd"), states())
def test_guard_and_assign_equal_the_float_endpoint_formulas(op, left, right, var, a):
    for got, want in (
        (a_guard(Cmp(op, left, right), AbstractState(a.env)), helpers.ref_a_guard(Cmp(op, left, right), a)),
        (a_assign(var, left, AbstractState(a.env)), helpers.ref_a_assign(var, left, a)),
    ):
        assert got == want
        if not got.is_bottom:
            assert [x for x, _ in got.env] == sorted(x for x, _ in got.env)
            # An entry whose interval did not change is the same object.
            old = dict(a.env)
            for entry in got.env:
                before = [pair for pair in a.env if pair[0] == entry[0]]
                if before and entry[1] == old[entry[0]]:
                    assert entry is before[0]
