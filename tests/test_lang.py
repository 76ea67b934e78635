import random

import pytest

from niverify import symcore
from niverify.lang import (
    Assign,
    BinOp,
    Cmp,
    Const,
    Final,
    If,
    OutOfFuel,
    ParseError,
    Program,
    SKIP,
    Seq,
    Skip,
    Var,
    While,
    assigned_vars,
    concrete_step,
    eval_bool,
    eval_expr,
    low_equal,
    parse_program,
    run,
    same_tree,
    used_vars,
)
from niverify.symcore import SVal, SymbolFactory

from helpers import random_program, random_store, run_capped


def test_parse_single_assignment():
    p = parse_program("low y; high priv; y := 5;")
    assert p.body == Assign("y", Const(5))
    assert p.low_vars == {"y"}
    assert p.all_vars == {"y", "priv"}


def test_parse_rejects_undeclared_variable():
    """The error points at the first use of an undeclared name, read or written."""
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("low i; i := z;")
    with pytest.raises(ParseError) as err:
        parse_program("low l;\nhigh h;\nl := q + 1;\n")
    assert str(err.value) == "3:6: use of undeclared variable 'q'"
    with pytest.raises(ParseError) as err:
        parse_program("low l;\nif (l > 0) {\n  m := l;\n}\n")
    assert str(err.value) == "3:3: use of undeclared variable 'm'"


def test_parse_rejects_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("low i; high i; skip;")


def test_parse_branchy_program_shape():
    p = parse_program("low y; high priv; if (priv > 0) { y := 5; } else { y := 5; }")
    assert isinstance(p.body, If)
    assert p.body.guard == Cmp(">", Var("priv"), Const(0))
    assert p.body.then_branch == p.body.else_branch == Assign("y", Const(5))


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("low i;\ni := ;")
    assert err.value.line == 2


def test_parse_optional_else_and_empty_block():
    p = parse_program("low x; if (x < 0) { x := 0; }")
    assert p.body.else_branch == SKIP
    p2 = parse_program("low x; while (x < 0) { }")
    assert p2.body.body == SKIP


def test_eval_expr():
    assert eval_expr(BinOp("+", Var("x"), Const(1)), {"x": 4}) == 5
    assert eval_expr(BinOp("*", Var("x"), Var("y")), {"x": 0, "y": 7}) == 0
    assert eval_expr(BinOp("-", Var("x"), Var("y")), {"x": 2, "y": 5}) == -3


def test_eval_bool():
    assert eval_bool(Cmp("<", Var("x"), Const(1)), {"x": 0})
    assert eval_bool(Cmp("==", Var("x"), Var("x")), {"x": 42})
    assert not eval_bool(Cmp(">", Var("priv"), Const(0)), {"priv": -1})


def test_concrete_step_assign():
    cmd, store = concrete_step((Assign("y", Const(5)), {"y": 0}))
    assert cmd == SKIP and store == {"y": 5}


def test_concrete_step_if_selects_branch():
    c0, c1 = Assign("a", Const(0)), Assign("a", Const(1))
    cmd, store = concrete_step((If(Cmp(">", Var("priv"), Const(0)), c0, c1), {"priv": 1, "a": 9}))
    assert cmd == c0 and store == {"priv": 1, "a": 9}


def test_concrete_step_while_unrolls():
    body = Assign("i", BinOp("+", Var("i"), Const(1)))
    loop = While(Cmp("<", Var("i"), Const(1)), body)
    cmd, store = concrete_step((loop, {"i": 0}))
    assert cmd == Seq(body, loop) and store == {"i": 0}


def test_run_secure_branchy_program():
    p = parse_program("low y; high priv; if (priv > 0) { y := 5; } else { y := 5; }")
    res = run(p, {"priv": 1, "y": 0}, fuel=100)
    assert isinstance(res, Final) and res.as_store()["y"] == 5


def test_run_secret_controlled_loop_differs():
    # Two low-equal stores whose secrets differ lead to different public i.
    p = parse_program("low i; high priv; while (priv < 0) { i := i + 1; priv := priv + 1; }")
    r0 = run(p, {"i": 0, "priv": 0}, fuel=1000)
    r1 = run(p, {"i": 0, "priv": -1}, fuel=1000)
    assert r0.as_store()["i"] == 0
    assert r1.as_store()["i"] == 1


def test_run_out_of_fuel_on_divergence():
    p = Program(While(Cmp("<", Const(0), Const(1)), SKIP), frozenset(), frozenset())
    assert run(p, {}, fuel=100) == OutOfFuel()


def test_low_equal():
    assert low_equal({"i": 0, "priv": 0}, {"i": 0, "priv": -1}, {"i"})
    assert not low_equal({"i": 0}, {"i": 1}, {"i"})
    assert low_equal({"i": 3}, {"i": 3}, frozenset())


def test_assigned_vars():
    assert assigned_vars(SKIP) == set()
    loop_body = Seq(
        Assign("i", BinOp("+", Var("i"), Const(1))),
        Assign("priv", BinOp("+", Var("priv"), Const(1))),
    )
    assert assigned_vars(While(Cmp("<", Var("i"), Var("z")), loop_body)) == {"i", "priv"}
    assert assigned_vars(If(Cmp("<", Var("x"), Const(0)), Assign("x", Const(1)), Assign("y", Const(2)))) == {"x", "y"}


def test_walks_over_long_sequences_do_not_recurse():
    cmd = Assign("y", Var("x"))
    for _ in range(20_000):
        cmd = Seq(Assign("h", BinOp("+", Var("h"), Const(1))), cmd)
    assert used_vars(cmd) == {"h", "x", "y"}
    assert assigned_vars(cmd) == {"h", "y"}


def test_long_sequences_hash_compare_and_print_without_recursing():
    body = parse_program("low y; high h; " + "h := h + 1; " * 20_000 + "y := y + 1;").body

    def built(last_step: int):
        cmd = Assign("y", BinOp("+", Var("y"), Const(last_step)))
        for _ in range(20_000):
            cmd = Seq(Assign("h", BinOp("+", Var("h"), Const(1))), cmd)
        return cmd

    again = built(1)
    assert hash(body) == hash(again) and body == again and not body != again
    assert body != built(2)
    assert str(body) == "; ".join(["h := (h + 1)"] * 20_000 + ["y := (y + 1)"])
    step = "Seq(first=Assign(var='h', expr=BinOp(op='+', left=Var(name='h'), right=Const(value=1))), second="
    last = "Assign(var='y', expr=BinOp(op='+', left=Var(name='y'), right=Const(value=1)))"
    assert repr(body) == step * 20_000 + last + ")" * 20_000


def test_sequence_hash_is_the_hash_of_its_fields():
    """Kept sequence hashes are the dataclass formula at every node, so a
    set or dict of commands orders as before."""
    body = parse_program(
        "low y; high h; if (h > 0) { h := h + 1; y := 2; } else { skip; } "
        "while (y < 3) { y := y + 1; h := h * 2; } y := y - h;"
    ).body
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            assert hash(node) == hash((node.first, node.second))
            stack += (node.first, node.second)
        elif isinstance(node, (If, While)):
            stack += (node.then_branch, node.else_branch) if isinstance(node, If) else (node.body,)


def test_expressions_keep_their_hash_and_guards_their_negation():
    """A lookup keyed by an expression or a guard hashes it in O(1), with
    the dataclass formula, and a guard's negation is built once."""
    expr = Var("x")
    for i in range(20_000):  # the generated hash would recurse this deep
        expr = BinOp("+", expr, Const(i))
    assert hash(expr) == hash(("+", expr.left, expr.right))
    guard = Cmp("<", expr, Const(0))
    assert hash(guard) == hash(("<", expr, Const(0)))
    assert guard.negate() is guard.negate() and guard.negate().negate() is guard
    assert guard.negate() == Cmp(">=", expr, Const(0))
    shallow = Cmp("==", Var("x"), Const(1))
    assert repr(shallow.negate()) == "Cmp(op='!=', left=Var(name='x'), right=Const(value=1))"


def test_walks_over_deep_expressions_do_not_recurse():
    """Evaluating, printing and comparing an expression walk it without
    recursing, in the order the recursive definitions gave."""
    left, right = Var("x"), Var("x")
    for i in range(20_000):
        left = BinOp("+" if i % 2 else "-", left, Const(i))
        right = BinOp("+" if i % 2 else "-", Const(i), right)
    assert eval_expr(left, {"x": 3}) == 3 + 10_000 and eval_expr(right, {"x": 3}) == 20_003
    assert str(left) == "(" * 20_000 + "x" + "".join(f" {'+' if i % 2 else '-'} {i})" for i in range(20_000))
    twin = Var("x")
    for i in range(20_000):
        twin = BinOp("+" if i % 2 else "-", twin, Const(i))
    assert left == twin and not left != twin and left != right
    assert Cmp("<", left, Const(0)) == Cmp("<", twin, Const(0))
    assert twin != BinOp("-", twin.left, Const(19_999))  # differs only at the root's op
    assert eval_expr(BinOp("*", BinOp("-", Var("a"), Const(2)), Var("b")), {"a": 5, "b": 4}) == 12


def test_same_tree_is_the_one_equality_of_expressions_and_terms():
    """Program expressions and symbolic terms are both ``BinOp`` trees and
    compare through ``same_tree``: for either leaf kind a 20 000-deep tree
    equals its twin without recursing, a tree whose deepest leaf differs
    does not, even with every hash on the way forced equal, and a program
    expression never equals a term."""
    assert symcore.SConst is Const and symcore.SBinOp is BinOp
    factory = SymbolFactory()
    x, y = factory.fresh("x"), factory.fresh("y")

    def chain(leaf):
        tree = leaf
        for i in range(20_000):
            tree = BinOp("+" if i % 2 else "*", tree, Const(i))
        return tree

    for leaf, twin_leaf, other_leaf in ((Var("x"), Var("x"), Var("y")), (SVal(x), SVal(x), SVal(y))):
        tree, twin, odd = chain(leaf), chain(twin_leaf), chain(other_leaf)
        assert tree == twin and not tree != twin and same_tree(tree, twin)
        assert tree != odd and not same_tree(tree, odd)
        a, b = tree, odd
        while True:
            b._hash = a._hash
            if a.__class__ is not BinOp:
                break
            a, b = a.left, b.left
        assert tree != odd and not same_tree(tree, odd)
    program = BinOp("+", Var("x"), Const(1))
    term = BinOp("+", SVal(x), Const(1))
    assert program != term and term != program
    assert not program == term and not term == program


def test_step_is_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        p = random_program(rng)
        store = random_store(rng, p)
        cmd = p.body
        for _ in range(60):
            if isinstance(cmd, Skip) or any(abs(v) > 10**9 for v in store.values()):
                break
            first = concrete_step((cmd, dict(store)))
            second = concrete_step((cmd, dict(store)))
            assert first == second
            cmd, store = first


def test_run_is_fuel_monotone():
    rng = random.Random(11)
    checked = 0
    for _ in range(80):
        p = random_program(rng)
        store = random_store(rng, p)
        if run_capped(p.body, store, fuel=700) is None:
            continue
        res = run(p, store, fuel=120)
        if isinstance(res, Final):
            checked += 1
            for extra in (1, 37, 500):
                assert run(p, store, fuel=120 + extra) == res
    assert checked > 20


def test_assigned_vars_over_approximates_actual_writes():
    rng = random.Random(13)
    checked = 0
    for _ in range(120):
        p = random_program(rng)
        store = random_store(rng, p)
        res = run_capped(p.body, store, fuel=300)
        if not isinstance(res, Final):
            continue
        checked += 1
        final = res.as_store()
        changed = {x for x in p.all_vars if final[x] != store[x]}
        assert changed <= assigned_vars(p.body)
    assert checked > 40
