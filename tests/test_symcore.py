import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from niverify import symcore
from niverify.lang import Assign, BinOp, Cmp, Const, Seq, Var, apply_cmp, fold
from niverify.symcore import (
    MissingSymbol,
    PAnd,
    PCmp,
    PNot,
    PreciseStore,
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    _expr_poly,
    conjuncts,
    eval_path,
    eval_sym,
    has_conjunct,
    in_gamma_k,
    pand,
    pcmp,
    pnot,
    sbinop,
    sym_eval_bool,
    sym_eval_expr,
    symbols_of_expr,
)
from niverify.solver import _smt_expr, emit_smtlib

from helpers import random_expr


@pytest.fixture
def syms():
    factory = SymbolFactory()
    return factory, {v: SVal(factory.initial(v)) for v in ("x", "y", "i", "priv")}


def test_sym_eval_substitutes_and_folds(syms):
    _, s = syms
    assert sym_eval_expr(Var("y"), {"y": SConst(5)}) == SConst(5)
    assert sym_eval_expr(Var("x"), {"x": s["x"]}) == s["x"]
    # (i + 1) with i already bound to i0 + 1 collapses the constant chain.
    rho = {"i": sbinop("+", s["i"], SConst(1))}
    assert sym_eval_expr(BinOp("+", Var("i"), Const(1)), rho) == SBinOp("+", s["i"], SConst(2))


def test_sym_eval_bool(syms):
    _, s = syms
    beta = sym_eval_bool(Cmp(">", Var("priv"), Const(0)), {"priv": s["priv"]})
    assert beta == pcmp(">", s["priv"], SConst(0))
    assert sym_eval_bool(Cmp("<", Const(1), Const(2)), {}) == TRUE
    rho = {"i": sbinop("+", s["i"], SConst(1))}
    assert sym_eval_bool(Cmp("<", Var("i"), Const(10)), rho) == pcmp(
        "<", SBinOp("+", s["i"], SConst(1)), SConst(10)
    )


def test_eval_sym_and_path(syms):
    factory, s = syms
    assert eval_sym(sbinop("+", s["x"], SConst(1)), {s["x"].sym: 4}) == 5
    p0, p1 = factory.fresh("priv"), factory.fresh("priv")
    path = pand(pcmp(">", SVal(p0), SConst(0)), pcmp("<=", SVal(p1), SConst(0)))
    assert eval_path(path, {p0: 1, p1: 0})
    assert not eval_path(path, {p0: 0, p1: 0})
    with pytest.raises(MissingSymbol):
        eval_sym(s["x"], {})


def test_in_gamma_k(syms):
    _, s = syms
    kappa = PreciseStore.of(
        {"y": SConst(5), "priv": s["priv"]}, pcmp(">", s["priv"], SConst(0))
    )
    assert in_gamma_k(kappa, {"y": 5, "priv": 3}, {s["priv"].sym: 3})
    assert not in_gamma_k(kappa, {"y": 5, "priv": 0}, {s["priv"].sym: 0})
    assert not in_gamma_k(kappa, {"y": 4, "priv": 3}, {s["priv"].sym: 3})


def test_fresh_symbols_are_distinct():
    factory = SymbolFactory()
    a, b = factory.fresh("i"), factory.fresh("i")
    assert a != b and a.name != b.name
    assert factory.fresh("i") != factory.initial("i")
    assert factory.initial("i") == factory.initial("i")


def test_path_constructors_fold():
    assert pand(TRUE, TRUE) == TRUE
    assert pcmp("<", SConst(1), SConst(2)) == TRUE
    assert pnot(pnot(TRUE)) == TRUE
    beta = pcmp("<", SVal(SymbolFactory().fresh("x")), SConst(0))
    assert pnot(beta) == pcmp(">=", beta.left, beta.right)
    assert pand(beta, pnot(beta)) == pnot(TRUE)


# --- properties -----------------------------------------------------------


def _expr_strategy():
    rng = random.Random()

    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 10**9))
        rng.seed(seed)
        return random_expr(rng, ("x", "y", "i"), depth=3)

    return build()


@settings(max_examples=200, deadline=None)
@given(_expr_strategy(), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_substitution_soundness(expr, vx, vy, vi):
    """Evaluating concretely equals evaluating the substituted symbolic term."""
    factory = SymbolFactory()
    rho = {v: SVal(factory.initial(v)) for v in ("x", "y", "i")}
    nu = {rho["x"].sym: vx, rho["y"].sym: vy, rho["i"].sym: vi}
    mu = {"x": vx, "y": vy, "i": vi}
    from niverify.lang import eval_expr

    assert eval_expr(expr, mu) == eval_sym(sym_eval_expr(expr, rho), nu)


def _raw_symexpr(rng, symbols, depth):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.4:
            return SConst(rng.randint(-5, 5))
        return SVal(rng.choice(symbols))
    op = rng.choice(["+", "-", "*"])
    return SBinOp(op, _raw_symexpr(rng, symbols, depth - 1), _raw_symexpr(rng, symbols, depth - 1))


def _refold(expr):
    if isinstance(expr, SBinOp):
        return sbinop(expr.op, _refold(expr.left), _refold(expr.right))
    return expr


def test_folding_preserves_semantics():
    rng = random.Random(99)
    factory = SymbolFactory()
    symbols = [factory.fresh("s") for _ in range(3)]
    for _ in range(300):
        expr = _raw_symexpr(rng, symbols, 4)
        nu = {s: rng.randint(-6, 6) for s in symbols}
        assert eval_sym(expr, nu) == eval_sym(_refold(expr), nu)


def test_gamma_k_monotone_under_path_strengthening():
    rng = random.Random(5)
    factory = SymbolFactory()
    symbols = [factory.initial(v) for v in ("x", "y")]
    for _ in range(200):
        rho = {v: _raw_symexpr(rng, [SVal(s).sym for s in symbols], 2) for v in ("x", "y")}
        rho = {v: _refold(e) for v, e in rho.items()}
        base = pcmp(rng.choice(["<", "<=", "==", "!=", ">", ">="]), SVal(symbols[0]), SConst(rng.randint(-3, 3)))
        extra = pcmp(rng.choice(["<", "<=", "==", "!=", ">", ">="]), SVal(symbols[1]), SConst(rng.randint(-3, 3)))
        nu = {s: rng.randint(-5, 5) for s in symbols}
        mu = {v: eval_sym(e, nu) for v, e in rho.items()}
        strong = in_gamma_k(PreciseStore.of(rho, pand(base, extra)), mu, nu)
        weak = in_gamma_k(PreciseStore.of(rho, base), mu, nu)
        assert not strong or weak


def _chain(n):
    factory = SymbolFactory()
    x, z = SVal(factory.initial("x")), SVal(factory.initial("z"))
    leaves = [pcmp("<", sbinop("+", x, SConst(k)), z) for k in range(n)]
    path = TRUE
    for leaf in leaves:
        path = pand(path, leaf)
    return path, leaves, (x.sym, z.sym)


def test_long_paths_are_walked_without_recursion():
    path, leaves, (x, z) = _chain(5000)
    assert str(path) == "(" * 4999 + str(leaves[0]) + "".join(f" && {leaf})" for leaf in leaves[1:])
    assert list(conjuncts(path)) == leaves
    assert path.symbols == {x, z}
    assert eval_path(path, {x: -5000, z: 0}) and not eval_path(path, {x: -4999, z: 0})
    again, _, _ = _chain(5000)
    assert again == path and hash(again) == hash(path)
    assert pand(path, leaves[0]) != path
    script = emit_smtlib(path)
    assert script.count("(and ") == 4999


def test_deep_negations_are_walked_without_recursion():
    """``not (s_k > 0 and not (... and x > 1))``, 20 000 negations deep."""
    factory = SymbolFactory()
    x = factory.initial("x")
    steps = [factory.fresh("s") for _ in range(20_000)]

    def nested(last):
        path = pcmp(">", SVal(x), SConst(last))
        for s in steps:
            path = pnot(pand(pcmp(">", SVal(s), SConst(0)), path))
        return path

    path = nested(1)
    assert path == nested(1) and path != nested(2)
    assert path.symbols == {x, *steps}
    ones = dict.fromkeys(steps, 1)
    # With every s_k > 0 each negation flips its operand, an even number of times.
    assert eval_path(path, {**ones, x: 5}) and not eval_path(path, {**ones, x: 1})
    # The outermost s_k <= 0 decides it before any symbol below is read.
    assert eval_path(path, {steps[-1]: 0})
    with pytest.raises(MissingSymbol):
        eval_path(path, {steps[-1]: 1})


def test_path_symbols_read_each_comparison_once(monkeypatch):
    """The symbols of a path n negations deep cost one read of each of its
    n + 1 comparisons' symbols, unioned into one set: no set is built per
    conjunction, as the walk that cost O(n^2) did."""
    for depth in (1000, 2000, 4000):
        factory = SymbolFactory()
        steps = [factory.fresh("s") for _ in range(depth)]
        leaves = [pcmp(">", SVal(steps[0]), SConst(1))] + [pcmp(">", SVal(s), SConst(0)) for s in steps]
        path = leaves[0]
        for leaf in leaves[1:]:
            path = pnot(pand(leaf, path))
        kept = {id(leaf): leaf.symbols for leaf in leaves}
        reads, built = [], []
        with monkeypatch.context() as patch:
            patch.setattr(PCmp, "symbols", property(lambda leaf: reads.append(leaf) or kept[id(leaf)]))
            patch.setattr(symcore, "frozenset", lambda *args: built.append(args) or frozenset(*args), raising=False)
            assert path.symbols == set(steps)
        assert len(reads) == len(set(map(id, reads))) == depth + 1
        assert len(built) <= 1


def _ref_symbols(path):
    """The recursive definition ``PAnd.symbols``/``PNot.symbols`` had."""
    if isinstance(path, PAnd):
        return frozenset().union(*(_ref_symbols(leaf) for leaf in conjuncts(path)))
    if isinstance(path, PNot):
        return _ref_symbols(path.operand)
    return path.symbols


def _ref_eval_path(path, valuation):
    """The recursive definition ``eval_path`` had, short cut left to right."""
    for leaf in conjuncts(path):
        if isinstance(leaf, PCmp):
            if not apply_cmp(leaf.op, eval_sym(leaf.left, valuation), eval_sym(leaf.right, valuation)):
                return False
        elif isinstance(leaf, PNot) and _ref_eval_path(leaf.operand, valuation):
            return False
    return True


def _random_nested_path(rng, symbols, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.1:
            return TRUE
        return PCmp(rng.choice(("<", "<=", "==", "!=", ">", ">=")), SVal(rng.choice(symbols)), SConst(rng.randint(-2, 2)))
    if roll < 0.55:
        return PNot(_random_nested_path(rng, symbols, depth - 1))
    return PAnd(_random_nested_path(rng, symbols, depth - 1), _random_nested_path(rng, symbols, depth - 1))


def test_nested_path_walks_match_the_recursive_definitions():
    """Symbols and truth, or the missing symbol raised, agree with the
    recursive walks on random nested paths."""
    rng = random.Random(61)
    for _ in range(2000):
        factory = SymbolFactory()
        symbols = [factory.fresh(v) for v in "abcdefghij"]
        path = _random_nested_path(rng, symbols, 6)
        assert path.symbols == _ref_symbols(path)
        valuation = {s: rng.randint(-3, 3) for s in symbols if rng.random() < 0.8}
        try:
            expected = _ref_eval_path(path, valuation)
        except MissingSymbol as exc:
            with pytest.raises(MissingSymbol) as raised:
                eval_path(path, valuation)
            assert raised.value.args == exc.args
        else:
            assert eval_path(path, valuation) == expected


def _deep_term(n, last=0):
    """``(((x + 1) * 1) + 1) ...``: n operations nested on the left, the last adding ``last``."""
    factory = SymbolFactory()
    x = factory.initial("x")
    term = SVal(x)
    for k in range(n - 1):
        term = SBinOp("+" if k % 2 == 0 else "*", term, SConst(1))
    return SBinOp("+", term, SConst(last)), x


def test_deep_terms_are_walked_without_recursion():
    """``x := x * 2`` in a long loop nests a term once per iteration."""
    term, x = _deep_term(5000)
    assert symbols_of_expr(term) == {x}
    assert eval_sym(term, {x: 7}) == 7 + 2500
    assert _expr_poly(term) == {(x,): 1, (): 2500}
    text, smt = "x", "|x|"
    for k in range(4999):
        op = "+" if k % 2 == 0 else "*"
        text, smt = f"({text} {op} 1)", f"({op} {smt} 1)"
    assert str(term) == f"({text} + 0)"
    assert _smt_expr(term) == f"(+ {smt} 0)"
    again, _ = _deep_term(5000)
    assert again is not term and again == term
    assert _deep_term(5000, last=1)[0] != term
    with pytest.raises(MissingSymbol):
        eval_sym(term, {})


def test_each_new_term_node_costs_one_polynomial_step(monkeypatch):
    """``x := x * 2 + h - h`` in a loop: normalizing t_1 ... t_n must cost
    O(n) polynomial steps, not the O(n^2) of rebuilding every t_k from its
    leaves, and the kept polynomials change no hash, equality or repr."""
    factory = SymbolFactory()
    x, h = SVal(factory.initial("x")), SVal(factory.initial("h"))
    terms = [x]
    for _ in range(400):
        terms.append(sbinop("-", sbinop("+", sbinop("*", terms[-1], SConst(2)), h), h))
    fresh = [_rebuilt(t) for t in terms]
    plain_node_poly = symcore._node_poly
    steps = []

    def counted(op, lp, rp):
        steps.append(op)
        return plain_node_poly(op, lp, rp)

    monkeypatch.setattr(symcore, "_node_poly", counted)
    for k, term in enumerate(terms[1:], 1):
        assert _expr_poly(term) == {(x.sym,): 2**k}
    assert len(steps) == 3 * 400
    assert repr(terms[20]) == repr(fresh[20])  # the dataclass repr recurses, so a shallow one
    for term, again in zip(terms, fresh):
        assert term == again and hash(term) == hash(again)
        assert _expr_poly(term) == fold(again, symcore._leaf_poly, symcore._leaf_poly, plain_node_poly)


def test_each_new_term_node_costs_one_symbol_set_step(monkeypatch):
    """The symbols of t_1 ... t_n (t_k = t_{k-1} * 2 + h - h) cost O(n) set
    unions; a nested node keeps its set, a node over two leaves does not,
    and the kept sets change no hash, equality or repr."""
    factory = SymbolFactory()
    x, h = SVal(factory.initial("x")), SVal(factory.initial("h"))
    terms = [x]
    for _ in range(400):
        terms.append(sbinop("-", sbinop("+", sbinop("*", terms[-1], SConst(2)), h), h))
    fresh = [_rebuilt(t) for t in terms]
    plain_union = symcore._union
    steps = []

    def counted(op, left, right):
        steps.append(op)
        return plain_union(op, left, right)

    monkeypatch.setattr(symcore, "_union", counted)
    for term in terms[1:]:
        assert symbols_of_expr(term) == {x.sym, h.sym}
    assert len(steps) == 3 * 400
    assert terms[1].left.left._symbols is None and terms[2].left.left._symbols is not None
    assert pcmp("<", terms[400], SConst(0)).symbols == {x.sym, h.sym}
    assert repr(terms[20]) == repr(fresh[20])
    for term, again in zip(terms, fresh):
        assert term == again and hash(term) == hash(again)


def _rebuilt(term):
    """An equal copy of a term that shares no operation node with it."""
    return fold(term, lambda leaf: leaf, Var, SBinOp)


def test_has_conjunct_sees_exactly_the_leaves_of_each_prefix():
    path, leaves, _ = _chain(6)
    prefixes = [path]
    while prefixes[-1] != leaves[0]:
        prefixes.append(prefixes[-1].left)
    # Ask the longest path first, so that its index serves every prefix.
    for prefix in prefixes:
        for leaf in leaves:
            assert has_conjunct(prefix, leaf) == (leaf in set(conjuncts(prefix)))
    # A second extension of a prefix must not see the first one's conjuncts.
    middle = prefixes[3]
    other = pand(middle, pnot(leaves[5]))
    assert has_conjunct(other, pnot(leaves[5])) and not has_conjunct(other, leaves[5])
    assert has_conjunct(other, leaves[0]) and not has_conjunct(other, leaves[4])


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_has_conjunct_sees_the_leaves_of_extensions_layered_deep(rng):
    """Extensions of non-tip nodes, of extensions of them and so on, past
    ``MAX_INDEX_LAYERS`` deep, each answer exactly for their own leaves,
    whichever node is asked first."""
    _, leaves, _ = _chain(12)
    nodes = [leaves[0]]
    # A ladder: each rung's side branch is asked first and takes the tip,
    # so the next rung extends a non-tip node and stacks a layer.
    for _ in range(2 * symcore.MAX_INDEX_LAYERS + 1):
        side = pand(nodes[-1], rng.choice(leaves))
        has_conjunct(side, rng.choice(leaves))
        nodes += [side, pand(nodes[-1], rng.choice(leaves))]
        has_conjunct(nodes[-1], rng.choice(leaves))
    for _ in range(60):
        node = rng.choice(nodes[-6:]) if rng.random() < 0.7 else rng.choice(nodes)
        for _ in range(rng.randint(1, 3)):
            node = pand(node, rng.choice(leaves))
            nodes.append(node)
        if rng.random() < 0.5:
            asked = rng.choice(nodes)
            has_conjunct(asked, rng.choice(leaves))
    for node in rng.sample(nodes, len(nodes)):
        present = set(conjuncts(node))
        for leaf in leaves:
            assert has_conjunct(node, leaf) == (leaf in present)
    layers = [node._index.layers for node in nodes if isinstance(node, symcore.PAnd) and node._index is not None]
    assert max(layers) == symcore.MAX_INDEX_LAYERS


def test_extending_a_non_tip_node_copies_no_prefix():
    """A second extension of a node deep in an indexed chain gets a layer
    of its own leaves over the chain's index, not a copy of the prefix."""
    path, leaves, _ = _chain(2000)
    assert has_conjunct(path, leaves[1999])
    middle = path
    while middle.size > 1500:
        middle = middle.left
    other = pand(pand(middle, pnot(leaves[1800])), leaves[1600])
    assert has_conjunct(other, pnot(leaves[1800])) and has_conjunct(other, leaves[3])
    assert not has_conjunct(other, leaves[1800]) and not has_conjunct(other, leaves[1700])
    index = other._index
    assert index.base is path._index and index.base_size == 1500
    assert len(index.first) == 2


# --- the exactness invariant ------------------------------------------------
#
# Set and dict iteration order decides FM's elimination order, and with it
# Unsat strength, blowups and models; so every hash stays what a frozen
# dataclass gives (the hash of the field tuple) and a symbol hashes as its
# uid.  Fresh symbols are minted in sorted variable order.


def _value_types():
    from niverify.absint import AbstractState, Interval
    from niverify.relational import Pair
    from niverify.symcore import PCmp, PNot

    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    guard = Cmp("<", Var("x"), BinOp("+", Const(1), Var("y")))
    return [
        SConst(3),
        SConst(-(2**64)),
        x,
        SBinOp("*", x, SBinOp("+", x, SConst(1))),
        TRUE,
        PCmp("<", x, SConst(2)),
        PNot(PCmp("==", x, SConst(2))),
        Interval(1, None),
        AbstractState.top({"x", "y"}),
        Const(1),
        Var("x"),
        guard,
        Pair(x, SConst(1)),
    ]


def test_value_types_hash_as_their_field_tuple():
    for value in _value_types():
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)
        assert hash(value) == hash(fields), value
        assert not hasattr(value, "__dict__"), value  # slotted, so no stray attributes
    x = SVal(SymbolFactory().initial("x"))
    path = pand(pcmp("<", x, SConst(1)), pcmp(">", x, SConst(-1)))
    assert hash(path) == hash((path.left, path.right))


def test_equal_terms_are_equal_in_every_way():
    factory = SymbolFactory()
    x = factory.initial("x")
    a = SBinOp("+", SVal(x), SConst(1))
    b = SBinOp("+", SVal(x), SConst(1))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != SBinOp("-", SVal(x), SConst(1)) and a != SConst(1) and SConst(1) != SVal(x)
    assert SConst(1) != 1 and SVal(x) != x


def test_symbols_hash_and_sort_as_their_uid_and_print_as_their_name():
    factory = SymbolFactory()
    symbols = [factory.fresh("y"), factory.initial("x"), factory.fresh("y")]
    for sym in symbols:
        assert hash(sym) == hash(int(sym))
    assert [int(s) for s in sorted(reversed(symbols))] == [0, 1, 2]
    y0 = symbols[0]
    assert str(y0) == f"{y0}" == "%s" % y0 == "{}".format(y0) == "y#0"
    assert repr(y0) == "SymValue(uid=0, name='y#0')"
    assert repr(SVal(y0)) == "SVal(sym=SymValue(uid=0, name='y#0'))"
    for clone in (copy.copy(y0), copy.deepcopy(y0), pickle.loads(pickle.dumps(y0))):
        assert clone == y0 and clone.name == "y#0"
    monomials = {(symbols[1], symbols[2]): 1, (symbols[0],): 2}
    assert hash((symbols[1], symbols[2])) == hash((1, 2))
    assert sorted(monomials) == [(symbols[0],), (symbols[1], symbols[2])]


def test_havoc_mints_fresh_symbols_in_sorted_variable_order():
    from niverify.relational import Pair, modif_dep
    from niverify.soundse import modif

    body = Seq(Assign("z", Const(1)), Seq(Assign("x", Const(1)), Assign("y", Const(1))))
    for order in (("x", "y", "z"), ("z", "y", "x")):
        factory = SymbolFactory()
        out = modif({v: SConst(0) for v in order}, body, factory)
        assert [int(out[v].sym) for v in ("x", "y", "z")] == [0, 1, 2]
        factory = SymbolFactory()
        out2 = modif_dep({v: Pair(SConst(0), SConst(0)) for v in order}, body, {"y"}, factory)
        uids = [int(e.sym) for v in ("x", "y", "z") for e in (out2[v].left, out2[v].right)]
        assert uids == [0, 1, 2, 2, 3, 4]
