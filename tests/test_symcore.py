import random

import pytest
from hypothesis import given, settings, strategies as st

from niverify.lang import BinOp, Cmp, Const, Var
from niverify.symcore import (
    MissingSymbol,
    PreciseStore,
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
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
)
from niverify.solver import emit_smtlib

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
    script = emit_smtlib(path, {x, z})
    assert script.count("(and ") == 4999


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
