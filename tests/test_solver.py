import itertools
import random
import sys

from niverify.solver import (
    InternalBackend,
    Sat,
    SmtProcessBackend,
    Solver,
    Unknown,
    Unsat,
    emit_smtlib,
    parse_model_output,
)
from niverify.symcore import (
    PAnd,
    PNot,
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    eval_path,
    pand,
    pcmp,
)

SHELL = [sys.executable, "-m", "niverify.smtshell"]


def _symbols(n=3):
    factory = SymbolFactory()
    return factory, [factory.initial(v) for v in "xyz"[:n]]


def test_check_sat_true_and_contradiction():
    solver = Solver()
    assert isinstance(solver.check_sat(TRUE), Sat)
    _, (x, *_) = _symbols(1)
    contradiction = pand(pcmp(">", SVal(x), SConst(0)), pcmp("<=", SVal(x), SConst(0)))
    assert solver.check_sat(contradiction) == Unsat()


def test_check_sat_model_is_valid():
    solver = Solver()
    factory = SymbolFactory()
    p0, p1 = factory.fresh("priv"), factory.fresh("priv")
    path = pand(pcmp(">", SVal(p0), SConst(0)), pcmp("<=", SVal(p1), SConst(0)))
    res = solver.check_sat(path)
    assert isinstance(res, Sat)
    assert eval_path(path, res.valuation())


def test_may_sat_directions():
    solver = Solver()
    _, (x, *_) = _symbols(1)
    assert not solver.may_sat(pand(pcmp("<", SVal(x), SConst(0)), pcmp(">", SVal(x), SConst(0))))
    assert solver.may_sat(pcmp("<", SVal(x), SConst(0)))


def test_may_sat_unknown_is_conservative():
    class Undecided:
        def check(self, path):
            return Unknown("stubbed")

    solver = Solver(Undecided())
    _, (x, *_) = _symbols(1)
    assert solver.may_sat(pcmp("<", SVal(x), SConst(0)))


def test_prove_equal():
    solver = Solver()
    factory = SymbolFactory()
    i0, i1 = factory.fresh("i"), factory.fresh("i")
    assert solver.prove_equal(SVal(i0), SVal(i0), TRUE)
    assert solver.prove_equal(SConst(5), SConst(5), TRUE)
    same = pcmp("==", SVal(i0), SVal(i1))
    assert solver.prove_equal(
        SBinOp("+", SVal(i0), SConst(1)), SBinOp("+", SVal(i1), SConst(1)), same
    )
    assert not solver.prove_equal(SVal(i0), SVal(i1), TRUE)


def test_emit_smtlib_shapes():
    _, (x, *_) = _symbols(1)
    script = emit_smtlib(TRUE, set())
    assert "(assert true)" in script and "(check-sat)" in script
    script = emit_smtlib(pcmp(">", SVal(x), SConst(0)), {x})
    assert "(declare-const |x| Int)" in script
    assert "(assert (> |x| 0))" in script
    assert script.rstrip().endswith("(get-model)")
    neg = emit_smtlib(pcmp("<", SVal(x), SConst(-3)), {x})
    assert "(- 3)" in neg


def test_emit_smtlib_picks_nonlinear_logic():
    _, (x, y, *_) = _symbols(2)
    linear = emit_smtlib(pcmp("<", SVal(x), SVal(y)), {x, y})
    assert "(set-logic QF_LIA)" in linear
    nonlinear = emit_smtlib(pcmp("==", SBinOp("*", SVal(x), SVal(y)), SConst(4)), {x, y})
    assert "(set-logic QF_NIA)" in nonlinear


def test_parse_model_output_negative_literals():
    _, (x, y, *_) = _symbols(2)
    text = "(\n (define-fun |x| () Int (- 7))\n (define-fun |y| () Int 3)\n)"
    model = parse_model_output(text, {x, y})
    assert model == {x: -7, y: 3}


def _random_path(rng, symbols, depth):
    if depth <= 0 or rng.random() < 0.45:
        op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
        def leaf():
            if rng.random() < 0.5:
                return SConst(rng.randint(-3, 3))
            return SVal(rng.choice(symbols))
        return pcmp(op, leaf(), leaf())
    if rng.random() < 0.35:
        return PNot(_random_path(rng, symbols, depth - 1))
    return PAnd(_random_path(rng, symbols, depth - 1), _random_path(rng, symbols, depth - 1))


def _brute_witness(path, symbols, lo=-2, hi=2):
    for values in itertools.product(range(lo, hi + 1), repeat=len(symbols)):
        nu = dict(zip(symbols, values))
        if eval_path(path, nu):
            return nu
    return None


def test_internal_backend_never_contradicts_brute_force():
    rng = random.Random(42)
    solver = Solver()
    for _ in range(250):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "xy"]
        path = _random_path(rng, symbols, 3)
        witness = _brute_witness(path, symbols)
        res = solver.check_sat(path)
        if witness is not None:
            assert not isinstance(res, Unsat), f"unsat but {witness} satisfies {path}"
        if isinstance(res, Sat):
            assert eval_path(path, res.valuation())


def test_prove_equal_soundness_against_enumeration():
    rng = random.Random(43)
    solver = Solver()
    for _ in range(150):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "xy"]
        path = _random_path(rng, symbols, 2)
        e0 = SBinOp(rng.choice(["+", "-"]), SVal(symbols[0]), SConst(rng.randint(-2, 2)))
        e1 = SBinOp(rng.choice(["+", "-"]), SVal(symbols[1]), SConst(rng.randint(-2, 2)))
        if solver.prove_equal(e0, e1, path):
            from niverify.symcore import eval_sym

            for values in itertools.product(range(-3, 4), repeat=2):
                nu = dict(zip(symbols, values))
                if eval_path(path, nu):
                    assert eval_sym(e0, nu) == eval_sym(e1, nu)


def test_incremental_answers_match_the_backend_from_scratch():
    """Paths grown one conjunct at a time: every prefix is decided from the one before."""
    rng = random.Random(45)
    for _ in range(80):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "xyz"]
        solver = Solver()
        path = TRUE
        for _ in range(8):
            path = pand(path, _random_path(rng, symbols, 2))
            fresh = InternalBackend().check(path)
            assert solver.may_sat(path) == (not isinstance(fresh, Unsat)), path
            e0 = SBinOp(rng.choice("+-"), SVal(rng.choice(symbols)), SConst(rng.randint(-2, 2)))
            e1 = SVal(rng.choice(symbols))
            query = pand(path, pcmp("!=", e0, e1))
            assert solver.prove_equal(e0, e1, path) == isinstance(InternalBackend().check(query), Unsat)
            # A refutation's model does not depend on the queries before it.
            assert solver.model(path) == Solver().model(path)
            assert solver.model(query) == Solver().model(query)


def test_check_sat_does_not_search_past_the_relaxation():
    """x*x == 9: the relaxed FM point is spurious, so only ``model`` finds x = -3."""
    _, (x, *_) = _symbols(1)
    square = pcmp("==", SBinOp("*", SVal(x), SVal(x)), SConst(9))
    solver = Solver()
    assert isinstance(solver.check_sat(square), Unknown)
    assert solver.may_sat(square)
    found = solver.model(square)
    assert isinstance(found, Sat) and eval_path(square, found.valuation())
    assert found.valuation()[x] == -3
    assert solver.check_sat(square) == found  # the model is cached


def test_model_stays_unknown_out_of_range():
    _, (x, *_) = _symbols(1)
    square = pcmp("==", SBinOp("*", SVal(x), SVal(x)), SConst(100))
    assert isinstance(Solver().model(square), Unknown)


def test_model_searches_again_after_a_cached_unknown():
    """``prove_equal`` caches the Unknown of the query a refutation asks a model of."""
    _, (x, *_) = _symbols(1)
    square = pcmp("==", SBinOp("*", SVal(x), SVal(x)), SConst(9))
    solver = Solver()
    assert not solver.prove_equal(SVal(x), SConst(3), square)
    query = pand(square, pcmp("!=", SVal(x), SConst(3)))
    assert isinstance(solver.check_sat(query), Unknown)
    found = solver.model(query)
    assert isinstance(found, Sat) and found.valuation()[x] == -3


def test_model_of_a_contradiction_is_unsat():
    _, (x, *_) = _symbols(1)
    contradiction = pand(pcmp("<", SVal(x), SConst(0)), pcmp(">", SVal(x), SConst(0)))
    assert Solver().model(contradiction) == Unsat()


def test_integer_tightening():
    _, (x, *_) = _symbols(1)
    solver = Solver()
    two_x = SBinOp("*", SConst(2), SVal(x))
    three_x = SBinOp("*", SConst(3), SVal(x))
    assert solver.check_sat(pcmp("==", two_x, SConst(1))) == Unsat()
    between = pand(pcmp("<=", SConst(1), three_x), pcmp("<=", three_x, SConst(2)))
    assert solver.check_sat(between) == Unsat()


def test_subprocess_shell_round_trip():
    """The SMT-LIB2 process backend agrees with brute force on small paths."""
    rng = random.Random(44)
    backend = SmtProcessBackend(SHELL, timeout_ms=30_000)
    checked = 0
    for _ in range(12):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "xy"]
        path = _random_path(rng, symbols, 2)
        res = backend.check(path)
        witness = _brute_witness(path, symbols)
        if isinstance(res, Sat):
            assert eval_path(path, res.valuation())
            checked += 1
        elif isinstance(res, Unsat):
            assert witness is None
            checked += 1
    assert checked >= 8


def test_subprocess_shell_unsat_and_negative_model():
    backend = SmtProcessBackend(SHELL, timeout_ms=30_000)
    factory = SymbolFactory()
    x = factory.initial("x")
    res = backend.check(pand(pcmp("<", SVal(x), SConst(0)), pcmp(">", SVal(x), SConst(0))))
    assert res == Unsat()
    res = backend.check(pcmp("<", SVal(x), SConst(-3)))
    assert isinstance(res, Sat)
    assert res.valuation()[x] < -3


def test_subprocess_shell_decides_long_paths():
    """A 2000-conjunct path nests 2000 ``and``s deep in SMT-LIB; the shell walks it without recursion."""
    _, (x, y) = _symbols(2)
    total, diff = SBinOp("+", SVal(x), SVal(y)), SBinOp("-", SVal(x), SVal(y))
    path = TRUE
    for i in range(2000):
        path = pand(path, pcmp(">=", total, SConst(-i)) if i % 2 else pcmp("<=", diff, SConst(i)))
    closed = pand(path, pcmp("<", total, SConst(-1)))
    backend = SmtProcessBackend(SHELL, timeout_ms=30_000)
    for query in (path, closed):
        expected = InternalBackend().check(query)
        assert isinstance(expected, (Sat, Unsat))
        assert type(backend.check(query)) is type(expected)


def test_unavailable_solver_is_unknown():
    backend = SmtProcessBackend(["/nonexistent/solver-binary"], timeout_ms=500)
    _, (x, *_) = _symbols(1)
    assert isinstance(backend.check(pcmp("<", SVal(x), SConst(0))), Unknown)
