import io
import itertools
import random
import subprocess
import sys

import pytest

from niverify import smtshell, solver as solver_module
from niverify.solver import (
    InternalBackend,
    Sat,
    SmtProcessBackend,
    Solver,
    Unknown,
    Unsat,
    emit_smtlib,
    _clause_model,
    _fm_eliminate,
    parse_model_output,
)
from niverify.symcore import (
    Blowup,
    PAnd,
    PNot,
    SBinOp,
    SConst,
    SVal,
    SymbolFactory,
    TRUE,
    dnf,
    eval_path,
    pand,
    pcmp,
    pnot,
)

from helpers import recorded_decisions, repairs_checking_every_row

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


def test_check_sat_returns_the_answer_it_keeps():
    """Asked twice about one path, ``check_sat`` returns the same answer
    object, whose model is the valuation dict of every symbol of the path."""
    solver = Solver()
    _, (x, y, _) = _symbols()
    path = pand(pcmp("<", SVal(x), SVal(y)), pcmp(">", SVal(x), SConst(3)))
    res = solver.check_sat(path)
    assert res is solver.check_sat(path)
    assert isinstance(res.model, dict) and set(res.model) == path.symbols and eval_path(path, res.model)


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
    # Equal terms, distinct objects, are proved by the solver on any path.
    product = SBinOp("*", SVal(i0), SVal(i1))
    positive = pcmp(">", SVal(i0), SConst(0))
    assert solver.may_sat(positive)
    assert solver.prove_equal(product, SBinOp("*", SVal(i0), SVal(i1)), positive)
    empty = pand(positive, pcmp("<", SVal(i0), SConst(0)))
    assert isinstance(solver.check_sat(empty), Unsat)
    assert solver.prove_equal(product, SBinOp("*", SVal(i0), SVal(i1)), empty)


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
    # Eight disequalities expand past MAX_CLAUSES, and are still linear.
    wide = TRUE
    for c in range(8):
        wide = pand(wide, pcmp("!=", SVal(x), SConst(c)))
    assert wide.clause_counts[0] is None
    assert "(set-logic QF_LIA)" in emit_smtlib(wide, {x})
    # A product under a negation is found.
    negated = pnot(pand(wide, pcmp(">", SBinOp("*", SVal(x), SVal(y)), SConst(0))))
    assert "(set-logic QF_NIA)" in emit_smtlib(negated, {x, y})


def test_parse_model_output_negative_literals():
    _, (x, y, *_) = _symbols(2)
    text = "(\n (define-fun |x| () Int (- 7))\n (define-fun |y| () Int 3)\n)"
    model = parse_model_output(text, {x, y})
    assert model == {x: -7, y: 3}


def _random_path(rng, symbols, depth, products=False):
    """A random path; with ``products``, some leaves multiply two symbols."""
    if depth <= 0 or rng.random() < 0.45:
        op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
        def leaf():
            if rng.random() < 0.5:
                return SConst(rng.randint(-3, 3))
            if products and rng.random() < 0.4:
                return SBinOp("*", SVal(rng.choice(symbols)), SVal(rng.choice(symbols)))
            return SVal(rng.choice(symbols))
        return pcmp(op, leaf(), leaf())
    if rng.random() < 0.35:
        return PNot(_random_path(rng, symbols, depth - 1, products))
    return PAnd(
        _random_path(rng, symbols, depth - 1, products),
        _random_path(rng, symbols, depth - 1, products),
    )


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


def _per_clause_check(path):
    """Reference oracle for ``InternalBackend.check``: FM on each DNF clause of the whole path in turn."""
    try:
        clauses = dnf(path)
    except Blowup:
        return Unknown("normalization blowup")
    all_unsat = True
    for clause in clauses:
        try:
            feasible, trace = _fm_eliminate(clause)
        except Blowup:
            all_unsat = False
            continue
        if not feasible:
            continue
        all_unsat = False
        assignment = _clause_model(trace)
        if assignment is None:
            continue
        model = {mono[0]: value for mono, value in assignment.items() if len(mono) == 1}
        for sym in path.symbols:
            model.setdefault(sym, 0)
        if eval_path(path, model):
            return Sat(model)
    return Unsat() if all_unsat else Unknown("no integer model found")


def test_whole_path_check_matches_the_per_clause_reference():
    """Same answer kind as FM clause by clause; every model binds every symbol and satisfies the path.

    Half of the paths multiply symbols, so the relaxation's Unknown is compared too.
    """
    rng = random.Random(46)
    kinds = set()
    for i in range(2000):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "wxyz"]
        path = _random_path(rng, symbols, rng.randint(2, 4), products=i % 2 == 1)
        answer = InternalBackend().check(path)
        assert type(answer) is type(_per_clause_check(path)), path
        kinds.add(type(answer))
        if isinstance(answer, Sat):
            assert set(answer.valuation()) == path.symbols, path
            assert eval_path(path, answer.valuation()), path
    assert kinds == {Sat, Unsat, Unknown}


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
    assert isinstance(solver.check_sat(square), Unknown)  # the incremental answer stands


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


def test_check_sat_with_the_internal_backend_never_asks_it(monkeypatch):
    """An Unknown of the incremental procedure is not decided again from scratch."""
    _, (x, *_) = _symbols(1)
    square = pcmp("==", SBinOp("*", SVal(x), SVal(x)), SConst(9))
    solver = Solver()
    asked = []
    monkeypatch.setattr(solver.backend, "check", asked.append)
    assert isinstance(solver.check_sat(square), Unknown)
    assert isinstance(solver.check_sat(pand(square, pcmp(">", SVal(x), SConst(0)))), Unknown)
    assert asked == []


class _GivesUp:
    """A stand-in process backend that never decides anything."""

    def check(self, path):
        return Unknown("gave up")


def test_model_searches_again_after_a_process_backend_cached_unknown():
    """With any other backend ``check_sat`` caches the backend's Unknown; ``model`` searches anyway."""
    _, (x, *_) = _symbols(1)
    square = pcmp("==", SBinOp("*", SVal(x), SVal(x)), SConst(9))
    solver = Solver(_GivesUp())
    assert isinstance(solver.check_sat(square), Unknown)
    found = solver.model(square)
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


def test_shell_answers_deeply_nested_negations():
    """``(not (and (> x 0) (not (and ... (> x 1)))))``, 3000 deep: every
    ``x <= 0`` satisfies it, and the shell finds such a model."""
    formula = "(> x 1)"
    for _ in range(3000):
        formula = f"(not (and (> x 0) {formula}))"
    script = f"(declare-const x Int)\n(assert {formula})\n(check-sat)\n(get-model)\n"
    done = subprocess.run(SHELL, input=script, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    answer, model = done.stdout.split("\n", 1)
    assert answer == "sat"
    _, (x, *_) = _symbols(1)
    assert parse_model_output(model, {x})[x] <= 0


@pytest.mark.parametrize(
    "command",
    [
        "(assert (< x))",
        "(declare-const)",
        "(assert true))",
        "(assert (> |x 1))",
        "(assert (< x 1)",
        "(assert (< x 1 0))",
        "(assert (distinct x 1 x))",
        "(assert (not (< x 1) (> x 2)))",
        "(declare-const y Real)\n(assert (and (< 0 y) (< y 1)))",
        "(declare-fun f (Int) Int)",
        "(declare-const x Int)",
    ],
)
def test_shell_reports_malformed_input_as_an_error(monkeypatch, capsys, command):
    """A script the shell cannot read gets one ``(error "...")`` line and
    exit code 1, before any answer: no traceback, no silence, and no
    ``sat`` from a comparison with more than two arguments, which SMT-LIB
    reads as a chain (``(< x 1 0)`` is unsat).  A constant of another sort
    than ``Int``, a function with arguments and a second declaration of a
    name are errors too: a ``Real`` strictly between 0 and 1 is no
    ``unsat``, and a function is no constant."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"(declare-const x Int)\n{command}\n(check-sat)\n"))
    assert smtshell.main() == 1
    out = capsys.readouterr().out
    assert out.startswith('(error "') and out.endswith('")\n') and out.count("\n") == 1, out


def test_solver_output_nested_5000_deep_is_read_without_recursion():
    """A model binding nested 5000 lists deep in a solver's output is found
    by a walk on a stack, not a RecursionError."""
    _, (x, *_) = _symbols(1)
    nested = "(" * 5000 + "(define-fun x () Int (- 3))" + ")" * 5000
    assert parse_model_output(nested, {x}) == {x: -3}
    assert parse_model_output("(" * 5000 + ")" * 5000, {x}) == {x: 0}
    negative = pcmp("<", SVal(x), SConst(0))
    answer = [sys.executable, "-c", f"print('sat'); print({nested!r})"]
    res = SmtProcessBackend(answer, timeout_ms=30_000).check(negative)
    assert isinstance(res, Sat) and eval_path(negative, res.valuation())


def test_malformed_model_bindings_are_skipped():
    """A binding whose name or value is not a name and an integer leaves
    its symbol at 0 instead of raising."""
    _, (x, y, _) = _symbols(3)
    y_is_minus_4 = "(define-fun y () Int (- 4))"
    for binding in ("(- abc)", "(- (- 3))", "(- -)", "\u00b2", "(+ 1 2)"):
        assert parse_model_output(f"((define-fun x () Int {binding}) {y_is_minus_4})", {x, y}) == {x: 0, y: -4}
    assert parse_model_output("((define-fun (x) () Int 3) (define-fun |x| () Int -2))", {x}) == {x: -2}
    assert parse_model_output("((define-fun x () Int (- -3)))", {x}) == {x: 3}


def test_model_output_that_does_not_close_is_unparseable():
    """Output cut off inside a list, or with a stray ``)`` or ``|``, gives
    no model rather than zeros for the bindings it lost."""
    _, (x, *_) = _symbols(1)
    for output in ("((define-fun x () Int 3)", "((define-fun x () Int 3)))", "((define-fun |x () Int 3))"):
        assert parse_model_output(output, {x}) is None, output


def test_unavailable_solver_is_unknown():
    backend = SmtProcessBackend(["/nonexistent/solver-binary"], timeout_ms=500)
    _, (x, *_) = _symbols(1)
    assert isinstance(backend.check(pcmp("<", SVal(x), SConst(0))), Unknown)


def _growing_paths(seed, chains=250, steps=8):
    """Paths grown one random conjunct at a time, with an equality to prove on each."""
    rng = random.Random(seed)
    out = []
    for _ in range(chains):
        factory = SymbolFactory()
        symbols = [factory.initial(v) for v in "wxyz"]
        path, chain = TRUE, []
        for _ in range(steps):
            path = pand(path, _random_path(rng, symbols, 2))
            e0 = SBinOp(rng.choice("+-"), SVal(rng.choice(symbols)), SConst(rng.randint(-2, 2)))
            chain.append((path, e0, SVal(rng.choice(symbols))))
        out.append(chain)
    return out


def _answers(chains):
    answers = []
    for chain in chains:
        solver = Solver()
        for path, e0, e1 in chain:
            answers.append((solver.may_sat(path), solver.prove_equal(e0, e1, path)))
    return answers


def test_repaired_models_change_no_answer(monkeypatch):
    """2000 paths and their prefixes: the same ``may_sat``/``prove_equal``
    booleans with the model repair switched off, and every repaired model
    satisfies the path it was repaired for."""
    chains = _growing_paths(47)
    repaired = []
    original = solver_module._repaired

    def checked(model, leaf, leaves, base, fresh):
        out = original(model, leaf, leaves, base, fresh)
        if out is not None:
            repaired.append(out)
            assert eval_path(base, out) and all(eval_path(other, out) for other in leaves), base
        return out

    monkeypatch.setattr(solver_module, "_repaired", checked)
    with_repair = _answers(chains)
    monkeypatch.setattr(solver_module, "_repaired", lambda *args: None)
    assert _answers(chains) == with_repair
    assert len(repaired) > 100


def test_fresh_symbol_repairs_decide_every_path_alike(monkeypatch):
    """A repair that moves a symbol the prefix's model does not bind checks
    only the new conjuncts.  Over 2000 growing paths, every path is decided
    in the same order to the same answer, the same models included, as when
    every candidate is also checked against the prefix's normal form; and
    every model binds exactly the symbols of its path."""
    chains = _growing_paths(48)
    original = solver_module._repaired
    moved_fresh = []

    def counted(model, leaf, leaves, base, fresh):
        out = original(model, leaf, leaves, base, fresh)
        if out is not None and any(out[s] != model[s] for s in fresh):
            moved_fresh.append(out)
        return out

    monkeypatch.setattr(solver_module, "_repaired", counted)
    with recorded_decisions() as shortcut:
        _answers(chains)
    with repairs_checking_every_row(), recorded_decisions() as every_row:
        _answers(chains)
    assert shortcut == every_row
    assert len(moved_fresh) > 100
    for path, answer in shortcut:
        if isinstance(answer, Sat):
            assert set(answer.model) == path.symbols, path


def test_each_model_check_on_a_deeper_term_costs_one_polynomial_step(monkeypatch):
    """``x := x * 2 + h - h`` in a loop: checking a model on t_1 ... t_400
    evaluates each nested side through its kept polynomial, so the work
    per check does not grow with depth: 3 polynomial steps per new level,
    and no walk of a nested term."""
    from niverify import symcore

    factory = SymbolFactory()
    x, h = SVal(factory.initial("x")), SVal(factory.initial("h"))
    prefix = Sat({x.sym: 3, h.sym: 5})
    terms = [x]
    for _ in range(400):
        terms.append(symcore.sbinop("-", symcore.sbinop("+", symcore.sbinop("*", terms[-1], SConst(2)), h), h))
    plain_node_poly = symcore._node_poly
    steps, walked = [], []

    def counted(op, lp, rp):
        steps.append(op)
        return plain_node_poly(op, lp, rp)

    def walked_term(term, valuation):
        walked.append(term)
        return symcore.eval_sym(term, valuation)

    monkeypatch.setattr(symcore, "_node_poly", counted)
    monkeypatch.setattr(solver_module, "eval_sym", walked_term)
    per_level = []
    for k, term in enumerate(terms[1:], 1):
        leaf = pcmp("==", term, SBinOp("*", SConst(2**k), x))
        before = len(steps)
        assert solver_module._extended(prefix, [leaf], TRUE) is prefix
        assert solver_module._extended(prefix, [pnot(leaf)], TRUE) is None
        per_level.append(len(steps) - before)
    # Three for the new level, one for the failed leaf's rows, whose right
    # side is an operation over two leaves and keeps no polynomial.
    assert per_level == [4] * 400
    assert all(not isinstance(term, SBinOp) or not symcore._nested(term) for term in walked)
