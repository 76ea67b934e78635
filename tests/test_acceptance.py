"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is designed to stay within a desk-scale time budget.
"""

import itertools
import random
import time
from pathlib import Path

from niverify import lang
from niverify.absint import AbstractState, Interval, analyze, state_holds
from niverify.dependence import DepState, PcLevel, dep_analyze
from niverify.driver import (
    AnalysisConfig,
    Insecure,
    MATRIX,
    ReplayFailure,
    initial_rel_store,
    make_rel_engine,
    run_corpus,
    verdict_name,
    verify_ni,
)
from niverify.lang import Final, parse_program
from niverify.redsoundse import product_explore, reduction
from niverify.solver import Sat, Solver, Unsat
from niverify.soundse import initial_precise_store
from niverify.symcore import (
    PreciseStore,
    SConst,
    SVal,
    SymbolFactory,
    eval_sym,
    in_gamma_k,
    pand,
    pcmp,
    pnot,
)

from helpers import (
    check_relational_coverage,
    check_single_coverage,
    random_command,
    random_expr,
    random_program,
    random_store,
    run_capped,
    se_explore,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def corpus_program(name: str):
    return parse_program((CORPUS / f"prog_{name}.imp").read_text())


# Expected verdict grid, interval domain only.  Cells are tool verdicts:
# a false alarm on a secure program and a plain alarm on an insecure one
# both surface as Inconclusive; a replayed refutation is Insecure.
EXPECTED_GRID = {
    "prog_a": ["Inconclusive", "Secure", "Secure", "Secure", "Secure"],
    "prog_b": ["Secure", "Inconclusive", "Inconclusive", "Secure", "Secure"],
    "prog_c": ["Inconclusive", "Insecure", "Insecure", "Insecure", "Insecure"],
    "prog_d": ["Inconclusive", "Inconclusive", "Secure", "Inconclusive", "Secure"],
    "prog_e": ["Inconclusive", "Inconclusive", "Inconclusive", "Secure", "Secure"],
    "prog_g": ["Inconclusive", "Inconclusive", "Inconclusive", "Inconclusive", "Secure"],
    "prog_h": ["Inconclusive", "Insecure", "Insecure", "Insecure", "Insecure"],
    "prog_i": ["Inconclusive", "Inconclusive", "Inconclusive", "Inconclusive", "Inconclusive"],
}

CONFIG_ORDER = [engine if single is None else f"{engine}+{single}" for engine, single in MATRIX]


def test_criterion_1_verdict_grid():
    """Full engine matrix over the eight-program corpus, exact cell match."""
    start = time.monotonic()
    report = run_corpus(CORPUS)
    elapsed = time.monotonic() - start
    by_key = {(r["program"], r["config"]): r["verdict"] for r in report["results"]}
    mismatches = []
    for program, expected in EXPECTED_GRID.items():
        got = [by_key[(program, config)] for config in CONFIG_ORDER]
        if got != expected:
            mismatches.append((program, expected, got))
    assert not mismatches, mismatches
    bounds = {r["program"]: r["bound"] for r in report["results"]}
    assert bounds["prog_h"] == 4 and bounds["prog_i"] == 3
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    _report(1, f"verdict grid matches on all {len(EXPECTED_GRID) * len(CONFIG_ORDER)} cells ({elapsed:.1f}s)")


def test_criterion_2_loop_summary_regression():
    """Summarizing the loop of prog_d with budget 1 pins priv >= 2 and i = 10."""
    program = corpus_program("d")
    factory = SymbolFactory()
    solver = Solver()
    kappa0 = initial_precise_store(program, factory)
    finals = product_explore(
        program, kappa0, AbstractState.top(program.all_vars), 1, 2048, solver, factory
    )
    priv0 = SVal(factory.initial("priv"))
    summarized = [
        (kappa, astate)
        for kappa, astate, precise in finals
        if not precise
        and isinstance(solver.check_sat(pand(kappa.path, pcmp("<", priv0, SConst(0)))), Unsat)
    ]
    assert len(summarized) == 1
    kappa, astate = summarized[0]
    rho = kappa.store()
    claim = pand(
        pcmp(">=", rho["priv"], SConst(2)), pcmp("==", rho["i"], SConst(10))
    )
    assert isinstance(solver.check_sat(pand(kappa.path, pnot(claim))), Unsat)
    assert astate.get("priv") == Interval(2, None)
    assert astate.get("i") == Interval(10, 10)
    _report(2, "summarized path entails priv' >= 2 and i' = 10; intervals agree")


def test_criterion_3_coverage_suite():
    """>= 500 random programs; every terminating run (pair) is covered."""
    rng = random.Random(3_141_592)
    single_total = product_total = rel_total = 0
    single_cov = product_cov = rel_cov = 0

    solver = Solver()
    for _ in range(260):
        p = random_program(rng, max_depth=4, max_vars=4)
        mu = random_store(rng, p)
        single_total += 1
        single_cov += check_single_coverage(p, mu, k=2, solver=solver, fuel=400)

    for _ in range(120):
        p = random_program(rng, max_depth=4, max_vars=4)
        mu = random_store(rng, p)
        product_total += 1
        product_cov += check_single_coverage(
            p, mu, k=2, solver=Solver(), fuel=400, with_intervals=True
        )

    for idx in range(120):
        p = random_program(rng, max_depth=4, max_vars=4)
        mu0 = random_store(rng, p)
        mu1 = dict(mu0)
        for x in p.all_vars - p.low_vars:
            mu1[x] = rng.randint(-8, 8)
        use_dep = idx % 2 == 0
        cfg = AnalysisConfig(
            engine="redsoundrse" if use_dep else "soundrse",
            single_engine="redsoundse" if idx % 4 < 2 else "soundse",
            domain="intervals" if idx % 4 < 2 else "none",
            bound=2,
        )
        engine = make_rel_engine(p, cfg, Solver())
        rho2_0 = initial_rel_store(p, engine.factory)
        rel_total += 1
        rel_cov += check_relational_coverage(p, mu0, mu1, engine, rho2_0, fuel=400)

    total = single_total + product_total + rel_total
    covered = single_cov + product_cov + rel_cov
    assert total >= 500
    # Diverging samples are skipped, not failures; demand a healthy majority.
    assert covered >= total * 0.6
    _report(3, f"{covered}/{total} terminating samples covered, zero violations")


def test_criterion_4_refutation_suite():
    """Every Insecure verdict replays; flag-true satisfiable finals replay."""
    validated = 0
    for name in ("c", "h"):
        program = corpus_program(name)
        bound = 4 if name == "h" else 3
        for engine, single in MATRIX[1:]:
            cfg = AnalysisConfig(
                engine=engine,
                single_engine=single,
                domain="intervals" if single == "redsoundse" else "none",
                bound=bound,
            )
            verdict = verify_ni(program, cfg)  # raises ReplayFailure on a bug
            assert isinstance(verdict, Insecure)
            ce = verdict.counterexample
            assert dict(ce.out0)[ce.witness_var] != dict(ce.out1)[ce.witness_var]
            validated += 1

    rng = random.Random(424_242)
    random_insecure = 0
    for _ in range(80):
        p = random_program(rng, max_depth=3, max_vars=3)
        cfg = AnalysisConfig(engine="soundrse", single_engine="soundse", domain="none", bound=2)
        try:
            verdict = verify_ni(p, cfg)
        except ReplayFailure:
            raise AssertionError(f"replay failure on {p.body}")
        random_insecure += isinstance(verdict, Insecure)

    replayed = 0
    solver = Solver()
    for _ in range(60):
        p = random_program(rng, max_depth=3, max_vars=3)
        factory = SymbolFactory()
        kappa0 = initial_precise_store(p, factory)
        try:
            finals = se_explore(p, kappa0, 2, 2048, solver, factory)
        except Exception:
            continue
        if any(not precise for _, precise in finals):
            continue  # flag-true-only explorations only
        for kappa, _ in finals:
            res = solver.check_sat(kappa.path)
            if not isinstance(res, Sat):
                continue
            nu = res.valuation()
            for x in p.all_vars:
                nu.setdefault(factory.initial(x), 0)
            mu0 = {x: nu[factory.initial(x)] for x in p.all_vars}
            out = run_capped(p.body, mu0, 3000)
            if out is None:
                continue
            assert isinstance(out, Final)
            assert in_gamma_k(kappa, out.as_store(), nu)
            replayed += 1
    assert validated == 8 and random_insecure >= 5 and replayed >= 40
    _report(
        4,
        f"{validated} corpus refutations, {random_insecure} random refutations, "
        f"{replayed} precise finals replayed; zero failures",
    )


def test_criterion_5_reduction_equivalence():
    """>= 200 random product states: reduction never changes membership."""
    rng = random.Random(5150)
    from niverify.symcore import sym_eval_expr

    pairs = 0
    samples = 0
    while pairs < 220:
        pairs += 1
        factory = SymbolFactory()
        base = {v: SVal(factory.initial(v)) for v in ("x", "y", "z")}
        rho = {v: sym_eval_expr(random_expr(rng, ("x", "y", "z"), 2), base) for v in ("x", "y", "z")}
        path = pcmp(
            rng.choice(["<", "<=", "==", "!=", ">", ">="]),
            rho[rng.choice(("x", "y", "z"))],
            SConst(rng.randint(-4, 4)),
        )
        bounds = {}
        for v in ("x", "y", "z"):
            lo = rng.choice([None, rng.randint(-6, 0)])
            hi = rng.choice([None, rng.randint(0, 6)])
            bounds[v] = Interval(lo, hi)
        astate = AbstractState.of(bounds)
        kappa = PreciseStore.of(rho, path)
        kappa2, astate2 = reduction(kappa, astate), astate
        assert astate2 == astate
        for _ in range(8):
            samples += 1
            nu = {s.sym: rng.randint(-8, 8) for s in base.values()}
            mu = {v: eval_sym(e, nu) for v, e in rho.items()}
            if rng.random() < 0.35:
                mu[rng.choice(("x", "y", "z"))] += rng.randint(1, 4)
            before = in_gamma_k(kappa, mu, nu) and state_holds(astate, mu)
            after = in_gamma_k(kappa2, mu, nu) and state_holds(astate2, mu)
            assert before == after
    _report(5, f"{pairs} reduction pairs x {samples} samples, memberships identical")


def test_criterion_6_abstract_domain_soundness():
    """>= 300 random commands against brute-force enumeration over [-4, 4]."""
    rng = random.Random(616)
    checked = 0
    for _ in range(320):
        cmd = random_command(rng, ("a", "b"), 3)
        box = AbstractState.of(
            {
                "a": Interval(rng.randint(-4, 0), rng.randint(0, 4)),
                "b": Interval(rng.randint(-4, 0), rng.randint(0, 4)),
            }
        )
        out = analyze(cmd, box)
        names = [x for x, _ in box.env]
        ranges = [range(iv.lo, iv.hi + 1) for _, iv in box.env]
        for values in itertools.product(*ranges):
            mu = dict(zip(names, values))
            res = run_capped(cmd, mu, 250)
            if res is None:
                continue
            assert state_holds(out, res.as_store()), (cmd, mu)
        checked += 1
    assert checked >= 300

    nested = parse_program(
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
    analyze(nested.body, AbstractState.top(nested.all_vars))
    nested_time = time.monotonic() - start
    assert nested_time < 1.0
    _report(6, f"{checked} commands brute-checked; triple nest analyzed in {nested_time * 1000:.0f}ms")


def test_criterion_7_dependence_soundness():
    """>= 300 random programs x 20 low-equal pairs agree on the reported set."""
    rng = random.Random(7_777)
    programs = 0
    pairs_checked = 0
    while programs < 300:
        p = random_program(rng, max_depth=3, max_vars=4)
        programs += 1
        claimed = dep_analyze(p.body, PcLevel.LOW, DepState(p.low_vars)).low_agree
        for _ in range(20):
            mu0 = random_store(rng, p)
            mu1 = dict(mu0)
            for x in p.all_vars - p.low_vars:
                mu1[x] = rng.randint(-8, 8)
            r0 = run_capped(p.body, mu0, 250)
            r1 = run_capped(p.body, mu1, 250)
            if r0 is None or r1 is None:
                continue
            pairs_checked += 1
            assert lang.low_equal(r0.as_store(), r1.as_store(), claimed), (p.body, mu0, mu1)
    assert pairs_checked >= 2000
    _report(7, f"{programs} programs, {pairs_checked} terminating pairs, zero disagreements")


def test_criterion_8_pruning_demonstration():
    """prog_g is Secure exactly when the interval product backs the engine."""
    program = corpus_program("g")
    outcomes = {}
    for engine, single in MATRIX[1:]:
        cfg = AnalysisConfig(
            engine=engine,
            single_engine=single,
            domain="intervals" if single == "redsoundse" else "none",
        )
        outcomes[f"{engine}+{single}"] = verdict_name(verify_ni(program, cfg))
    assert outcomes == {
        "soundrse+soundse": "Inconclusive",
        "soundrse+redsoundse": "Inconclusive",
        "redsoundrse+soundse": "Inconclusive",
        "redsoundrse+redsoundse": "Secure",
    }
    _report(8, "prog_g secure only under the interval-backed dependence product")
