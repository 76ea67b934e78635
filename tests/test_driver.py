import itertools
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from niverify import cli, driver, lang, redsoundse, relational, symcore
from niverify.driver import (
    Alarm,
    AnalysisConfig,
    ConfigError,
    Inconclusive,
    Infeasible,
    Insecure,
    MATRIX,
    Refutation,
    ReplayFailure,
    Secure,
    SecurePath,
    classify_path,
    config_for,
    initial_rel_store,
    replay,
    run_corpus,
    verdict_name,
    verdict_to_json,
    verify_ni,
)
from niverify.lang import parse_program
from niverify.relational import Pair, modif_dep
from niverify.solver import Solver
from niverify.symcore import PreciseStore, SConst, SVal, SymbolFactory, TRUE, pand, pcmp

from helpers import (
    BOUNDARY_CONSTANTS,
    VAR_POOL,
    paths_digest,
    random_program,
    recorded_decisions,
    recorded_final_paths,
    repairs_checking_every_row,
    run_capped,
    shared,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"


def corpus_program(name: str):
    return parse_program((CORPUS / f"prog_{name}.imp").read_text())


def test_initial_rel_store_shapes():
    factory = SymbolFactory()
    p = corpus_program("a")
    rho2 = initial_rel_store(p, factory)
    assert not rho2["priv"].shared
    assert rho2["priv"].left != rho2["priv"].right
    assert rho2["y"].shared

    all_low = parse_program("low a, b; a := b;")
    assert all(e.shared for e in initial_rel_store(all_low, SymbolFactory()).values())
    all_high = parse_program("high a, b; a := b;")
    assert all(not e.shared for e in initial_rel_store(all_high, SymbolFactory()).values())


def test_modif_dep():
    factory = SymbolFactory()
    p = corpus_program("b")
    rho2 = initial_rel_store(p, factory)
    havocked = modif_dep(rho2, p.body, {"i", "z"}, factory)
    assert havocked["z"] == rho2["z"]  # not written
    assert havocked["i"].shared and havocked["i"] != rho2["i"]
    assert not havocked["priv"].shared and havocked["priv"] != rho2["priv"]

    # Without dependence information this is the plain havoc: every written
    # variable becomes an unrelated pair.
    degenerate = modif_dep(rho2, p.body, frozenset(), factory)
    assert {x for x, e in degenerate.items() if not e.shared} == lang.assigned_vars(p.body)
    assert all(e.left != e.right for e in degenerate.values() if not e.shared)

    assert modif_dep(rho2, lang.SKIP, {"i"}, factory) == rho2


def test_classify_secure_path():
    solver = Solver()
    factory = SymbolFactory()
    p0, p1 = SVal(factory.fresh("priv")), SVal(factory.fresh("priv"))
    kappa2 = PreciseStore.of(
        {"y": shared(SConst(5)), "priv": Pair(p0, p1)},
        pand(pcmp(">", p0, SConst(0)), pcmp("<=", p1, SConst(0))),
    )
    assert isinstance(classify_path(kappa2, True, frozenset({"y"}), solver), SecurePath)


def test_classify_infeasible_path():
    solver = Solver()
    factory = SymbolFactory()
    x = SVal(factory.initial("x"))
    kappa2 = PreciseStore.of(
        {"x": shared(x)}, pand(pcmp("<", x, SConst(0)), pcmp(">", x, SConst(0)))
    )
    assert isinstance(classify_path(kappa2, True, frozenset({"x"}), solver), Infeasible)


def test_classify_refutation_and_alarm():
    solver = Solver()
    factory = SymbolFactory()
    i = SVal(factory.initial("i"))
    y0, y1 = SVal(factory.fresh("y")), SVal(factory.fresh("y"))
    kappa2 = PreciseStore.of({"i": shared(i), "y": Pair(y0, y1)}, TRUE)
    verdict = classify_path(kappa2, True, frozenset({"i", "y"}), solver)
    assert isinstance(verdict, Refutation)
    assert verdict.witness_var == "y"
    # Same store on an over-approximated path only warrants an alarm.
    assert isinstance(classify_path(kappa2, False, frozenset({"i", "y"}), solver), Alarm)


def test_replay_two_store_counterexample():
    p = corpus_program("c")
    factory = SymbolFactory()
    rho2_0 = initial_rel_store(p, factory)
    nu = {
        rho2_0["i"].left.sym: 0,
        rho2_0["priv"].left.sym: 0,
        rho2_0["priv"].right.sym: -1,
    }
    ce = replay(nu, rho2_0, p, fuel=1000)
    assert ce.witness_var == "i"
    assert dict(ce.store0) == {"i": 0, "priv": 0}
    assert dict(ce.store1) == {"i": 0, "priv": -1}
    assert dict(ce.out0)["i"] == 0
    assert dict(ce.out1)["i"] == 1


def test_replay_rejects_agreeing_model():
    p = corpus_program("c")
    factory = SymbolFactory()
    rho2_0 = initial_rel_store(p, factory)
    nu = {
        rho2_0["i"].left.sym: 0,
        rho2_0["priv"].left.sym: 5,
        rho2_0["priv"].right.sym: 5,
    }
    with pytest.raises(ReplayFailure):
        replay(nu, rho2_0, p, fuel=1000)


def test_verify_secure_program_any_engine():
    p = corpus_program("a")
    for engine, single in MATRIX[1:]:
        cfg = AnalysisConfig(engine=engine, single_engine=single, domain="intervals" if single == "redsoundse" else "none")
        assert isinstance(verify_ni(p, cfg), Secure)


def test_verify_insecure_program_has_validated_counterexample():
    p = corpus_program("c")
    cfg = AnalysisConfig(engine="soundrse", single_engine="soundse", domain="none")
    verdict = verify_ni(p, cfg)
    assert isinstance(verdict, Insecure)
    ce = verdict.counterexample
    assert ce.witness_var == "i"
    assert dict(ce.out0)["i"] != dict(ce.out1)["i"]
    assert dict(ce.store0)["i"] == dict(ce.store1)["i"]


def test_verify_alarm_program_is_inconclusive():
    p = corpus_program("i")
    cfg = AnalysisConfig(engine="redsoundrse", single_engine="redsoundse", domain="intervals")
    verdict = verify_ni(p, cfg)
    assert isinstance(verdict, Inconclusive)
    assert verdict.alarms


def test_config_validation():
    with pytest.raises(ConfigError):
        verify_ni(corpus_program("a"), AnalysisConfig(engine="nope"))
    with pytest.raises(ConfigError):
        verify_ni(
            corpus_program("a"),
            AnalysisConfig(engine="soundrse", single_engine="redsoundse", domain="none"),
        )
    for changes in ({"bound": -1}, {"path_cap": 0}, {"solver_timeout_ms": 0}):
        with pytest.raises(ConfigError, match=next(iter(changes))):
            verify_ni(corpus_program("a"), AnalysisConfig(**changes))
    verify_ni(corpus_program("a"), AnalysisConfig(bound=0, path_cap=1, solver_timeout_ms=1, engine="dep"))


def test_path_cap_yields_inconclusive():
    p = corpus_program("d")
    cfg = AnalysisConfig(engine="soundrse", single_engine="soundse", domain="none", path_cap=3)
    verdict = verify_ni(p, cfg)
    assert isinstance(verdict, Inconclusive)


def test_run_corpus_grid_and_determinism(tmp_path):
    for name in ("a", "c"):
        (tmp_path / f"prog_{name}.imp").write_text((CORPUS / f"prog_{name}.imp").read_text())
    first = run_corpus(tmp_path)
    second = run_corpus(tmp_path)
    assert first["determinism_hash"] == second["determinism_hash"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    by_key = {(r["program"], r["config"]): r for r in first["results"]}
    assert by_key[("prog_a", "soundrse+soundse")]["verdict"] == "Secure"
    assert by_key[("prog_c", "dep")]["verdict"] == "Inconclusive"
    ce = by_key[("prog_c", "redsoundrse+redsoundse")]["counterexample"]
    assert ce["out0"]["i"] != ce["out1"]["i"]


def test_run_corpus_matches_golden_report():
    """Alarm text and counterexamples too, which the determinism hash leaves out."""
    report = json.dumps(run_corpus(CORPUS), indent=2, sort_keys=True) + "\n"
    assert report == (GOLDEN / "corpus_report.json").read_text()


def test_refutation_binds_symbols_the_model_leaves_out():
    """The disagreement query folds to the path, so the model lacks the initial a."""
    p = parse_program(
        "low a, b; high c; if ((-3 - c) > (4 - 0)) { b := 3; a := 4;"
        " if ((c + c) >= (a + c)) { c := -2; } else { b := 0; } } else { b := (0 + 3); }"
    )
    for engine, single in MATRIX[1:]:
        cfg = AnalysisConfig(engine=engine, single_engine=single, domain="intervals" if single == "redsoundse" else "none")
        verdict = verify_ni(p, cfg)
        assert isinstance(verdict, Insecure), cfg.label()
        ce = verdict.counterexample
        assert dict(ce.out0)[ce.witness_var] != dict(ce.out1)[ce.witness_var]


def test_run_corpus_empty_dir(tmp_path):
    report = run_corpus(tmp_path)
    assert report["results"] == []


def test_run_corpus_honors_bound_directive(tmp_path):
    (tmp_path / "prog_h.imp").write_text((CORPUS / "prog_h.imp").read_text())
    report = run_corpus(tmp_path)
    rows = {r["config"]: r for r in report["results"]}
    assert rows["soundrse+soundse"]["bound"] == 4
    assert rows["soundrse+soundse"]["verdict"] == "Insecure"


def test_secure_verdicts_survive_differential_testing():
    rng = random.Random(1234)
    for name in ("a", "b", "d", "e", "g"):
        p = corpus_program(name)
        cfg = AnalysisConfig(engine="redsoundrse", single_engine="redsoundse", domain="intervals")
        assert isinstance(verify_ni(p, cfg), Secure)
        for _ in range(25):
            mu0 = {x: rng.randint(-8, 8) for x in p.all_vars}
            mu1 = dict(mu0)
            for x in p.all_vars - p.low_vars:
                mu1[x] = rng.randint(-8, 8)
            r0 = lang.run(p, mu0, 10_000)
            r1 = lang.run(p, mu1, 10_000)
            if isinstance(r0, lang.Final) and isinstance(r1, lang.Final):
                assert lang.low_equal(r0.as_store(), r1.as_store(), p.low_vars)


# Definite verdicts outrank Inconclusive; a more precise config never ranks lower.
RANK = {"Inconclusive": 0, "Secure": 1, "Insecure": 1}
PRECISION_CHAINS = (
    ("soundrse+soundse", "redsoundrse+soundse", "redsoundrse+redsoundse"),
    ("soundrse+soundse", "soundrse+redsoundse", "redsoundrse+redsoundse"),
)


def test_boundary_constant_programs_get_consistent_sound_verdicts():
    """Seeded programs with constants near 2^53 and 2^63, under every ``MATRIX`` config.

    No two configs give opposite definite verdicts, the verdicts keep the
    precision chains, and a program some config calls Secure keeps its low
    outputs equal on 20 concrete low-equal store pairs.  Runs whose values
    pass 2^512 are skipped like diverging ones.
    """
    values = BOUNDARY_CONSTANTS + tuple(range(-4, 5))
    secure = pairs = 0
    for i in range(100):
        rng = random.Random(f"boundary:{i}")
        program = random_program(rng, 3, 3, constants=BOUNDARY_CONSTANTS)
        by_config = {}
        for e, s in MATRIX:
            config = config_for(e, s, AnalysisConfig())
            by_config[config.label()] = verdict_name(verify_ni(program, config))
        verdicts = set(by_config.values())
        assert not {"Secure", "Insecure"} <= verdicts, program.body
        for chain in PRECISION_CHAINS:
            scores = [RANK[by_config[label]] for label in chain]
            assert scores == sorted(scores), (i, chain, by_config)
        if "Secure" not in verdicts:
            continue
        secure += 1
        variables = sorted(program.all_vars)
        for _ in range(20):
            mu0 = {x: rng.choice(values) for x in variables}
            mu1 = {x: mu0[x] if x in program.low_vars else rng.choice(values) for x in variables}
            r0, r1 = (run_capped(program.body, mu, 300, cap=2**512) for mu in (mu0, mu1))
            if r0 is not None and r1 is not None:
                assert lang.low_equal(r0.as_store(), r1.as_store(), program.low_vars), (program.body, mu0, mu1)
                pairs += 1
    assert secure >= 70 and pairs >= 1200, (secure, pairs)


def test_engine_monotonicity_on_corpus():
    chain = (
        ("soundrse", "soundse"),
        ("redsoundrse", "soundse"),
        ("redsoundrse", "redsoundse"),
    )
    for name in ("a", "b", "c", "d", "e", "g", "h", "i"):
        p = corpus_program(name)
        bound = 4 if name == "h" else 3
        verdicts = []
        for engine, single in chain:
            cfg = AnalysisConfig(
                engine=engine,
                single_engine=single,
                domain="intervals" if single == "redsoundse" else "none",
                bound=bound,
            )
            verdicts.append(verdict_name(verify_ni(p, cfg)))
        scores = [RANK[v] for v in verdicts]
        assert scores == sorted(scores), (name, verdicts)


def test_large_constant_guard_keeps_the_leaking_input():
    """The interval refinement of ``2 * h`` must not round past 2**53."""
    p = parse_program(
        "low l; high h; if (h >= 50000000000000001) { if (2 * h <= 100000000000000003) { l := 1; } }"
    )
    for engine, single in MATRIX:
        if engine == "dep":
            continue
        verdict = verify_ni(p, config_for(engine, single, AnalysisConfig()))
        assert isinstance(verdict, Insecure), (engine, single)
        assert dict(verdict.counterexample.store0)["h"] == 5 * 10**16 + 1


def test_constants_past_the_float_range_keep_the_leak():
    """Interval bounds of 10**400 meet infinite ones; they once raised OverflowError."""
    big = 10**400
    for source in (
        f"low l; high h; l := {big}; if (h > 0) {{ l := l + h; }}",
        f"low l; high h; l := h * {big};",
    ):
        p = parse_program(source)
        for engine, single in MATRIX:
            if engine == "dep":
                continue
            verdict = verify_ni(p, config_for(engine, single, AnalysisConfig()))
            assert isinstance(verdict, Insecure), (source, engine, single)


def test_config_for_keeps_every_other_field():
    base = AnalysisConfig(bound=7, path_cap=99, solver_command=["z3", "-in"], solver_timeout_ms=10)
    config = config_for("soundrse", "redsoundse", base)
    assert (config.engine, config.single_engine, config.domain) == ("soundrse", "redsoundse", "intervals")
    assert (config.bound, config.path_cap, config.solver_command, config.solver_timeout_ms) == (7, 99, ["z3", "-in"], 10)
    dep = config_for("dep", None, base, bound=2)
    assert (dep.single_engine, dep.domain, dep.bound, dep.label()) == ("soundse", "none", 2, "dep")


# --- CLI ------------------------------------------------------------------


def test_cli_check_exit_codes(capsys):
    assert cli.main(["check", str(CORPUS / "prog_a.imp")]) == 0
    assert "Secure" in capsys.readouterr().out
    assert cli.main(["check", str(CORPUS / "prog_c.imp")]) == 1
    out = capsys.readouterr().out
    assert "Insecure" in out and "differs" in out
    assert cli.main(["check", str(CORPUS / "prog_i.imp")]) == 2
    assert "Inconclusive" in capsys.readouterr().out
    assert cli.main(["check", "/no/such/file.imp"]) == 3


def test_cli_check_json(capsys):
    code = cli.main(["check", str(CORPUS / "prog_c.imp"), "--format", "json", "--bound", "2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Insecure"
    assert payload["counterexample"]["witness"] == "i"
    assert payload["config"] == "redsoundrse+redsoundse"

    argv = ["check", str(CORPUS / "prog_c.imp"), "--format", "json", "--single-engine", "soundse"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["config"] == "redsoundrse+soundse"


def test_verify_through_an_external_solver_process():
    """Each query starts ``python -m niverify.smtshell``, so the programs stay tiny."""
    cfg = AnalysisConfig(solver_command=[sys.executable, "-m", "niverify.smtshell"])
    leak = verify_ni(parse_program("low l; high h; if (h > 0) { l := 1; }"), cfg)
    assert isinstance(leak, Insecure)
    ce = leak.counterexample
    assert ce.witness_var == "l" and dict(ce.out0)["l"] != dict(ce.out1)["l"]
    secure = verify_ni(parse_program("low l; high h; if (h > 0) { h := 1; }"), cfg)
    assert isinstance(secure, Secure)


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


def test_cli_closed_stdout_keeps_the_verdict_exit_code(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(out.fileno()))
        assert cli.main(["check", str(CORPUS / "prog_c.imp")]) == 1
        assert cli.main(["corpus", str(CORPUS)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_engine_flags(capsys):
    code = cli.main(
        [
            "check",
            str(CORPUS / "prog_b.imp"),
            "--engine",
            "soundrse",
            "--single-engine",
            "soundse",
        ]
    )
    assert code == 2


def test_cli_defaults_are_the_config_defaults(monkeypatch, capsys):
    seen = []

    def record(program, config):
        seen.append(config)
        return Secure()

    monkeypatch.setattr(cli.driver, "verify_ni", record)
    assert cli.main(["check", str(CORPUS / "prog_a.imp")]) == 0
    assert seen == [config_for("redsoundrse", "redsoundse", AnalysisConfig())]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    assert f"(default {AnalysisConfig().bound})" in capsys.readouterr().out


def test_cli_usage_errors_exit_3(capsys):
    # Exit 2 means Inconclusive, so a usage error may not use argparse's 2.
    for argv in (
        [],
        ["check"],
        ["check", str(CORPUS / "prog_a.imp"), "--engine", "nope"],
        ["check", str(CORPUS / "prog_a.imp"), "--bound", "many"],
        ["corpus", str(CORPUS), "--engine", "dep"],
        ["corpus", str(CORPUS), "--single-engine", "soundse"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3, argv
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--help"])
    assert exc.value.code == 0


def test_cli_rejects_nonsense_limits(tmp_path, capsys):
    leak = tmp_path / "leak.imp"
    leak.write_text("low l; high h; if (h > 0) { l := 1; }")
    for command in (["check", str(leak)], ["corpus", str(tmp_path)]):
        for flag, value in (("--bound", "-1"), ("--path-cap", "-5"), ("--path-cap", "0"), ("--solver-timeout-ms", "0")):
            with pytest.raises(SystemExit) as exc:
                cli.main(command + [flag, value])
            assert exc.value.code == 3, (command, flag)
            assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert cli.main(["check", str(leak), "--bound", "0", "--path-cap", "1"]) == 2
    assert "more than 1 states expanded" in capsys.readouterr().out


def test_cli_corpus(tmp_path, capsys):
    (tmp_path / "prog_a.imp").write_text((CORPUS / "prog_a.imp").read_text())
    code = cli.main(["corpus", str(tmp_path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["config"] for r in payload["results"]} == {c if s is None else f"{c}+{s}" for c, s in MATRIX}

    code = cli.main(["corpus", str(tmp_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "prog_a" in text and "determinism hash" in text


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    def broken(program, config):
        raise ReplayFailure("replayed runs ended low-equal; model was spurious")

    monkeypatch.setattr(cli.driver, "verify_ni", broken)
    assert cli.main(["check", str(CORPUS / "prog_a.imp")]) == 3
    assert capsys.readouterr().err == "error: ReplayFailure: replayed runs ended low-equal; model was spurious\n"


def test_cli_long_loop_ends_secure(capsys):
    """prog_b's loop unrolled 1000 times; paths past 500 conjuncts used to raise RecursionError.

    About five states per iteration, so the default path cap of 4096 would
    stop it first.
    """
    argv = ["check", str(CORPUS / "prog_b.imp"), "--bound", "1000", "--path-cap", "8192"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == "Secure"


def _wide_branches(n: int) -> str:
    """N low-guarded ifs in sequence: 2^N relational paths."""
    lows = [f"l{k}" for k in range(1, n + 1)]
    lines = [f"low {', '.join(lows)}, y;", "high h;"]
    for k, low in enumerate(lows, 1):
        lines.append(f"if ({low} > 0) {{ y := y + {k}; }} else {{ h := h + 1; }}")
    return "\n".join(lines) + "\n"


_PROG_B_LOOP = "low i, z; high priv; while (i < z) { i := i + 1; priv := priv + 1; }"


def _exploration_counts(monkeypatch, run) -> tuple[int, int, int, int]:
    """Calls of ``srse_step``, ``may_sat``, ``prove_equal`` and ``classify_path`` while ``run()`` runs.

    Each is counted through the attribute its callers look up, as a tracer
    that wraps functions by name would see it.
    """
    counts = dict.fromkeys(("step", "may_sat", "prove_equal", "classify"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(relational, "srse_step", counted("step", relational.srse_step))
    monkeypatch.setattr(Solver, "may_sat", counted("may_sat", Solver.may_sat))
    monkeypatch.setattr(Solver, "prove_equal", counted("prove_equal", Solver.prove_equal))
    monkeypatch.setattr(driver, "classify_path", counted("classify", driver.classify_path))
    run()
    return counts["step"], counts["may_sat"], counts["prove_equal"], counts["classify"]


@pytest.mark.parametrize(
    "name, run, expected",
    [
        ("wide-9", lambda: verify_ni(parse_program(_wide_branches(9)), AnalysisConfig()), (2043, 1022, 0, 512)),
        (
            "prog_b loop, bound 150",
            lambda: verify_ni(parse_program(_PROG_B_LOOP), AnalysisConfig(bound=150)),
            (751, 303, 1, 152),
        ),
        ("corpus", lambda: run_corpus(CORPUS), (1542, 686, 801, 182)),
    ],
)
def test_stress_programs_explore_the_same_states_and_queries(monkeypatch, name, run, expected):
    """The exploration of the stress programs is pinned: a speed change must
    not add or drop a state, a solver question or a classified path."""
    assert _exploration_counts(monkeypatch, run) == expected


@pytest.mark.parametrize(
    "name, digest",
    [
        ("wide-9", "d33c05fb6bf54cc2b1a177a0aad0729d754850211904906c610ce3457beb9a9d"),
        ("prog_b loop, bound 150", "73c72a7108d9a849c7a989262e1631d3e3d7bbbe5602ae03b4a800ea7d852fe5"),
        ("corpus", "a16f36b4d338522d748c4a3b1da7c812782df2370ab8ea5ac9ef4438001a05bf"),
    ],
)
def test_stress_programs_end_on_the_same_final_paths(name, digest):
    """The final relational paths of the stress programs are pinned by the
    sha256 of their text: a speed change must not add, drop or reorder a
    conjunct of any of them."""
    with recorded_final_paths() as lines:
        _STRESS_RUNS[name]()
    assert paths_digest(lines) == digest


_STRESS_RUNS = {
    "wide-9": lambda: verify_ni(parse_program(_wide_branches(9)), AnalysisConfig()),
    "prog_b loop, bound 150": lambda: verify_ni(parse_program(_PROG_B_LOOP), AnalysisConfig(bound=150)),
    "corpus": lambda: run_corpus(CORPUS),
}


@pytest.mark.parametrize("name", list(_STRESS_RUNS))
def test_stress_programs_get_the_same_models_from_fresh_symbol_repairs(name):
    """A repair that moves a symbol the prefix's model does not bind checks
    only the new conjuncts.  The stress programs' solvers decide the same
    paths in the same order to the same answers, models included, as when
    every repair candidate is also checked against the prefix's normal
    form; and every model binds exactly the symbols of its path."""
    with recorded_decisions() as shortcut:
        _STRESS_RUNS[name]()
    with repairs_checking_every_row(), recorded_decisions() as every_row:
        _STRESS_RUNS[name]()
    assert shortcut == every_row
    assert any(isinstance(answer, dict) for _, answer in shortcut)
    for path, answer in shortcut:
        if isinstance(answer, dict):
            assert set(answer) == path.symbols, path


def test_wide_branches_check_builds_no_normal_form(monkeypatch):
    """Every repair on wide-9 moves the fresh low symbol of a new guard, so
    no path's normal form is built (511 were, one per repair, when every
    repair read the prefix's rows)."""
    built = []
    plain_init = symcore.NormalForm.__init__

    def counted(self):
        built.append(self)
        plain_init(self)

    monkeypatch.setattr(symcore.NormalForm, "__init__", counted)
    assert isinstance(_STRESS_RUNS["wide-9"](), Secure)
    assert built == []


def test_wide_branches_check_reduces_once_per_fork_and_reads_each_guard_once(monkeypatch):
    """On wide-9 both traces keep one interval state and every bounded
    variable is shared, so trace 1's reduction is never called (the two
    traces made 2044 calls), and each of the nine guards gets its rows
    once per run (511 times, once per repair, when every fork built new
    guard leaves)."""
    calls = dict.fromkeys(("reduction", "rows_of_cmp"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(redsoundse, "reduction", counted("reduction", redsoundse.reduction))
    monkeypatch.setattr(symcore, "rows_of_cmp", counted("rows_of_cmp", symcore.rows_of_cmp))
    assert isinstance(_STRESS_RUNS["wide-9"](), Secure)
    assert calls == {"reduction": 1022, "rows_of_cmp": 9}


@pytest.mark.parametrize("name", list(_STRESS_RUNS))
def test_kept_comparison_values_equal_fresh_ones(monkeypatch, name):
    """The rows and negation a comparison keeps are shared by every path
    that reuses it, so nothing may change them: after each stress run,
    every kept row list equals a fresh recomputation, and a negation
    links back to its comparison."""
    built = []
    plain_init = symcore.PCmp.__post_init__

    def collected(self):
        built.append(self)
        plain_init(self)

    monkeypatch.setattr(symcore.PCmp, "__post_init__", collected)
    _STRESS_RUNS[name]()
    monkeypatch.setattr(symcore.PCmp, "__post_init__", plain_init)
    kept = dict.fromkeys(("rows", "negation"), 0)
    for leaf in built:
        if leaf._rows is not None:
            kept["rows"] += 1
            assert leaf._rows == symcore.rows_of_cmp(leaf.op, leaf.left, leaf.right), leaf
        if leaf._negation is not None:
            kept["negation"] += 1
            assert leaf._negation == symcore.PCmp(lang.NEGATED_CMP[leaf.op], leaf.left, leaf.right)
            assert symcore.pnot(symcore.pnot(leaf)) is leaf
    assert all(kept.values()), kept


def test_cli_limit_flags_say_their_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["check", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = AnalysisConfig()
    for flag, value in (
        ("--bound", defaults.bound),
        ("--path-cap", defaults.path_cap),
        ("--solver-timeout-ms", defaults.solver_timeout_ms),
    ):
        assert f"(default {value})" in text.split(flag, 2)[2].split(" --", 1)[0], flag


@pytest.mark.parametrize(
    "body, bound, code",
    [("x := x * 2;", 1000, 0), ("x := x * 2 + h - h;", 400, 2)],
)
def test_cli_loop_building_deep_terms_reaches_a_verdict(tmp_path, capsys, body, bound, code):
    """Each iteration nests x's term one level deeper; walking such a term
    used to raise RecursionError (exit 3) from a few hundred iterations."""
    program = tmp_path / "deep.imp"
    program.write_text(f"low x, y; high h; while (y < 2000) {{ {body} y := y + 1; }}\n")
    argv = ["check", str(program), "--bound", str(bound), "--path-cap", "100000"]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == ""


_CMP60 = """
import json, random
from helpers import random_program
from niverify.driver import AnalysisConfig, config_for, verdict_to_json, verify_ni
program = random_program(random.Random("cmp:60"), 3, 3)
print(json.dumps(verdict_to_json(verify_ni(program, config_for("soundrse", "soundse", AnalysisConfig())))))
"""


def test_verdict_does_not_depend_on_earlier_runs():
    """Symbol uids restart in every run, so no cache may outlive one."""
    config = config_for("soundrse", "soundse", AnalysisConfig())
    for i in range(1, 60):
        verify_ni(random_program(random.Random(f"cmp:{i}"), 3, 3), config)
    after = verdict_to_json(verify_ni(random_program(random.Random("cmp:60"), 3, 3), config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    solo = subprocess.run(
        [sys.executable, "-c", _CMP60], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert after == json.loads(solo.stdout)
    assert after["counterexample"]["valuation"] == {"a#0": -3, "a#1": 0, "b": 4}


def test_verdict_snapshot_compare_flags_one_sided_timeouts(tmp_path, capsys):
    from verdict_snapshot import compare

    def cell(i, config, verdict, **rest):
        return {"program": f"cmp:{i}", "config": config, "verdict": verdict, **rest}

    a = [cell(1, "dep", "Secure"), cell(2, "dep", "TIMEOUT"), cell(3, "dep", "Secure"), cell(4, "dep", "TIMEOUT")]
    b = [cell(1, "dep", "Secure"), cell(2, "dep", "Insecure"), cell(3, "dep", "Secure"), cell(4, "dep", "TIMEOUT")]
    for name, cells in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(cells))
    assert compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    out = capsys.readouterr().out
    assert "cmp:2 dep: TIMEOUT | Insecure (timeout on one side only)" in out
    assert "--only 2 --cpu-limit 0" in out and "cmp:1" not in out and "cmp:4" not in out

    b[2] = cell(3, "dep", "Inconclusive", alarms=[])
    (tmp_path / "b.json").write_text(json.dumps(b[:3]))
    assert compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    out = capsys.readouterr().out
    assert "cmp:3 dep: Secure | Inconclusive (differs)" in out
    assert "cmp:4 dep: TIMEOUT | MISSING (differs)" in out


def test_verdict_snapshot_compare_flags_cells_whose_models_differ(tmp_path, capsys):
    from verdict_snapshot import check_cell, compare

    program = random_program(random.Random("cmp:11"), 3, 3)  # 40 solver decisions
    config = config_for("redsoundrse", "redsoundse", AnalysisConfig())
    first = check_cell(program, config, 0, paths=True, models=True)
    assert first == check_cell(program, config, 0, paths=True, models=True)
    assert first["models"] != paths_digest([])

    def cell(i, verdict, **rest):
        return {"program": f"cmp:{i}", "config": "dep", "verdict": verdict, **rest}

    a = [cell(1, "Secure", paths="p", models="m"), cell(2, "Secure", paths="p", models="m"), cell(3, "Secure", paths="p")]
    b = [cell(1, "Secure", paths="p", models="m"), cell(2, "Secure", paths="p", models="n"), cell(3, "Secure", paths="p", models="n")]
    for name, cells in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(cells))
    assert compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    out = capsys.readouterr().out
    assert "cmp:2 dep: Secure | Secure (same verdict JSON and paths, models differ)" in out
    assert "cmp:1" not in out and "cmp:3" not in out  # a cell without a digest is not compared
    assert "0 differ only in paths, 1 differ only in models" in out

    b[1] = cell(2, "Secure", paths="q", models="n")
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    out = capsys.readouterr().out
    assert "cmp:2 dep: Secure | Secure (same verdict JSON, paths differ)" in out
    assert "1 differ only in paths, 0 differ only in models" in out


def test_verdict_snapshot_exits_1_on_a_crashed_cell(tmp_path, monkeypatch, capsys):
    import verdict_snapshot

    def broken(program, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(verdict_snapshot, "verify_ni", broken)
    out = tmp_path / "snap.json"
    argv = ["verdict_snapshot.py", "--programs", "1", "--cpu-limit", "0", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    handler = signal.getsignal(signal.SIGPROF)
    try:
        assert verdict_snapshot.main() == 1
    finally:
        signal.signal(signal.SIGPROF, handler)
    cells = json.loads(out.read_text())
    assert {cell["verdict"] for cell in cells} == {"ERROR"}
    assert cells[0]["error"] == "RuntimeError: boom"
    assert "cmp:0 dep: ERROR RuntimeError: boom" in capsys.readouterr().err

    # Both sides crashed alike: no cell differs, and the comparison still fails.
    assert verdict_snapshot.compare(str(out), str(out)) == 1
    assert f"{len(cells)} | {len(cells)} cells, 0 differ, 0 time out on one side only, {2 * len(cells)} ERROR" in capsys.readouterr().out


# --- programs that write no low variable ---------------------------------------
#
# Noninterference compares final low values only, so such a program is Secure
# before any engine runs.


class EngineRan(Exception):
    pass


def _no_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise EngineRan

    monkeypatch.setattr(driver, "srse_explore", refuse)
    monkeypatch.setattr(driver, "dep_analyze", refuse)


@pytest.mark.parametrize(
    "source",
    ["high h, k; h := h * k; while (h > 0) { h := h - 1; }", "low y; high h; if (y > h) { h := y * y; } else { h := 0; }"],
)
def test_program_writing_no_low_variable_is_secure_without_exploring(monkeypatch, source):
    _no_engine(monkeypatch)
    program = parse_program(source)
    for e, s in MATRIX:
        assert verify_ni(program, config_for(e, s, AnalysisConfig())) == Secure()


@pytest.mark.parametrize("index", [64, 280])
def test_random_programs_past_the_path_cap_that_write_no_low_are_secure(monkeypatch, index):
    """Both explored past 4096 states under the ``soundse`` configs and ended Inconclusive."""
    _no_engine(monkeypatch)
    program = random_program(random.Random(f"cmp:{index}"), 3, 3)
    for e, s in (("soundrse", "soundse"), ("redsoundrse", "soundse")):
        assert verify_ni(program, config_for(e, s, AnalysisConfig())) == Secure()


def test_low_write_in_dead_code_is_still_explored(monkeypatch):
    """The rule reads the program text, not which statements can run."""
    program = parse_program("low y; high h; if (0 > 1) { y := h; }")
    verdicts = []

    def run():
        verdicts.extend(verdict_name(verify_ni(program, config_for(e, s, AnalysisConfig()))) for e, s in MATRIX)

    steps, _, _, classified = _exploration_counts(monkeypatch, run)
    assert verdicts == ["Inconclusive"] + ["Secure"] * 4  # dep does not see that the branch is dead
    assert steps > 0 and classified >= 4


def _reads_its_lows_only(program) -> bool:
    return bool(program.low_vars) and not program.low_vars & lang.assigned_vars(program.body)


def test_forced_exploration_of_programs_writing_no_low_never_finds_a_leak(monkeypatch):
    """The rule is exact: explored anyway, such a program ends Secure or at the path cap.

    Exploration is forced by making the rule see every variable written,
    so only programs with a low variable take part: with none, it fires
    whatever the write set.  Half the programs draw boundary constants.
    """
    programs = []
    for i in itertools.count():
        constants = BOUNDARY_CONSTANTS if i % 2 else None
        program = random_program(random.Random(f"nolow:{i}"), 3, 3, constants=constants)
        if _reads_its_lows_only(program):
            programs.append(program)
        if len(programs) == 150:
            break
    monkeypatch.setattr(driver.lang, "assigned_vars", lambda cmd: set(VAR_POOL))
    cap_alarm = Inconclusive((Alarm(store="", path="more than 256 states expanded", precise=False),))
    for program in programs:
        for e, s in MATRIX:
            verdict = verify_ni(program, config_for(e, s, AnalysisConfig(), path_cap=256))
            assert verdict in (Secure(), cap_alarm), (program.body, e, s, verdict)


def test_the_rule_settles_185_of_the_first_400_random_nonlinear_programs(monkeypatch):
    """Seed 1 of the benchmark's random programs: 144 have no low variable,
    41 more never write theirs."""
    _no_engine(monkeypatch)
    settled = 0
    for i in range(400):
        program = random_program(random.Random(f"1:{i}"), 3, 3)
        try:
            assert verify_ni(program, AnalysisConfig()) == Secure()
            settled += 1
        except EngineRan:
            pass
    assert settled == 185


def _straight_line(n: int, low_write: bool = False) -> str:
    return "low y; high h;\n" + "h := h + 1;\n" * n + ("y := y + 1;\n" if low_write else "")


def test_long_straight_line_programs_reach_a_verdict(monkeypatch):
    """Walks over a command loop down a sequence; 3000 statements used to raise RecursionError."""
    program = parse_program(_straight_line(20_000))
    with monkeypatch.context() as patched:
        _no_engine(patched)
        for e, s in MATRIX:
            assert verify_ni(program, config_for(e, s, AnalysisConfig())) == Secure()
    assert verify_ni(parse_program(_straight_line(20_000, True)), AnalysisConfig(engine="dep")) == Secure()
    assert verify_ni(parse_program(_straight_line(3000, True)), AnalysisConfig(path_cap=8192)) == Secure()


def test_bench_pairs_summary_applies_the_gain_rule():
    from bench_pairs import render, summarize

    def record(pair, side, p50, rate):
        metrics = {"verdict_ms_p50": {"value": p50, "unit": "ms"}, "verdicts_per_s": {"value": rate, "unit": "1/s"}}
        return {"workload": "w", "pair": pair, "seed": 100 + pair, "side": side, "result": {"metrics": metrics}}

    # The change is faster in nine of ten pairs (tied in pair 9), and its
    # rate is higher in only five.
    parent = [100, 101, 99, 102, 98, 100, 103, 97, 100, 90]
    change = [90, 91, 89, 92, 88, 90, 93, 87, 90, 90]
    records = [record(i, "parent", p, 10.0) for i, p in enumerate(parent)]
    records += [record(i, "change", c, 10.0 + (1 if i % 2 else -1)) for i, c in enumerate(change)]
    records.append(record(10, "parent", 50, 20.0))  # a pair whose change run is missing
    metrics = [{"name": "verdict_ms_p50", "better": "lower"}, {"name": "verdicts_per_s", "better": "higher"}]
    p50, rate = summarize(records, metrics)
    assert p50["pairs"] == 10 and p50["won"] == 9 and p50["gain"]
    assert p50["parent"][1] == 100 and p50["change"][1] == 90
    assert p50["parent"][0] < 100 < p50["parent"][2]
    assert rate["won"] == 5 and not rate["gain"]
    # Medians 10 apart against a parent spread wider than that: no gain.
    spread = [record(i, "parent", 100 + (30 if i % 2 else -30), 1.0) for i in range(10)]
    spread += [record(i, "change", 90 + (30 if i % 2 else -30), 1.0) for i in range(10)]
    (wide,) = summarize(spread, metrics[:1])
    assert wide["won"] == 10 and not wide["gain"]
    text = render([p50, wide])
    assert "won 9/10, gain holds" in text and "won 10/10, gain does not hold" in text
    assert "(-10.0%)" in text
