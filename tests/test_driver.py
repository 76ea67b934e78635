import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from niverify import cli, lang
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

from helpers import BOUNDARY_CONSTANTS, random_program, run_capped, shared

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


def test_boundary_constant_programs_get_consistent_sound_verdicts():
    """Seeded programs with constants near 2^53 and 2^63, under every ``MATRIX`` config.

    No two configs give opposite definite verdicts, and a program some
    config calls Secure keeps its low outputs equal on 20 concrete
    low-equal store pairs.  Runs whose values pass 2^512 are skipped like
    diverging ones.
    """
    values = BOUNDARY_CONSTANTS + tuple(range(-4, 5))
    secure = pairs = 0
    for i in range(100):
        rng = random.Random(f"boundary:{i}")
        program = random_program(rng, 3, 3, constants=BOUNDARY_CONSTANTS)
        verdicts = {verdict_name(verify_ni(program, config_for(e, s, AnalysisConfig()))) for e, s in MATRIX}
        assert not {"Secure", "Insecure"} <= verdicts, program.body
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
    rank = {"Inconclusive": 0, "Secure": 1, "Insecure": 1}
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
        scores = [rank[v] for v in verdicts]
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
