"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from niverify.driver import AnalysisConfig, verify_ni  # noqa: E402


def test_seed_gives_the_same_input_digest_every_time():
    def digest(seed: int) -> str:
        tasks, texts = workloads.build_tasks("random-nonlinear", HERE.parent, seed, 0)
        return workloads.inputs_digest("random-nonlinear", texts, tasks)

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
    for name in ("corpus-matrix", "wide-branches", "deep-loop"):
        first = workloads.build_tasks(name, HERE.parent, 1, 0)
        again = workloads.build_tasks(name, HERE.parent, 2, 0)
        assert workloads.inputs_digest(name, first[1], first[0]) == workloads.inputs_digest(name, again[1], again[0])


def test_p90_is_reported_only_with_ten_samples_beyond_it():
    assert run.percentile_with_tail([float(i) for i in range(100)], 90) is not None
    assert run.percentile_with_tail([float(i) for i in range(99)], 90) is None
    assert run.percentile_with_tail([1.0] * 500, 90) is None


def test_timed_out_program_is_undecided_not_failed():
    tasks, _ = workloads.build_tasks("wide-branches", HERE.parent, 1, 0)
    records = worker.run_pass(tasks, worker.CpuLimit(0.01), seed=1)
    assert records[0]["verdicts"] == ["Timeout"]
    assert records[0]["crashes"] == [] and records[0]["wrong"] == []
    metrics = run.end_to_end([{"setup_s": 0.1, "peak_rss_mb": 20.0, "speed": 1.0, "records": records}])
    assert metrics["decided_share"]["value"] == 0.0


def test_wrong_verdict_is_caught():
    name, program, config, _ = workloads.build_tasks("deep-loop", HERE.parent, 1, 0)[0][0].cells[0]
    assert workloads.wrong_verdict(name, program, "Insecure", "Secure", 1) is not None
    assert workloads.wrong_verdict(name, program, "Inconclusive", "Secure", 1) is None


def test_oracle_breaks_a_leaky_secure_claim():
    from niverify import lang

    leaky = lang.parse_program("low y; high h; y := h;")
    assert workloads.wrong_verdict("leaky", leaky, "Secure", None, 1) is not None
    safe = lang.parse_program("low y; high h; y := y + 1;")
    assert workloads.wrong_verdict("safe", safe, "Secure", None, 1) is None


def test_corpus_hash_matches_the_driver():
    from niverify.driver import run_corpus

    tasks, _ = workloads.build_tasks("corpus-matrix", HERE.parent, 1, 0)
    records = worker.run_pass(tasks, None, seed=1)
    rows = worker.corpus_rows(tasks, records)
    assert workloads.determinism_hash(rows) == run_corpus(HERE.parent / "corpus")["determinism_hash"]


def test_wrappers_restore_the_original_attributes():
    originals = {(t, a): vars(tracing.resolve(t))[a] for t, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (target, attr), original in originals.items():
            assert vars(tracing.resolve(target))[attr] is not original
    finally:
        tracer.remove()
    for (target, attr), original in originals.items():
        assert vars(tracing.resolve(target))[attr] is original


def test_self_times_add_up_to_the_root_spans():
    tasks, _ = workloads.build_tasks("corpus-matrix", HERE.parent, 1, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for task in tasks[:10]:
            _, program, config, _ = task.cells[0]
            tracer.run_task(task.label, lambda: verify_ni(program, config))
    finally:
        tracer.remove()
    spans = tracer.summary()["spans"]
    total_self = sum(entry["self_s"] for entry in spans.values())
    assert abs(total_self - spans[tracing.ROOT]["s"]) < 1e-9
    assert spans[tracing.ROOT]["calls"] == 10
    assert spans["relational.step"]["calls"] > 0


def test_random_chunk_has_the_stated_size():
    config = AnalysisConfig()
    tasks, texts = workloads.build_tasks("random-nonlinear", HERE.parent, 3, 2)
    assert sum(len(t.cells) for t in tasks) == workloads.RANDOM_PROGRAMS_PER_WORKER
    assert len(texts) == workloads.RANDOM_PROGRAMS_PER_WORKER
    assert all(cell[2] == config for t in tasks for cell in t.cells)


def test_crash_is_failed_but_not_wrong():
    _, program, _, _ = workloads.build_tasks("deep-loop", HERE.parent, 1, 0)[0][0].cells[0]
    task = workloads.Task("bogus", [("bogus", program, AnalysisConfig(engine="bogus"), "Secure")])
    record = worker.run_pass([task], None, seed=1)[0]
    assert record["verdicts"] == ["Crash"]
    assert record["crashes"] and not record["wrong"]


def test_speed_meter_samples_in_the_background_and_is_excluded_from_task_time():
    import speed

    tasks, _ = workloads.build_tasks("corpus-matrix", HERE.parent, 1, 0)
    with speed.SpeedMeter() as meter:
        records = worker.run_pass(tasks, None, seed=1, meter=meter)
    assert meter.samples and meter.factor() > 0
    assert sum(r["s"] for r in records) > 0
