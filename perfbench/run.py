"""The niverify benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs worker processes one at a time, each a fresh single-threaded Python
that imports ``niverify`` from ``src`` and checks one unit of the workload
(see ``worker.py``), until ``--seconds`` have passed.  Every verdict is
checked against the workload's known answers; a wrong verdict or a crash is
printed to stderr and makes the exit code 1.

Digests of the inputs and verdicts, sample counts and the percentiles that
have enough samples are printed as ``name: value`` lines.  The last line is
one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, whose spans are
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT as ROOT_SPAN
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every worker must have ended by then, so the run exits within 180 s.
HARD_LIMIT_S = 170

# Span-name prefixes of the layers.  Their self times and the root span's
# unattributed self time add up to the traced wall time.
LAYERS = ("solver", "relational", "soundse", "redsoundse", "absint", "dependence", "driver", "lang")


def percentile_with_tail(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[q - 1]
    return value if sum(1 for s in samples if s > value) >= 10 else None


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_worker(workload: str, seed: int, unit: int, spans: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--unit", str(unit)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started_at = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - started_at))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for unit {unit} exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - started_at
    return report


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def task_seconds(workers: list[dict], at_reference_speed: bool) -> list[float]:
    return [r["s"] * (w["speed"] if at_reference_speed else 1.0) for w in workers for r in w["records"]]


def end_to_end(workers: list[dict], at_reference_speed: bool = True) -> dict:
    """The end-to-end metrics; times at reference speed (see ``speed.py``) or raw."""
    task_s = task_seconds(workers, at_reference_speed)
    setup_s = [w["setup_s"] * (w["speed"] if at_reference_speed else 1.0) for w in workers]
    checks = [v for w in workers for r in w["records"] for v in r["verdicts"]]
    verdicts = sum(1 for v in checks if v in ("Secure", "Insecure", "Inconclusive"))
    decided = sum(1 for v in checks if v in ("Secure", "Insecure"))
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "verdicts_per_s": metric(verdicts / sum(task_s), "1/s"),
        "verdict_ms_p50": metric(statistics.median(task_s) * 1000, "ms"),
        "decided_share": metric(decided / len(checks), "share"),
        "peak_rss_mb": metric(statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }


def merge_traces(workers: list[dict], key: str) -> dict:
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for w in workers:
        for name, entry in w[key]["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                total[field] += value
        for name, value in w[key]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in w[key]["peaks"].items():
            peaks[name] = max(peaks.get(name, 0), value)
    return {"spans": spans, "counts": counts, "peaks": peaks}


def per_layer(workers: list[dict]) -> dict:
    """Per-layer metrics of the traced passes, per check unless stated."""
    trace = merge_traces(workers, "trace")
    parse = merge_traces(workers, "parse")
    spans, counts = trace["spans"], trace["counts"]
    traced = [r for w in workers for r in w["traced_records"]]
    untraced = [r for w in workers for r in w["records"]]
    n = sum(len(r["verdicts"]) for r in traced)

    def total(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}

    def per_check(name: str, value: float, unit: str) -> None:
        out[name] = metric(value / n, unit)

    for name in (
        "solver.may_sat",
        "solver.prove_equal",
        "solver.backend",
        "relational.pairing",
        "redsoundse.reduction",
        "absint.analyze",
        "dependence.dep_analyze",
        "dependence.tau_sym_to_dep",
        "driver.classify",
        "driver.replay",
    ):
        per_check(f"{name}.calls", total(name, "calls"), "count/check")
        per_check(f"{name}.s", total(name, "s"), "s/check")
    out["solver.may_sat.pruned_ratio"] = metric(
        ratio(counts.get("solver.may_sat.pruned", 0), total("solver.may_sat", "calls")), "ratio"
    )
    per_check("solver.check_sat.calls", total("solver.check_sat", "calls"), "count/check")
    check_sat_calls = total("solver.check_sat", "calls")
    out["solver.cache_hit_ratio"] = metric(
        ratio(check_sat_calls - total("solver.backend", "calls"), check_sat_calls), "ratio"
    )
    for kind in ("sat", "unsat", "unknown"):
        per_check(f"solver.backend.{kind}", counts.get(f"solver.backend.{kind}", 0), "count/check")
    per_check("solver.backend.unknown_s", counts.get("solver.backend.unknown_s", 0), "s/check")
    per_check("relational.states", total("relational.step", "calls"), "count/check")
    per_check("relational.step.self_s", total("relational.step", "self_s"), "s/check")
    per_check("relational.finals", counts.get("relational.finals", 0), "count/check")
    out["relational.final_path_conjuncts_max"] = metric(
        trace["peaks"].get("relational.final_path_conjuncts_max", 0), "count"
    )
    for name in ("soundse.bounded_step", "redsoundse.product_step"):
        per_check(f"{name}.calls", total(name, "calls"), "count/check")
        per_check(f"{name}.self_s", total(name, "self_s"), "s/check")
    for kind in ("infeasible", "secure", "refutation", "alarm"):
        per_check(f"driver.classify.{kind}", counts.get(f"driver.classify.{kind}", 0), "count/check")
    parses = parse["spans"].get("lang.parse", {})
    out["lang.parse.calls"] = metric(parses.get("calls", 0) / len(workers), "count/worker")
    out["lang.parse.s"] = metric(parses.get("s", 0.0) / len(workers), "s/worker")
    per_check("lang.run.s", total("lang.run", "s"), "s/check")
    for layer in LAYERS:
        self_s = sum(entry["self_s"] for name, entry in spans.items() if name.split(".")[0] == layer)
        per_check(f"{layer}.self_s", self_s, "s/check")
    per_check("trace.wall_s", total(ROOT_SPAN, "s"), "s/check")
    per_check("trace.unattributed_s", total(ROOT_SPAN, "self_s"), "s/check")
    traced_s = sum(r["s"] for r in traced)
    untraced_s = sum(r["s"] for r in untraced)
    per_check("trace.overhead_s", traced_s - untraced_s, "s/check")
    out["trace.overhead_ratio"] = metric(ratio(traced_s - untraced_s, untraced_s), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/niverify/__init__.py", "corpus") if not (ROOT / p).exists()]
    if missing:
        print(f"not a niverify checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    spans = None
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("")

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workers: list[dict] = []
    try:
        while not workers or time.monotonic() - started < args.seconds:
            workers.append(run_worker(args.workload, args.seed, len(workers), spans, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    records = [r for w in workers for r in w["records"] + w.get("traced_records", [])]
    checks = sum(len(r["verdicts"]) for r in records)
    crashes = [f"{r['label']}: {c}" for r in records for c in r["crashes"]]
    wrong = [f"{r['label']}: {c}" for r in records for c in r["wrong"]]
    for line in crashes:
        print(f"CRASHED {line}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    hashes = sorted({w["determinism_hash"] for w in workers if "determinism_hash" in w})
    if len(hashes) > 1:
        print("WRONG corpus passes disagree on the determinism hash", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "workers": len(workers),
        "tasks": sum(len(w["records"]) for w in workers),
        "checks": checks,
        "inputs_digest": workers[0]["inputs_digest"],
        "verdict_digest": digest([r["verdicts"] for r in workers[0]["records"]]),
        "determinism_hash": ",".join(hashes) or None,
        "failed_share": (len(crashes) + len(wrong)) / checks,
        "wall_s": time.monotonic() - started,
    }
    if not args.trace:
        times_ms = [s * 1000 for s in task_seconds(workers, at_reference_speed=True)]
        info["verdict_ms_samples"] = len(times_ms)
        info["verdict_ms_p90"] = percentile_with_tail(times_ms, 90)
        info["speed_factor"] = statistics.median(w["speed"] for w in workers)
        raw = end_to_end(workers, at_reference_speed=False)
        for name in ("setup_s", "verdicts_per_s", "verdict_ms_p50"):
            info[f"raw_{name}"] = raw[name]["value"]
    for key, value in info.items():
        if value is not None:
            print(f"{key}: {value}")

    # A crash is a failed check and is counted; only a wrong verdict makes
    # the run's output incorrect.
    correct = not wrong and len(hashes) <= 1
    metrics = per_layer(workers) if args.trace else end_to_end(workers)
    result = {"correct": correct, "attempted": checks, "failed": len(crashes) + len(wrong), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
