"""One benchmark worker: set up, check one unit of tasks, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --unit U [--spans FILE]

A unit is one pass over the corpus matrix, one wide-branches or deep-loop
check, or one chunk of random programs.  Set-up is importing ``niverify``
from the checkout's ``src`` and building the unit's inputs; the worker
reports the monotonic clock when it is done, and the parent, which noted
the clock before starting the process, takes the difference.

Without ``--spans`` a speed meter (``speed.py``) samples the machine
throughout the pass, and the worker reports the factor that converts its
times to reference speed.  With ``--spans`` the worker checks its unit
twice, untraced and traced, without the meter, and appends the traced
pass's spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Speed samples taken just before and just after the timed pass, so that a
# unit shorter than the meter's interval still has some.
REFERENCE_SAMPLES = 5


class CpuLimitExceeded(BaseException):
    """Raised inside a check that used up its CPU-time limit.

    A BaseException, so that no ``except Exception`` in the verifier can
    swallow it.
    """


class CpuLimit:
    """Per-check CPU-time limit, delivered as SIGPROF from ITIMER_PROF."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise CpuLimitExceeded()

    def __enter__(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.seconds)

    def __exit__(self, *exc) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)


def check(cell, limit: CpuLimit | None) -> tuple[str, str | None]:
    """Verify one program under one config: (verdict, error).

    The verdict is a verdict name, ``Timeout`` or ``Crash``.
    """
    from niverify.driver import verdict_name, verify_ni

    _, program, config, _ = cell
    try:
        if limit is None:
            return verdict_name(verify_ni(program, config)), None
        with limit:
            verdict = verify_ni(program, config)
        return verdict_name(verdict), None
    except CpuLimitExceeded:
        return "Timeout", None
    except Exception as exc:  # any crash is a failed check, reported by name
        return "Crash", f"{type(exc).__name__}: {exc}"


def run_pass(tasks, limit, seed: int, tracer=None, meter=None) -> list[dict]:
    """Check every task, timing each; correctness is checked after the clock stops.

    Time the speed meter spent sampling inside a task is not counted.
    """
    from workloads import wrong_verdict

    records = []
    for task in tasks:
        outcomes = []
        metered = meter.busy_s if meter else 0.0
        started = time.perf_counter()
        for cell in task.cells:
            if tracer is None:
                outcomes.append(check(cell, limit))
            else:
                label = f"{cell[0]} {cell[2].label()}"
                outcomes.append(tracer.run_task(label, lambda cell=cell: check(cell, limit)))
        seconds = time.perf_counter() - started - ((meter.busy_s if meter else 0.0) - metered)
        record = {"label": task.label, "s": seconds, "verdicts": [], "crashes": [], "wrong": []}
        for (name, program, config, expected), (verdict, error) in zip(task.cells, outcomes):
            record["verdicts"].append(verdict)
            if error is not None:
                record["crashes"].append(f"{name} under {config.label()}: {error}")
            elif verdict != "Timeout":
                reason = wrong_verdict(name, program, verdict, expected, seed)
                if reason is not None:
                    record["wrong"].append(f"{name} under {config.label()}: {reason}")
        records.append(record)
    return records


def corpus_rows(tasks, records) -> list[dict]:
    rows = []
    for task, record in zip(tasks, records):
        for (name, _, config, _), verdict in zip(task.cells, record["verdicts"]):
            rows.append({"program": name, "config": config.label(), "bound": config.bound, "verdict": verdict})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--unit", type=int, required=True)
    parser.add_argument("--spans", help="trace a second pass and append its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import niverify

    if Path(niverify.__file__).resolve().parent != ROOT / "src" / "niverify":
        print(f"imported niverify from {niverify.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import workloads
    from speed import SpeedMeter
    from tracing import Tracer

    parse_summary = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
        try:
            tasks, texts = workloads.build_tasks(args.workload, ROOT, args.seed, args.unit)
        finally:
            tracer.remove()
        parse_summary = tracer.summary()
    else:
        tasks, texts = workloads.build_tasks(args.workload, ROOT, args.seed, args.unit)
    ready_at = time.monotonic()

    limit = CpuLimit(workloads.RANDOM_CPU_LIMIT_S) if args.workload == "random-nonlinear" else None
    report = {"ready_at": ready_at, "inputs_digest": workloads.inputs_digest(args.workload, texts, tasks)}

    def traced_pass() -> None:
        tracer = Tracer()
        tracer.install()
        try:
            report["traced_records"] = run_pass(tasks, limit, args.seed, tracer)
        finally:
            tracer.remove()
        tracer.write(args.spans, args.unit)
        report["trace"] = tracer.summary()
        report["parse"] = parse_summary

    if args.spans:
        # The traced and untraced passes alternate in order from unit to
        # unit, so that warm-up does not bias the measured tracing overhead.
        if args.unit % 2:
            traced_pass()
        report["records"] = run_pass(tasks, limit, args.seed)
        if not args.unit % 2:
            traced_pass()
    else:
        with SpeedMeter() as meter:
            for _ in range(REFERENCE_SAMPLES):
                meter.sample()
            report["records"] = run_pass(tasks, limit, args.seed, meter=meter)
            for _ in range(REFERENCE_SAMPLES):
                meter.sample()
        report["speed"] = meter.factor()
    if args.workload == "corpus-matrix":
        report["determinism_hash"] = workloads.determinism_hash(corpus_rows(tasks, report["records"]))

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
