"""Spans around the calls into each niverify layer, recorded from outside.

The tracer replaces, for the length of a traced pass, the attribute each
caller looks up (a module global or a class method) with a wrapper that
records a span: name, start, end, parent span and task.  Spans stay in
memory until the pass ends.  A span's self time is its duration minus the
time its direct children cover; the self time of the per-task root span is
the work no wrapped call accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (owner, attribute, span name).  The owner is the namespace the caller
# looks the attribute up in; "module:Class" names a class attribute.
WRAPPED = (
    ("niverify.driver", "srse_explore", "relational.explore"),
    ("niverify.driver", "classify_path", "driver.classify"),
    ("niverify.driver", "replay", "driver.replay"),
    ("niverify.driver", "run", "lang.run"),
    ("niverify.driver", "dep_analyze", "dependence.dep_analyze"),
    ("niverify.driver", "tau_sym_to_dep", "dependence.tau_sym_to_dep"),
    ("niverify.relational", "srse_step", "relational.step"),
    ("niverify.relational", "pairing", "relational.pairing"),
    ("niverify.relational", "bounded_step", "soundse.bounded_step"),
    ("niverify.relational", "product_step", "redsoundse.product_step"),
    ("niverify.relational", "analyze", "absint.analyze"),
    ("niverify.redsoundse", "analyze", "absint.analyze"),
    ("niverify.redsoundse", "reduction", "redsoundse.reduction"),
    ("niverify.solver:Solver", "check_sat", "solver.check_sat"),
    ("niverify.solver:Solver", "may_sat", "solver.may_sat"),
    ("niverify.solver:Solver", "prove_equal", "solver.prove_equal"),
    ("niverify.solver:InternalBackend", "check", "solver.backend"),
    ("niverify.lang", "parse_program", "lang.parse"),
)

ROOT = "task"

# Span fields, kept as lists so the wrapper can fill them in place.
ID, NAME, START, END, PARENT, TASK, CHILD_S = range(7)


def resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def path_conjuncts(path) -> int:
    """Number of leaves of a left- or right-nested ``PAnd`` chain."""
    count, stack = 0, [path]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "PAnd":
            stack.extend((node.left, node.right))
        else:
            count += 1
    return count


def _observe_may_sat(tracer: Tracer, span: list, result) -> None:
    if result is False:
        tracer.counts["solver.may_sat.pruned"] += 1


def _observe_backend(tracer: Tracer, span: list, result) -> None:
    # A call abandoned at the CPU limit (result None) gave no answer either.
    kind = "unknown" if result is None else type(result).__name__.lower()
    tracer.counts[f"solver.backend.{kind}"] += 1
    if kind == "unknown":
        tracer.counts["solver.backend.unknown_s"] += span[END] - span[START]


_PATH_CLASSES = {"Infeasible": "infeasible", "SecurePath": "secure", "Refutation": "refutation", "Alarm": "alarm"}


def _observe_classify(tracer: Tracer, span: list, result) -> None:
    tracer.counts[f"driver.classify.{_PATH_CLASSES[type(result).__name__]}"] += 1


def _observe_explore(tracer: Tracer, span: list, result) -> None:
    tracer.counts["relational.finals"] += len(result)
    for kappa2, _ in result:
        tracer.peaks["relational.final_path_conjuncts_max"] = max(
            tracer.peaks["relational.final_path_conjuncts_max"], path_conjuncts(kappa2.path)
        )


# Spans whose observer also runs when the call raised.
OBSERVE_ABANDONED = frozenset({"solver.backend"})

OBSERVERS = {
    "solver.may_sat": _observe_may_sat,
    "solver.backend": _observe_backend,
    "driver.classify": _observe_classify,
    "relational.explore": _observe_explore,
}


class Tracer:
    """Records spans while installed; ``remove`` restores every attribute."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.task: str | None = None
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, attr, name in WRAPPED:
            owner = resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), name, perf_counter(), 0.0, parent, self.task, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = perf_counter()
        # A CPU-limit signal can strike between a push and its try block,
        # leaving spans above this one open: close them here.
        while self._stack:
            top = self._stack.pop()
            top[END] = top[END] or end
            if top is span:
                break
        if self._stack:
            self._stack[-1][CHILD_S] += end - span[START]

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if observe is not None and (result is not None or name in OBSERVE_ABANDONED):
                    observe(self, span, result)

        return traced

    def run_task(self, task: str, fn):
        """Run ``fn`` under a root span for ``task``; return its result."""
        self.task = task
        self._stack.clear()
        span = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(span)
            self.task = None

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - span[CHILD_S]
        return {"spans": out, "counts": dict(self.counts), "peaks": dict(self.peaks)}

    def write(self, path, worker: int) -> None:
        """Append every span as one JSON line; ids are unique per worker."""
        fields = ("id", "name", "start", "end", "parent", "task")
        with open(path, "a") as out:
            for span in self.spans:
                record = dict(zip(fields, span), worker=worker)
                out.write(json.dumps(record) + "\n")
