"""Inputs, known answers and the correctness oracle of each benchmark workload.

Every input is pinned here rather than borrowed from the test suite, so
cleaning up ``tests/helpers.py`` cannot silently change what is measured.
This module imports ``niverify`` lazily: the worker times that import as
part of its set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus-matrix", "wide-branches", "deep-loop", "random-nonlinear")

# The hand-written answer for each corpus program.  prog_i leaks only after
# a hundred iterations, so it can end Inconclusive but never Secure.
CORPUS_ANSWERS = {
    "prog_a": "Secure",
    "prog_b": "Secure",
    "prog_c": "Insecure",
    "prog_d": "Secure",
    "prog_e": "Secure",
    "prog_g": "Secure",
    "prog_h": "Insecure",
    "prog_i": "Insecure",
}

WIDE_BRANCHES = 9
DEEP_LOOP_BOUND = 150

# random-nonlinear: each worker checks one chunk of programs, split into
# tasks of a few programs each.  A program that spends more than the CPU
# limit is abandoned and counts as undecided.
RANDOM_PROGRAMS_PER_WORKER = 100
RANDOM_PROGRAMS_PER_TASK = 10
RANDOM_CPU_LIMIT_S = 0.05

_BOUND_DIRECTIVE = re.compile(r"//\s*bound:\s*(\d+)")


@dataclass
class Task:
    """One timed unit of work.

    ``cells`` holds one ``(name, program, config, expected)`` per check;
    ``expected`` is the known verdict, or None when the oracle decides.
    """

    label: str
    cells: list


def wide_branches_source(n: int = WIDE_BRANCHES) -> str:
    lows = [f"l{k}" for k in range(1, n + 1)]
    lines = [f"low {', '.join(lows)}, y;", "high h;"]
    for k, low in enumerate(lows, 1):
        lines.append(f"if ({low} > 0) {{ y := y + {k}; }} else {{ h := h + 1; }}")
    return "\n".join(lines) + "\n"


# The loop of corpus/prog_b.imp, copied so that corpus edits leave it alone.
DEEP_LOOP_SOURCE = """\
low i, z;
high priv;
while (i < z) {
  i := i + 1;
  priv := priv + 1;
}
"""


# ---------------------------------------------------------------------------
# Task lists
# ---------------------------------------------------------------------------


def corpus_tasks(root: Path) -> tuple[list[Task], list[str]]:
    """One task per cell of corpus x MATRIX, as ``ni corpus`` runs them."""
    from niverify import lang
    from niverify.driver import MATRIX, AnalysisConfig

    tasks, texts = [], []
    for path in sorted((root / "corpus").glob("*.imp")):
        text = path.read_text()
        texts.append(text)
        program = lang.parse_program(text)
        directive = _BOUND_DIRECTIVE.search(text)
        bound = int(directive.group(1)) if directive else AnalysisConfig().bound
        expected = CORPUS_ANSWERS.get(path.stem)
        if expected is None:
            raise ValueError(f"no known answer for corpus program {path.stem}")
        for engine, single in MATRIX:
            config = AnalysisConfig(
                engine=engine,
                single_engine=single or "soundse",
                domain="intervals" if single == "redsoundse" else "none",
                bound=bound,
            )
            tasks.append(Task(f"{path.stem} {config.label()}", [(path.stem, program, config, expected)]))
    return tasks, texts


def fixed_tasks(workload: str) -> tuple[list[Task], list[str]]:
    from niverify import lang
    from niverify.driver import AnalysisConfig

    if workload == "wide-branches":
        text, config = wide_branches_source(), AnalysisConfig()
    else:
        text, config = DEEP_LOOP_SOURCE, AnalysisConfig(bound=DEEP_LOOP_BOUND)
    program = lang.parse_program(text)
    return [Task(workload, [(workload, program, config, "Secure")])], [text]


def random_tasks(seed: int, chunk: int) -> tuple[list[Task], list[str]]:
    from niverify.driver import AnalysisConfig
    from randprog import RANDOM_MAX_DEPTH, RANDOM_MAX_VARS, random_program

    config = AnalysisConfig()
    first = chunk * RANDOM_PROGRAMS_PER_WORKER
    cells = []
    for index in range(first, first + RANDOM_PROGRAMS_PER_WORKER):
        program = random_program(random.Random(f"{seed}:{index}"), RANDOM_MAX_DEPTH, RANDOM_MAX_VARS)
        cells.append((f"random#{index}", program, config, None))
    size = RANDOM_PROGRAMS_PER_TASK
    tasks = [Task(f"{cells[i][0]}+{size}", cells[i : i + size]) for i in range(0, len(cells), size)]
    return tasks, [program_text(cell[1]) for cell in cells]


def program_text(program) -> str:
    return (
        f"low {' '.join(sorted(program.low_vars))}; "
        f"vars {' '.join(sorted(program.all_vars))}; {program.body}"
    )


def build_tasks(workload: str, root: Path, seed: int, unit: int) -> tuple[list[Task], list[str]]:
    if workload == "corpus-matrix":
        return corpus_tasks(root)
    if workload == "random-nonlinear":
        return random_tasks(seed, unit)
    return fixed_tasks(workload)


def inputs_digest(workload: str, texts: list[str], tasks: list[Task]) -> str:
    """Digest of everything a run's verdicts depend on besides the code."""
    configs = sorted(
        {
            f"{config.engine} {config.single_engine} {config.domain} bound={config.bound}"
            for task in tasks
            for _, _, config, _ in task.cells
        }
    )
    payload = {
        "workload": workload,
        "texts": texts,
        "configs": configs,
        "cpu_limit_s": RANDOM_CPU_LIMIT_S if workload == "random-nonlinear" else None,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def determinism_hash(rows: list[dict]) -> str:
    """The corpus grid hash, computed exactly as ``driver.run_corpus`` does."""
    grid_only = [{k: row[k] for k in ("program", "config", "bound", "verdict")} for row in rows]
    return hashlib.sha256(json.dumps(grid_only, sort_keys=True).encode()).hexdigest()


def wrong_verdict(name: str, program, verdict: str, expected: str | None, seed: int) -> str | None:
    """Why ``verdict`` contradicts the known answer, or None if it does not.

    Inconclusive is never wrong.  Insecure verdicts were replayed inside
    ``verify_ni``; a Secure verdict on a random program must survive the
    concrete oracle.
    """
    if verdict == "Inconclusive":
        return None
    if expected is not None:
        return None if verdict == expected else f"expected {expected}, got {verdict}"
    if verdict == "Secure":
        from randprog import oracle_leak

        leak = oracle_leak(program, random.Random(f"{seed}:{name}:oracle"))
        if leak is not None:
            return f"Secure, but low-equal stores {leak[0]} and {leak[1]} end low-unequal"
    return None
