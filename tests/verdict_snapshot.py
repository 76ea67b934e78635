"""Write the verdict JSON of seeded random programs under every MATRIX config.

    PYTHONPATH=src python tests/verdict_snapshot.py --programs 300 --cpu-limit 1 --out verdicts.json

Program ``i`` is ``random_program(Random(f"cmp:{i}"), 3, 3)``.  Each cell
(one program under one config) gets the JSON ``ni check --format json``
would print, alarms and counter-examples included.  A cell that uses more
than ``--cpu-limit`` seconds of CPU time gets the verdict ``TIMEOUT``; one
that raises gets ``ERROR`` with the exception, and makes the script exit 1.
The cells are written as one JSON list, in program order and then
``MATRIX`` order, with sorted keys.

Run it on two checkouts, each with its own ``src`` on ``PYTHONPATH``, and
compare the files:

    PYTHONPATH=src python tests/verdict_snapshot.py --compare parent.json change.json

prints every cell that differs, flags the cells that timed out on one side
only, and gives the ``--only ... --cpu-limit 0`` command that re-runs their
programs with no limit.  It exits 0 when no cell differs except by such a
timeout and neither side has an ``ERROR`` cell.

With ``--paths`` each finished cell also stores ``paths``, the sha256 of
the ``str`` of every final relational path the cell's exploration returned,
in order (``driver.srse_explore`` is wrapped while the cell runs).
``--compare`` reports a cell whose paths differ apart from one whose
verdict JSON differs, and either kind makes it exit 1.

With ``--models`` each finished cell also stores ``models``, the sha256 of
the answers the solver decided, in decision order: the kind, the sorted
model of a Sat and the reason of an Unknown, one line per newly decided
path (``Solver._decide`` is wrapped while the cell runs).  ``--compare``
reports a cell whose models differ apart from one whose verdict JSON or
paths differ, and it too makes it exit 1.  The script is not a test
module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import signal
import sys
import time

from helpers import decisions_digest, paths_digest, random_program, recorded_decisions, recorded_final_paths
from niverify.driver import MATRIX, AnalysisConfig, config_for, verdict_to_json, verify_ni


class CellTimeout(Exception):
    pass


def _expire(signum, frame):
    # Python drops an exception raised inside a gc callback or a finalizer,
    # so fire again shortly until the cell has ended.
    signal.setitimer(signal.ITIMER_PROF, 0.05)
    raise CellTimeout


def check_cell(program, config: AnalysisConfig, cpu_limit: float, paths: bool = False, models: bool = False) -> dict:
    try:
        try:
            if cpu_limit > 0:
                signal.setitimer(signal.ITIMER_PROF, cpu_limit)
            with (
                recorded_final_paths() if paths else contextlib.nullcontext() as lines,
                recorded_decisions() if models else contextlib.nullcontext() as decided,
            ):
                cell = verdict_to_json(verify_ni(program, config))
            if paths:
                cell["paths"] = paths_digest(lines)
            if models:
                cell["models"] = decisions_digest(decided)
            return cell
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except CellTimeout:
        signal.setitimer(signal.ITIMER_PROF, 0)
        return {"verdict": "TIMEOUT"}
    except Exception as exc:
        return {"verdict": "ERROR", "error": f"{type(exc).__name__}: {exc}"}


def compare(path_a: str, path_b: str) -> int:
    """Print the cells of two snapshots that differ; 1 if any differs beyond a
    one-sided timeout, in its verdict JSON, its paths or its models, or
    crashed.

    Paths and models are compared only where both cells carry their digest.
    """
    sides = []
    for path in (path_a, path_b):
        with open(path) as f:
            sides.append({(cell["program"], cell["config"]): cell for cell in json.load(f)})
    a, b = sides
    missing = {"verdict": "MISSING"}
    rerun: list[str] = []
    differ = paths_differ = models_differ = 0
    for key in list(a) + [key for key in b if key not in a]:
        cell_a, cell_b = dict(a.get(key, missing)), dict(b.get(key, missing))
        unequal = set()
        for field in ("paths", "models"):
            digests = (cell_a.pop(field, None), cell_b.pop(field, None))
            if None not in digests and digests[0] != digests[1]:
                unequal.add(field)
        verdicts = (cell_a["verdict"], cell_b["verdict"])
        if cell_a == cell_b:
            if not unequal:
                continue
            if "paths" in unequal:
                paths_differ += 1
                note = "same verdict JSON, paths differ"
            else:
                models_differ += 1
                note = "same verdict JSON and paths, models differ"
        elif verdicts.count("TIMEOUT") == 1 and "MISSING" not in verdicts:
            rerun.append(key[0].split(":")[1])
            note = "timeout on one side only"
        else:
            differ += 1
            note = "differs" if verdicts[0] != verdicts[1] else "same verdict, details differ"
        print(f"{key[0]} {key[1]}: {verdicts[0]} | {verdicts[1]} ({note})")
    errors = sum(cell["verdict"] == "ERROR" for side in sides for cell in side.values())
    print(
        f"{len(a)} | {len(b)} cells, {differ} differ, {len(rerun)} time out on one side only, "
        f"{errors} ERROR, {paths_differ} differ only in paths, {models_differ} differ only in models"
    )
    if rerun:
        numbers = " ".join(dict.fromkeys(rerun))
        print(f"re-run on both sides: PYTHONPATH=src python tests/verdict_snapshot.py --only {numbers} --cpu-limit 0 --out FILE")
    return 1 if differ or paths_differ or models_differ or errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--programs", type=int, default=300, help="check programs 0 .. N-1")
    parser.add_argument("--only", type=int, nargs="*", help="check only these program numbers")
    parser.add_argument("--cpu-limit", type=float, default=1.0, help="CPU seconds per cell; 0 for none")
    parser.add_argument("--out", help="where to write the snapshot")
    parser.add_argument("--paths", action="store_true", help="also store a digest of each cell's final relational paths")
    parser.add_argument("--models", action="store_true", help="also store a digest of the solver's decided answers")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two snapshots instead")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")

    signal.signal(signal.SIGPROF, _expire)
    numbers = args.only if args.only else range(args.programs)
    cells = []
    started = time.monotonic()
    for i in numbers:
        program = random_program(random.Random(f"cmp:{i}"), 3, 3)
        for engine, single in MATRIX:
            config = config_for(engine, single, AnalysisConfig())
            cell = {"program": f"cmp:{i}", "config": config.label()}
            cell.update(check_cell(program, config, args.cpu_limit, args.paths, args.models))
            cells.append(cell)
    with open(args.out, "w") as out:
        json.dump(cells, out, indent=1, sort_keys=True)
        out.write("\n")
    counts: dict[str, int] = {}
    for cell in cells:
        counts[cell["verdict"]] = counts.get(cell["verdict"], 0) + 1
    print(f"{len(cells)} cells in {time.monotonic() - started:.1f} s: {counts}", file=sys.stderr)
    for cell in cells:
        if cell["verdict"] in ("TIMEOUT", "ERROR"):
            print(f"{cell['program']} {cell['config']}: {cell['verdict']} {cell.get('error', '')}".rstrip(), file=sys.stderr)
    return 1 if "ERROR" in counts else 0


if __name__ == "__main__":
    sys.exit(main())
