"""Write the verdict JSON of seeded random programs under every MATRIX config.

    PYTHONPATH=src python tests/verdict_snapshot.py --programs 300 --cpu-limit 1 --out verdicts.json

Program ``i`` is ``random_program(Random(f"cmp:{i}"), 3, 3)``.  Each cell
(one program under one config) gets the JSON ``ni check --format json``
would print, alarms and counter-examples included.  A cell that uses more
than ``--cpu-limit`` seconds of CPU time gets the verdict ``TIMEOUT``; one
that raises gets ``ERROR`` with the exception.  The cells are written as
one JSON list, in program order and then ``MATRIX`` order, with sorted keys.

Run it on two checkouts, each with its own ``src`` on ``PYTHONPATH``, and
``diff`` the files: no difference means the same verdicts.  Re-run a cell
that timed out on one side only with ``--only I --cpu-limit 0``.  The
script is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time

from helpers import random_program
from niverify.driver import MATRIX, AnalysisConfig, config_for, verdict_to_json, verify_ni


class CellTimeout(Exception):
    pass


def _expire(signum, frame):
    # Python drops an exception raised inside a gc callback or a finalizer,
    # so fire again shortly until the cell has ended.
    signal.setitimer(signal.ITIMER_PROF, 0.05)
    raise CellTimeout


def check_cell(program, config: AnalysisConfig, cpu_limit: float) -> dict:
    try:
        try:
            if cpu_limit > 0:
                signal.setitimer(signal.ITIMER_PROF, cpu_limit)
            return verdict_to_json(verify_ni(program, config))
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except CellTimeout:
        signal.setitimer(signal.ITIMER_PROF, 0)
        return {"verdict": "TIMEOUT"}
    except Exception as exc:
        return {"verdict": "ERROR", "error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--programs", type=int, default=300, help="check programs 0 .. N-1")
    parser.add_argument("--only", type=int, nargs="*", help="check only these program numbers")
    parser.add_argument("--cpu-limit", type=float, default=1.0, help="CPU seconds per cell; 0 for none")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    signal.signal(signal.SIGPROF, _expire)
    numbers = args.only if args.only else range(args.programs)
    cells = []
    started = time.monotonic()
    for i in numbers:
        program = random_program(random.Random(f"cmp:{i}"), 3, 3)
        for engine, single in MATRIX:
            config = config_for(engine, single, AnalysisConfig())
            cell = {"program": f"cmp:{i}", "config": config.label()}
            cell.update(check_cell(program, config, args.cpu_limit))
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
            print(f"{cell['program']} {cell['config']}: {cell['verdict']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
