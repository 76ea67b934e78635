"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tests/bench_pairs.py --parent ../parent --change . --workload wide-branches \
        --pairs 10 --seconds 25 --seed 4301 --out pairs.jsonl

Pair ``i`` runs each checkout's own ``perfbench/run.py`` once with seed
``--seed + i``; the parent runs first in even pairs and second in odd ones.
Every ``__pycache__`` directory of a checkout is removed before each of its
runs, so no run reuses bytecode another compiled.  Each run's last output
line (the benchmark's JSON object) is appended to ``--out`` as one JSON line
with its side, pair and seed, as soon as the run ends.

For each end-to-end metric of the change's ``BENCHMARK.json`` the summary
gives each side's median and quartiles, the pairs the change won (ties count
for neither side) and whether a gain may be claimed: the change won at least
nine tenths of the pairs, and the medians differ, in the better direction,
by more than the parent's interquartile range.  ``--summarize FILE`` prints
the summary of a file written earlier instead of running anything.  The
script is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The benchmark's JSON object for one run in ``checkout``."""
    clear_bytecode(checkout)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py exited with {proc.returncode} and no output:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (the median alone for one value)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of ``metrics`` (``name`` and ``better``) that both sides report.

    ``records`` are the JSON lines this script writes; a pair counts once
    both its runs are there.
    """
    runs: dict[int, dict[str, dict]] = {}
    for record in records:
        runs.setdefault(record["pair"], {})[record["side"]] = record["result"]["metrics"]
    pairs = [sides for _, sides in sorted(runs.items()) if all(side in sides for side in SIDES)]
    rows = []
    for spec in metrics:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        values = {side: [pair[side][name]["value"] for pair in pairs if name in pair[side]] for side in SIDES}
        if not pairs or len(values["parent"]) != len(pairs) or len(values["change"]) != len(pairs):
            continue
        won = sum(1 for p, c in zip(values["parent"], values["change"]) if sign * (c - p) > 0)
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = sign * (change[1] - parent[1])
        rows.append(
            {
                "metric": name,
                "better": spec["better"],
                "parent": parent,
                "change": change,
                "won": won,
                "pairs": len(pairs),
                "gain": won >= 0.9 * len(pairs) and gap > parent[2] - parent[0],
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        ratio = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        lines.append(
            f"{row['metric']} ({row['better']} is better): parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> "
            f"change {c2:.6g} [{c1:.6g}, {c3:.6g}] ({ratio}), won {row['won']}/{row['pairs']}, "
            f"gain {'holds' if row['gain'] else 'does not hold'}"
        )
    return "\n".join(lines)


def load_metrics(checkout: Path) -> list[dict]:
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=Path("."), help="the change's checkout")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, help="the first pair's seed")
    parser.add_argument("--out", type=Path, help="append each run's JSON line here")
    parser.add_argument("--summarize", type=Path, metavar="FILE", help="summarize FILE instead of running")
    args = parser.parse_args(argv)
    metrics = load_metrics(args.change)

    if args.summarize is not None:
        records = [json.loads(line) for line in args.summarize.read_text().splitlines() if line.strip()]
        print(render(summarize(records, metrics)))
        return 0
    if args.parent is None or args.workload is None or args.seed is None or args.out is None:
        parser.error("--parent, --workload, --seed and --out are required to run pairs")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            record = {"workload": args.workload, "pair": pair, "seed": seed, "side": side, "result": result}
            records.append(record)
            with args.out.open("a") as out:
                out.write(json.dumps(record) + "\n")
            status = "correct" if result["correct"] else "INCORRECT"
            metrics_line = json.dumps(result["metrics"])
            print(f"pair {pair} seed {seed} {side} ({status}, {result['failed']} failed): {metrics_line}", flush=True)
    print(render(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
