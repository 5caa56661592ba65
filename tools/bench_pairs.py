"""Alternating pairs of benchmark runs on two checkouts, and the gain rule applied to them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload bandit-squarecb --pairs 10 --seconds 8

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` or added with ``git worktree add`` under a scratch directory).  Each
pair runs ``python3 bench/run.py --workload W --seconds N`` once in each tree, one
run at a time; even pairs run the parent first, odd pairs the change.  For every end-to-end
metric the script prints each pair's two values, each side's median and quartiles, the
pairs the change wins (ties count for neither side), whether the change's median stays
within the metric's bound, and whether a gain holds: the change wins at least nine tenths
of the pairs, and its median is better than the parent's by more than the parent's
interquartile distance.  Directions and bounds are read from the change's
``BENCHMARK.json``.

The script writes nothing itself; each bench run writes its record under its own tree's
``bench/runs/``.  It exits 1 if any run reports
``correct: false`` or prints no result line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(tree: Path, workload: str, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``, or a failed stand-in."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-2000:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric: both sides' quartiles, the change's wins, and the two rules."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        sign = -1.0 if lower else 1.0  # a positive gain is an improvement
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        gain = sign * (change[1] - parent[1])
        worse_by = -gain / abs(parent[1]) if parent[1] else 0.0
        rows.append({"metric": name, "unit": metric["unit"], "pairs": len(pairs),
                     "parent": parent, "change": change, "wins": wins,
                     "within_bound": worse_by <= metric["bound"],
                     "gain_holds": wins >= 0.9 * len(pairs) and gain > parent[2] - parent[0]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=22.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {tree}")

    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: bench_once(trees[side], args.workload, args.seconds)
                for side in order}
        runs.append((pair["parent"], pair["change"]))
        shown = "  ".join(f"{m['name']} " + " -> ".join(
            f"{pair[side]['metrics'].get(m['name'], {}).get('value', float('nan')):.6g}"
            for side in ("parent", "change")) for m in metrics)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first), parent -> change: {shown}",
              flush=True)

    rows = compare(runs, metrics)
    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds}")
    print(f"{'metric':<24} {'parent q1 / median / q3':>30} {'change q1 / median / q3':>30} "
          f"{'wins':>6}  bound  gain")
    for row in rows:
        sides = ["{:.4g} / {:.4g} / {:.4g}".format(*row[side]) for side in ("parent", "change")]
        print(f"{row['metric']:<24} {sides[0]:>30} {sides[1]:>30} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {'ok' if row['within_bound'] else 'WORSE':<5}  "
              f"{'holds' if row['gain_holds'] else 'no'}")
    failed = [(i + 1, side) for i, pair in enumerate(runs)
              for side, run in zip(("parent", "change"), pair) if not run.get("correct")]
    for i, side in failed:
        print(f"pair {i}: the {side} run reported correct: false", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
