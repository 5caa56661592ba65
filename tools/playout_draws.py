"""Microseconds per 64-row block of ``draw_playout`` on two checkouts, in alternating pairs.

    python3 tools/playout_draws.py PARENT CHANGE --pairs 6

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` under a scratch directory).  For each (T, k) below the script builds
the bench's ``relax-general-interval`` learner (64 thresholds on the interval: 65 cells,
sigma = 0.2) at horizon T with playout width k, and times every block a run draws: the
rows rounds_left = T - 1, T - 2, ..., 64 to a block, as ``RelaxGeneralLearner`` draws
them, with the learner's own generators.  Each pair runs one fresh interpreter per tree,
whose ``PYTHONPATH`` is that tree's ``src``; even pairs run the parent first, odd pairs the
change.  A side's figure per pair is the median over its passes of the mean microseconds
per block of one pass over the run.  The record, with the environment, goes to
``BENCH_playout.json`` at the root of the repository this script lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path[:0] = [str(TOOLS), str(ROOT / "bench")]
from memory_by_T import environment, source_sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "relax-general-interval"
# (T, k): the workload itself, a 10x horizon, and item 17's T at sigma = 0.2
SHAPES = ((200, 80), (2000, 115), (32000, 156))
# a side's passes over each run per pair: about a second of draws each
PASSES = {200: 40, 2000: 6, 32000: 2}

# run in the child: each shape's passes, then the median microseconds per block
_CHILD = """
import inspect, json, statistics, sys, time
import numpy as np
from smoothol.core import BLOCK, make_rng
from smoothol.harness import ExperimentConfig, build_pieces
from smoothol.relaxation import draw_playout
config, shapes = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = {}
for T, k, passes in shapes:
    raw = dict(config, T=T)
    raw["learner"] = dict(raw["learner"], k=k)
    learner = build_pieces(ExperimentConfig.from_dict(raw), make_rng(0), make_rng(0, 1))[3]
    extra = (learner.coins,) if "coins" in inspect.signature(draw_playout).parameters else ()
    blocks = [np.arange(r, max(r - BLOCK, -1), -1) for r in range(T - 1, -1, -BLOCK)]
    per_pass = []
    for _ in range(passes):
        total = 0
        for rounds_left in blocks:
            start = time.perf_counter_ns()
            draw_playout(learner.cells, rounds_left, k, learner.rng, learner.values, *extra)
            total += time.perf_counter_ns() - start
        per_pass.append(total / len(blocks) / 1e3)
    out[f"{T},{k}"] = {"us_per_block": statistics.median(per_pass), "blocks": len(blocks),
                       "cells": len(learner.cells.probs)}
print(json.dumps(out))
"""


def measure(tree: Path) -> dict:
    """One fresh interpreter's timing of every shape in ``tree``."""
    config = WORKLOADS[WORKLOAD].make_config(0, str(tree / "bench" / "runs"), SHAPES[0][0])
    shapes = [(T, k, PASSES[T]) for T, k in SHAPES]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(config),
                           json.dumps(shapes)], cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = environment()
    env["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    record = {"description": f"microseconds per 64-row block of draw_playout over every block "
                             f"of a run of the bench's {WORKLOAD} learner at (T, k), 65 cells; "
                             "alternating pairs of fresh interpreters (tools/playout_draws.py)",
              "environment": env,
              **{side: {"source_sha256": source_sha256(tree), "pairs": []}
                 for side, tree in trees.items()}}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            record[side]["pairs"].append(measure(trees[side]))
        print(f"pair {i}: " + "; ".join(
            f"{shape} {record['parent']['pairs'][-1][shape]['us_per_block']:.0f} -> "
            f"{record['change']['pairs'][-1][shape]['us_per_block']:.0f} us"
            for shape in record["change"]["pairs"][-1]), flush=True)
    summary = {}
    for shape in record["change"]["pairs"][0]:
        parent, change = ([p[shape]["us_per_block"] for p in record[side]["pairs"]]
                          for side in ("parent", "change"))
        wins = sum(c < p for p, c in zip(parent, change))
        summary[shape] = {"parent_median_us": statistics.median(parent),
                          "change_median_us": statistics.median(change),
                          "parent_range_us": [min(parent), max(parent)],
                          "change_range_us": [min(change), max(change)],
                          "change_wins": wins, "pairs": len(parent)}
        ratio = statistics.median(change) / statistics.median(parent) - 1
        print(f"T,k = {shape}: {statistics.median(parent):.0f} -> "
              f"{statistics.median(change):.0f} us per block ({ratio:+.1%}), "
              f"change won {wins} of {len(parent)}")
    record["summary"] = summary
    (ROOT / "BENCH_playout.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
