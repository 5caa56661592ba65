"""Wall time of the tier-1 suite in two checkouts, alternating, with the environment it ran in.

    python3 tools/tier1_time.py PARENT CHANGE --runs 3 --out BENCH_tier1.json

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` under a scratch directory).  Each run is ROADMAP's tier-1 command,
``python -m pytest -q --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``, plus
``-p no:cacheprovider`` so that no run reads another's cache; it runs in one tree at a time,
and even runs start with the parent, odd runs with the change.  For each run the script
records the wall seconds and the passed and failed counts of pytest's summary line; for
each side the median, least and most wall seconds; and an environment block: cores,
Python, numpy, ``PYTHONDONTWRITEBYTECODE`` and the load average before and after.  It writes
the record to ``--out`` and exits 1 if any run fails a test or prints no summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def run_once(tree: Path) -> dict:
    """Wall seconds, exit code and summary counts of one tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {kind.rstrip("s"): int(n) for n, kind in COUNT.findall(lines[-1] if lines else "")}
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "summary": lines[-1:],
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=3, help="runs per tree")
    parser.add_argument("--out", type=Path, default=Path("BENCH_tier1.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "tests").is_dir():
            parser.error(f"no tests/ under {tree}")

    env = {**environment(), "loadavg_before": os.getloadavg()}
    runs = []
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs.append({"side": side, "run": i + 1, **run_once(trees[side])})
            print(f"run {i + 1}/{args.runs} {side}: {runs[-1]['wall_s']} s, "
                  f"{runs[-1]['passed']} passed, {runs[-1]['failed']} failed", flush=True)
    env["loadavg_after"] = os.getloadavg()

    sides = {}
    for side in trees:
        walls = [r["wall_s"] for r in runs if r["side"] == side]
        sides[side] = {"tree": trees[side].name, "median_wall_s": statistics.median(walls),
                       "min_wall_s": min(walls), "max_wall_s": max(walls),
                       "passed": [r["passed"] for r in runs if r["side"] == side],
                       "failed": [r["failed"] for r in runs if r["side"] == side]}
    record = {"command": ["python", *TIER1], "runs_per_tree": args.runs, "sides": sides,
              "runs": runs, "environment": env}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for side, s in sides.items():
        print(f"{side}: median {s['median_wall_s']} s ({s['min_wall_s']}-{s['max_wall_s']}), "
              f"passed {s['passed']}, failed {s['failed']}")
    return 1 if any(r["failed"] or not r["summary"] or r["exit"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
