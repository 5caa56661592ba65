"""Time per round of ``relax-general`` at long horizons, on two checkouts.

    python3 tools/pieces_by_T.py PARENT CHANGE [--runs 4]

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` under a scratch directory).  For each T in 2,000, 8,000 and 32,000 the
script plays the bench's ``relax-general-interval`` config at that horizon (64 thresholds
on the interval, absolute loss, sigma = 0.2, noisy-comparator labels, seed 0), where
|S| = 45, 90 and 179 labels make the rule's arrays per round grow with T, so the run is
answered in pieces of fewer rounds.  Each figure is one fresh interpreter whose
``PYTHONPATH`` is that tree's ``src``, calling ``harness.run_seed`` in process with no trace
written; ``--runs`` runs per tree and T alternate, even runs starting with the parent.  The
interpreter reports the call's wall time, the seed's final regret and oracle calls, and its
own ``ru_maxrss``.  The script refuses (exit 1) a run whose final regret or oracle calls
differ from the parent's first run at that T: pieces change only how many rounds one
array holds.  The record, with each side's median ms per round and the environment, goes
to ``BENCH_pieces.json`` at the root of the repository this script lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

HORIZONS = (2_000, 8_000, 32_000)
WORKLOAD = "relax-general-interval"

# run in the child: one seed in process, then its wall time, figures and peak RSS
_CHILD = """
import json, resource, sys, time
from smoothol.harness import ExperimentConfig, run_seed
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
start = time.perf_counter()
outcome = run_seed(cfg, 0)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "final_regret": repr(outcome.final_regret),
                  "oracle_calls": outcome.oracle_calls,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def source_sha256(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "loadavg_at_start": list(os.getloadavg()),
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(tree: Path, T: int) -> dict:
    """One in-process ``run_seed`` of the workload at horizon T in ``tree``."""
    config = json.dumps(WORKLOADS[WORKLOAD].make_config(0, None, T))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, config], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} at T = {T}: exit {proc.returncode}: {proc.stderr[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"T": T, "ms_per_round": 1000.0 * record["wall_s"] / T, **record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=4, help="runs per tree and T")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"description": f"in-process `harness.run_seed` of the bench's {WORKLOAD} config "
                             "at growing T, seed 0, no trace; each run one fresh interpreter, "
                             "the trees alternating (tools/pieces_by_T.py).",
              "environment": environment(),
              **{side: {"source_sha256": source_sha256(tree), "runs": []}
                 for side, tree in trees.items()},
              "medians": []}
    for T in HORIZONS:
        reference = None
        for i in range(args.runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = measure(trees[side], T)
                reference = reference or (run["final_regret"], run["oracle_calls"])
                if (run["final_regret"], run["oracle_calls"]) != reference:
                    print(f"{side} at T = {T}: final regret {run['final_regret']} and "
                          f"{run['oracle_calls']} calls, not {reference}", file=sys.stderr)
                    return 1
                record[side]["runs"].append(run)
                print(f"{side:6} T = {T:>6,}: {run['ms_per_round']:.4f} ms per round, "
                      f"{run['peak_rss_mb']:5.1f} MB peak RSS, final regret "
                      f"{run['final_regret']}", flush=True)
        medians = {side: statistics.median(r["ms_per_round"] for r in record[side]["runs"]
                                           if r["T"] == T) for side in trees}
        record["medians"].append({"T": T, "final_regret": reference[0],
                                  "oracle_calls": reference[1],
                                  **{f"{side}_ms_per_round": ms for side, ms in medians.items()}})
    record["environment"]["loadavg_at_end"] = list(os.getloadavg())
    (ROOT / "BENCH_pieces.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
