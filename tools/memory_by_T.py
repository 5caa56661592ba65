"""Peak RSS and wall time of ``smoothol run`` as T grows, on two checkouts.

    python3 tools/memory_by_T.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` under a scratch directory).  For each T in 10^4, 10^5 and 10^6 the
script runs the bench's ``ftpl-cls-long`` config (one seed, its trace written to a
temporary directory) once in each tree, the parent first, each in a fresh interpreter
whose ``PYTHONPATH`` is that tree's ``src``.  The interpreter reports its own
``ru_maxrss`` after the call and the call's wall time; the script checks that the trace
has T rows.  The record, with the environment, goes to ``BENCH_stream.json`` at the root
of the repository this script lives in.  There is no 10^7: a run that holds every round
needs about 5 GB there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

HORIZONS = (10**4, 10**5, 10**6)
WORKLOAD = "ftpl-cls-long"

# run in the child: the CLI call, then its wall time and the interpreter's peak RSS
_CHILD = """
import json, resource, sys, time
from smoothol.cli import main
start = time.perf_counter()
code = main(["run", "--config", sys.argv[1]])
wall = time.perf_counter() - start
print(json.dumps({"exit": code, "wall_s": wall,
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
            "loadavg_at_start": list(os.getloadavg()),
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(tree: Path, T: int) -> dict:
    """One ``smoothol run`` of the workload at horizon T in ``tree``."""
    with tempfile.TemporaryDirectory() as work:
        out, path = Path(work) / "out", Path(work) / "config.json"
        path.write_text(json.dumps(WORKLOADS[WORKLOAD].make_config(0, str(out), T)))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(path)], cwd=tree, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree} at T = {T}: exit {proc.returncode}: {proc.stderr[-500:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        trace = out / "trace_seed0.csv"
        with trace.open() as lines:
            rows = sum(1 for _ in lines) - 1
        if record["exit"] != 0 or rows != T:
            raise SystemExit(f"{tree} at T = {T}: exit {record['exit']}, {rows} trace rows")
        record["trace_mb"] = trace.stat().st_size / 2**20
    return {"T": T, **record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    record = {"description": f"`smoothol run` of the bench's {WORKLOAD} config at growing T, "
                             "one seed, trace written; each figure from one fresh interpreter "
                             "(tools/memory_by_T.py).",
              "environment": environment(),
              "parent": {"source_sha256": source_sha256(args.parent), "runs": []},
              "change": {"source_sha256": source_sha256(args.change), "runs": []}}
    for T in HORIZONS:
        for side in ("parent", "change"):
            run = measure(getattr(args, side).resolve(), T)
            record[side]["runs"].append(run)
            print(f"{side:6} T = {T:>9,}: {run['peak_rss_mb']:7.1f} MB peak RSS, "
                  f"{run['wall_s']:6.2f} s, trace {run['trace_mb']:.1f} MB", flush=True)
    (ROOT / "BENCH_stream.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
