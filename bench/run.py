"""Benchmark runner: one workload (or all) of smoothol, end to end or traced.

    python3 bench/run.py --workload relax-linear-grid --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # every workload, one table
    python3 bench/run.py --workload all --trace 1 --out bench/BENCH_baseline.json

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each workload runs in fresh interpreters, one at a
time: first the worker that makes the timed calls, then ``SETUP_REPS``
setup probes.  Human-readable lines come first on stdout; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The full record, with the environment, each call's regret
and trace digest, goes to ``bench/runs/`` (or ``--out``).  The exit code is
1 if any call or output check failed, 2 if the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = [("ms_per_round", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("oracle_calls_per_round", "count")]

DEADLINE_S = 170.0      # one workload must finish well inside 180 s
SETUP_REPS = 3
PROBE_TIMEOUT_S = 20.0


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _spawn(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run bench/worker.py in a fresh interpreter; (parsed last line, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "failures": [], "calls": []}
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]

    reserve = SETUP_REPS * PROBE_TIMEOUT_S / 2
    run, err = _spawn(["run", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
                      timeout=max(deadline - time.monotonic() - reserve, 10.0))
    attempted = 1
    if run is None:
        record["failures"].append({"stage": "worker", "error": err})
    else:
        record["calls"] = run["calls"]
        record["failures"] += run["failures"]
        record["environment"]["openblas_threads"] = run.get("openblas_threads")
        attempted = len(run["calls"]) + len(run["failures"])

    probes = []
    for _ in range(SETUP_REPS):
        remaining = deadline - time.monotonic()
        attempted += 1
        if remaining < 5.0:
            record["failures"].append({"stage": "setup", "error": "no time left"})
            break
        probe, err = _spawn(["setup", *common], timeout=min(PROBE_TIMEOUT_S, remaining))
        if probe is None:
            record["failures"].append({"stage": "setup", "error": err})
        else:
            probes.append(probe)

    e2e, per_layer = {}, {}
    if run is not None and run["untraced_s"]:
        T = WORKLOADS[name].T
        # the fastest call: other tenants of the machine only ever slow a call
        # down, so the minimum is the steadiest estimate of the program's cost
        e2e["ms_per_round"] = min(run["untraced_s"]) * 1e3 / T
        record["ms_per_round_median"] = statistics.median(run["untraced_s"]) * 1e3 / T
        e2e["oracle_calls_per_round"] = run["oracle_calls_per_round"]
        if not trace:
            e2e["peak_rss_mb"] = run["peak_rss_mb"]
        if trace and "layers" in run:
            per_layer = dict(run["layers"])
            per_layer["trace.overhead"] = min(run["traced_s"]) / min(run["untraced_s"]) - 1.0
    if probes:
        record["setup_probes_s"] = [p["setup_s"] for p in probes]
        e2e["setup_s"] = statistics.median(record["setup_probes_s"])
        per_layer["cli.import_ms"] = statistics.median(p["cli_import_ms"] for p in probes)
        per_layer["coupling.import_ms"] = statistics.median(
            p["coupling_import_ms"] for p in probes)
    if trace:
        per_layer = {m: per_layer[m] for m, _, _ in PER_LAYER if m in per_layer}
    record["end_to_end"] = e2e
    record["per_layer"] = per_layer
    record["attempted"] = attempted
    record["failed"] = len(record["failures"])
    wanted = [m for m, _, _ in PER_LAYER] if trace else [m for m, _ in END_TO_END]
    missing = [m for m in wanted if m not in (per_layer if trace else e2e)]
    if missing and not record["failures"]:
        record["failures"].append({"stage": "metrics", "error": f"missing {missing}"})
        record["failed"] += 1
    record["correct"] = not record["failures"]
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _units() -> dict[str, str]:
    return {**dict(END_TO_END), **{m: u for m, u, _ in PER_LAYER}}


def print_record(rec: dict) -> None:
    units = _units()
    print(f"== {rec['workload']} (seed {rec['seed']}, trace {int(rec['trace'])})")
    for m, v in {**rec["end_to_end"], **(rec["per_layer"] if rec["trace"] else {})}.items():
        print(f"  {m:<38} {v:>14.6g} {units[m]}")
    print(f"  {'failed_frac':<38} {rec['failed'] / max(rec['attempted'], 1):>14.6g} ratio"
          f"  ({rec['failed']} of {rec['attempted']})")
    for c in rec["calls"]:
        kind = "traced" if c["traced"] else "timed"
        print(f"  call seed {c['seed']:<6} {kind:<6} {c['wall_s']:8.3f} s  "
              f"regret {c['final_regret']:<12.6g} sha256 {c['sha256'][:16]}")
    for f in rec["failures"]:
        print(f"  FAILED {f}")
    env = rec["environment"]
    print("  env " + " ".join(f"{k}={env[k]}" for k in
                             ("nproc", "python", "numpy", "scipy", "openblas_threads",
                              "git_commit", "loadavg_at_start") if k in env))


def _result_line(rec: dict, trace: bool) -> dict:
    units = _units()
    metrics = rec["per_layer"] if trace else rec["end_to_end"]
    return {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record(s) here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "smoothol" / "cli.py").is_file():
        print(f"no smoothol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        records.append(rec)
    if args.out:
        Path(args.out).write_text(json.dumps(
            records[0] if len(records) == 1 else {"workloads": records}, indent=1) + "\n")

    ok = all(r["correct"] for r in records)
    if len(records) == 1:
        line = _result_line(records[0], bool(args.trace))
    else:
        line = {"correct": ok, "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "workloads": {r["workload"]: _result_line(r, bool(args.trace))["metrics"]
                              for r in records}}
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
