"""Alternating pairs of one measurement on two checkouts, and the gain rule applied to them.

    python3 tools/pairs.py TOPIC PARENT CHANGE --out PATH [--pairs N] [--workload W]

PARENT and CHANGE are two checkouts of the repository (the parent commit can be unpacked
with ``git archive`` under a scratch directory).  Each pair measures TOPIC once in each
tree, one run at a time; pairs 1, 3, 5, ... run the parent first, pairs 2, 4, 6, ... the
change.  Every interpreter a run starts is fresh and has its tree's ``src`` first on
``PYTHONPATH``.

  bench    ``bench/run.py --workload W --seconds S``, S the change's ``BENCHMARK.json``
           ``run_seconds``: the end-to-end metrics of its result line.
  tier1    ROADMAP's tier-1 command plus ``-p no:cacheprovider``, so that no run reads
           another's cache: the run's wall and CPU seconds, and pytest's passed count.
  stream   ``smoothol run`` of the bench's ``ftpl-cls-long`` config at T = 10^4, 10^5 and
           10^6 (one seed, its trace written to a temporary directory), one interpreter
           each: peak RSS, wall seconds and trace MB.  There is no 10^7: a run that holds
           every round needs about 5 GB there.
  pieces   ``harness.run_seed`` of the bench's ``relax-general-interval`` config in
           process at T = 2,000, 8,000 and 32,000 (seed 0, no trace), where |S| = 45, 90 and
           179 labels make the rule's arrays grow with T, so a run is answered in pieces:
           ms per round and peak RSS.  Every run must repeat the first run's final regret
           and oracle calls at each T, since pieces change only how many rounds one array
           holds.
  playout  microseconds per 64-row block of ``draw_playout`` over every block of a run
           (rounds_left = T - 1, T - 2, ..., 64 to a block, with the learner's own
           generators) of the ``relax-general-interval`` learner (65 cells) at the
           (T, k) of the workload, of a 10x horizon, and of ROADMAP item 17's T at
           sigma = 0.2; a run's figure is the median over its passes.

Every run also records its wall seconds, the CPU seconds of the processes it waited for
(``RUSAGE_CHILDREN``, which takes in ``bench/run.py``'s workers) and CPU/wall.  For each
figure the table gives each side's quartiles, the pairs the change wins (ties count for
neither side), whether the change's median stays within the figure's bound where the
change's ``BENCHMARK.json`` gives one, and whether a gain holds: at least ten pairs, the
change wins at least nine tenths of them, and its median is better than the parent's by
more than the parent's interquartile distance.  Lower is better unless
``BENCHMARK.json`` says otherwise.

The record (environment, each side's source digest, every run and the table) goes to
``--out``.  A run that fails its topic's check ends the measuring: the record is still
written, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")


class Failed(Exception):
    """A run that failed its topic's check."""


def python(tree: Path, *argv: str) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter in ``tree``, its ``src`` first on the path."""
    path = [str(tree / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})


def child(tree: Path, code: str, *argv: str) -> dict:
    """The JSON last line of ``python -c code argv`` in ``tree``; Failed on a nonzero exit."""
    proc = python(tree, "-c", code, *argv)
    if proc.returncode != 0:
        raise Failed(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# A topic measures one run in one tree: a dict of ``figures`` (numbers compared between
# the sides), and optionally ``same`` (values every run of either side must repeat) and
# ``notes`` (recorded only).  It raises Failed when the run fails its check.

def bench(tree: Path, args: argparse.Namespace) -> dict:
    """The end-to-end metrics of one ``bench/run.py`` run of the workload."""
    proc = python(tree, "bench/run.py", "--workload", args.workload,
                  "--seconds", str(args.seconds))
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise Failed(f"no result line: {proc.stderr.strip()[-800:]}") from None
    if not result.get("correct"):
        raise Failed(f"correct: false: {json.dumps(result)[:800]}")
    return {"figures": {name: m["value"] for name, m in result["metrics"].items()},
            "notes": {"attempted": result["attempted"], "failed": result["failed"]}}


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def tier1(tree: Path, args: argparse.Namespace) -> dict:
    """One tier-1 run, which must exit 0 with a summary line and no failed test or error."""
    proc = python(tree, *TIER1)
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind.rstrip("s"): int(n) for n, kind in COUNT.findall(summary)}
    if proc.returncode or counts.get("failed") or counts.get("error") or "passed" not in counts:
        raise Failed(f"exit {proc.returncode}: {summary!r}")
    return {"figures": {}, "notes": {"passed": counts["passed"], "summary": summary}}


# run in the child: the CLI call, then its wall time and the interpreter's peak RSS
_STREAM = """
import json, resource, sys, time
from smoothol.cli import main
start = time.perf_counter()
code = main(["run", "--config", sys.argv[1]])
wall = time.perf_counter() - start
print(json.dumps({"exit": code, "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def stream(tree: Path, args: argparse.Namespace) -> dict:
    """``smoothol run`` at each T, whose trace must hold T rows."""
    figures = {}
    for T in (10**4, 10**5, 10**6):
        with tempfile.TemporaryDirectory() as work:
            out, config = Path(work) / "out", Path(work) / "config.json"
            config.write_text(json.dumps(WORKLOADS["ftpl-cls-long"].make_config(0, str(out), T)))
            run = child(tree, _STREAM, str(config))
            if run["exit"] != 0:
                raise Failed(f"T = {T}: smoothol run exit {run['exit']}")
            trace = out / "trace_seed0.csv"
            with trace.open() as lines:
                rows = sum(1 for _ in lines) - 1
            if rows != T:
                raise Failed(f"T = {T}: {rows} trace rows")
            figures.update({f"T={T} peak_rss_mb": run["peak_rss_mb"],
                            f"T={T} wall_s": run["wall_s"],
                            f"T={T} trace_mb": trace.stat().st_size / 2**20})
    return {"figures": figures}


# run in the child: one seed in process, then its wall time, figures and peak RSS
_PIECES = """
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


def pieces(tree: Path, args: argparse.Namespace) -> dict:
    """``run_seed`` at each T, in one interpreter each."""
    run = {"figures": {}, "same": {}}
    for T in (2_000, 8_000, 32_000):
        config = WORKLOADS["relax-general-interval"].make_config(0, None, T)
        seed = child(tree, _PIECES, json.dumps(config))
        run["figures"].update({f"T={T} ms_per_round": 1000.0 * seed["wall_s"] / T,
                               f"T={T} peak_rss_mb": seed["peak_rss_mb"]})
        run["same"].update({f"T={T} final_regret": seed["final_regret"],
                            f"T={T} oracle_calls": seed["oracle_calls"]})
    return run


# (T, k, passes): the workload itself, a 10x horizon, and item 17's T at sigma = 0.2; each
# shape's passes take about a second of draws
PLAYOUTS = ((200, 80, 40), (2000, 115, 6), (32000, 156, 2))

# run in the child: each shape's passes, then the median microseconds per block
_PLAYOUT = """
import json, statistics, sys, time
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
    blocks = [np.arange(r, max(r - BLOCK, -1), -1) for r in range(T - 1, -1, -BLOCK)]
    per_pass = []
    for _ in range(passes):
        total = 0
        for rounds_left in blocks:
            start = time.perf_counter_ns()
            draw_playout(learner.cells, rounds_left, k, learner.rng, learner.values,
                         learner.coins)
            total += time.perf_counter_ns() - start
        per_pass.append(total / len(blocks) / 1e3)
    out[f"T={T},k={k}"] = {"us_per_block": statistics.median(per_pass), "blocks": len(blocks),
                           "cells": len(learner.cells.probs)}
print(json.dumps(out))
"""


def playout(tree: Path, args: argparse.Namespace) -> dict:
    """Every shape's microseconds per block, in one interpreter."""
    config = WORKLOADS["relax-general-interval"].make_config(0, None, PLAYOUTS[0][0])
    shapes = child(tree, _PLAYOUT, json.dumps(config), json.dumps(PLAYOUTS))
    return {"figures": {f"{s} us_per_block": v["us_per_block"] for s, v in shapes.items()},
            "same": {f"{s} {key}": v[key] for s, v in shapes.items() for key in ("blocks", "cells")}}


TOPICS = {"bench": bench, "tier1": tier1, "stream": stream, "pieces": pieces,
          "playout": playout}


def timed(topic, tree: Path, args: argparse.Namespace) -> dict:
    """One run of ``topic`` in ``tree``, with its wall seconds, its children's CPU seconds
    and their ratio among the figures, or its ``error``."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    try:
        run = topic(tree, args)
    except Failed as failure:
        return {"error": str(failure)}
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {**run, "figures": {**run["figures"], "wall_s": wall, "cpu_s": cpu,
                               "cpu_per_wall": cpu / wall}}


def measure(topic, trees: dict, args: argparse.Namespace) -> list[dict]:
    """The runs of every pair, up to and including the first that fails its check."""
    runs = []
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = {"pair": i + 1, "side": side, **timed(topic, trees[side], args)}
            runs.append(run)
            differ = sorted(k for k, v in run.get("same", {}).items()
                            if v != runs[0]["same"][k])
            if differ:
                run["error"] = f"differs from the first run in {', '.join(differ)}"
            if "error" in run:
                print(f"pair {i + 1} {side}: {run['error']}", file=sys.stderr)
                return runs
            print(f"pair {i + 1}/{args.pairs} {side}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in run["figures"].items()), flush=True)
    return runs


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile], inclusive of the extremes."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def table(runs: list[dict], metrics: dict) -> list[dict]:
    """Per figure of the complete pairs: both sides' quartiles, the change's wins, its
    bound where ``metrics`` (BENCHMARK.json's end-to-end list, by name) gives one, and
    the gain rule."""
    pairs = {}
    for run in runs:
        if "error" not in run:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["figures"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    rows = []
    for name in dict.fromkeys(n for p in pairs for n in p["parent"] if n in p["change"]):
        values = [(p["parent"][name], p["change"][name]) for p in pairs
                  if name in p["parent"].keys() & p["change"].keys()]
        metric = metrics.get(name, {})
        sign = 1.0 if metric.get("better") == "higher" else -1.0  # a positive gain is better
        parent = quartiles([p for p, _ in values])
        change = quartiles([c for _, c in values])
        wins = sum(sign * (c - p) > 0 for p, c in values)
        gain = sign * (change[1] - parent[1])
        row = {"figure": name, "pairs": len(values), "parent": parent, "change": change,
               "wins": wins, "gain_holds": len(values) >= 10 and 10 * wins >= 9 * len(values)
               and gain > parent[2] - parent[0]}
        if "bound" in metric:
            row["within_bound"] = -gain <= metric["bound"] * abs(parent[1])
        rows.append(row)
    return rows


def source_sha256(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "loadavg_before": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("topic", choices=list(TOPICS))
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="write the record here")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="bench only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if (args.topic == "bench") != (args.workload is not None):
        parser.error("--workload is required for bench, and bench only")
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    for tree in trees.values():
        for part in ("src", "bench", "tests", "BENCHMARK.json"):
            if not (tree / part).exists():
                parser.error(f"no {part} under {tree}")
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    args.seconds = benchmark["run_seconds"] if args.topic == "bench" else None

    env = environment()
    runs = measure(TOPICS[args.topic], trees, args)
    env["loadavg_after"] = list(os.getloadavg())
    rows = table(runs, {m["name"]: m for m in benchmark["end_to_end"]})
    args.out.write_text(json.dumps({
        "topic": args.topic, "workload": args.workload, "seconds": args.seconds,
        "pairs": args.pairs, "environment": env,
        "sides": {side: {"tree": tree.name, "source_sha256": source_sha256(tree)}
                  for side, tree in trees.items()},
        "runs": runs, "table": rows}, indent=1) + "\n")

    print(f"\n{args.topic}: {len(runs)} runs of {args.pairs} pairs")
    print(f"{'figure':<28} {'parent q1 / median / q3':>30} {'change q1 / median / q3':>30} "
          f"{'wins':>6}  bound  gain")
    for row in rows:
        sides = ["{:.4g} / {:.4g} / {:.4g}".format(*row[side]) for side in SIDES]
        bound = {True: "ok", False: "WORSE"}.get(row.get("within_bound"), "-")
        print(f"{row['figure']:<28} {sides[0]:>30} {sides[1]:>30} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {bound:<5}  "
              f"{'holds' if row['gain_holds'] else 'no'}")
    return 1 if any("error" in run for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
