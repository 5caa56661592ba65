"""One workload in a fresh interpreter: the setup probe, or the timed (and traced) calls.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object on its last stdout line.

``setup`` mode times, from the top of this script, ``import smoothol.cli``
plus the CLI entry point up to the start of round 1 (argument parsing,
config load and the component builders); the first round-1 call raises
``_RoundOne`` to stop the run there.

``run`` mode makes one untimed warm-up call at a short horizon, then calls
the entry point with successive seeds until ``--seconds`` are spent.  With
``--trace 1`` every untraced call is followed by a traced call on the same
seed, so the fastest of each kind give the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WARMUP_T, WORKLOADS, Workload, call_seed, check_outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class _RoundOne(Exception):
    def __init__(self):
        self.at = time.perf_counter()


def _raise_round_one(*args, **kwargs):
    raise _RoundOne()


def _check_source(module) -> None:
    src = (ROOT / "src").resolve()
    if Path(module.__file__).resolve().parents[1] != src:
        raise SystemExit(f"smoothol was imported from {module.__file__}, not {src}")


def _write_config(w: Workload, seed: int, work: Path, T: int | None = None) -> Path:
    out = work / f"out-{seed}"
    path = work / f"config-{seed}.json"
    path.write_text(json.dumps(w.make_config(seed, str(out), T)))
    return path


def probe_setup(w: Workload, seed: int, work: Path) -> dict:
    t_init = time.perf_counter()
    import smoothol
    t_coupling = time.perf_counter()
    import smoothol.coupling  # noqa: F401  (pulls in scipy.stats)
    t_cli = time.perf_counter()
    from smoothol import cli
    t_imported = time.perf_counter()
    _check_source(smoothol)

    import layers
    for target in layers.round_start_targets():
        setattr(target.owner, target.attr, _raise_round_one)
    path = _write_config(w, seed, work)
    t_main = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main([w.command, "--config", str(path)])
    except _RoundOne as stop:
        t_round = stop.at
    else:
        raise SystemExit(f"entry point returned {code} before round 1")
    return {"setup_s": (t_imported - T0) + (t_round - t_main),
            "cli_import_ms": (t_imported - t_init) * 1e3,
            "coupling_import_ms": (t_cli - t_coupling) * 1e3}


def _openblas_threads():
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _call(cli, w: Workload, path: Path) -> tuple[int, float]:
    sink = io.StringIO()
    with redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.main([w.command, "--config", str(path)])
        wall = time.perf_counter() - start
    return code, wall


def run_calls(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import smoothol
    from smoothol import cli

    import layers
    from tracing import Tracer

    _check_source(smoothol)
    tracer = Tracer(layers.targets())
    out = {"calls": [], "failures": [], "untraced_s": [], "traced_s": [], "traced_wall_ns": 0}

    def one(s: int, T: int, traced: bool) -> bool:
        path = _write_config(w, s, work, T)
        try:
            if traced:
                tracer.begin_call(s)
                tracer.install()
                try:
                    code, wall = _call(cli, w, path)
                finally:
                    tracer.uninstall()
            else:
                tracer.assert_pristine()
                code, wall = _call(cli, w, path)
            if code != 0:
                raise RuntimeError(f"entry point exited {code}")
            record = check_outputs(w, s, T, work / f"out-{s}")
        except Exception as exc:  # a failed call is reported, not fatal to the bench
            out["failures"].append({"seed": s, "traced": traced,
                                    "error": f"{type(exc).__name__}: {exc}"})
            return False
        finally:
            shutil.rmtree(work / f"out-{s}", ignore_errors=True)
            path.unlink()
        record["wall_s"] = wall
        record["traced"] = traced
        out["calls"].append(record)
        if traced:
            out["traced_s"].append(wall)
            out["traced_wall_ns"] += int(wall * 1e9)
        else:
            out["untraced_s"].append(wall)
        return True

    if not one(call_seed(seed, 999), WARMUP_T, traced=False):
        return out
    out["calls"].clear()
    out["untraced_s"].clear()

    start = time.perf_counter()
    index = 0
    while True:
        s = call_seed(seed, index)
        if not one(s, w.T, traced=False) or (trace and not one(s, w.T, traced=True)):
            break
        index += 1
        elapsed = time.perf_counter() - start
        # start another call only if it should end within half a call of the budget
        if elapsed + 0.5 * elapsed / index >= seconds:
            break

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["openblas_threads"] = _openblas_threads()
    rounds_untraced = [c for c in out["calls"] if not c["traced"]]
    if rounds_untraced:
        out["oracle_calls_per_round"] = statistics.median(
            c["oracle_calls"] / c["T"] for c in rounds_untraced)
    if trace and out["traced_s"] and not out["failures"]:
        calls = len(out["traced_s"])
        out["layers"] = layers.split(tracer, rounds=calls * w.T, calls=calls,
                                     wall_ns=out["traced_wall_ns"])
        tracer.write_csv(work / "spans.csv", w.name)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.mode == "setup":
        result = probe_setup(w, call_seed(args.seed, 0), work)
    else:
        result = run_calls(w, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
