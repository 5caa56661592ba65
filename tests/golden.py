"""The golden trace set: sha256 digests of the traces and summaries of a fixed set of runs.

``tests/test_golden.py`` reruns the set and compares it with ``tests/golden_traces.json``.
A change that moves a stream on purpose regenerates the table, from the repository root:

    PYTHONPATH=src python tests/golden.py

The table records the environment it was made in (numpy's version and the platform),
because ``values @ w`` goes through BLAS, whose rounding can differ between builds.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from smoothol.bandit import run_bandit_experiment
from smoothol.harness import ExperimentConfig, run_experiment

TABLE = Path(__file__).with_name("golden_traces.json")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_LABELS = {"noisy": {"rule": "noisy_comparator", "threshold": 0.5, "flip_prob": 0.1},
           "flip": {"rule": "adversarial_flip"}}
# (learner spec, loss): every learner, FTPL at an exact and an approximate oracle
_LEARNERS = {
    "relax-linear": ({"name": "relax-linear"}, "linear"),
    "relax-general": ({"name": "relax-general"}, "absolute"),
    **{f"{name}-zeta{zeta}": ({"name": name, "zeta": zeta}, loss)
       for name, loss in (("ftpl-cls", "linear"), ("ftpl-dual", "absolute"),
                          ("ftpl-single", "absolute"))
       for zeta in (0.0, 0.05)},
}
_GROUNDS = {"grid": {"type": "grid", "atoms": 32}, "interval": {"type": "interval"}}
_THRESHOLDS = {"type": "thresholds", "m": 16}
# a real table on 9 atoms whose first atom every hypothesis maps to 0, shattering atoms 1
# and 2: absolute loss keeps per-anchor main-loss rows on it, scaled-square loss sums them
_GAP_CLASS = {"type": "table", "values": [[0, 1, -1, 0.5, -0.25, 0, 0, 0, 0],
                                          [0, -1, 1, 0.75, 0, -0.5, 0, 0, 0],
                                          [0, 1, 1, -1, 0, 0, 0.25, 0, 0],
                                          [0, -1, -1, 0, 1, 0, 0, -1, 0]]}


def _run(learner, adversary, ground, T, klass=_THRESHOLDS, loss=None, seeds=(0,)):
    spec, default_loss = _LEARNERS[learner]
    return {"learner": dict(spec), "adversary": adversary, "class": klass,
            "loss": loss or default_loss, "T": T, "sigma": 0.5, "seeds": list(seeds),
            "ground": ground}


def configs() -> dict:
    """name -> ("run" or "bandit", raw config) for every run of the set."""
    out = {}
    for learner in _LEARNERS:
        for ground, spec in _GROUNDS.items():
            for labels, rule in _LABELS.items():
                for T in (1, 130):
                    out[f"{learner}/{ground}/{labels}/T{T}"] = ("run", _run(
                        learner, {"kind": "iid", "labels": rule}, spec, T, seeds=(0, 1)))
        out[f"{learner}/adaptive-mixture"] = ("run", _run(
            learner, {"kind": "adaptive_mixture", "labels": _LABELS["noisy"]},
            _GROUNDS["grid"], 130))
        out[f"{learner}/hidden-mu"] = ("run", _run(
            learner, {"kind": "hidden_mu_threshold"}, _GROUNDS["interval"], 130))
        # the gap class is real, which ftpl-cls refuses; relax-linear takes linear loss only
        losses = {"ftpl-cls": (), "relax-linear": ("linear",)}.get(
            learner.split("-zeta")[0], ("absolute", "scaled_square"))
        for loss in losses:
            out[f"{learner}/rademacher-gap/{loss}"] = ("run", _run(
                learner, {"kind": "rademacher_gap", "m": 2}, {"type": "grid", "atoms": 9},
                130, _GAP_CLASS, loss, seeds=(0, 1)))
    # omega' per (cell, label) pair, where the pairs are fewer than the anchors: dual at
    # p >= 2 (17 cells x 9 labels < 200 anchors) and single on two cells (2 x 43 < 183)
    iid = {"kind": "iid", "labels": _LABELS["noisy"]}
    for zeta in (0.0, 0.05):
        raw = _run(f"ftpl-dual-zeta{zeta}", iid, _GROUNDS["grid"], 200)
        raw["learner"]["p"] = 2
        out[f"ftpl-dual-zeta{zeta}/p2"] = ("run", raw)
        # fewer omega anchors than omega' anchors: m = 3 beside n = 17
        raw = _run(f"ftpl-dual-zeta{zeta}", iid, _GROUNDS["grid"], 130)
        raw["learner"]["m"] = 3
        out[f"ftpl-dual-zeta{zeta}/m3"] = ("run", raw)
    out["ftpl-single-zeta0.0/one-threshold"] = ("run", dict(_run(
        "ftpl-single-zeta0.0", iid, _GROUNDS["grid"], 130, {"type": "thresholds", "m": 1}),
        sigma=0.1))
    raw = _run("ftpl-single-zeta0.0", iid, _GROUNDS["grid"], 130)
    raw["learner"]["n"] = 9  # eta follows n
    out["ftpl-single-zeta0.0/n9"] = ("run", raw)
    for regressor in ("ftpl-dual", "relax-general"):
        for K in (1, 2, 3):
            out[f"bandit/{regressor}/K{K}"] = ("bandit", {
                "K": K, "sigma": 0.5, "T": 100, "seeds": [0, 1], "regressor": regressor,
                "ground": {"atoms": 8}, "class": {"type": "random_product", "H": 4}})
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        raw["T"] = min(raw["T"], 200)
        out[f"configs/{path.name}"] = ("bandit" if "K" in raw else "run", raw)
    return out


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def _summary_digest(path: Path) -> str:
    """The summary's sha256, without its wall times and ``output_dir``."""
    summary = json.loads(path.read_text())
    for seed in summary["per_seed"]:
        seed.pop("wall_time_s", None)
    summary["aggregate"].pop("total_wall_time_s", None)
    summary["config"].pop("output_dir", None)
    return hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest()


def digests(workdir: Path) -> dict:
    """name/file -> sha256 of every trace CSV and summary the set writes under ``workdir``."""
    out = {}
    for i, (name, (command, raw)) in enumerate(configs().items()):
        raw = dict(raw, output_dir=str(workdir / str(i)))
        if command == "run":
            run_experiment(ExperimentConfig.from_dict(raw))
        else:
            run_bandit_experiment(raw)
        for path in sorted(Path(raw["output_dir"]).iterdir()):
            out[f"{name}/{path.name}"] = (_summary_digest(path) if path.suffix == ".json"
                                          else hashlib.sha256(path.read_bytes()).hexdigest())
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        table = {"environment": environment(), "digests": digests(Path(workdir))}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['digests'])} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    main()
