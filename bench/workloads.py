"""The benchmark's workloads: generated configs, oracle budgets and output checks.

Each workload is one config that the bench writes itself and hands to the
program through its CLI; nothing under ``configs/`` is read.  The budget and
the output checks are computed here from the config alone, independently of
the package, so a change that moves the oracle-call count or breaks the
trace files fails the run instead of moving a number.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Lipschitz constants of the package's losses, as the learners use them to
# size the relax-general label grid.
LOSS_LIPSCHITZ = {"linear": 0.5, "absolute": 0.5, "square": 2.0, "scaled_square": 1.0}

_NOISY_COMPARATOR = {"rule": "noisy_comparator", "threshold": 0.5, "flip_prob": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand: "run" or "bandit"
    config: dict          # everything but seeds and output_dir

    @property
    def T(self) -> int:
        return int(self.config["T"])

    def make_config(self, seed: int, output_dir: str, T: int | None = None) -> dict:
        cfg = json.loads(json.dumps(self.config))
        if T is not None:
            cfg["T"] = T
        cfg["seeds"] = [seed]
        cfg["output_dir"] = output_dir
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload(
        "relax-linear-grid", "run",
        {"learner": {"name": "relax-linear"},
         "adversary": {"kind": "iid", "p": "tilted", "labels": _NOISY_COMPARATOR},
         "class": {"type": "thresholds", "m": 64}, "loss": "linear",
         "T": 2000, "sigma": 0.2, "ground": {"type": "grid", "atoms": 256}}),
    Workload(
        "relax-general-interval", "run",
        {"learner": {"name": "relax-general"},
         "adversary": {"kind": "iid", "p": "mu", "labels": _NOISY_COMPARATOR},
         "class": {"type": "thresholds", "m": 64}, "loss": "absolute",
         "T": 200, "sigma": 0.2, "ground": {"type": "interval"}}),
    Workload(
        "ftpl-cls-long", "run",
        {"learner": {"name": "ftpl-cls"},
         "adversary": {"kind": "iid", "p": "tilted", "labels": _NOISY_COMPARATOR},
         "class": {"type": "thresholds", "m": 64}, "loss": "linear",
         "T": 10000, "sigma": 0.2, "ground": {"type": "grid", "atoms": 256}}),
    Workload(
        "bandit-squarecb", "bandit",
        {"K": 2, "sigma": 0.5, "T": 20000, "regressor": "ftpl-dual",
         "ground": {"atoms": 16}, "class": {"type": "random_product", "H": 4},
         "class_seed": 7}),
)}

# horizon of the untimed warm-up call that fills lazy imports and caches
WARMUP_T = 20


def call_seed(run_seed: int, index: int) -> int:
    """Seed of the index-th entry-point call of a run; fixed by the run's --seed."""
    return 1000 * run_seed + index


def oracle_budget(w: Workload, T: int | None = None) -> float:
    """Oracle calls per round that the paper prices each learner at."""
    if w.command == "bandit":
        return 1.0  # the ftpl-dual regressor commits once per round
    name = w.config["learner"]["name"]
    if name == "relax-linear":
        return 2.0
    if name == "relax-general":
        T = w.T if T is None else T
        L = LOSS_LIPSCHITZ[w.config["loss"]]
        return float(max(2, math.ceil(2.0 * L * math.sqrt(T) - 1e-9)))
    return 1.0


_CSV_HEADER = "t,context,label,prediction,instant_loss,cumulative_regret,oracle_calls"


def check_outputs(w: Workload, seed: int, T: int, out_dir: Path) -> dict:
    """Validate one call's files; returns its record or raises ValueError.

    The record holds the final regret, the oracle calls and a SHA-256 of the
    trace CSV (bandit: of the per-seed summary).  The digest is informational:
    a change may legitimately move RNG streams.
    """
    budget = oracle_budget(w, T)
    if w.command == "bandit":
        summary = json.loads((out_dir / "bandit_summary.json").read_text())
        (row,) = summary["per_seed"]
        regret = float(row["reg_cb"])
        if not (math.isfinite(regret) and math.isfinite(float(row["reg_sq"]))):
            raise ValueError("bandit regret is not finite")
        digest = hashlib.sha256(json.dumps(summary["per_seed"], sort_keys=True).encode())
    else:
        summary = json.loads((out_dir / "summary.json").read_text())
        (row,) = summary["per_seed"]
        regret = float(row["final_regret"])
        raw = (out_dir / f"trace_seed{seed}.csv").read_bytes()
        lines = raw.decode().splitlines()
        if lines[0] != _CSV_HEADER or len(lines) != T + 1:
            raise ValueError(f"trace CSV has {len(lines) - 1} rows, expected {T}")
        last = lines[-1].split(",")
        if int(last[0]) != T or int(last[-1]) != int(row["oracle_calls"]):
            raise ValueError("trace CSV disagrees with the summary on round or oracle calls")
        if float(last[-2]) != regret or not math.isfinite(regret):
            raise ValueError("trace CSV final regret disagrees with the summary")
        digest = hashlib.sha256(raw)
    if int(row["seed"]) != seed:
        raise ValueError(f"summary seed {row['seed']} != {seed}")
    calls = int(row["oracle_calls"])
    if calls != budget * T:
        raise ValueError(f"{calls} oracle calls over {T} rounds; budget is {budget:g} per round")
    return {"seed": seed, "T": T, "final_regret": regret, "oracle_calls": calls,
            "sha256": digest.hexdigest()}
