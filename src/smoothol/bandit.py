"""Smoothed contextual bandits: inverse-gap weighting over an online square-loss regressor.

Contexts arrive sigma-smoothly over X; the pair (context, action) is then
sigma/K-smooth with respect to mu x Unif([K]) because any action rule is
1/K-smooth on [K].  The regressor -- one of this package's learners, run on
the product class with square loss -- predicts a loss for every action, the
action is sampled by inverse-gap weighting, and the observed loss feeds back
as a square-loss example on the chosen (context, action).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ContextBlock,
    ContextPoint,
    FiniteMeasure,
    GroundSet,
    TableClass,
    square_loss,
)

logger = logging.getLogger(__name__)

__all__ = [
    "igw_distribution",
    "compose_smoothness",
    "product_ground",
    "product_measure",
    "product_class",
    "BanditResult",
    "run_square_cb",
    "default_gamma",
]


def igw_distribution(predictions: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse-gap weighting over actions, residual mass on the greedy action.

    p(a) = 1 / (K + gamma * (yhat(a) - yhat(a*))) for a != a*, where a* is the
    lowest-index argmin of the predicted losses, and p(a*) absorbs the rest.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    K = len(predictions)
    if K < 2:
        raise ValueError("need at least two actions")
    if not (0.0 < gamma < math.inf):
        raise ValueError("gamma must be positive and finite")
    if not np.all(np.isfinite(predictions)):
        raise ValueError("predictions must be finite")
    star = int(np.argmin(predictions))
    gaps = predictions - predictions[star]
    p = 1.0 / (K + gamma * gaps)
    p[star] = 0.0
    # each non-greedy term is at most 1/K, so the residual is at least 1/K
    p[star] = 1.0 - p.sum()
    return p


def compose_smoothness(sigma_context: float, K: int) -> float:
    """Joint smoothness of (context, action) pairs: sigma/K.

    Composes the context bound with the universal fact that every
    distribution on [K] is 1/K-smooth w.r.t. uniform (the product of a
    sigma-smooth and a sigma'-smooth coordinate is sigma*sigma'-smooth).
    """
    if not (0.0 < sigma_context <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    if K < 1:
        raise ValueError("K must be positive")
    return sigma_context / K


# ---------------------------------------------------------------------------
# Product-space plumbing: atoms are (context_atom, action) pairs
# ---------------------------------------------------------------------------

def joint_id(x_id: int, action: int, K: int) -> int:
    return x_id * K + action


def product_ground(ground_x: GroundSet, K: int) -> GroundSet:
    return GroundSet(size=ground_x.size * K)


def product_measure(mu_x: FiniteMeasure, K: int) -> FiniteMeasure:
    """mu x Unif([K]) over joint atoms."""
    probs = np.repeat(mu_x.probs / K, K)
    return FiniteMeasure(product_ground(mu_x.ground, K), probs)


def product_class(values: np.ndarray) -> TableClass:
    """Hypotheses f: X x [K] -> [0, 1] from a (H, N, K) value tensor."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError("values must be (n_hypotheses, n_atoms, K)")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("bandit regression values must lie in [0, 1]")
    H, N, K = values.shape
    return TableClass(values.reshape(H, N * K), kind="real")


def default_gamma(T: int, K: int, sigma: float, L: float = 2.0,
                  rademacher_proxy: Optional[float] = None,
                  n_hypotheses: Optional[int] = None) -> float:
    """gamma = 12 log(T) sqrt(T sigma / (L * R_hat)).

    R_hat defaults to the finite-class bound sqrt(2 T log H); L = 2 is the
    square-loss Lipschitz constant on [0, 1].
    """
    if rademacher_proxy is None:
        if n_hypotheses is None:
            raise ValueError("need a Rademacher proxy or the class size")
        rademacher_proxy = math.sqrt(2.0 * T * math.log(max(n_hypotheses, 2)))
    return 12.0 * math.log(max(T, 2)) * math.sqrt(T * sigma / (L * rademacher_proxy))


# ---------------------------------------------------------------------------
# The reduction
# ---------------------------------------------------------------------------

@dataclass
class BanditResult:
    """One run's columns, round t at row t - 1, and the regrets derived from them."""

    x_ids: np.ndarray          # (T,) context atoms
    actions: np.ndarray        # (T,) chosen actions
    predictions: np.ndarray    # (T, K) predicted losses, clamped to [0, 1]
    distributions: np.ndarray  # (T, K) action distributions
    losses: np.ndarray         # (T, K) realized loss vectors
    reg_cb: float
    reg_sq: float
    gamma: float
    oracle_calls: int


def run_square_cb(context_adversary, regressor, K: int, T: int,
                  f_star: np.ndarray, gamma: float,
                  rng: np.random.Generator,
                  loss_sampler: Optional[Callable] = None,
                  action_rule: Optional[Callable] = None) -> BanditResult:
    """SquareCB with a plugged-in online square-loss regressor.

    ``context_adversary`` yields sigma-smooth contexts over a finite ground
    set; ``f_star`` is the (N, K) conditional-mean loss table, realizable
    inside the regressor's class; losses default to Bernoulli(f*(x, a)).
    ``regressor`` is a learner over the product class (proper learners commit
    once per round; improper ones are queried once per action).
    ``action_rule(predictions, gamma)`` maps predicted losses to an action
    distribution and defaults to inverse-gap weighting.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if action_rule is None:
        action_rule = igw_distribution
    if loss_sampler is None:
        def loss_sampler(x_id: int, rng: np.random.Generator) -> np.ndarray:
            return (rng.random(K) < f_star[x_id]).astype(np.float64)

    x_ids = np.empty(T, dtype=np.int64)
    actions = np.empty(T, dtype=np.int64)
    predictions = np.empty((T, K))
    distributions = np.empty((T, K))
    losses = np.empty((T, K))
    for t in range(1, T + 1):
        h = regressor.select() if regressor.proper else None
        x_point, _ = context_adversary.next_round(last_prediction=None)
        x_id = x_point.id
        joint_points = [ContextPoint(id=joint_id(x_id, a, K)) for a in range(K)]
        if h is not None:
            preds = np.array([regressor.klass.evaluate(h, p) for p in joint_points])
        else:
            preds = np.array([regressor.predict(p) for p in joint_points])
        if np.any((preds < 0.0) | (preds > 1.0)):
            logger.warning("round %d: regressor prediction outside [0, 1]; clamping", t)
            preds = np.clip(preds, 0.0, 1.0)
        if K == 1:
            p = np.array([1.0])
            action = 0
        else:
            p = action_rule(preds, gamma)
            action = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
            action = min(action, K - 1)
        row_losses = loss_sampler(x_id, rng)
        regressor.observe(joint_points[action], float(row_losses[action]))
        x_ids[t - 1], actions[t - 1] = x_id, action
        predictions[t - 1], distributions[t - 1], losses[t - 1] = preds, p, row_losses

    rows = np.arange(T)
    observed = losses[rows, actions]
    # against the policy that plays argmin_a f*(x, a) each round
    best_cb = float(losses[rows, np.argmin(f_star[x_ids], axis=1)].sum())
    reg_cb = float(observed.sum()) - best_cb
    learner_sq = float(((predictions[rows, actions] - observed) ** 2).sum())
    values = regressor.klass.evaluate_block(ContextBlock(ids=joint_id(x_ids, actions, K)))
    best_sq = float((((values - observed[None, :]) ** 2).sum(axis=1)).min())
    return BanditResult(x_ids, actions, predictions, distributions, losses,
                        reg_cb, learner_sq - best_sq, gamma, regressor.oracle.calls)


# ---------------------------------------------------------------------------
# Config-driven entry point (CLI `bandit` subcommand)
# ---------------------------------------------------------------------------

REGRESSORS = ("ftpl-dual", "relax-general")


def build_bandit_pieces(raw: dict, seed: int):
    """Assemble (adversary, regressor, f_star, gamma) for one seeded bandit run."""
    from .adversaries import IidAdversary, tilted_smooth_probs, rademacher_labels
    from .core import SmoothnessCertificate, make_rng
    from .ftpl import FtplLearner, schedule
    from .harness import ConfigError
    from .oracle import ErmOracle
    from .relaxation import RelaxGeneralLearner

    try:
        K = int(raw["K"])
        sigma = float(raw["sigma"])
        T = int(raw["T"])
        regressor_name = raw.get("regressor", "ftpl-dual")
        atoms = int(raw.get("ground", {}).get("atoms", 16))
        class_spec = raw.get("class", {"type": "random_product", "H": 4})
        f_star_index = int(raw.get("f_star_index", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad bandit config: {exc}") from exc
    if regressor_name not in REGRESSORS:
        raise ConfigError(f"unknown regressor {regressor_name!r}; valid: {REGRESSORS}")
    if not (0.0 < sigma <= 1.0) or T < 1 or K < 1 or atoms < 1:
        raise ConfigError("bad bandit config: K, T, sigma, atoms out of range")

    ground_x = GroundSet.grid(atoms)
    mu_x = FiniteMeasure.uniform(ground_x)
    try:
        if class_spec.get("type", "random_product") == "random_product":
            H = int(class_spec.get("H", 4))
            class_rng = make_rng(int(raw.get("class_seed", 7)), 9)
            values = class_rng.random((H, atoms, K))
        else:
            values = np.asarray(class_spec["values"], dtype=float)
        klass = product_class(values)
        if values.shape[1:] != (atoms, K):
            raise ValueError(f"values must be (H, {atoms}, {K}), got {values.shape}")
        f_star = values[f_star_index]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad bandit class: {exc}") from exc

    adversary_rng = make_rng(seed, 0)
    p = mu_x.probs.copy() if sigma >= 1.0 else tilted_smooth_probs(mu_x.probs, sigma)
    adversary = IidAdversary(SmoothnessCertificate(sigma=sigma, mu=mu_x),
                             rademacher_labels(), adversary_rng, p=p)

    sigma_joint = compose_smoothness(sigma, K)
    mu_joint = product_measure(mu_x, K)
    oracle = ErmOracle(klass, square_loss())
    learner_rng = make_rng(seed, 1)
    if regressor_name == "ftpl-dual":
        sched = schedule(T, sigma_joint, L=2.0, variant="dual")
        regressor = FtplLearner("dual", klass, square_loss(), mu_joint, sched,
                                oracle, learner_rng, label_range=(0.0, 1.0))
    else:
        regressor = RelaxGeneralLearner(klass, square_loss(), mu_joint, T,
                                        sigma_joint, oracle, learner_rng,
                                        k=raw.get("k"))
    gamma = raw.get("gamma")
    if gamma is None:
        gamma = default_gamma(T, K, sigma, L=2.0, n_hypotheses=len(klass))
    return adversary, regressor, f_star, float(gamma), K, T


def run_bandit_experiment(raw: dict) -> dict:
    """All seeds of a bandit config; returns (and optionally persists) a summary."""
    from .core import make_rng
    from .harness import ConfigError

    seeds = [int(s) for s in raw.get("seeds", [0])]
    if not seeds:
        raise ConfigError("seeds must be nonempty")
    per_seed = []
    for seed in seeds:
        adversary, regressor, f_star, gamma, K, T = build_bandit_pieces(raw, seed)
        result = run_square_cb(adversary, regressor, K, T, f_star, gamma,
                               make_rng(seed, 2))
        per_seed.append({
            "seed": seed,
            "reg_cb": result.reg_cb,
            "reg_sq": result.reg_sq,
            "gamma": result.gamma,
            "oracle_calls": result.oracle_calls,
        })
    reg_cbs = np.array([r["reg_cb"] for r in per_seed])
    summary = {
        "per_seed": per_seed,
        "aggregate": {
            "mean_reg_cb": float(reg_cbs.mean()),
            "std_reg_cb": float(reg_cbs.std(ddof=1)) if len(reg_cbs) > 1 else 0.0,
            "mean_reg_sq": float(np.mean([r["reg_sq"] for r in per_seed])),
        },
        "config": raw,
    }
    out_dir = raw.get("output_dir")
    if out_dir:
        from pathlib import Path
        import json

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bandit_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
