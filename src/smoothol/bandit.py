"""Smoothed contextual bandits: SquareCB's inverse-gap weighting over an online regressor.

The regressor, one of this package's learners, runs with square loss on the product class
over (context, action) pairs, which are sigma/K-smooth with respect to mu x Unif([K]); it
makes one ``predictions`` call per round.  Outputs are those of drawing and computing
everything round by round.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BLOCK, ContextBlock, Trajectory, finalize_regret, joint_id, make_rng, square_loss
from .harness import ExperimentConfig, build_pieces, clear_output, write_outputs

logger = logging.getLogger(__name__)

__all__ = [
    "igw_distribution",
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


def default_gamma(T: int, sigma: float, L: float = 2.0, *,
                  n_hypotheses: int) -> float:
    """gamma = 12 log(T) sqrt(T sigma / (L * R_hat)).

    R_hat is the finite-class bound sqrt(2 T log H); L = 2 is the square-loss
    Lipschitz constant on [0, 1].
    """
    rademacher_proxy = math.sqrt(2.0 * T * math.log(max(n_hypotheses, 2)))
    return 12.0 * math.log(max(T, 2)) * math.sqrt(T * sigma / (L * rademacher_proxy))


# ---------------------------------------------------------------------------
# The reduction
# ---------------------------------------------------------------------------

@dataclass
class BanditResult:
    """The regressor's rounds, and the regrets read from them.

    Round t is the trajectory's row t - 1: its context is the chosen (x, a)
    pair, its label the observed loss and its prediction the predicted loss
    of a, clamped to [0, 1].
    """

    trajectory: Trajectory
    reg_cb: float
    reg_sq: float


def run_square_cb(context_adversary, regressor, K: int, T: int,
                  f_star: np.ndarray, gamma: float,
                  rng: np.random.Generator) -> BanditResult:
    """SquareCB with a plugged-in online square-loss regressor over the product class.

    ``context_adversary`` yields sigma-smooth contexts over a finite ground set;
    ``f_star`` is the (N, K) conditional-mean loss table, realizable inside the
    regressor's class; losses are Bernoulli(f*(x, a)).  Actions are drawn by
    inverse-gap weighting of the round's K predicted losses.  A proper regressor (FTPL)
    plays each 64-round block in one ``play_adaptive`` call; an improper one
    (``relax-general``) predicts and observes round by round, through the same body.
    """
    if K < 1:
        raise ValueError("K must be positive")

    traj, loss = Trajectory(T), square_loss()
    means = f_star.tolist()
    greedy = np.argmin(f_star, axis=1).tolist()  # reg_cb's comparator policy
    laws: dict = {}  # (h, x) -> _action_law of a proper regressor's h at x: at most H * N
    reg_cb = 0.0
    all_actions = np.arange(K)
    width = K + (K > 1)  # a round's uniforms: its action's (if K > 1), then one per action's loss

    def play(h: Optional[int]) -> tuple[int, float]:
        """The block's next round under hypothesis h (None: an improper regressor's): its
        action, observed loss and record row; returns the chosen pair and its loss."""
        nonlocal reg_cb
        t, u, x = next(todo)
        law = laws.get((h, x))  # an improper regressor's predictions are never stored
        if law is None:
            preds = regressor.predictions(ContextBlock(ids=joint_id(x, all_actions, K)))
            law = _action_law(preds, gamma)
            if h is not None:
                laws[h, x] = law
        preds, cdf, clamped = law
        if clamped:
            logger.warning("round %d: regressor prediction outside [0, 1]; clamping", t)
        action = 0 if cdf is None else min(bisect_right(cdf, u[0]), K - 1)
        losses_u, mean = u[width - K:], means[x]
        observed = 1.0 if losses_u[action] < mean[action] else 0.0
        pair = joint_id(x, action, K)
        rows.append((pair, observed, preds[action], regressor.oracle.calls))
        reg_cb += observed - (1.0 if losses_u[greedy[x]] < mean[greedy[x]] else 0.0)
        return pair, observed

    for start in range(0, T, BLOCK):
        rounds, xs = min(BLOCK, T - start), []
        while len(xs) < rounds:  # the block's contexts, by the run
            xs += context_adversary.next_run(None, rounds - len(xs))[0].ids.tolist()
        todo = zip(range(start + 1, T + 1), rng.random((rounds, width)).tolist(), xs)
        rows = []  # per round: the chosen pair, its loss, its prediction, calls
        if regressor.proper:
            regressor.play_adaptive(rounds, play)
        else:
            for _ in range(rounds):
                pair, observed = play(None)
                regressor.observe(ContextBlock(ids=np.array([pair])), observed)
        pairs, labels, predicted, calls = (np.array(c) for c in zip(*rows))
        traj.extend(ContextBlock(ids=pairs), labels, predicted,
                    loss.evaluate_array(predicted, labels), calls)

    return BanditResult(traj, reg_cb, finalize_regret(traj, regressor.klass, loss))


def _action_law(preds: np.ndarray, gamma: float) -> tuple[list, Optional[list], bool]:
    """Predicted losses clamped to [0, 1], the CDF of their inverse-gap weighting
    (None for one action), and whether any prediction needed clamping."""
    clamped = bool(np.any((preds < 0.0) | (preds > 1.0)))
    if clamped:
        preds = np.clip(preds, 0.0, 1.0)
    cdf = np.cumsum(igw_distribution(preds, gamma)).tolist() if len(preds) > 1 else None
    return preds.tolist(), cdf, clamped


# ---------------------------------------------------------------------------
# Config-driven entry point (CLI `bandit` subcommand)
# ---------------------------------------------------------------------------

def build_bandit_pieces(cfg: ExperimentConfig, seed: int):
    """(adversary, regressor, f_star, gamma) for one seed of a bandit config.

    Rng streams: adversary (seed, 0), regressor (seed, 1); the class draws
    from (class_seed, 9) and the actions from (seed, 2).
    """
    klass, loss, adversary, regressor = build_pieces(cfg, make_rng(seed, 0), make_rng(seed, 1))
    K = cfg.bandit["K"]
    f_star = klass.values[cfg.bandit["f_star_index"]].reshape(-1, K)
    gamma = cfg.bandit.get("gamma") or default_gamma(cfg.T, cfg.sigma, L=loss.lipschitz_L,
                                                     n_hypotheses=len(klass))  # gamma > 0
    return adversary, regressor, f_star, gamma


def run_bandit_experiment(raw: dict) -> dict:
    """All seeds of a bandit config; returns the summary, also written under output_dir after
    the last seed, where an earlier run's is removed before the first."""
    cfg = ExperimentConfig.from_dict(raw, bandit=True)
    clear_output(cfg, "bandit_summary.json")
    per_seed = []
    for seed in cfg.seeds:
        adversary, regressor, f_star, gamma = build_bandit_pieces(cfg, seed)
        result = run_square_cb(adversary, regressor, cfg.bandit["K"], cfg.T, f_star, gamma,
                               make_rng(seed, 2))
        per_seed.append({
            "seed": seed,
            "reg_cb": result.reg_cb,
            "reg_sq": result.reg_sq,
            "gamma": gamma,
            "oracle_calls": int(result.trajectory.oracle_calls[-1]),
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
    write_outputs(cfg, "bandit_summary.json", summary)
    return summary
