"""Constructive coupling between a smooth draw and i.i.d. candidates from the base measure.

One round works as follows: draw Z_1..Z_k i.i.d. from mu, accept each Z_j
independently with probability sigma * (dp/dmu)(Z_j) (a number in [0, 1] by
smoothness), and set x to a uniform pick among the accepted candidates; if
none were accepted, fall back to an independent draw from p.  Then x ~ p
exactly, the Z_j stay i.i.d. mu, and the fallback fires with probability
(1 - sigma)^k.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import FiniteMeasure, density_ratio

__all__ = ["CouplingConfig", "CouplingReport", "validate_coupling"]


@dataclass(frozen=True)
class CouplingConfig:
    """Finite-ground-set coupling instance: mu and p as probability vectors."""

    mu_probs: np.ndarray
    p_probs: np.ndarray
    sigma: float
    k: int


@dataclass
class CouplingReport:
    x_marginal_pvalue: float
    z_marginal_pvalue: float
    miss_rate: float
    bound: float
    trials: int

    def to_dict(self) -> dict:
        return asdict(self)


def _couple_trials(config: CouplingConfig, trials: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized batch of coupled rounds; returns (x ids, Z ids, hit flags)."""
    ratio = density_ratio(config.p_probs, config.mu_probs, config.sigma)
    mu_cdf = np.cumsum(config.mu_probs)
    mu_cdf[-1] = 1.0
    p_cdf = np.cumsum(config.p_probs)
    p_cdf[-1] = 1.0

    z = np.searchsorted(mu_cdf, rng.random((trials, config.k)), side="right")
    accept = rng.random((trials, config.k)) < np.clip(config.sigma * ratio[z], 0.0, 1.0)
    counts = accept.sum(axis=1)
    hit = counts > 0

    xs = np.empty(trials, dtype=np.int64)
    # uniform pick among accepted candidates: index the r-th accepted column
    r = (rng.random(trials) * np.maximum(counts, 1)).astype(np.int64)
    rows = np.flatnonzero(hit)
    if len(rows):  # with k = 0 no row hits, and there is no column to take argmax over
        pick_col = np.argmax(np.cumsum(accept[rows], axis=1) > r[rows, None], axis=1)
        xs[rows] = z[rows, pick_col]
    misses = np.flatnonzero(~hit)
    xs[misses] = np.searchsorted(p_cdf, rng.random(len(misses)), side="right")
    return xs, z, hit


def validate_coupling(config: CouplingConfig, trials: int,
                      rng: np.random.Generator) -> CouplingReport:
    """Goodness-of-fit checks for both marginals plus the empirical miss rate.

    Chi-square p-values compare the x sample to p and the pooled candidate
    sample to mu; ``bound`` is the exact per-round miss probability
    (1 - sigma)^k.  scipy is imported here, not at module level, so that
    ``run``, ``sweep`` and ``bandit`` never load it.
    """
    from scipy import stats

    if trials < 1000:
        raise ValueError(f"insufficient trials: need at least 1000, not {trials}")
    xs, z, hit = _couple_trials(config, trials, rng)
    n = len(config.mu_probs)

    x_counts = np.bincount(xs, minlength=n)
    p_support = config.p_probs > 0
    if np.any(x_counts[~p_support] > 0):
        x_pvalue = 0.0
    else:
        expected = config.p_probs[p_support] * trials
        x_pvalue = float(stats.chisquare(x_counts[p_support], expected).pvalue)

    z_counts = np.bincount(z.ravel(), minlength=n)
    mu_support = config.mu_probs > 0
    if np.any(z_counts[~mu_support] > 0) or config.k == 0:
        z_pvalue = 0.0 if config.k > 0 else 1.0
    else:
        expected = config.mu_probs[mu_support] * trials * config.k
        z_pvalue = float(stats.chisquare(z_counts[mu_support], expected).pvalue)

    miss_rate = float(1.0 - hit.mean())
    bound = (1.0 - config.sigma) ** config.k
    return CouplingReport(x_pvalue, z_pvalue, miss_rate, bound, trials)


def concentrated_p(mu: FiniteMeasure, sigma: float) -> np.ndarray:
    """The tight construction: p = (1/sigma) * mu restricted to a set of mu-mass sigma.

    Greedily fills atoms until mass sigma is reached (the last atom may be
    partial), so the density ratio equals 1/sigma on the support.
    """
    probs = np.zeros(mu.ground.size)
    remaining = sigma
    for i, m in enumerate(mu.probs):
        take = min(m, remaining)
        probs[i] = take / sigma
        remaining -= take
        if remaining <= 1e-15:
            break
    if remaining > 1e-12:
        raise ValueError("mu has insufficient mass")
    return probs
