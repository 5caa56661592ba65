import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from smoothol.adversaries import tilted_smooth_probs
from smoothol.core import FiniteMeasure, GroundSet, SmoothnessViolation, make_rng
from smoothol.coupling import CouplingConfig, concentrated_p, validate_coupling


@dataclass
class CouplingDraw:
    x: int | float
    candidates: np.ndarray
    accepted: np.ndarray  # indices into candidates
    hit: bool


def couple_round(density_ratio: Callable[[np.ndarray], np.ndarray], sigma: float, k: int,
                 mu_sampler: Callable[[np.random.Generator, int], np.ndarray],
                 fallback_p_sampler: Callable[[np.random.Generator], int | float],
                 rng: np.random.Generator) -> CouplingDraw:
    """One coupled draw, round by round: the scalar reference for the batched
    ``coupling._couple_trials``.

    ``density_ratio`` is the (vectorized) dp/dmu, valued in [0, 1/sigma];
    ``mu_sampler(rng, n)`` returns n base-measure samples; the fallback
    sampler draws a single point from p itself.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    z = mu_sampler(rng, k)
    ratios = np.asarray(density_ratio(z), dtype=np.float64)
    if np.any(ratios > 1.0 / sigma + 1e-9):
        raise SmoothnessViolation("smoothness violated")
    accept_probs = np.clip(sigma * ratios, 0.0, 1.0)
    accepted = np.flatnonzero(rng.random(k) < accept_probs)
    if len(accepted):
        pick = accepted[int(rng.integers(len(accepted)))]
        return CouplingDraw(x=z[pick], candidates=z, accepted=accepted, hit=True)
    return CouplingDraw(x=fallback_p_sampler(rng), candidates=z,
                        accepted=accepted, hit=False)


def _uniform(n):
    return FiniteMeasure.uniform(GroundSet(size=n))


def _samplers(mu_probs, p_probs):
    mu_cdf = np.cumsum(mu_probs)
    p_cdf = np.cumsum(p_probs)

    def mu_sampler(rng, size):
        return np.searchsorted(mu_cdf, rng.random(size), side="right")

    def fallback(rng):
        return int(np.searchsorted(p_cdf, rng.random(), side="right"))

    return mu_sampler, fallback


def test_sigma_one_always_hits():
    mu = _uniform(6)
    ratio = lambda z: np.ones(len(z))
    mu_sampler, fallback = _samplers(mu.probs, mu.probs)
    rng = make_rng(0, 0)
    for _ in range(200):
        draw = couple_round(ratio, 1.0, 3, mu_sampler, fallback, rng)
        assert draw.hit
        assert draw.x in draw.candidates[draw.accepted]


def test_k_zero_always_falls_back():
    mu = _uniform(5)
    mu_sampler, fallback = _samplers(mu.probs, mu.probs)
    draw = couple_round(lambda z: np.ones(len(z)), 0.5, 0, mu_sampler, fallback,
                        make_rng(1, 0))
    assert not draw.hit
    assert len(draw.accepted) == 0


def test_density_ratio_above_bound_is_rejected():
    mu = _uniform(4)
    mu_sampler, fallback = _samplers(mu.probs, mu.probs)
    with pytest.raises(SmoothnessViolation, match="smoothness violated"):
        couple_round(lambda z: np.full(len(z), 5.0), 0.5, 3, mu_sampler, fallback,
                     make_rng(2, 0))


@pytest.mark.parametrize("p, match", [
    ([0.9, 0.05, 0.05, 0.0], "density 2.25 .*1/sigma = 2$"),
    ([0.25, 0.25, 0.25, 0.25], "off the support"),
])
def test_validate_coupling_refuses_a_p_that_is_not_smooth(p, match):
    mu = np.array([0.4, 0.3, 0.3, 0.0])
    cfg = CouplingConfig(mu, np.array(p), 0.5, 2)
    with pytest.raises(SmoothnessViolation, match=match):
        validate_coupling(cfg, 1000, make_rng(3, 1))


def test_validate_coupling_needs_enough_trials():
    mu = _uniform(4)
    cfg = CouplingConfig(mu.probs, mu.probs, 1.0, 2)
    with pytest.raises(ValueError, match="insufficient trials"):
        validate_coupling(cfg, 999, make_rng(3, 0))


def test_sigma_one_report_is_clean():
    mu = _uniform(10)
    cfg = CouplingConfig(mu.probs, mu.probs, 1.0, 3)
    report = validate_coupling(cfg, 100_000, make_rng(4, 0))
    assert report.miss_rate == 0.0
    assert report.x_marginal_pvalue > 0.01
    assert report.z_marginal_pvalue > 0.01


def test_miss_rate_tracks_exact_bound():
    mu = _uniform(10)
    p = tilted_smooth_probs(mu.probs, 0.3)
    cfg = CouplingConfig(mu.probs, p, 0.3, 10)
    report = validate_coupling(cfg, 100_000, make_rng(5, 0))
    bound = (1 - 0.3) ** 10
    slack = 3 * np.sqrt(bound / report.trials)
    assert report.miss_rate <= bound + slack


def test_x_marginal_matches_p_exactly_in_distribution():
    mu = _uniform(10)
    p = tilted_smooth_probs(mu.probs, 0.5)
    cfg = CouplingConfig(mu.probs, p, 0.5, 4)
    report = validate_coupling(cfg, 100_000, make_rng(6, 0))
    assert report.x_marginal_pvalue > 0.01
    assert report.z_marginal_pvalue > 0.01


def test_marginals_pass_across_twenty_seeded_configurations():
    rng_master = make_rng(7, 0)
    failures = 0
    for i in range(20):
        n = int(rng_master.integers(5, 14))
        sigma = float(rng_master.choice([0.25, 0.4, 0.6, 0.8, 1.0]))
        k = int(rng_master.integers(1, 9))
        mu = _uniform(n)
        p = tilted_smooth_probs(mu.probs, sigma, beta=float(rng_master.uniform(0.1, 0.6)))
        cfg = CouplingConfig(mu.probs, p, sigma, k)
        report = validate_coupling(cfg, 20_000, make_rng(70 + i, 0))
        if report.x_marginal_pvalue <= 0.01 or report.z_marginal_pvalue <= 0.01:
            failures += 1
    assert failures == 0


def test_tightness_of_concentrated_construction():
    mu = _uniform(10)
    sigma, k = 0.5, 2
    p = concentrated_p(mu, sigma)
    # density is exactly 1/sigma on a mu-mass-sigma set
    support = p > 0
    assert np.allclose(p[support] / mu.probs[support], 1 / sigma)
    cfg = CouplingConfig(mu.probs, p, sigma, k)
    report = validate_coupling(cfg, 100_000, make_rng(8, 0))
    bound = (1 - sigma) ** k
    slack = 3 * np.sqrt(bound / report.trials)
    assert bound - slack <= report.miss_rate <= bound + slack


def test_scalar_couple_round_matches_construction_statistics():
    """The per-round API reproduces the hit probability 1 - (1-sigma)^k."""
    mu = _uniform(8)
    sigma, k = 0.4, 3
    p = concentrated_p(mu, sigma)
    ratio_table = np.zeros(8)
    support = p > 0
    ratio_table[support] = p[support] / mu.probs[support]
    mu_sampler, fallback = _samplers(mu.probs, p)
    rng = make_rng(9, 0)
    hits = sum(
        couple_round(lambda z: ratio_table[z], sigma, k, mu_sampler, fallback, rng).hit
        for _ in range(20_000)
    )
    target = 1 - (1 - sigma) ** k
    se = np.sqrt(target * (1 - target) / 20_000)
    assert abs(hits / 20_000 - target) <= 4 * se


def test_cli_import_does_not_load_scipy():
    """scipy is imported by validate_coupling alone, so run/sweep/bandit never pay for it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, smoothol.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
