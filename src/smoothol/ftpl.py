"""Proper follow-the-perturbed-leader learners with Gaussian-process perturbations.

The perturbation is a Gaussian process over the class, approximated through
anchor points sampled from the base measure:

    omega(f)  = (1/sqrt n) sum_i gamma_i f(Z_i)          (normalized)
    omega'(f) = sum_j gamma'_j l(f(Z'_j), y'_j)           (unnormalized, label anchors)

with gamma i.i.d. standard normal and label anchors y'_j uniform on an
epsilon-grid.  Each round the learner draws fresh perturbations and commits,
via a single weighted ERM call, to the hypothesis minimizing running loss plus
perturbation -- before the round's context is revealed.

Three variants ship, differing in which processes they add and how they are
scaled; ``schedule`` returns each variant's parameter choices as a function of
the horizon, smoothness, Lipschitz constant and class-complexity exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ContextBlock,
    ContextPoint,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    LossFunction,
    TableClass,
)
from .oracle import IDENTITY, MAIN, ErmOracle, ErmQuery

__all__ = [
    "epsilon_grid",
    "GaussianPerturbation",
    "draw_perturbation",
    "omega_values",
    "FtplSchedule",
    "schedule",
    "ftpl_select_classification",
    "ftpl_select_dual",
    "ftpl_select_single",
    "FtplLearner",
    "with_anchor_point",
]


def epsilon_grid(eps: float, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """The label grid eps*Z intersected with [lo, hi].

    Both endpoints join the grid when eps divides the interval width exactly,
    so eps = 2 on [-1, 1] yields {-1, 0, 1} rather than the bare {0}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ks_lo = math.ceil(lo / eps - 1e-12)
    ks_hi = math.floor(hi / eps + 1e-12)
    points = [k * eps for k in range(ks_lo, ks_hi + 1)]
    width = hi - lo
    if abs(width / eps - round(width / eps)) < 1e-12:
        points.extend([lo, hi])
    grid = np.unique(np.clip(np.array(sorted(set(np.round(points, 15)))), lo, hi))
    return grid


@dataclass
class GaussianPerturbation:
    """Anchor points with standard-normal coefficients; labels present for omega'."""

    contexts: ContextBlock
    coeffs: np.ndarray
    normalization: str = "inv_sqrt_n"  # "inv_sqrt_n" | "none"
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.normalization not in ("inv_sqrt_n", "none"):
            raise ValueError("normalization must be inv_sqrt_n or none")
        if len(self.coeffs) != len(self.contexts):
            raise ValueError("one coefficient per anchor")
        if self.labels is not None and len(self.labels) != len(self.contexts):
            raise ValueError("one label per anchor")
        if self.labels is not None and self.normalization == "inv_sqrt_n":
            raise ValueError("label-anchor processes are unnormalized")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def scale(self) -> float:
        if self.normalization == "none" or self.n == 0:
            return 1.0
        return 1.0 / math.sqrt(self.n)


def draw_perturbation(mu, n: int, rng: np.random.Generator,
                      normalization: str = "inv_sqrt_n",
                      eps: Optional[float] = None,
                      label_range: tuple[float, float] = (-1.0, 1.0),
                      ) -> GaussianPerturbation:
    """Fresh anchors from mu with N(0,1) coefficients; eps adds grid labels."""
    contexts = mu.sample_block(rng, n)
    coeffs = rng.standard_normal(n)
    labels = None
    if eps is not None:
        grid = epsilon_grid(eps, *label_range)
        labels = grid[rng.integers(0, len(grid), size=n)]
    return GaussianPerturbation(contexts, coeffs, normalization, labels)


def omega_values(pert: GaussianPerturbation, klass: HypothesisClass,
                 loss: Optional[LossFunction] = None) -> np.ndarray:
    """Per-hypothesis perturbation value, by direct evaluation over the class.

    With labels and a loss this is omega'(f) = sum_j gamma_j l(f(Z_j), y_j);
    otherwise omega(f) = scale * sum_i gamma_i f(Z_i).
    """
    if pert.labels is not None:
        if loss is None:
            raise ValueError("label anchors need a loss")
        values = klass.evaluate_block(pert.contexts)
        return loss.evaluate_array(values, pert.labels[None, :]) @ pert.coeffs
    return pert.scale * klass.identity_dot(pert.contexts, pert.coeffs)


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------

VARIANTS = ("classification", "dual", "single")


@dataclass(frozen=True)
class FtplSchedule:
    variant: str
    eta: float
    n: int
    m: Optional[int] = None
    epsilon: Optional[float] = None
    zeta: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.eta < 0 or self.n < 1 or self.zeta < 0 or (
                self.epsilon is not None and not self.epsilon > 0):
            raise ValueError("schedule parameters out of range")
        if self.variant == "single":
            if abs(self.eta - math.sqrt(self.n)) > 1e-9:
                raise ValueError("single variant couples eta = sqrt(n)")


def _ceil(x: float) -> int:
    return int(math.ceil(x - 1e-9))


def schedule(T: int, sigma: float, L: float = 1.0, d_or_p: Optional[float] = None,
             variant: str = "classification", zeta: float = 0.0) -> FtplSchedule:
    """Default parameter choices per variant.

    classification: eta = sqrt(T log(T L / sigma) / sigma), n = ceil(T / sqrt(sigma)).
    dual (complexity exponent p < 2 or None): eta = T^{2/3} sigma^{-1/3},
        n = ceil(sqrt(T / sigma)), eps = T^{-1/3}; for p >= 2: n = T,
        eps = (sigma T)^{-1/(p+1)}, eta = T^{2/p}.  m defaults to n.
    single: eta = T^{5/12} sigma^{-1/4} with n = eta^2 (eta re-derived as
        sqrt(n) after rounding so the eta/sqrt(n) = 1 coupling is exact),
        eps = T^{-3/4} sigma^{-1/4}.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not (0.0 < sigma <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    if variant == "classification":
        # log floored at zero so degenerate horizons fall back to plain FTL
        log_term = max(math.log(T * L / sigma), 0.0)
        eta = math.sqrt(T * log_term / sigma)
        return FtplSchedule("classification", eta=eta, n=_ceil(T / math.sqrt(sigma)),
                            zeta=zeta)
    if variant == "dual":
        p = d_or_p
        if p is not None and p >= 2.0:
            n = T
            eps = (sigma * T) ** (-1.0 / (p + 1.0))
            eta = T ** (2.0 / p)
        else:
            eta = T ** (2.0 / 3.0) * sigma ** (-1.0 / 3.0)
            n = _ceil(math.sqrt(T / sigma))
            eps = T ** (-1.0 / 3.0)
        return FtplSchedule("dual", eta=eta, n=n, m=n, epsilon=eps, zeta=zeta)
    if variant == "single":
        eta0 = T ** (5.0 / 12.0) * sigma ** (-0.25)
        n = _ceil(eta0 ** 2)
        eps = T ** (-0.75) * sigma ** (-0.25)
        return FtplSchedule("single", eta=math.sqrt(n), n=n, epsilon=eps, zeta=zeta)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Selection rules (one oracle call each)
# ---------------------------------------------------------------------------

def _finish(query: ErmQuery, oracle: ErmOracle, zeta: float,
            rng: Optional[np.random.Generator]) -> int:
    if zeta > 0:
        return oracle.approximate(query, zeta, rng).hypothesis_index
    return oracle.exact(query).hypothesis_index


def ftpl_select_classification(pert: GaussianPerturbation, eta: float,
                               oracle: ErmOracle, zeta: float = 0.0,
                               rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f), one oracle call.

    L(f) is the running loss held in the oracle's history prefix (a partial
    objective); the perturbation enters as identity rows.
    """
    if pert.normalization != "inv_sqrt_n" or pert.labels is not None:
        raise ValueError("classification variant uses the normalized, label-free process")
    query = ErmQuery().add_partial(oracle.prefix)
    query.add_block(IDENTITY, pert.contexts, np.zeros(pert.n), eta * pert.scale * pert.coeffs)
    return _finish(query, oracle, zeta, rng)


def ftpl_select_dual(pert_m: GaussianPerturbation, pert_n: GaussianPerturbation,
                     eta: float, oracle: ErmOracle, zeta: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f) + omega'(f), one oracle call; L(f) from the prefix."""
    if pert_m.normalization != "inv_sqrt_n" or pert_m.labels is not None:
        raise ValueError("first process must be normalized and label-free")
    if pert_n.normalization != "none" or pert_n.labels is None:
        raise ValueError("second process must be unnormalized with label anchors")
    query = ErmQuery().add_partial(oracle.prefix)
    query.add_block(IDENTITY, pert_m.contexts, np.zeros(pert_m.n),
                    eta * pert_m.scale * pert_m.coeffs)
    query.add_block(MAIN, pert_n.contexts, pert_n.labels, pert_n.coeffs)
    return _finish(query, oracle, zeta, rng)


def ftpl_select_single(pert: GaussianPerturbation, eta_over_sqrt_n: float,
                       oracle: ErmOracle, zeta: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + (eta/sqrt n) * omega'(f), one oracle call; L(f) from the prefix."""
    if pert.normalization != "none" or pert.labels is None:
        raise ValueError("single variant uses the unnormalized label-anchor process")
    query = ErmQuery().add_partial(oracle.prefix)
    query.add_block(MAIN, pert.contexts, pert.labels, eta_over_sqrt_n * pert.coeffs)
    return _finish(query, oracle, zeta, rng)


# ---------------------------------------------------------------------------
# Learner wrapper
# ---------------------------------------------------------------------------

class FtplLearner:
    """Proper learner: commits to a hypothesis before each round's context arrives."""

    proper = True

    def __init__(self, variant: str, klass: HypothesisClass, loss: LossFunction, mu,
                 sched: FtplSchedule, oracle: ErmOracle, rng: np.random.Generator):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; valid: {VARIANTS}")
        if variant == "classification" and klass.kind != "binary":
            raise ValueError("classification variant needs a binary class")
        if variant in ("dual", "single") and sched.epsilon is None:
            raise ValueError(f"{variant} variant needs epsilon in its schedule")
        self.variant = variant
        self.klass = klass
        self.loss = loss
        self.mu = mu
        self.sched = sched
        self.oracle = oracle
        self.rng = rng
        self.selected: Optional[int] = None

    def select(self) -> int:
        """Draw fresh perturbations and commit to this round's hypothesis."""
        s = self.sched
        if self.variant == "classification":
            pert = draw_perturbation(self.mu, s.n, self.rng)
            idx = ftpl_select_classification(pert, s.eta, self.oracle, s.zeta, self.rng)
        elif self.variant == "dual":
            pert_m = draw_perturbation(self.mu, s.m or s.n, self.rng)
            pert_n = draw_perturbation(self.mu, s.n, self.rng, normalization="none",
                                       eps=s.epsilon, label_range=self.loss.domain)
            idx = ftpl_select_dual(pert_m, pert_n, s.eta, self.oracle, s.zeta, self.rng)
        else:
            pert = draw_perturbation(self.mu, s.n, self.rng, normalization="none",
                                     eps=s.epsilon, label_range=self.loss.domain)
            idx = ftpl_select_single(pert, s.eta / math.sqrt(s.n), self.oracle,
                                     s.zeta, self.rng)
        self.selected = idx
        return idx

    def predict(self, x_t: ContextPoint) -> float:
        if self.selected is None:
            raise RuntimeError("select() must run before the context is revealed")
        return self.klass.evaluate(self.selected, x_t)

    def observe(self, context: ContextPoint, label: float) -> None:
        self.oracle.extend_prefix(context, label)
        self.selected = None


def with_anchor_point(klass: TableClass, mu: FiniteMeasure,
                      ) -> tuple[TableClass, FiniteMeasure]:
    """Append a point where every hypothesis equals 1 and reweight the base measure.

    The new measure is (1/3) mu + (2/3) delta_{x*}, which lower-bounds every
    hypothesis norm under empirical anchor measures.  Off by default; the
    stability tests switch it on.
    """
    values = np.hstack([klass.values, np.ones((len(klass), 1))])
    old_ground = klass.ground
    coords = None
    if old_ground.coords is not None:
        # keep coordinates valid; park x* at an arbitrary interior point
        coords = np.concatenate([old_ground.coords, [0.5]])
    ground = GroundSet(size=old_ground.size + 1, coords=coords)
    new_klass = TableClass(values, ground=ground, kind=klass.kind)
    probs = np.concatenate([mu.probs / 3.0, [2.0 / 3.0]])
    return new_klass, FiniteMeasure(ground, probs)
