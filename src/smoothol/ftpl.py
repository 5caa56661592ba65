"""Proper follow-the-perturbed-leader learners with Gaussian-process perturbations.

The perturbation is a Gaussian process over the class, approximated through
anchor points sampled from the base measure:

    omega(f)  = (1/sqrt n) sum_i gamma_i f(Z_i)          (normalized)
    omega'(f) = sum_j gamma'_j l(f(Z'_j), y'_j)           (unnormalized, label anchors)

with gamma i.i.d. standard normal and label anchors y'_j uniform on an
epsilon-grid.  The processes see the anchors only through the sum of gamma
over each cell of the class's cell measure (each (cell, label) pair for
omega'), and given the cell counts n_c ~ Multinomial(n, mu) that sum is
N(0, n_c); so a process is drawn as one multinomial and one normal per cell,
with the same law, whenever there are fewer cells than anchors.  Each round
the learner draws fresh perturbations and commits, via a single weighted ERM
call, to the hypothesis minimizing running loss plus perturbation -- before
the round's context is revealed.  The oracle holds the running loss as its
history, so the call's query is the perturbation's row blocks alone.

Three variants ship, differing in which processes they add and how they are
scaled; ``schedule`` returns each variant's parameter choices as a function of
the horizon, smoothness, Lipschitz constant and class-complexity exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MAX_DRAWS, ContextBlock, HypothesisClass, LossFunction
from .oracle import IDENTITY, MAIN, ErmOracle, ErmQuery

__all__ = [
    "epsilon_grid",
    "GaussianPerturbation",
    "fewer_cells",
    "draw_perturbation",
    "FtplSchedule",
    "schedule",
    "ftpl_select_classification",
    "ftpl_select_dual",
    "ftpl_select_single",
    "FtplLearner",
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
    """n anchors as contexts with normal coefficients; labels present for omega'.

    Drawn per anchor there is one context per anchor with an N(0, 1)
    coefficient; drawn per cell there is one context per cell with the
    cell's summed coefficients, N(0, n_c) given its anchor count n_c.
    """

    contexts: ContextBlock
    coeffs: np.ndarray
    normalization: str = "inv_sqrt_n"  # "inv_sqrt_n" | "none"
    labels: Optional[np.ndarray] = None
    n: Optional[int] = None  # anchors drawn; defaults to one per context

    def __post_init__(self):
        if self.normalization not in ("inv_sqrt_n", "none"):
            raise ValueError("normalization must be inv_sqrt_n or none")
        if len(self.coeffs) != len(self.contexts):
            raise ValueError("one coefficient per context")
        if self.labels is not None and len(self.labels) != len(self.contexts):
            raise ValueError("one label per context")
        if self.labels is not None and self.normalization == "inv_sqrt_n":
            raise ValueError("label-anchor processes are unnormalized")
        if self.n is None:
            self.n = len(self.coeffs)
        if self.n < 0:
            raise ValueError("anchor count must be nonnegative")

    @property
    def scale(self) -> float:
        if self.normalization == "none" or self.n == 0:
            return 1.0
        return 1.0 / math.sqrt(self.n)


def fewer_cells(cells, n: int, grid: Optional[np.ndarray] = None) -> bool:
    """Whether the finite measure ``cells`` has fewer (cell, grid label) pairs than n."""
    return cells.finite and cells.ground.size * (1 if grid is None else len(grid)) < n


def draw_perturbation(mu, n: int, rng: np.random.Generator,
                      normalization: str = "inv_sqrt_n",
                      eps: Optional[float] = None,
                      grid: Optional[np.ndarray] = None,
                      per_cell: Optional[bool] = None) -> GaussianPerturbation:
    """n anchors from mu with N(0,1) coefficients; eps (or a built ``grid``) adds labels.

    Per cell, the atoms of the finite mu (times the grid labels) are the cells:
    one ``rng.multinomial(n, cell masses)`` and one standard normal z_c per
    cell give the coefficient sqrt(n_c) * z_c.  Per anchor, every anchor is
    drawn from mu.  ``per_cell`` defaults to ``fewer_cells(mu, n, grid)``.
    """
    if grid is None and eps is not None:
        grid = epsilon_grid(eps)
    if per_cell is None:
        per_cell = fewer_cells(mu, n, grid)
    if not per_cell:
        contexts = mu.sample_block(rng, n)
        coeffs = rng.standard_normal(n)
        labels = None if grid is None else grid[rng.integers(0, len(grid), size=n)]
        return GaussianPerturbation(contexts, coeffs, normalization, labels)
    ids, probs, labels = np.arange(mu.ground.size), mu.probs, None
    if grid is not None:  # cell-major (cell, label) pairs, each of mass mu_c / |grid|
        ids, probs = np.repeat(ids, len(grid)), np.repeat(probs / len(grid), len(grid))
        labels = np.tile(grid, mu.ground.size)
    counts = rng.multinomial(n, probs)
    coeffs = np.sqrt(counts) * rng.standard_normal(len(counts))
    return GaussianPerturbation(mu.ground.block(ids), coeffs, normalization, labels, n)


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
        if not (0 <= self.eta < math.inf and 0 <= self.zeta < math.inf) or self.n < 1 or (
                self.epsilon is not None and not 0 < self.epsilon < math.inf):
            raise ValueError("schedule parameters out of range")
        if self.n > MAX_DRAWS or (self.m is not None and self.m > MAX_DRAWS):
            raise ValueError(f"anchor counts must be at most 2^63 - 1, the most draws one "
                             f"multinomial takes (n = {self.n}, m = {self.m})")
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

def ftpl_select_classification(pert: GaussianPerturbation, eta: float,
                               oracle: ErmOracle, zeta: float = 0.0,
                               rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f), one oracle call.

    L(f) is the running loss held in the oracle's history; the perturbation
    enters as identity rows.
    """
    if pert.normalization != "inv_sqrt_n" or pert.labels is not None:
        raise ValueError("classification variant uses the normalized, label-free process")
    query = ErmQuery().add_block(IDENTITY, pert.contexts, np.zeros(len(pert.coeffs)),
                                 eta * pert.scale * pert.coeffs)
    return oracle.approximate(query, zeta, rng).hypothesis_index


def ftpl_select_dual(pert_m: GaussianPerturbation, pert_n: GaussianPerturbation,
                     eta: float, oracle: ErmOracle, zeta: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f) + omega'(f), one oracle call; L(f) from the history."""
    if pert_m.normalization != "inv_sqrt_n" or pert_m.labels is not None:
        raise ValueError("first process must be normalized and label-free")
    if pert_n.normalization != "none" or pert_n.labels is None:
        raise ValueError("second process must be unnormalized with label anchors")
    query = ErmQuery().add_block(IDENTITY, pert_m.contexts, np.zeros(len(pert_m.coeffs)),
                                 eta * pert_m.scale * pert_m.coeffs)
    query.add_block(MAIN, pert_n.contexts, pert_n.labels, pert_n.coeffs)
    return oracle.approximate(query, zeta, rng).hypothesis_index


def ftpl_select_single(pert: GaussianPerturbation, eta_over_sqrt_n: float,
                       oracle: ErmOracle, zeta: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + (eta/sqrt n) * omega'(f), one oracle call; L(f) from the history."""
    if pert.normalization != "none" or pert.labels is None:
        raise ValueError("single variant uses the unnormalized label-anchor process")
    query = ErmQuery().add_block(MAIN, pert.contexts, pert.labels, eta_over_sqrt_n * pert.coeffs)
    return oracle.approximate(query, zeta, rng).hypothesis_index


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
        self.cells = klass.cell_measure(mu)
        self.sched = sched
        self.grid = None if variant == "classification" else \
            epsilon_grid(sched.epsilon, *loss.domain)
        self.oracle = oracle
        self.rng = rng
        self.selected: Optional[int] = None
        # each process's draw, per cell or per anchor, is fixed here
        self._omega = self._process(sched.m or sched.n, None)
        self._omega_label = self._process(sched.n, self.grid)

    def _process(self, n: int, grid: Optional[np.ndarray]) -> tuple:
        """The arguments of one process's draws: measure, anchors, labels, per cell.

        Per cell only with fewer cells than anchors, and only for an exact
        oracle: the approximate oracle's slack reads sum |w|, which merging
        a cell's anchors into one coefficient changes.
        """
        per_cell = self.sched.zeta == 0 and fewer_cells(self.cells, n, grid)
        return (self.cells if per_cell else self.mu), n, grid, per_cell

    def _draw(self, process: tuple) -> GaussianPerturbation:
        mu, n, grid, per_cell = process
        return draw_perturbation(mu, n, self.rng, "inv_sqrt_n" if grid is None else "none",
                                 grid=grid, per_cell=per_cell)

    def select(self) -> int:
        """Draw fresh perturbations and commit to this round's hypothesis."""
        s = self.sched
        if self.variant == "classification":
            idx = ftpl_select_classification(self._draw(self._omega), s.eta, self.oracle,
                                             s.zeta, self.rng)
        elif self.variant == "dual":
            pert_m = self._draw(self._omega)
            pert_n = self._draw(self._omega_label)
            idx = ftpl_select_dual(pert_m, pert_n, s.eta, self.oracle, s.zeta, self.rng)
        else:
            idx = ftpl_select_single(self._draw(self._omega_label), s.eta / math.sqrt(s.n),
                                     self.oracle, s.zeta, self.rng)
        self.selected = idx
        return idx

    def predict(self, x_t: ContextBlock) -> float:
        if self.selected is None:
            raise RuntimeError("select() must run before the context is revealed")
        return float(self.klass.evaluate_block(x_t)[self.selected, 0])

    def observe(self, context: ContextBlock, label: float) -> None:
        self.oracle.extend_prefix(context, label)
        self.selected = None

