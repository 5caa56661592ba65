"""Proper follow-the-perturbed-leader learners with Gaussian-process perturbations.

Oracle budget: one call per round.  Before a round's context arrives, the learner commits
to the minimizer of its running loss, the oracle's history, plus a fresh perturbation, the
query: eta * omega and omega' for ``dual``, one of them for ``classification`` and
``single``.  Invariants: every route that draws a process (per cell, per anchor, summed per
cell, a block of rounds at once) has the law of drawing every anchor from mu; a learner
whose schedule sets T answers rounds 1..T and raises on a later one.  README ("Learners")
gives the processes and their routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (BLOCK, BLOCK_ELEMENTS, MAX_DRAWS, ContextBlock, FiniteMeasure,
                   HypothesisClass, LossFunction, refuse_past_horizon)
from .oracle import IDENTITY, MAIN, ErmOracle, ErmQuery

__all__ = [
    "epsilon_grid",
    "GaussianPerturbation",
    "fewer_cells",
    "draw_perturbation",
    "LabelAnchorSums",
    "label_anchor_sums",
    "FtplSchedule",
    "schedule",
    "ftpl_select_classification",
    "ftpl_select_dual",
    "ftpl_select_single",
    "FtplLearner",
]

# most points of a label grid: every default schedule up to T = 10^8 builds at most 2 * 10^6,
# and building the grid holds about 140 B per point
MAX_GRID_POINTS = 2**22


def epsilon_grid(eps: float, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """The label grid eps*Z intersected with [lo, hi], of at most ``MAX_GRID_POINTS`` points.

    Both endpoints join the grid when eps divides the interval width exactly,
    so eps = 2 on [-1, 1] yields {-1, 0, 1} rather than the bare {0}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ks_lo = lo / eps - 1e-12
    ks_hi = hi / eps + 1e-12
    if not ks_hi - ks_lo < MAX_GRID_POINTS:  # an infinite quotient too: count before building
        raise ValueError(f"epsilon = {eps} makes a label grid of more than 2^22 points on "
                         f"[{lo}, {hi}]")
    points = np.arange(math.ceil(ks_lo), math.floor(ks_hi) + 1) * eps
    width = hi - lo
    if abs(width / eps - round(width / eps)) < 1e-12:
        points = np.append(points, [lo, hi])
    return np.unique(np.clip(np.round(points, 15), lo, hi))


@dataclass
class GaussianPerturbation:
    """n anchors as contexts with normal coefficients, and labels for omega': one context
    per anchor, or per cell with the cell's summed coefficient.  A block of rounds has one
    row of coefficients per round; ``abs_sum``, if given, is each round's sum |gamma|."""

    contexts: ContextBlock
    coeffs: np.ndarray
    normalization: str = "inv_sqrt_n"  # "inv_sqrt_n" | "none"
    labels: Optional[np.ndarray] = None
    n: Optional[int] = None  # anchors drawn per round; defaults to one per context
    values: Optional[np.ndarray] = None  # f(contexts) per hypothesis f, for the oracle
    abs_sum: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.normalization not in ("inv_sqrt_n", "none"):
            raise ValueError("normalization must be inv_sqrt_n or none")
        rows = self.coeffs.shape[-1]
        if len(self.contexts) not in (rows, self.coeffs.size):
            raise ValueError("one coefficient per context")
        if self.labels is not None and len(self.labels) != len(self.contexts):
            raise ValueError("one label per context")
        if self.labels is not None and self.normalization == "inv_sqrt_n":
            raise ValueError("label-anchor processes are unnormalized")
        if self.n is None:
            self.n = rows
        if self.n < 0:
            raise ValueError("anchor count must be nonnegative")

    @property
    def scale(self) -> float:
        if self.normalization == "none" or self.n == 0:
            return 1.0
        return 1.0 / math.sqrt(self.n)


def fewer_cells(cells: FiniteMeasure, n: int, grid: np.ndarray) -> bool:
    """Whether the finite measure ``cells`` has fewer (cell, grid label) pairs than n."""
    return cells.ground.size * len(grid) < n


def _pairs(mu, grid: np.ndarray) -> tuple[ContextBlock, np.ndarray]:
    """The cell-major (cell, label) pairs of the finite mu's atoms and the label grid."""
    return (mu.ground.block(np.repeat(np.arange(mu.ground.size), len(grid))),
            np.tile(grid, mu.ground.size))


def draw_perturbation(mu: FiniteMeasure, n: int, rng: np.random.Generator,
                      normalization: str = "inv_sqrt_n",
                      eps: Optional[float] = None,
                      grid: Optional[np.ndarray] = None,
                      values: Optional[np.ndarray] = None,
                      rounds: Optional[int] = None,
                      sums: Optional["LabelAnchorSums"] = None,
                      band: bool = False) -> GaussianPerturbation:
    """n anchors from the finite mu (a class's cell measure) with N(0, 1) coefficients; eps
    (or ``grid``) adds labels.  omega is drawn per cell, carrying ``values``, and with
    ``band`` the sum |gamma| of n normals; omega' per cell where ``fewer_cells``, else per
    anchor, summed per cell by ``sums`` where given.  ``rounds`` draws a block of that many
    rounds, each kind of draw in one call."""
    if not mu.finite:
        raise ValueError("a draw needs a finite measure: draw on klass.cell_measure(mu)")
    if grid is None and eps is not None:
        grid = epsilon_grid(eps)
    if grid is not None and not fewer_cells(mu, n, grid):
        size = n if rounds is None else rounds * n
        ids = mu.sample_ids(rng, size)
        coeffs = rng.standard_normal(n if rounds is None else (rounds, n))
        label_ids = rng.integers(0, len(grid), size=size)
        if sums is not None:
            return sums.reduce(ids, coeffs, label_ids, n)
        return GaussianPerturbation(mu.ground.block(ids), coeffs, normalization, grid[label_ids], n)
    contexts, probs, labels = mu.atoms, mu.probs, None
    if grid is not None:  # each (cell, label) pair has mass mu_c / |grid|
        (contexts, labels), probs = _pairs(mu, grid), np.repeat(probs / len(grid), len(grid))
    counts = rng.multinomial(n, probs, size=rounds)
    if not band:
        coeffs = np.sqrt(counts) * rng.standard_normal(counts.shape)
        return GaussianPerturbation(contexts, coeffs, normalization, labels, n, values)
    normals = rng.standard_normal(counts.shape[:-1] + (n,))
    runs = np.repeat(np.arange(counts.size), counts.ravel())  # each normal's (round, cell)
    coeffs = np.bincount(runs, normals.ravel(), counts.size).reshape(counts.shape)
    return GaussianPerturbation(contexts, coeffs, normalization, labels, n, values,
                                np.abs(normals).sum(axis=-1))


class LabelAnchorSums:
    """Per-anchor omega' summed per cell and power of f: with l(f, y) = sum_k c_k(y) f^k,
    omega'(f) = sum_k sum_c W_k[c] f(c)^k, identity rows over the stacked powers
    [1 | V | V^2] of the class's values V on the cells."""

    def __init__(self, coefs: np.ndarray, cells: FiniteMeasure, values: np.ndarray):
        self.coefs = coefs    # (d + 1, |grid|): c_k at each grid label
        self.cells = cells    # the class's cell measure of mu
        self.values = values  # (H, (d + 1) * cells): [1 | V | V^2]
        self.contexts = cells.ground.block(np.tile(np.arange(cells.ground.size), len(coefs)))
        # per-anchor offsets, keys and weights, kept across draws of one coefficient shape:
        # made anew, a block's arrays were handed back to the system and faulted in again
        # at every block
        self._shape = self._offsets = self._keys = self._weights = None

    def reduce(self, ids: np.ndarray, coeffs: np.ndarray, label_ids: np.ndarray,
               n: int) -> GaussianPerturbation:
        """Per-anchor draws of omega' (each anchor's cell id, (rounds, n) coefficients,
        grid label indices) as one coefficient per (power, cell) and round: per power,
        one bincount over the keys round * cells + cell, each bin summed in anchor order."""
        size, anchors = self.cells.ground.size, coeffs.size
        rounds = anchors // n
        if coeffs.shape != self._shape:  # each anchor's round * cells, for its key
            self._shape, self._offsets = coeffs.shape, np.repeat(np.arange(rounds) * size, n)
            self._keys, self._weights = np.empty(anchors, dtype=np.int64), np.empty(anchors)
        keys, weights = self._keys, self._weights
        np.add(ids, self._offsets, out=keys)
        sums = np.empty((rounds, len(self.coefs), size))
        for k, coef in enumerate(self.coefs):
            coef.take(label_ids, out=weights)
            weights *= coeffs.ravel()
            sums[:, k] = np.bincount(keys, weights, rounds * size).reshape(rounds, size)
        return GaussianPerturbation(self.contexts, sums.reshape(coeffs.shape[:-1] + (-1,)),
                                    "none", None, n, self.values, np.abs(coeffs).sum(axis=-1))


def label_anchor_sums(klass: HypothesisClass, loss: LossFunction, cells: FiniteMeasure,
                      grid: np.ndarray) -> Optional[LabelAnchorSums]:
    """The sums of omega' per cell of ``cells`` over the label ``grid``, or None where the
    loss is no polynomial of degree <= 2 in f on the class (any loss is affine on a binary one)."""
    degree = 1 if klass.kind == "binary" else loss.degree
    if degree not in (1, 2):
        return None
    values = klass.evaluate_block(cells.atoms)
    values = np.concatenate([np.ones_like(values), values, values * values][:degree + 1], axis=1)
    return LabelAnchorSums(loss.coefficients(grid, degree), cells, values)


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------

VARIANTS = ("classification", "dual", "single")


@dataclass(frozen=True)
class FtplSchedule:
    eta: float
    n: int
    m: Optional[int] = None
    epsilon: Optional[float] = None
    zeta: float = 0.0
    T: Optional[int] = None  # the horizon it was made for; no learner draws past it

    def __post_init__(self):
        if not (0 <= self.eta < math.inf and 0 <= self.zeta < math.inf) or self.n < 1 or (
                self.m is not None and self.m < 1) or (
                self.epsilon is not None and not 0 < self.epsilon < math.inf):
            raise ValueError("schedule parameters out of range")
        if self.T is not None and self.T < 1:
            raise ValueError("horizon must be at least 1")
        if self.n > MAX_DRAWS or (self.m is not None and self.m > MAX_DRAWS):
            raise ValueError(f"anchor counts must be at most 2^63 - 1, the most draws one "
                             f"multinomial takes (n = {self.n}, m = {self.m})")


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
        return FtplSchedule(eta=eta, n=_ceil(T / math.sqrt(sigma)), zeta=zeta, T=T)
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
        return FtplSchedule(eta=eta, n=n, m=n, epsilon=eps, zeta=zeta, T=T)
    if variant == "single":
        eta0 = T ** (5.0 / 12.0) * sigma ** (-0.25)
        n = _ceil(eta0 ** 2)
        eps = T ** (-0.75) * sigma ** (-0.25)
        return FtplSchedule(eta=math.sqrt(n), n=n, epsilon=eps, zeta=zeta, T=T)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Selection rules (one oracle call each), and the queries they answer
# ---------------------------------------------------------------------------

def _query(omega: Optional[GaussianPerturbation], omega_label: Optional[GaussianPerturbation],
           eta: float, label_scale: float) -> ErmQuery:
    """eta * omega(f) plus label_scale * omega'(f), either of which may be absent, one round
    per row of coefficients, each block with its draw's sum |gamma| scaled alike."""
    query = ErmQuery()
    if omega is not None:
        if omega.normalization != "inv_sqrt_n" or omega.labels is not None:
            raise ValueError("omega is the normalized, label-free process")
        s = eta * omega.scale
        query.add_block(IDENTITY, omega.contexts, np.zeros(len(omega.contexts)),
                        s * omega.coeffs, omega.values,
                        None if omega.abs_sum is None else s * omega.abs_sum)
    if omega_label is not None:
        summed = omega_label.labels is None  # per cell and power, over its values
        if omega_label.normalization != "none" or (summed and omega_label.values is None):
            raise ValueError("omega' is the unnormalized process with label anchors, "
                             "or their sums per cell")
        query.add_block(IDENTITY if summed else MAIN, omega_label.contexts,
                        np.zeros(len(omega_label.contexts)) if summed else omega_label.labels,
                        label_scale * omega_label.coeffs, omega_label.values,
                        None if omega_label.abs_sum is None else label_scale * omega_label.abs_sum)
    return query


def ftpl_select_classification(pert: GaussianPerturbation, eta: float,
                               oracle: ErmOracle, zeta: float = 0.0,
                               rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f), one oracle call; L(f) from the history."""
    return oracle.approximate(_query(pert, None, eta, 1.0), zeta, rng).hypothesis_index


def ftpl_select_dual(pert_m: GaussianPerturbation, pert_n: GaussianPerturbation,
                     eta: float, oracle: ErmOracle, zeta: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + eta * omega(f) + omega'(f), one oracle call; L(f) from the history."""
    return oracle.approximate(_query(pert_m, pert_n, eta, 1.0), zeta, rng).hypothesis_index


def ftpl_select_single(pert: GaussianPerturbation, eta_over_sqrt_n: float,
                       oracle: ErmOracle, zeta: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> int:
    """argmin_f L(f) + (eta/sqrt n) * omega'(f), one oracle call; L(f) from the history."""
    return oracle.approximate(_query(None, pert, 0.0, eta_over_sqrt_n), zeta,
                              rng).hypothesis_index


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
        if variant == "single" and abs(sched.eta - math.sqrt(sched.n)) > 1e-9:
            raise ValueError("single variant couples eta = sqrt(n)")
        self.klass = klass
        self.loss = loss
        self.cells = klass.cell_measure(mu)
        self.sched = sched
        self.grid = None if variant == "classification" else \
            epsilon_grid(sched.epsilon, *loss.domain)
        self.oracle = oracle
        self.rng = rng
        self.selected: Optional[int] = None
        # (omega, omega'): each process's draw, per cell or per anchor (omega' then summed
        # per cell where the loss allows), is fixed here; None for a process the variant
        # does not add
        self._processes = (
            None if variant == "single" else self._process(
                sched.n if sched.m is None else sched.m, None),
            None if variant == "classification" else self._process(sched.n, self.grid))
        self._block_rounds = max(1, min(BLOCK, BLOCK_ELEMENTS // max(
            self._elements(p) for p in self._processes if p)))
        self._query: Optional[ErmQuery] = None  # the current block's rows
        self._next = 0                          # its next unanswered round
        self._t = 0                             # rounds selected

    def _process(self, n: int, grid: Optional[np.ndarray]) -> dict:
        """``draw_perturbation``'s keyword arguments for one process: with the class's
        ``values`` on a per-cell draw's contexts, or omega''s per-anchor ``sums``."""
        process = dict(n=n, grid=grid, normalization="inv_sqrt_n" if grid is None else "none")
        if grid is not None and not fewer_cells(self.cells, n, grid):
            return dict(process, sums=label_anchor_sums(self.klass, self.loss, self.cells, grid))
        contexts = self.cells.atoms if grid is None else _pairs(self.cells, grid)[0]
        return dict(process, values=self.klass.evaluate_block(contexts))

    def _elements(self, process: dict) -> int:
        """Elements of one round of the process in a block: per cell its contexts, and
        the n normals of a draw that carries the band; per anchor H x n, as if omega'
        were evaluated (its gather), whether or not it is summed per cell."""
        if "values" in process:
            return process["values"].shape[1] + (process["n"] if self.sched.zeta else 0)
        return process["n"] * len(self.klass)

    def _block(self) -> ErmQuery:
        """The current block's query, with a round per row; once all its rounds are
        answered, the next block's perturbations: ``BLOCK`` rounds, fewer to stay within
        ``BLOCK_ELEMENTS``, and none past ``sched.T``."""
        if self._query is None or self._next == self._query.rounds:
            refuse_past_horizon(self._t, 1, self.sched.T)
            rounds = self._block_rounds
            if self.sched.T is not None:
                rounds = min(rounds, self.sched.T - self._t)
            omega, omega_label = (None if p is None else draw_perturbation(
                self.cells, rng=self.rng, rounds=rounds, band=self.sched.zeta > 0, **p)
                for p in self._processes)
            self._query, self._next = _query(omega, omega_label, self.sched.eta, 1.0), 0
        return self._query

    def select(self) -> int:
        """Commit to this round's hypothesis, under the round's fresh perturbations."""
        self.selected = self.oracle.approximate(self._block(), self.sched.zeta, self.rng,
                                                self._next).hypothesis_index
        self._next += 1
        self._t += 1
        return self.selected

    def play(self, contexts: ContextBlock, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A run of rounds known ahead, played as ``select``, ``predict`` then ``observe``
        round by round would: returns the predictions and the oracle calls made by the end
        of each round."""
        refuse_past_horizon(self._t, len(labels), self.sched.T)
        values = self.klass.evaluate_block(contexts)
        calls, rows = self.oracle.calls, self.oracle.prefix_rows
        seen = self.oracle.extend_run(values, labels)
        selected = np.empty(len(labels), dtype=np.int64)
        i = 0
        while i < len(labels):
            query = self._block()
            m = min(len(labels) - i, query.rounds - self._next)
            selected[i:i + m] = self.oracle.approximate_run(
                query, self.sched.zeta, self.rng, self._next, seen[i:i + m], rows + i)
            self._next += m
            self._t += m
            i += m
        self.selected = None
        return values[selected, np.arange(len(labels))], calls + np.arange(1, len(labels) + 1)

    def predict(self, x_t: ContextBlock) -> float:
        return float(self.predictions(x_t)[0])

    def predictions(self, contexts: ContextBlock) -> np.ndarray:
        """The selected hypothesis at each context of the current round."""
        if self.selected is None:
            raise RuntimeError("select() must run before the context is revealed")
        return self.klass.evaluate_block(contexts)[self.selected]

    def observe(self, context: ContextBlock, label: float) -> None:
        self.oracle.extend_prefix(context, label)
        self.selected = None
