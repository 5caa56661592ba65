"""Shared domain types: contexts, hypothesis classes, losses, trajectories, smoothness certificates.

Conventions used throughout the package:

- Hypotheses map contexts to [-1, 1]; binary classes map to {-1, +1}.
- Every argmin/argmax over hypotheses or grid points breaks ties toward the
  lowest index, so that seeded runs are exactly reproducible.
- All randomness flows from numpy ``Generator`` objects backed by the Philox
  counter-based bit generator, keyed through ``SeedSequence`` (see ``make_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ContextBlock",
    "GroundSet",
    "FiniteMeasure",
    "UniformIntervalMeasure",
    "HypothesisClass",
    "TableClass",
    "ThresholdClass",
    "compose_smoothness",
    "joint_id",
    "product_measure",
    "product_class",
    "LossFunction",
    "linear_loss",
    "absolute_loss",
    "square_loss",
    "scaled_square_loss",
    "SmoothnessCertificate",
    "SmoothnessViolation",
    "density_ratio",
    "Trajectory",
    "regret_curve",
    "finalize_regret",
    "make_rng",
    "DomainMismatchError",
    "EmptyTraceError",
]


class DomainMismatchError(ValueError):
    """A context cannot be evaluated by the hypothesis class at hand."""


class EmptyTraceError(ValueError):
    """Raised when finalizing a trace with no rounds."""


# largest draw count that ``Generator.multinomial`` takes (it reads the count as an int64)
MAX_DRAWS = 2**63 - 1

# most rounds whose history-free draws (playouts, perturbations, an i.i.d. adversary's rounds,
# SquareCB's uniforms) are made at once
BLOCK = 64


def refuse_past_horizon(t: int, rounds: int, T: Optional[int]) -> None:
    """Refuse rounds t + 1..t + rounds past the horizon T (None: none), before any draw."""
    if T is not None and t + rounds > T:
        raise ValueError(f"round {t + rounds} is past the horizon T = {T}")


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for ``seed``, split hierarchically by integer ``key``.

    Philox is a counter-based PRNG with fixed, documented constants, so
    (seed, key) -> stream is reproducible across platforms and runs.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Contexts and ground sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContextBlock:
    """A batch of contexts held columnar: integer atom ids and/or coordinates.

    A round's context is a one-row block; ``id`` and ``coordinate`` read that row.
    """

    ids: Optional[np.ndarray] = None
    coords: Optional[np.ndarray] = None

    def __len__(self) -> int:
        arr = self.ids if self.ids is not None else self.coords
        return 0 if arr is None else int(arr.shape[0])

    def __getitem__(self, rows: slice) -> "ContextBlock":
        return ContextBlock(ids=None if self.ids is None else self.ids[rows],
                            coords=None if self.coords is None else self.coords[rows])

    @property
    def id(self) -> Optional[int]:
        return None if self.ids is None else int(self.ids[0])

    @property
    def coordinate(self) -> Optional[float]:
        return None if self.coords is None else float(self.coords[0])


@dataclass(frozen=True)
class GroundSet:
    """A finite set of atoms 0..size-1, optionally embedded in [0, 1]; ``ids``, if
    given, is the atom id each atom's context carries (a cell's representative)."""

    size: int
    coords: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ground set must be nonempty")
        if self.coords is not None and len(self.coords) != self.size:
            raise ValueError("coords length must match size")
        if self.ids is not None and len(self.ids) != self.size:
            raise ValueError("ids length must match size")

    @staticmethod
    def grid(size: int) -> "GroundSet":
        """Atoms at size evenly spaced coordinates spanning [0, 1]."""
        coords = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.5])
        return GroundSet(size=size, coords=coords)

    def block(self, ids: np.ndarray) -> ContextBlock:
        ids = np.asarray(ids, dtype=np.int64)
        coords = self.coords[ids] if self.coords is not None else None
        return ContextBlock(ids=ids if self.ids is None else self.ids[ids], coords=coords)


# ---------------------------------------------------------------------------
# Base measures
# ---------------------------------------------------------------------------

class FiniteMeasure:
    """A probability vector over a finite ground set, with inverse-CDF sampling; a class's
    cell measure draws a cell instead as the one that holds a draw of its base measure."""

    def __init__(self, ground: GroundSet, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (ground.size,):
            raise ValueError("probability vector length must match ground set")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probability vector must sum to 1 within 1e-12")
        self.ground = ground
        self.probs = np.maximum(probs, 0.0)
        self._cdf = np.cumsum(self.probs)
        self._cdf[-1] = 1.0
        # a uniform p draws integer ids; any other draws one double per id, through the CDF
        self.draws_integers = bool(np.all(np.abs(self.probs - 1.0 / ground.size) < 1e-15))

    @staticmethod
    def uniform(ground: GroundSet) -> "FiniteMeasure":
        return FiniteMeasure(ground, np.full(ground.size, 1.0 / ground.size))

    @property
    def finite(self) -> bool:
        return True

    @cached_property
    def atoms(self) -> ContextBlock:
        """Every atom in order, as one block built on first use."""
        return self.ground.block(np.arange(self.ground.size))

    def _ids_at(self, u: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64)

    def sample_ids(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.draws_integers:
            return rng.integers(0, self.ground.size, size=size, dtype=np.int64)
        return self._ids_at(rng.random(size))

    def block_at(self, u: np.ndarray) -> ContextBlock:
        """The atoms at uniforms ``u``, through the CDF: the contexts ``sample_block``
        draws from ``rng.random(size)`` unless ``draws_integers``."""
        return self.ground.block(self._ids_at(u))

    def sample_block(self, rng: np.random.Generator, size: int) -> ContextBlock:
        return self.ground.block(self.sample_ids(rng, size))

    def sample_point(self, rng: np.random.Generator) -> ContextBlock:
        return self.sample_block(rng, 1)


class UniformIntervalMeasure:
    """Lebesgue-uniform base measure on [0, 1]; continuous, so no probability vector."""

    @property
    def finite(self) -> bool:
        return False

    def block_at(self, u: np.ndarray) -> ContextBlock:
        """The points at uniforms ``u``: ``u`` itself."""
        return ContextBlock(ids=None, coords=u)


class _CellMeasure(FiniteMeasure):
    """Cells whose ``sample_ids(rng, size)`` is ``cell_of``: the cells of a base measure's draw."""

    def __init__(self, ground: GroundSet, probs: np.ndarray, cell_of: Callable):
        super().__init__(ground, probs)
        self.sample_ids = cell_of


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Declared smoothness: conditional densities stay below 1/sigma w.r.t. ``mu``.

    ``mu`` may be None when the base measure exists but is withheld from the
    learner (the hidden-measure adversary).
    """

    sigma: float
    mu: Optional[object] = None  # FiniteMeasure | UniformIntervalMeasure | None

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("sigma must lie in (0, 1]")


class SmoothnessViolation(ValueError):
    """A fixed p is not sigma-smooth with respect to mu."""


def density_ratio(p: np.ndarray, mu: np.ndarray, sigma: float) -> np.ndarray:
    """dp/dmu of probability vectors (0 off mu's support).  Raises SmoothnessViolation where p
    has mass off that support or sigma * dp/dmu passes 1 + 1e-9 (relative: for a tiny sigma,
    rounding alone moves 1/sigma by more than any absolute 1e-9)."""
    support = mu > 0
    if np.any(p[~support] > 0):
        raise SmoothnessViolation("p puts mass off the support of mu")
    ratio = np.zeros(len(mu))
    ratio[support] = p[support] / mu[support]
    if sigma * ratio.max() > 1.0 + 1e-9:
        raise SmoothnessViolation(f"p has density {ratio.max():.6g} with respect to mu, "
                                  f"above 1/sigma = {1.0 / sigma:.6g}")
    return ratio


# ---------------------------------------------------------------------------
# Hypothesis classes
# ---------------------------------------------------------------------------

class HypothesisClass:
    """Finite, enumerable class of functions mapping contexts into [-1, 1].

    Subclasses implement ``evaluate_block``, returning a C-contiguous
    (H, len(block)) array, so that equal value matrices sum in one order.
    ``identity_dot`` is sum_i w_i f(x_i) for every f.
    """

    kind: str = "real"  # "binary" | "real"

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def identity_dot(self, block: ContextBlock, weights: np.ndarray) -> np.ndarray:
        return self.evaluate_block(block) @ np.asarray(weights, dtype=np.float64)

    def cell_measure(self, mu) -> FiniteMeasure:
        """``mu`` on cells where every hypothesis is constant: on a finite ``mu``, the
        maximal sets of atoms with equal value columns, in the order of their first atoms,
        each represented by its first atom with the set's mass; ``mu`` itself where none merge."""
        if not mu.finite:
            raise ValueError(f"{type(self).__name__} has no finite cell partition "
                             f"of the continuous base measure")
        # hashed, not sorted: a first sort pages in numpy's sort kernels, ~0.3 MB of peak RSS
        cells: dict = {}  # column bytes -> cell, numbered in first-atom order; -0.0 joins 0.0
        index = np.array([cells.setdefault(column.tobytes(), len(cells))
                          for column in self.evaluate_block(mu.atoms).T + 0.0])
        if len(cells) == len(index):
            return mu
        first = np.flatnonzero(np.diff(np.maximum.accumulate(index), prepend=-1))  # new cells
        reps = mu.ground.block(first)
        return _CellMeasure(GroundSet(len(first), coords=reps.coords, ids=reps.ids),
                            np.bincount(index, weights=mu.probs),
                            lambda rng, size: index[mu.sample_ids(rng, size)])


class TableClass(HypothesisClass):
    """Explicit table of hypothesis values over a finite ground set."""

    def __init__(self, values: np.ndarray, ground: Optional[GroundSet] = None,
                 kind: Optional[str] = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be (n_hypotheses, n_atoms)")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("hypothesis values must lie in [-1, 1]")
        binary = bool(np.all(np.isin(values, (-1.0, 1.0))))
        if kind == "binary" and not binary:
            raise ValueError("binary class must take values in {-1, +1}")
        self.kind = kind if kind is not None else ("binary" if binary else "real")
        self.values = values
        self.ground = ground if ground is not None else GroundSet(size=values.shape[1])
        if self.ground.size != values.shape[1]:
            raise ValueError("ground set size must match table width")

    def __len__(self) -> int:
        return self.values.shape[0]

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:
        if block.ids is None:
            raise DomainMismatchError("domain mismatch: table class needs atom ids")
        ids = block.ids
        if len(ids) <= BLOCK:  # a round's or a run's contexts: no numpy reduction
            listed = ids.tolist()
            lo, hi = (min(listed), max(listed)) if listed else (0, 0)
        else:
            lo, hi = ids.min(), ids.max()
        if lo < 0 or hi >= self.values.shape[1]:
            raise DomainMismatchError("domain mismatch: atom id out of range")
        return self.values.take(ids, axis=1)  # C-contiguous, as every class returns


class ThresholdClass(HypothesisClass):
    """Step functions on [0, 1]: f_theta(x) = +1 if x >= theta else -1."""

    kind = "binary"

    def __init__(self, thetas: np.ndarray):
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 1 or len(thetas) == 0:
            raise ValueError("need a nonempty 1-d array of thresholds")
        self.thetas = thetas

    @staticmethod
    def grid(m: int) -> "ThresholdClass":
        """m thresholds evenly spaced in the open interval (0, 1)."""
        return ThresholdClass((np.arange(m) + 0.5) / m)

    def __len__(self) -> int:
        return len(self.thetas)

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:
        if block.coords is None:
            raise DomainMismatchError("domain mismatch: threshold class needs coordinates")
        return np.where(block.coords[None, :] >= self.thetas[:, None], 1.0, -1.0)

    def cell_measure(self, mu) -> FiniteMeasure:
        """On the uniform interval, the m+1 gaps [left, right) between the sorted
        thresholds (clipped to [0, 1]), each represented by its left end, with its length;
        a gap is drawn as the one that holds a uniform double, found among the left ends."""
        if not isinstance(mu, UniformIntervalMeasure):
            return super().cell_measure(mu)
        left = np.concatenate(([0.0], np.sort(np.clip(self.thetas, 0.0, 1.0))))
        return _CellMeasure(GroundSet(size=len(left), coords=left), np.diff(left, append=1.0),
                            lambda rng, size: np.searchsorted(left, rng.random(size), "right") - 1)


# ---------------------------------------------------------------------------
# Product spaces: atoms are (context_atom, action) pairs
# ---------------------------------------------------------------------------

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


def joint_id(x_id: int, action: int, K: int) -> int:
    return x_id * K + action


def product_measure(mu_x: FiniteMeasure, K: int) -> FiniteMeasure:
    """mu x Unif([K]) over joint atoms."""
    probs = np.repeat(mu_x.probs / K, K)
    return FiniteMeasure(GroundSet(size=mu_x.ground.size * K), probs)


def product_class(values: np.ndarray) -> TableClass:
    """Hypotheses f: X x [K] -> [0, 1] from a (H, N, K) value tensor."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError("values must be (n_hypotheses, n_atoms, K)")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("bandit regression values must lie in [0, 1]")
    H, N, K = values.shape
    return TableClass(values.reshape(H, N * K), kind="real")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossFunction:
    """A convex loss, Lipschitz in its first argument.

    ``fn`` must accept numpy arrays and broadcast.  ``domain`` is the interval
    predictions and labels are drawn from; ``output_range`` is the declared
    range of the loss on that domain.  ``degree`` is the loss's degree as a
    polynomial in yhat for every label, None where it is none.
    """

    kind: str
    lipschitz_L: float
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[float, float] = (-1.0, 1.0)
    output_range: tuple[float, float] = (0.0, 1.0)
    degree: Optional[int] = None

    def evaluate(self, yhat: float, y: float) -> float:
        return float(self.fn(np.float64(yhat), np.float64(y)))

    def evaluate_array(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(yhat, y)

    def coefficients(self, y: np.ndarray, degree: int) -> np.ndarray:
        """(degree + 1, len(y)): c_k(y) with l(yhat, y) = sum_k c_k(y) yhat^k, for degree
        1 or 2, read from ``fn`` at yhat = 1, -1 (and 0).  Exact, up to rounding, for a
        loss of at most that degree; with degree 1, for any loss on yhat in {-1, +1}."""
        plus, minus = self.fn(1.0, y), self.fn(-1.0, y)
        even, odd = (plus + minus) / 2.0, (plus - minus) / 2.0
        if degree == 1:
            return np.stack([even, odd])
        zero = self.fn(0.0, y)
        return np.stack([zero, odd, even - zero])


def linear_loss() -> LossFunction:
    """l(yhat, y) = (1 - yhat*y)/2; the mistake indicator on {-1, +1} pairs."""
    return LossFunction("linear", 0.5, _linear, degree=1)


# in place, so an array loss holds one temporary, not two; halving is exact (d * 0.5 is
# d / 2.0), and squares multiply: a numpy scalar's ** 2 calls pow, which can round differently
# from the d * d an array's ** 2 computes, so ``evaluate`` would not match ``evaluate_array``
def _linear(a, b):
    d = a * b
    d = np.subtract(1.0, d, out=d) if isinstance(d, np.ndarray) else 1.0 - d
    d /= 2.0
    return d


def _absolute(a, b):
    d = a - b
    d = np.absolute(d, out=d) if isinstance(d, np.ndarray) else abs(d)
    d *= 0.5
    return d


def _square(a, b):
    d = a - b
    d *= d
    return d


def _scaled_square(a, b):
    d = (a - b) / 2.0
    d *= d
    return d


def absolute_loss() -> LossFunction:
    """l(yhat, y) = |yhat - y|/2, normalized so the range on [-1,1]^2 is [0,1]."""
    return LossFunction("absolute", 0.5, _absolute)


def square_loss() -> LossFunction:
    """l(yhat, y) = (yhat - y)^2 on the [0, 1] prediction/label domain (L = 2)."""
    return LossFunction("square", 2.0, _square, domain=(0.0, 1.0), degree=2)


def scaled_square_loss() -> LossFunction:
    """l(yhat, y) = ((yhat - y)/2)^2 on [-1, 1]^2; strictly convex, L = 1."""
    return LossFunction("custom", 1.0, _scaled_square, degree=2)


LOSSES = {
    "linear": linear_loss,
    "absolute": absolute_loss,
    "square": square_loss,
    "scaled_square": scaled_square_loss,
}


# ---------------------------------------------------------------------------
# Trajectories and regret
# ---------------------------------------------------------------------------

_REGRET_CHUNK = 1024  # rounds per comparator block: memory O(H * chunk), not O(H * T)


class Trajectory:
    """One seeded run, held columnar and preallocated: round t is row t - 1.

    Rounds are written a run at a time by ``extend``.  Contexts without an atom
    id store -1 in ``ids``, those without a coordinate NaN in ``coords``.
    Everything a run reports derives from these.
    """

    def __init__(self, T: int):
        self.ids = np.full(T, -1, dtype=np.int64)
        self.coords = np.full(T, np.nan)
        self.labels = np.empty(T)
        self.predictions = np.empty(T)
        self.instant_loss = np.empty(T)
        self.oracle_calls = np.zeros(T, dtype=np.int64)  # completed by the end of each round
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def extend(self, contexts: ContextBlock, labels: np.ndarray, predictions: np.ndarray,
               instant_loss: np.ndarray, oracle_calls: np.ndarray) -> None:
        """Rows for a run of rounds, one each, in one write; the oracle-call column must
        not decrease."""
        t, n = self.n, len(labels)
        calls = np.asarray(oracle_calls)
        if n and ((calls[1:] < calls[:-1]).any() or t and calls[0] < self.oracle_calls[t - 1]):
            raise ValueError("oracle call count must be nondecreasing")
        rows = slice(t, t + n)
        self.ids[rows] = -1 if contexts.ids is None else contexts.ids
        self.coords[rows] = np.nan if contexts.coords is None else contexts.coords
        self.labels[rows], self.predictions[rows], self.instant_loss[rows] = \
            labels, predictions, instant_loss
        self.oracle_calls[rows] = calls
        self.n = t + n

    def hypothesis_losses(self, klass: HypothesisClass, loss: LossFunction):
        """Yield (start, stop, (H, stop - start) hypothesis losses), chunk by chunk."""
        for start in range(0, self.n, _REGRET_CHUNK):
            stop = min(start + _REGRET_CHUNK, self.n)
            ids, coords = self.ids[start:stop], self.coords[start:stop]
            block = ContextBlock(ids=ids if np.all(ids >= 0) else None,
                                 coords=None if np.isnan(coords).any() else coords)
            values = klass.evaluate_block(block)
            yield start, stop, loss.evaluate_array(values, self.labels[None, start:stop])


def regret_curve(traj: Trajectory, klass: HypothesisClass,
                 loss: LossFunction) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative regret after every round, and each hypothesis's total loss.

    Both sums run round by round (``np.cumsum`` is sequential) from a leading
    0.0, with each chunk's running totals carried in as a leading column, so
    every entry equals the per-round ``total += loss`` recurrence bit for bit.
    """
    learner = np.cumsum(np.concatenate(([0.0], traj.instant_loss[:traj.n])))[1:]
    regret = np.empty(traj.n)
    totals = np.zeros(len(klass))
    for start, stop, losses in traj.hypothesis_losses(klass, loss):
        running = np.cumsum(np.hstack([totals[:, None], losses]), axis=1)[:, 1:]
        regret[start:stop] = learner[start:stop] - running.min(axis=0)
        totals = running[:, -1]
    return regret, totals


def finalize_regret(traj: Trajectory, klass: HypothesisClass, loss: LossFunction) -> float:
    """Regret against the best hypothesis in hindsight, summed in a different
    order from ``regret_curve`` (pairwise), so each checks the other."""
    if not traj.n:
        raise EmptyTraceError("empty trace")
    totals = np.zeros(len(klass))
    for _, _, losses in traj.hypothesis_losses(klass, loss):
        totals += losses.sum(axis=1)
    return float(traj.instant_loss[:traj.n].sum()) - float(totals.min())
