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
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ContextPoint",
    "ContextBlock",
    "GroundSet",
    "FiniteMeasure",
    "UniformIntervalMeasure",
    "HypothesisClass",
    "TableClass",
    "ThresholdClass",
    "LossFunction",
    "linear_loss",
    "absolute_loss",
    "square_loss",
    "scaled_square_loss",
    "SmoothnessCertificate",
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
class ContextPoint:
    """A covariate: an index into a finite ground set and/or a point in [0, 1]."""

    id: Optional[int] = None
    coordinate: Optional[float] = None

    def __post_init__(self):
        if self.id is None and self.coordinate is None:
            raise ValueError("context needs an id or a coordinate")
        if self.coordinate is not None and not (0.0 <= self.coordinate <= 1.0):
            raise ValueError(f"coordinate {self.coordinate} outside [0, 1]")


@dataclass
class ContextBlock:
    """A batch of contexts held columnar: integer atom ids and/or coordinates."""

    ids: Optional[np.ndarray] = None
    coords: Optional[np.ndarray] = None

    def __len__(self) -> int:
        arr = self.ids if self.ids is not None else self.coords
        return 0 if arr is None else int(arr.shape[0])

    @staticmethod
    def from_points(points: Sequence[ContextPoint]) -> "ContextBlock":
        has_ids = all(p.id is not None for p in points)
        has_coords = all(p.coordinate is not None for p in points)
        ids = np.array([p.id for p in points], dtype=np.int64) if has_ids else None
        coords = (
            np.array([p.coordinate for p in points], dtype=np.float64) if has_coords else None
        )
        return ContextBlock(ids=ids, coords=coords)

    @staticmethod
    def single(point: ContextPoint) -> "ContextBlock":
        return ContextBlock.from_points([point])


@dataclass(frozen=True)
class GroundSet:
    """A finite set of atoms 0..size-1, optionally embedded in [0, 1]."""

    size: int
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ground set must be nonempty")
        if self.coords is not None and len(self.coords) != self.size:
            raise ValueError("coords length must match size")

    @staticmethod
    def grid(size: int) -> "GroundSet":
        """Atoms at size evenly spaced coordinates spanning [0, 1]."""
        coords = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.5])
        return GroundSet(size=size, coords=coords)

    def point(self, atom: int) -> ContextPoint:
        coord = float(self.coords[atom]) if self.coords is not None else None
        return ContextPoint(id=int(atom), coordinate=coord)

    def block(self, ids: np.ndarray) -> ContextBlock:
        coords = self.coords[ids] if self.coords is not None else None
        return ContextBlock(ids=np.asarray(ids, dtype=np.int64), coords=coords)


# ---------------------------------------------------------------------------
# Base measures
# ---------------------------------------------------------------------------

class FiniteMeasure:
    """A probability vector over a finite ground set, with inverse-CDF sampling."""

    def __init__(self, ground: GroundSet, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (ground.size,):
            raise ValueError("probability vector length must match ground set")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probability vector must sum to 1 within 1e-12")
        self.ground = ground
        self.probs = np.maximum(probs, 0.0)
        self._cdf = np.cumsum(self.probs)
        self._cdf[-1] = 1.0
        self._uniform = bool(np.all(np.abs(self.probs - 1.0 / ground.size) < 1e-15))

    @staticmethod
    def uniform(ground: GroundSet) -> "FiniteMeasure":
        return FiniteMeasure(ground, np.full(ground.size, 1.0 / ground.size))

    @property
    def finite(self) -> bool:
        return True

    def sample_ids(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self._uniform:
            return rng.integers(0, self.ground.size, size=size, dtype=np.int64)
        return np.searchsorted(self._cdf, rng.random(size), side="right").astype(np.int64)

    def sample_block(self, rng: np.random.Generator, size: int) -> ContextBlock:
        return self.ground.block(self.sample_ids(rng, size))

    def sample_point(self, rng: np.random.Generator) -> ContextPoint:
        return self.ground.point(int(self.sample_ids(rng, 1)[0]))


class UniformIntervalMeasure:
    """Lebesgue-uniform base measure on [0, 1]; continuous, so no probability vector."""

    ground = None
    probs = None

    @property
    def finite(self) -> bool:
        return False

    def sample_block(self, rng: np.random.Generator, size: int) -> ContextBlock:
        return ContextBlock(ids=None, coords=rng.random(size))

    def sample_point(self, rng: np.random.Generator) -> ContextPoint:
        return ContextPoint(coordinate=float(rng.random()))


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


# ---------------------------------------------------------------------------
# Hypothesis classes
# ---------------------------------------------------------------------------

class HypothesisClass:
    """Finite, enumerable class of functions mapping contexts into [-1, 1].

    Subclasses implement ``evaluate_block``; ``identity_dot`` may be overridden
    with a faster route for computing sum_i w_i f(x_i) simultaneously for all
    hypotheses (it must agree with the generic one up to float summation order).
    """

    kind: str = "real"  # "binary" | "real"

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def evaluate(self, h: int, point: ContextPoint) -> float:
        if not (0 <= h < len(self)):
            raise IndexError(f"hypothesis index {h} out of range")
        return float(self.evaluate_block(ContextBlock.single(point))[h, 0])

    def identity_dot(self, block: ContextBlock, weights: np.ndarray) -> np.ndarray:
        return self.evaluate_block(block) @ np.asarray(weights, dtype=np.float64)


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

    def _check_ids(self, block: ContextBlock) -> np.ndarray:
        if block.ids is None:
            raise DomainMismatchError("domain mismatch: table class needs atom ids")
        ids = block.ids
        if len(ids) and (ids.min() < 0 or ids.max() >= self.values.shape[1]):
            raise DomainMismatchError("domain mismatch: atom id out of range")
        return ids

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:
        ids = self._check_ids(block)
        return self.values[:, ids]

    def identity_dot(self, block: ContextBlock, weights: np.ndarray) -> np.ndarray:
        ids = self._check_ids(block)
        agg = np.bincount(ids, weights=np.asarray(weights, dtype=np.float64),
                          minlength=self.values.shape[1])
        return self.values @ agg


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

    def _coords(self, block: ContextBlock) -> np.ndarray:
        if block.coords is None:
            raise DomainMismatchError("domain mismatch: threshold class needs coordinates")
        return block.coords

    def evaluate_block(self, block: ContextBlock) -> np.ndarray:
        x = self._coords(block)
        return np.where(x[None, :] >= self.thetas[:, None], 1.0, -1.0)

    def identity_dot(self, block: ContextBlock, weights: np.ndarray) -> np.ndarray:
        # sum_i w_i f_theta(x_i) = W - 2 * sum_{x_i < theta} w_i, via one sort.
        x = self._coords(block)
        w = np.asarray(weights, dtype=np.float64)
        order = np.argsort(x, kind="stable")
        prefix = np.concatenate(([0.0], np.cumsum(w[order])))
        below = prefix[np.searchsorted(x[order], self.thetas, side="left")]
        return prefix[-1] - 2.0 * below


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossFunction:
    """A convex loss, Lipschitz in its first argument.

    ``fn`` must accept numpy arrays and broadcast.  ``domain`` is the interval
    predictions and labels are drawn from; ``output_range`` is the declared
    range of the loss on that domain.
    """

    kind: str
    lipschitz_L: float
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[float, float] = (-1.0, 1.0)
    output_range: tuple[float, float] = (0.0, 1.0)

    def evaluate(self, yhat: float, y: float) -> float:
        return float(self.fn(np.float64(yhat), np.float64(y)))

    def evaluate_array(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(yhat, y)


def linear_loss() -> LossFunction:
    """l(yhat, y) = (1 - yhat*y)/2; the mistake indicator on {-1, +1} pairs."""
    return LossFunction("linear", 0.5, lambda a, b: (1.0 - a * b) / 2.0)


def absolute_loss() -> LossFunction:
    """l(yhat, y) = |yhat - y|/2, normalized so the range on [-1,1]^2 is [0,1]."""
    return LossFunction("absolute", 0.5, lambda a, b: np.abs(a - b) / 2.0)


def square_loss() -> LossFunction:
    """l(yhat, y) = (yhat - y)^2 on the [0, 1] prediction/label domain (L = 2)."""
    return LossFunction("square", 2.0, lambda a, b: (a - b) ** 2, domain=(0.0, 1.0))


def scaled_square_loss() -> LossFunction:
    """l(yhat, y) = ((yhat - y)/2)^2 on [-1, 1]^2; strictly convex, L = 1."""
    return LossFunction("custom", 1.0, lambda a, b: ((a - b) / 2.0) ** 2)


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

    Contexts without an atom id store -1 in ``ids``, those without a
    coordinate NaN in ``coords``.  Everything a run reports derives from these.
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

    def append(self, context: ContextPoint, label: float, prediction: float,
               instant_loss: float, oracle_calls: int) -> None:
        t = self.n
        if t and oracle_calls < self.oracle_calls[t - 1]:
            raise ValueError("oracle call count must be nondecreasing")
        self.ids[t] = -1 if context.id is None else context.id
        self.coords[t] = np.nan if context.coordinate is None else context.coordinate
        self.labels[t], self.predictions[t], self.instant_loss[t] = label, prediction, instant_loss
        self.oracle_calls[t] = oracle_calls
        self.n = t + 1

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
