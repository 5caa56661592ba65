"""Improper relaxation learner driven by random playouts of future rounds.

Each round the learner samples k fresh hypothetical continuations of the
horizon from the base measure with Rademacher signs, and plays

    yhat_t = argmin_{yhat} sup_{y} { l(yhat, y) + sup_f [ 6L sum eps f(x_future) - L_t(f) ] }

where L_t(f) is the running loss of f including the candidate label y for the
current round.  The inner supremum over the class is one weighted ERM call
(identity rows for the playout carry negated weights because the oracle
minimizes).  The playout rows are the same in every branch of a round, so
they are evaluated once into a partial objective that all branch queries
share; the oracle call count does not change.  For linear loss the outer
problem collapses to a closed form needing two oracle calls; in general the
interval is discretized at scale 1/(L*sqrt(T)) and the outer minimization
runs a three-point convex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ContextBlock,
    ContextPoint,
    HypothesisClass,
    LossFunction,
)
from .oracle import IDENTITY, MAIN, ErmOracle, ErmQuery, Partial

__all__ = [
    "PlayoutDraw",
    "draw_playout",
    "RelaxState",
    "predict_linear",
    "predict_general",
    "three_point_min",
    "estimate_relaxation",
    "RelaxLinearLearner",
    "RelaxGeneralLearner",
    "default_playout_width",
]


def default_playout_width(T: int, sigma: float) -> int:
    """k = ceil((3/sigma) * log T), so the T^3 e^{-sigma k} remainder stays <= 1."""
    return max(1, math.ceil(3.0 * math.log(max(T, 2)) / sigma))


@dataclass
class PlayoutDraw:
    """Sampled future contexts and signs for rounds t+1..T, k columns per round."""

    contexts: ContextBlock  # flattened, row-major over (rounds_left, k)
    signs: np.ndarray       # int8 in {-1, +1}, shape (rounds_left, k)
    rounds_left: int
    k: int

    def __post_init__(self):
        if self.signs.shape != (self.rounds_left, self.k):
            raise ValueError("signs must have shape (rounds_left, k)")
        if len(self.contexts) != self.rounds_left * self.k:
            raise ValueError("contexts must hold rounds_left * k points")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.rounds_left, self.k)


def draw_playout(mu, rounds_left: int, k: int, rng: np.random.Generator) -> PlayoutDraw:
    """Fresh i.i.d. playout: contexts from mu, independent Rademacher signs."""
    n = rounds_left * k
    contexts = mu.sample_block(rng, n)
    signs = (2 * rng.integers(0, 2, size=(rounds_left, k), dtype=np.int8) - 1).astype(np.int8)
    return PlayoutDraw(contexts=contexts, signs=signs, rounds_left=rounds_left, k=k)


class RelaxState:
    """Shared bookkeeping for the relaxation ops: horizon, playout width, round count.

    The observed rounds live in the oracle's shared prefix as weight-1
    main-loss rows, appended via ``observe``.
    """

    def __init__(self, loss: LossFunction, T: int, sigma: float,
                 k: Optional[int] = None, grid_size: Optional[int] = None):
        if T < 1:
            raise ValueError("horizon must be at least 1")
        self.loss = loss
        self.T = T
        self.sigma = sigma
        self.k = k if k is not None else default_playout_width(T, sigma)
        if self.k < 1:
            raise ValueError("playout width k must be at least 1")
        L = loss.lipschitz_L
        if grid_size is None:
            grid_size = max(2, math.ceil(2.0 * L * math.sqrt(T) - 1e-9))
        self.grid = np.linspace(-1.0, 1.0, grid_size)
        self.delta = 1.0 / (L * math.sqrt(T))
        self.t = 0
        # (a_+, a_-) after predict_linear, Phi(y) over the grid after predict_general
        self.last_branch_values: Optional[tuple[float, ...]] = None

    @property
    def rounds_left(self) -> int:
        """Future rounds after the one currently being played."""
        return self.T - (self.t + 1)

    def observe(self, context: ContextPoint, label: float, oracle: ErmOracle) -> None:
        oracle.extend_prefix(context, label)
        self.t += 1


def _playout_partial(playout: PlayoutDraw, weight_scale: float, oracle: ErmOracle) -> Partial:
    """The playout's identity rows, evaluated once for every query that shares them.

    The oracle minimizes while the relaxation takes a supremum, so playout
    weights enter negated: weight_scale is -6L for predictions, -2L for the
    Monte-Carlo relaxation value.
    """
    weights = weight_scale * playout.signs.astype(np.float64).ravel()
    return oracle.partial(IDENTITY, playout.contexts, np.zeros(len(weights)), weights)


def _branch_value(oracle: ErmOracle, playout: Partial, x_t: ContextBlock, y: float) -> float:
    """sup_f [ playout(f) - L_t(f) - l(f(x_t), y) ], one oracle call."""
    query = ErmQuery().add_partial(oracle.prefix).add_partial(playout)
    query.add_block(MAIN, x_t, np.array([y]), np.array([1.0]))
    return -oracle.exact(query).objective_value


def predict_linear(state: RelaxState, playout: PlayoutDraw, x_t: ContextPoint,
                   oracle: ErmOracle) -> float:
    """Two-call closed form for linear loss l(yhat, y) = (1 - yhat*y)/2.

    The inner maximization over the label is attained at y = +/-1, so two ERM
    calls give the two branch values a_+ and a_-, and the outer minimum sits
    at the intersection of the two affine branches: yhat = a_+ - a_-, which
    lies in [-1, 1] because |a_+ - a_-| <= 1.
    """
    if state.loss.kind != "linear":
        raise ValueError("linear loss required")
    shared = _playout_partial(playout, -6.0 * state.loss.lipschitz_L, oracle)
    x_block = ContextBlock.single(x_t)
    a_plus = _branch_value(oracle, shared, x_block, 1.0)
    a_minus = _branch_value(oracle, shared, x_block, -1.0)
    state.last_branch_values = (a_plus, a_minus)
    return float(np.clip(a_plus - a_minus, -1.0, 1.0))


def three_point_min(values_oracle: Callable[[int], float], grid: np.ndarray) -> int:
    """Exact minimizer of a convex function over a sorted grid, lowest index on ties.

    Keeps an index interval guaranteed to contain the lowest-index minimizer
    and shrinks it by at least half per iteration using three quartile
    evaluations; distinct value-oracle calls stay within 3*ceil(log2 |S|) + 3.
    """
    m = len(grid)
    if m == 0:
        raise ValueError("empty grid")
    cache: dict[int, float] = {}

    def value(i: int) -> float:
        if i not in cache:
            cache[i] = float(values_oracle(i))
        return cache[i]

    lo, hi = 0, m - 1
    while hi - lo + 1 > 3:
        size = hi - lo + 1
        q1 = lo + size // 4
        q2 = lo + size // 2
        q3 = lo + (3 * size) // 4
        v1, v2, v3 = value(q1), value(q2), value(q3)
        if v1 <= v2:
            # leftmost minimizer is strictly left of the midpoint
            hi = q2 - 1
        elif v2 > v3:
            lo = q2 + 1
        elif v2 < v3:
            lo, hi = q1 + 1, q3 - 1
        else:  # v1 > v2 == v3: plateau starting right of q1, not past q3
            lo, hi = q1 + 1, q3
    best = min(range(lo, hi + 1), key=lambda i: (value(i), i))
    return best


def predict_general(state: RelaxState, playout: PlayoutDraw, x_t: ContextPoint,
                    oracle: ErmOracle) -> float:
    """Grid min-max for a general convex Lipschitz loss.

    The label-branch values Phi(y) do not depend on yhat, so the exhaustive
    inner scan costs |S| oracle calls once per round; the outer minimization
    over yhat then runs the three-point search on cached branch values.
    """
    S = state.grid
    shared = _playout_partial(playout, -6.0 * state.loss.lipschitz_L, oracle)
    x_block = ContextBlock.single(x_t)
    phi = np.array([_branch_value(oracle, shared, x_block, float(y)) for y in S])
    state.last_branch_values = tuple(phi.tolist())
    loss_matrix = state.loss.evaluate_array(S[:, None], S[None, :])
    outer = loss_matrix + phi[None, :]

    idx = three_point_min(lambda i: float(outer[i].max()), S)
    return float(S[idx])


@dataclass
class RelaxationEstimate:
    mean: float
    std_error: float
    num_playouts: int


def estimate_relaxation(state: RelaxState, oracle: ErmOracle, num_playouts: int,
                        rng: np.random.Generator, mu) -> RelaxationEstimate:
    """Monte-Carlo value of the playout relaxation after the observed history.

    Averages sup_f [ 2L sum eps f(x_future) - L_t(f) ] over fresh playouts and
    adds the deterministic (T - t)^3 e^{-sigma k} remainder.
    """
    if num_playouts < 2:
        raise ValueError("need at least two playouts")
    L = state.loss.lipschitz_L
    rounds_left = state.T - state.t
    values = np.empty(num_playouts)
    for i in range(num_playouts):
        playout = draw_playout(mu, rounds_left, state.k, rng)
        q = ErmQuery().add_partial(oracle.prefix)
        q.add_partial(_playout_partial(playout, -2.0 * L, oracle))
        values[i] = -oracle.exact(q).objective_value
    tail = rounds_left ** 3 * math.exp(-state.sigma * state.k)
    std_error = float(values.std(ddof=1) / math.sqrt(num_playouts))
    return RelaxationEstimate(float(values.mean() + tail), std_error, num_playouts)


class _RelaxLearnerBase:
    """Improper learner: fresh playout per round, predictions via the min-max rule."""

    proper = False

    def __init__(self, klass: HypothesisClass, loss: LossFunction, mu, T: int,
                 sigma: float, oracle: ErmOracle, rng: np.random.Generator,
                 k: Optional[int] = None):
        self.klass = klass
        self.mu = mu
        self.oracle = oracle
        self.rng = rng
        self.state = RelaxState(loss, T, sigma, k=k)
        self.last_playout: Optional[PlayoutDraw] = None

    def _fresh_playout(self) -> PlayoutDraw:
        playout = draw_playout(self.mu, self.state.rounds_left, self.state.k, self.rng)
        self.last_playout = playout
        return playout

    def observe(self, context: ContextPoint, label: float) -> None:
        self.state.observe(context, label, self.oracle)

    def predict(self, x_t: ContextPoint) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class RelaxLinearLearner(_RelaxLearnerBase):
    name = "relax-linear"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.state.loss.kind != "linear":
            raise ValueError("linear loss required")

    def predict(self, x_t: ContextPoint) -> float:
        return predict_linear(self.state, self._fresh_playout(), x_t, self.oracle)


class RelaxGeneralLearner(_RelaxLearnerBase):
    name = "relax-general"

    def predict(self, x_t: ContextPoint) -> float:
        return predict_general(self.state, self._fresh_playout(), x_t, self.oracle)
