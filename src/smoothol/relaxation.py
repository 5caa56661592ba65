"""Improper relaxation learner driven by random playouts of future rounds.

Each round the learner samples k fresh hypothetical continuations of the
horizon from the base measure with Rademacher signs, and plays

    yhat_t = argmin_{yhat} sup_{y} { l(yhat, y) + sup_f [ 6L sum eps f(x_future) - L_t(f) ] }

where L_t(f) is the running loss of f including the candidate label y for the
current round.  The inner supremum over the class is one weighted ERM call:
the oracle holds the observed history, and the playout enters as one block of
identity rows, with negated weights because the oracle minimizes.  The
playout reaches the oracle only through sum eps f(x), so it is drawn as one
signed count per cell of the class's cell measure (cells on which every
hypothesis is constant) instead of point by point; the law is the same.  A
round's branch queries differ only in the label of the current round's row,
so they are answered by one ``ErmOracle.exact_labels`` evaluation of the
history, the playout and f(x_t), which still counts and logs one oracle call
per label.
For linear loss the outer problem collapses to a closed form needing two
oracle calls; in general the interval is discretized at scale 1/(L*sqrt(T))
and the outer minimization runs a three-point convex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import MAX_DRAWS, ContextBlock, HypothesisClass, LossFunction
from .oracle import IDENTITY, ErmOracle, ErmQuery

__all__ = [
    "PlayoutDraw",
    "draw_playout",
    "RelaxState",
    "predict_linear",
    "predict_general",
    "three_point_min",
    "RelaxLinearLearner",
    "RelaxGeneralLearner",
    "default_playout_width",
]


def default_playout_width(T: int, sigma: float) -> int:
    """k = ceil((3/sigma) * log T), so the T^3 e^{-sigma k} remainder stays <= 1."""
    return max(1, math.ceil(3.0 * math.log(max(T, 2)) / sigma))


@dataclass
class PlayoutDraw:
    """Rounds t+1..T, k draws each, as net Rademacher counts per cell.

    ``signs[c]`` is n_c^+ - n_c^-, the +1 draws landing in cell c minus the -1
    draws; sum_i eps_i f(x_i) = sum_c signs[c] * f(contexts[c]) for every f
    constant on each cell.
    """

    contexts: ContextBlock  # one representative per cell
    signs: np.ndarray       # int, one net count per cell
    rounds_left: int
    k: int

    def __post_init__(self):
        if len(self.signs) != len(self.contexts):
            raise ValueError("signs must hold one net count per context")
        n, drawn = self.rounds_left * self.k, int(np.abs(self.signs).sum())
        if drawn > n or (n - drawn) % 2:
            raise ValueError("net counts must come from rounds_left * k signed draws")


def draw_playout(mu, rounds_left: int, k: int, rng: np.random.Generator) -> PlayoutDraw:
    """rounds_left * k i.i.d. draws from the finite measure mu (a class's cell
    measure) with Rademacher signs, counted per (atom, sign) by one multinomial."""
    half = mu.probs / 2.0
    counts = rng.multinomial(rounds_left * k, np.concatenate((half, half)))
    size = len(half)
    return PlayoutDraw(contexts=mu.ground.block(np.arange(size)),
                       signs=counts[:size] - counts[size:], rounds_left=rounds_left, k=k)


class RelaxState:
    """Shared bookkeeping for the relaxation ops: horizon, playout width, round count.

    The observed rounds live in the oracle's history as weight-1
    main-loss rows, appended via ``observe``.
    """

    def __init__(self, loss: LossFunction, T: int, sigma: float,
                 k: Optional[int] = None):
        if T < 1:
            raise ValueError("horizon must be at least 1")
        self.loss = loss
        self.T = T
        self.sigma = sigma
        self.k = k if k is not None else default_playout_width(T, sigma)
        if self.k < 1:
            raise ValueError("playout width k must be at least 1")
        if (T - 1) * self.k > MAX_DRAWS:
            raise ValueError(f"playout width k = {self.k} is too large for T = {T}: (T - 1) * k "
                             f"must be at most 2^63 - 1, the most draws one multinomial takes")
        L = loss.lipschitz_L
        self.grid = np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 * L * math.sqrt(T) - 1e-9)))
        self.delta = 1.0 / (L * math.sqrt(T))
        self.t = 0
        # (a_+, a_-) after predict_linear, Phi(y) over the grid after predict_general
        self.last_branch_values: Optional[tuple[float, ...]] = None

    @cached_property
    def outer_loss(self) -> np.ndarray:
        """l(yhat, y) over grid x grid, one row per yhat; built on first use."""
        return self.loss.evaluate_array(self.grid[:, None], self.grid[None, :])

    @property
    def rounds_left(self) -> int:
        """Future rounds after the one currently being played."""
        return self.T - (self.t + 1)

    def observe(self, context: ContextBlock, label: float, oracle: ErmOracle) -> None:
        oracle.extend_prefix(context, label)
        self.t += 1


def _branch_values(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle, labels: np.ndarray) -> np.ndarray:
    """sup_f [ playout(f) - L_t(f) - l(f(x_t), y) ] per label y, one oracle call each.

    The oracle minimizes while the relaxation takes a supremum, so the
    playout's 6L weight per net sign enters negated.
    """
    weights = -6.0 * state.loss.lipschitz_L * playout.signs.astype(np.float64).ravel()
    query = ErmQuery().add_block(IDENTITY, playout.contexts, np.zeros(len(weights)), weights)
    return -oracle.exact_labels(query, x_t, labels)[1]


def predict_linear(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle) -> float:
    """Two-call closed form for linear loss l(yhat, y) = (1 - yhat*y)/2.

    The inner maximization over the label is attained at y = +/-1, so two ERM
    calls give the two branch values a_+ and a_-, and the outer minimum sits
    at the intersection of the two affine branches: yhat = a_+ - a_-, which
    lies in [-1, 1] because |a_+ - a_-| <= 1.
    """
    if state.loss.kind != "linear":
        raise ValueError("linear loss required")
    a_plus, a_minus = _branch_values(state, playout, x_t, oracle, np.array([1.0, -1.0])).tolist()
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


def predict_general(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                    oracle: ErmOracle) -> float:
    """Grid min-max for a general convex Lipschitz loss.

    The label-branch values Phi(y) do not depend on yhat, so the exhaustive
    inner scan costs |S| oracle calls once per round; the outer minimization
    over yhat then runs the three-point search on cached branch values.
    """
    phi = _branch_values(state, playout, x_t, oracle, state.grid)
    state.last_branch_values = tuple(phi.tolist())
    worst = (state.outer_loss + phi[None, :]).max(axis=1)  # sup_y per candidate yhat

    idx = three_point_min(lambda i: worst[i], state.grid)
    return float(state.grid[idx])


class _RelaxLearnerBase:
    """Improper learner: fresh playout per round, predictions via the min-max rule."""

    proper = False

    def __init__(self, klass: HypothesisClass, loss: LossFunction, mu, T: int,
                 sigma: float, oracle: ErmOracle, rng: np.random.Generator,
                 k: Optional[int] = None):
        self.klass = klass
        self.cells = klass.cell_measure(mu)
        self.oracle = oracle
        self.rng = rng
        self.state = RelaxState(loss, T, sigma, k=k)
        self.last_playout: Optional[PlayoutDraw] = None

    def _fresh_playout(self) -> PlayoutDraw:
        playout = draw_playout(self.cells, self.state.rounds_left, self.state.k, self.rng)
        self.last_playout = playout
        return playout

    def observe(self, context: ContextBlock, label: float) -> None:
        self.state.observe(context, label, self.oracle)

    def predict(self, x_t: ContextBlock) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class RelaxLinearLearner(_RelaxLearnerBase):
    name = "relax-linear"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.state.loss.kind != "linear":
            raise ValueError(f"linear loss required, not {self.state.loss.kind!r}")

    def predict(self, x_t: ContextBlock) -> float:
        return predict_linear(self.state, self._fresh_playout(), x_t, self.oracle)


class RelaxGeneralLearner(_RelaxLearnerBase):
    name = "relax-general"

    def predict(self, x_t: ContextBlock) -> float:
        return predict_general(self.state, self._fresh_playout(), x_t, self.oracle)
