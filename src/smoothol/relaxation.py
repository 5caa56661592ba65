"""Improper relaxation learners: each prediction plays against a fresh random playout.

Oracle budget: 2 calls per prediction under linear loss (``play_linear``), and |S| =
ceil(2 L sqrt(T)), one per label of the grid S, under any convex Lipschitz loss
(``play_general``).  Invariants: every prediction has its own playout, with the law of
drawing every point, and none answers twice; playouts drawn a block ahead give the stream
and the traces of drawing each at its round; a learner made for horizon T answers rounds
1..T and refuses a later one before touching anything.  ``three_point_min`` is off the run
path, the reference of criterion 5 and the tests; README ("Learners") gives the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import BLOCK, MAX_DRAWS, ContextBlock, HypothesisClass, LossFunction, refuse_past_horizon
from .oracle import IDENTITY, ErmOracle, ErmQuery

__all__ = [
    "PlayoutDraw",
    "draw_playout",
    "RelaxState",
    "play_linear",
    "predict_linear",
    "play_general",
    "predict_general",
    "three_point_min",
    "RelaxLinearLearner",
    "RelaxGeneralLearner",
    "default_playout_width",
]


# most elements in the (rounds x branch labels x H) objectives of a run's rounds answered
# at once; a learner plays a longer run in chunks of rounds that fit
RUN_ELEMENTS = 2**14
_SIGNS = np.array([1.0, -1.0])  # the linear rule's two branch labels


def default_playout_width(T: int, sigma: float) -> int:
    """k = ceil((3/sigma) * log T), so the T^3 e^{-sigma k} remainder stays <= 1."""
    return max(1, math.ceil(3.0 * math.log(max(T, 2)) / sigma))


@dataclass
class PlayoutDraw:
    """Rounds t+1..T, k draws each, as net Rademacher counts per cell: ``signs[c]`` is
    n_c^+ - n_c^-, so sum_i eps_i f(x_i) = sum_c signs[c] f(contexts[c]).  A block of
    playouts has an array ``rounds_left`` and one row of ``signs`` per entry."""

    contexts: ContextBlock  # one representative per cell
    signs: np.ndarray       # int, one net count per cell (per playout of a block)
    rounds_left: int | np.ndarray
    k: int
    values: Optional[np.ndarray] = None  # f(contexts) per hypothesis f, for the oracle

    def __post_init__(self):
        if self.signs.shape[-1] != len(self.contexts):
            raise ValueError("signs must hold one net count per context")
        n, drawn = np.asarray(self.rounds_left) * self.k, np.abs(self.signs).sum(axis=-1)
        if n.shape != drawn.shape or np.any(drawn > n) or np.any((n - drawn) % 2):
            raise ValueError("net counts must come from rounds_left * k signed draws")


def draw_playout(mu, rounds_left: int | np.ndarray, k: int, rng: np.random.Generator,
                 values: Optional[np.ndarray] = None) -> PlayoutDraw:
    """rounds_left * k i.i.d. signed draws from the finite mu (a class's cell measure),
    counted per (atom, sign) by one multinomial, whose stream for an array of rounds_left is
    that of one call per entry; the draw carries ``values``, the class's values on mu's atoms."""
    half = mu.probs / 2.0
    counts = rng.multinomial(rounds_left * k, np.concatenate((half, half)))
    size = len(half)
    return PlayoutDraw(contexts=mu.atoms, signs=counts[..., :size] - counts[..., size:],
                       rounds_left=rounds_left, k=k, values=values)


class RelaxState:
    """The relaxation's horizon, playout width, label grid and rounds observed."""

    def __init__(self, loss: LossFunction, T: int, sigma: float,
                 k: Optional[int] = None):
        if T < 1:
            raise ValueError("horizon must be at least 1")
        self.loss = loss
        self.T = T
        self.k = k if k is not None else default_playout_width(T, sigma)
        if self.k < 1:
            raise ValueError("playout width k must be at least 1")
        if (T - 1) * self.k > MAX_DRAWS:
            raise ValueError(f"playout width k = {self.k} is too large for T = {T}: (T - 1) * k "
                             f"must be at most 2^63 - 1, the most draws one multinomial takes")
        L = loss.lipschitz_L
        self.grid = np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 * L * math.sqrt(T) - 1e-9)))
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

    def playout_query(self, playout: PlayoutDraw) -> ErmQuery:
        """The playout's identity rows, one round per playout of a block, weighted 6L
        per net sign and negated, because the oracle minimizes while the relaxation
        takes a supremum."""
        weights = -6.0 * self.loss.lipschitz_L * playout.signs.astype(np.float64)
        return ErmQuery().add_block(
            IDENTITY, playout.contexts, np.zeros(len(playout.contexts)), weights, playout.values)


def _branch_values(query: ErmQuery, values: np.ndarray, oracle: ErmOracle, labels: np.ndarray,
                   index: int, history: np.ndarray) -> np.ndarray:
    """sup_f [ playout(f) - L_t(f) - l(f(x_t), y) ] per round and label y, one oracle call
    each, for the playout rounds index, index + 1, ... of the query: round i over the
    history objective ``history[i]``, with the class's values ``values[:, i]`` at its x_t."""
    return -oracle.exact_labels(query, values, labels, index, history)[1]


def play_linear(state: RelaxState, query: ErmQuery, values: np.ndarray,
                oracle: ErmOracle, index: int, history: np.ndarray) -> np.ndarray:
    """Linear loss: the branch values a_+, a_- at y = +/-1 (two calls) and yhat = a_+ - a_-,
    where the affine branches meet, per round: round i plays the query's round index + i
    over ``history[i]`` at the x_t with class values ``values[:, i]``.  ``last_branch_values``
    keeps the last round's."""
    if state.loss.kind != "linear":
        raise ValueError("linear loss required")
    a = _branch_values(query, values, oracle, _SIGNS, index, history)
    state.last_branch_values = tuple(a[-1].tolist())
    return np.minimum(np.maximum(a[:, 0] - a[:, 1], -1.0), 1.0)


def predict_linear(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle) -> float:
    """``play_linear`` for one round at x_t, over the oracle's history."""
    return _one_round(play_linear, state, playout, x_t, oracle)


def _one_round(rule: Callable, state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
               oracle: ErmOracle) -> float:
    return float(rule(state, state.playout_query(playout), oracle.klass.evaluate_block(x_t),
                      oracle, 0, oracle.prefix[None, :])[0])


def three_point_min(values_oracle: Callable[[int], float], grid: np.ndarray) -> int:
    """Exact minimizer of a convex function over a sorted grid, lowest index on ties, in at
    most 3*ceil(log2 |S|) + 3 distinct value-oracle calls: each step's three quartile
    evaluations halve an interval that holds the lowest-index minimizer.  Off the run
    path: the reference of criterion 5 and of the tests for ``play_general``."""
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


def play_general(state: RelaxState, query: ErmQuery, values: np.ndarray,
                 oracle: ErmOracle, index: int, history: np.ndarray) -> np.ndarray:
    """Any convex Lipschitz loss, over rounds as ``play_linear`` takes them: the branch
    values Phi(y) for every y in the grid (|S| calls), then one lowest-index argmin over yhat
    of max_y l(yhat, y) + Phi(y) for every round (``three_point_min`` is its reference)."""
    phi = _branch_values(query, values, oracle, state.grid, index, history)
    state.last_branch_values = tuple(phi[-1].tolist())
    worst = (state.outer_loss + phi[:, None, :]).max(axis=2)  # sup_y per round and yhat
    return state.grid[worst.argmin(axis=1)]


def predict_general(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                    oracle: ErmOracle) -> float:
    """``play_general`` for one round at x_t, over the oracle's history."""
    return _one_round(play_general, state, playout, x_t, oracle)


class RelaxGeneralLearner:
    """Improper learner: a fresh playout per prediction, predictions via ``rule``."""

    proper = False
    rule = staticmethod(play_general)

    def __init__(self, klass: HypothesisClass, loss: LossFunction, mu, T: int,
                 sigma: float, oracle: ErmOracle, rng: np.random.Generator,
                 k: Optional[int] = None):
        self.klass = klass
        self.cells = klass.cell_measure(mu)
        self.values = klass.evaluate_block(self.cells.atoms)  # (H, cells), read every round
        self.oracle = oracle
        self.rng = rng
        self.state = RelaxState(loss, T, sigma, k=k)
        self._playouts: Optional[PlayoutDraw] = None  # the current block, and its query
        self._query: Optional[ErmQuery] = None
        self._next = 0  # its next unused playout
        # predictions answered at once: their (predictions x branches x H) objectives stay small
        self._chunk = max(1, RUN_ELEMENTS // (self.branches * max(len(klass), self.branches)))

    @property
    def branches(self) -> int:
        """Labels branched on, and oracle calls made, per prediction."""
        return len(self.state.grid)

    def predict(self, x_t: ContextBlock) -> float:
        return float(self.predictions(x_t)[0])

    def predictions(self, contexts: ContextBlock) -> np.ndarray:
        """One prediction per context, all in the current round, each with its own playout,
        over the oracle's history."""
        values = self.klass.evaluate_block(contexts)
        history = self.oracle.prefix[None, :].repeat(len(contexts), axis=0)
        return self._answer(values, history, len(contexts), 1)

    def play(self, contexts: ContextBlock, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A run of rounds known ahead, played as ``predict`` then ``observe`` round by round
        would: returns the predictions and the oracle calls made by the end of each round."""
        refuse_past_horizon(self.state.t, len(labels), self.state.T)
        values, calls = self.klass.evaluate_block(contexts), self.oracle.calls
        predictions = self._answer(values, self.oracle.extend_run(values, labels)[:-1], 1,
                                   len(labels))
        self.state.t += len(labels)
        return predictions, calls + self.branches * np.arange(1, len(labels) + 1)

    def _answer(self, values: np.ndarray, history: np.ndarray, per_round: int,
                rounds: int) -> np.ndarray:
        """The rule's predictions at the contexts with class values ``values``, over
        ``history``: ``per_round`` in each of the next ``rounds`` rounds.  It takes the
        playout block's next entries when they are for exactly those rounds, and otherwise
        draws a block of at least ``BLOCK // per_round`` rounds, none past T."""
        refuse_past_horizon(self.state.t, rounds, self.state.T)
        rounds_left, n, block = self.state.rounds_left, per_round * rounds, self._playouts
        ahead = [] if block is None else block.rounds_left[self._next:self._next + n].tolist()
        if ahead != [rounds_left - i // per_round for i in range(n)]:
            size = min(max(rounds, BLOCK // per_round), rounds_left + 1)
            block = draw_playout(self.cells, np.arange(rounds_left, rounds_left - size, -1)
                                 .repeat(per_round), self.state.k, self.rng, self.values)
            self._playouts, self._query, self._next = block, self.state.playout_query(block), 0
        index, self._next = self._next, self._next + n
        predictions = np.empty(n)
        for i in range(0, n, self._chunk):
            chunk = slice(i, i + self._chunk)
            predictions[chunk] = self.rule(self.state, self._query, values[:, chunk],
                                           self.oracle, index + i, history[chunk])
        return predictions

    def observe(self, context: ContextBlock, label: float) -> None:
        self.state.observe(context, label, self.oracle)


class RelaxLinearLearner(RelaxGeneralLearner):
    rule = staticmethod(play_linear)
    branches = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.state.loss.kind != "linear":
            raise ValueError(f"linear loss required, not {self.state.loss.kind!r}")
