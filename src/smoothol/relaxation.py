"""Improper relaxation learner driven by random playouts of future rounds.

Each round the learner samples k fresh hypothetical continuations of the
horizon from the base measure with Rademacher signs, and plays

    yhat_t = argmin_{yhat} sup_{y} { l(yhat, y) + sup_f [ 6L sum eps f(x_future) - L_t(f) ] }

where L_t(f) is the running loss of f including the candidate label y for the
current round.  The inner supremum over the class is one weighted ERM call:
the oracle holds the observed history, and the playout enters as one block of
identity rows, with negated weights because the oracle minimizes.  The
playout reaches the oracle only through sum eps f(x), so it is drawn as one
signed count per cell of the class's cell measure instead of point by point;
the law is the same.  A cell is a set on which every hypothesis is constant:
on a finite base measure, a maximal group of atoms with equal value columns,
drawn as its first atom with the group's mass.  The cells are the same
every round, so the learner evaluates the class on them once and each
playout carries that value matrix to the oracle.  A
round's branch queries differ only in the label of the current round's row,
so they are answered by one ``ErmOracle.exact_labels`` evaluation of the
history, the playout and f(x_t), which still counts and logs one oracle call
per label.
The playouts never read the history, so the learner draws them for up to
``core.BLOCK`` predictions at once, one multinomial over an array of
rounds_left whose stream is that of the same draws made one by one, and the
oracle evaluates the block's playout rows as one (block x H) product at its
first round; each prediction still makes its own oracle calls, and the
traces are those of drawing every playout at its round.
For linear loss the outer problem collapses to a closed form needing two
oracle calls; in general the interval is discretized into ceil(2 L sqrt(T))
labels and the outer minimization runs a three-point convex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import BLOCK, MAX_DRAWS, ContextBlock, HypothesisClass, LossFunction
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
    constant on each cell.  A block of playouts has an array ``rounds_left``
    and one row of ``signs`` per entry.
    """

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
    """rounds_left * k i.i.d. draws from the finite measure mu (a class's cell
    measure) with Rademacher signs, counted per (atom, sign) by one multinomial;
    ``values`` is the class's value matrix on mu's atoms, carried by the draw.

    An array of rounds_left draws a block, one playout per entry, with one
    multinomial call whose stream is that of the same calls made one by one.
    """
    half = mu.probs / 2.0
    counts = rng.multinomial(rounds_left * k, np.concatenate((half, half)))
    size = len(half)
    return PlayoutDraw(contexts=mu.atoms, signs=counts[..., :size] - counts[..., size:],
                       rounds_left=rounds_left, k=k, values=values)


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
        self._playout: Optional[PlayoutDraw] = None  # the last playout and its query
        self._query: Optional[ErmQuery] = None

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
        takes a supremum.  The last playout's query is kept, so that the oracle
        evaluates a block's playouts once."""
        if self._playout is not playout:
            weights = -6.0 * self.loss.lipschitz_L * playout.signs.astype(np.float64)
            query = ErmQuery(1 if weights.ndim == 1 else len(weights))
            self._query = query.add_block(IDENTITY, playout.contexts,
                                          np.zeros(len(playout.contexts)), weights,
                                          playout.values)
            self._playout = playout
        return self._query


def _branch_values(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle, labels: np.ndarray, index: int) -> np.ndarray:
    """sup_f [ playout(f) - L_t(f) - l(f(x_t), y) ] per label y, one oracle call each,
    for the playout ``index`` of a block."""
    return -oracle.exact_labels(state.playout_query(playout), x_t, labels, index)[1]


def predict_linear(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle, index: int = 0) -> float:
    """Two-call closed form for linear loss l(yhat, y) = (1 - yhat*y)/2.

    The inner maximization over the label is attained at y = +/-1, so two ERM
    calls give the two branch values a_+ and a_-, and the outer minimum sits
    at the intersection of the two affine branches: yhat = a_+ - a_-, which
    lies in [-1, 1] because |a_+ - a_-| <= 1.
    """
    if state.loss.kind != "linear":
        raise ValueError("linear loss required")
    a_plus, a_minus = _branch_values(state, playout, x_t, oracle, np.array([1.0, -1.0]),
                                     index).tolist()
    state.last_branch_values = (a_plus, a_minus)
    return min(max(a_plus - a_minus, -1.0), 1.0)


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
                    oracle: ErmOracle, index: int = 0) -> float:
    """Grid min-max for a general convex Lipschitz loss.

    The label-branch values Phi(y) do not depend on yhat, so the exhaustive
    inner scan costs |S| oracle calls once per round; the outer minimization
    over yhat then runs the three-point search on cached branch values.
    """
    phi = _branch_values(state, playout, x_t, oracle, state.grid, index)
    state.last_branch_values = tuple(phi.tolist())
    worst = (state.outer_loss + phi[None, :]).max(axis=1)  # sup_y per candidate yhat

    idx = three_point_min(lambda i: worst[i], state.grid)
    return float(state.grid[idx])


class RelaxGeneralLearner:
    """Improper learner: a fresh playout per prediction, predictions via ``rule``.

    Playouts are drawn a block at a time: up to ``BLOCK`` of them, as many
    per round as the last complete round asked for (one at a time until a
    round is complete), and none past round T.  A prediction whose round is
    not the block's next one draws a new block.
    """

    name = "relax-general"
    proper = False
    rule = staticmethod(predict_general)

    def __init__(self, klass: HypothesisClass, loss: LossFunction, mu, T: int,
                 sigma: float, oracle: ErmOracle, rng: np.random.Generator,
                 k: Optional[int] = None):
        self.klass = klass
        self.cells = klass.cell_measure(mu)
        self.values = klass.evaluate_block(self.cells.atoms)  # (H, cells), read every round
        self.oracle = oracle
        self.rng = rng
        self.state = RelaxState(loss, T, sigma, k=k)
        self._playouts: Optional[PlayoutDraw] = None  # the current block
        self._next = 0       # its next unused playout
        self._asked = 0      # predictions asked in the current round
        self._per_round = 0  # predictions asked in the last complete round

    def predict(self, x_t: ContextBlock) -> float:
        rounds_left = self.state.rounds_left
        block = self._playouts
        if block is None or self._next == len(block.rounds_left) or \
                block.rounds_left[self._next] != rounds_left:
            self._playouts, self._next = self._draw_block(rounds_left), 0
        self._next += 1
        self._asked += 1
        return self.rule(self.state, self._playouts, x_t, self.oracle, self._next - 1)

    def _draw_block(self, rounds_left: int) -> PlayoutDraw:
        per_round = self._per_round
        rounds = max(1, min(BLOCK // per_round, rounds_left + 1)) if per_round else 1
        block = np.repeat(np.arange(rounds_left, rounds_left - rounds, -1), max(per_round, 1))
        return draw_playout(self.cells, block, self.state.k, self.rng, self.values)

    def observe(self, context: ContextBlock, label: float) -> None:
        self.state.observe(context, label, self.oracle)
        self._per_round, self._asked = self._asked, 0


class RelaxLinearLearner(RelaxGeneralLearner):
    name = "relax-linear"
    rule = staticmethod(predict_linear)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.state.loss.kind != "linear":
            raise ValueError(f"linear loss required, not {self.state.loss.kind!r}")
