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
The playouts never read the history, so the learner draws them a block of
rounds ahead, one multinomial over an array of rounds_left whose stream is
that of the same draws made one by one, and the oracle evaluates the block's
playout rows as one (block x H) product at its first round; each prediction
still makes its own oracle calls, and the traces are those of drawing every
playout at its round.
The rules are written over many predictions (``play_linear``,
``play_general``), each with its own playout and the history its round saw.
A caller names the predictions it wants: ``RelaxGeneralLearner.predictions``
several in the current round, ``RelaxGeneralLearner.play`` one in each round
of a run known ahead; either is answered up to ``RUN_ELEMENTS`` at a time.
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


def _branch_values(state: RelaxState, playout: PlayoutDraw, values: np.ndarray,
                   oracle: ErmOracle, labels: np.ndarray, index: int,
                   history: np.ndarray) -> np.ndarray:
    """sup_f [ playout(f) - L_t(f) - l(f(x_t), y) ] per round and label y, one oracle call
    each, for the playouts index, index + 1, ... of a block: round i over the history
    objective ``history[i]``, with the class's values ``values[:, i]`` at its x_t."""
    return -oracle.exact_labels(state.playout_query(playout), values, labels, index,
                                history)[1]


def play_linear(state: RelaxState, playout: PlayoutDraw, values: np.ndarray,
                oracle: ErmOracle, index: int, history: np.ndarray) -> np.ndarray:
    """Two-call closed form for linear loss l(yhat, y) = (1 - yhat*y)/2, over a run of rounds.

    The inner maximization over the label is attained at y = +/-1, so two ERM
    calls give the two branch values a_+ and a_-, and the outer minimum sits
    at the intersection of the two affine branches: yhat = a_+ - a_-, which
    lies in [-1, 1] because |a_+ - a_-| <= 1.  Round i of the run plays
    playout index + i over ``history[i]`` at the contexts whose class values
    are ``values[:, i]``; ``last_branch_values`` keeps the run's last round.
    """
    if state.loss.kind != "linear":
        raise ValueError("linear loss required")
    a = _branch_values(state, playout, values, oracle, _SIGNS, index, history)
    state.last_branch_values = tuple(a[-1].tolist())
    return np.minimum(np.maximum(a[:, 0] - a[:, 1], -1.0), 1.0)


def predict_linear(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                   oracle: ErmOracle, index: int = 0) -> float:
    """``play_linear`` for one round at x_t, over the oracle's history."""
    return _one_round(play_linear, state, playout, x_t, oracle, index)


def _one_round(rule: Callable, state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
               oracle: ErmOracle, index: int) -> float:
    return float(rule(state, playout, oracle.klass.evaluate_block(x_t), oracle, index,
                      oracle.prefix[None, :])[0])


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


def play_general(state: RelaxState, playout: PlayoutDraw, values: np.ndarray,
                 oracle: ErmOracle, index: int, history: np.ndarray) -> np.ndarray:
    """Grid min-max for a general convex Lipschitz loss, over a run of rounds as
    ``play_linear`` takes it.

    The label-branch values Phi(y) do not depend on yhat, so the exhaustive
    inner scan costs |S| oracle calls once per round; the outer minimization
    over yhat then runs the three-point search on cached branch values, round
    by round.
    """
    phi = _branch_values(state, playout, values, oracle, state.grid, index, history)
    state.last_branch_values = tuple(phi[-1].tolist())
    worst = (state.outer_loss + phi[:, None, :]).max(axis=2)  # sup_y per round and yhat
    return state.grid[[three_point_min(w.__getitem__, state.grid) for w in worst]]


def predict_general(state: RelaxState, playout: PlayoutDraw, x_t: ContextBlock,
                    oracle: ErmOracle, index: int = 0) -> float:
    """``play_general`` for one round at x_t, over the oracle's history."""
    return _one_round(play_general, state, playout, x_t, oracle, index)


class RelaxGeneralLearner:
    """Improper learner: a fresh playout per prediction, predictions via ``rule``.

    A call names the predictions it answers: ``per_round`` in each of ``rounds`` rounds
    from the current one (``predictions``: several in this round; ``play``: one in each
    round of a run).  It takes the playout block's next entries when they are for exactly
    those rounds, and otherwise draws a new block of at least ``BLOCK // per_round``
    rounds, none past round T; the rest of the old block is never used.
    """

    name = "relax-general"
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
        self._playouts: Optional[PlayoutDraw] = None  # the current block
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
        """A run of whole rounds, one prediction each, whose contexts and labels are known
        ahead: the predictions, playouts and oracle calls of ``predict`` then ``observe``
        round by round.  The class is evaluated once on the run's contexts, and the history
        each round saw comes from one cumulative sum.  Returns the predictions and the
        oracle calls made by the end of each round."""
        values, calls = self.klass.evaluate_block(contexts), self.oracle.calls
        predictions = self._answer(values, self.oracle.extend_run(values, labels)[:-1], 1,
                                   len(labels))
        self.state.t += len(labels)
        return predictions, calls + self.branches * np.arange(1, len(labels) + 1)

    def _answer(self, values: np.ndarray, history: np.ndarray, per_round: int,
                rounds: int) -> np.ndarray:
        """The rule's predictions at the contexts whose class values are ``values``, over
        ``history``: ``per_round`` in each of the next ``rounds`` rounds, each with its own
        playout, up to ``self._chunk`` at once."""
        rounds_left, n, block = self.state.rounds_left, per_round * rounds, self._playouts
        ahead = [] if block is None else block.rounds_left[self._next:self._next + n].tolist()
        if ahead != [rounds_left - i // per_round for i in range(n)]:
            size = min(max(rounds, BLOCK // per_round), rounds_left + 1)
            block = draw_playout(self.cells, np.arange(rounds_left, rounds_left - size, -1)
                                 .repeat(per_round), self.state.k, self.rng, self.values)
            self._playouts, self._next = block, 0
        index, self._next = self._next, self._next + n
        predictions = np.empty(n)
        for i in range(0, n, self._chunk):
            chunk = slice(i, i + self._chunk)
            predictions[chunk] = self.rule(self.state, block, values[:, chunk], self.oracle,
                                           index + i, history[chunk])
        return predictions

    def observe(self, context: ContextBlock, label: float) -> None:
        self.state.observe(context, label, self.oracle)


class RelaxLinearLearner(RelaxGeneralLearner):
    name = "relax-linear"
    rule = staticmethod(play_linear)
    branches = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.state.loss.kind != "linear":
            raise ValueError(f"linear loss required, not {self.state.loss.kind!r}")
