"""Weighted ERM oracle over a finite class, with call accounting: the unit of cost.

A call minimizes over the class the history objective, one weight-1 main-loss row per
observed round (``prefix``), plus a query's row blocks; a row has a real weight w_i and
selects the main loss l(f(x), y) or the identity "loss" f(x).  The exact oracle returns
the lowest-index minimizer; the zeta-approximate one any f_hat with

    objective(f_hat) <= min_f objective(f) + zeta * sum_i |w_i|,

the sum running over the query's rows and the history's.  Invariants: each round answered
counts one call (``exact_labels`` one per label) however many rounds one evaluation covers,
and a run's history (``extend_run``), a block's rounds or rounds observed one at a time
(``approximate_adaptive``) give the floats of answering round by round.  README ("Weighted
ERM oracle") describes how.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ContextBlock, HypothesisClass, LossFunction

__all__ = ["RowBlock", "ErmQuery", "ErmResult", "ErmOracle"]

MAIN = "main_loss"
IDENTITY = "identity_loss"
KEPT_ROW_FLOATS = 1 << 16  # extend_prefix keeps rows until they hold this many floats (512 KiB)
SIGNS = np.array([1.0, -1.0])  # a binary class's two values, the linear relaxation's labels


@dataclass
class RowBlock:
    """Rows sharing a loss selector: ``weights`` (rounds, rows), given as (rows,) for one
    round, over contexts and labels shared by every round or given per round, round-major.

    ``values``, if given, is f(contexts) per hypothesis, (H, len(contexts)), read in place
    of evaluating the contexts (identity rows may carry any function of it, such as its
    powers); ``abs_weight``, each round's sum |w| of the rows the weights were summed from.
    """

    selector: str
    contexts: ContextBlock
    labels: np.ndarray
    weights: np.ndarray
    values: Optional[np.ndarray] = None
    abs_weight: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.selector not in (MAIN, IDENTITY):
            raise ValueError(f"unknown loss selector {self.selector!r}")
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim == 1:
            self.weights = self.weights[None, :]
        n = len(self.contexts)
        if self.weights.ndim != 2 or len(self.labels) != n or \
                n not in (len(self), self.rounds * len(self)):
            raise ValueError("block arrays must share a length")
        if self.values is not None and (self.values.ndim != 2 or self.values.shape[1] != n):
            raise ValueError(f"block values must be (H, {n}), not {self.values.shape}")
        if self.abs_weight is not None:  # one per round, or a bare number for one round
            self.abs_weight = np.reshape(self.abs_weight, self.rounds)

    @property
    def rounds(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        """Rows per round."""
        return self.weights.shape[-1]


class ErmQuery:
    """The rows ``rounds`` weighted ERM instances add to the oracle's history: round i's
    are row i of every block.  The first block stored sets ``rounds``, one while there is
    none.  The oracle's first call evaluates every round and keeps the result in
    ``evaluated``; adding a block drops it."""

    def __init__(self):
        self.rounds = 1
        self.blocks: list[RowBlock] = []
        self.evaluated: Optional[tuple] = None  # (oracle, (rounds, H) objective per block)

    def add_block(self, selector: str, contexts: ContextBlock, labels: np.ndarray,
                  weights: np.ndarray, values: Optional[np.ndarray] = None,
                  abs_weight: Optional[np.ndarray] = None) -> "ErmQuery":
        block = RowBlock(selector, contexts, labels, weights, values, abs_weight)
        if block.rounds != self.rounds and (self.blocks or block.rounds < 1):
            raise ValueError(f"block holds {block.rounds} rounds, not the query's {self.rounds}")
        if len(block):
            self.rounds = block.rounds
            self.blocks.append(block)
            self.evaluated = None
        return self

    @property
    def n_rows(self) -> int:
        """Rows per round of the row blocks; the history's rows are the oracle's ``prefix_rows``."""
        return sum(len(b) for b in self.blocks)

    def total_abs_weight(self, index: int = 0) -> float:
        """sum |w_i| over round ``index``'s rows: a block's ``abs_weight`` where it
        has one, else the sum of its weights'."""
        return float(sum(np.abs(b.weights[index]).sum()
                         if b.abs_weight is None else b.abs_weight[index]
                         for b in self.blocks))


@dataclass(frozen=True)
class ErmResult:
    hypothesis_index: int
    objective_value: float


def _row_sums(terms: np.ndarray, weights: np.ndarray, shared: bool) -> np.ndarray:
    """(rounds, H): each round's weights times its columns of the (H, columns) terms,
    which hold one set of rows for every round, or each round's rows in turn."""
    if shared:
        return weights @ terms.T
    per_round = terms.reshape(len(terms), len(weights), -1).transpose(1, 0, 2)
    return np.matmul(per_round, weights[:, :, None])[:, :, 0]


class ErmOracle:
    """Exact and zeta-approximate weighted ERM over a finite class."""

    def __init__(self, klass: HypothesisClass, main_loss: LossFunction):
        self.klass = klass
        self.main_loss = main_loss
        self._calls = 0
        self.prefix = np.zeros(len(klass), dtype=np.float64)  # history objective per hypothesis
        self.prefix_rows = 0
        self._rows: dict = {}  # (atom id, coordinate, label) -> its main-loss row

    # -- call accounting ----------------------------------------------------
    @property
    def calls(self) -> int:
        """Number of completed oracle queries; ``exact_labels`` counts one per label."""
        return self._calls

    # -- history ---------------------------------------------------------------
    def extend_prefix(self, context: ContextBlock, label: float) -> None:
        """Add the observed round's weight-1 main-loss row to the history: a row at an
        atom, with a label equal to itself, is computed once and kept, up to
        ``KEPT_ROW_FLOATS`` floats of kept rows."""
        self._extend((context.id, context.coordinate, label), context)

    def _extend(self, key: tuple, context: Optional[ContextBlock] = None) -> None:
        """``extend_prefix`` for the round keyed (atom id, coordinate, label), at ``context``,
        or at the atom's one-row block ``ContextBlock(ids=[atom id])`` where None."""
        row = self._rows.get(key)
        if row is None:
            if context is None:
                context = ContextBlock(ids=np.array([key[0]]))
            label = key[2]
            row = self.main_loss.evaluate_array(self.klass.evaluate_block(context)[:, 0], label)
            if key[0] is not None and label == label \
                    and len(self._rows) < KEPT_ROW_FLOATS // len(self.prefix):
                self._rows[key] = row
        self.prefix += row
        self.prefix_rows += 1

    def extend_run(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Add a run of observed rounds, given the class's (H, rounds) values at their
        contexts, with the float additions of ``extend_prefix`` round by round; returns the
        (rounds + 1, H) history before each round and after the last."""
        losses = self.main_loss.evaluate_array(values, labels[None, :])
        seen = np.concatenate((self.prefix[None, :], losses.T))
        np.cumsum(seen, axis=0, out=seen)
        self.prefix = seen[-1].copy()
        self.prefix_rows += len(labels)
        return seen

    # -- objective evaluation -----------------------------------------------
    def _block_objective(self, block: RowBlock) -> np.ndarray:
        """(rounds, H): each round's sum_i w_i l_i(f(x_i), y_i) over the block's rows."""
        shared = len(block.contexts) == len(block)  # one set of rows for every round
        values = block.values
        if values is None:
            values = self.klass.evaluate_block(block.contexts)
        elif len(values) != len(self.prefix):
            raise ValueError(f"block values hold {len(values)} hypotheses, not {len(self.prefix)}")
        if block.selector == MAIN:
            # the loss matrix is freed before the values: the other order let the allocator
            # return both (H x rows) arrays to the system every round, and fault them back in
            return _row_sums(self.main_loss.evaluate_array(values, block.labels[None, :]),
                             block.weights, shared)
        return _row_sums(values, block.weights, shared)  # identity rows: sum_i w_i f(x_i)

    def objective_vector(self, query: ErmQuery, index: int = 0) -> np.ndarray:
        """A copy of the history objective plus round ``index``'s row blocks', in order."""
        return self._objectives(query, index, self.prefix[None, :])[0]

    def _objectives(self, query: ErmQuery, index: int, history: np.ndarray) -> np.ndarray:
        """(rounds, H): row i is ``history[i]`` plus round index + i's row blocks', in order."""
        obj = history.copy()
        for block_objective in self._evaluated(query):
            obj += block_objective[index:index + len(obj)]
        return obj

    def _evaluated(self, query: ErmQuery) -> list:
        """Each block's (rounds, H) objectives, evaluated for every round at the first call
        on the query."""
        if query.evaluated is None or query.evaluated[0] is not self:
            query.evaluated = (self, [self._block_objective(b) for b in query.blocks])
        return query.evaluated[1]

    # -- queries --------------------------------------------------------------
    def exact(self, query: ErmQuery) -> ErmResult:
        """Exact minimizer (zeta = 0); ties resolve to the lowest index."""
        return self.approximate(query, 0.0)

    def exact_labels(self, query: ErmQuery, values: np.ndarray, labels: np.ndarray,
                     index: int, history: np.ndarray) -> np.ndarray:
        """``exact``'s objective values for rounds index, index + 1, ... of the query, each
        plus a weight-1 main-loss row (x_t, y) per label y: round i over the history objective
        ``history[i]``, with the class's values ``values[:, i]`` at its x_t.  Equal, bit for
        bit, to one ``exact`` call per round and label, and counted so; returns the
        (rounds, labels) minimum objective values.  A binary class's come from the minima of
        the objective over the hypotheses with f(x_t) = +1 and -1 (README gives why)."""
        labels = np.asarray(labels, dtype=np.float64)
        obj = self._objectives(query, index, history)
        self._calls += len(obj) * len(labels)
        if self.klass.kind == "binary":  # the least objective where f(x_t) = +1, and -1
            plus, rows = values.T > 0, np.arange(len(obj))
            least = [group[rows, group.argmin(axis=1)][:, None]
                     for group in (np.where(plus, obj, np.inf), np.where(plus, np.inf, obj))]
            loss = self.main_loss.evaluate_array(SIGNS[:, None], labels)
            return np.minimum(loss[0] + least[0], loss[1] + least[1])
        # a (rounds x labels x H) array; float addition commutes, so each sum is exact's
        full = self.main_loss.evaluate_array(values.T[:, None, :], labels[None, :, None])
        full += obj[:, None, :]
        return np.take_along_axis(full, full.argmin(axis=2)[..., None], 2)[..., 0]

    def approximate(self, query: ErmQuery, zeta: float,
                    rng: Optional[np.random.Generator] = None, index: int = 0) -> ErmResult:
        """zeta-approximate minimizer of round ``index``: the exact one, swapped by ``_swap``
        for another in the band, which tests callers against the worst the contract allows."""
        obj = self.objective_vector(query, index)
        idx = self._swap(obj, int(obj.argmin()), query, zeta, rng, index, self.prefix_rows)
        self._calls += 1
        return ErmResult(idx, float(obj[idx]))

    def approximate_run(self, query: ErmQuery, zeta: float, rng: Optional[np.random.Generator],
                        index: int, history: np.ndarray, rows: int) -> np.ndarray:
        """``approximate``'s hypotheses for rounds index, index + 1, ... of the query, round i
        over the history objective ``history[i]`` of rows + i weight-1 rows: one argmin
        per round, then the swap rule round by round."""
        obj = self._objectives(query, index, history)
        idx = obj.argmin(axis=1)
        if zeta:
            idx = np.array([self._swap(row, best, query, zeta, rng, index + i, rows + i)
                            for i, (row, best) in enumerate(zip(obj, idx))], dtype=np.int64)
        self._calls += len(obj)
        return idx

    def approximate_adaptive(self, query: ErmQuery, zeta: float,
                             rng: Optional[np.random.Generator], index: int, rounds: int,
                             observe: Callable[[int], tuple]) -> None:
        """``approximate`` then ``extend_prefix`` for rounds index, ..., index + rounds - 1 of
        the query, where each round's observation may read its hypothesis h: ``observe(h)``
        returns the round's (atom id, label), whose row at ``ContextBlock(ids=[atom id])``
        joins the history before the next round.  The floats, draws and calls of answering
        and observing round by round."""
        blocks = self._evaluated(query)
        for i in range(index, index + rounds):
            obj = self.prefix
            for block_objective in blocks:
                obj = obj + block_objective[i]
            idx = int(obj.argmin())
            if zeta:
                idx = self._swap(obj, idx, query, zeta, rng, i, self.prefix_rows)
            self._calls += 1
            atom, label = observe(idx)
            self._extend((atom, None, label))

    def _swap(self, obj: np.ndarray, idx: int, query: ErmQuery, zeta: float,
              rng: Optional[np.random.Generator], index: int, rows: int) -> int:
        """idx, the lowest-index argmin of round ``index``'s objectives ``obj`` over a history
        of ``rows`` rows; with zeta > 0 and an rng, with probability 1/2 a uniformly random
        other hypothesis inside the band instead, where there is one."""
        if zeta < 0:
            raise ValueError("zeta must be nonnegative")
        if zeta > 0 and rng is not None and rng.random() < 0.5:
            band = zeta * (query.total_abs_weight(index) + rows)
            admissible = np.flatnonzero(obj <= obj[idx] + band)
            others = admissible[admissible != idx]
            if len(others):
                idx = int(rng.choice(others))
        return idx
