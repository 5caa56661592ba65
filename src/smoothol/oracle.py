"""Weighted approximate ERM oracle with call accounting.

The oracle minimizes sum_i w_i * l_i(f(x_i), y_i) over the hypothesis class,
where each row selects either the problem's main loss or the identity "loss"
l_id(yhat, y) = yhat.  Weights may be negative; for an approximate oracle with
slack zeta the returned hypothesis satisfies

    objective(f_hat) <= min_f objective(f) + zeta * sum_i |w_i|.

A block whose weights sum drawn rows (FTPL's draws per cell, or summed per
cell) may carry each round's sum |w| of those rows, which the band reads in
place of its own weights'.

The oracle holds the observed history: one weight-1 main-loss row per round,
added by ``extend_prefix`` to a per-hypothesis objective, the ``prefix``.  A
query is only the rows a learner adds to that history (FTPL's perturbation, a
relaxation round's playout), as columnar row blocks, each block a (selector,
contexts, labels, weights) group; every call answers history + blocks.  A
family of exact queries that differ only in the label of one weight-1
main-loss row is answered by one evaluation (``ErmOracle.exact_labels``) and
still counts as one call per label.
A block over fixed contexts (a learner's cells) may carry the class's values
there, evaluated once, which the oracle reads instead of the contexts.  FTPL's
label-anchor process, summed per cell, is such a block of identity rows whose
values are the powers 1, f, f^2 of the cells' values, stacked: the main loss
as a polynomial in f, answered by the same product as any identity block.

A query may stack the history-free rows of several rounds, drawn at once:
each block then holds one weight row per round.  The oracle evaluates every
round of a query together at its first call on it (a (rounds x H) product
for blocks over fixed contexts; one gather, one loss and one row sum for
per-round main-loss contexts) and keeps the result with the query, so each
later call on round i adds only the history.  A call is still counted when
a round is answered, not when its rows are evaluated; a single-round query
is the one-round case of the same evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ContextBlock, HypothesisClass, LossFunction

__all__ = ["RowBlock", "ErmQuery", "ErmResult", "ErmOracle"]

MAIN = "main_loss"
IDENTITY = "identity_loss"


@dataclass
class RowBlock:
    """Rows sharing a loss selector, for one round or a stack of rounds.

    ``weights`` is (rows,) for one round, or (rounds, rows) with one weight
    row per round.  ``contexts`` and ``labels`` hold one set of rows shared
    by every round, or one set per round, round-major.  ``values``, if given,
    is f(contexts) for every hypothesis f, (H, len(contexts)), which the
    oracle reads in place of evaluating the contexts; identity rows may carry
    any function of f(contexts) there instead, such as its powers.
    ``abs_weight``, if given, is each round's sum |w| of the rows the weights
    were summed from, (rounds,).
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
        n = len(self.contexts)
        if self.weights.ndim not in (1, 2) or len(self.labels) != n or \
                n not in (len(self), self.rounds * len(self)):
            raise ValueError("block arrays must share a length")
        if self.values is not None and (self.values.ndim != 2 or self.values.shape[1] != n):
            raise ValueError(f"block values must be (H, {n}), not {self.values.shape}")
        if self.abs_weight is not None:  # one per round, or a bare number for one round
            self.abs_weight = np.reshape(self.abs_weight, self.rounds)

    @property
    def rounds(self) -> int:
        return 1 if self.weights.ndim == 1 else len(self.weights)

    def __len__(self) -> int:
        """Rows per round."""
        return self.weights.shape[-1]


class ErmQuery:
    """The rows a weighted ERM instance adds to the oracle's history, as row blocks.

    A query holds ``rounds`` rounds, and each block one weight row per round
    (a plain weight vector for one round); round i's instance is row i of
    every block.  The oracle's first call on the query evaluates every
    round and keeps the result in ``evaluated``; adding a block drops it.
    """

    def __init__(self, rounds: int = 1):
        if rounds < 1:
            raise ValueError("a query holds at least one round")
        self.rounds = rounds
        self.blocks: list[RowBlock] = []
        self.evaluated: Optional[tuple] = None  # (oracle, (rounds, H) objective per block)

    def add_block(self, selector: str, contexts: ContextBlock, labels: np.ndarray,
                  weights: np.ndarray, values: Optional[np.ndarray] = None,
                  abs_weight: Optional[np.ndarray] = None) -> "ErmQuery":
        block = RowBlock(selector, contexts, labels, weights, values, abs_weight)
        if block.rounds != self.rounds:
            raise ValueError(f"block holds {block.rounds} rounds, not the query's {self.rounds}")
        if len(block):
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
        return float(sum(np.abs(b.weights.reshape(self.rounds, -1)[index]).sum()
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
    """Exact and zeta-approximate weighted ERM over a finite class.

    The approximate oracle's admissible band is zeta * sum|w_i| wide, the sum
    running over the query's rows and the history's weight-1 rows.
    """

    def __init__(self, klass: HypothesisClass, main_loss: LossFunction):
        self.klass = klass
        self.main_loss = main_loss
        self._calls = 0
        self.prefix = np.zeros(len(klass), dtype=np.float64)  # history objective per hypothesis
        self.prefix_rows = 0

    # -- call accounting ----------------------------------------------------
    @property
    def calls(self) -> int:
        """Number of completed oracle queries; ``exact_labels`` counts one per label."""
        return self._calls

    # -- history ---------------------------------------------------------------
    def extend_prefix(self, context: ContextBlock, label: float) -> None:
        """Add the observed round's weight-1 main-loss row to the history."""
        values = self.klass.evaluate_block(context)[:, 0]
        self.prefix += self.main_loss.evaluate_array(values, label)
        self.prefix_rows += 1

    # -- objective evaluation -----------------------------------------------
    def _block_objective(self, block: RowBlock) -> np.ndarray:
        """(rounds, H): each round's sum_i w_i l_i(f(x_i), y_i) over the block's rows."""
        rows = len(block)
        weights = block.weights.reshape(block.rounds, rows)
        shared = len(block.contexts) == rows  # one set of rows for every round
        values = block.values
        if values is None:
            if block.selector == IDENTITY:  # identity rows ignore labels: sum_i w_i f(x_i)
                return np.array([self.klass.identity_dot(
                    block.contexts if shared else block.contexts[i * rows:(i + 1) * rows], w)
                    for i, w in enumerate(weights)])
            values = self.klass.evaluate_block(block.contexts)
        elif len(values) != len(self.prefix):
            raise ValueError(f"block values hold {len(values)} hypotheses, not {len(self.prefix)}")
        if block.selector == MAIN:
            # the loss matrix is freed before the values: the other order let the allocator
            # return both (H x rows) arrays to the system every round, and fault them back in
            return _row_sums(self.main_loss.evaluate_array(values, block.labels[None, :]),
                             weights, shared)
        return _row_sums(values, weights, shared)

    def objective_vector(self, query: ErmQuery, index: int = 0) -> np.ndarray:
        """A copy of the history objective plus round ``index``'s row blocks', in order.

        Every round of the query is evaluated at the first call on it.
        """
        if query.evaluated is None or query.evaluated[0] is not self:
            query.evaluated = (self, [self._block_objective(b) for b in query.blocks])
        obj = self.prefix.copy()
        for block_objective in query.evaluated[1]:
            obj += block_objective[index]
        return obj

    # -- queries --------------------------------------------------------------
    def exact(self, query: ErmQuery, index: int = 0) -> ErmResult:
        """Exact minimizer (zeta = 0) of round ``index``; ties resolve to the lowest index."""
        return self.approximate(query, 0.0, index=index)

    def exact_labels(self, query: ErmQuery, x_t: ContextBlock, labels: np.ndarray,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``exact`` of round ``index`` plus a weight-1 main-loss row (x_t, y), for each label y.

        The query and f(x_t) are evaluated once and every label's objective is
        formed from them with the same float operations ``exact`` performs, so
        the results are equal to one ``exact`` call per label.  Counts one
        call per label; returns the minimizing indices and their objective
        values.
        """
        labels = np.asarray(labels, dtype=np.float64)
        base = self.objective_vector(query, index)
        values = self.klass.evaluate_block(x_t)[:, 0]
        obj = base[None, :] + self.main_loss.evaluate_array(values[None, :], labels[:, None])
        idx = obj.argmin(axis=1)
        best = obj[np.arange(len(labels)), idx]
        self._calls += len(labels)
        return idx, best

    def approximate(self, query: ErmQuery, zeta: float,
                    rng: Optional[np.random.Generator] = None, index: int = 0) -> ErmResult:
        """zeta-approximate minimizer of round ``index``; with zeta = 0 the exact one, and no
        rng draw.

        Runs the exact scan, then with probability 1/2 returns a uniformly
        random *other* hypothesis still inside the admissible slack band, so
        downstream consumers are exercised against the worst the contract
        allows.  Without an rng the swap is skipped and the exact minimizer
        is returned (still a valid zeta-approximate answer).
        """
        if zeta < 0:
            raise ValueError("zeta must be nonnegative")
        obj = self.objective_vector(query, index)
        idx = int(obj.argmin())
        if zeta > 0 and rng is not None and rng.random() < 0.5:
            band = zeta * (query.total_abs_weight(index) + self.prefix_rows)
            admissible = np.flatnonzero(obj <= obj[idx] + band)
            others = admissible[admissible != idx]
            if len(others):
                idx = int(rng.choice(others))
        self._calls += 1
        return ErmResult(idx, float(obj[idx]))
