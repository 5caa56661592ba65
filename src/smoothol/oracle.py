"""Weighted approximate ERM oracle with call accounting.

The oracle minimizes sum_i w_i * l_i(f(x_i), y_i) over the hypothesis class,
where each row selects either the problem's main loss or the identity "loss"
l_id(yhat, y) = yhat.  Weights may be negative; for an approximate oracle with
slack zeta the returned hypothesis satisfies

    objective(f_hat) <= min_f objective(f) + zeta * sum_i |w_i|.

A query is a list of partials plus columnar row blocks, each block a
(selector, contexts, labels, weights) group.  A partial holds rows evaluated
once into a per-hypothesis objective (``ErmOracle.partial``): the history
``prefix``, extended once per observed round, is one; a relaxation round's
playout, shared by all its branch queries, is another.  A family of
exact queries that differ only in the label of one weight-1 main-loss row
is answered by one evaluation (``ErmOracle.exact_labels``) and still counts
as one call per label.  An optional log writes one JSON line per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .core import ContextBlock, HypothesisClass, LossFunction

__all__ = ["RowBlock", "Partial", "ErmQuery", "ErmResult", "ErmOracle"]

MAIN = "main_loss"
IDENTITY = "identity_loss"


@dataclass
class RowBlock:
    selector: str
    contexts: ContextBlock
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.selector not in (MAIN, IDENTITY):
            raise ValueError(f"unknown loss selector {self.selector!r}")
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (len(self.contexts) == len(self.labels) == len(self.weights)):
            raise ValueError("block arrays must share a length")

    def __len__(self) -> int:
        return len(self.weights)


class Partial:
    """Rows already evaluated: per-hypothesis objective, row count and sum |w|.

    sum |w| is read only by approximate calls and the log, so it is taken
    from the (unchanged) weights on first read.
    """

    def __init__(self, objective: np.ndarray, weights: np.ndarray):
        self.objective = objective
        self.rows = len(weights)
        self._weights: Optional[np.ndarray] = weights
        self._abs_weight = 0.0

    @property
    def abs_weight(self) -> float:
        if self._weights is not None:
            self._abs_weight = float(np.abs(self._weights).sum())
            self._weights = None
        return self._abs_weight

    def add_row(self, objective: np.ndarray) -> None:
        """Add one weight-1 row's per-hypothesis objective, in place."""
        self.objective += objective
        self._abs_weight = self.abs_weight + 1.0
        self.rows += 1


class ErmQuery:
    """A weighted ERM instance: partial objectives plus columnar row blocks."""

    def __init__(self):
        self.partials: list[Partial] = []
        self.blocks: list[RowBlock] = []

    def add_partial(self, partial: Partial) -> "ErmQuery":
        self.partials.append(partial)
        return self

    def add_block(self, selector: str, contexts: ContextBlock,
                  labels: np.ndarray, weights: np.ndarray) -> "ErmQuery":
        block = RowBlock(selector, contexts, labels, weights)
        if len(block):
            self.blocks.append(block)
        return self

    @property
    def n_rows(self) -> int:
        """Rows of the row blocks; partial rows are counted by each partial."""
        return sum(len(b) for b in self.blocks)

    def total_abs_weight(self) -> float:
        total = float(sum(np.abs(b.weights).sum() for b in self.blocks))
        for p in self.partials:
            total += p.abs_weight
        return total


@dataclass(frozen=True)
class ErmResult:
    hypothesis_index: int
    objective_value: float


class ErmOracle:
    """Exact and zeta-approximate weighted ERM over a finite class.

    The approximate oracle's admissible band is zeta * sum|w_i| wide.
    """

    def __init__(self, klass: HypothesisClass, main_loss: LossFunction,
                 log_stream: Optional[IO[str]] = None):
        self.klass = klass
        self.main_loss = main_loss
        self.log_stream = log_stream
        self._calls = 0
        self.prefix = Partial(np.zeros(len(klass), dtype=np.float64), np.zeros(0))

    # -- call accounting ----------------------------------------------------
    @property
    def calls(self) -> int:
        """Number of completed oracle queries; ``exact_labels`` counts one per label."""
        return self._calls

    # -- partial objectives -------------------------------------------------
    def partial(self, selector: str, contexts: ContextBlock,
                labels: np.ndarray, weights: np.ndarray) -> Partial:
        """Evaluate a row block once, for any number of queries; not an oracle call."""
        block = RowBlock(selector, contexts, labels, weights)
        return Partial(self._block_objective(block), block.weights)

    def extend_prefix(self, context: ContextBlock, label: float) -> None:
        """Add the observed round's weight-1 main-loss row to the shared history prefix."""
        values = self.klass.evaluate_block(context)[:, 0]
        self.prefix.add_row(self.main_loss.evaluate_array(values, label))

    # -- objective evaluation -----------------------------------------------
    def _block_objective(self, block: RowBlock) -> np.ndarray:
        if block.selector == IDENTITY:
            # identity rows ignore labels: contribution is sum_i w_i f(x_i)
            return self.klass.identity_dot(block.contexts, block.weights)
        values = self.klass.evaluate_block(block.contexts)
        return self.main_loss.evaluate_array(values, block.labels[None, :]) @ block.weights

    def objective_vector(self, query: ErmQuery) -> np.ndarray:
        """Partials in order, starting from a copy of the first, then the row blocks."""
        if query.partials:
            obj = query.partials[0].objective.copy()
            for p in query.partials[1:]:
                obj += p.objective
        else:
            obj = np.zeros(len(self.klass))
        for block in query.blocks:
            obj += self._block_objective(block)
        return obj

    # -- queries --------------------------------------------------------------
    def exact(self, query: ErmQuery) -> ErmResult:
        """Exact minimizer (zeta = 0); ties resolve to the lowest index."""
        obj = self.objective_vector(query)
        idx = int(np.argmin(obj))
        self._calls += 1
        result = ErmResult(idx, float(obj[idx]))
        self._log(query, [(idx, result.objective_value)])
        return result

    def exact_labels(self, query: ErmQuery, x_t: ContextBlock,
                     labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``exact`` of query plus a weight-1 main-loss row (x_t, y), for each label y.

        The query and f(x_t) are evaluated once and every label's objective is
        formed from them with the same float operations ``exact`` performs, so
        the results are equal to one ``exact`` call per label.  Counts and
        logs one call per label; returns the minimizing indices and their
        objective values.
        """
        labels = np.asarray(labels, dtype=np.float64)
        base = self.objective_vector(query)
        values = self.klass.evaluate_block(x_t)[:, 0]
        obj = base[None, :] + self.main_loss.evaluate_array(values[None, :], labels[:, None])
        idx = obj.argmin(axis=1)
        best = obj[np.arange(len(labels)), idx]
        self._calls += len(labels)
        if self.log_stream is not None and len(labels):
            # every label's query has the same rows and weights; only results differ
            one = ErmQuery()
            one.partials, one.blocks = query.partials, list(query.blocks)
            one.add_block(MAIN, x_t, labels[:1], np.ones(1))
            self._log(one, zip(idx.tolist(), best.tolist()))
        return idx, best

    def approximate(self, query: ErmQuery, zeta: float,
                    rng: Optional[np.random.Generator] = None) -> ErmResult:
        """zeta-approximate minimizer.

        Runs the exact scan, then with probability 1/2 returns a uniformly
        random *other* hypothesis still inside the admissible slack band, so
        downstream consumers are exercised against the worst the contract
        allows.  Without an rng the swap is skipped and the exact minimizer
        is returned (still a valid zeta-approximate answer).
        """
        if zeta < 0:
            raise ValueError("zeta must be nonnegative")
        obj = self.objective_vector(query)
        idx = int(np.argmin(obj))
        if zeta > 0 and rng is not None and rng.random() < 0.5:
            admissible = np.flatnonzero(obj <= obj[idx] + zeta * query.total_abs_weight())
            others = admissible[admissible != idx]
            if len(others):
                idx = int(rng.choice(others))
        self._calls += 1
        result = ErmResult(idx, float(obj[idx]))
        self._log(query, [(idx, result.objective_value)])
        return result

    # -- logging --------------------------------------------------------------
    def _log(self, query: ErmQuery, results: Iterable[tuple[int, float]]) -> None:
        """One record per (index, objective) result of the query."""
        if self.log_stream is None:
            return
        rows = {MAIN: 0, IDENTITY: 0}
        for b in query.blocks:
            rows[b.selector] += len(b)
        head = {
            "rows": rows,
            "partial_rows": sum(p.rows for p in query.partials),
            "abs_weight": query.total_abs_weight(),
        }
        for idx, value in results:
            record = {**head, "result_index": idx, "objective": value}
            self.log_stream.write(json.dumps(record) + "\n")
