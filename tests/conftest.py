import numpy as np
import pytest

from smoothol.core import ContextBlock, FiniteMeasure, GroundSet, TableClass


@pytest.fixture
def sign_constants():
    """Two constant hypotheses f=+1 and f=-1 over a 4-atom ground set."""
    ground = GroundSet.grid(4)
    values = np.vstack([np.ones(4), -np.ones(4)])
    return TableClass(values, ground=ground)


def atom(ground: GroundSet, i: int) -> ContextBlock:
    """The one-row context of atom ``i``: a round's context."""
    return ground.block(np.array([i]))


def random_table_class(rng: np.random.Generator, n_hyp: int, n_atoms: int,
                       binary: bool = False) -> TableClass:
    ground = GroundSet.grid(n_atoms)
    if binary:
        values = rng.choice([-1.0, 1.0], size=(n_hyp, n_atoms))
    else:
        values = np.round(rng.uniform(-1.0, 1.0, size=(n_hyp, n_atoms)), 6)
    return TableClass(values, ground=ground)


def uniform_measure(n_atoms: int) -> FiniteMeasure:
    return FiniteMeasure.uniform(GroundSet.grid(n_atoms))


def sample(mu, rng: np.random.Generator, size: int = 1) -> ContextBlock:
    """``size`` contexts drawn from ``mu``: a finite measure's ``sample_block``, and on the
    uniform interval the doubles ``rng.random(size)`` as coordinates."""
    return mu.sample_block(rng, size) if mu.finite else ContextBlock(coords=rng.random(size))


class OnDoubles:
    """A generator whose ``random(size)`` returns the given doubles; every other draw is
    ``rng``'s."""

    def __init__(self, rng: np.random.Generator, doubles: np.ndarray):
        self._rng, self._doubles = rng, doubles

    def random(self, size):
        assert size == len(self._doubles)
        return self._doubles.copy()

    def __getattr__(self, name):
        return getattr(self._rng, name)
