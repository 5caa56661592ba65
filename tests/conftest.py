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
