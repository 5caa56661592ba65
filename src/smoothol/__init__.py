"""Oracle-efficient smoothed online learning.

Learners (an improper relaxation learner and three proper perturbed-leader
variants) interact with sigma-smooth adversaries through a weighted ERM
oracle whose calls are the unit of computational cost.  The package also
ships the coupling construction that licenses the i.i.d. analysis, and a
SquareCB reduction for smoothed contextual bandits.
"""

from .core import (
    ContextBlock,
    FiniteMeasure,
    GroundSet,
    HypothesisClass,
    LossFunction,
    SmoothnessCertificate,
    TableClass,
    ThresholdClass,
    Trajectory,
    UniformIntervalMeasure,
    absolute_loss,
    finalize_regret,
    linear_loss,
    make_rng,
    scaled_square_loss,
    square_loss,
)
from .oracle import ErmOracle, ErmQuery, ErmResult

__all__ = [
    "ContextBlock",
    "FiniteMeasure",
    "GroundSet",
    "HypothesisClass",
    "LossFunction",
    "SmoothnessCertificate",
    "TableClass",
    "ThresholdClass",
    "Trajectory",
    "UniformIntervalMeasure",
    "absolute_loss",
    "finalize_regret",
    "linear_loss",
    "make_rng",
    "scaled_square_loss",
    "square_loss",
    "ErmOracle",
    "ErmQuery",
    "ErmResult",
]
