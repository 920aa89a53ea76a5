"""Branch predictors used by the speculative frontend and the baseline."""

from repro.branch.predictor import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    GsharePredictor,
    NotTakenPredictor,
    StaticBTFNPredictor,
)

__all__ = [
    "BranchPredictor",
    "BimodalPredictor",
    "GsharePredictor",
    "AlwaysTakenPredictor",
    "NotTakenPredictor",
    "StaticBTFNPredictor",
]
