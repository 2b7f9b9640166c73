"""Aggregate thermal dynamic modeling of building clusters.

Fits a cluster-level linear thermal model by alternating least squares,
either centrally or through a privacy-preserving multi-party protocol
(secure aggregation plus multiplicative transformation masking), and ships
an adversary harness that stress-tests the privacy claims.
"""

from .estimator import FitResult, bcd_fit, gap, objective, solve_sp1, solve_sp2_plain
from .model import (
    AtdmParameters,
    ClusterDataset,
    DesignMatrices,
    Metrics,
    aggregate_state,
    build_design,
    evaluate_metrics,
    predict_aggregate,
    split_dataset,
)
from .synthetic import default_true_params, generate_synthetic

__all__ = [
    "AtdmParameters",
    "ClusterDataset",
    "DesignMatrices",
    "Metrics",
    "aggregate_state",
    "build_design",
    "evaluate_metrics",
    "predict_aggregate",
    "split_dataset",
    "default_true_params",
    "generate_synthetic",
    "FitResult",
    "objective",
    "solve_sp1",
    "solve_sp2_plain",
    "gap",
    "bcd_fit",
]
