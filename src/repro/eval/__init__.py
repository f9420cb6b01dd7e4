"""Metrics, experiment harnesses, and reporting for the paper's evaluation."""

from .experiments import (
    EfficiencyExperiment,
    EfficiencyResult,
    ExperimentConfig,
    FIG6_ADAPTATION,
    RetrievalDriftExperiment,
    RetrievalDriftResult,
    TrendShiftExperiment,
    TrendShiftResult,
)
from .metrics import average_precision, roc_auc, roc_curve, score_statistics
from .reporting import ascii_series, format_retrieval_drift, format_trend_shift

__all__ = [
    "roc_auc",
    "roc_curve",
    "average_precision",
    "score_statistics",
    "ExperimentConfig",
    "FIG6_ADAPTATION",
    "TrendShiftExperiment",
    "TrendShiftResult",
    "RetrievalDriftExperiment",
    "RetrievalDriftResult",
    "EfficiencyExperiment",
    "EfficiencyResult",
    "format_trend_shift",
    "format_retrieval_drift",
    "ascii_series",
]
