"""Experiment harness: named configurations for every paper table/figure."""

from repro.experiments.configs import (
    EXPERIMENT_SCALES,
    ExperimentScale,
    MethodConfig,
    dataset_for,
    model_for,
)
from repro.experiments.runner import (
    MethodResult,
    run_method,
    train_method,
)
from repro.experiments.tables import format_table, format_series
from repro.experiments.store import ResultStore

__all__ = [
    "ExperimentScale",
    "EXPERIMENT_SCALES",
    "MethodConfig",
    "dataset_for",
    "model_for",
    "MethodResult",
    "train_method",
    "run_method",
    "format_table",
    "format_series",
    "ResultStore",
]
