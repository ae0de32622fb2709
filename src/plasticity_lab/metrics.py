"""Online accuracy metrics and network-internals diagnostics.

Accuracy is always *online*: each batch is scored before the network
trains on it. Per task, the average online task accuracy is the mean of
those batch accuracies over the task's steps; the total average online
accuracy is the mean over the whole lifetime and is the model-selection
metric.

The diagnostics are the mean absolute parameter value (over every
trainable tensor) and the effective rank of hidden feature matrices:
srank(spectrum) is the smallest k whose top-k singular values account for
at least 1 - SRANK_DELTA = 0.99 of the spectrum sum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import nn

log = logging.getLogger(__name__)

SRANK_DELTA = 0.01


def batch_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest class."""
    return np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels)


def mean_param_magnitude(params: nn.ParameterSet) -> float:
    """Mean |theta| over all trainable entries (weights, biases, affines)."""
    return float(np.abs(params.flat, out=params.work[1]).sum()) / params.flat.size


def srank(sing_vals: np.ndarray) -> int:
    """Smallest k with (sum of top-k values) / (sum of all) >= 1 - SRANK_DELTA, for
    a live layer's spectrum: descending, non-negative, not all zero."""
    ratios = np.cumsum(sing_vals) / sing_vals.sum()
    return int(np.searchsorted(ratios, 1.0 - SRANK_DELTA) + 1)


def feature_srank_probe(
    spec: nn.NetworkSpec, params: nn.ParameterSet, probe: np.ndarray
) -> float:
    """Mean srank of the hidden-layer feature matrices on a probe batch."""
    mats = nn.hidden_feature_matrices(spec, params, probe)
    ranks = []
    for mat in mats:
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals.sum() == 0.0:
            log.warning("feature_srank_probe: dead layer (all-zero activations)")
            ranks.append(0)
        else:
            ranks.append(srank(svals))
    return float(np.mean(ranks))


@dataclass
class TaskRow:
    task_index: int
    start_step: int
    avg_online_task_accuracy: float
    weight_magnitude: float
    feature_srank: float


@dataclass
class RunRecord:
    """Everything one experiment run produced."""

    config: dict
    task_rows: list[TaskRow] = field(default_factory=list)
    total_avg_online_accuracy: float = float("nan")
    per_step_accuracy: np.ndarray | None = None
    steps_completed: int = 0
    incomplete: bool = False
    wall_clock_seconds: float = 0.0
