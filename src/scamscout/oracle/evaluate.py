"""Cross-validated evaluation of the oracle and its baseline.

Folds are stratified so each keeps the global scam/benign ratio.  Each
fold's model fits its own categorical encoder on that fold's training rows
only, so no information from held-out rows leaks into the dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import TrainingError
from ..featurizer.encode import feature_columns, take_rows
from ..featurizer.schema import FeatureVector
from .baseline import train_logistic_baseline
from .gbdt import CLASSIFICATION_THRESHOLD, TrainConfig, train_gbdt


@dataclass
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass
class EvalReport:
    model_name: str
    fold_metrics: list[Metrics]

    @property
    def mean_f1(self) -> float:
        return float(np.mean([m.f1 for m in self.fold_metrics]))


def binary_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    tp = int(((y_pred == 1) & (y_true == 1)).sum())
    fp = int(((y_pred == 1) & (y_true == 0)).sum())
    fn = int(((y_pred == 0) & (y_true == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = float((y_true == y_pred).mean()) if y_true.size else 0.0
    return Metrics(precision, recall, f1, accuracy)


def stratified_folds(labels: Sequence[int], k: int, seed: int = 0) -> list[np.ndarray]:
    """Return k arrays of row indices, each preserving the class ratio."""
    y = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise TrainingError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i, row in enumerate(idx):
            folds[i % k].append(int(row))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def cross_validate(
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    k: int = 5,
    seed: int = 0,
    config: Optional[TrainConfig] = None,
    model: str = "gbdt",
) -> EvalReport:
    """Stratified k-fold CV of either the GBDT oracle or the LR baseline."""
    y = np.asarray(labels, dtype=np.int64)
    folds = stratified_folds(y, k, seed)
    trainers = {
        "gbdt": lambda cols, fold_y: train_gbdt(cols, fold_y, config),
        "logistic": train_logistic_baseline,
    }
    if model not in trainers:
        raise TrainingError(f"unknown model {model!r}")
    fold_metrics = []
    columns = feature_columns(vectors)
    for test_idx in folds:
        train_idx = np.setdiff1d(np.arange(len(vectors)), test_idx)
        fitted = trainers[model](take_rows(columns, train_idx), y[train_idx])
        proba = fitted.predict_proba(take_rows(columns, test_idx))
        pred = (proba >= CLASSIFICATION_THRESHOLD).astype(np.int64)
        fold_metrics.append(binary_metrics(y[test_idx], pred))
    return EvalReport(model, fold_metrics)
