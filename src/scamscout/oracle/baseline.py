"""Logistic-regression baseline the boosted trees are compared against.

Plain full-batch gradient descent with L2 regularization on the dense
(sentinel + missing-indicator) encoding, with z-score standardization
learned from the training rows.  Like the boosted trees, the model keeps
the categorical encoder fitted on its training columns.  Deterministic: no
sampling anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..featurizer.encode import CATEGORICAL_COLUMNS, DatasetEncoder, check_labels
from ..featurizer.schema import NUM_FEATURES

_L2 = 1e-3
_LEARNING_RATE = 0.5
_ITERATIONS = 500


def _dense(values: np.ndarray) -> np.ndarray:
    """Expand an encoded matrix to a plain numeric one with no NaNs.

    Each numeric/boolean column becomes (value-with-0-sentinel,
    missing-indicator); categorical columns contribute their integer code.
    Column order follows the schema, so the layout is deterministic.
    """
    cols = []
    for i in range(NUM_FEATURES):
        cols.append(np.nan_to_num(values[:, i], nan=0.0))
        if i not in CATEGORICAL_COLUMNS:
            cols.append(np.isnan(values[:, i]).astype(np.float64))
    return np.column_stack(cols)


@dataclass
class LogisticBaseline:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray
    encoder: DatasetEncoder

    def predict_proba(self, columns: list) -> np.ndarray:
        """P(scam) per row of the schema-order feature ``columns``."""
        dense = (_dense(self.encoder.transform(columns)) - self.mean) / self.scale
        z = dense @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def train_logistic_baseline(columns: list,
                            labels: Sequence[int]) -> LogisticBaseline:
    """Fit on the schema-order feature ``columns`` with the encoder fitted
    on them, which the model keeps."""
    y = check_labels(labels, len(columns[0]))
    encoder = DatasetEncoder().fit(columns)
    x = _dense(encoder.transform(columns))
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    x = (x - mean) / scale
    n, d = x.shape
    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    for _ in range(_ITERATIONS):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        err = p - y
        grad_w = x.T @ err / n + _L2 * w
        grad_b = err.mean()
        w -= _LEARNING_RATE * grad_w
        b -= _LEARNING_RATE * grad_b
    return LogisticBaseline(w, b, mean, scale, encoder)
