"""Logistic-regression baseline the boosted trees are compared against.

Plain full-batch gradient descent with L2 regularization on the dense
(sentinel + missing-indicator) encoding, with z-score standardization
learned from the training rows.  Deterministic: no sampling anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from ..featurizer.encode import DesignMatrix

_L2 = 1e-3
_LEARNING_RATE = 0.5
_ITERATIONS = 500


@dataclass
class LogisticBaseline:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray

    def predict_proba_matrix(self, matrix: DesignMatrix) -> np.ndarray:
        dense = (matrix.dense() - self.mean) / self.scale
        z = dense @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def train_logistic_baseline(matrix: DesignMatrix) -> LogisticBaseline:
    if matrix.labels is None:
        raise TrainingError("training requires labels")
    x = matrix.dense()
    y = matrix.labels.astype(np.float64)
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
    return LogisticBaseline(w, b, mean, scale)
