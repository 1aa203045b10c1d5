"""Gradient-boosted decision trees for the scam/benign oracle.

Boosting follows the classic additive scheme: start from the prior
log-odds (logistic) or label mean (squared), grow one shallow tree per round
on the current gradients, and add it with the configured learning rate.
Leaf values are Newton steps (-sum g / sum h); if a round would raise the
training loss, its leaves are halved until it does not (dropping to a no-op
tree in the limit), so the per-round training loss is non-increasing by
construction.  Prediction is batched: ``predict_many`` scores all its vectors
with one ``predict_proba_matrix`` call, the same traversal training uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import TrainingError
from ..featurizer.encode import (
    CATEGORICAL_COLUMNS,
    DatasetEncoder,
    DesignMatrix,
)
from ..featurizer.schema import SCHEMA_VERSION, FeatureVector
from ..records import read_json
from .tree import TreeNode, grow_tree, predict_tree

LOGISTIC = "LOGISTIC"
SQUARED = "SQUARED"

MODEL_FORMAT_VERSION = 1
CLASSIFICATION_THRESHOLD = 0.5

_CAT_COLS = frozenset(CATEGORICAL_COLUMNS)
_MAX_HALVINGS = 12


@dataclass
class TrainConfig:
    rounds: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    loss: str = LOGISTIC
    seed: int = 0

    def __post_init__(self):
        if self.loss not in (LOGISTIC, SQUARED):
            raise TrainingError(f"unknown loss {self.loss!r}")
        if self.rounds < 1 or self.min_leaf < 1:
            raise TrainingError("rounds and min_leaf must be >= 1")
        if self.max_depth < 0:
            raise TrainingError("max_depth must be >= 0 (0 = single-leaf trees)")
        if not 0 < self.learning_rate <= 1:
            raise TrainingError("learning_rate must be in (0, 1]")


@dataclass
class GbdtModel:
    config: TrainConfig
    base_score: float
    trees: list[TreeNode]
    encoder: DatasetEncoder
    train_loss: list[float] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def raw_scores(self, values: np.ndarray) -> np.ndarray:
        out = np.full(values.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += predict_tree(tree, values)
        return out

    def predict_proba_matrix(self, values: np.ndarray) -> np.ndarray:
        raw = self.raw_scores(values)
        if self.config.loss == LOGISTIC:
            return _sigmoid(raw)
        return np.clip(raw, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "schema_version": self.schema_version,
            "config": {
                "rounds": self.config.rounds,
                "max_depth": self.config.max_depth,
                "learning_rate": self.config.learning_rate,
                "min_leaf": self.config.min_leaf,
                "loss": self.config.loss,
                "seed": self.config.seed,
            },
            "base_score": self.base_score,
            "train_loss": self.train_loss,
            "encoder": self.encoder.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GbdtModel":
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise TrainingError(
                f"unsupported model format {payload.get('format_version')!r}"
            )
        return cls(
            config=TrainConfig(**payload["config"]),
            base_score=float(payload["base_score"]),
            trees=[TreeNode.from_dict(t) for t in payload["trees"]],
            encoder=DatasetEncoder.from_dict(payload["encoder"]),
            train_loss=[float(x) for x in payload["train_loss"]],
            schema_version=payload["schema_version"],
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logistic_loss(raw: np.ndarray, y: np.ndarray) -> float:
    # mean log-loss, computed stably from raw scores
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def _squared_loss(raw: np.ndarray, y: np.ndarray) -> float:
    return float(0.5 * np.mean((raw - y) ** 2))


def _scale_leaves(node: TreeNode, factor: float) -> TreeNode:
    if node.is_leaf:
        return TreeNode(value=node.value * factor)
    return TreeNode(
        feature_index=node.feature_index,
        threshold=node.threshold,
        category_set=node.category_set,
        missing_goes=node.missing_goes,
        left=_scale_leaves(node.left, factor),
        right=_scale_leaves(node.right, factor),
    )


def train_gbdt(matrix: DesignMatrix, config: Optional[TrainConfig] = None) -> GbdtModel:
    if config is None:
        config = TrainConfig()
    if matrix.labels is None:
        raise TrainingError("training requires labels")
    y = matrix.labels.astype(np.float64)
    values = matrix.values
    n = values.shape[0]
    if n < 2 * config.min_leaf:
        raise TrainingError(f"need at least {2 * config.min_leaf} rows, got {n}")

    if config.loss == LOGISTIC:
        if y.min() == y.max():
            raise TrainingError("logistic training requires both classes")
        prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        base = float(np.log(prior / (1.0 - prior)))
        loss_fn = _logistic_loss
    else:
        base = float(y.mean())
        loss_fn = _squared_loss

    raw = np.full(n, base, dtype=np.float64)
    trees: list[TreeNode] = []
    losses = [loss_fn(raw, y)]

    encoder = DatasetEncoder(matrix.column_meta)

    for _ in range(config.rounds):
        if config.loss == LOGISTIC:
            p = _sigmoid(raw)
            grad = p - y
            hess = np.maximum(p * (1.0 - p), 1e-12)
        else:
            grad = raw - y
            hess = np.ones(n, dtype=np.float64)

        def leaf_value(rows: np.ndarray) -> float:
            g = grad[rows].sum()
            h = hess[rows].sum()
            return -config.learning_rate * g / (h + 1e-12)

        tree = grow_tree(values, _CAT_COLS, grad, hess,
                         config.max_depth, config.min_leaf, leaf_value)

        # halve the update until training loss does not increase
        prev_loss = losses[-1]
        update = predict_tree(tree, values)
        for _ in range(_MAX_HALVINGS):
            if loss_fn(raw + update, y) <= prev_loss:
                break
            tree = _scale_leaves(tree, 0.5)
            update *= 0.5
        else:
            tree = TreeNode(value=0.0)
            update = np.zeros_like(update)

        raw += update
        trees.append(tree)
        losses.append(loss_fn(raw, y))

    return GbdtModel(config=config, base_score=base, trees=trees,
                     encoder=encoder, train_loss=losses)


def predict_many(model: GbdtModel,
                 vectors: Sequence[FeatureVector]) -> list[tuple[str, float]]:
    """``(label, score)`` per vector, from one matrix call."""
    scores = model.predict_proba_matrix(model.encoder.transform(vectors).values)
    return [("SCAM" if s >= CLASSIFICATION_THRESHOLD else "BENIGN", float(s))
            for s in scores]


def predict(model: GbdtModel, vector: FeatureVector) -> tuple[str, float]:
    return predict_many(model, [vector])[0]


def save_model(model: GbdtModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> GbdtModel:
    return read_json(path, GbdtModel.from_dict)
