"""Gradient-boosted decision trees for the scam/benign oracle.

Boosting minimizes the logistic loss with the classic additive scheme:
start from the prior log-odds, grow one shallow tree per round on the
current gradients, and add it with the configured learning rate.
Leaf values are Newton steps (-sum g / sum h); if a round would raise the
training loss, its leaves are halved until it does not (dropping to a no-op
tree in the limit), so the per-round training loss is non-increasing by
construction.  The model keeps the categorical encoder ``train_gbdt`` fits
on its training columns.  Prediction is batched: ``predict_columns`` scores
every row of a table by column, and ``predict_many`` every vector, with one
``predict_proba`` call, the same traversal training uses.

``model.json`` is format 2.  A load checks every tree node against the
feature schema, so a malformed model fails before it scores a row.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import SchemaError, TrainingError
from ..featurizer.encode import (
    CATEGORICAL_COLUMNS,
    DatasetEncoder,
    check_labels,
    feature_columns,
)
from ..featurizer.schema import NUM_FEATURES, FeatureVector
from ..records import check_field_types, read_json, write_document
from .tree import TreeNode, finite_float, grow_tree, predict_tree, rank_table

MODEL_FORMAT_VERSION = 2
CLASSIFICATION_THRESHOLD = 0.5

_CAT_COLS = frozenset(CATEGORICAL_COLUMNS)
_MAX_HALVINGS = 12


@dataclass
class TrainConfig:
    rounds: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5

    def __post_init__(self):
        check_field_types(self)
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

    def predict_proba(self, columns: list) -> np.ndarray:
        """P(scam) per row of the schema-order feature ``columns``."""
        values = self.encoder.transform(columns)
        raw = np.full(len(values), self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += predict_tree(tree, values)
        return _sigmoid(raw)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "config": asdict(self.config),
            "base_score": self.base_score,
            "train_loss": self.train_loss,
            "encoder": self.encoder.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GbdtModel":
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise SchemaError(
                f"unsupported model format {payload.get('format_version')!r} "
                f"(expected {MODEL_FORMAT_VERSION}); retrain the model with "
                f"train-oracle to rebuild it")
        return cls(
            config=TrainConfig(**payload["config"]),
            base_score=finite_float(payload["base_score"], "base_score"),
            trees=[TreeNode.from_dict(t, NUM_FEATURES, _CAT_COLS, f"trees[{i}]")
                   for i, t in enumerate(payload["trees"])],
            encoder=DatasetEncoder.from_dict(payload["encoder"]),
            train_loss=[float(x) for x in payload["train_loss"]],
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


def train_gbdt(columns: list, labels: Sequence[int],
               config: Optional[TrainConfig] = None) -> GbdtModel:
    """Boost on the schema-order feature ``columns`` with the encoder fitted
    on them, which the model keeps."""
    if config is None:
        config = TrainConfig()
    y = check_labels(labels, len(columns[0]))
    n = y.size
    if n < 2 * config.min_leaf:
        raise TrainingError(f"need at least {2 * config.min_leaf} rows, got {n}")

    if y.min() == y.max():
        raise TrainingError("logistic training requires both classes")
    prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base = float(np.log(prior / (1.0 - prior)))

    raw = np.full(n, base, dtype=np.float64)
    trees: list[TreeNode] = []
    losses = [_logistic_loss(raw, y)]

    encoder = DatasetEncoder().fit(columns)
    values = encoder.transform(columns)
    table = rank_table(values, _CAT_COLS)  # the matrix is fixed across rounds

    for _ in range(config.rounds):
        p = _sigmoid(raw)
        grad = p - y
        hess = np.maximum(p * (1.0 - p), 1e-12)

        def leaf_value(rows: np.ndarray) -> float:
            g = grad[rows].sum()
            h = hess[rows].sum()
            return -config.learning_rate * g / (h + 1e-12)

        tree = grow_tree(table, grad, hess, config.max_depth, config.min_leaf,
                         leaf_value)

        # halve the update until training loss does not increase
        prev_loss = losses[-1]
        update = predict_tree(tree, values)
        for _ in range(_MAX_HALVINGS):
            if _logistic_loss(raw + update, y) <= prev_loss:
                break
            tree = _scale_leaves(tree, 0.5)
            update *= 0.5
        else:
            tree = TreeNode(value=0.0)
            update = np.zeros_like(update)

        raw += update
        trees.append(tree)
        losses.append(_logistic_loss(raw, y))

    return GbdtModel(config=config, base_score=base, trees=trees,
                     encoder=encoder, train_loss=losses)


def predict_columns(model: GbdtModel, columns: list) -> list[tuple[str, float]]:
    """``(label, score)`` per row of the schema-order feature ``columns``,
    from one matrix call."""
    scores = model.predict_proba(columns)
    return [("SCAM" if s >= CLASSIFICATION_THRESHOLD else "BENIGN", float(s))
            for s in scores]


def predict_many(model: GbdtModel,
                 vectors: Sequence[FeatureVector]) -> list[tuple[str, float]]:
    """``(label, score)`` per vector, from one matrix call."""
    return predict_columns(model, feature_columns(vectors))


def predict(model: GbdtModel, vector: FeatureVector) -> tuple[str, float]:
    return predict_many(model, [vector])[0]


def save_model(model: GbdtModel, path) -> None:
    write_document(path, json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_model(path) -> GbdtModel:
    return read_json(path, GbdtModel.from_dict)
