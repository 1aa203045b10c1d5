"""Scam/benign domain classifier: boosted trees plus a linear baseline."""

from .baseline import LogisticBaseline, train_logistic_baseline
from .evaluate import (
    EvalReport,
    Metrics,
    binary_metrics,
    cross_validate,
    stratified_folds,
)
from .gbdt import (
    CLASSIFICATION_THRESHOLD,
    GbdtModel,
    TrainConfig,
    load_model,
    predict,
    predict_many,
    save_model,
    train_gbdt,
)
from .tree import LEFT, RIGHT, TreeNode, grow_tree, predict_tree

__all__ = [
    "CLASSIFICATION_THRESHOLD",
    "EvalReport",
    "GbdtModel",
    "LEFT",
    "LogisticBaseline",
    "Metrics",
    "RIGHT",
    "TrainConfig",
    "TreeNode",
    "binary_metrics",
    "cross_validate",
    "grow_tree",
    "load_model",
    "predict",
    "predict_many",
    "predict_tree",
    "save_model",
    "stratified_folds",
    "train_gbdt",
    "train_logistic_baseline",
]
