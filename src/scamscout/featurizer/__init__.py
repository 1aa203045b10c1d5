"""Feature extraction for the scam/benign domain classifier."""

from .encode import DatasetEncoder, DesignMatrix, encode_dataset
from .extract import extract_features
from .schema import (
    BOOLEAN,
    CATEGORICAL,
    FEATURE_GROUPS,
    FEATURE_NAMES,
    FEATURES,
    NUM_FEATURES,
    NUMERIC,
    SCHEMA_VERSION,
    FeatureVector,
)
from .segment import (
    costs_from_counts,
    count_subwords,
    normalize_label,
    segment_label,
)

__all__ = [
    "BOOLEAN",
    "CATEGORICAL",
    "DatasetEncoder",
    "DesignMatrix",
    "FEATURES",
    "FEATURE_GROUPS",
    "FEATURE_NAMES",
    "FeatureVector",
    "NUMERIC",
    "NUM_FEATURES",
    "SCHEMA_VERSION",
    "costs_from_counts",
    "count_subwords",
    "encode_dataset",
    "extract_features",
    "normalize_label",
    "segment_label",
]
