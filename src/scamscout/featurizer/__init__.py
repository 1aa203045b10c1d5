"""Feature extraction for the scam/benign domain classifier."""

from .encode import (
    CATEGORICAL_COLUMNS,
    NUMBER_COLUMNS,
    DatasetEncoder,
    FeatureTable,
    feature_columns,
    take_rows,
)
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
    "CATEGORICAL_COLUMNS",
    "DatasetEncoder",
    "FEATURES",
    "FEATURE_GROUPS",
    "FEATURE_NAMES",
    "FeatureTable",
    "FeatureVector",
    "NUMBER_COLUMNS",
    "NUMERIC",
    "NUM_FEATURES",
    "SCHEMA_VERSION",
    "costs_from_counts",
    "count_subwords",
    "extract_features",
    "feature_columns",
    "normalize_label",
    "segment_label",
    "take_rows",
]
