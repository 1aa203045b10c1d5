"""Encode feature vectors into numeric matrices.

Categorical tokens get integer codes learned from the training rows; code 0
is reserved for MISSING and for tokens never seen at fit time, so a model can
score new data without re-fitting.  Numeric and boolean cells keep their
values with NaN marking MISSING.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import SchemaError
from .schema import (
    CATEGORICAL,
    FEATURES,
    NUM_FEATURES,
    SCHEMA_VERSION,
    FeatureVector,
)

CATEGORICAL_COLUMNS = tuple(
    i for i, (_, kind, _) in enumerate(FEATURES) if kind == CATEGORICAL
)
# the keys of ``encoder.columns`` in a model file
_COLUMN_KEYS = tuple(map(str, CATEGORICAL_COLUMNS))


@dataclass
class DesignMatrix:
    values: np.ndarray          # (n, 103) float64, NaN = MISSING
    column_meta: dict[int, dict[str, int]]
    labels: Optional[np.ndarray] = None

    def dense(self) -> np.ndarray:
        """Expand to a plain numeric matrix with no NaNs.

        Each numeric/boolean column becomes (value-with-0-sentinel,
        missing-indicator); categorical columns contribute their integer code.
        Column order follows the schema, so the layout is deterministic.
        """
        cols = []
        for i in range(NUM_FEATURES):
            cols.append(np.nan_to_num(self.values[:, i], nan=0.0))
            if i not in self.column_meta:
                cols.append(np.isnan(self.values[:, i]).astype(np.float64))
        return np.column_stack(cols)


class DatasetEncoder:
    """Learns categorical dictionaries from training rows, then encodes."""

    def __init__(self, column_meta: Optional[dict[int, dict[str, int]]] = None):
        self.column_meta = column_meta or {}

    def fit(self, vectors: Sequence[FeatureVector]) -> "DatasetEncoder":
        meta: dict[int, dict[str, int]] = {}
        for col in CATEGORICAL_COLUMNS:
            tokens = sorted(
                {v.values[col] for v in vectors if v.values[col] is not None}
            )
            # 0 is reserved for MISSING / unseen
            meta[col] = {tok: code for code, tok in enumerate(tokens, start=1)}
        self.column_meta = meta
        return self

    def transform(
        self,
        vectors: Sequence[FeatureVector],
        labels: Optional[Sequence[int]] = None,
    ) -> DesignMatrix:
        """Each row built as a list of floats; the batch converted once."""
        if not self.column_meta:
            raise SchemaError("encoder not fitted")
        # each column's token codes, None for a numeric or boolean column; a
        # None or unseen token has no code, so it gets 0
        codes = [self.column_meta.get(i) for i in range(NUM_FEATURES)]
        rows = [[(math.nan if value is None else float(value)) if code is None
                 else float(code.get(value, 0))
                 for code, value in zip(codes, vector.values)]
                for vector in vectors]
        values = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
        y = None if labels is None else _check_labels(labels, len(rows))
        return DesignMatrix(values, dict(self.column_meta), y)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "columns": {str(k): v for k, v in self.column_meta.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetEncoder":
        """The encoder of a model file: ``columns`` maps exactly the
        categorical columns, each from tokens to distinct int codes >= 1."""
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"encoder schema {payload.get('schema_version')!r} does not "
                f"match {SCHEMA_VERSION!r}"
            )
        columns = payload["columns"]
        for key in columns:
            if key not in _COLUMN_KEYS:
                raise SchemaError(
                    f"encoder.columns[{key!r}] is not a categorical column")
        meta = {}
        for col, key in zip(CATEGORICAL_COLUMNS, _COLUMN_KEYS):
            if key not in columns:
                raise SchemaError(
                    f"encoder.columns lacks categorical column {key!r}")
            mapping = columns[key]
            if type(mapping) is not dict:
                raise SchemaError(
                    f"encoder.columns[{key!r}] must be an object, got {mapping!r}")
            seen = set()
            for tok, code in mapping.items():
                # bool is an int, but True is not a code; 0 means unseen
                if type(code) is not int or code < 1 or code in seen:
                    raise SchemaError(
                        f"encoder.columns[{key!r}] maps {tok!r} to {code!r}; "
                        f"codes must be distinct ints >= 1")
                seen.add(code)
            meta[col] = mapping
        return cls(meta)


def _check_labels(labels: Sequence[int], n: int) -> np.ndarray:
    """Labels as int64 0/1; anything else raises naming the first bad row."""
    try:
        raw = np.asarray(labels, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"labels must be numeric: {exc}") from None
    if raw.shape != (n,):
        raise SchemaError(f"{n} rows but {raw.size} labels")
    # checked as floats: an int cast would truncate 0.7 to 0
    bad = np.flatnonzero(~np.isin(raw, (0.0, 1.0)))
    if bad.size:
        i = int(bad[0])
        raise SchemaError(f"label at row {i} is {labels[i]!r}; labels must "
                          f"be 0 (benign) or 1 (scam)")
    return raw.astype(np.int64)


def encode_dataset(
    vectors: Sequence[FeatureVector],
    labels: Optional[Sequence[int]] = None,
) -> tuple[DesignMatrix, DatasetEncoder]:
    encoder = DatasetEncoder().fit(vectors)
    return encoder.transform(vectors, labels), encoder
