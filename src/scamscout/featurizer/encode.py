"""Encode feature vectors into numeric matrices.

Categorical tokens get integer codes learned from the training rows; code 0
is reserved for MISSING and for tokens never seen at fit time, so a model can
score new data without re-fitting.  Numeric and boolean cells keep their
values with NaN marking MISSING, and a parallel boolean mask records
missingness explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import SchemaError
from .schema import (
    BOOLEAN,
    CATEGORICAL,
    FEATURES,
    NUM_FEATURES,
    NUMERIC,
    SCHEMA_VERSION,
    FeatureVector,
)

CATEGORICAL_COLUMNS = tuple(
    i for i, (_, kind, _) in enumerate(FEATURES) if kind == CATEGORICAL
)


@dataclass
class DesignMatrix:
    values: np.ndarray          # (n, 103) float64, NaN = MISSING
    missing_mask: np.ndarray    # (n, 103) bool
    column_meta: dict[int, dict[str, int]]
    labels: Optional[np.ndarray] = None
    schema_version: str = SCHEMA_VERSION

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

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
                cols.append(self.missing_mask[:, i].astype(np.float64))
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

    def encode_row(self, vector: FeatureVector) -> np.ndarray:
        if not self.column_meta:
            raise SchemaError("encoder not fitted")
        row = np.empty(NUM_FEATURES, dtype=np.float64)
        for i, value in enumerate(vector.values):
            if i in self.column_meta:
                if value is None:
                    row[i] = 0.0
                else:
                    row[i] = float(self.column_meta[i].get(value, 0))
            elif value is None:
                row[i] = np.nan
            else:
                row[i] = float(value)
        return row

    def transform(
        self,
        vectors: Sequence[FeatureVector],
        labels: Optional[Sequence[int]] = None,
    ) -> DesignMatrix:
        rows = np.array([self.encode_row(v) for v in vectors], dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, NUM_FEATURES)
        mask = np.isnan(rows)
        for col in CATEGORICAL_COLUMNS:
            mask[:, col] = rows[:, col] == 0.0
        y = None if labels is None else _check_labels(labels, rows.shape[0])
        return DesignMatrix(rows, mask, dict(self.column_meta), y)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "columns": {str(k): v for k, v in self.column_meta.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetEncoder":
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"encoder schema {payload.get('schema_version')!r} does not "
                f"match {SCHEMA_VERSION!r}"
            )
        meta = {
            int(col): {tok: int(code) for tok, code in mapping.items()}
            for col, mapping in payload["columns"].items()
        }
        return cls(meta)


def _check_labels(labels: Sequence[int], n_rows: int) -> np.ndarray:
    """Labels as int64 0/1; anything else raises naming the first bad row."""
    try:
        raw = np.asarray(labels, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"labels must be numeric: {exc}") from None
    if raw.shape != (n_rows,):
        raise SchemaError(f"{n_rows} rows but {raw.size} labels")
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
