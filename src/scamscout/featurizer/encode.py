"""Encode feature columns into numeric matrices.

The encoder takes a table by column, in schema order: a float64 array per
numeric or boolean feature, NaN marking MISSING, and a list of tokens per
categorical one, None marking MISSING.  ``features.csv`` is read straight
into that form, a ``FeatureTable``; ``feature_columns`` transposes
``FeatureVector`` rows into it.
Categorical tokens get integer codes learned from the training rows: each
oracle model fits its own encoder on the rows it trains on and keeps it.
Code 0 is reserved for MISSING and for tokens never seen at fit time, so a
model can score new data without re-fitting.  Numeric and boolean cells
keep their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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
# the numeric and boolean columns, whose cells are floats
NUMBER_COLUMNS = tuple(
    i for i in range(NUM_FEATURES) if i not in CATEGORICAL_COLUMNS
)
# the keys of ``encoder.columns`` in a model file
_COLUMN_KEYS = tuple(map(str, CATEGORICAL_COLUMNS))


@dataclass
class FeatureTable:
    """Feature rows by column: each row's root domain, and the feature
    columns in schema order, as ``DatasetEncoder`` takes them."""

    domains: list[str]
    columns: list

    @classmethod
    def from_kinds(cls, domains: list[str], numbers: np.ndarray,
                   tokens: list[list]) -> "FeatureTable":
        """The table whose ``NUMBER_COLUMNS`` are the rows of ``numbers``
        and whose ``CATEGORICAL_COLUMNS`` are the lists in ``tokens``."""
        columns: list = [None] * NUM_FEATURES
        for i, col in chain(zip(NUMBER_COLUMNS, numbers),
                            zip(CATEGORICAL_COLUMNS, tokens)):
            columns[i] = col
        return cls(domains, columns)

    def __len__(self) -> int:
        return len(self.domains)


def feature_columns(vectors: Sequence[FeatureVector]) -> list:
    """``vectors`` by column, in schema order, as the encoder takes them."""
    columns = list(zip(*(v.values for v in vectors))) or [()] * NUM_FEATURES
    return [list(col) if i in CATEGORICAL_COLUMNS
            else np.array(col, dtype=np.float64)
            for i, col in enumerate(columns)]


def take_rows(columns: list, rows: Sequence[int]) -> list:
    """The table ``columns`` cut to ``rows``, in that order."""
    index = np.asarray(rows, dtype=np.intp)
    return [[col[i] for i in rows] if i in CATEGORICAL_COLUMNS else col[index]
            for i, col in enumerate(columns)]


class DatasetEncoder:
    """Learns categorical dictionaries from training rows, then encodes."""

    def __init__(self, column_meta: Optional[dict[int, dict[str, int]]] = None):
        self.column_meta = column_meta or {}

    def fit(self, columns: list) -> "DatasetEncoder":
        meta: dict[int, dict[str, int]] = {}
        for col in CATEGORICAL_COLUMNS:
            tokens = sorted({tok for tok in columns[col] if tok is not None})
            # 0 is reserved for MISSING / unseen
            meta[col] = {tok: code for code, tok in enumerate(tokens, start=1)}
        self.column_meta = meta
        return self

    def transform(self, columns: list) -> np.ndarray:
        """The (n, 103) float64 matrix, NaN marking MISSING, filled column
        by column; a None or unseen token has no code, so it gets 0."""
        if not self.column_meta:
            raise SchemaError("encoder not fitted")
        values = np.empty((len(columns[0]), NUM_FEATURES), dtype=np.float64)
        for i, col in enumerate(columns):
            code = self.column_meta.get(i)
            values[:, i] = col if code is None else [code.get(tok, 0) for tok in col]
        return values

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


def check_labels(labels: Sequence[int], n: int) -> np.ndarray:
    """``n`` training labels as float64 0.0 (benign) or 1.0 (scam); anything
    else raises naming the first bad row."""
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
    return raw

