"""Regression trees over the encoded feature matrix.

Trees are grown with exact greedy search: at every node each numeric
threshold midpoint and each ordered-target-statistics prefix of categories
is scored, once with MISSING rows sent LEFT and once with them sent RIGHT.
Split gain uses the gradient/hessian form G^2/H of the boosting objective.
Rows with MISSING values follow the split's ``missing_goes`` direction.
``predict_tree`` is the one traversal: boosting and prediction both score
whole encoded matrices with it.

The search is vectorized per node and scores only real split points.  Each
run of consecutive numeric columns is one block; a column with fewer than
two distinct present values at the node cannot split and is skipped.  One
stable argsort per column orders its present values (NaN sorts last), and
cumulative gradient and hessian sums along the sorted column give the left
side of every position.  Only the boundaries, positions whose next present
value is larger, are gathered and scored in both missing directions.  A
categorical column orders its codes by gradient-to-hessian ratio (then by
code) and scores every prefix the same way.  Row arrays are built only for
the winning split.

Selection walks the candidates in scan order: feature index, then
threshold or prefix length, then LEFT before RIGHT.  A candidate replaces
the best so far only if its gain is larger by more than ``_GAIN_TIE``, so
among gains within that tolerance the earliest in scan order wins.  A
candidate counts only if its gain is positive and each side keeps at least
``min_leaf`` rows.  Training is therefore deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SchemaError

LEFT = "LEFT"
RIGHT = "RIGHT"

_EPS_HESS = 1e-12
# a candidate replaces the best so far only if it beats it by more than this
_GAIN_TIE = 1e-12


@dataclass
class TreeNode:
    feature_index: int = -1
    threshold: Optional[float] = None
    category_set: Optional[frozenset[int]] = None
    missing_goes: str = LEFT
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature_index < 0

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        out = {
            "feature_index": self.feature_index,
            "missing_goes": self.missing_goes,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }
        if self.category_set is not None:
            out["category_set"] = sorted(self.category_set)
        else:
            out["threshold"] = self.threshold
        return out

    @classmethod
    def from_dict(cls, payload, n_features: int, cat_cols: frozenset[int],
                  where: str) -> "TreeNode":
        """The node ``to_dict`` wrote, checked against the feature layout; a
        malformed node raises ``SchemaError`` naming its path from ``where``."""
        if not isinstance(payload, dict):
            raise SchemaError(f"{where} must be a JSON object, got {payload!r}")
        if "feature_index" not in payload:
            return cls(value=finite_float(payload.get("value"), f"{where}.value"))
        f = payload["feature_index"]
        if type(f) is not int or not 0 <= f < n_features:
            raise SchemaError(f"{where}.feature_index must be an int in "
                              f"[0, {n_features}), got {f!r}")
        if payload.get("missing_goes") not in (LEFT, RIGHT):
            raise SchemaError(f"{where}.missing_goes must be {LEFT!r} or "
                              f"{RIGHT!r}, got {payload.get('missing_goes')!r}")
        threshold = category_set = None
        if f in cat_cols:
            if "threshold" in payload:
                raise SchemaError(f"{where}: categorical column {f} splits on "
                                  f"a category_set, not a threshold")
            cats = payload.get("category_set")
            if (type(cats) is not list or not cats
                    or any(type(c) is not int or c < 1 for c in cats)):
                raise SchemaError(f"{where}.category_set must be a non-empty "
                                  f"list of ints >= 1, got {cats!r}")
            category_set = frozenset(cats)
        else:
            if "category_set" in payload:
                raise SchemaError(f"{where}: numeric column {f} splits on a "
                                  f"threshold, not a category_set")
            threshold = finite_float(payload.get("threshold"), f"{where}.threshold")
        return cls(
            feature_index=f,
            threshold=threshold,
            category_set=category_set,
            missing_goes=payload["missing_goes"],
            left=cls.from_dict(payload.get("left"), n_features, cat_cols,
                               f"{where}.left"),
            right=cls.from_dict(payload.get("right"), n_features, cat_cols,
                                f"{where}.right"),
        )


def finite_float(value, where: str) -> float:
    """``value`` if it is a finite float, else ``SchemaError``; the model
    writer emits every score, leaf and threshold as a JSON float."""
    if type(value) is not float or not math.isfinite(value):
        raise SchemaError(f"{where} must be a finite float, got {value!r}")
    return value


@dataclass
class _Split:
    gain: float
    feature_index: int
    threshold: Optional[float]
    category_set: Optional[frozenset[int]]
    missing_goes: str
    left_rows: np.ndarray
    right_rows: np.ndarray


def _score(g, h):
    return g * g / (h + _EPS_HESS)


def _scan_blocks(n_features: int, cat_cols: frozenset[int]):
    """Feature ranges ``(lo, hi, is_categorical)`` in scan order.

    Each run of consecutive numeric columns is one range; each categorical
    column is a range of its own.
    """
    lo = 0
    for f in range(n_features):
        if f in cat_cols:
            if lo < f:
                yield lo, f, False
            yield f, f + 1, True
            lo = f + 1
    if lo < n_features:
        yield lo, n_features, False


def _gains(g_left, h_left, n_left, g_right, h_right, n_right,
           g_miss, h_miss, n_miss, parent, min_leaf):
    """Gains of every split point with MISSING sent LEFT, then RIGHT.

    Returns shape ``(..., 2)``; a candidate that leaves either side with
    fewer than ``min_leaf`` rows, or that does not gain, scores -inf.
    """
    sides = (
        (g_left + g_miss, h_left + h_miss, n_left + n_miss,
         g_right, h_right, n_right),
        (g_left, h_left, n_left,
         g_right + g_miss, h_right + h_miss, n_right + n_miss),
    )
    gains = []
    for gl, hl, nl, gr, hr, nr in sides:
        gain = _score(gl, hl) + _score(gr, hr) - parent
        ok = (nl >= min_leaf) & (nr >= min_leaf) & (gain > 0)
        gains.append(np.where(ok, gain, -np.inf))
    return np.stack(gains, axis=-1)


def _split(gain, feature_index, threshold, category_set, d,
           left_rows, right_rows, miss_rows) -> _Split:
    """The split that sends ``miss_rows`` LEFT (``d == 0``) or RIGHT."""
    if d == 0:
        return _Split(gain, feature_index, threshold, category_set, LEFT,
                      np.concatenate([left_rows, miss_rows]), right_rows)
    return _Split(gain, feature_index, threshold, category_set, RIGHT,
                  left_rows, np.concatenate([right_rows, miss_rows]))


def _numeric_gains(block, rows, g_node, h_node, min_leaf, lo):
    """Score the split points of a node's numeric columns ``lo, lo+1, ...``.

    ``block`` holds the node's rows of those columns.  A column with fewer
    than two distinct present values has no split point and is skipped.
    Returns the gains of the split points alone, in scan order (column, then
    split point, then LEFT before RIGHT) with -inf for invalid candidates,
    and a function that builds the split at an index.
    """
    splittable = np.flatnonzero(
        np.fmin.reduce(block, 0) < np.fmax.reduce(block, 0))
    table = block.T[splittable]  # one row per splittable column
    k, n = table.shape
    order = np.argsort(table, axis=1, kind="stable")  # NaN sorts last
    vals = np.take_along_axis(table, order, axis=1)
    missing = np.isnan(table)
    n_miss = missing.sum(axis=1)
    n_present = n - n_miss
    g_miss = np.zeros(k)
    h_miss = np.zeros(k)
    for j in np.flatnonzero(n_miss):
        g_miss[j] = g_node[missing[j]].sum()
        h_miss[j] = h_node[missing[j]].sum()
    g_cum = np.cumsum(g_node[order], axis=1)
    h_cum = np.cumsum(h_node[order], axis=1)
    g_tot = g_cum[np.arange(k), n_present - 1]
    h_tot = h_cum[np.arange(k), n_present - 1]
    parent = _score(g_tot + g_miss, h_tot + h_miss)
    # split point (j, b): column j splits after sorted position b, where the
    # next value is larger; NaN compares false, so both sides are present
    col, at = np.nonzero(vals[:, 1:] > vals[:, :-1])
    g_left, h_left, n_left = g_cum[col, at], h_cum[col, at], at + 1
    gains = _gains(g_left, h_left, n_left,
                   g_tot[col] - g_left, h_tot[col] - h_left,
                   n_present[col] - n_left,
                   g_miss[col], h_miss[col], n_miss[col], parent[col],
                   min_leaf).ravel()

    def split(i: int) -> _Split:
        c, d = divmod(i, 2)
        j, b = col[c], at[c]
        present_rows = rows[order[j, : n_present[j]]]
        threshold = float((vals[j, b] + vals[j, b + 1]) / 2.0)
        return _split(gains[i], lo + int(splittable[j]), threshold, None, d,
                      present_rows[: b + 1], present_rows[b + 1:],
                      rows[missing[j]])

    return gains, split


def _categorical_gains(col, rows, grad, hess, min_leaf, feature_index):
    """Score every prefix of the node's categories, ordered by g/h.

    Returns the gains in scan order (prefix length, then LEFT before RIGHT)
    with -inf for invalid candidates, and a function that builds the split
    at an index.
    """
    codes = col.astype(np.int64)
    known = codes > 0  # code 0 = MISSING / unseen
    miss_rows = rows[~known]
    sub_rows = rows[known]
    sub_codes = codes[known]
    by_code = np.argsort(sub_codes, kind="stable")
    uniq, starts = np.unique(sub_codes[by_code], return_index=True)
    if uniq.size < 2:
        return np.empty(0), None
    coded_rows = sub_rows[by_code]  # node order within each code
    ends = np.append(starts[1:], coded_rows.size)
    g_coded = grad[coded_rows]
    h_coded = hess[coded_rows]
    g = np.array([g_coded[s:e].sum() for s, e in zip(starts, ends)])
    h = np.array([h_coded[s:e].sum() for s, e in zip(starts, ends)])
    sizes = ends - starts
    # ordered target statistics: ratio of gradient to hessian mass, then code
    rank = np.lexsort((uniq, g / (h + _EPS_HESS)))
    g_miss = grad[miss_rows].sum()
    h_miss = hess[miss_rows].sum()
    g_all = grad[rows].sum()
    h_all = hess[rows].sum()
    g_left = np.cumsum(g[rank][:-1])
    h_left = np.cumsum(h[rank][:-1])
    n_left = np.cumsum(sizes[rank][:-1])
    gains = _gains(g_left, h_left, n_left,
                   g_all - g_miss - g_left, h_all - h_miss - h_left,
                   sub_rows.size - n_left,
                   g_miss, h_miss, miss_rows.size, _score(g_all, h_all),
                   min_leaf).ravel()

    def split(i: int) -> _Split:
        prefix, d = divmod(i, 2)
        in_set = rank[: prefix + 1]
        return _split(gains[i], feature_index, None,
                      frozenset(int(c) for c in uniq[in_set]), d,
                      np.concatenate([coded_rows[starts[c]:ends[c]]
                                      for c in in_set]),
                      sub_rows[~np.isin(sub_codes, uniq[in_set])],
                      miss_rows)

    return gains, split


def _walk(gains: np.ndarray, best: float) -> Optional[int]:
    """Index the scan-order walk over ``gains`` ends on, or None.

    Starting from ``best``, the walk takes each candidate whose gain beats
    the current best by more than ``_GAIN_TIE``.  Every candidate before the
    current pick is at most ``best + _GAIN_TIE``, so the next pick is the
    first index whose running maximum exceeds that bound.
    """
    running = np.maximum.accumulate(gains)
    pick = None
    while True:
        i = int(np.searchsorted(running, best + _GAIN_TIE, side="right"))
        if i == gains.size:
            return pick
        pick, best = i, gains[i]


def _best_split(values, cat_cols, rows, grad, hess, min_leaf):
    """The split the scan-order walk ends on for node ``rows``, or None."""
    g_node = grad[rows]
    h_node = hess[rows]
    best_gain, make, at = -np.inf, None, None
    for lo, hi, is_cat in _scan_blocks(values.shape[1], cat_cols):
        if is_cat:
            gains, split = _categorical_gains(
                values[rows, lo], rows, grad, hess, min_leaf, lo)
        else:
            gains, split = _numeric_gains(
                values[rows, lo:hi], rows, g_node, h_node, min_leaf, lo)
        i = _walk(gains, best_gain)
        if i is not None:
            best_gain, make, at = gains[i], split, i
    return None if make is None else make(at)


def grow_tree(
    values: np.ndarray,
    cat_cols: frozenset[int],
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    min_leaf: int,
    leaf_value,
) -> TreeNode:
    """Grow one tree; ``leaf_value(rows)`` computes each leaf's output."""

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        if depth >= max_depth or rows.size < 2 * min_leaf:
            return TreeNode(value=float(leaf_value(rows)))
        split = _best_split(values, cat_cols, rows, grad, hess, min_leaf)
        if split is None:
            return TreeNode(value=float(leaf_value(rows)))
        return TreeNode(
            feature_index=split.feature_index,
            threshold=split.threshold,
            category_set=split.category_set,
            missing_goes=split.missing_goes,
            left=build(split.left_rows, depth + 1),
            right=build(split.right_rows, depth + 1),
        )

    return build(np.arange(values.shape[0]), 0)


def predict_tree(node: TreeNode, values: np.ndarray) -> np.ndarray:
    """Scores of every row; a subtree that no row reaches is not visited."""
    out = np.empty(values.shape[0], dtype=np.float64)

    def descend(n: TreeNode, rows: np.ndarray):
        if rows.size == 0:
            return
        if n.is_leaf:
            out[rows] = n.value
            return
        col = values[rows, n.feature_index]
        if n.category_set is not None:
            known = col > 0
            in_set = np.isin(col.astype(np.int64), list(n.category_set))
            go_left = np.where(known, in_set, n.missing_goes == LEFT)
        else:
            present = ~np.isnan(col)
            go_left = np.where(present, col <= n.threshold, n.missing_goes == LEFT)
        descend(n.left, rows[go_left])
        descend(n.right, rows[~go_left])

    descend(node, np.arange(values.shape[0]))
    return out
