"""Regression trees over the encoded feature matrix.

Trees are grown with exact greedy search: at every node each numeric
threshold midpoint and each ordered-target-statistics prefix of categories
is scored, once with MISSING rows sent LEFT and once with them sent RIGHT.
Split gain uses the gradient/hessian form G^2/H of the boosting objective.
Rows with MISSING values follow the split's ``missing_goes`` direction.
``predict_tree`` is the one traversal: boosting and prediction both score
whole encoded matrices with it.

The search is vectorized per node over a ``RankTable`` that
``rank_table`` builds once per fit.  Each numeric value is replaced by its
dense rank in its column (equal values, -0.0 and 0.0 included, share one;
NaN ranks last), stored as ``uint16`` while the row count fits.  A node
orders all its numeric columns with one stable argsort of their ranks, a
radix sort that yields the same permutation a stable argsort of the values
would.  Cumulative gradient and hessian sums along each sorted column give
the left side of every position; only the boundaries, positions whose next
key is larger and present, are scored in both missing directions, so a
column with fewer than two distinct present values at the node scores
nothing.  The categorical columns are ordered by their codes with one
stable argsort too; the runs of each code give its gradient and hessian
sums, each the ``ndarray.sum()`` of the code's rows in node order, and the
codes are ordered by gradient-to-hessian ratio (then by code) and every
prefix is scored the same way.  Row arrays are built only for the winning
split.

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


@dataclass(frozen=True)
class RankTable:
    """A training matrix laid out for split search; built once per fit.

    ``ranks`` has one row per numeric column with two or more distinct
    present values (``numeric`` names them; no other can split a node): the
    dense rank of each value, where equal values, -0.0 and 0.0 included,
    share a rank and NaN ranks last as the dtype's maximum, ``missing``.
    ``codes`` has one row per categorical column (``categorical``): the
    category code of each row, 0 for MISSING or unseen.  Both are
    ``uint16`` while the row count fits, so a node's stable argsort of its
    keys is a radix sort, and it orders the rows exactly as a stable argsort
    of the values would.
    """

    values: np.ndarray
    numeric: np.ndarray
    ranks: np.ndarray
    categorical: np.ndarray
    codes: np.ndarray

    @property
    def missing(self) -> int:
        return int(np.iinfo(self.ranks.dtype).max)


def _key_dtype(top: int):
    """``uint16`` if it holds ``top``, else ``uint32``."""
    return np.uint16 if top <= np.iinfo(np.uint16).max else np.uint32


def rank_table(values: np.ndarray, cat_cols: frozenset[int]) -> RankTable:
    """The ``RankTable`` of ``values``, whose columns in ``cat_cols`` hold
    category codes."""
    n, n_features = values.shape
    numeric = np.array([f for f in range(n_features) if f not in cat_cols],
                       dtype=np.intp)
    cols = values[:, numeric].T
    # a column with fewer than two distinct present values splits no node
    splits = np.fmin.reduce(cols, axis=1) < np.fmax.reduce(cols, axis=1)
    numeric, cols = numeric[splits], cols[splits]
    categorical = np.array(sorted(cat_cols), dtype=np.intp)
    order = np.argsort(cols, axis=1, kind="stable")  # NaN sorts last
    ordered = np.take_along_axis(cols, order, axis=1)
    dtype = _key_dtype(n)  # ranks run up to n - 1, below the NaN rank
    dense = np.zeros(cols.shape, dtype=dtype)
    # NaN compares false, so a NaN never opens a new rank
    np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, dtype=dtype,
              out=dense[:, 1:])
    dense[np.isnan(ordered)] = np.iinfo(dtype).max
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    # a code below 1 is MISSING, as in predict_tree
    codes = np.maximum(values[:, categorical].T.astype(np.int64), 0)
    codes = codes.astype(_key_dtype(int(codes.max(initial=0))))
    return RankTable(values, numeric, ranks, categorical, codes)


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


def _gather_rows(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, order, axis=1)`` for a C-ordered 2-D ``a``,
    as one flat gather."""
    return a.ravel()[order + (np.arange(a.shape[0]) * a.shape[1])[:, None]]


def _segment_sums(flat: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """``flat[:, s:s + n].sum(axis=1)`` for each segment, bit for bit.

    Segments of one length are gathered into one block and summed along
    its last axis, which numpy reduces row by row exactly as it reduces a
    lone segment.  The bits matter: ties between code ratios depend on them.
    """
    out = np.empty((flat.shape[0], starts.size))
    by_length = np.argsort(lengths, kind="stable")
    ordered = lengths[by_length]
    heads = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    for a, b in zip(heads, heads[1:] + [ordered.size]):
        at = by_length[a:b]
        block = np.take(flat, starts[at, None] + np.arange(ordered[a]), axis=1)
        out[:, at] = block.sum(axis=-1)
    return out


def _numeric_gains(table: RankTable, rows, gh_node, min_leaf):
    """Score the split points of every numeric column at node ``rows``.

    One stable argsort of the rows' ranks orders all the columns (NaN
    last); cumulative gradient and hessian sums along each sorted column
    give the left side of every position.  A split point is a position
    whose next key is larger and present; a column without one is dropped.
    Returns the feature of each split point, their gains in scan order
    (feature, then split point, then LEFT before RIGHT) with -inf for
    invalid candidates, and a function that builds the split at an index.
    """
    keys = table.ranks[:, rows]
    order = np.argsort(keys, axis=1, kind="stable")
    keys = _gather_rows(keys, order)
    cut = (keys[:, 1:] != keys[:, :-1]) & (keys[:, 1:] != table.missing)
    live = np.flatnonzero(cut.any(axis=1))
    col, at = np.nonzero(cut[live])
    order = order[live]
    k, n = order.shape
    n_present = n - (keys[live] == table.missing).sum(axis=1)
    n_miss = n - n_present
    ordered = np.take(gh_node, order, axis=1)  # (2, k, n), C order
    # the MISSING rows are each column's tail, in node order
    miss = _segment_sums(ordered.reshape(2, -1),
                         np.arange(k) * n + n_present, n_miss)
    cum = np.cumsum(ordered, axis=2, out=ordered)
    tot = cum[:, np.arange(k), n_present - 1]
    parent = _score(tot[0] + miss[0], tot[1] + miss[1])
    left = cum[:, col, at]
    gains = _gains(left[0], left[1], at + 1,
                   tot[0, col] - left[0], tot[1, col] - left[1],
                   n_present[col] - at - 1,
                   miss[0, col], miss[1, col], n_miss[col], parent[col],
                   min_leaf).ravel()

    def split(i: int) -> _Split:
        c, d = divmod(i, 2)
        j, b = col[c], at[c]
        f = int(table.numeric[live[j]])
        node_rows = rows[order[j]]
        present_rows = node_rows[: n_present[j]]
        lo, hi = table.values[present_rows[b: b + 2], f]
        return _split(gains[i], f, float((lo + hi) / 2.0), None, d,
                      present_rows[: b + 1], present_rows[b + 1:],
                      node_rows[n_present[j]:])

    return table.numeric[live[col]], gains, split


def _categorical_gains(table: RankTable, rows, gh_node, g_all, h_all,
                       min_leaf):
    """Score every prefix of each categorical column's codes at node
    ``rows``, the codes ordered by gradient-to-hessian ratio, then code.

    One stable argsort of the rows' codes groups every column by code
    (MISSING, code 0, first), and each code's gradient and hessian sums are
    the sums over its rows in node order.  Yields, per column in scan
    order, its feature, its gains in scan order (prefix length, then LEFT
    before RIGHT) with -inf for invalid candidates, and a function that
    builds the split at an index.
    """
    node_codes = table.codes[:, rows]
    order = np.argsort(node_codes, axis=1, kind="stable")
    keys = _gather_rows(node_codes, order)
    c, n = keys.shape
    head = np.ones(keys.shape, dtype=bool)
    head[:, 1:] = keys[:, 1:] != keys[:, :-1]
    col, start = np.nonzero(head & (keys > 0))  # one run per present code
    end = np.where(np.append(col[1:] == col[:-1], False),
                   np.append(start[1:], 0), n)
    n_codes = np.bincount(col, minlength=c)
    if n_codes.max(initial=0) < 2:
        return
    n_miss = (keys == 0).sum(axis=1)
    sums = _segment_sums(np.take(gh_node, order, axis=1).reshape(2, -1),
                         np.append(col * n + start, np.arange(c) * n),
                         np.append(end - start, n_miss))
    g_miss, h_miss = sums[:, col.size:]
    g, h = sums[:, : col.size]
    code = keys[col, start]
    # ordered target statistics: ratio of gradient to hessian mass, then code
    rank = np.lexsort((code, g / (h + _EPS_HESS), col))
    first = np.cumsum(n_codes) - n_codes
    pos = np.arange(col.size) - first[col]
    width = int(n_codes.max())
    left = np.zeros((2, c, width))
    n_left = np.zeros((c, width), dtype=np.int64)
    left[:, col, pos] = sums[:, rank]
    n_left[col, pos] = (end - start)[rank]
    left = np.cumsum(left[:, :, :-1], axis=2)
    n_left = np.cumsum(n_left[:, :-1], axis=1)
    gains = _gains(left[0], left[1], n_left,
                   (g_all - g_miss)[:, None] - left[0],
                   (h_all - h_miss)[:, None] - left[1],
                   (n - n_miss)[:, None] - n_left,
                   g_miss[:, None], h_miss[:, None], n_miss[:, None],
                   _score(g_all, h_all), min_leaf)
    for j in np.flatnonzero(n_codes >= 2):

        def split(i: int, j=j) -> _Split:
            prefix, d = divmod(i, 2)
            runs = rank[first[j]: first[j] + prefix + 1]
            node_rows = rows[order[j]]
            in_set = np.isin(node_codes[j], code[runs])
            return _split(gains[j, prefix, d], int(table.categorical[j]), None,
                          frozenset(int(x) for x in code[runs]), d,
                          np.concatenate([node_rows[start[r]:end[r]]
                                          for r in runs]),
                          rows[(node_codes[j] > 0) & ~in_set],
                          rows[node_codes[j] == 0])

        yield table.categorical[j], gains[j, : n_codes[j] - 1].ravel(), split


def _walk(gains: np.ndarray) -> Optional[int]:
    """Index the scan-order walk over ``gains`` ends on, or None.

    The walk takes each candidate whose gain beats the best so far, at
    first -inf, by more than ``_GAIN_TIE``.  Every candidate before the
    current pick is at most ``best + _GAIN_TIE``, so the next pick is the
    first index whose running maximum exceeds that bound.
    """
    running = np.maximum.accumulate(gains)
    pick, best = None, -np.inf
    while True:
        i = int(np.searchsorted(running, best + _GAIN_TIE, side="right"))
        if i == gains.size:
            return pick
        pick, best = i, gains[i]


def _best_split(table: RankTable, rows, grad, hess, min_leaf):
    """The split the scan-order walk ends on for node ``rows``, or None.

    In scan order the numeric gains come a run of numeric columns at a
    time, each run followed by the categorical column that ends it; one
    walk goes over them all.
    """
    gh_node = np.stack((grad[rows], hess[rows]))
    g_all, h_all = gh_node.sum(axis=1)
    features, num_gains, num_split = _numeric_gains(
        table, rows, gh_node, min_leaf)
    blocks, lo = [], 0  # (gains, split, split's index of gains[0])
    for f, gains, split in _categorical_gains(
            table, rows, gh_node, g_all, h_all, min_leaf):
        hi = 2 * int(np.searchsorted(features, f))
        blocks += [(num_gains[lo:hi], num_split, lo), (gains, split, 0)]
        lo = hi
    blocks.append((num_gains[lo:], num_split, lo))
    i = _walk(np.concatenate([gains for gains, _, _ in blocks]))
    if i is None:
        return None
    for gains, split, base in blocks:
        if i < gains.size:
            return split(base + i)
        i -= gains.size


def grow_tree(
    table: RankTable,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    min_leaf: int,
    leaf_value,
) -> TreeNode:
    """Grow one tree on ``table``; ``leaf_value(rows)`` computes each leaf's
    output."""

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        if depth >= max_depth or rows.size < 2 * min_leaf:
            return TreeNode(value=float(leaf_value(rows)))
        split = _best_split(table, rows, grad, hess, min_leaf)
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

    return build(np.arange(table.values.shape[0]), 0)


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
