"""Boosted-tree oracle: training behavior, prediction, CV evaluation."""

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout.errors import SchemaError, TrainingError
from scamscout.featurizer import (
    BOOLEAN,
    CATEGORICAL,
    FEATURE_NAMES,
    FEATURES,
    NUMERIC,
    FeatureVector,
)
from scamscout.featurizer.encode import (
    CATEGORICAL_COLUMNS,
    DatasetEncoder,
    feature_columns,
    take_rows,
)
from scamscout.oracle import (
    GbdtModel,
    TrainConfig,
    binary_metrics,
    cross_validate,
    load_model,
    predict,
    predict_many,
    save_model,
    stratified_folds,
    train_gbdt,
    train_logistic_baseline,
)
from scamscout.oracle import gbdt, tree
from scamscout.oracle.tree import (
    _EPS_HESS,
    _GAIN_TIE,
    LEFT,
    RIGHT,
    TreeNode,
    _best_split,
    _score,
    predict_tree,
    rank_table,
)

_F1 = FEATURE_NAMES.index("tranco")
_F2 = FEATURE_NAMES.index("majestic")


def _vec(f1=None, f2=None, tld=None) -> FeatureVector:
    values = [None] * len(FEATURE_NAMES)
    values[_F1] = f1
    values[_F2] = f2
    if tld is not None:
        values[FEATURE_NAMES.index("tld")] = tld
    return FeatureVector(values)


def _separable_40():
    """40 points split perfectly by one threshold on one feature."""
    rng = np.random.default_rng(3)
    vectors, labels = [], []
    for i in range(40):
        label = i % 2
        f1 = rng.uniform(10, 20) if label else rng.uniform(0, 9)
        vectors.append(_vec(f1=float(f1), f2=float(rng.uniform(0, 1))))
        labels.append(label)
    # exhaustive check that a single threshold separates the classes
    pos = [v.values[_F1] for v, y in zip(vectors, labels) if y == 1]
    neg = [v.values[_F1] for v, y in zip(vectors, labels) if y == 0]
    assert max(neg) < min(pos), "toy set must be separable before the test runs"
    return vectors, labels


def _xor_200():
    """Labels = XOR of two jittered binary features; not linearly separable."""
    rng = np.random.default_rng(5)
    vectors, labels = [], []
    for _ in range(200):
        a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        vectors.append(_vec(f1=a + float(rng.uniform(-0.2, 0.2)),
                            f2=b + float(rng.uniform(-0.2, 0.2))))
        labels.append(a ^ b)
    return vectors, labels


# --- training -------------------------------------------------------------------


def test_depth_zero_model_predicts_sigmoid_of_base_plus_leaf():
    vectors, labels = _xor_200()
    columns = feature_columns(vectors)
    model = train_gbdt(columns, labels, TrainConfig(rounds=1, max_depth=0))
    (leaf,) = model.trees
    assert leaf.is_leaf
    proba = model.predict_proba(columns)
    expected = 1.0 / (1.0 + np.exp(-(model.base_score + leaf.value)))
    assert np.unique(proba).size == 1
    assert proba[0] == pytest.approx(expected, rel=1e-15)


def test_base_score_is_prior_log_odds():
    vectors, labels = _separable_40()  # 20/20 split
    model = train_gbdt(feature_columns(vectors), labels, TrainConfig(rounds=1))
    assert model.base_score == pytest.approx(0.0)


def test_separable_set_reaches_training_accuracy_one():
    vectors, labels = _separable_40()
    columns = feature_columns(vectors)
    model = train_gbdt(columns, labels, TrainConfig(rounds=50, max_depth=2))
    pred = (model.predict_proba(columns) >= 0.5).astype(int)
    assert (pred == np.asarray(labels)).all()


def test_single_class_labels_rejected():
    vectors, _ = _separable_40()
    with pytest.raises(TrainingError):
        train_gbdt(feature_columns(vectors), [1] * len(vectors),
                   TrainConfig(rounds=1))


def test_training_loss_is_non_increasing():
    vectors, labels = _xor_200()
    model = train_gbdt(feature_columns(vectors), labels,
                       TrainConfig(rounds=40, max_depth=3))
    losses = np.asarray(model.train_loss)
    assert (np.diff(losses) <= 1e-12).all()


def test_a_step_that_would_raise_the_loss_is_halved():
    """Ten rows share a feature value and one of them is a scam; the other
    50 rows are benign.  The Newton step overshoots on the mixed leaf, so the
    full first tree would raise the training loss: both its leaves are
    halved, once, and the loss falls."""
    vectors = [_vec(f1=0.0)] * 50 + [_vec(f1=1.0)] * 10
    y = np.array([0] * 59 + [1], dtype=np.float64)
    model = train_gbdt(feature_columns(vectors), y.astype(int).tolist(),
                       TrainConfig(rounds=1, learning_rate=1.0, max_depth=1,
                                   min_leaf=1))
    p = 1 / 60   # the base score's probability, the scam share
    newton = [-(rows * p - scams) / (rows * p * (1 - p))
              for rows, scams in ((50, 0), (10, 1))]
    full = model.base_score + np.repeat(newton, [50, 10])
    assert np.mean(np.logaddexp(0.0, full) - y * full) > model.train_loss[0]
    root = model.trees[0]
    assert [root.left.value, root.right.value] == pytest.approx(
        [value / 2 for value in newton], rel=1e-9)
    assert model.train_loss[1] < model.train_loss[0]


def test_shrinkage_consistency():
    # noisy overlapping classes keep the final loss mid-range, where the
    # rate/rounds trade-off is stable; near zero loss the ratio degenerates
    rng = np.random.default_rng(9)
    vectors, labels = [], []
    for _ in range(300):
        y = int(rng.integers(0, 2))
        vectors.append(_vec(f1=float(rng.normal(y, 1.2)), f2=float(rng.normal(0, 1))))
        labels.append(y)
    columns = feature_columns(vectors)
    full = train_gbdt(columns, labels,
                      TrainConfig(rounds=10, learning_rate=0.2, max_depth=2))
    half = train_gbdt(columns, labels,
                      TrainConfig(rounds=20, learning_rate=0.1, max_depth=2))
    assert half.train_loss[-1] == pytest.approx(full.train_loss[-1], rel=0.05)


def test_training_is_deterministic():
    vectors, labels = _xor_200()
    columns = feature_columns(vectors)
    m1 = train_gbdt(columns, labels, TrainConfig(rounds=10))
    m2 = train_gbdt(columns, labels, TrainConfig(rounds=10))
    assert m1.to_dict() == m2.to_dict()


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(rounds=0)
    with pytest.raises(TrainingError):
        TrainConfig(max_depth=-1)
    with pytest.raises(TrainingError):
        TrainConfig(learning_rate=0.0)


# --- prediction -----------------------------------------------------------------


def test_empty_tree_list_predicts_sigmoid_base():
    vectors, labels = _separable_40()
    trained = train_gbdt(feature_columns(vectors), labels, TrainConfig(rounds=1))
    bare = GbdtModel(config=trained.config, base_score=0.4, trees=[],
                     encoder=trained.encoder)
    expected = 1.0 / (1.0 + np.exp(-0.4))
    assert predict(bare, vectors[0])[1] == pytest.approx(expected)


def _walk(node: dict, row: np.ndarray) -> float:
    """Independent traversal over the serialized tree."""
    if "feature_index" not in node:
        return node["value"]
    x = row[node["feature_index"]]
    if "category_set" in node:
        go_left = (node["missing_goes"] == "LEFT") if x <= 0 \
            else int(x) in set(node["category_set"])
    elif np.isnan(x):
        go_left = node["missing_goes"] == "LEFT"
    else:
        go_left = x <= node["threshold"]
    return _walk(node["left" if go_left else "right"], row)


def test_predict_matches_brute_force_traversal():
    rng = np.random.default_rng(17)
    vectors, labels = [], []
    for _ in range(120):
        label = int(rng.integers(0, 2))
        vectors.append(_vec(
            f1=float(rng.normal(label, 0.7)),
            f2=float(rng.normal(-label, 0.7)) if rng.random() > 0.2 else None,
            tld=str(rng.choice(["com", "xyz", "top"])),
        ))
        labels.append(label)
    model = train_gbdt(feature_columns(vectors), labels,
                       TrainConfig(rounds=25, max_depth=3))
    blob = model.to_dict()

    tld = FEATURE_NAMES.index("tld")
    rows = [np.array([
        rng.normal(0, 1.5) if i in (_F1, _F2)
        else (float(rng.integers(0, 4)) if i == tld else np.nan)
        for i in range(len(FEATURE_NAMES))
    ]) for _ in range(1000)]
    # the same rows as vectors: each tld code back to its token, 0 to MISSING
    tokens = {code: tok for tok, code in model.encoder.column_meta[tld].items()}
    fast = model.predict_proba(feature_columns([
        _vec(f1=row[_F1], f2=row[_F2], tld=tokens.get(int(row[tld])))
        for row in rows]))
    raws = []
    for row in rows:
        raw = blob["base_score"]
        for t, fitted in zip(blob["trees"], model.trees):
            step = _walk(t, row)
            assert step == predict_tree(fitted, row[None, :])[0]
            raw += step
        raws.append(raw)
    assert np.array_equal(gbdt._sigmoid(np.array(raws)), fast)  # exact


def test_missing_value_routes_per_missing_goes():
    vectors, labels = _separable_40()
    model = train_gbdt(feature_columns(vectors), labels,
                       TrainConfig(rounds=5, max_depth=1))
    root = model.trees[0].to_dict()
    assert "feature_index" in root
    row = model.encoder.transform(feature_columns([_vec()]))[0]  # all MISSING
    side = "left" if root["missing_goes"] == LEFT else "right"
    expected = root[side]["value"]  # depth 1: both children are leaves
    assert _walk(root, row) == expected
    assert predict_tree(model.trees[0], row[None, :])[0] == expected


# random trees over two numeric and two categorical columns; categorical
# codes 1.._N_CODES are the dictionary, 0 is MISSING and larger codes are
# outside the dictionary
_NUM_COLS = (0, 1)
_CAT_COLS = (2, 3)
_N_CODES = 4
_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)  # shared by thresholds and values: ties


def _split_nodes(children):
    missing_goes = st.sampled_from([LEFT, RIGHT])
    numeric = st.builds(
        TreeNode, feature_index=st.sampled_from(_NUM_COLS),
        threshold=st.sampled_from(_GRID) | st.floats(-2, 2),
        missing_goes=missing_goes, left=children, right=children)
    categorical = st.builds(
        TreeNode, feature_index=st.sampled_from(_CAT_COLS),
        category_set=st.frozensets(st.integers(1, _N_CODES), min_size=1),
        missing_goes=missing_goes, left=children, right=children)
    return numeric | categorical


_TREES = st.recursive(
    st.builds(TreeNode, value=st.floats(-5, 5)), _split_nodes, max_leaves=12)
_ROWS = st.lists(
    st.tuples(*[st.sampled_from(_GRID) | st.floats(-2, 2) | st.just(np.nan)
                for _ in _NUM_COLS],
              *[st.integers(0, _N_CODES + 2).map(float) for _ in _CAT_COLS]),
    min_size=1, max_size=25)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(tree=_TREES, rows=_ROWS)
def test_predict_tree_routes_like_the_reference_walk(tree, rows):
    values = np.array(rows, dtype=np.float64)
    blob = tree.to_dict()
    scores = predict_tree(tree, values)
    for i, row in enumerate(values):
        assert scores[i] == predict_tree(tree, values[i:i + 1])[0]
        assert scores[i] == _walk(blob, row)
    assert predict_tree(tree, values[:0]).shape == (0,)


def test_predict_many_matches_one_row_predict():
    vectors, labels = _xor_200()
    columns = feature_columns(vectors)
    model = train_gbdt(columns, labels, TrainConfig(rounds=10))
    batch = predict_many(model, vectors)
    assert batch == [predict(model, v) for v in vectors]
    assert [s for _, s in batch] == list(model.predict_proba(columns))
    assert predict_many(model, []) == []


def test_predict_returns_label_and_score():
    vectors, labels = _separable_40()
    model = train_gbdt(feature_columns(vectors), labels, TrainConfig(rounds=30))
    label, score = predict(model, vectors[1])  # class 1
    assert label == "SCAM" and score >= 0.5
    label, score = predict(model, vectors[0])  # class 0
    assert label == "BENIGN" and score < 0.5


def test_model_save_load_reproduces_predictions_exactly(tmp_path):
    vectors, labels = _xor_200()
    model = train_gbdt(feature_columns(vectors), labels, TrainConfig(rounds=15))
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    for v in vectors[:50]:
        assert predict(clone, v)[1] == predict(model, v)[1]
    save_model(clone, tmp_path / "model2.json")
    assert (tmp_path / "model.json").read_bytes() == \
        (tmp_path / "model2.json").read_bytes()


_CAT = CATEGORICAL_COLUMNS[0]


def _one_round_blob() -> dict:
    vectors, labels = _xor_200()
    return train_gbdt(feature_columns(vectors), labels,
                      TrainConfig(rounds=1)).to_dict()


def _split(**fields) -> dict:
    return {"missing_goes": LEFT, "left": {"value": 0.0},
            "right": {"value": 0.0}, **fields}


@pytest.mark.parametrize("node, cause", [
    (_split(feature_index=_F1, category_set=[1]),
     f"trees[0]: numeric column {_F1} splits on a threshold, not a category_set"),
    (_split(feature_index=_F1, threshold=0.5, category_set=[1]),
     f"trees[0]: numeric column {_F1} splits on a threshold, not a category_set"),
    (_split(feature_index=_F1, threshold=math.inf),
     "trees[0].threshold must be a finite float, got inf"),
    (_split(feature_index=_CAT, threshold=0.5),
     f"trees[0]: categorical column {_CAT} splits on a category_set, "
     f"not a threshold"),
    (_split(feature_index=_CAT, category_set=[]),
     "trees[0].category_set must be a non-empty list of ints >= 1, got []"),
    (_split(feature_index=_CAT, category_set=[2, 0]),
     "trees[0].category_set must be a non-empty list of ints >= 1, got [2, 0]"),
    (_split(feature_index=-1, threshold=0.5),
     "trees[0].feature_index must be an int in [0, 103), got -1"),
    (_split(feature_index=True, threshold=0.5),
     "trees[0].feature_index must be an int in [0, 103), got True"),
    (_split(feature_index=_F1, threshold=0.5, left={"value": math.nan}),
     "trees[0].left.value must be a finite float, got nan"),
    (_split(feature_index=_F1, threshold=0.5, right=[1]),
     "trees[0].right must be a JSON object, got [1]"),
    ({"value": 1}, "trees[0].value must be a finite float, got 1"),
])
def test_load_rejects_a_malformed_node(node, cause):
    blob = _one_round_blob()
    blob["trees"][0] = node
    with pytest.raises(SchemaError, match=re.escape(cause)):
        GbdtModel.from_dict(blob)


def test_load_rejects_a_base_score_that_is_not_finite():
    blob = _one_round_blob()
    blob["base_score"] = math.nan
    with pytest.raises(SchemaError, match="base_score must be a finite float"):
        GbdtModel.from_dict(blob)


def test_load_accepts_both_split_kinds():
    blob = _one_round_blob()
    blob["trees"] = [_split(feature_index=_F1, threshold=0.5, missing_goes=RIGHT),
                     _split(feature_index=_CAT, category_set=[2, 1])]
    model = GbdtModel.from_dict(blob)
    assert [t.to_dict() for t in model.trees] == [
        blob["trees"][0], {**blob["trees"][1], "category_set": [1, 2]}]


# --- evaluation -----------------------------------------------------------------


def test_stratified_folds_preserve_class_ratio():
    labels = [1] * 30 + [0] * 70
    folds = stratified_folds(labels, k=5, seed=1)
    all_rows = np.concatenate(folds)
    assert sorted(all_rows) == list(range(100))  # a partition
    for fold in folds:
        y = np.asarray(labels)[fold]
        assert y.sum() == 6  # 30% of 20


def test_cross_validate_separable_f1_is_one():
    vectors, labels = _separable_40()
    report = cross_validate(vectors, labels, k=5, seed=0,
                            config=TrainConfig(rounds=30, max_depth=2))
    assert [m.f1 for m in report.fold_metrics] == [1.0] * 5
    assert report.mean_f1 == 1.0


def test_cross_validate_single_class_errors():
    vectors, _ = _separable_40()
    with pytest.raises(TrainingError):
        cross_validate(vectors, [1] * len(vectors), k=5)


def test_gbdt_beats_logistic_on_nonlinear_data():
    vectors, labels = _xor_200()
    gbdt = cross_validate(vectors, labels, k=5, seed=0,
                          config=TrainConfig(rounds=60, max_depth=3))
    logistic = cross_validate(vectors, labels, k=5, seed=0, model="logistic")
    assert gbdt.mean_f1 > logistic.mean_f1


def test_each_model_keeps_the_encoder_fitted_on_its_training_columns():
    """Both models fit their own encoder on the columns they train on, and
    score the held-out columns ``cross_validate`` cuts for each fold."""
    rng = np.random.default_rng(23)
    labels = [int(y) for y in rng.integers(0, 2, 60)]
    vectors = [_vec(f1=float(rng.normal(y, 1.0)),
                    tld=[None, "com", "top", "xyz"][int(rng.integers(0, 4))])
               for y in labels]
    columns = feature_columns(vectors)
    config = TrainConfig(rounds=8, max_depth=2)
    trainers = {"gbdt": lambda cols, y: train_gbdt(cols, y, config),
                "logistic": train_logistic_baseline}
    fitted = DatasetEncoder().fit(columns).to_dict()
    assert fitted["columns"][str(FEATURE_NAMES.index("tld"))]
    y = np.asarray(labels)
    folds = stratified_folds(y, 3, seed=1)
    for name, train in trainers.items():
        assert train(columns, labels).encoder.to_dict() == fitted, name
        report = cross_validate(vectors, labels, k=3, seed=1, config=config,
                                model=name)
        for test_idx, metrics in zip(folds, report.fold_metrics, strict=True):
            train_idx = np.setdiff1d(np.arange(len(vectors)), test_idx)
            model = train(take_rows(columns, train_idx), y[train_idx])
            proba = model.predict_proba(take_rows(columns, test_idx))
            assert binary_metrics(y[test_idx], proba >= 0.5) == metrics, name


def test_logistic_baseline_learns_linear_data():
    vectors, labels = _separable_40()
    columns = feature_columns(vectors)
    model = train_logistic_baseline(columns, labels)
    pred = model.predict_proba(columns) >= 0.5
    assert (pred == np.asarray(labels)).all()


def test_binary_metrics_known_values():
    y_true = np.array([1, 1, 1, 0, 0, 0])
    y_pred = np.array([1, 1, 0, 1, 0, 0])
    m = binary_metrics(y_true, y_pred)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.accuracy == pytest.approx(4 / 6)


# --- split search against the scalar reference ------------------------------------
#
# The scalar scan below is the referee: it scores one candidate at a time,
# walks the candidates in scan order and breaks gain ties by ``sort_key``.
# The vectorized search must agree with it exactly.


@dataclass
class _RefSplit:
    gain: float
    feature_index: int
    threshold: Optional[float]
    category_set: Optional[frozenset]
    missing_goes: str
    left_rows: np.ndarray
    right_rows: np.ndarray

    def sort_key(self):
        if self.category_set is not None:
            second = (1, len(self.category_set), tuple(sorted(self.category_set)))
        else:
            second = (0, self.threshold)
        return (self.feature_index, second, 0 if self.missing_goes == LEFT else 1)


def _ref_numeric_candidates(col, rows, grad, hess, min_leaf, feature_index):
    present = ~np.isnan(col)
    miss_rows = rows[~present]
    vals = col[present]
    sub_rows = rows[present]
    if vals.size < 2:
        return
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    sub_rows = sub_rows[order]
    g = grad[sub_rows]
    h = hess[sub_rows]
    g_cum = np.cumsum(g)
    h_cum = np.cumsum(h)
    g_all = g_cum[-1] + grad[miss_rows].sum()
    h_all = h_cum[-1] + hess[miss_rows].sum()
    g_miss = grad[miss_rows].sum()
    h_miss = hess[miss_rows].sum()
    n_miss = miss_rows.size
    parent = _score(g_all, h_all)
    boundaries = np.nonzero(vals[1:] != vals[:-1])[0]
    for b in boundaries:
        n_left = b + 1
        n_right = vals.size - n_left
        g_left, h_left = g_cum[b], h_cum[b]
        g_right, h_right = g_cum[-1] - g_left, h_cum[-1] - h_left
        threshold = (vals[b] + vals[b + 1]) / 2.0
        for missing_goes in (LEFT, RIGHT):
            if missing_goes == LEFT:
                gl, hl, nl = g_left + g_miss, h_left + h_miss, n_left + n_miss
                gr, hr, nr = g_right, h_right, n_right
            else:
                gl, hl, nl = g_left, h_left, n_left
                gr, hr, nr = g_right + g_miss, h_right + h_miss, n_right + n_miss
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = _score(gl, hl) + _score(gr, hr) - parent
            if gain <= 0:
                continue
            if missing_goes == LEFT:
                left_rows = np.concatenate([sub_rows[: b + 1], miss_rows])
                right_rows = sub_rows[b + 1:]
            else:
                left_rows = sub_rows[: b + 1]
                right_rows = np.concatenate([sub_rows[b + 1:], miss_rows])
            yield _RefSplit(gain, feature_index, float(threshold), None,
                            missing_goes, left_rows, right_rows)


def _ref_categorical_candidates(col, rows, grad, hess, min_leaf, feature_index):
    codes = col.astype(np.int64)
    known = codes > 0
    miss_rows = rows[~known]
    sub_rows = rows[known]
    sub_codes = codes[known]
    if sub_rows.size == 0:
        return
    uniq = np.unique(sub_codes)
    if uniq.size < 2:
        return
    stats = []
    for code in uniq:
        members = sub_rows[sub_codes == code]
        g = grad[members].sum()
        h = hess[members].sum()
        stats.append((g / (h + _EPS_HESS), int(code), members))
    stats.sort(key=lambda t: (t[0], t[1]))
    g_miss = grad[miss_rows].sum()
    h_miss = hess[miss_rows].sum()
    n_miss = miss_rows.size
    g_all = grad[rows].sum()
    h_all = hess[rows].sum()
    parent = _score(g_all, h_all)
    g_left = h_left = 0.0
    n_left = 0
    prefix_members = []
    for _, code, members in stats[:-1]:
        g_left += grad[members].sum()
        h_left += hess[members].sum()
        n_left += members.size
        prefix_members.append(members)
        cat_set = frozenset(int(c) for _, c, _ in
                            stats[: len(prefix_members)])
        g_right = g_all - g_miss - g_left
        h_right = h_all - h_miss - h_left
        n_right = sub_rows.size - n_left
        for missing_goes in (LEFT, RIGHT):
            if missing_goes == LEFT:
                gl, hl, nl = g_left + g_miss, h_left + h_miss, n_left + n_miss
                gr, hr, nr = g_right, h_right, n_right
            else:
                gl, hl, nl = g_left, h_left, n_left
                gr, hr, nr = g_right + g_miss, h_right + h_miss, n_right + n_miss
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = _score(gl, hl) + _score(gr, hr) - parent
            if gain <= 0:
                continue
            left_known = np.concatenate(prefix_members)
            right_known = sub_rows[~np.isin(sub_codes, list(cat_set))]
            if missing_goes == LEFT:
                left_rows = np.concatenate([left_known, miss_rows])
                right_rows = right_known
            else:
                left_rows = left_known
                right_rows = np.concatenate([right_known, miss_rows])
            yield _RefSplit(gain, feature_index, None, cat_set,
                            missing_goes, left_rows, right_rows)


def _ref_best_split(values, cat_cols, rows, grad, hess, min_leaf):
    best = None
    for feature_index in range(values.shape[1]):
        col = values[rows, feature_index]
        if feature_index in cat_cols:
            candidates = _ref_categorical_candidates(
                col, rows, grad, hess, min_leaf, feature_index)
        else:
            candidates = _ref_numeric_candidates(
                col, rows, grad, hess, min_leaf, feature_index)
        for cand in candidates:
            if best is None or cand.gain > best.gain + _GAIN_TIE:
                best = cand
            elif abs(cand.gain - best.gain) <= _GAIN_TIE:
                if cand.sort_key() < best.sort_key():
                    best = cand
    return best


def _ref_best_split_on_table(table, *args):
    """``_ref_best_split`` called the way ``_best_split`` is, on a
    ``RankTable``; it reads only the table's values and categorical columns."""
    return _ref_best_split(table.values, frozenset(table.categorical.tolist()),
                           *args)


def _random_node(rng):
    """A node drawn to provoke ties, NaN tails, empty categories, tiny leaves,
    columns constant at the node and numeric runs wider than 16 columns."""
    n_total = int(rng.integers(2, 41))
    n_features = int(rng.integers(1, 61))
    cat_cols = frozenset(int(f) for f in np.flatnonzero(
        rng.random(n_features) < rng.uniform(0.0, 0.2)))
    p_constant = rng.uniform(0.0, 0.6)
    values = np.empty((n_total, n_features))
    for f in range(n_features):
        if f in cat_cols:
            values[:, f] = rng.integers(0, 5, n_total)  # 0 = MISSING
        else:
            col = np.round(rng.uniform(-3, 3, n_total), int(rng.integers(0, 3)))
            if rng.random() < p_constant:  # one value, or all MISSING
                col[:] = col[0] if rng.random() < 0.8 else np.nan
            col[rng.random(n_total) < rng.uniform(0.0, 0.5)] = np.nan
            values[:, f] = col
    if rng.random() < 0.5:
        # unit hessians and coarse gradients: exactly tied and zero gains
        grad = np.round(rng.normal(0, 1, n_total), int(rng.integers(0, 2)))
        hess = np.ones(n_total)
    else:
        p = rng.uniform(0.01, 0.99, n_total)
        grad = p - (rng.random(n_total) < 0.5)
        hess = np.maximum(p * (1.0 - p), 1e-12)
    size = int(rng.integers(1, n_total + 1))
    rows = rng.permutation(rng.choice(n_total, size, replace=False))
    min_leaf = int(rng.integers(1, 6))
    return values, cat_cols, rows, grad, hess, min_leaf


def _numeric_winner_kinds(values, cat_cols, rows, feature_index):
    """Tally keys of a numeric winner at ``feature_index``: a column constant
    at the node precedes it in its numeric run; it lies 16 or more columns
    into that run."""
    lo = 1 + max((c for c in cat_cols if c < feature_index), default=-1)
    constant = any(np.unique(col[~np.isnan(col)]).size < 2
                   for col in values[rows, lo:feature_index].T)
    return (["after constant column"] * constant
            + ["16+ into its run"] * (feature_index - lo >= 16))


def test_vectorized_split_search_equals_scalar_reference():
    rng = np.random.default_rng(2025)
    winners = {"none": 0, "numeric": 0, "categorical": 0, LEFT: 0, RIGHT: 0,
               "after constant column": 0, "16+ into its run": 0}
    for _ in range(400):
        args = _random_node(rng)
        ref = _ref_best_split(*args)
        got = _best_split(rank_table(*args[:2]), *args[2:])
        if ref is None:
            assert got is None
            winners["none"] += 1
            continue
        assert got is not None
        assert got.gain == ref.gain
        assert got.feature_index == ref.feature_index
        assert got.threshold == ref.threshold
        assert got.category_set == ref.category_set
        assert got.missing_goes == ref.missing_goes
        assert np.array_equal(got.left_rows, ref.left_rows)
        assert np.array_equal(got.right_rows, ref.right_rows)
        winners["categorical" if ref.category_set else "numeric"] += 1
        winners[ref.missing_goes] += 1
        if ref.category_set is None:
            for kind in _numeric_winner_kinds(args[0], args[1], args[2],
                                              ref.feature_index):
                winners[kind] += 1
    # the draw must exercise every kind of outcome, or it proves little
    assert all(count >= 10 for count in winners.values()), winners


def test_split_search_equals_the_reference_on_long_runs():
    """Nodes of 150-400 rows whose categorical columns have 2-4 codes, so
    code runs and MISSING tails reach past the 128-element blocks of
    numpy's pairwise sum; the search must keep the reference's bits."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_total = int(rng.integers(150, 401))
        values = np.empty((n_total, 6))
        for f in range(6):
            if f % 2:
                values[:, f] = rng.integers(0, int(rng.integers(3, 6)), n_total)
            else:
                col = np.round(rng.normal(0, 1, n_total), 1)
                col[rng.random(n_total) < rng.uniform(0.0, 0.6)] = np.nan
                values[:, f] = col
        p = rng.uniform(0.01, 0.99, n_total)
        grad = p - (rng.random(n_total) < 0.5)
        hess = p * (1.0 - p)
        rows = rng.permutation(n_total)[: int(rng.integers(n_total // 2,
                                                           n_total + 1))]
        args = (values, frozenset({1, 3, 5}), rows, grad, hess, 5)
        ref = _ref_best_split(*args)
        got = _best_split(rank_table(*args[:2]), *args[2:])
        assert (got.gain, got.feature_index, got.threshold, got.category_set,
                got.missing_goes) == (ref.gain, ref.feature_index,
                                      ref.threshold, ref.category_set,
                                      ref.missing_goes)
        assert np.array_equal(got.left_rows, ref.left_rows)
        assert np.array_equal(got.right_rows, ref.right_rows)


def _referee_rows():
    """72 labelled rows over the whole schema, as columns and labels.

    Every kind of column the search meets is present: constant ones, binary
    ones, all-MISSING ones, categorical ones, and informative numeric
    columns more than 16 columns into the schema's widest numeric run,
    behind constant columns.
    """
    rng = np.random.default_rng(41)
    numeric = [i for i, (_, kind, _) in enumerate(FEATURES) if kind == NUMERIC]
    boolean = [i for i, (_, kind, _) in enumerate(FEATURES) if kind == BOOLEAN]
    informative, binary, all_missing = numeric[-8:], boolean[-6:], numeric[:3]
    labels = [int(y) for y in rng.integers(0, 2, 72)]
    vectors = []
    for y in labels:
        values = []
        for i, (_, kind, _) in enumerate(FEATURES):
            if kind == CATEGORICAL:
                values.append(str(rng.choice(["a", "b", "c", "d"]))
                              if rng.random() < 0.8 else None)
            elif i in informative:
                values.append(float(np.round(rng.normal(y, 1.0), 1))
                              if rng.random() < 0.85 else None)
            elif i in binary:
                values.append(int(rng.random() < 0.3 + 0.4 * y))
            elif i in all_missing:
                values.append(None)
            else:
                values.append(0 if kind == BOOLEAN else 3.0)
        vectors.append(FeatureVector(values))
    return feature_columns(vectors), labels


def test_boosted_model_equals_the_scalar_reference_model(monkeypatch):
    columns, labels = _referee_rows()
    config = TrainConfig(rounds=6, max_depth=3, min_leaf=2)
    got = train_gbdt(columns, labels, config).to_dict()
    monkeypatch.setattr(tree, "_best_split", _ref_best_split_on_table)
    assert got == train_gbdt(columns, labels, config).to_dict()
    # the trees split 16 or more columns into a numeric run
    used = set()
    stack = list(got["trees"])
    while stack:
        node = stack.pop()
        if "feature_index" in node:
            used.add(node["feature_index"])
            stack += [node["left"], node["right"]]
    assert any(f - max((c for c in CATEGORICAL_COLUMNS if c < f), default=-1) > 16
               for f in used - set(CATEGORICAL_COLUMNS))


def _rank_test_matrix(rng, n):
    """``n`` rows of numeric columns of every kind a rank must keep apart or
    together: tie runs, NaN tails, -0.0 beside 0.0, all-NaN and constant
    columns, columns that are all-NaN or constant on most subsets of rows,
    and distinct values; column 1 holds category codes."""
    def one_off(col, value):
        col[rng.integers(n)] = value
        return col

    cols = [
        np.round(rng.normal(0, 2, n)),  # tie runs
        rng.integers(0, 5, n).astype(float),  # category codes
        np.where(rng.random(n) < 0.3, np.nan, np.round(rng.normal(0, 1, n), 1)),
        one_off(np.where(rng.random(n) < 0.5, -0.0, 0.0), 1.0),
        rng.choice([-0.0, 0.0, 1.0, np.nan], n),
        np.full(n, np.nan),
        np.full(n, 3.0),
        one_off(one_off(np.full(n, np.nan), 1.0), 2.0),
        one_off(np.full(n, 3.0), 4.0),
        rng.permutation(n) - n / 2,  # every value distinct
    ]
    return np.column_stack(cols)


@pytest.mark.parametrize("n", [1, 2, 40, 500, 65_535, 65_536])
def test_rank_table_orders_node_rows_as_their_values_do(n):
    """A stable argsort of a node's ranks is the stable argsort of its values,
    NaN last.  The table holds the numeric columns with two or more distinct
    present values, as uint16 up to 65,535 rows and wider above."""
    rng = np.random.default_rng(n)
    values = _rank_test_matrix(rng, n)
    table = rank_table(values, frozenset({1}))
    assert table.ranks.dtype == (np.uint16 if n <= 65_535 else np.uint32)
    assert list(table.numeric) == [
        f for f in range(values.shape[1]) if f != 1
        and np.unique(values[~np.isnan(values[:, f]), f]).size >= 2]
    assert list(table.categorical) == [1]
    assert np.array_equal(table.codes[0], values[:, 1])
    for _ in range(5):
        rows = rng.permutation(rng.choice(n, int(rng.integers(1, n + 1)),
                                          replace=False))
        got = np.argsort(table.ranks[:, rows], axis=1, kind="stable")
        want = np.argsort(values[rows][:, table.numeric].T, axis=1,
                          kind="stable")
        assert np.array_equal(got, want)


def test_zero_gain_is_not_a_split():
    # with all-zero gradients every candidate scores exactly 0
    values = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 1.0], [np.nan, 2.0]])
    args = (values, frozenset({1}), np.arange(4), np.zeros(4), np.ones(4), 1)
    assert _ref_best_split(*args) is None
    assert _best_split(rank_table(*args[:2]), *args[2:]) is None
