"""Teacher-student toxicity models: tokenizer, encoder, losses, training."""

import base64
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout.corpus import SerpEntry, SerpResultSet
from scamscout.errors import SchemaError, TrainingError
from scamscout.lupi import (
    CLS_ID,
    PAD_ID,
    AdamW,
    EncoderConfig,
    LossWeights,
    LupiDataset,
    LupiExample,
    PrivilegedConfig,
    StudentModel,
    TeacherModel,
    TokenizerConfig,
    TrainConfig,
    collision_rate,
    distill_student,
    grid_search_privileged,
    load_checkpoint,
    load_student,
    load_teacher,
    loco_cv,
    model_from_dict,
    model_to_dict,
    privileged_texts,
    rank_keywords,
    ranked_from_csv,
    save_checkpoint,
    sinusoidal_positions,
    tokenize,
    tokenize_batch,
    total_loss,
    train_query_baseline,
    train_teacher,
    warmup_scale,
    write_ranked,
)
from scamscout.lupi.tokenizer import word_id
from scamscout.lupi.train import _assemble

TOK = TokenizerConfig(vocab_size=128, max_len_query=8, max_len_serp=8)
ENC = EncoderConfig(layers=1, dim=16, heads=2, ff_dim=32, dropout=0.1)
ENC0 = EncoderConfig(layers=1, dim=16, heads=2, ff_dim=32, dropout=0.0)
PRIV = PrivilegedConfig("GOOGLE", "DESCRIPTION", "ALL", "RANKED", 5)
CFG = TrainConfig(lr=2e-3, epochs=2, batch_size=8, patience=2, seed=0)


def _entry(domain, engine="GOOGLE", rank=1, title="", description=""):
    return SerpEntry(engine=engine, rank=rank, url=f"https://{domain}/x",
                     title=title, description=description, root_domain=domain)


def _tiny_dataset(n=24, categories=("a", "b"), seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        toxic = i % 2 == 0
        cat = categories[i % len(categories)]
        words = ["discount", "deal"] if toxic else ["how", "to"]
        query = " ".join(words + [f"item{i}", cat])
        desc = "replica outlet clearance" if toxic else "official guide review"
        serp = SerpResultSet(query=query, entries=[
            _entry(f"s{i}-{j}.com", "GOOGLE", j + 1, description=desc)
            for j in range(3)
        ])
        tox = float(np.clip((0.8 if toxic else 0.2) + rng.normal(0, 0.05), 0, 1))
        examples.append(LupiExample(query=query, toxicity=tox, category=cat,
                                    expansion=int(round(tox * 10)), serps=[serp]))
    return LupiDataset(examples)


# --- tokenizer --------------------------------------------------------------


def test_tokenize_layout():
    ids = tokenize("cheap nike shoes", TOK)
    assert ids.shape == (8,)
    assert ids.dtype == np.int64
    assert ids[0] == CLS_ID
    assert all(i >= 2 for i in ids[1:4])      # words avoid reserved ids
    assert list(ids[4:]) == [PAD_ID] * 4
    assert np.array_equal(tokenize("CHEAP Nike SHOES", TOK), ids)  # case-folded


def test_tokenize_truncates_and_batches():
    long = " ".join(f"w{i}" for i in range(30))
    ids = tokenize(long, TOK)
    assert ids.shape == (8,)
    assert PAD_ID not in ids  # CLS + 7 word ids fill the window
    batch = tokenize_batch(["a b", long, ""], TOK)
    assert batch.shape == (3, 8)
    assert np.array_equal(batch[1], ids)
    assert list(batch[2]) == [CLS_ID] + [PAD_ID] * 7


@settings(derandomize=True, max_examples=200, deadline=None)
@given(texts=st.lists(st.text(), min_size=1, max_size=4),
       max_len=st.integers(2, 40), vocab=st.integers(16, 5000))
def test_tokenize_is_cls_then_word_ids_then_a_pad_suffix(texts, max_len, vocab):
    cfg = TokenizerConfig(vocab_size=vocab)
    rows = []
    for text in texts:
        ids = tokenize(text, cfg, max_len)
        assert ids.shape == (max_len,) and ids.dtype == np.int64
        assert ids[0] == CLS_ID
        n_words = min(len(text.lower().split()), max_len - 1)
        words = ids[1:1 + n_words]
        assert np.all((words >= 2) & (words < vocab))
        # PAD only after the last word: trimmed_length relies on it
        assert np.all(ids[1 + n_words:] == PAD_ID)
        rows.append(ids)
    assert np.array_equal(tokenize_batch(texts, cfg, max_len), np.stack(rows))


def test_word_ids_stay_in_vocab():
    for w in ("a", "zzz", "Überraschung", "漢字", "x" * 100):
        wid = word_id(w, TOK)
        assert 2 <= wid < TOK.vocab_size


def test_tokenizer_config_validation():
    with pytest.raises(SchemaError):
        TokenizerConfig(vocab_size=8)
    with pytest.raises(SchemaError):
        TokenizerConfig(max_len_query=1)
    with pytest.raises(SchemaError):
        TokenizerConfig(max_len_serp=1)


def test_collision_rate_counts_shared_buckets():
    tiny = TokenizerConfig(vocab_size=16, max_len_query=4, max_len_serp=4)
    # hunt for two words in the same bucket; 14 buckets makes this quick
    by_bucket = {}
    pair = None
    for i in range(200):
        w = f"word{i}"
        b = word_id(w, tiny)
        if b in by_bucket:
            pair = (by_bucket[b], w)
            break
        by_bucket[b] = w
    assert pair is not None
    w1, w2 = pair
    assert collision_rate([w1, w2], tiny) == 1.0
    # a third word in its own bucket dilutes the rate to 2/3
    lone = next(f"solo{i}" for i in range(200)
                if word_id(f"solo{i}", tiny) not in
                (word_id(w1, tiny), word_id(w2, tiny)))
    assert collision_rate([w1, w2, lone], tiny) == pytest.approx(2 / 3)
    assert collision_rate([w1, w1], tiny) == 0.0  # duplicates count once
    assert collision_rate([], tiny) == 0.0


# --- encoder ----------------------------------------------------------------


def test_attention_rows_are_distributions():
    from scamscout.lupi import Encoder
    rng = np.random.default_rng(0)
    enc = Encoder(TOK.vocab_size, TOK.max_len_query,
                  EncoderConfig(layers=2, dim=16, heads=2, ff_dim=32,
                                dropout=0.0), rng)
    ids = tokenize_batch(["cheap shoes", "a b c d e f g"], TOK)
    hidden, attn_maps = enc.forward(ids, train=False, cache=False)
    assert hidden.shape == (2, 8, 16)
    assert len(attn_maps) == 2
    for attn in attn_maps:
        assert attn.shape == (2, 2, 8, 8)
        assert np.allclose(attn.sum(axis=-1), 1.0)
        # PAD keys receive (numerically) zero attention
        pad_cols = ids == PAD_ID
        for b in range(2):
            assert np.all(attn[b][:, :, pad_cols[b]] < 1e-12)


def test_padding_does_not_leak_into_real_positions():
    from scamscout.lupi import Encoder
    rng = np.random.default_rng(1)
    enc = Encoder(TOK.vocab_size, TOK.max_len_query, ENC0, rng)
    short = tokenize("cheap nike shoes", TOK, max_len=5)[None, :]
    padded = tokenize("cheap nike shoes", TOK, max_len=8)[None, :]
    h_short, _ = enc.forward(short, cache=False)
    h_padded, _ = enc.forward(padded, cache=False)
    assert np.allclose(h_short[0, :5], h_padded[0, :5], atol=1e-12)


def test_encoder_config_validation():
    with pytest.raises(SchemaError):
        EncoderConfig(dim=10, heads=4)
    with pytest.raises(SchemaError):
        EncoderConfig(layers=0)


@pytest.mark.parametrize("bad", [
    {"dropout": 1.0}, {"dropout": 1.5}, {"dropout": -0.5},
    {"dropout": float("nan")}, {"ff_dim": 0},
])
def test_encoder_config_rejects_impossible_values(bad):
    with pytest.raises(SchemaError):
        EncoderConfig(**bad)
    # the same check guards a checkpoint's encoder section
    blob = model_to_dict(StudentModel(TOK, ENC, seed=0))
    blob["encoder"].update(bad)
    with pytest.raises(SchemaError):
        model_from_dict(blob)
    EncoderConfig(dropout=0.0)
    EncoderConfig(dropout=0.99, ff_dim=1)


def test_sinusoidal_positions_layout():
    enc = sinusoidal_positions(16, 8)
    assert enc.shape == (16, 8)
    assert np.all(np.abs(enc) <= 1.0)
    assert np.allclose(enc[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(enc[0, 1::2], 1.0)  # cos(0)


# --- models -----------------------------------------------------------------


def _teacher_inputs(batch=3, k=4, seed=0):
    rng = np.random.default_rng(seed)
    q = tokenize_batch([f"query number {i}" for i in range(batch)], TOK)
    serp_texts = [[f"desc {i} {j} replica" for j in range(k)] for i in range(batch)]
    serp_ids = np.stack([
        np.stack([tokenize(t, TOK, TOK.max_len_serp) for t in row])
        for row in serp_texts
    ])
    present = rng.random((batch, k)) < 0.8
    present[0] = True  # at least one row fully present
    return q, serp_ids, present


def test_teacher_serp_order_is_irrelevant():
    teacher = TeacherModel(TOK, ENC0, PRIV, seed=3)
    q, serp_ids, present = _teacher_inputs()
    score, fused, _ = teacher.forward(q, serp_ids, present, cache=False)
    rng = np.random.default_rng(7)
    for _ in range(5):
        perm = rng.permutation(serp_ids.shape[1])
        s2, f2, _ = teacher.forward(q, serp_ids[:, perm], present[:, perm],
                                    cache=False)
        assert np.allclose(s2, score, atol=1e-9)
        assert np.allclose(f2, fused, atol=1e-9)


def test_empty_privileged_set_equals_zero_pooled_vector():
    teacher = TeacherModel(TOK, ENC0, PRIV, seed=3)
    q = tokenize_batch(["some query", "another one"], TOK)
    k = 3
    serp_ids = np.zeros((2, k, TOK.max_len_serp), dtype=np.int64)
    none_present = np.zeros((2, k), dtype=bool)
    with_k, _, _ = teacher.forward(q, serp_ids, none_present, cache=False)
    no_k, _, _ = teacher.forward(q, np.zeros((2, 0, 0), dtype=np.int64),
                                 np.zeros((2, 0), dtype=bool), cache=False)
    assert np.array_equal(with_k, no_k)


def _fd_check(params, loss_fn, grads, n_coords=1, seed=0, eps=1e-5):
    """Centered finite differences against analytic grads, one coordinate
    per parameter tensor."""
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        flat = p.reshape(-1)
        idx = int(rng.integers(0, flat.size))
        orig = flat[idx]
        flat[idx] = orig + eps
        up = loss_fn()
        flat[idx] = orig - eps
        down = loss_fn()
        flat[idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[name].reshape(-1)[idx]
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7), name


def test_student_backward_matches_finite_differences():
    student = StudentModel(TOK, ENC0, seed=11)
    q = tokenize_batch(["cheap replica watches", "how to fix a watch"], TOK)
    rng = np.random.default_rng(2)
    y = rng.uniform(0, 1, size=2)
    hint_target = rng.normal(0, 0.1, size=(2, ENC0.dim))
    score, hint, attn = student.forward(q, train=False)
    attn_targets = [rng.normal(0, 0.05, size=a.shape) for a in attn]

    def loss_value():
        s, h, a = student.forward(q, train=False, cache=False)
        out = 0.5 * np.sum((s - y) ** 2) + 0.5 * np.sum((h - hint_target) ** 2)
        out += sum(0.5 * np.sum((ai - ti) ** 2)
                   for ai, ti in zip(a, attn_targets))
        return float(out)

    student.zero_grads()
    student.backward(score - y, hint - hint_target,
                     [a - t for a, t in zip(attn, attn_targets)])
    _fd_check(student.parameters(), loss_value, student.gradients())


def test_teacher_backward_matches_finite_differences():
    teacher = TeacherModel(TOK, ENC0, PRIV, seed=13)
    q, serp_ids, present = _teacher_inputs(batch=2, k=3, seed=5)
    rng = np.random.default_rng(6)
    y = rng.uniform(0, 1, size=2)
    fused_target = rng.normal(0, 0.1, size=(2, ENC0.dim))
    score, fused, _ = teacher.forward(q, serp_ids, present, train=False)

    def loss_value():
        s, f, _ = teacher.forward(q, serp_ids, present, train=False, cache=False)
        return float(0.5 * np.sum((s - y) ** 2)
                     + 0.5 * np.sum((f - fused_target) ** 2))

    teacher.zero_grads()
    teacher.backward(score - y, fused - fused_target)
    _fd_check(teacher.parameters(), loss_value, teacher.gradients())


# Names a 1-layer encoder's parameters take in checkpoint layouts (format v3).
_ENCODER_1L = [
    "embed.w",
    "blocks.0.ln1.g", "blocks.0.ln1.b",
    "blocks.0.attn.wq.w", "blocks.0.attn.wq.b",
    "blocks.0.attn.wk.w", "blocks.0.attn.wk.b",
    "blocks.0.attn.wv.w", "blocks.0.attn.wv.b",
    "blocks.0.attn.wo.w", "blocks.0.attn.wo.b",
    "blocks.0.ln2.g", "blocks.0.ln2.b",
    "blocks.0.ffn.lin1.w", "blocks.0.ffn.lin1.b",
    "blocks.0.ffn.lin2.w", "blocks.0.ffn.lin2.b",
    "ln_out.g", "ln_out.b",
]


@pytest.mark.parametrize("build, names", [
    (lambda: TeacherModel(TOK, ENC, PRIV, seed=5),
     [f"query_encoder.{n}" for n in _ENCODER_1L]
     + [f"serp_encoder.{n}" for n in _ENCODER_1L]
     + ["fusion.w", "fusion.b", "head.w", "head.b"]),
    (lambda: StudentModel(TOK, ENC, seed=5),
     [f"query_encoder.{n}" for n in _ENCODER_1L]
     + ["pred_lin1.w", "pred_lin1.b", "pred_lin2.w", "pred_lin2.b",
        "distill_head.w", "distill_head.b"]),
])
def test_parameter_tree_is_derived_from_attributes(build, names):
    model = build()
    params = model.parameters()
    assert sorted(params) == sorted(names)
    grads = model.gradients()
    assert list(grads) == list(params)
    for name, p in params.items():
        assert grads[name].shape == p.shape, name
    for g in grads.values():  # the live accumulators, dirtied in place
        g[...] = 1.0
    assert all(g.all() for g in model.gradients().values())
    model.zero_grads()
    for name, g in model.gradients().items():
        assert g.shape == params[name].shape and not g.any(), name


def _assert_tiles(arrays, buffer):
    """``arrays`` are C-contiguous views covering ``buffer`` in order, with
    no overlap and no gap."""
    start = buffer.__array_interface__["data"][0]
    offset = 0
    for name, a in arrays:
        assert a.base is buffer and a.flags.c_contiguous, name
        assert a.__array_interface__["data"][0] == start + 8 * offset, name
        offset += a.size
    assert offset == buffer.size


ENC2 = EncoderConfig(layers=2, dim=8, heads=2, ff_dim=12, dropout=0.0)


@pytest.mark.parametrize("enc", [ENC, ENC2])
@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_parameters_and_gradients_tile_the_flat_buffers(kind, enc, tmp_path):
    if kind == "teacher":
        model = TeacherModel(TOK, enc, PRIV, seed=5)
    else:
        model = StudentModel(TOK, enc, seed=5)

    def check(m):
        params = list(m.named_parameters())
        assert [n for n, _ in params] == list(m.gradients())
        _assert_tiles(params, m.flat)
        _assert_tiles(m.gradients().items(), m.flat_grad)
        assert m.flat.dtype == m.flat_grad.dtype == np.float64

    check(model)
    model.flat_grad[...] = 1.0
    model.zero_grads()
    assert not model.flat_grad.any()
    check(model)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    check(loaded)
    assert np.array_equal(loaded.flat, model.flat)


def test_student_init_copies_teacher_backbone():
    teacher = TeacherModel(TOK, ENC, PRIV, seed=21)
    student = StudentModel(TOK, ENC, seed=22)
    before = {k: v.copy() for k, v in student.parameters().items()}
    student.init_from_teacher(teacher)
    t_params = dict(teacher.query_encoder.named_parameters(""))
    for name, value in student.query_encoder.named_parameters(""):
        assert np.array_equal(value, t_params[name])
    # heads keep their own init
    assert np.array_equal(student.parameters()["pred_lin1.w"],
                          before["pred_lin1.w"])


def test_init_from_teacher_rejects_shape_mismatch():
    teacher = TeacherModel(TOK, ENC, PRIV, seed=0)
    other = StudentModel(TOK, EncoderConfig(layers=1, dim=32, heads=2,
                                            ff_dim=32, dropout=0.1), seed=0)
    with pytest.raises(TrainingError):
        other.init_from_teacher(teacher)


# --- losses -----------------------------------------------------------------


def test_unit_weights_reduce_to_plain_regression():
    rng = np.random.default_rng(3)
    y = rng.uniform(0, 1, size=6)
    s = rng.uniform(0, 1, size=6)
    hint = rng.normal(size=(6, 4))
    attn = [rng.random((6, 2, 3, 3))]
    total, terms, (d_s, d_h, d_a) = total_loss(
        y, s, hint, attn, None, None, None, LossWeights(1, 0, 0, 0))
    assert total == pytest.approx(np.mean(np.abs(s - y)))
    assert terms["pm"] == terms["hm"] == terms["am"] == 0.0
    assert np.array_equal(d_s, np.sign(s - y) / 6)
    assert np.all(d_h == 0)
    assert d_a is None


def test_loss_terms_and_gradients_add_up():
    rng = np.random.default_rng(4)
    y = rng.uniform(0, 1, size=5)
    s = rng.uniform(0, 1, size=5)
    t = rng.uniform(0, 1, size=5)
    hint = rng.normal(size=(5, 4))
    fused = rng.normal(size=(5, 4))
    s_attn = [rng.random((5, 2, 3, 3)) for _ in range(2)]
    t_attn = [rng.random((5, 2, 3, 3)) for _ in range(2)]
    w = LossWeights(1.0, 0.5, 0.25, 0.125)
    total, terms, (d_s, d_h, d_a) = total_loss(
        y, s, hint, s_attn, t, fused, t_attn, w)
    assert terms["gt"] == pytest.approx(np.mean(np.abs(s - y)))
    assert terms["pm"] == pytest.approx(np.mean(np.abs(s - t)))
    assert terms["hm"] == pytest.approx(np.mean((hint - fused) ** 2))
    am = np.mean([np.mean((sa - ta) ** 2) for sa, ta in zip(s_attn, t_attn)])
    assert terms["am"] == pytest.approx(am)
    assert total == pytest.approx(1.0 * terms["gt"] + 0.5 * terms["pm"]
                                  + 0.25 * terms["hm"] + 0.125 * terms["am"])
    expect_ds = 1.0 * np.sign(s - y) / 5 + 0.5 * np.sign(s - t) / 5
    assert np.allclose(d_s, expect_ds)
    assert np.allclose(d_h, 0.25 * 2 * (hint - fused) / hint.size)
    for i in range(2):
        assert np.allclose(
            d_a[i],
            0.125 * 2 * (s_attn[i] - t_attn[i]) / (s_attn[i].size * 2))


def test_loss_requires_teacher_outputs_when_weighted():
    y = np.zeros(2)
    s = np.zeros(2)
    hint = np.zeros((2, 3))
    attn = [np.zeros((2, 1, 2, 2))]
    with pytest.raises(TrainingError):
        total_loss(y, s, hint, attn, None, None, None, LossWeights(1, 1, 0, 0))
    with pytest.raises(TrainingError):
        total_loss(y, s, hint, attn, s, None, None, LossWeights(1, 0, 1, 0))
    with pytest.raises(TrainingError):
        total_loss(y, s, hint, attn, s, hint, None, LossWeights(1, 0, 0, 1))
    # depth mismatch between the attention stacks
    with pytest.raises(TrainingError):
        total_loss(y, s, hint, attn, s, hint, attn * 2, LossWeights(0, 0, 0, 1))


def test_loss_weights_validation_and_spec():
    with pytest.raises(TrainingError):
        LossWeights(-0.1, 0, 0, 0)
    with pytest.raises(TrainingError):
        LossWeights(0, 0, 0, 0)
    w = LossWeights.from_spec("1.0,0.5,0.25,0.125")
    assert w.as_tuple() == (1.0, 0.5, 0.25, 0.125)
    with pytest.raises(TrainingError):
        LossWeights.from_spec("1.0,0.5")


# --- privileged assembly ----------------------------------------------------


def _priv_example():
    entries = [
        _entry("a.com", "GOOGLE", 1, "titleA", "descA"),
        _entry("b.com", "GOOGLE", 2, "titleB", "descB"),
        _entry("c.com", "BING", 1, "titleC", "descC"),
    ]
    return LupiExample(query="q", toxicity=0.5,
                       serps=[SerpResultSet(query="q", entries=entries)])


def test_privileged_texts_filters_and_fields():
    ex = _priv_example()
    labels = {"a.com": "SCAM", "c.com": "SCAM"}
    got = privileged_texts(ex, PrivilegedConfig("GOOGLE", "DESCRIPTION",
                                                "SCAM_ONLY", "RANKED", 5), labels)
    assert got == ["descA"]
    got = privileged_texts(ex, PrivilegedConfig("ALL", "TITLE",
                                                "SCAM_ONLY", "RANKED", 5), labels)
    assert got == ["titleC", "titleA"]  # sorted by (engine, rank)
    got = privileged_texts(ex, PrivilegedConfig("ALL", "BOTH",
                                                "ALL", "RANKED", 5), labels)
    assert got == ["titleC descC", "titleA descA", "titleB descB"]
    got = privileged_texts(ex, PrivilegedConfig("GOOGLE", "TITLE",
                                                "SCAM_ONLY", "RANKED", 5), {})
    assert got == []  # nothing labeled scam


def test_privileged_texts_size_and_random_selection():
    entries = [_entry(f"r{i}.com", "GOOGLE", i + 1, f"t{i}", f"d{i}")
               for i in range(8)]
    ex = LupiExample(query="wide", toxicity=0.5,
                     serps=[SerpResultSet(query="wide", entries=entries)])
    ranked = privileged_texts(ex, PrivilegedConfig("GOOGLE", "TITLE", "ALL",
                                                   "RANKED", 5), {})
    assert ranked == ["t0", "t1", "t2", "t3", "t4"]  # top ranks win
    pick = PrivilegedConfig("GOOGLE", "TITLE", "ALL", "RANDOM", 5)
    a = privileged_texts(ex, pick, {}, seed=1)
    b = privileged_texts(ex, pick, {}, seed=1)
    assert a == b and len(a) == 5
    assert set(a) <= {f"t{i}" for i in range(8)}
    # subset order follows the original ranking
    positions = [int(t[1:]) for t in a]
    assert positions == sorted(positions)


def test_assemble_counts_empty_privileged_rows():
    examples = [
        LupiExample(query="has serps", toxicity=0.4, serps=[
            SerpResultSet(query="has serps", entries=[
                _entry("x.com", "GOOGLE", 1, description="d")])]),
        LupiExample(query="no serps", toxicity=0.6),
    ]
    tensors = _assemble(LupiDataset(examples), TOK, PRIV)
    assert tensors.empty_priv == 1
    assert tensors.serp_present[0].sum() == 1
    assert tensors.serp_present[1].sum() == 0


def test_privileged_config_spec_round_trip_and_validation():
    cfg = PrivilegedConfig("BING", "BOTH", "SCAM_ONLY", "RANDOM", 10)
    assert cfg.spec_string() == "bing:both:scam_only:random:10"
    assert PrivilegedConfig.from_spec(cfg.spec_string()) == cfg
    with pytest.raises(SchemaError):
        PrivilegedConfig(engine="DUCKDUCKGO")
    with pytest.raises(SchemaError):
        PrivilegedConfig(field="URL")
    with pytest.raises(SchemaError):
        PrivilegedConfig(filter="BENIGN_ONLY")
    with pytest.raises(SchemaError):
        PrivilegedConfig(selection="FIRST")
    with pytest.raises(SchemaError):
        PrivilegedConfig(size=4)
    with pytest.raises(SchemaError):
        PrivilegedConfig(size=51)
    with pytest.raises(SchemaError):
        PrivilegedConfig.from_spec("google:title:all:ranked")


# --- optimizer --------------------------------------------------------------


def test_adamw_first_step_arithmetic():
    p = np.array([1.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    opt.step(np.array([2.0]))
    # bias-corrected first step is lr * g / (|g| + eps)
    assert p[0] == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8))

    q = np.array([1.0])
    opt = AdamW(q, lr=0.1, weight_decay=0.5)
    opt.step(np.array([2.0]))
    decayed = 1.0 - 0.1 * 0.5 * 1.0
    assert q[0] == pytest.approx(decayed - 0.1 * 2.0 / (2.0 + 1e-8))

    r = np.array([1.0])
    opt = AdamW(r, lr=0.1, weight_decay=0.0)
    opt.step(np.array([2.0]), lr_scale=0.5)
    assert r[0] == pytest.approx(1.0 - 0.05 * 2.0 / (2.0 + 1e-8))


class _PerNameAdamW:
    """The per-parameter AdamW loop the whole-buffer one replaced."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01):
        self.params, self.lr, self.eps = params, lr, eps
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads, lr_scale=1.0):
        self.t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def test_whole_buffer_adamw_equals_the_per_name_loop_bit_for_bit():
    model = StudentModel(TOK, ENC, seed=3)
    reference = {k: v.copy() for k, v in model.parameters().items()}
    opt = AdamW(model.flat, 1e-2, weight_decay=0.05)
    ref_opt = _PerNameAdamW(reference, 1e-2, weight_decay=0.05)
    rng = np.random.default_rng(4)
    for step in range(5):
        model.zero_grads()
        model.flat_grad[...] = rng.normal(0.0, 10.0 ** -step, model.flat_grad.size)
        ref_opt.step({k: v.copy() for k, v in model.gradients().items()},
                     lr_scale=0.5 + 0.1 * step)
        opt.step(model.flat_grad, lr_scale=0.5 + 0.1 * step)
    for name, value in model.parameters().items():
        assert np.array_equal(value.view(np.uint64),
                              reference[name].view(np.uint64)), name


def test_warmup_scale_ramp():
    assert warmup_scale(0, 100, 0.1) == pytest.approx(0.1)
    assert warmup_scale(4, 100, 0.1) == pytest.approx(0.5)
    assert warmup_scale(9, 100, 0.1) == pytest.approx(1.0)
    assert warmup_scale(50, 100, 0.1) == 1.0
    assert warmup_scale(0, 100, 0.0) == 1.0  # no warmup: full rate at once
    scales = [warmup_scale(s, 100, 0.2) for s in range(100)]
    assert all(b >= a for a, b in zip(scales, scales[1:]))


# --- training loops ---------------------------------------------------------


def test_train_teacher_restores_best_validation_params():
    data = _tiny_dataset(24)
    val = _tiny_dataset(8, seed=9)
    teacher, report = train_teacher(data, PRIV, CFG, TOK, ENC,
                                    val_dataset=val)
    assert len(report.val_losses) <= CFG.epochs
    assert report.best_epoch == int(np.argmin(report.val_losses))
    # recomputing val MAE on the returned model reproduces the best epoch
    tensors = _assemble(val, TOK, PRIV, CFG.seed)
    score, _, _ = teacher.forward(tensors.query_ids, tensors.serp_ids,
                                  tensors.serp_present, train=False, cache=False)
    mae = float(np.mean(np.abs(score - tensors.labels)))
    assert mae == pytest.approx(min(report.val_losses), abs=1e-12)


def test_training_is_bit_reproducible():
    data = _tiny_dataset(16)
    t1, r1 = train_teacher(data, PRIV, CFG, TOK, ENC)
    t2, r2 = train_teacher(data, PRIV, CFG, TOK, ENC)
    assert r1.step_losses == r2.step_losses
    for name, value in t1.parameters().items():
        assert np.array_equal(value, t2.parameters()[name]), name


def test_teacher_is_frozen_during_distillation():
    data = _tiny_dataset(16)
    teacher, _ = train_teacher(data, PRIV, CFG, TOK, ENC)
    before = {k: v.copy() for k, v in teacher.parameters().items()}
    distill_student(data, teacher, LossWeights(1.0, 0.5, 0.5, 0.5), CFG)
    after = teacher.parameters()
    for name, value in before.items():
        assert np.array_equal(value, after[name]), name


def test_distillation_rejects_a_teacher_that_changed(monkeypatch):
    data = _tiny_dataset(16)
    teacher, _ = train_teacher(data, PRIV, CFG, TOK, ENC)
    forward = teacher.forward

    def mutating_forward(*args, **kwargs):
        teacher.head.params["b"] += 1e-3   # a write through one view
        return forward(*args, **kwargs)

    monkeypatch.setattr(teacher, "forward", mutating_forward)
    with pytest.raises(TrainingError, match="teacher parameters changed"):
        distill_student(data, teacher, LossWeights(1.0, 0.5, 0.5, 0.5), CFG)


def test_baseline_equals_distiller_with_unit_weights():
    data = _tiny_dataset(16)
    teacher, _ = train_teacher(data, PRIV, CFG, TOK, ENC)
    student, r_student = distill_student(
        data, teacher, LossWeights(1.0, 0.0, 0.0, 0.0), CFG)
    baseline, r_baseline = train_query_baseline(
        data, CFG, init_from=teacher)
    # identical arithmetic step for step, identical final parameters
    assert r_student.step_losses == r_baseline.step_losses
    for name, value in student.parameters().items():
        assert np.array_equal(value, baseline.parameters()[name]), name


def test_distillation_needs_teacher_for_weighted_terms():
    data = _tiny_dataset(8)
    from scamscout.lupi.train import _train_student_loop
    with pytest.raises(TrainingError):
        _train_student_loop(data, None, LossWeights(1, 1, 0, 0), CFG, TOK, ENC,
                            init_from=None, val_dataset=None, val_fraction=0.1)


def test_train_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(lr=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("bad", [
    {"patience": 0}, {"warmup_fraction": -1.0}, {"warmup_fraction": 1.5},
    {"warmup_fraction": float("nan")}, {"weight_decay": -1.0},
    {"weight_decay": float("nan")},
])
def test_train_config_rejects_impossible_values(bad):
    with pytest.raises(TrainingError):
        TrainConfig(**bad)
    TrainConfig(patience=1, warmup_fraction=0.0, weight_decay=0.0)
    TrainConfig(warmup_fraction=1.0)


def test_dataset_helpers():
    data = _tiny_dataset(6, categories=("b", "a"))
    assert data.categories() == ["a", "b"]
    sub = data.subset([0, 2])
    assert len(sub.examples) == 2
    assert sub.examples[0].query == data.examples[0].query
    with pytest.raises(TrainingError):
        LupiDataset([])


@pytest.mark.parametrize("tox", [float("nan"), float("inf"), -0.1, 1.7])
def test_example_rejects_bad_toxicity(tox):
    with pytest.raises(SchemaError, match="bad label query"):
        LupiExample(query="bad label query", toxicity=tox)
    for ok in (0.0, 1.0):
        LupiExample(query="q", toxicity=ok)


def _poison(dataset):
    # bypasses the LupiExample check, as a label mutated after construction would
    dataset.examples[0].toxicity = float("nan")
    return dataset


def test_training_raises_on_non_finite_step_loss():
    one_batch = TrainConfig(lr=2e-3, epochs=2, batch_size=16, seed=0)
    val = _tiny_dataset(8, seed=9)
    with pytest.raises(TrainingError, match="training loss .* epoch 0, step 0"):
        train_teacher(_poison(_tiny_dataset(16)), PRIV, one_batch, TOK, ENC,
                      val_dataset=val)
    with pytest.raises(TrainingError, match="training loss .* epoch 0, step 0"):
        train_query_baseline(_poison(_tiny_dataset(16)), one_batch, TOK, ENC,
                             val_dataset=val)


def test_training_raises_on_non_finite_validation_loss():
    data = _tiny_dataset(16)
    with pytest.raises(TrainingError, match="validation loss .* epoch 0"):
        train_teacher(data, PRIV, CFG, TOK, ENC,
                      val_dataset=_poison(_tiny_dataset(8, seed=9)))
    with pytest.raises(TrainingError, match="validation loss .* epoch 0"):
        train_query_baseline(data, CFG, TOK, ENC,
                             val_dataset=_poison(_tiny_dataset(8, seed=9)))


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    data = _tiny_dataset(8)
    teacher, _ = train_teacher(data, PRIV, CFG, TOK, ENC)
    student, _ = distill_student(data, teacher, LossWeights(1, 0.5, 0.5, 0.5), CFG)
    for model, loader in ((teacher, load_teacher), (student, load_student)):
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        first = path.read_bytes()
        save_checkpoint(model, path)
        assert path.read_bytes() == first  # serialization is deterministic
        loaded = loader(path)
        for name, value in model.parameters().items():
            assert np.array_equal(value, loaded.parameters()[name]), name
        save_checkpoint(loaded, path)
        assert path.read_bytes() == first  # survives a full round trip


def test_checkpoint_loader_type_checks(tmp_path):
    teacher = TeacherModel(TOK, ENC, PRIV, seed=0)
    student = StudentModel(TOK, ENC, seed=0)
    t_path, s_path = tmp_path / "t.json", tmp_path / "s.json"
    save_checkpoint(teacher, t_path)
    save_checkpoint(student, s_path)
    with pytest.raises(SchemaError):
        load_student(t_path)
    with pytest.raises(SchemaError):
        load_teacher(s_path)
    assert isinstance(load_checkpoint(t_path), TeacherModel)


def test_checkpoint_blob_validation():
    student = StudentModel(TOK, ENC, seed=0)
    blob = model_to_dict(student)
    bad = dict(blob, format_version=99)
    with pytest.raises(SchemaError):
        model_from_dict(bad)
    bad = dict(blob, kind="committee")
    with pytest.raises(SchemaError):
        model_from_dict(bad)
    bad = json.loads(json.dumps(blob))
    bad["layout"].pop(0)
    with pytest.raises(SchemaError, match="layout"):
        model_from_dict(bad)
    bad = json.loads(json.dumps(blob))
    bad["layout"][0][1] = [1, 1]
    with pytest.raises(SchemaError, match="layout"):
        model_from_dict(bad)


def test_checkpoint_round_trips_special_floats_bitwise(tmp_path):
    student = StudentModel(TOK, ENC, seed=0)
    special = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan,
                        1.7976931348623157e308])
    # a NaN with a non-default payload must survive too
    odd_nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)
    special = np.concatenate([special, odd_nan])
    params = student.parameters()
    for name in sorted(params)[:3]:
        flat = params[name].reshape(-1)
        flat[:special.size] = special[:flat.size]
    path = tmp_path / "student.json"
    save_checkpoint(student, path)

    def no_constants(token):
        raise AssertionError(f"non-standard JSON token {token}")
    json.loads(path.read_text(), parse_constant=no_constants)
    loaded = load_student(path)
    for name, value in student.parameters().items():
        assert np.array_equal(value.view(np.uint64),
                              loaded.parameters()[name].view(np.uint64)), name


def test_checkpoint_rejects_corrupt_data_and_old_format():
    student = StudentModel(TOK, ENC, seed=0)
    blob = model_to_dict(student)

    good = blob["params"]
    raw = base64.b64decode(good)
    for data, error in ((good[:4] + "*" + good[4:], "base64"),   # not base64
                        (base64.b64encode(raw[:-8]).decode(), "byte count"),
                        (base64.b64encode(raw + raw[:8]).decode(), "byte count"),
                        ([0.0] * student.flat.size, "base64")):
        bad = dict(blob, params=data)
        with pytest.raises(SchemaError, match=error):
            model_from_dict(bad)

    # version 2: one {"shape", "data"} entry per parameter name
    old = dict(blob, format_version=2, params={
        name: {"shape": list(p.shape),
               "data": base64.b64encode(p.tobytes()).decode()}
        for name, p in student.named_parameters()})
    del old["layout"]
    with pytest.raises(SchemaError, match="unsupported checkpoint format.*retrain"):
        model_from_dict(old)


def test_checkpoint_rejects_a_reordered_layout():
    student = StudentModel(TOK, ENC, seed=0)
    blob = model_to_dict(student)
    layout = blob["layout"]
    names = [name for name, _ in layout]
    i = names.index("query_encoder.blocks.0.attn.wq.w")
    j = names.index("query_encoder.blocks.0.attn.wk.w")
    assert layout[i][1] == layout[j][1]   # equal shapes: same byte count
    layout[i], layout[j] = layout[j], layout[i]
    with pytest.raises(SchemaError, match="layout.*attn.wk.w"):
        model_from_dict(blob)


def test_loaded_parameters_are_writable_and_own_their_data(tmp_path):
    data = _tiny_dataset(8)
    student, _ = train_query_baseline(data, CFG, TOK, ENC)
    path = tmp_path / "student.json"
    save_checkpoint(student, path)
    loaded = load_student(path)
    # each parameter is a view of the model's writable, data-owning buffer
    assert loaded.flat.flags.writeable and loaded.flat.flags.owndata
    for name, value in loaded.parameters().items():
        assert value.flags.writeable and value.base is loaded.flat, name
    # a reloaded model trains further exactly like the in-memory one
    opt_a = AdamW(student.flat, 1e-3)
    opt_b = AdamW(loaded.flat, 1e-3)
    ids = tokenize_batch([ex.query for ex in data.examples], TOK)
    for model, opt in ((student, opt_a), (loaded, opt_b)):
        model.zero_grads()
        score, hint, _ = model.forward(ids, train=False)
        model.backward(np.ones_like(score) / score.size, np.zeros_like(hint))
        opt.step(model.flat_grad)
    for name, value in student.parameters().items():
        assert np.array_equal(value, loaded.parameters()[name]), name


# --- ranking ----------------------------------------------------------------


def test_rank_keywords_per_category_topk():
    from scamscout.corpus import KeywordSuggestion
    student = StudentModel(TOK, ENC, seed=5)
    kws = [KeywordSuggestion(text=f"kw {i} {cat}", category=cat)
           for cat in ("shoes", "watches") for i in range(4)]
    ranked = rank_keywords(student, kws, k=2)
    assert len(ranked) == 4
    by_cat = {}
    for row in ranked:
        by_cat.setdefault(row.category, []).append(row)
    for cat, rows in by_cat.items():
        assert [r.rank for r in rows] == [1, 2]
        assert rows[0].score >= rows[1].score
        assert all(0.0 <= r.score <= 1.0 for r in rows)
    assert rank_keywords(student, kws, k=2) == ranked  # deterministic
    assert len(rank_keywords(student, kws, k=None)) == 8
    with pytest.raises(TrainingError):
        rank_keywords(student, [])


def test_ranked_csv_round_trip(tmp_path):
    from scamscout.lupi import RankedKeyword
    rows = [RankedKeyword("cheap watches", "watches", 0.8125, 1),
            RankedKeyword("watch bands", "watches", 0.25, 2)]
    path = tmp_path / "ranked.csv"
    write_ranked(path, rows)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "category,rank,keyword,score"
    parsed = ranked_from_csv(path)
    assert parsed == rows
    write_ranked(path, parsed)
    assert path.read_text(encoding="utf-8") == text  # stable after one round trip
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:1: header column 1 is 'a', expected 'category'")):
        ranked_from_csv(path)


# --- grid search and LOCO CV ------------------------------------------------


def test_grid_search_single_combo():
    data = _tiny_dataset(16)
    best, table = grid_search_privileged(
        data, CFG, engines=("GOOGLE",), fields=("DESCRIPTION",),
        filters=("ALL",), selections=("RANKED",), sizes=(5,),
        tok_cfg=TOK, enc_cfg=ENC)
    assert best == PrivilegedConfig("GOOGLE", "DESCRIPTION", "ALL", "RANKED", 5)
    assert len(table) == 1
    assert set(table[0]) == {"priv", "val_mae", "epochs_run", "empty_priv"}
    with pytest.raises(TrainingError):
        grid_search_privileged(data, CFG, engines=())


def test_loco_cv_reports_all_strategies():
    data = _tiny_dataset(24)
    reports = loco_cv(data, PRIV, CFG, LossWeights(1, 0.5, 0.5, 0.5),
                      k=3, min_queries=5, tok_cfg=TOK, enc_cfg=ENC)
    assert [r.category for r in reports] == ["a", "b"]
    for rep in reports:
        assert rep.n_test == 12
        assert set(rep.toxicity) == {"max", "teacher", "student", "baseline"}
        assert set(rep.expansion) == {"max", "teacher", "student", "baseline"}
        # truth-sorted top-k is the ceiling for every learned strategy
        for name in ("teacher", "student", "baseline"):
            assert rep.toxicity["max"] >= rep.toxicity[name] - 1e-12
            assert rep.expansion["max"] >= rep.expansion[name] - 1e-12


def test_loco_cv_skips_small_folds_with_warning():
    small = _tiny_dataset(4, categories=("tiny",))
    big = _tiny_dataset(24, categories=("big",), seed=1)
    data = LupiDataset(small.examples + big.examples)
    with pytest.warns(UserWarning, match="tiny"):
        reports = loco_cv(data, PRIV, CFG, k=3, min_queries=10,
                          tok_cfg=TOK, enc_cfg=ENC)
    assert [r.category for r in reports] == ["big"]


def test_loco_cv_input_validation():
    one_cat = _tiny_dataset(8, categories=("only",))
    with pytest.raises(TrainingError):
        loco_cv(one_cat, PRIV, CFG, tok_cfg=TOK, enc_cfg=ENC)
    two_small = _tiny_dataset(6, categories=("a", "b"))
    with pytest.raises(TrainingError):
        with pytest.warns(UserWarning):
            loco_cv(two_small, PRIV, CFG, min_queries=10,
                    tok_cfg=TOK, enc_cfg=ENC)


# --- PAD trimming and teacher outputs once per fit ----------------------------

TOK_LONG = TokenizerConfig(vocab_size=256, max_len_query=32, max_len_serp=64)


def _words(rng, n):
    return " ".join(f"w{int(i)}" for i in rng.integers(0, 400, size=n))


def test_trimmed_length_rounds_the_longest_prefix_up_to_a_multiple_of_8():
    from scamscout.lupi.encoder import trimmed_length
    ids = tokenize_batch(["a b c d", "a"], TOK_LONG)           # longest 5
    assert trimmed_length(ids) == 8
    ids = tokenize_batch(["a " * 8, "a"], TOK_LONG)             # longest 9
    assert trimmed_length(ids) == 16
    ids = tokenize_batch(["a " * 40], TOK_LONG)                 # truncated at 32
    assert trimmed_length(ids) == 32
    short = TokenizerConfig(vocab_size=64, max_len_query=12, max_len_serp=12)
    assert trimmed_length(tokenize_batch(["a " * 9], short)) == 12  # capped
    assert trimmed_length(np.zeros((3, 64), dtype=np.int64)) == 8   # all PAD
    # an interior PAD does not end the prefix; the last real column does
    ids = np.zeros((2, 64), dtype=np.int64)
    ids[0, :3] = [CLS_ID, 5, 7]
    ids[1, [0, 20]] = [CLS_ID, 9]
    assert trimmed_length(ids) == 24


@pytest.mark.parametrize("train", [False, True])
def test_trimmed_encoder_forward_is_bit_identical_and_keeps_rng_stream(train):
    from scamscout.lupi import Encoder
    from scamscout.lupi.encoder import trimmed_length
    enc_cfg = EncoderConfig(layers=2, dim=16, heads=2, ff_dim=32, dropout=0.2)
    enc = Encoder(TOK_LONG.vocab_size, TOK_LONG.max_len_serp, enc_cfg,
                  np.random.default_rng(0))
    rng = np.random.default_rng(3)
    # longest rows of 5, 11, 14 and 19 tokens: never a multiple of 8
    for longest in (4, 10, 13, 18):
        texts = [_words(rng, int(n)) for n in rng.integers(1, longest, size=5)]
        texts.append(_words(rng, longest))
        ids = tokenize_batch(texts, TOK_LONG, TOK_LONG.max_len_serp)
        L = trimmed_length(ids)
        assert L % 8 == 0 and L < ids.shape[1]
        rng_full, rng_trim = np.random.default_rng(9), np.random.default_rng(9)
        h_full, a_full = enc.forward(ids, train, rng_full, cache=False)
        h_trim, a_trim = enc.forward(ids, train, rng_trim, cache=False, trim=True)
        assert h_trim.shape == (len(texts), L, enc_cfg.dim)
        assert np.array_equal(h_trim, h_full[:, :L])
        for full, trim in zip(a_full, a_trim):
            assert np.array_equal(trim, full[:, :, :L, :L])
            assert not full[:, :, :L, L:].any()
        assert rng_trim.bit_generator.state == rng_full.bit_generator.state


def _long_teacher_inputs(seed=0, batch=6, k=3, lengths=(3, 20)):
    rng = np.random.default_rng(seed)
    q = tokenize_batch([_words(rng, int(rng.integers(1, 9)))
                        for _ in range(batch)], TOK_LONG)
    serp_ids = np.stack([
        tokenize_batch([_words(rng, int(rng.integers(*lengths)))
                        for _ in range(k)], TOK_LONG, TOK_LONG.max_len_serp)
        for _ in range(batch)])
    present = rng.random((batch, k)) < 0.8
    present[0] = True
    present[1] = False   # one query without privileged text
    return q, serp_ids, present


def _untrimmed(monkeypatch):
    """Make every trimmed call run at the full length (the reference)."""
    from scamscout.lupi import encoder
    monkeypatch.setattr(encoder, "trimmed_length", lambda ids: ids.shape[1])


@pytest.mark.parametrize("train", [False, True])
def test_teacher_forward_is_unchanged_by_serp_trimming(monkeypatch, train):
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=4)
    q, serp_ids, present = _long_teacher_inputs()
    rng_trim = np.random.default_rng(5)
    trimmed = teacher.forward(q, serp_ids, present, train, rng_trim, cache=False)
    _untrimmed(monkeypatch)
    rng_full = np.random.default_rng(5)
    full = teacher.forward(q, serp_ids, present, train, rng_full, cache=False)
    assert np.array_equal(trimmed[0], full[0])
    assert np.array_equal(trimmed[1], full[1])
    assert all(np.array_equal(a, b) for a, b in zip(trimmed[2], full[2]))
    assert rng_trim.bit_generator.state == rng_full.bit_generator.state


def test_trimmed_serp_encoder_gradients_match_full_length(monkeypatch):
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=6)
    q, serp_ids, present = _long_teacher_inputs(seed=1)
    d_score = np.random.default_rng(2).normal(size=q.shape[0])

    def grads():
        teacher.zero_grads()
        teacher.forward(q, serp_ids, present, train=True,
                        rng=np.random.default_rng(8))
        teacher.backward(d_score)
        return {k: v.copy() for k, v in teacher.gradients().items()}

    trimmed = grads()
    _untrimmed(monkeypatch)
    full = grads()
    for name, g in full.items():
        if name.startswith("serp_encoder."):
            # the weight GEMMs sum over fewer (all-zero) PAD rows: rounding only
            assert np.max(np.abs(trimmed[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
        else:
            assert np.array_equal(trimmed[name], g), name


def test_teacher_outputs_over_the_set_slice_to_the_per_batch_forward():
    from scamscout.lupi.encoder import trimmed_length
    from scamscout.lupi.train import _slice, _Tensors
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=2)
    q, serp_ids, present = _long_teacher_inputs(seed=3, batch=10, k=4,
                                                lengths=(2, 6))
    # two rows with long snippets stretch the set's trimmed length
    rng = np.random.default_rng(4)
    for i in (7, 9):
        serp_ids[i, 0] = tokenize(_words(rng, 30), TOK_LONG, TOK_LONG.max_len_serp)
    t = _Tensors(q, serp_ids, present, np.zeros(len(q)))
    t.teacher = teacher.forward(q, serp_ids, present, train=False, cache=False)
    short_batch = np.array([0, 2, 3, 5])
    assert trimmed_length(serp_ids[short_batch].reshape(-1, 64)) < \
        trimmed_length(serp_ids.reshape(-1, 64))
    for idx in (short_batch, np.array([8, 1, 9, 4]), np.arange(10)):
        batch = _slice(t, idx)
        score, fused, attn = teacher.forward(batch.query_ids, batch.serp_ids,
                                             batch.serp_present, cache=False)
        assert np.array_equal(batch.teacher[0], score)
        assert np.array_equal(batch.teacher[1], fused)
        assert all(np.array_equal(a, b) for a, b in zip(batch.teacher[2], attn))


def test_distillation_runs_the_teacher_once_per_tensor_set(monkeypatch):
    data = _tiny_dataset(24)
    teacher, _ = train_teacher(data, PRIV, CFG, TOK, ENC)
    calls = []
    forward = TeacherModel.forward

    def counted(self, query_ids, *args, **kwargs):
        calls.append(len(query_ids))
        return forward(self, query_ids, *args, **kwargs)

    monkeypatch.setattr(TeacherModel, "forward", counted)
    _, report = distill_student(data, teacher, LossWeights(1, 0.5, 0.5, 0.5), CFG)
    assert len(report.step_losses) == 2 * 3   # 22 train rows, batches of 8
    assert calls == [22, 2]                   # train tensors, then validation
    calls.clear()
    train_query_baseline(data, CFG, TOK, ENC, init_from=teacher)
    assert calls == []


def test_rank_scores_equal_the_untrimmed_student_scores():
    from scamscout.corpus import KeywordSuggestion
    student = StudentModel(TOK_LONG, ENC, seed=7)
    rng = np.random.default_rng(1)
    kws = [KeywordSuggestion(text=_words(rng, int(n)), category="c")
           for n in rng.integers(1, 12, size=40)]
    ranked = rank_keywords(student, kws, k=None, batch_size=16)
    ids = tokenize_batch([kw.text for kw in kws], TOK_LONG)
    full, _, _ = student.forward(ids, train=False, cache=False)
    expected = dict(zip((kw.text for kw in kws), np.clip(full, 0.0, 1.0)))
    assert len(ranked) == len(expected)
    assert all(row.score == expected[row.text] for row in ranked)


def test_step_terms_add_up_to_the_step_losses():
    data = _tiny_dataset(24)
    teacher, t_report = train_teacher(data, PRIV, CFG, TOK, ENC)
    assert t_report.step_terms == [{"gt": x} for x in t_report.step_losses]
    w = LossWeights(0.5, 1.0, 0.25, 0.75)
    _, report = distill_student(data, teacher, w, CFG)
    assert len(report.step_terms) == len(report.step_losses) > 0
    for terms, loss in zip(report.step_terms, report.step_losses):
        assert set(terms) == {"gt", "pm", "hm", "am"}
        assert all(terms[name] > 0 for name in terms)
        assert (w.gt * terms["gt"] + w.pm * terms["pm"]
                + w.hm * terms["hm"] + w.am * terms["am"]) == loss


def test_loco_cv_paper_split_validates_on_the_held_out_fold(monkeypatch):
    from scamscout.lupi import train as train_mod
    data = _tiny_dataset(24)
    seen = []
    for name in ("train_teacher", "distill_student", "train_query_baseline"):
        real = getattr(train_mod, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            seen.append((_name, args[0], kwargs["val_dataset"]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(train_mod, name, spy)
    reports = loco_cv(data, PRIV, CFG, LossWeights(1, 0.5, 0.5, 0.5), k=3,
                      min_queries=5, tok_cfg=TOK, enc_cfg=ENC, paper_split=True)
    assert [r.category for r in reports] == ["a", "b"]
    for rep in reports:
        assert set(rep.toxicity) == {"max", "teacher", "student", "baseline"}
        assert set(rep.expansion) == {"max", "teacher", "student", "baseline"}
    assert [name for name, _, _ in seen] == \
        ["train_teacher", "distill_student", "train_query_baseline"] * 2
    for i, held_out in enumerate(("a", "b")):
        fold = seen[3 * i:3 * i + 3]
        val = fold[0][2]
        # 10% of the 12 held-out queries, the same set for all three fits
        assert len(val.examples) == 1
        assert all(ex.category == held_out for ex in val.examples)
        assert all(v is val for _, _, v in fold)
        train_queries = {ex.query for ex in fold[0][1].examples}
        assert not train_queries & {ex.query for ex in val.examples}
        assert {ex.category for ex in fold[0][1].examples} == {"a", "b"} - {held_out}
