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
    assemble,
    checkpoint_header,
    distill_student,
    load_student,
    load_teacher,
    loco_cv,
    model_from_checkpoint,
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
from scamscout.lupi.train import LupiTensors, _slice, _train_student, _val_split

TOK = TokenizerConfig(vocab_size=128, max_len_query=8, max_len_serp=8)
ENC = EncoderConfig(layers=1, dim=16, heads=2, ff_dim=32, dropout=0.1)
ENC0 = EncoderConfig(layers=1, dim=16, heads=2, ff_dim=32, dropout=0.0)
ENC2 = EncoderConfig(layers=2, dim=8, heads=2, ff_dim=12, dropout=0.0)
PRIV = PrivilegedConfig("GOOGLE", "DESCRIPTION", "ALL", "RANKED", 5)
CFG = TrainConfig(lr=2e-3, epochs=2, batch_size=8, patience=2, seed=0)


def _entry(domain, engine="GOOGLE", rank=1, title="", description=""):
    return SerpEntry(engine=engine, rank=rank, url=f"https://{domain}/x",
                     title=title, description=description)


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


def _set(data, tok=TOK):
    """``data`` assembled as every test fit here sees it."""
    return assemble(data, PRIV, tok, CFG.seed)


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
    cfg = TokenizerConfig(vocab_size=vocab, max_len_query=max_len)
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
    assert np.array_equal(tokenize_batch(texts, cfg), np.stack(rows))


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


# --- encoder ----------------------------------------------------------------


def test_attention_rows_are_distributions():
    from scamscout.lupi import Encoder
    rng = np.random.default_rng(0)
    enc = Encoder(TOK.vocab_size, TOK.max_len_query,
                  EncoderConfig(layers=2, dim=16, heads=2, ff_dim=32,
                                dropout=0.0), rng)
    ids = tokenize_batch(["cheap shoes", "a b c d e f g"], TOK)
    cls = enc.forward(ids, train=True)   # dropout 0: only caches
    assert cls.shape == (2, 16)
    assert len(enc.blocks) == 2
    # the first block attends from every position, the last from CLS alone
    for block, rows in zip(enc.blocks, (8, 1)):
        attn = block.attn._attn   # the probabilities cached for backward
        assert attn.shape == (2, 2, rows, 8)
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
    cls_short = enc.forward(short)
    cls_padded = enc.forward(padded)
    assert cls_short.shape == cls_padded.shape == (1, ENC0.dim)
    assert np.allclose(cls_short, cls_padded, atol=1e-12)


def test_encoder_config_validation():
    with pytest.raises(SchemaError):
        EncoderConfig(dim=10, heads=4)
    with pytest.raises(SchemaError):
        EncoderConfig(layers=0)


@pytest.mark.parametrize("bad", [
    {"dropout": 1.0}, {"dropout": 1.5}, {"dropout": -0.5},
    {"dropout": float("nan")}, {"ff_dim": 0},
    {"heads": 0}, {"heads": -4}, {"dim": 0},
])
def test_encoder_config_rejects_impossible_values(bad):
    with pytest.raises(SchemaError):
        EncoderConfig(**bad)
    # the same check guards a checkpoint's encoder section
    student = StudentModel(TOK, ENC, seed=0)
    header = checkpoint_header(student)
    header["encoder"].update(bad)
    with pytest.raises(SchemaError):
        model_from_checkpoint(header, _body(student))
    EncoderConfig(dropout=0.0)
    EncoderConfig(dropout=0.99, ff_dim=1)


def test_sinusoidal_positions_layout():
    enc = sinusoidal_positions(16, 8)
    assert enc.shape == (16, 8)
    assert np.all(np.abs(enc) <= 1.0)
    assert np.allclose(enc[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(enc[0, 1::2], 1.0)  # cos(0)


def test_single_output_linear_rows_do_not_depend_on_the_batch():
    # a score head's row must not change with its position in the batch, or
    # the distiller's once-per-set teacher outputs would differ from a
    # per-batch forward
    from scamscout.lupi.layers import Linear
    rng = np.random.default_rng(0)
    lin = Linear(16, 1, rng)
    x = rng.normal(size=(10, 16))
    full = lin.forward(x)
    for idx in (np.array([8, 1, 9, 4]), np.array([9, 8]), np.arange(10)[::-1]):
        assert np.array_equal(lin.forward(x[idx]), full[idx])


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
    score, fused = teacher.forward(q, serp_ids, present)
    rng = np.random.default_rng(7)
    for _ in range(5):
        perm = rng.permutation(serp_ids.shape[1])
        s2, f2 = teacher.forward(q, serp_ids[:, perm], present[:, perm])
        assert np.allclose(s2, score, atol=1e-9)
        assert np.allclose(f2, fused, atol=1e-9)


def test_empty_privileged_set_equals_zero_pooled_vector():
    """Absent slots change no score, whatever their ids."""
    teacher = TeacherModel(TOK, ENC0, PRIV, seed=3)
    q = tokenize_batch(["some query", "another one"], TOK)
    k = 3
    none_present = np.zeros((2, k), dtype=bool)
    pad, _ = teacher.forward(
        q, np.zeros((2, k, TOK.max_len_serp), dtype=np.int64), none_present)
    words = np.random.default_rng(0).integers(
        2, TOK.vocab_size, (2, k, TOK.max_len_serp))
    noise, _ = teacher.forward(q, words, none_present)
    assert np.array_equal(pad, noise)
    # one present slot, its neighbours absent with any ids: only it is pooled
    one = np.zeros((2, k), dtype=bool)
    one[:, 0] = True
    alone, _ = teacher.forward(q, words * one[:, :, None], one)
    assert np.array_equal(alone, teacher.forward(q, words, one)[0])


def _fd_check(params, loss_fn, grads, token_ids=None, seed=0, eps=1e-5):
    """Centered finite differences against analytic grads, one coordinate
    per parameter tensor.  For an embedding table named in ``token_ids`` the
    coordinate is drawn from a row that those ids use, other than PAD's, and
    its gradient must not be 0."""
    rng = np.random.default_rng(seed)
    token_ids = token_ids or {}
    for name, p in params.items():
        flat = p.reshape(-1)
        if name in token_ids:
            rows = np.unique(token_ids[name])
            row = int(rng.choice(rows[rows != PAD_ID]))
            idx = row * p.shape[1] + int(rng.integers(0, p.shape[1]))
        else:
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
        assert name not in token_ids or analytic != 0, name


def test_student_backward_matches_finite_differences():
    # one- and two-block encoders: with two, the gradient of every tensor of
    # the first block, and of the embedding, passes through an inner block
    for enc in (ENC0, ENC2):
        student = StudentModel(TOK, enc, seed=11)
        q = tokenize_batch(["cheap replica watches", "how to fix a watch"], TOK)
        rng = np.random.default_rng(2)
        y = rng.uniform(0, 1, size=2)
        hint_target = rng.normal(0, 0.1, size=(2, enc.dim))
        score, hint = student.forward(q, train=True)   # dropout 0: only caches

        def loss_value():
            s, h = student.forward(q)
            return float(0.5 * np.sum((s - y) ** 2)
                         + 0.5 * np.sum((h - hint_target) ** 2))

        student.zero_grads()
        student.backward(score - y, hint - hint_target)
        for seed in range(3):
            _fd_check(student.parameters(), loss_value, student.gradients(),
                      {"query_encoder.embed.w": q}, seed)


def test_teacher_backward_matches_finite_differences():
    for enc in (ENC0, ENC2):
        teacher = TeacherModel(TOK, enc, PRIV, seed=13)
        q, serp_ids, present = _teacher_inputs(batch=2, k=3, seed=5)
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, size=2)
        # the score loss reaches the head, the fusion layer and both encoders
        score, _ = teacher.forward(q, serp_ids, present, train=True)

        def loss_value():
            s, _ = teacher.forward(q, serp_ids, present)
            return float(0.5 * np.sum((s - y) ** 2))

        teacher.zero_grads()
        teacher.backward(score - y)
        # only the present slots are pooled, so only their ids are used
        for seed in range(3):
            _fd_check(teacher.parameters(), loss_value, teacher.gradients(),
                      {"query_encoder.embed.w": q,
                       "serp_encoder.embed.w": serp_ids[present]}, seed)


def test_two_block_encoder_backward_matches_finite_differences():
    # between the loss and the embedding sit the last block's CLS-row
    # backward and the first block's every-row backward, so the embedding
    # rows the batch uses are checked, not random ones
    from scamscout.lupi import Encoder
    enc = Encoder(TOK.vocab_size, TOK.max_len_query, ENC2,
                  np.random.default_rng(3))
    ids = tokenize_batch(["cheap replica watches", "how to fix a watch"], TOK)
    target = np.random.default_rng(4).normal(size=(2, ENC2.dim))
    enc.backward(enc.forward(ids, train=True) - target)   # dropout 0

    def loss_value():
        return float(0.5 * np.sum((enc.forward(ids) - target) ** 2))

    params, grads = enc.parameters(), enc.gradients()
    _fd_check({k: v for k, v in params.items() if k != "embed.w"},
              loss_value, grads)
    used = {f"embed.w[{i}]": params["embed.w"][i] for i in np.unique(ids)}
    _fd_check(used, loss_value,
              {f"embed.w[{i}]": grads["embed.w"][i] for i in np.unique(ids)})


def test_backward_needs_a_train_mode_forward():
    teacher = TeacherModel(TOK, ENC, PRIV, seed=1)
    student = StudentModel(TOK, ENC, seed=1)
    q, serp_ids, present = _teacher_inputs(batch=2, k=3)
    passes = [
        (lambda train: teacher.forward(q, serp_ids, present, train,
                                       np.random.default_rng(0)),
         lambda: teacher.backward(np.ones(2))),
        (lambda train: student.forward(q, train, np.random.default_rng(0)),
         lambda: student.backward(np.ones(2), np.zeros((2, ENC.dim)))),
    ]
    for forward, backward in passes:
        with pytest.raises(TrainingError, match="needs a train-mode forward"):
            backward()                     # no forward yet
        forward(True)
        backward()
        # an eval pass after a training pass leaves nothing to backpropagate
        forward(False)
        with pytest.raises(TrainingError, match="needs a train-mode forward"):
            backward()


def _layer_case(name):
    """A fresh layer of class ``name`` and its forward over a (2, 3, 8) input
    (ids for an embedding) in a given mode; every output is (2, 3, 8)."""
    from scamscout.lupi.layers import (
        Embedding, FeedForward, LayerNorm, Linear, MultiHeadAttention)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8))
    if name == "Embedding":
        layer = Embedding(16, 8, rng)
        ids = np.array([[1, 2, 3], [4, 5, 0]])
        return layer, lambda train: layer.forward(ids, train)
    if name == "MultiHeadAttention":
        layer = MultiHeadAttention(8, 2, rng)
        keys = np.array([[True, True, True], [True, True, False]])
        return layer, lambda train: layer.forward(x, keys, train)
    layer = {"Linear": lambda: Linear(8, 8, rng), "LayerNorm": lambda: LayerNorm(8),
             "FeedForward": lambda: FeedForward(8, 16, rng)}[name]()
    return layer, lambda train: layer.forward(x, train)


@pytest.mark.parametrize("name", ["Linear", "LayerNorm", "MultiHeadAttention",
                                  "FeedForward", "Embedding"])
def test_layer_backward_needs_a_pending_train_mode_forward(name):
    layer, forward = _layer_case(name)
    d_out = np.random.default_rng(1).normal(size=(2, 3, 8))
    misuse = pytest.raises(
        TrainingError, match=f"^{name} backward needs a train-mode forward")
    with misuse:
        layer.backward(d_out)                          # no forward yet
    forward(True)
    layer.backward(d_out)
    grads = {k: v.copy() for k, v in layer.gradients().items()}
    with misuse:
        layer.backward(d_out)                          # a second backward
    # the refused backward accumulated nothing
    for k, v in layer.gradients().items():
        assert np.array_equal(v, grads[k]), k
    forward(True)
    forward(False)
    with misuse:
        layer.backward(d_out)                          # after an eval pass


def test_dropout_backward_takes_its_mask_once():
    from scamscout.lupi.layers import Dropout
    x = np.ones((2, 3, 4))
    d_out = np.arange(24.0).reshape(2, 3, 4)
    # eval and p = 0 passes are the identity both ways
    for p, train in ((0.3, False), (0.0, True)):
        drop = Dropout(p)
        assert drop.forward(x, train, np.random.default_rng(0)) is x
        assert drop.backward(d_out) is d_out
    drop = Dropout(0.3)
    mask = drop.forward(x, True, np.random.default_rng(0))   # x is ones
    assert np.array_equal(drop.backward(d_out), d_out * mask)
    with pytest.raises(TrainingError, match="^Dropout backward needs a train-mode"):
        drop.backward(d_out)


def _cached(model):
    """Paths of the caches (underscored attributes that are set) the modules
    of ``model`` hold."""
    return [f"{path}{name}" for path, module in model._modules()
            for name, value in vars(module).items()
            if name.startswith("_") and value is not None]


def test_a_train_step_holds_no_cache_after_backward_and_adam_state_for_live_chunks():
    from scamscout.lupi.optim import CHUNK
    tok = TokenizerConfig(vocab_size=4096, max_len_query=8, max_len_serp=8)
    teacher = TeacherModel(tok, ENC, PRIV, seed=1)
    student = StudentModel(tok, ENC, seed=1)
    q = tokenize_batch(["cheap shoes", "replica bags outlet"], tok)
    serp_ids = np.stack([np.stack([tokenize(f"desc {i} {j}", tok, tok.max_len_serp)
                                   for j in range(3)]) for i in range(2)])
    present = np.array([[True, True, False], [True, True, True]])
    rng = np.random.default_rng(0)
    passes = [
        (teacher, lambda: teacher.forward(q, serp_ids, present, True, rng),
         lambda: teacher.backward(np.ones(2))),
        (student, lambda: student.forward(q, True, rng),
         lambda: student.backward(np.ones(2), np.ones((2, ENC.dim)))),
    ]
    for model, forward, backward in passes:
        forward()
        assert "query_encoder.embed._ids" in _cached(model)
        backward()
        assert _cached(model) == []
        with pytest.raises(TrainingError, match=f"^{type(model).__name__} "
                                                "backward needs a train-mode forward"):
            backward()
        opt = AdamW(model.flat, 1e-3)
        opt.step(model.flat_grad)
        live = np.count_nonzero(np.repeat(opt.live, CHUNK)[:model.flat.size])
        assert opt.m.size == opt.v.size == live
        # the step touched a few embedding rows of 4096
        assert live < model.flat.size / 10


# Names a 1-layer encoder's parameters take in checkpoint layouts.
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
    loaded = (load_teacher if kind == "teacher" else load_student)(path)
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
    total, terms, (d_s, d_h) = total_loss(
        y, s, hint, None, None, LossWeights(1, 0, 0))
    assert total == pytest.approx(np.mean(np.abs(s - y)))
    assert terms["pm"] == terms["hm"] == 0.0
    assert np.array_equal(d_s, np.sign(s - y) / 6)
    assert np.all(d_h == 0)


def test_loss_terms_and_gradients_add_up():
    rng = np.random.default_rng(4)
    y = rng.uniform(0, 1, size=5)
    s = rng.uniform(0, 1, size=5)
    t = rng.uniform(0, 1, size=5)
    hint = rng.normal(size=(5, 4))
    fused = rng.normal(size=(5, 4))
    w = LossWeights(1.0, 0.5, 0.25)
    total, terms, (d_s, d_h) = total_loss(y, s, hint, t, fused, w)
    assert terms["gt"] == pytest.approx(np.mean(np.abs(s - y)))
    assert terms["pm"] == pytest.approx(np.mean(np.abs(s - t)))
    assert terms["hm"] == pytest.approx(np.mean((hint - fused) ** 2))
    assert total == pytest.approx(1.0 * terms["gt"] + 0.5 * terms["pm"]
                                  + 0.25 * terms["hm"])
    expect_ds = 1.0 * np.sign(s - y) / 5 + 0.5 * np.sign(s - t) / 5
    assert np.allclose(d_s, expect_ds)
    assert np.allclose(d_h, 0.25 * 2 * (hint - fused) / hint.size)


def test_loss_requires_teacher_outputs_when_weighted():
    y = np.zeros(2)
    s = np.zeros(2)
    hint = np.zeros((2, 3))
    with pytest.raises(TrainingError, match="pm term"):
        total_loss(y, s, hint, None, None, LossWeights(1, 1, 0))
    with pytest.raises(TrainingError, match="hm term"):
        total_loss(y, s, hint, s, None, LossWeights(1, 0, 1))


def test_loss_weights_validation_and_spec():
    with pytest.raises(TrainingError):
        LossWeights(-0.1, 0, 0)
    with pytest.raises(TrainingError):
        LossWeights(0, 0, 0)
    w = LossWeights.from_spec("1.0,0.5,0.25")
    assert w.as_tuple() == (1.0, 0.5, 0.25)
    assert LossWeights.from_spec("1,0.5,0.5") == LossWeights()
    for spec in ("1.0,0.5", "1.0,0.5,0.25,0.125"):
        with pytest.raises(TrainingError, match="three comma-separated"):
            LossWeights.from_spec(spec)
    with pytest.raises(TrainingError, match=re.escape("got 'a,b,c'")):
        LossWeights.from_spec("a,b,c")
    for bad in ((1, float("nan"), 0.5), (1, float("inf"), 0)):
        with pytest.raises(TrainingError, match="loss weights must be finite"):
            LossWeights(*bad)


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
    tensors = assemble(LupiDataset(examples), PRIV, TOK)
    assert tensors.empty_priv == 1
    assert tensors.serp_present[0].sum() == 1
    assert tensors.serp_present[1].sum() == 0


def test_a_slice_of_the_assembled_set_equals_the_set_of_its_rows():
    # more scam results than slots, so the RANDOM draw picks among them
    examples = [
        LupiExample(query=f"query {i}", toxicity=i / 10, serps=[SerpResultSet(
            query=f"query {i}", entries=[
                _entry(f"d{(i + j) % 9}.com", engine, j + 1, f"t{i}.{j}", f"d{j}")
                for engine in ("GOOGLE", "BING") for j in range(6)])])
        for i in range(10)]
    labels = {f"d{i}.com": "SCAM" if i % 3 else "BENIGN" for i in range(9)}
    priv = PrivilegedConfig("ALL", "BOTH", "SCAM_ONLY", "RANDOM", 5)
    full = assemble(LupiDataset(examples, labels), priv, TOK, seed=3)
    assert full.serp_present.all()
    for idx in ([7, 2, 5], [0], list(range(9, -1, -1))):
        part = assemble(LupiDataset([examples[i] for i in idx], labels), priv,
                        TOK, seed=3)
        sliced = _slice(full, np.array(idx))
        assert (sliced.priv, sliced.tok_cfg) == (part.priv, part.tok_cfg)
        for name in ("query_ids", "serp_ids", "serp_present", "labels"):
            assert np.array_equal(getattr(sliced, name), getattr(part, name)), name
        assert sliced.empty_priv == part.empty_priv == 0


def test_privileged_config_spec_round_trip_and_validation():
    cfg = PrivilegedConfig("BING", "BOTH", "SCAM_ONLY", "RANDOM", 10)
    assert cfg.spec_string() == "bing:both:scam_only:random:10"
    assert PrivilegedConfig.from_spec(cfg.spec_string()) == cfg
    # every engine a SERP entry accepts, and ALL
    for engine in ("google", "bing", "baidu", "naver", "all"):
        spec = f"{engine}:description:all:ranked:5"
        assert PrivilegedConfig.from_spec(spec).spec_string() == spec
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
    with pytest.raises(SchemaError, match=re.escape("got 'google:title:all:ranked:x'")):
        PrivilegedConfig.from_spec("google:title:all:ranked:x")


# --- optimizer --------------------------------------------------------------


def test_adamw_first_step_arithmetic():
    # the weight decays by lr * 0.01 of itself, then the bias-corrected
    # first step is lr * g / (|g| + eps)
    p = np.array([1.0])
    AdamW(p, lr=0.1).step(np.array([2.0]))
    assert p[0] == pytest.approx(1.0 - 0.1 * 0.01 - 0.1 * 2.0 / (2.0 + 1e-8))

    r = np.array([1.0])
    AdamW(r, lr=0.1).step(np.array([2.0]), lr_scale=0.5)
    assert r[0] == pytest.approx(1.0 - 0.05 * 0.01 - 0.05 * 2.0 / (2.0 + 1e-8))


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
    opt = AdamW(model.flat, 1e-2)
    ref_opt = _PerNameAdamW(reference, 1e-2)
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(size=st.integers(1, 400), steps=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), lr=st.sampled_from([1e-3, 2e-3, 0.1]))
def test_live_chunk_adamw_equals_the_dense_step_bit_for_bit(size, steps, seed, lr):
    from scamscout.lupi.optim import CHUNK
    rng = np.random.default_rng(seed)
    params = rng.normal(size=size)
    special = rng.random(size)
    params[special < 0.05] = -0.0
    params[(special >= 0.05) & (special < 0.08)] = np.nan
    params[(special >= 0.08) & (special < 0.1)] = 0.0
    # each chunk is first touched at its own step, some only at the last
    # one, some never; in some, every nonzero gradient is NaN
    chunks = -(-size // CHUNK)
    first = rng.integers(0, steps + 2, size=chunks)
    first[-1] = steps - 1
    live_from = np.repeat(first, CHUNK)[:size]
    nan_only = np.repeat(rng.random(chunks) < 0.1, CHUNK)[:size]
    ours, ref = params.copy(), params.copy()
    # one name: the per-name loop is the dense whole-buffer step
    opt, ref_opt = AdamW(ours, lr), _PerNameAdamW({"p": ref}, lr)
    for step in range(steps):
        grads = np.where(rng.random(size) < 0.5, 0.0, -0.0)
        # a live chunk may go a step without any gradient
        quiet = np.repeat(rng.random(chunks) < 0.3, CHUNK)[:size]
        hit = (live_from <= step) & ~quiet & (rng.random(size) < 0.6)
        grads[hit] = rng.normal(size=int(hit.sum()))
        grads[hit & (nan_only | (rng.random(size) < 0.02))] = np.nan
        lr_scale = warmup_scale(step, steps)
        opt.step(grads, lr_scale)
        ref_opt.step({"p": grads}, lr_scale)
        assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))
        # the compact moments are the dense ones at the live elements, and
        # the dense ones are +0.0 (all bits clear) everywhere else
        live = np.repeat(opt.live, CHUNK)[:size]
        for a, b in ((opt.m, ref_opt.m["p"]), (opt.v, ref_opt.v["p"])):
            assert np.array_equal(a.view(np.uint64), b[live].view(np.uint64))
            assert not b[~live].view(np.uint64).any()
    assert not opt.live[first >= steps].any()


def test_compact_moments_move_with_their_chunks_as_chunks_go_live():
    from scamscout.lupi.optim import CHUNK
    size = 4 * CHUNK + 5            # the last chunk is 5 elements short of a row
    rng = np.random.default_rng(5)
    ours = rng.normal(size=size)
    ref = ours.copy()
    opt, ref_opt = AdamW(ours, 1e-2), _PerNameAdamW({"p": ref}, 1e-2)
    # the short last chunk goes live first, then chunks in front of it
    for step, new in enumerate(([4], [2], [0], [], [3, 1])):
        grads = np.zeros(size)
        for c in np.flatnonzero(opt.live).tolist() + new:
            touched = grads[c * CHUNK:(c + 1) * CHUNK]
            touched[...] = rng.normal(size=touched.size)
        opt.step(grads)
        ref_opt.step({"p": grads})
        live = np.repeat(opt.live, CHUNK)[:size]
        assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64)), step
        for a, b in ((opt.m, ref_opt.m["p"]), (opt.v, ref_opt.v["p"])):
            assert np.array_equal(a.view(np.uint64), b[live].view(np.uint64)), step
    assert opt.live.all()


def test_warmup_scale_ramp():
    # the first tenth of the steps ramps up
    assert warmup_scale(0, 100) == pytest.approx(0.1)
    assert warmup_scale(4, 100) == pytest.approx(0.5)
    assert warmup_scale(9, 100) == pytest.approx(1.0)
    assert warmup_scale(50, 100) == 1.0
    assert warmup_scale(0, 4) == 1.0  # under 10 steps: one warmup step
    scales = [warmup_scale(s, 300) for s in range(300)]
    assert all(b >= a for a, b in zip(scales, scales[1:]))


# --- training loops ---------------------------------------------------------


def _held_out_rows(n, cfg):
    """The rows ``_fit`` holds out for validation under ``cfg.seed``."""
    return _val_split(n, np.random.default_rng([cfg.seed, 104729]))[1]


def test_train_teacher_restores_best_validation_params():
    data = _set(_tiny_dataset(24))
    teacher, report = train_teacher(data, CFG, ENC)
    assert len(report.val_losses) <= CFG.epochs
    assert report.best_epoch == int(np.argmin(report.val_losses))
    # recomputing val MAE on the held-out rows reproduces the best epoch
    tensors = _slice(data, _held_out_rows(len(data.labels), CFG))
    score, _ = teacher.forward(tensors.query_ids, tensors.serp_ids,
                               tensors.serp_present)
    mae = float(np.mean(np.abs(score - tensors.labels)))
    assert mae == pytest.approx(min(report.val_losses), abs=1e-12)


def test_training_is_bit_reproducible():
    data = _tiny_dataset(16)
    t1, r1 = train_teacher(_set(data), CFG, ENC)
    t2, r2 = train_teacher(_set(data), CFG, ENC)
    assert r1.step_losses == r2.step_losses
    for name, value in t1.parameters().items():
        assert np.array_equal(value, t2.parameters()[name]), name


def test_teacher_is_frozen_during_distillation():
    data = _set(_tiny_dataset(16))
    teacher, _ = train_teacher(data, CFG, ENC)
    before = {k: v.copy() for k, v in teacher.parameters().items()}
    distill_student(data, teacher, LossWeights(1.0, 0.5, 0.5), CFG)
    after = teacher.parameters()
    for name, value in before.items():
        assert np.array_equal(value, after[name]), name
    assert data.teacher is None   # the teacher's outputs went on a copy


def test_distillation_and_baseline_reject_a_set_built_for_another_model():
    teacher = TeacherModel(TOK, ENC, PRIV, seed=0)
    other_priv = PrivilegedConfig("GOOGLE", "TITLE", "ALL", "RANKED", 5)
    other_tok = TokenizerConfig(vocab_size=128, max_len_query=8, max_len_serp=12)
    for name, other in (("priv", assemble(_tiny_dataset(16), other_priv, TOK)),
                        ("tok_cfg", _set(_tiny_dataset(16), other_tok))):
        with pytest.raises(TrainingError, match=f"the set was built with {name} "):
            distill_student(other, teacher, LossWeights(1.0, 0.5, 0.5), CFG)
    with pytest.raises(TrainingError, match="the set was built with tok_cfg "):
        train_query_baseline(_set(_tiny_dataset(16), other_tok), CFG,
                             init_from=teacher)


def test_distillation_rejects_a_teacher_that_changed(monkeypatch):
    data = _set(_tiny_dataset(16))
    teacher, _ = train_teacher(data, CFG, ENC)
    forward = teacher.forward

    def mutating_forward(*args, **kwargs):
        teacher.head.params["b"] += 1e-3   # a write through one view
        return forward(*args, **kwargs)

    monkeypatch.setattr(teacher, "forward", mutating_forward)
    with pytest.raises(TrainingError, match="teacher parameters changed"):
        distill_student(data, teacher, LossWeights(1.0, 0.5, 0.5), CFG)


def test_baseline_equals_distiller_with_unit_weights():
    data = _set(_tiny_dataset(16))
    teacher, _ = train_teacher(data, CFG, ENC)
    student, r_student = distill_student(
        data, teacher, LossWeights(1.0, 0.0, 0.0), CFG)
    baseline, r_baseline = train_query_baseline(
        data, CFG, init_from=teacher)
    # identical arithmetic step for step, identical final parameters
    assert r_student.step_losses == r_baseline.step_losses
    for name, value in student.parameters().items():
        assert np.array_equal(value, baseline.parameters()[name]), name


def test_distillation_needs_teacher_for_weighted_terms():
    # a set without the teacher's outputs
    with pytest.raises(TrainingError, match="pm term requires teacher scores"):
        _train_student(_set(_tiny_dataset(8)), LossWeights(1, 1, 0), CFG, ENC,
                       init_from=None)


@pytest.mark.parametrize("bad", [
    {"patience": 0}, {"lr": 0.0}, {"epochs": 0}, {"batch_size": 0},
    {"lr": float("nan")}, {"lr": float("inf")}, {"seed": -1},
])
def test_train_config_rejects_impossible_values(bad):
    with pytest.raises(TrainingError):
        TrainConfig(**bad)
    TrainConfig(patience=1, epochs=1, batch_size=1, seed=0)


def test_dataset_helpers():
    with pytest.raises(TrainingError):
        LupiDataset([])


@pytest.mark.parametrize("tox", [float("nan"), float("inf"), -0.1, 1.7])
def test_example_rejects_bad_toxicity(tox):
    with pytest.raises(SchemaError, match="bad label query"):
        LupiExample(query="bad label query", toxicity=tox)
    for ok in (0.0, 1.0):
        LupiExample(query="q", toxicity=ok)


def _poison(dataset, rows):
    # bypasses the LupiExample check, as a label mutated after construction would
    for i in rows:
        dataset.examples[i].toxicity = float("nan")
    return dataset


def test_training_raises_on_non_finite_step_loss():
    one_batch = TrainConfig(lr=2e-3, epochs=2, batch_size=16, seed=0)
    with pytest.raises(TrainingError, match="training loss .* epoch 0, step 0"):
        train_teacher(_set(_poison(_tiny_dataset(16), range(16))), one_batch,
                      ENC)
    with pytest.raises(TrainingError, match="training loss .* epoch 0, step 0"):
        train_query_baseline(_set(_poison(_tiny_dataset(16), range(16))),
                             one_batch, ENC)


def test_training_raises_on_non_finite_validation_loss():
    # only a held-out row is poisoned, so every training step stays finite
    held_out = _held_out_rows(16, CFG)[:1]
    with pytest.raises(TrainingError, match="validation loss .* epoch 0"):
        train_teacher(_set(_poison(_tiny_dataset(16), held_out)), CFG, ENC)
    with pytest.raises(TrainingError, match="validation loss .* epoch 0"):
        train_query_baseline(_set(_poison(_tiny_dataset(16), held_out)), CFG, ENC)


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    data = _set(_tiny_dataset(8))
    teacher, _ = train_teacher(data, CFG, ENC)
    student, _ = distill_student(data, teacher, LossWeights(1, 0.5, 0.5), CFG)
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
    assert isinstance(load_teacher(t_path), TeacherModel)
    assert isinstance(load_student(s_path), StudentModel)


def _body(model) -> bytes:
    """The checkpoint body of ``model``: its buffer's little-endian float64 bytes."""
    return model.flat.astype("<f8").tobytes()


def test_checkpoint_blob_validation():
    student = StudentModel(TOK, ENC, seed=0)
    header, body = checkpoint_header(student), _body(student)
    bad = dict(header, format_version=99)
    with pytest.raises(SchemaError):
        model_from_checkpoint(bad, body)
    bad = dict(header, kind="committee")
    with pytest.raises(SchemaError):
        model_from_checkpoint(bad, body)
    bad = json.loads(json.dumps(header))
    bad["layout"].pop(0)
    with pytest.raises(SchemaError, match="layout"):
        model_from_checkpoint(bad, body)
    bad = json.loads(json.dumps(header))
    bad["layout"][0][1] = [1, 1]
    with pytest.raises(SchemaError, match="layout"):
        model_from_checkpoint(bad, body)


def test_checkpoint_is_a_header_line_then_the_raw_buffer(tmp_path):
    for model in (TeacherModel(TOK, ENC, PRIV, seed=0), StudentModel(TOK, ENC, seed=0)):
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = checkpoint_header(model)
        assert head.decode("ascii") == json.dumps(header, sort_keys=True)
        assert body == model.flat.astype("<f8").tobytes()


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
    head = path.read_bytes().split(b"\n", 1)[0]
    json.loads(head, parse_constant=no_constants)
    loaded = load_student(path)
    for name, value in student.parameters().items():
        assert np.array_equal(value.view(np.uint64),
                              loaded.parameters()[name].view(np.uint64)), name


def test_checkpoint_rejects_corrupt_data_and_old_format(tmp_path):
    student = StudentModel(TOK, ENC, seed=0)
    header, body = checkpoint_header(student), _body(student)

    for data in (body[:-8], body + body[:8],            # one float short or long
                 body[:-1], body + b"\n", b""):         # not whole floats
        with pytest.raises(SchemaError, match="byte count"):
            model_from_checkpoint(header, data)
    path = tmp_path / "student.json"
    save_checkpoint(student, path)
    good = path.read_bytes()
    for data in (good[:-8], good + good[-8:]):
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "
                                              f"parameter byte count mismatch"):
            load_student(path)

    # version 3: one JSON object, no newline, the buffer base64-encoded
    v3 = dict(header, format_version=3,
              params=base64.b64encode(body).decode("ascii"))
    # version 2: one {"shape", "data"} entry per parameter name
    v2 = dict(header, format_version=2, params={
        name: {"shape": list(p.shape),
               "data": base64.b64encode(p.tobytes()).decode()}
        for name, p in student.named_parameters()})
    del v2["layout"]
    for old in (v3, v2):
        with pytest.raises(SchemaError, match="unsupported checkpoint format.*retrain"):
            model_from_checkpoint(old, body)
        path.write_text(json.dumps(old, sort_keys=True), encoding="utf-8")
        assert b"\n" not in path.read_bytes()
        with pytest.raises(SchemaError,
                           match=f"^{re.escape(str(path))}: unsupported checkpoint "
                                 f"format: {old['format_version']} .*retrain"):
            load_student(path)


def test_checkpoint_rejects_a_reordered_layout():
    student = StudentModel(TOK, ENC, seed=0)
    header = checkpoint_header(student)
    layout = header["layout"]
    names = [name for name, _ in layout]
    i = names.index("query_encoder.blocks.0.attn.wq.w")
    j = names.index("query_encoder.blocks.0.attn.wk.w")
    assert layout[i][1] == layout[j][1]   # equal shapes: same byte count
    layout[i], layout[j] = layout[j], layout[i]
    with pytest.raises(SchemaError, match="layout.*attn.wk.w"):
        model_from_checkpoint(header, _body(student))


def test_loaded_parameters_are_writable_and_own_their_data(tmp_path):
    data = _tiny_dataset(8)
    student, _ = train_query_baseline(_set(data), CFG, ENC)
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
        # equal seeds: both models draw the same dropout masks
        score, hint = model.forward(ids, train=True,
                                    rng=np.random.default_rng(0))
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
    assert len(rank_keywords(student, kws, k=4)) == 8
    for k in (0, -1):
        with pytest.raises(SchemaError, match=f"k must be >= 1, got {k}"):
            rank_keywords(student, kws, k=k)
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


# --- LOCO CV ----------------------------------------------------------------


def test_loco_cv_reports_all_strategies(monkeypatch):
    from scamscout.lupi import train as train_mod
    data = _tiny_dataset(24)
    # no two labels are equal, so a row's label tells its category
    category_of = {ex.toxicity: ex.category for ex in data.examples}
    assert len(category_of) == len(data.examples)
    seen = []
    for name in ("train_teacher", "distill_student", "train_query_baseline"):
        real = getattr(train_mod, name)

        def spy(tensors, *args, _real=real, _name=name, **kwargs):
            seen.append((_name, {category_of[y] for y in tensors.labels}))
            return _real(tensors, *args, **kwargs)

        monkeypatch.setattr(train_mod, name, spy)
    batches = []
    tokenize_batch_ = train_mod.tokenize_batch
    monkeypatch.setattr(train_mod, "tokenize_batch",
                        lambda texts, cfg: batches.append(len(texts))
                        or tokenize_batch_(texts, cfg))
    reports = loco_cv(data, PRIV, CFG, LossWeights(1, 0.5, 0.5),
                      k=3, min_queries=5, tok_cfg=TOK, enc_cfg=ENC)
    assert [r.category for r in reports] == ["a", "b"]
    assert batches == [24]   # the whole dataset is assembled once
    # every fit of a fold trains, and so validates, on the other categories
    assert seen == [(name, {other})
                    for other in ("b", "a")
                    for name in ("train_teacher", "distill_student",
                                 "train_query_baseline")]
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


def _untrimmed(monkeypatch):
    """Make every encoder pass run at the full length (the reference).  Each
    dropout over the columns still draws the mask the trimmed pass draws, at
    the trimmed length, and pads it with True over the cut columns; a (B, D)
    input, such as a last block's CLS rows, draws at its own shape."""
    from scamscout.lupi import encoder
    from scamscout.lupi.layers import Dropout
    trimmed, forward = encoder.trimmed_length, Dropout.forward
    kept = []

    def full_length(ids):
        kept.append(trimmed(ids))
        return ids.shape[1]

    def padded_forward(self, x, train, rng):
        if x.ndim == 2:
            return forward(self, x, train, rng)
        forward(self, x[:, :kept[-1]], train, rng)
        if self._mask is None:
            return x
        self._mask = np.concatenate(
            [self._mask, np.ones_like(x[:, kept[-1]:], dtype=bool)], axis=1)
        return x * (self._mask / (1.0 - self.p))

    monkeypatch.setattr(encoder, "trimmed_length", full_length)
    monkeypatch.setattr(Dropout, "forward", padded_forward)


@pytest.mark.parametrize("train", [False, True])
def test_trimmed_encoder_forward_is_bit_identical_and_keeps_rng_stream(
        monkeypatch, train):
    from scamscout.lupi import Encoder
    from scamscout.lupi.encoder import trimmed_length
    enc_cfg = EncoderConfig(layers=2, dim=16, heads=2, ff_dim=32, dropout=0.2)
    enc = Encoder(TOK_LONG.vocab_size, TOK_LONG.max_len_serp, enc_cfg,
                  np.random.default_rng(0))
    rng = np.random.default_rng(3)

    def run(ids):
        draws = np.random.default_rng(9)
        cls = enc.forward(ids, train, draws)
        # the attention probabilities each block caches for its backward,
        # which only a train-mode pass does
        attn = [b.attn._attn for b in enc.blocks] if train else []
        return cls, attn, draws.bit_generator.state

    # longest rows of 5, 11, 14 and 19 tokens: never a multiple of 8
    for longest in (4, 10, 13, 18):
        texts = [_words(rng, int(n)) for n in rng.integers(1, longest, size=5)]
        texts.append(_words(rng, longest))
        ids = np.stack([tokenize(t, TOK_LONG, TOK_LONG.max_len_serp) for t in texts])
        L = trimmed_length(ids)
        assert L % 8 == 0 and L < ids.shape[1]
        c_trim, a_trim, state_trim = run(ids)
        with monkeypatch.context() as m:
            _untrimmed(m)
            c_full, a_full, state_full = run(ids)
        assert c_trim.shape == (len(texts), enc_cfg.dim)
        assert np.array_equal(c_trim, c_full)
        # the first block attends from the L kept rows, the last from CLS
        assert [a.shape[2] for a in a_trim] == ([L, 1] if train else [])
        for full, trim in zip(a_full, a_trim):
            rows = trim.shape[2]
            assert np.array_equal(trim, full[:, :, :rows, :L])
            assert not full[:, :, :rows, L:].any()
        assert state_trim == state_full


def test_dropout_keeps_a_bool_mask_and_the_float_mask_bits():
    """The kept mask is bool; forward and backward equal, bit for bit, the
    products with the float mask ``(u < keep) / keep`` of the same draw."""
    from scamscout.lupi.layers import Dropout
    rng = np.random.default_rng(3)
    x, d_out = rng.normal(size=(2, 7, 5)), rng.normal(size=(2, 7, 5))
    layer = Dropout(0.3)
    y = layer.forward(x, True, np.random.default_rng(9))
    assert layer._mask.dtype == bool
    keep = 1.0 - 0.3
    float_mask = (np.random.default_rng(9).random(x.shape) < keep) / keep
    assert np.array_equal(y.view(np.uint64), (x * float_mask).view(np.uint64))
    dx = layer.backward(d_out)
    assert np.array_equal(dx.view(np.uint64), (d_out * float_mask).view(np.uint64))


def test_dropout_draws_only_the_masks_it_applies():
    from scamscout.lupi import Encoder
    from scamscout.lupi.encoder import trimmed_length
    from scamscout.lupi.layers import Dropout

    def advanced_by(n):
        ref = np.random.default_rng(11)
        ref.random(n)
        return ref.bit_generator.state

    x = np.ones((3, 5, 4))
    for p, train, n in ((0.3, True, x.size), (0.3, False, 0), (0.0, True, 0)):
        rng = np.random.default_rng(11)
        Dropout(p).forward(x, train, rng)
        assert rng.bit_generator.state == advanced_by(n), (p, train)
    rng = np.random.default_rng(2)
    texts = [_words(rng, int(n)) for n in rng.integers(1, 20, size=5)]
    ids = tokenize_batch(texts, TOK_LONG)
    b, kept = ids.shape[0], trimmed_length(ids)
    assert kept < ids.shape[1]
    for layers in (1, 2, 3):
        enc_cfg = EncoderConfig(layers=layers, dim=16, heads=2, ff_dim=32,
                                dropout=0.2)
        enc = Encoder(TOK_LONG.vocab_size, TOK_LONG.max_len_query, enc_cfg,
                      np.random.default_rng(0))
        rng = np.random.default_rng(11)
        enc.forward(ids, True, rng)
        # the input and each inner block's two dropouts mask the kept
        # columns, the last block's two mask its CLS rows
        n = b * kept * enc_cfg.dim * (2 * layers - 1) + 2 * b * enc_cfg.dim
        assert rng.bit_generator.state == advanced_by(n), layers


def _full_width_cls(enc, ids, train, rng):
    """CLS vectors computed the long way: every block over every position of
    the untrimmed ids, dropout masks drawn in the encoder's order and at its
    shapes, row 0 read at the end."""
    from scamscout.lupi.encoder import trimmed_length
    p, cfg = enc.parameters(), enc.cfg
    b, t = ids.shape
    kept = trimmed_length(ids)
    heads, hd = cfg.heads, cfg.dim // cfg.heads

    def drop(x, cls_row):
        """x times a mask that is ones apart from a draw over the kept
        columns, or over row 0 alone in the last block."""
        if not train or cfg.dropout == 0.0:
            return x
        keep = 1.0 - cfg.dropout
        mask = np.ones_like(x)
        if cls_row:
            mask[:, 0] = (rng.random((b, cfg.dim)) < keep) / keep
        else:
            mask[:, :kept] = (rng.random((b, kept, cfg.dim)) < keep) / keep
        return x * mask

    def norm(x, name):
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5) * p[name + ".g"] + p[name + ".b"]

    def lin(x, name):
        return x @ p[name + ".w"] + p[name + ".b"]

    def split(x):
        return x.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)

    x = drop(p["embed.w"][ids] + enc.positions[:t], False)
    for i in range(cfg.layers):
        pre, last = f"blocks.{i}.", i == cfg.layers - 1
        h = norm(x, pre + "ln1")
        q, k, v = (split(lin(h, pre + "attn." + w)) for w in ("wq", "wk", "wv"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
        scores = np.where((ids != PAD_ID)[:, None, None, :], scores, -np.inf)
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, cfg.dim)
        x = x + drop(lin(ctx, pre + "attn.wo"), last)
        f = lin(np.maximum(lin(norm(x, pre + "ln2"), pre + "ffn.lin1"), 0.0),
                pre + "ffn.lin2")
        x = x + drop(f, last)
    return norm(x, "ln_out")[:, 0]


@pytest.mark.parametrize("train", [False, True])
def test_encoder_cls_output_matches_a_full_width_reference(train):
    from scamscout.lupi import Encoder
    enc_cfg = EncoderConfig(layers=2, dim=16, heads=2, ff_dim=32, dropout=0.2)
    enc = Encoder(TOK_LONG.vocab_size, TOK_LONG.max_len_serp, enc_cfg,
                  np.random.default_rng(1))
    rng = np.random.default_rng(2)
    texts = [_words(rng, int(n)) for n in rng.integers(1, 30, size=7)]
    ids = np.stack([tokenize(t, TOK_LONG, TOK_LONG.max_len_serp) for t in texts])
    draws, ref_draws = np.random.default_rng(9), np.random.default_rng(9)
    cls = enc.forward(ids, train, draws)
    ref = _full_width_cls(enc, ids, train, ref_draws)
    assert cls.shape == (len(texts), enc_cfg.dim)
    assert np.max(np.abs(cls - ref)) <= 1e-12
    assert draws.bit_generator.state == ref_draws.bit_generator.state


def _long_teacher_inputs(seed=0, batch=6, k=3, lengths=(3, 20)):
    rng = np.random.default_rng(seed)
    queries = [_words(rng, int(rng.integers(1, 9))) for _ in range(batch)]
    queries[2] = _words(rng, 12)   # the longest query: 13 of 32 columns
    q = tokenize_batch(queries, TOK_LONG)
    serp_ids = np.stack([
        [tokenize(_words(rng, int(rng.integers(*lengths))), TOK_LONG,
                  TOK_LONG.max_len_serp) for _ in range(k)]
        for _ in range(batch)])
    present = rng.random((batch, k)) < 0.8
    present[0] = True
    present[1] = False   # one query without privileged text
    return q, serp_ids, present


def _student_inputs(seed=0, batch=6):
    rng = np.random.default_rng(seed)
    queries = [_words(rng, int(rng.integers(1, 9))) for _ in range(batch)]
    queries[3] = _words(rng, 18)   # the longest query: 19 of 32 columns
    return tokenize_batch(queries, TOK_LONG)


def _assert_query_trims(q):
    # a longest row off the multiple-of-8 grid and shorter than the full length
    longest = int((q != PAD_ID).sum(axis=1).max())
    assert longest % 8 != 0 and longest < TOK_LONG.max_len_query


@pytest.mark.parametrize("train", [False, True])
def test_teacher_forward_is_unchanged_by_serp_trimming(monkeypatch, train):
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=4)
    q, serp_ids, present = _long_teacher_inputs()
    _assert_query_trims(q)
    rng_trim = np.random.default_rng(5)
    trimmed = teacher.forward(q, serp_ids, present, train, rng_trim)
    _untrimmed(monkeypatch)
    rng_full = np.random.default_rng(5)
    full = teacher.forward(q, serp_ids, present, train, rng_full)
    assert np.array_equal(trimmed[0], full[0])
    assert np.array_equal(trimmed[1], full[1])
    assert rng_trim.bit_generator.state == rng_full.bit_generator.state


@pytest.mark.parametrize("train", [False, True])
def test_student_forward_is_unchanged_by_query_trimming(monkeypatch, train):
    student = StudentModel(TOK_LONG, ENC, seed=4)
    q = _student_inputs()
    _assert_query_trims(q)
    rng_trim = np.random.default_rng(5)
    trimmed = student.forward(q, train, rng_trim)
    _untrimmed(monkeypatch)
    rng_full = np.random.default_rng(5)
    full = student.forward(q, train, rng_full)
    assert np.array_equal(trimmed[0], full[0])
    assert np.array_equal(trimmed[1], full[1])
    assert rng_trim.bit_generator.state == rng_full.bit_generator.state


def _assert_grads_match(trimmed, full, encoders):
    for name, g in full.items():
        if name.startswith(encoders):
            # the weight GEMMs sum over fewer (all-zero) PAD rows: rounding only
            assert np.max(np.abs(trimmed[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
        else:
            assert np.array_equal(trimmed[name], g), name


def test_trimmed_serp_encoder_gradients_match_full_length(monkeypatch):
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=6)
    q, serp_ids, present = _long_teacher_inputs(seed=1)
    _assert_query_trims(q)
    d_score = np.random.default_rng(2).normal(size=q.shape[0])

    def grads():
        teacher.zero_grads()
        teacher.forward(q, serp_ids, present, train=True,
                        rng=np.random.default_rng(8))
        teacher.backward(d_score)
        return {k: v.copy() for k, v in teacher.gradients().items()}

    trimmed = grads()
    _untrimmed(monkeypatch)
    _assert_grads_match(trimmed, grads(), ("serp_encoder.", "query_encoder."))


def test_trimmed_student_gradients_match_full_length(monkeypatch):
    student = StudentModel(TOK_LONG, ENC, seed=6)
    q = _student_inputs(seed=1)
    _assert_query_trims(q)
    rng = np.random.default_rng(2)
    d_score = rng.normal(size=q.shape[0])
    d_hint = rng.normal(size=(q.shape[0], ENC.dim))

    def grads():
        student.zero_grads()
        student.forward(q, train=True, rng=np.random.default_rng(8))
        student.backward(d_score, d_hint)
        return {k: v.copy() for k, v in student.gradients().items()}

    trimmed = grads()
    _untrimmed(monkeypatch)
    _assert_grads_match(trimmed, grads(), ("query_encoder.",))


def test_teacher_outputs_over_the_set_slice_to_the_per_batch_forward():
    from scamscout.lupi.encoder import trimmed_length
    teacher = TeacherModel(TOK_LONG, ENC, PRIV, seed=2)
    q, serp_ids, present = _long_teacher_inputs(seed=3, batch=10, k=4,
                                                lengths=(2, 6))
    # two rows with long snippets, and one with a long query, stretch the
    # set's trimmed lengths
    rng = np.random.default_rng(4)
    for i in (7, 9):
        serp_ids[i, 0] = tokenize(_words(rng, 30), TOK_LONG, TOK_LONG.max_len_serp)
    q[8] = tokenize(_words(rng, 20), TOK_LONG)
    t = LupiTensors(PRIV, TOK_LONG, q, serp_ids, present, np.zeros(len(q)),
                    teacher.forward(q, serp_ids, present))
    short_batch = np.array([0, 3, 4, 5])
    assert trimmed_length(serp_ids[short_batch].reshape(-1, 64)) < \
        trimmed_length(serp_ids.reshape(-1, 64))
    assert trimmed_length(q[short_batch]) < trimmed_length(q)
    for idx in (short_batch, np.array([8, 1, 9, 4]), np.arange(10)):
        batch = _slice(t, idx)
        score, fused = teacher.forward(batch.query_ids, batch.serp_ids,
                                       batch.serp_present)
        assert np.array_equal(batch.teacher[0], score)
        assert np.array_equal(batch.teacher[1], fused)


def test_distillation_runs_the_teacher_once_per_tensor_set(monkeypatch):
    data = _set(_tiny_dataset(24))
    teacher, _ = train_teacher(data, CFG, ENC)
    calls = []
    forward = TeacherModel.forward

    def counted(self, query_ids, *args, **kwargs):
        calls.append(len(query_ids))
        return forward(self, query_ids, *args, **kwargs)

    monkeypatch.setattr(TeacherModel, "forward", counted)
    _, report = distill_student(data, teacher, LossWeights(1, 0.5, 0.5), CFG)
    assert len(report.step_losses) == 2 * 3   # 22 train rows, batches of 8
    assert calls == [24]                      # the whole set, before the split
    calls.clear()
    train_query_baseline(data, CFG, ENC, init_from=teacher)
    assert calls == []


@pytest.mark.parametrize("n", [5, 9, 17])
def test_eval_passes_in_parts_equal_the_whole_pass(monkeypatch, n):
    """An eval-mode pass over more than ``EVAL_ROWS`` sequences runs in
    near-equal parts of at most that many, each trimmed on its own; every
    output equals the whole pass bit for bit."""
    from scamscout.lupi import encoder
    q, serp_ids, present = _long_teacher_inputs(seed=n, batch=n)
    enc = encoder.Encoder(TOK_LONG.vocab_size, TOK_LONG.max_len_query, ENC2,
                          np.random.default_rng(n))
    teacher = TeacherModel(TOK_LONG, ENC2, PRIV, seed=n)
    student = StudentModel(TOK_LONG, ENC2, seed=n)
    passes = {"encoder": lambda: (enc.forward(q),),
              "teacher": lambda: teacher.forward(q, serp_ids, present),
              "student": lambda: student.forward(q)}
    whole = {name: run() for name, run in passes.items()}

    seen = []
    forward = encoder.EncoderBlock.forward

    def counted(self, x, *args):
        seen.append(len(x))
        return forward(self, x, *args)

    monkeypatch.setattr(encoder.EncoderBlock, "forward", counted)
    monkeypatch.setattr(encoder, "EVAL_ROWS", 4)
    for name, run in passes.items():
        seen.clear()
        parts = run()
        assert seen and max(seen) <= 4, (name, seen)
        for got, want in zip(parts, whole[name], strict=True):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def test_rank_scores_equal_the_untrimmed_student_scores(monkeypatch):
    from scamscout.corpus import KeywordSuggestion
    from scamscout.lupi import rank
    monkeypatch.setattr(rank, "EVAL_ROWS", 16)
    student = StudentModel(TOK_LONG, ENC, seed=7)
    rng = np.random.default_rng(1)
    kws = [KeywordSuggestion(text=_words(rng, int(n)), category="c")
           for n in rng.integers(1, 12, size=40)]
    ranked = rank_keywords(student, kws, k=len(kws))
    ids = tokenize_batch([kw.text for kw in kws], TOK_LONG)
    _assert_query_trims(ids)
    _untrimmed(monkeypatch)
    full, _ = student.forward(ids)
    expected = dict(zip((kw.text for kw in kws), np.clip(full, 0.0, 1.0)))
    assert len(ranked) == len(expected)
    assert all(row.score == expected[row.text] for row in ranked)


def test_rank_scores_do_not_depend_on_the_batch_size(monkeypatch):
    # 17 keywords in batches of at most 16: a lone 17th row would go through
    # BLAS's matrix-vector kernel, which rounds differently from a batch
    from scamscout.corpus import KeywordSuggestion
    from scamscout.lupi import rank
    monkeypatch.setattr(rank, "EVAL_ROWS", 16)
    enc_cfg = EncoderConfig(layers=1, dim=32, heads=2, ff_dim=64, dropout=0.1)
    for seed in range(10):
        student = StudentModel(TOK_LONG, enc_cfg, seed=seed)
        # a positive head keeps every score inside the clamp, unrounded by a bias
        w = student.pred_lin2.params["w"]
        w[...] = np.abs(w)
        rng = np.random.default_rng(seed)
        kws = [KeywordSuggestion(text=f"k{i} {_words(rng, int(n))}", category="c")
               for i, n in enumerate(rng.integers(0, 12, size=17))]
        ranked = rank_keywords(student, kws, k=len(kws))
        full, _ = student.forward(tokenize_batch([kw.text for kw in kws], TOK_LONG))
        assert np.all((full > 0) & (full < 1))
        expected = dict(zip((kw.text for kw in kws), full))
        assert len(ranked) == len(expected) == 17
        assert all(row.score == expected[row.text] for row in ranked), seed


def test_step_terms_add_up_to_the_step_losses():
    data = _set(_tiny_dataset(24))
    teacher, t_report = train_teacher(data, CFG, ENC)
    assert t_report.step_terms == [{"gt": x} for x in t_report.step_losses]
    w = LossWeights(0.5, 1.0, 0.25)
    _, report = distill_student(data, teacher, w, CFG)
    assert len(report.step_terms) == len(report.step_losses) > 0
    for terms, loss in zip(report.step_terms, report.step_losses):
        assert set(terms) == {"gt", "pm", "hm"}
        assert all(terms[name] > 0 for name in terms)
        assert (w.gt * terms["gt"] + w.pm * terms["pm"]
                + w.hm * terms["hm"]) == loss
