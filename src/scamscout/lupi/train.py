"""Training loops for the teacher, the distilled student, and the baseline.

Everything is seeded and single-threaded: batch order, dropout masks and
parameter init all come from generators derived from the config seed, so a
rerun reproduces parameters bit-exactly.  One fit loop (``_fit``: a seeded
hold-out of ``VAL_FRACTION`` of the training data, batches, AdamW with
warmup, per-epoch validation on the hold-out, patience-based early stopping
and a restore of the best epoch) serves the teacher, the distiller and the
query-only baseline; each passes only its model, its per-batch step and its
validation loss.  The baseline is the distiller with weights (1,0,0) and
no teacher, so both perform the identical arithmetic, a tested contract.
AdamW, the best-epoch copy and the teacher check use the ``flat`` buffer.

A run tokenizes its data once (``assemble``), and each trainer takes that
set or a ``_slice`` of its rows.

The distiller runs the frozen teacher once per fit, over the whole
assembled set before ``_fit`` splits it, and each batch and the validation
set take their rows of that output.  Rows are independent and every
encoder's PAD trimming is exact (see ``encoder.py``), so these equal a
per-batch teacher forward of two or more rows bit for bit.  Those outputs
go on a copy of the set: the caller's set is never written.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..corpus import SerpResultSet
from ..errors import SchemaError, TrainingError
from ..heuristics import derive_seed
from .encoder import EncoderConfig
from .layers import Module
from .losses import LossWeights, total_loss
from .models import PrivilegedConfig, StudentModel, TeacherModel
from .optim import AdamW, warmup_scale
from .tokenizer import TokenizerConfig, tokenize, tokenize_batch


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-5
    epochs: int = 5
    batch_size: int = 32
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainingError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.patience < 1:
            raise TrainingError("patience must be >= 1")
        # numpy's generators reject a negative seed only once training starts
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed!r}")


@dataclass
class LupiExample:
    query: str
    toxicity: float
    category: str = ""
    expansion: int = 0
    serps: list[SerpResultSet] = field(default_factory=list)

    def __post_init__(self):
        for name in ("query", "category"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise SchemaError(f"example {name} must be a string, got {value!r}")
        # bool is a Real and an Integral, but True is neither a score nor a count
        if (not isinstance(self.toxicity, numbers.Real)
                or isinstance(self.toxicity, bool)
                or not (np.isfinite(self.toxicity) and 0.0 <= self.toxicity <= 1.0)):
            raise SchemaError(f"query {self.query!r}: toxicity must be a "
                              f"finite value in [0, 1], got {self.toxicity!r}")
        if (not isinstance(self.expansion, numbers.Integral)
                or isinstance(self.expansion, bool) or self.expansion < 0):
            raise SchemaError(f"query {self.query!r}: expansion must be an "
                              f"integer >= 0, got {self.expansion!r}")


@dataclass
class LupiDataset:
    examples: list[LupiExample]
    scam_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.examples:
            raise TrainingError("dataset must contain at least one example")


# --- privileged-information assembly -----------------------------------------


def privileged_texts(
    example: LupiExample,
    priv: PrivilegedConfig,
    scam_labels: Mapping[str, str],
    seed: int = 0,
) -> list[str]:
    """The SERP-side texts the teacher is allowed to see for one query."""
    entries = []
    for rs in example.serps:
        entries.extend(rs.entries)
    if priv.engine != "ALL":
        entries = [e for e in entries if e.engine == priv.engine]
    if priv.filter == "SCAM_ONLY":
        entries = [e for e in entries if scam_labels.get(e.root_domain) == "SCAM"]
    entries.sort(key=lambda e: (e.engine, e.rank, e.root_domain))
    if priv.selection == "RANDOM" and len(entries) > priv.size:
        rng = np.random.default_rng(derive_seed(seed, "priv", example.query))
        picks = rng.choice(len(entries), size=priv.size, replace=False)
        entries = [entries[i] for i in sorted(picks)]
    else:
        entries = entries[: priv.size]
    if priv.field == "TITLE":
        return [e.title for e in entries]
    if priv.field == "DESCRIPTION":
        return [e.description for e in entries]
    return [f"{e.title} {e.description}".strip() for e in entries]


@dataclass(frozen=True)
class LupiTensors:
    """A dataset's model inputs, and the configs they were built with."""

    priv: PrivilegedConfig
    tok_cfg: TokenizerConfig
    query_ids: np.ndarray        # (N, Tq)
    serp_ids: np.ndarray         # (N, K, Ts)
    serp_present: np.ndarray     # (N, K) bool
    labels: np.ndarray           # (N,)
    # the frozen teacher's (score (N,), fused (N, D)) when distilling, else None
    teacher: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def empty_priv(self) -> int:
        return int(np.count_nonzero(~self.serp_present.any(axis=1)))


def assemble(
    dataset: LupiDataset,
    priv: PrivilegedConfig,
    tok_cfg: TokenizerConfig,
    seed: int = 0,
) -> LupiTensors:
    """Tokenize every query and its ``privileged_texts`` (drawn with ``seed``)."""
    n = len(dataset.examples)
    query_ids = tokenize_batch([ex.query for ex in dataset.examples], tok_cfg)
    labels = np.array([ex.toxicity for ex in dataset.examples], dtype=np.float64)
    k, ts = priv.size, tok_cfg.max_len_serp
    serp_ids = np.zeros((n, k, ts), dtype=np.int64)
    present = np.zeros((n, k), dtype=bool)
    for i, ex in enumerate(dataset.examples):
        for j, text in enumerate(
                privileged_texts(ex, priv, dataset.scam_labels, seed)[:k]):
            serp_ids[i, j] = tokenize(text, tok_cfg, ts)
            present[i, j] = True
    return LupiTensors(priv, tok_cfg, query_ids, serp_ids, present, labels)


VAL_FRACTION = 0.1


def _val_split(n: int, rng: np.random.Generator):
    n_val = max(1, int(round(n * VAL_FRACTION))) if n > 1 else 0
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _slice(t: LupiTensors, idx: np.ndarray) -> LupiTensors:
    teacher = None
    if t.teacher is not None:
        score, fused = t.teacher
        teacher = (score[idx], fused[idx])
    return LupiTensors(t.priv, t.tok_cfg, t.query_ids[idx], t.serp_ids[idx],
                       t.serp_present[idx], t.labels[idx], teacher)


def _check_finite(loss: float, what: str, epoch: int, step: int) -> None:
    """Stop before a non-finite loss turns the model (and its checkpoint) NaN."""
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite {what} loss {loss!r} at epoch {epoch}, step {step}")


@dataclass
class TrainReport:
    train_losses: list[float]      # mean loss per epoch
    val_losses: list[float]        # one per epoch
    best_epoch: int
    step_losses: list[float]       # one per optimizer step
    # per optimizer step, the loss terms: gt/pm/hm for the student and
    # the baseline (their weighted sum is the step loss), gt for the teacher
    step_terms: list[dict[str, float]] = field(default_factory=list)


# --- the fit loop -------------------------------------------------------------


def _fit(
    model: Module,
    tensors: LupiTensors,
    cfg: TrainConfig,
    step: Callable[[LupiTensors, np.random.Generator],
                   tuple[float, dict[str, float]]],
    val_loss: Callable[[LupiTensors], float],
) -> TrainReport:
    """Train ``model`` in place and restore its best-validation parameters.

    ``step`` runs forward, loss and backward on one batch (gradients already
    zeroed) and returns the loss and its terms; ``val_loss`` scores the
    validation tensors, ``VAL_FRACTION`` of ``tensors`` held out.  Batches,
    dropout and the validation split are drawn from seed-derived generators,
    so every caller gets the same sequence for the same config.
    """
    split_rng = np.random.default_rng([cfg.seed, 104729])
    train_idx, val_idx = _val_split(tensors.labels.shape[0], split_rng)
    if val_idx.size == 0:
        raise TrainingError("training set too small to hold out validation")
    train_t, val_t = _slice(tensors, train_idx), _slice(tensors, val_idx)

    opt = AdamW(model.flat, cfg.lr)
    loop_rng = np.random.default_rng([cfg.seed, 7919])
    n = train_t.labels.shape[0]
    total_steps = int(np.ceil(n / cfg.batch_size)) * cfg.epochs

    best = (np.inf, -1, None)
    report = TrainReport([], [], -1, [])
    n_step = 0
    bad_epochs = 0
    for epoch in range(cfg.epochs):
        perm = loop_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            model.zero_grads()
            loss, terms = step(_slice(train_t, perm[start:start + cfg.batch_size]),
                               loop_rng)
            _check_finite(loss, "training", epoch, n_step)
            opt.step(model.flat_grad, warmup_scale(n_step, total_steps))
            n_step += 1
            epoch_losses.append(loss)
            report.step_losses.append(loss)
            report.step_terms.append(terms)
        report.train_losses.append(float(np.mean(epoch_losses)))
        vl = val_loss(val_t)
        _check_finite(vl, "validation", epoch, n_step)
        report.val_losses.append(vl)
        if vl < best[0]:
            best = (vl, epoch, model.flat.copy())
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.flat[...] = best[2]   # set at the first epoch: its loss is finite
    report.best_epoch = best[1]
    return report


# --- teacher ------------------------------------------------------------------


def train_teacher(
    tensors: LupiTensors,
    cfg: Optional[TrainConfig] = None,
    enc_cfg: Optional[EncoderConfig] = None,
) -> tuple[TeacherModel, TrainReport]:
    """MAE regression of toxicity from query + privileged SERP text.

    Validation holds out ``VAL_FRACTION`` of ``tensors`` (see ``_fit``).
    """
    cfg = cfg or TrainConfig()
    enc_cfg = enc_cfg or EncoderConfig()
    model = TeacherModel(tensors.tok_cfg, enc_cfg, tensors.priv, seed=cfg.seed)

    def step(batch: LupiTensors, rng: np.random.Generator):
        score, _ = model.forward(batch.query_ids, batch.serp_ids,
                                 batch.serp_present, train=True, rng=rng)
        diff = score - batch.labels
        model.backward(np.sign(diff) / diff.shape[0])
        mae = float(np.mean(np.abs(diff)))
        return mae, {"gt": mae}

    def val_loss(t: LupiTensors) -> float:
        score, _ = model.forward(t.query_ids, t.serp_ids, t.serp_present)
        return float(np.mean(np.abs(score - t.labels)))

    report = _fit(model, tensors, cfg, step, val_loss)
    return model, report


# --- student / baseline ---------------------------------------------------


def _check_built_for(tensors: LupiTensors, model: Module,
                     names: Sequence[str]) -> None:
    for name in names:
        built, wanted = getattr(tensors, name), getattr(model, name)
        if built != wanted:
            raise TrainingError(f"the set was built with {name} {built!r}, "
                                f"the model with {wanted!r}")


def _train_student(
    tensors: LupiTensors,
    weights: LossWeights,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    init_from: Optional[TeacherModel],
) -> tuple[StudentModel, TrainReport]:
    """Fit a student on the queries, labels and any teacher outputs of ``tensors``."""
    student = StudentModel(tensors.tok_cfg, enc_cfg, seed=cfg.seed)
    if init_from is not None:
        student.init_from_teacher(init_from)

    def loss(t: LupiTensors, train: bool, rng=None):
        t_score, t_fused = t.teacher or (None, None)
        s_score, s_hint = student.forward(t.query_ids, train=train, rng=rng)
        return total_loss(t.labels, s_score, s_hint, t_score, t_fused, weights)

    def step(batch: LupiTensors, rng: np.random.Generator):
        value, terms, (d_score, d_hint) = loss(batch, True, rng)
        student.backward(d_score, d_hint)
        return value, terms

    report = _fit(student, tensors, cfg, step, lambda t: loss(t, False)[0])
    return student, report


def distill_student(
    tensors: LupiTensors,
    teacher: TeacherModel,
    weights: Optional[LossWeights] = None,
    cfg: Optional[TrainConfig] = None,
) -> tuple[StudentModel, TrainReport]:
    """Train a query-only student against the frozen teacher."""
    weights = weights or LossWeights()
    cfg = cfg or TrainConfig()
    _check_built_for(tensors, teacher, ("priv", "tok_cfg"))
    frozen_before = teacher.flat.copy()
    tensors = replace(tensors, teacher=teacher.forward(
        tensors.query_ids, tensors.serp_ids, tensors.serp_present))
    result = _train_student(tensors, weights, cfg, teacher.enc_cfg, teacher)
    if not np.array_equal(teacher.flat, frozen_before):
        raise TrainingError("teacher parameters changed during distillation")
    return result


def train_query_baseline(
    tensors: LupiTensors,
    cfg: Optional[TrainConfig] = None,
    enc_cfg: Optional[EncoderConfig] = None,
    init_from: Optional[TeacherModel] = None,
) -> tuple[StudentModel, TrainReport]:
    """Same architecture, labels only: weights (1,0,0), no teacher."""
    cfg = cfg or TrainConfig()
    if init_from is not None:
        _check_built_for(tensors, init_from, ("tok_cfg",))
        enc_cfg = enc_cfg or init_from.enc_cfg
    return _train_student(tensors, LossWeights(1.0, 0.0, 0.0), cfg,
                          enc_cfg or EncoderConfig(), init_from)


# --- leave-one-category-out CV -------------------------------------------------


@dataclass
class FoldReport:
    category: str
    n_test: int
    toxicity: dict[str, float]     # strategy -> mean top-k true toxicity
    expansion: dict[str, float]    # strategy -> mean top-k true expansion


def _top_k_truth(examples: Sequence[LupiExample], scores: np.ndarray,
                 k: int) -> tuple[float, float]:
    order = sorted(range(len(examples)),
                   key=lambda i: (-scores[i], examples[i].query))
    top = order[:k]
    tox = float(np.mean([examples[i].toxicity for i in top]))
    exp = float(np.mean([examples[i].expansion for i in top]))
    return tox, exp


def loco_cv(
    dataset: LupiDataset,
    priv: Optional[PrivilegedConfig] = None,
    cfg: Optional[TrainConfig] = None,
    weights: Optional[LossWeights] = None,
    k: int = 20,
    min_queries: int = 25,
    tok_cfg: Optional[TokenizerConfig] = None,
    enc_cfg: Optional[EncoderConfig] = None,
) -> list[FoldReport]:
    """Hold out one category per fold; report mean top-k true toxicity.

    Each fit validates on ``VAL_FRACTION`` of the fold's training data.  The
    published protocol validates on 10% of the held-out fold instead, which
    leaks test-category data into model selection; it is not reproduced.
    """
    priv = priv or PrivilegedConfig()
    cfg = cfg or TrainConfig()
    weights = weights or LossWeights()
    tok_cfg = tok_cfg or TokenizerConfig()
    enc_cfg = enc_cfg or EncoderConfig()

    by_cat: dict[str, list[int]] = {}
    for i, ex in enumerate(dataset.examples):
        by_cat.setdefault(ex.category, []).append(i)
    categories = sorted(by_cat)
    if len(categories) < 2:
        raise TrainingError("leave-one-category-out needs at least 2 categories")

    full = assemble(dataset, priv, tok_cfg, cfg.seed)
    reports = []
    for cat in categories:
        test_idx = by_cat[cat]
        if len(test_idx) < min_queries:
            warnings.warn(
                f"category {cat!r} has only {len(test_idx)} queries; fold skipped")
            continue
        train_t = _slice(full, np.array(
            [i for c in categories if c != cat for i in by_cat[c]]))
        test_t = _slice(full, np.array(test_idx))
        test_examples = [dataset.examples[i] for i in test_idx]

        teacher, _ = train_teacher(train_t, cfg, enc_cfg)
        student, _ = distill_student(train_t, teacher, weights, cfg)
        baseline, _ = train_query_baseline(train_t, cfg, enc_cfg)

        t_score, _ = teacher.forward(test_t.query_ids, test_t.serp_ids,
                                     test_t.serp_present)
        s_score, _ = student.forward(test_t.query_ids)
        b_score, _ = baseline.forward(test_t.query_ids)
        true_exp = np.array([float(ex.expansion) for ex in test_examples])

        tox_scores = {}
        exp_scores = {}
        tox_scores["max"], _ = _top_k_truth(test_examples, test_t.labels, k)
        _, exp_scores["max"] = _top_k_truth(test_examples, true_exp, k)
        for name, pred in (("teacher", t_score), ("student", s_score),
                           ("baseline", b_score)):
            clamped = np.clip(pred, 0.0, 1.0)
            tox, exp = _top_k_truth(test_examples, clamped, k)
            tox_scores[name] = tox
            exp_scores[name] = exp
        reports.append(FoldReport(
            category=cat,
            n_test=len(test_idx),
            toxicity=tox_scores,
            expansion=exp_scores,
        ))
    if not reports:
        raise TrainingError("all folds were skipped; nothing to report")
    return reports
