"""Teacher and student toxicity regressors.

The teacher sees the query plus privileged SERP text: both are encoded, the
query's CLS embedding is concatenated with the mean-pooled CLS embeddings of
the SERP entries, and a fusion layer (linear + ReLU + dropout) feeds a
scalar regression head.  The student sees only the query; its prediction
head regresses the score and its distillation head projects the query CLS
embedding into a "hint" that is trained to mimic the teacher's fused
representation.  The two query encoders are architecturally identical so
the student can be initialized from the teacher backbone.

Each encoder returns only its CLS vectors and runs PAD-trimmed (see
``encoder.py``), in training and in eval; the outputs are bit-identical to
the full-length ones.  Both models take full-length ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..corpus import ENGINES
from ..errors import SchemaError, TrainingError
from .encoder import Encoder, EncoderConfig
from .layers import Dropout, Linear, Module, relu
from .tokenizer import TokenizerConfig

ENGINE_AXIS = (*ENGINES, "ALL")
FIELD_AXIS = ("TITLE", "DESCRIPTION", "BOTH")
FILTER_AXIS = ("ALL", "SCAM_ONLY")
SELECTION_AXIS = ("RANKED", "RANDOM")


@dataclass(frozen=True)
class PrivilegedConfig:
    engine: str = "GOOGLE"
    field: str = "DESCRIPTION"
    filter: str = "SCAM_ONLY"
    selection: str = "RANKED"
    size: int = 20

    def __post_init__(self):
        if self.engine not in ENGINE_AXIS:
            raise SchemaError(f"engine must be one of {ENGINE_AXIS}")
        if self.field not in FIELD_AXIS:
            raise SchemaError(f"field must be one of {FIELD_AXIS}")
        if self.filter not in FILTER_AXIS:
            raise SchemaError(f"filter must be one of {FILTER_AXIS}")
        if self.selection not in SELECTION_AXIS:
            raise SchemaError(f"selection must be one of {SELECTION_AXIS}")
        if not 5 <= self.size <= 50:
            raise SchemaError("size must be in [5, 50]")

    def spec_string(self) -> str:
        return ":".join([
            self.engine.lower(), self.field.lower(), self.filter.lower(),
            self.selection.lower(), str(self.size),
        ])

    @classmethod
    def from_spec(cls, spec: str) -> "PrivilegedConfig":
        parts = spec.split(":")
        try:
            size = int(parts[-1])
        except ValueError:
            size = None
        if len(parts) != 5 or size is None:
            raise SchemaError(
                f"privileged spec must be engine:field:filter:selection:size "
                f"with an integer size, got {spec!r}"
            )
        return cls(parts[0].upper(), parts[1].upper(), parts[2].upper(),
                   parts[3].upper(), size)


class TeacherModel(Module):
    def __init__(self, tok_cfg: TokenizerConfig, enc_cfg: EncoderConfig,
                 priv: PrivilegedConfig, seed: int = 0, init: bool = True):
        """``init=False`` leaves every parameter zero and draws nothing, for a
        checkpoint load that overwrites them all."""
        super().__init__()
        self.tok_cfg = tok_cfg
        self.enc_cfg = enc_cfg
        self.priv = priv
        self.seed = seed
        rng = np.random.default_rng(seed) if init else None
        # query and SERP encoders are initialized independently
        self.query_encoder = Encoder(tok_cfg.vocab_size, tok_cfg.max_len_query,
                                     enc_cfg, rng)
        self.serp_encoder = Encoder(tok_cfg.vocab_size, tok_cfg.max_len_serp,
                                    enc_cfg, rng)
        self.fusion = Linear(2 * enc_cfg.dim, enc_cfg.dim, rng)
        self.fusion_drop = Dropout(enc_cfg.dropout)
        self.head = Linear(enc_cfg.dim, 1, rng)
        self._flatten()

    def forward(self, query_ids: np.ndarray, serp_ids: np.ndarray,
                serp_present: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None):
        """query_ids (B,Tq); serp_ids (B,K,Ts); serp_present (B,K) bool.

        Returns (score (B,), fused (B,D)).  K >= 1 (stages pass
        ``priv.size``, at least 5); a triple with no present slot gets a zero
        pooled vector.  Only a train-mode pass can be backpropagated.
        """
        b, k, ts = serp_ids.shape
        q_cls = self.query_encoder.forward(query_ids, train, rng)
        s_cls = self.serp_encoder.forward(
            serp_ids.reshape(b * k, ts), train, rng).reshape(b, k, -1)
        present = serp_present.astype(np.float64)
        safe = np.maximum(present.sum(axis=1), 1.0)
        pooled = (s_cls * present[:, :, None]).sum(axis=1) / safe[:, None]
        concat = np.concatenate([q_cls, pooled], axis=1)
        pre = self.fusion.forward(concat, train)
        fused = self.fusion_drop.forward(relu(pre), train, rng)
        score = self.head.forward(fused, train)[:, 0]
        self._keep(train, _present=present, _safe=safe, _pre=pre)
        return score, fused

    def backward(self, d_score: np.ndarray):
        present, safe, pre = self._take("_present", "_safe", "_pre")
        d_dropped = self.head.backward(d_score[:, None])
        d_pre = self.fusion_drop.backward(d_dropped) * (pre > 0)
        d_concat = self.fusion.backward(d_pre)
        dim = self.enc_cfg.dim
        self.query_encoder.backward(d_concat[:, :dim])
        d_pooled = d_concat[:, dim:]
        d_s_cls = (d_pooled[:, None, :] / safe[:, None, None]) * present[:, :, None]
        self.serp_encoder.backward(d_s_cls.reshape(-1, dim))


class StudentModel(Module):
    def __init__(self, tok_cfg: TokenizerConfig, enc_cfg: EncoderConfig,
                 seed: int = 0, init: bool = True):
        """``init`` as for ``TeacherModel``."""
        super().__init__()
        self.tok_cfg = tok_cfg
        self.enc_cfg = enc_cfg
        self.seed = seed
        rng = np.random.default_rng(seed) if init else None
        self.query_encoder = Encoder(tok_cfg.vocab_size, tok_cfg.max_len_query,
                                     enc_cfg, rng)
        self.pred_drop = Dropout(enc_cfg.dropout)
        self.pred_lin1 = Linear(enc_cfg.dim, enc_cfg.dim, rng)
        self.pred_lin2 = Linear(enc_cfg.dim, 1, rng)
        self.distill_head = Linear(enc_cfg.dim, enc_cfg.dim, rng)
        self._flatten()

    def init_from_teacher(self, teacher: TeacherModel) -> None:
        """Copy the teacher's query-encoder weights into the student backbone."""
        ours = self.query_encoder.parameters()
        copied = 0
        for name, src in teacher.query_encoder.named_parameters():
            if name not in ours or ours[name].shape != src.shape:
                raise TrainingError(f"backbone mismatch at {name}")
            ours[name][...] = src
            copied += 1
        if copied == 0:
            raise TrainingError("teacher has no backbone parameters")

    def forward(self, query_ids: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None):
        """Returns (score (B,), hint (B,D)); only a train-mode pass can be
        backpropagated."""
        cls = self.query_encoder.forward(query_ids, train, rng)
        dropped = self.pred_drop.forward(cls, train, rng)
        h1 = self.pred_lin1.forward(dropped, train)
        score = self.pred_lin2.forward(relu(h1), train)[:, 0]
        hint = self.distill_head.forward(cls, train)
        self._keep(train, _h1=h1)
        return score, hint

    def backward(self, d_score: np.ndarray, d_hint: np.ndarray):
        h1 = self._take("_h1")
        d_relu = self.pred_lin2.backward(d_score[:, None])
        d_dropped = self.pred_lin1.backward(d_relu * (h1 > 0))
        d_cls = self.pred_drop.backward(d_dropped)
        d_cls = d_cls + self.distill_head.backward(d_hint)
        self.query_encoder.backward(d_cls)
