"""Tiny pre-norm transformer encoder built from the manual-backprop layers.

``Encoder.forward`` returns only the CLS vector of each sequence, the one
row every model reads.  Two cuts follow from that:

- Every pass first cuts the batch to ``trimmed_length(ids)`` columns: the
  longest non-PAD prefix, rounded up to a multiple of 8, capped at the full
  length.  PAD keys are masked, so the cut columns feed no kept position,
  and every kept output equals its full-length value bit for bit.  That
  needs the multiple of 8: numpy sums the softmax denominator with 8
  pairwise accumulators, and at a multiple of 8 the cut terms (exact
  zeros) leave every accumulator unchanged, while at other lengths the
  last terms are added in a different order.
- The last block runs ``ln1`` and the key/value projections over every
  kept column, but its query projection, attention row, output
  projection, ``ln2``, feed-forward and the final ``ln_out`` over row 0
  alone, as (B, D) GEMMs whose rows equal the full-width product's.

An eval-mode pass over more than ``EVAL_ROWS`` sequences runs in
near-equal parts of at most that many and concatenates their CLS rows, so
the layer activations of a whole-set pass (the frozen teacher, validation,
ranking) stay bounded however many rows it scores.  No part is a lone row,
which BLAS would send to its matrix-vector kernel and round differently,
and PAD trimming is per part; so every row equals its whole-set value bit
for bit.

In train mode each dropout mask is drawn at the shape it masks: (B, L, D)
for the input and the inner blocks, where L is the trimmed length, and
(B, D) for the last block.  Backward sums each weight gradient over fewer
rows (the cut rows carried zero gradient), which moves it at the rounding
level, about 1e-15 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError
from ..records import check_field_types
from .layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Module,
    MultiHeadAttention,
)
from .tokenizer import PAD_ID

# most sequences one eval-mode encoder pass runs at once
EVAL_ROWS = 256


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    dim: int = 64
    heads: int = 4
    ff_dim: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if self.dim < 1 or self.heads < 1:
            raise SchemaError(f"dim and heads must be >= 1, got {self.dim!r} "
                              f"and {self.heads!r}")
        if self.dim % self.heads != 0:
            raise SchemaError("dim must be divisible by heads")
        if self.layers < 1:
            raise SchemaError("need at least one layer")
        if self.ff_dim < 1:
            raise SchemaError("ff_dim must be >= 1")
        # dropout 1 would divide every kept activation by zero
        if not 0.0 <= self.dropout < 1.0:
            raise SchemaError(f"dropout must be in [0, 1), got {self.dropout!r}")


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.empty((max_len, dim))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


def trimmed_length(ids: np.ndarray) -> int:
    """Columns of ``ids`` (B, T) that ``Encoder.forward`` keeps: the longest
    non-PAD prefix, rounded up to a multiple of 8, capped at T."""
    used = np.flatnonzero((ids != PAD_ID).any(axis=0))
    longest = int(used[-1]) + 1 if used.size else 1
    return min(ids.shape[1], -(-longest // 8) * 8)


class EncoderBlock(Module):
    """One pre-norm block.  ``rows`` is the attention's query selection: the
    last block of an encoder takes ``0`` and returns the (B, D) CLS rows;
    ``ln1`` and the key/value projections still see every position."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None,
                 rows: int | slice = slice(None)):
        super().__init__()
        self.rows = rows
        self.ln1 = LayerNorm(cfg.dim)
        self.attn = MultiHeadAttention(cfg.dim, cfg.heads, rng)
        self.drop1 = Dropout(cfg.dropout)
        self.ln2 = LayerNorm(cfg.dim)
        self.ffn = FeedForward(cfg.dim, cfg.ff_dim, rng)
        self.drop2 = Dropout(cfg.dropout)

    def forward(self, x, key_mask, train, rng):
        a = self.attn.forward(self.ln1.forward(x, train), key_mask, train,
                              self.rows)
        x = x[:, self.rows] + self.drop1.forward(a, train, rng)
        f = self.ffn.forward(self.ln2.forward(x, train), train)
        return x + self.drop2.forward(f, train, rng)

    def backward(self, d_out):
        d_f = self.drop2.backward(d_out)
        d_x = d_out + self.ln2.backward(self.ffn.backward(d_f))
        d_a = self.drop1.backward(d_x)
        d_in = self.ln1.backward(self.attn.backward(d_a))
        d_in[:, self.rows] += d_x
        return d_in


class Encoder(Module):
    def __init__(self, vocab_size: int, max_len: int, cfg: EncoderConfig,
                 rng: np.random.Generator | None):
        super().__init__()
        self.cfg = cfg
        self.embed = Embedding(vocab_size, cfg.dim, rng)
        self.positions = sinusoidal_positions(max_len, cfg.dim)
        self.drop_in = Dropout(cfg.dropout)
        last = cfg.layers - 1
        self.blocks = [EncoderBlock(cfg, rng, 0 if i == last else slice(None))
                       for i in range(cfg.layers)]
        self.ln_out = LayerNorm(cfg.dim)

    def forward(self, ids: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """ids (B, T) -> CLS vectors (B, D)."""
        if not train and len(ids) > EVAL_ROWS:
            parts = np.array_split(ids, -(-len(ids) // EVAL_ROWS))
            return np.concatenate([self.forward(part) for part in parts])
        ids = ids[:, :trimmed_length(ids)]
        key_mask = ids != PAD_ID
        x = self.embed.forward(ids, train) + self.positions[: ids.shape[1]]
        x = self.drop_in.forward(x, train, rng)
        for block in self.blocks:
            x = block.forward(x, key_mask, train, rng)
        return self.ln_out.forward(x, train)

    def backward(self, d_cls: np.ndarray) -> None:
        """d_cls (B, D): the gradient of the CLS vectors forward returned."""
        d_x = self.ln_out.backward(d_cls)
        for block in reversed(self.blocks):
            d_x = block.backward(d_x)
        d_x = self.drop_in.backward(d_x)
        self.embed.backward(d_x)
