"""Hash-bucket word tokenizer.

Words map to ids by hashing into a fixed number of buckets, so any text
tokenizes without an out-of-vocabulary path.  Ids 0 (PAD) and 1 (CLS) are
reserved; every sequence starts with CLS and is padded/truncated to a fixed
length.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SchemaError
from ..records import check_field_types

PAD_ID = 0
CLS_ID = 1
_RESERVED = 2


@dataclass(frozen=True)
class TokenizerConfig:
    vocab_size: int = 8192
    max_len_query: int = 32
    max_len_serp: int = 64

    def __post_init__(self):
        check_field_types(self)
        if self.vocab_size < 16:
            raise SchemaError("vocab_size must be >= 16")
        if self.max_len_query < 2 or self.max_len_serp < 2:
            raise SchemaError("max_len must leave room for CLS plus one token")


def word_id(word: str, cfg: TokenizerConfig) -> int:
    digest = hashlib.md5(word.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "big") % (cfg.vocab_size - _RESERVED)
    return bucket + _RESERVED


def tokenize(text: str, cfg: TokenizerConfig, max_len: int | None = None) -> np.ndarray:
    """CLS-prefixed, hash-bucketed, padded/truncated id sequence."""
    if max_len is None:
        max_len = cfg.max_len_query
    ids = [CLS_ID]
    for word in text.lower().split():
        if len(ids) == max_len:
            break
        ids.append(word_id(word, cfg))
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return np.array(ids, dtype=np.int64)


def tokenize_batch(texts: Sequence[str], cfg: TokenizerConfig) -> np.ndarray:
    """The query-length ``tokenize`` of each text, one row per text."""
    return np.stack([tokenize(t, cfg) for t in texts])

