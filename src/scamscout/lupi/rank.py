"""Rank candidate keywords by predicted toxicity with a trained student."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import KeywordSuggestion
from ..errors import SchemaError, TrainingError
from ..records import check_header, read_csv, write_csv
from .encoder import EVAL_ROWS
from .models import StudentModel
from .tokenizer import tokenize_batch


@dataclass(frozen=True)
class RankedKeyword:
    text: str
    category: str
    score: float       # clamped to [0, 1]
    rank: int          # 1-based within its category


def rank_keywords(
    student: StudentModel,
    keywords: Sequence[KeywordSuggestion],
    k: int = 20,
) -> list[RankedKeyword]:
    """Score every keyword, keep the top-k per category.

    Scores are clamped to [0, 1]; ties break lexicographically on the
    keyword text so output order is deterministic.  ``k`` is at least 1.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    if not keywords:
        raise TrainingError("no keywords to rank")
    texts = [kw.text for kw in keywords]
    scores = np.empty(len(texts), dtype=np.float64)
    # tokenized and scored in near-equal batches of at most EVAL_ROWS, which
    # bounds the ids and the head outputs as the encoder bounds its layers;
    # no batch is a lone row (BLAS rounds a one-row product differently)
    # unless there is one keyword, so scores do not depend on the batch size
    for idx in np.array_split(np.arange(len(texts)), -(-len(texts) // EVAL_ROWS)):
        ids = tokenize_batch([texts[i] for i in idx], student.tok_cfg)
        scores[idx] = student.forward(ids)[0]
    scores = np.clip(scores, 0.0, 1.0)

    by_cat: dict[str, list[int]] = {}
    for i, kw in enumerate(keywords):
        by_cat.setdefault(kw.category, []).append(i)
    ranked = []
    for cat in sorted(by_cat):
        order = sorted(by_cat[cat], key=lambda i: (-scores[i], keywords[i].text))
        for pos, i in enumerate(order[:k], start=1):
            ranked.append(RankedKeyword(keywords[i].text, cat,
                                        float(scores[i]), pos))
    return ranked


_RANKED_HEADER = ["category", "rank", "keyword", "score"]


def write_ranked(path, ranked: Sequence[RankedKeyword]) -> None:
    write_csv(path, _RANKED_HEADER, (
        [row.category, row.rank, row.text, f"{row.score:.6f}"]
        for row in ranked))


def ranked_from_csv(path) -> list[RankedKeyword]:
    check_header(path, _RANKED_HEADER)
    return list(read_csv(path, lambda row: RankedKeyword(
        text=row["keyword"], category=row["category"],
        score=float(row["score"]), rank=int(row["rank"]))))
