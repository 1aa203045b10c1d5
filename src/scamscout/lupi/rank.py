"""Rank candidate keywords by predicted toxicity with a trained student."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..corpus import KeywordSuggestion
from ..errors import TrainingError
from ..records import check_header, read_csv, write_csv
from .models import StudentModel
from .tokenizer import tokenize_batch


@dataclass(frozen=True)
class RankedKeyword:
    text: str
    category: str
    score: float       # clamped to [0, 1]
    rank: int          # 1-based within its category

    def as_dict(self) -> dict:
        return {"text": self.text, "category": self.category,
                "score": self.score, "rank": self.rank}


def rank_keywords(
    student: StudentModel,
    keywords: Sequence[KeywordSuggestion],
    k: Optional[int] = 20,
    batch_size: int = 256,
) -> list[RankedKeyword]:
    """Score every keyword, keep the top-k per category.

    Scores are clamped to [0, 1]; ties break lexicographically on the
    keyword text so output order is deterministic.  ``k=None`` keeps all.
    """
    if not keywords:
        raise TrainingError("no keywords to rank")
    texts = [kw.text for kw in keywords]
    scores = np.empty(len(texts), dtype=np.float64)
    for start in range(0, len(texts), batch_size):
        ids = tokenize_batch(texts[start:start + batch_size], student.tok_cfg)
        # the attention maps are dropped, so PAD columns can be cut exactly
        out, _, _ = student.forward(ids, train=False, cache=False, trim=True)
        scores[start:start + len(out)] = out
    scores = np.clip(scores, 0.0, 1.0)

    by_cat: dict[str, list[int]] = {}
    for i, kw in enumerate(keywords):
        by_cat.setdefault(kw.category, []).append(i)
    ranked = []
    for cat in sorted(by_cat):
        order = sorted(by_cat[cat], key=lambda i: (-scores[i], keywords[i].text))
        if k is not None:
            order = order[:k]
        for pos, i in enumerate(order, start=1):
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
