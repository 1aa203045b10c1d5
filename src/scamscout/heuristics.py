"""Attribute- and segment-based query sampling baselines.

These are the non-learned strategies the ranking model is compared against:
pick queries by attribute (intent, competition, length), or by whether they
contain a high-toxicity segment, and estimate the toxicity of each bucket by
bootstrap resampling.  Every bootstrap cell derives its own seed from the
master seed plus a stable hash of the cell key, so individual table cells
are reproducible in isolation and insensitive to iteration order.

A segment matches a query when every word of the segment is a whole token
of the lowered query: order-free ("for sale" matches "sale items for
kids"), and monotone in the query, since adding words never turns a match
into a miss.  Each table splits every query once, into a token index from
each token to the positions of the queries holding it; a segment's matches
are the intersection of its tokens' entries.  ``rank_segments`` ranks each
distinct segment text once, whichever categories list it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import KeywordSuggestion
from .errors import SchemaError
from .toxicity import QueryToxicity


class QueryAttribute(Enum):
    INFORMATIONAL = "INFORMATIONAL"
    COMMERCIAL = "COMMERCIAL"
    LOW_COMPETITION = "LOW_COMPETITION"
    MEDIUM_COMPETITION = "MEDIUM_COMPETITION"
    LONG_TAIL = "LONG_TAIL"


class TokenType(Enum):
    CORE_PRODUCT_TYPE = "CORE_PRODUCT_TYPE"
    CONTENT = "CONTENT"
    PRODUCT_NAME = "PRODUCT_NAME"
    MODIFIER = "MODIFIER"
    PRICE = "PRICE"


@dataclass(frozen=True)
class QuerySegment:
    text: str
    token_type: TokenType

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise SchemaError(f"segment text must be a string, got {self.text!r}")
        if not self.text.strip():
            raise SchemaError("segment text must be non-empty")
        object.__setattr__(self, "text", self.text.strip().lower())

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())


@dataclass(frozen=True)
class BootstrapEstimate:
    mean: float
    std: float


# --- intent rules -------------------------------------------------------------

_COMMERCIAL_TOKENS = frozenset("""
buy buying purchase order shop shopping store sale sales cheap cheapest
price prices pricing cost discount discounts deal deals coupon coupons promo
voucher outlet wholesale shipping delivery pay payment checkout sell rent
hire book booking subscribe subscription replica clearance bargain offer
offers affordable budget
""".split())

_INFORMATIONAL_TOKENS = frozenset("""
how what why when who which guide tutorial meaning definition wiki examples
difference comparison vs versus tips ideas symptoms causes history facts
learn course lesson explained review reviews is are does can should
""".split())

def rule_based_intent(text: str) -> set[QueryAttribute]:
    """Intent from lexicon hits on whitespace tokens."""
    tokens = set(text.lower().split())
    out: set[QueryAttribute] = set()
    if tokens & _COMMERCIAL_TOKENS:
        out.add(QueryAttribute.COMMERCIAL)
    if tokens & _INFORMATIONAL_TOKENS:
        out.add(QueryAttribute.INFORMATIONAL)
    return out


def classify_attributes(keyword: KeywordSuggestion) -> set[QueryAttribute]:
    """Attributes a query holds; a query may hold several at once."""
    attrs = rule_based_intent(keyword.text)
    if keyword.competition == "LOW":
        attrs.add(QueryAttribute.LOW_COMPETITION)
    elif keyword.competition == "MEDIUM":
        attrs.add(QueryAttribute.MEDIUM_COMPETITION)
    if len(keyword.text.split()) > 3:
        attrs.add(QueryAttribute.LONG_TAIL)
    return attrs


# --- bootstrap ----------------------------------------------------------------


def derive_seed(master_seed: int, *parts: str) -> int:
    """Stable per-cell seed: master seed plus a hash of the cell key."""
    digest = hashlib.md5("\x1f".join(parts).encode("utf-8")).digest()
    return (master_seed + int.from_bytes(digest[:8], "big")) % (2**63)


def bootstrap_estimate(
    scores: Sequence[float],
    n_sim: int = 1000,
    sample_size: int = 20,
    seed: int = 0,
) -> BootstrapEstimate:
    """Mean/std of ``n_sim`` resampled means of ``sample_size`` draws."""
    if len(scores) == 0:
        raise SchemaError("cannot bootstrap an empty score list")
    if n_sim < 1 or sample_size < 1:
        raise SchemaError("n_sim and sample_size must be >= 1")
    values = np.asarray(scores, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, values.size, size=(n_sim, sample_size))
    means = values[draws].mean(axis=1)
    return BootstrapEstimate(mean=float(means.mean()), std=float(means.std()))


def _token_index(scores: Sequence[QueryToxicity]) -> dict[str, set[int]]:
    """Each whole query token to the positions of the queries holding it."""
    index: dict[str, set[int]] = {}
    for i, s in enumerate(scores):
        for tok in s.query.lower().split():
            index.setdefault(tok, set()).add(i)
    return index


def _matching_toxicities(
    scores: Sequence[QueryToxicity],
    index: Mapping[str, set[int]],
    segments: Iterable[QuerySegment],
) -> list[float]:
    """Toxicities of the queries of ``index`` (built over ``scores``) that
    hold every token of at least one of ``segments``."""
    hits: set[int] = set()
    for seg in segments:
        first, *rest = [index.get(tok, set()) for tok in seg.tokens]
        hits |= first.intersection(*rest)
    # sorted so the bootstrap is invariant to the caller's query order
    return sorted(scores[i].toxicity for i in hits)


def _first_by_text(segments: Iterable[QuerySegment]) -> dict[str, QuerySegment]:
    by_text: dict[str, QuerySegment] = {}
    for seg in segments:
        by_text.setdefault(seg.text, seg)
    return by_text


# --- tables -------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    key: str
    count: int
    toxicity: Optional[BootstrapEstimate]
    expansion: Optional[BootstrapEstimate]


def attribute_table(
    keywords: Sequence[KeywordSuggestion],
    scores: Mapping[str, QueryToxicity],
    master_seed: int = 0,
    n_sim: int = 1000,
    sample_size: int = 20,
) -> list[TableRow]:
    """Bootstrap toxicity/expansion per query attribute."""
    buckets: dict[QueryAttribute, list[QueryToxicity]] = {a: [] for a in QueryAttribute}
    for kw in keywords:
        score = scores.get(kw.text)
        if score is None:
            continue
        for attr in classify_attributes(kw):
            buckets[attr].append(score)
    rows = []
    for attr in QueryAttribute:
        matched = buckets[attr]
        tox = exp = None
        if matched:
            tox_values = sorted(s.toxicity for s in matched)
            exp_values = sorted(float(s.expansion) for s in matched)
            seed_t = derive_seed(master_seed, "attribute", attr.value, "toxicity")
            seed_e = derive_seed(master_seed, "attribute", attr.value, "expansion")
            tox = bootstrap_estimate(tox_values, n_sim, sample_size, seed_t)
            exp = bootstrap_estimate(exp_values, n_sim, sample_size, seed_e)
        rows.append(TableRow(attr.value, len(matched), tox, exp))
    return rows


def rank_segments(
    segments: Sequence[QuerySegment],
    scores: Sequence[QueryToxicity],
    master_seed: int = 0,
    n_sim: int = 1000,
    sample_size: int = 20,
) -> list[TableRow]:
    """Segments ranked by bootstrap mean toxicity of their matching queries.

    A text that several segments share (one per category, say) is ranked
    once.  Segments matching no query are dropped.  Ties break on segment
    text.
    """
    index = _token_index(scores)
    rows = []
    for seg in _first_by_text(segments).values():
        matched = _matching_toxicities(scores, index, [seg])
        if not matched:
            continue
        seed = derive_seed(master_seed, "segment", seg.text, "toxicity")
        est = bootstrap_estimate(matched, n_sim, sample_size, seed)
        rows.append(TableRow(seg.text, len(matched), est, None))
    rows.sort(key=lambda r: (-r.toxicity.mean, r.key))
    return rows


def top_segments(
    segments: Sequence[QuerySegment],
    scores: Sequence[QueryToxicity],
    m: int = 20,
    master_seed: int = 0,
    n_sim: int = 1000,
    sample_size: int = 20,
) -> list[QuerySegment]:
    """The first segment of each of the ``m`` top-ranked texts."""
    ranked = rank_segments(segments, scores, master_seed, n_sim, sample_size)
    by_text = _first_by_text(segments)
    return [by_text[row.key] for row in ranked[:m]]


ABSENT = None  # matrix cells with no matching query


def cross_category_matrix(
    segments_by_cat: Mapping[str, Sequence[QuerySegment]],
    scored_queries: Mapping[str, Sequence[QueryToxicity]],
    master_seed: int = 0,
    n_sim: int = 1000,
    sample_size: int = 20,
) -> dict[str, dict[str, Optional[BootstrapEstimate]]]:
    """Toxicity of each source category's segments applied to each target.

    cell (s, t) bootstraps the toxicities of target-t queries that match any
    of source-s's segments; the diagonal is the in-category estimate.  Cells
    with zero matching queries are ABSENT (None).
    """
    categories = sorted(set(segments_by_cat) | set(scored_queries))
    targets = {t: scored_queries.get(t, []) for t in categories}
    indexes = {t: _token_index(scores) for t, scores in targets.items()}
    matrix: dict[str, dict[str, Optional[BootstrapEstimate]]] = {}
    any_match = False
    for source in categories:
        row: dict[str, Optional[BootstrapEstimate]] = {}
        segments = segments_by_cat.get(source, [])
        for target in categories:
            matched = _matching_toxicities(targets[target], indexes[target],
                                           segments)
            if not matched:
                row[target] = ABSENT
                continue
            any_match = True
            seed = derive_seed(master_seed, "cell", source, target)
            row[target] = bootstrap_estimate(matched, n_sim, sample_size, seed)
        matrix[source] = row
    if not any_match:
        raise SchemaError("no segment matched any query in any cell")
    return matrix
