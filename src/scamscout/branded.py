"""Branded-keyword filter.

Queries naming a specific brand ("nike air max") measure brand demand, not
scam-prone generic demand ("trail running shoes"), so they are dropped
before scoring.  Matching is whole-token and case-insensitive; brand names
that double as generic English words ("coach", "vans") only fire when a
product-context word sits directly next to one of their occurrences, which
keeps "life coach" un-branded but catches "coach handbags outlet" and "life
coach and coach handbags".

Each lexicon is indexed once by the token tuple of its brands, so a keyword
is classified by looking up its n-grams (up to the longest brand) instead
of scanning every brand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .datalists import read_list
from .errors import SchemaError


class Verdict(Enum):
    BRANDED = "BRANDED"
    UNBRANDED = "UNBRANDED"


@dataclass(frozen=True)
class BrandVerdict:
    verdict: Verdict
    matched_brand: Optional[str] = None

    def __post_init__(self):
        if (self.verdict is Verdict.BRANDED) != (self.matched_brand is not None):
            raise SchemaError("matched_brand present iff verdict is BRANDED")


@dataclass(frozen=True)
class BrandLexicon:
    brands: frozenset[str]
    ambiguous: frozenset[str]
    context: frozenset[str]

    def __post_init__(self):
        for entry in self.brands | self.ambiguous | self.context:
            if entry != entry.lower().strip() or not entry:
                raise SchemaError(f"lexicon entries must be normalized: {entry!r}")
        if not self.ambiguous <= self.brands:
            raise SchemaError("ambiguous entries must be a subset of brands")

    @cached_property
    def phrase_index(self) -> tuple[dict[tuple[str, ...], list[str]], int]:
        """(token tuple -> brands with those tokens, longest brand in tokens).

        Brands differing only in inner whitespace share one token tuple.
        """
        index: dict[tuple[str, ...], list[str]] = {}
        for brand in sorted(self.brands):
            index.setdefault(tuple(brand.split()), []).append(brand)
        return index, max(map(len, index), default=0)


@lru_cache(maxsize=1)
def default_lexicon() -> BrandLexicon:
    return BrandLexicon(
        brands=read_list("brands.txt"),
        ambiguous=read_list("ambiguous_brands.txt"),
        context=read_list("brand_context.txt"),
    )


def classify_branded(
    keyword: str,
    lexicon: Optional[BrandLexicon] = None,
) -> BrandVerdict:
    """BRANDED iff a lexicon phrase occurs as whole tokens in the keyword.

    An ambiguous brand counts when any of its occurrences has a context word
    right before or after it.  Of several matching brands the alphabetically
    first is reported.
    """
    if not keyword or not keyword.strip():
        raise SchemaError("keyword must be non-empty")
    if lexicon is None:
        lexicon = default_lexicon()
    tokens = keyword.lower().split()
    index, longest = lexicon.phrase_index
    matches: set[str] = set()
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + longest, len(tokens)) + 1):
            for brand in index.get(tuple(tokens[start:end]), ()):
                if brand not in lexicon.ambiguous or _has_adjacent_context(
                    tokens, (start, end), lexicon.context
                ):
                    matches.add(brand)
    if matches:
        return BrandVerdict(Verdict.BRANDED, sorted(matches)[0])
    return BrandVerdict(Verdict.UNBRANDED)


def _has_adjacent_context(
    tokens: list[str], span: tuple[int, int], context: frozenset[str]
) -> bool:
    start, end = span
    before = tokens[start - 1] if start > 0 else None
    after = tokens[end] if end < len(tokens) else None
    return (before in context) or (after in context)


def evaluate_filter(
    labeled: Sequence[tuple[str, str]],
    lexicon: Optional[BrandLexicon] = None,
) -> dict[str, float]:
    """Precision/recall/F1 of the BRANDED class on labeled keywords."""
    seen_labels = {label for _, label in labeled}
    if seen_labels != {"BRANDED", "UNBRANDED"}:
        raise SchemaError(
            f"need both BRANDED and UNBRANDED examples, got {sorted(seen_labels)}"
        )
    tp = fp = fn = 0
    for keyword, label in labeled:
        got = classify_branded(keyword, lexicon).verdict is Verdict.BRANDED
        want = label == "BRANDED"
        if got and want:
            tp += 1
        elif got and not want:
            fp += 1
        elif want:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def filter_unbranded(
    keywords: Iterable[str],
    lexicon: Optional[BrandLexicon] = None,
) -> list[str]:
    return [
        kw for kw in keywords
        if classify_branded(kw, lexicon).verdict is Verdict.UNBRANDED
    ]
