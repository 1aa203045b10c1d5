"""Attribute/segment sampling baselines and bootstrap tables.

The segment tables match through a token index; ``_ref_match_segment``,
the per-pair scan it replaced, is kept here as the referee, and the
nested-loop tables built on it must equal the indexed ones.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout.corpus import KeywordSuggestion
from scamscout.errors import SchemaError
from scamscout.heuristics import (
    ABSENT,
    QueryAttribute,
    QuerySegment,
    TokenType,
    attribute_table,
    bootstrap_estimate,
    classify_attributes,
    cross_category_matrix,
    TableRow,
    derive_seed,
    rank_segments,
    rule_based_intent,
    top_segments,
)
from scamscout.toxicity import QueryToxicity


def _score(query, toxicity, total=10, category=""):
    scams = round(toxicity * total)
    return QueryToxicity(query=query, category=category, total_sites=total,
                         scam_sites=scams, toxicity=scams / total,
                         expansion=scams)


# --- intent and attributes ------------------------------------------------


def test_rule_based_intent_examples():
    assert rule_based_intent("buy cheap nike shoes") == {QueryAttribute.COMMERCIAL}
    assert rule_based_intent("how to tie a tie") == {QueryAttribute.INFORMATIONAL}
    assert rule_based_intent("nike air max 90") == set()
    assert rule_based_intent("how to buy a house") == {
        QueryAttribute.COMMERCIAL, QueryAttribute.INFORMATIONAL}
    assert rule_based_intent("BUY NOW") == {QueryAttribute.COMMERCIAL}


def test_rule_based_intent_agreement_on_labeled_queries(fixtures_dir):
    total = agree = 0
    with open(fixtures_dir / "intent_200.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            pred = {a.value for a in rule_based_intent(row["text"])}
            total += 1
            agree += pred == set(row["attributes"])
    assert total == 200
    assert agree / total >= 0.8


def test_classify_attributes_combines_sources():
    kw = KeywordSuggestion(text="buy discount running shoes online",
                           competition="MEDIUM")
    attrs = classify_attributes(kw)
    assert attrs == {QueryAttribute.COMMERCIAL,
                     QueryAttribute.MEDIUM_COMPETITION,
                     QueryAttribute.LONG_TAIL}

    kw = KeywordSuggestion(text="dog beds", competition="LOW")
    assert classify_attributes(kw) == {QueryAttribute.LOW_COMPETITION}

    # HIGH competition maps to no competition attribute
    kw = KeywordSuggestion(text="dog beds", competition="HIGH")
    assert classify_attributes(kw) == set()

    # exactly 3 words is not long-tail; 4 is
    assert QueryAttribute.LONG_TAIL not in classify_attributes(
        KeywordSuggestion(text="red dog beds", competition="HIGH"))
    assert QueryAttribute.LONG_TAIL in classify_attributes(
        KeywordSuggestion(text="red dog beds cheap", competition="HIGH"))


# --- segment matching -----------------------------------------------------


def _ref_match_segment(query_text: str, segment: QuerySegment) -> bool:
    """True when every word of the segment appears as a whole query token."""
    query_tokens = set(query_text.lower().split())
    return all(tok in query_tokens for tok in segment.tokens)


def match_segment(query_text: str, segment: QuerySegment) -> bool:
    """The referee's verdict, checked against the token index's."""
    expected = _ref_match_segment(query_text, segment)
    rows = rank_segments([segment], [_score(query_text, 0.5)],
                         n_sim=1, sample_size=1)
    assert bool(rows) == expected, (query_text, segment.text)
    return expected


def test_match_segment_is_order_free_and_whole_token():
    seg = QuerySegment("for sale", TokenType.PRICE)
    assert match_segment("sale items for kids", seg)
    assert match_segment("FOR SALE", seg)
    assert not match_segment("wholesale items", QuerySegment("sale", TokenType.PRICE))
    cheap = QuerySegment("Cheap", TokenType.MODIFIER)
    assert match_segment("cheap shoes", cheap)
    assert not match_segment("cheapest shoes", cheap)


def test_match_segment_monotone_under_added_words():
    rng = np.random.default_rng(2)
    vocab = ["red", "dog", "beds", "cheap", "sale", "free", "uk", "2024"]
    seg = QuerySegment("dog beds", TokenType.CORE_PRODUCT_TYPE)
    for _ in range(100):
        base = "dog beds"
        extras = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=3)]
        widened = " ".join(extras[:1] + [base] + extras[1:])
        assert match_segment(base, seg)
        assert match_segment(widened, seg)  # adding words never breaks a match


def test_query_segment_normalization_and_validation():
    seg = QuerySegment("  Dog Beds  ", TokenType.CORE_PRODUCT_TYPE)
    assert seg.text == "dog beds"
    assert seg.tokens == ("dog", "beds")
    with pytest.raises(SchemaError):
        QuerySegment("   ", TokenType.MODIFIER)


# --- bootstrap ------------------------------------------------------------


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(7, "segment", "dog beds", "toxicity")
    b = derive_seed(7, "segment", "dog beds", "toxicity")
    c = derive_seed(7, "segment", "cat trees", "toxicity")
    d = derive_seed(8, "segment", "dog beds", "toxicity")
    assert a == b
    assert a != c and a != d
    assert 0 <= a < 2**63


def test_bootstrap_constant_scores_have_zero_std():
    for seed in (0, 1, 99):
        est = bootstrap_estimate([0.4] * 30, n_sim=200, sample_size=10, seed=seed)
        assert est.mean == pytest.approx(0.4)
        assert est.std == 0.0


def test_bootstrap_fixed_seed_is_bit_exact():
    scores = list(np.random.default_rng(1).uniform(0, 1, size=50))
    a = bootstrap_estimate(scores, n_sim=500, sample_size=20, seed=42)
    b = bootstrap_estimate(scores, n_sim=500, sample_size=20, seed=42)
    assert a == b
    c = bootstrap_estimate(scores, n_sim=500, sample_size=20, seed=43)
    assert c != a


def test_bootstrap_recovers_bernoulli_mean_and_spread():
    # balanced 0/1 scores: resampled means have mean 0.5 and
    # std ~= sqrt(p*(1-p)/sample_size) ~= 0.1118
    scores = [0.0, 1.0] * 50
    est = bootstrap_estimate(scores, n_sim=2000, sample_size=20, seed=5)
    se_of_mean = 0.1118 / np.sqrt(2000)
    assert abs(est.mean - 0.5) < 3 * se_of_mean + 1e-9
    assert est.std == pytest.approx(0.1118, abs=0.015)


def test_bootstrap_singleton_and_validation():
    est = bootstrap_estimate([0.7], n_sim=50, sample_size=5, seed=0)
    assert est.mean == pytest.approx(0.7)
    assert est.std == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SchemaError):
        bootstrap_estimate([], n_sim=10, sample_size=5)
    with pytest.raises(SchemaError):
        bootstrap_estimate([0.5], n_sim=0, sample_size=5)
    with pytest.raises(SchemaError):
        bootstrap_estimate([0.5], n_sim=10, sample_size=0)


# --- tables ---------------------------------------------------------------


def _keyword_set():
    kws = [
        KeywordSuggestion(text="buy cheap watches", competition="LOW"),
        KeywordSuggestion(text="how to clean watches", competition="HIGH"),
        KeywordSuggestion(text="waterproof watches for hiking trips", competition="MEDIUM"),
        KeywordSuggestion(text="watch repair", competition="LOW"),
        KeywordSuggestion(text="unscored query", competition="LOW"),
    ]
    scores = {
        "buy cheap watches": _score("buy cheap watches", 0.8),
        "how to clean watches": _score("how to clean watches", 0.1),
        "waterproof watches for hiking trips": _score(
            "waterproof watches for hiking trips", 0.3),
        "watch repair": _score("watch repair", 0.2),
    }
    return kws, scores


def test_attribute_table_counts_and_rows():
    kws, scores = _keyword_set()
    rows = attribute_table(kws, scores, master_seed=3, n_sim=200, sample_size=10)
    assert [r.key for r in rows] == [a.value for a in QueryAttribute]
    by_key = {r.key: r for r in rows}
    assert by_key["COMMERCIAL"].count == 1        # "buy cheap watches"
    assert by_key["INFORMATIONAL"].count == 1     # "how to clean watches"
    assert by_key["LOW_COMPETITION"].count == 2   # unscored keyword skipped
    assert by_key["MEDIUM_COMPETITION"].count == 1
    assert by_key["LONG_TAIL"].count == 2         # 4+ word queries
    assert by_key["COMMERCIAL"].toxicity.mean == pytest.approx(0.8)
    assert by_key["COMMERCIAL"].expansion.mean == pytest.approx(8.0)


def test_attribute_table_empty_bucket_and_determinism():
    kws = [KeywordSuggestion(text="plain words", competition="HIGH")]
    scores = {"plain words": _score("plain words", 0.5)}
    rows = attribute_table(kws, scores, master_seed=1)
    by_key = {r.key: r for r in rows}
    assert by_key["COMMERCIAL"].count == 0
    assert by_key["COMMERCIAL"].toxicity is None
    assert by_key["COMMERCIAL"].expansion is None

    kws, scores = _keyword_set()
    a = attribute_table(kws, scores, master_seed=9, n_sim=100, sample_size=8)
    b = attribute_table(list(reversed(kws)), scores, master_seed=9,
                        n_sim=100, sample_size=8)
    assert a == b  # keyword order must not leak into the estimates


def test_rank_segments_orders_by_mean_and_drops_unmatched():
    segments = [
        QuerySegment("cold", TokenType.MODIFIER),
        QuerySegment("hot", TokenType.MODIFIER),
        QuerySegment("unmatched", TokenType.MODIFIER),
    ]
    scores = [
        _score("hot item one", 0.9),
        _score("hot item two", 0.7),
        _score("cold item one", 0.1),
        _score("cold item two", 0.2),
    ]
    rows = rank_segments(segments, scores, master_seed=0, n_sim=300, sample_size=10)
    assert [r.key for r in rows] == ["hot", "cold"]
    assert rows[0].count == 2
    assert rows[0].toxicity.mean > rows[1].toxicity.mean
    assert rows[0].expansion is None


def test_rank_segments_ties_break_on_text():
    # constant toxicity makes every bootstrap mean exactly equal
    segments = [QuerySegment(t, TokenType.MODIFIER) for t in ("zzz", "aaa", "mmm")]
    scores = [_score(f"{t} query", 0.5) for t in ("zzz", "aaa", "mmm")]
    rows = rank_segments(segments, scores, n_sim=100, sample_size=5)
    assert [r.key for r in rows] == ["aaa", "mmm", "zzz"]


def test_top_segments_returns_original_objects():
    segments = [
        QuerySegment("hot", TokenType.MODIFIER),
        QuerySegment("cold", TokenType.MODIFIER),
    ]
    scores = [_score("hot thing", 0.9), _score("cold thing", 0.1)]
    top = top_segments(segments, scores, m=1, n_sim=100, sample_size=5)
    assert top == [segments[0]]
    assert top[0].token_type is TokenType.MODIFIER


def test_rank_segments_ranks_a_text_shared_by_categories_once():
    # one text listed under two categories, with different token types
    sneakers = QuerySegment("replica", TokenType.MODIFIER)
    watches = QuerySegment("Replica", TokenType.PRODUCT_NAME)
    other = QuerySegment("strap", TokenType.CORE_PRODUCT_TYPE)
    scores = [_score("replica sneakers", 0.9), _score("replica strap", 0.7),
              _score("leather strap", 0.1)]
    rows = rank_segments([sneakers, watches, other], scores,
                         n_sim=100, sample_size=5)
    assert [r.key for r in rows] == ["replica", "strap"]
    assert rows == rank_segments([sneakers, other], scores,
                                 n_sim=100, sample_size=5)
    top = top_segments([sneakers, watches, other], scores, m=2,
                       n_sim=100, sample_size=5)
    assert top == [sneakers, other]
    assert top[0].token_type is TokenType.MODIFIER   # the first object kept


def test_cross_category_matrix_diagonal_and_absent_cells():
    segments_by_cat = {
        "watches": [QuerySegment("strap", TokenType.CORE_PRODUCT_TYPE)],
        "shoes": [QuerySegment("laces", TokenType.CORE_PRODUCT_TYPE)],
    }
    scored = {
        "watches": [_score("leather strap deals", 0.8),
                    _score("metal strap shop", 0.6)],
        "shoes": [_score("white laces bulk", 0.2)],
    }
    matrix = cross_category_matrix(segments_by_cat, scored,
                                   master_seed=2, n_sim=200, sample_size=10)
    assert set(matrix) == {"watches", "shoes"}
    assert matrix["watches"]["watches"].mean == pytest.approx(0.7, abs=0.05)
    assert matrix["shoes"]["shoes"].mean == pytest.approx(0.2)
    # no watch segment matches shoe queries and vice versa
    assert matrix["watches"]["shoes"] is ABSENT
    assert matrix["shoes"]["watches"] is ABSENT


def test_cross_category_matrix_is_order_invariant():
    rng = np.random.default_rng(6)
    segments_by_cat = {
        "a": [QuerySegment("alpha", TokenType.MODIFIER),
              QuerySegment("beta", TokenType.MODIFIER)],
        "b": [QuerySegment("gamma", TokenType.MODIFIER)],
    }
    scored = {
        "a": [_score(f"alpha item {i}", 0.5 + 0.05 * (i % 3)) for i in range(6)],
        "b": [_score(f"gamma item {i}", 0.3) for i in range(4)],
    }
    base = cross_category_matrix(segments_by_cat, scored, master_seed=4)
    for _ in range(3):
        shuffled_segments = {
            cat: list(rng.permutation(np.array(segs, dtype=object)))
            for cat, segs in segments_by_cat.items()
        }
        shuffled_scores = {
            cat: list(rng.permutation(np.array(qs, dtype=object)))
            for cat, qs in scored.items()
        }
        assert cross_category_matrix(shuffled_segments, shuffled_scores,
                                     master_seed=4) == base


def test_cross_category_matrix_rejects_all_absent():
    segments_by_cat = {"a": [QuerySegment("nomatch", TokenType.MODIFIER)]}
    scored = {"a": [_score("totally different", 0.5)]}
    with pytest.raises(SchemaError):
        cross_category_matrix(segments_by_cat, scored)


def test_cross_category_matrix_single_cell():
    matrix = cross_category_matrix(
        {"only": [QuerySegment("deal", TokenType.PRICE)]},
        {"only": [_score("deal hunting", 0.6)]},
        n_sim=100, sample_size=5)
    assert list(matrix) == ["only"]
    assert matrix["only"]["only"].mean == pytest.approx(0.6)


# --- the token index against the nested-loop referee ----------------------


def _ref_rank_segments(segments, scores, master_seed, n_sim, sample_size):
    rows = {}
    for seg in segments:
        matched = sorted(s.toxicity for s in scores
                         if _ref_match_segment(s.query, seg))
        if matched and seg.text not in rows:
            seed = derive_seed(master_seed, "segment", seg.text, "toxicity")
            rows[seg.text] = TableRow(
                seg.text, len(matched),
                bootstrap_estimate(matched, n_sim, sample_size, seed), None)
    return sorted(rows.values(), key=lambda r: (-r.toxicity.mean, r.key))


def _ref_cross_category(segments_by_cat, scored, master_seed, n_sim, sample_size):
    categories = sorted(set(segments_by_cat) | set(scored))
    matrix = {}
    for source in categories:
        row = matrix[source] = {}
        for target in categories:
            matched = sorted(
                s.toxicity for s in scored.get(target, [])
                if any(_ref_match_segment(s.query, seg)
                       for seg in segments_by_cat.get(source, [])))
            seed = derive_seed(master_seed, "cell", source, target)
            row[target] = (bootstrap_estimate(matched, n_sim, sample_size, seed)
                           if matched else ABSENT)
    return matrix


# mixed case, a dotted capital I (which lowers to two code points), a token
# that holds another, and separators of tabs and runs of spaces
_WORDS = ["dog", "DOG", "Dog", "beds", "BEDS", "sale", "for", "wholesale",
          "\u0130", "i\u0307", "i", "\u0131"]
_SEPARATORS = [" ", "  ", "\t", " \t "]


@st.composite
def _segment_world(draw):
    def text(min_size):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=min_size,
                              max_size=4))
        seps = draw(st.lists(st.sampled_from(_SEPARATORS),
                             min_size=len(words) + 1, max_size=len(words) + 1))
        return seps[0] + "".join(w + sep for w, sep in zip(words, seps[1:]))

    categories = ["a", "b", "c"]
    shared = QuerySegment(text(1), TokenType.MODIFIER)
    segments_by_cat = {
        cat: [QuerySegment(text(1), TokenType.MODIFIER)
              for _ in range(draw(st.integers(0, 3)))]
        for cat in categories}
    for cat in draw(st.lists(st.sampled_from(categories), min_size=2,
                             max_size=3, unique=True)):
        segments_by_cat[cat].insert(draw(st.integers(0, len(segments_by_cat[cat]))),
                                    shared)
    scored = {}
    for _ in range(draw(st.integers(1, 12))):
        cat = draw(st.sampled_from(categories))
        total = draw(st.integers(1, 4))
        scams = draw(st.integers(0, total))
        scored.setdefault(cat, []).append(QueryToxicity(
            query=text(0), category=cat, total_sites=total, scam_sites=scams,
            toxicity=scams / total, expansion=scams))
    return segments_by_cat, scored


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_segment_world(), st.integers(0, 5))
def test_token_index_equals_nested_loop_reference(world, master_seed):
    segments_by_cat, scored = world
    segments = [seg for segs in segments_by_cat.values() for seg in segs]
    scores = [s for qs in scored.values() for s in qs]
    assert (rank_segments(segments, scores, master_seed, 20, 5)
            == _ref_rank_segments(segments, scores, master_seed, 20, 5))
    expected = _ref_cross_category(segments_by_cat, scored, master_seed, 20, 5)
    if all(cell is ABSENT for row in expected.values() for cell in row.values()):
        with pytest.raises(SchemaError):
            cross_category_matrix(segments_by_cat, scored, master_seed, 20, 5)
    else:
        assert cross_category_matrix(segments_by_cat, scored,
                                     master_seed, 20, 5) == expected


def test_each_query_is_split_at_most_once_per_table():
    splits = Counter()

    class Lowered(str):
        def split(self, *args):
            splits[str(self)] += 1
            return super().split(*args)

    class Query(str):
        def lower(self):
            return Lowered(super().lower())

    scored = {cat: [_score(Query(f"Cheap {cat} item {i}"), 0.5, category=cat)
                    for i in range(4)] for cat in ("dogs", "cats")}
    segments_by_cat = {cat: [QuerySegment(t, TokenType.MODIFIER)
                             for t in ("cheap", cat, "item", "cheap item")]
                       for cat in scored}
    segments = [seg for segs in segments_by_cat.values() for seg in segs]
    scores = [s for qs in scored.values() for s in qs]
    assert len(rank_segments(segments, scores, n_sim=5, sample_size=2)) == 5
    assert len(splits) == len(scores) and max(splits.values()) == 1
    splits.clear()
    cross_category_matrix(segments_by_cat, scored, n_sim=5, sample_size=2)
    assert len(splits) == len(scores) and max(splits.values()) == 1
