"""Branded-keyword filter: lexicon matching, ambiguity gating, metrics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from scamscout.branded import (
    BrandLexicon,
    BrandVerdict,
    Verdict,
    classify_branded,
    default_lexicon,
    evaluate_filter,
    filter_unbranded,
)
from scamscout.errors import SchemaError


def test_default_lexicon_shape():
    lex = default_lexicon()
    assert len(lex.brands) > 100
    assert lex.ambiguous <= lex.brands
    assert lex.context


def test_classify_known_brands():
    assert classify_branded("nike air max") == BrandVerdict(Verdict.BRANDED, "nike")
    got = classify_branded("air jordan 4 retro")
    assert got.verdict is Verdict.BRANDED
    assert got.matched_brand == "air jordan"  # multi-word phrase match
    assert classify_branded("trail running shoes").verdict is Verdict.UNBRANDED


def test_ambiguous_brand_needs_adjacent_context():
    # "coach" is a generic word unless a product word sits next to it
    assert classify_branded("life coach certification").verdict is Verdict.UNBRANDED
    got = classify_branded("coach handbags outlet")
    assert got == BrandVerdict(Verdict.BRANDED, "coach")


@pytest.mark.parametrize("keyword", ["life coach and coach handbags",
                                     "coach coach handbags"])
def test_ambiguous_brand_fires_on_any_occurrence_with_context(keyword):
    # only the second "coach" has a product word next to it
    assert classify_branded(keyword) == BrandVerdict(Verdict.BRANDED, "coach")


def test_matching_is_whole_token_and_case_insensitive():
    assert classify_branded("nikes shoes").verdict is Verdict.UNBRANDED
    assert classify_branded("NIKE Air Max") == classify_branded("nike air max")


def test_empty_keyword_rejected():
    with pytest.raises(SchemaError):
        classify_branded("")
    with pytest.raises(SchemaError):
        classify_branded("   ")


def test_brand_verdict_consistency():
    with pytest.raises(SchemaError):
        BrandVerdict(Verdict.BRANDED, None)
    with pytest.raises(SchemaError):
        BrandVerdict(Verdict.UNBRANDED, "nike")


def test_lexicon_validation():
    with pytest.raises(SchemaError):
        BrandLexicon(brands=frozenset({"Nike"}), ambiguous=frozenset(),
                     context=frozenset())
    with pytest.raises(SchemaError):
        BrandLexicon(brands=frozenset({"acme"}),
                     ambiguous=frozenset({"other"}), context=frozenset())


_TOY = BrandLexicon(
    brands=frozenset({"acme", "blue ridge"}),
    ambiguous=frozenset({"acme"}),
    context=frozenset({"shoes", "outlet"}),
)


def test_custom_lexicon_phrase_and_gating():
    assert classify_branded("acme shoes", _TOY) == BrandVerdict(Verdict.BRANDED, "acme")
    assert classify_branded("shoes acme", _TOY).verdict is Verdict.BRANDED
    assert classify_branded("acme anvils", _TOY).verdict is Verdict.UNBRANDED
    assert classify_branded("blue ridge hiking", _TOY).verdict is Verdict.BRANDED
    assert classify_branded("ridge hiking", _TOY).verdict is Verdict.UNBRANDED
    # phrases must be contiguous and in order
    assert classify_branded("blue hiking ridge", _TOY).verdict is Verdict.UNBRANDED
    # context one token away does not gate the ambiguous brand in
    assert classify_branded("acme heavy shoes", _TOY).verdict is Verdict.UNBRANDED


def test_multiple_matches_report_first_alphabetically():
    lex = BrandLexicon(brands=frozenset({"zeta", "alpha"}),
                       ambiguous=frozenset(), context=frozenset())
    got = classify_branded("zeta alpha combo", lex)
    assert got.matched_brand == "alpha"


def test_evaluate_filter_arithmetic():
    labeled = [
        ("acme shoes", "BRANDED"),        # tp
        ("blue ridge tent", "BRANDED"),   # tp
        ("acme anvils", "BRANDED"),       # fn (gated out, no context)
        ("plain boots", "UNBRANDED"),     # tn
        ("shoes acme cheap", "UNBRANDED"),  # fp
    ]
    metrics = evaluate_filter(labeled, _TOY)
    assert metrics["precision"] == pytest.approx(2 / 3)
    assert metrics["recall"] == pytest.approx(2 / 3)
    assert metrics["f1"] == pytest.approx(2 / 3)


def test_evaluate_filter_needs_both_classes():
    with pytest.raises(SchemaError):
        evaluate_filter([("acme shoes", "BRANDED")], _TOY)


def test_filter_unbranded_preserves_order():
    kept = filter_unbranded(
        ["plain boots", "acme shoes", "hiking socks", "blue ridge tent"], _TOY)
    assert kept == ["plain boots", "hiking socks"]


def test_filter_f1_on_labeled_keywords(fixtures_dir):
    labeled = []
    with open(fixtures_dir / "branded_200.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            labeled.append((row["text"], row["label"]))
    assert len(labeled) == 200
    metrics = evaluate_filter(labeled)
    assert metrics["f1"] >= 0.85


# --- the brand index against a scan over every brand ------------------------------


def _reference_classify(keyword: str, lexicon: BrandLexicon) -> BrandVerdict:
    """Every brand, every occurrence: an ambiguous brand needs context at one."""
    tokens = keyword.lower().split()
    matches = []
    for brand in lexicon.brands:
        phrase = brand.split()
        for start in range(len(tokens) - len(phrase) + 1):
            end = start + len(phrase)
            if tokens[start:end] != phrase:
                continue
            neighbours = tokens[start - 1:start] + tokens[end:end + 1]
            if brand not in lexicon.ambiguous or any(
                    t in lexicon.context for t in neighbours):
                matches.append(brand)
                break
    if matches:
        return BrandVerdict(Verdict.BRANDED, sorted(matches)[0])
    return BrandVerdict(Verdict.UNBRANDED)


def _first_occurrence_classify(keyword: str, lexicon: BrandLexicon) -> BrandVerdict:
    """The rule before the index: context checked at the first occurrence only."""
    tokens = keyword.lower().split()
    matches = []
    for brand in lexicon.brands:
        phrase = brand.split()
        for start in range(len(tokens) - len(phrase) + 1):
            end = start + len(phrase)
            if tokens[start:end] == phrase:
                neighbours = tokens[start - 1:start] + tokens[end:end + 1]
                if brand not in lexicon.ambiguous or any(
                        t in lexicon.context for t in neighbours):
                    matches.append(brand)
                break
    if matches:
        return BrandVerdict(Verdict.BRANDED, sorted(matches)[0])
    return BrandVerdict(Verdict.UNBRANDED)


_VOCAB = ["ab", "cd", "ef", "gh", "ij"]


@st.composite
def _lexicon_and_keywords(draw):
    phrases = draw(st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4),
                            min_size=1, max_size=8))
    # a doubled inner space gives a second brand with the same token tuple
    brands = {draw(st.sampled_from([" ", "  "])).join(p) for p in phrases}
    ambiguous = frozenset(draw(st.sets(st.sampled_from(sorted(brands)))))
    context = frozenset(draw(st.sets(st.sampled_from(_VOCAB + ["zz"]))))
    lexicon = BrandLexicon(frozenset(brands), ambiguous, context)
    keywords = draw(st.lists(
        st.lists(st.sampled_from(_VOCAB + ["AB", "zz", "Cd"]), min_size=1,
                 max_size=8).map(" ".join), min_size=1, max_size=10))
    return lexicon, keywords


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_lexicon_and_keywords())
def test_brand_index_equals_reference_scan(case):
    lexicon, keywords = case
    for keyword in keywords:
        assert classify_branded(keyword, lexicon) == _reference_classify(keyword, lexicon)


def test_brand_index_groups_brands_by_token_tuple():
    lex = BrandLexicon(brands=frozenset({"blue ridge", "blue  ridge", "acme"}),
                       ambiguous=frozenset(), context=frozenset())
    index, longest = lex.phrase_index
    assert index == {("acme",): ["acme"], ("blue", "ridge"): ["blue  ridge", "blue ridge"]}
    assert longest == 2
    assert classify_branded("Blue Ridge tent", lex).matched_brand == "blue  ridge"
    # spellings of one tuple are gated one by one
    gated = BrandLexicon(brands=frozenset({"blue ridge", "blue  ridge"}),
                         ambiguous=frozenset({"blue  ridge"}), context=frozenset())
    assert classify_branded("blue ridge hike", gated).matched_brand == "blue ridge"


def test_fixed_rule_changes_no_fixture_keyword(fixtures_dir):
    # the fixtures never repeat an ambiguous brand, so the old and the new
    # rule agree on all of them
    lex = default_lexicon()
    for name in ("keywords.jsonl", "branded_200.jsonl"):
        with open(fixtures_dir / name, encoding="utf-8") as fh:
            for line in fh:
                text = json.loads(line)["text"]
                got = classify_branded(text)
                assert got == _reference_classify(text, lex)
                assert got == _first_occurrence_classify(text, lex)
