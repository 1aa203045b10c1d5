"""SERP replay and the discovery report."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from scamscout.discovery import (
    CategoryCount,
    DiscoveryReport,
    FixtureStore,
    fetch_serp,
    run_discovery,
    write_report,
)
from scamscout.errors import FixtureMissError, SchemaError, UnknownEngineError
from scamscout.lupi import RankedKeyword


def _page(query, engine, domains):
    return {"query": query,
            "entries": [{"engine": engine, "rank": rank, "url": f"https://{d}/p"}
                        for rank, d in enumerate(domains, 1)]}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    return path


def _load(tmp_path, records):
    return FixtureStore.load(_write(tmp_path / "fixtures.jsonl", records))


def _domains(result):
    return [e.root_domain for e in result.entries]


# --- fixture store ----------------------------------------------------------


def test_store_rejects_an_identical_repeated_page(tmp_path):
    """A (query, engine) pair comes from one line, even if a copy of it
    holds the same entries."""
    page = _page("cheap shoes", "GOOGLE", ["a.com", "b.com"])
    store = _load(tmp_path, [page])
    assert len(store) == 1
    got = store.get("cheap shoes", "GOOGLE")
    assert got.query == "cheap shoes"
    assert _domains(got) == ["a.com", "b.com"]
    assert [e.rank for e in got.entries] == [1, 2]
    with pytest.raises(SchemaError, match=re.escape(
            "fixtures.jsonl:3: repeated page for ('cheap shoes', GOOGLE)")):
        _load(tmp_path, [page, _page("cheap shoes", "BING", ["a.com"]), page])


def test_store_rejects_conflicting_fixture(tmp_path):
    with pytest.raises(SchemaError, match=re.escape(
            "fixtures.jsonl:2: repeated page for ('q', GOOGLE)")):
        _load(tmp_path, [_page("q", "GOOGLE", ["a.com"]),
                         _page("q", "GOOGLE", ["b.com"])])


def test_store_splits_a_page_by_engine(tmp_path):
    """A page holding GOOGLE and BING entries becomes two pairs, each with
    its own entries in rank order."""
    page = _page("q", "GOOGLE", ["g1.com", "g2.com"])
    page["entries"] = [*_page("q", "BING", ["b1.com"])["entries"],
                       *page["entries"][::-1]]
    store = _load(tmp_path, [page])
    assert len(store) == 2
    assert _domains(store.get("q", "GOOGLE")) == ["g1.com", "g2.com"]
    assert _domains(store.get("q", "BING")) == ["b1.com"]
    # a later page of either engine for the same query repeats a pair
    with pytest.raises(SchemaError, match=re.escape(
            "fixtures.jsonl:2: repeated page for ('q', BING)")):
        _load(tmp_path, [page, _page("q", "BING", ["other.com"])])


def test_store_ignores_the_engine_and_date_of_a_benchmark_record(tmp_path):
    """Records that also carry ``engine`` and ``capture_date`` keys load the
    same store as the same pages without them: both keys are ignored."""
    pages = [_page("q", "GOOGLE", ["a.com", "b.com"]),
             _page("q", "BING", ["c.com"]), _page("r", "GOOGLE", ["a.com"])]
    dated = [{"query": p["query"], "engine": p["entries"][0]["engine"],
              "capture_date": "2024-03-02", "entries": p["entries"]}
             for p in pages]
    plain = _load(tmp_path, pages)
    store = FixtureStore.load(_write(tmp_path / "dated.jsonl", dated))
    assert len(store) == len(plain) == 3
    for query, engine in (("q", "GOOGLE"), ("q", "BING"), ("r", "GOOGLE")):
        assert store.get(query, engine) == plain.get(query, engine)


def test_store_index_matches_brute_force_grouping(tmp_path):
    """Pages of mixed engines, in any order: each (query, engine) gets the
    entries of its engine, ranked, and the store holds every pair once."""
    rng = np.random.default_rng(5)
    want, pages = {}, []
    for i in range(8):
        entries = []
        for engine in ("GOOGLE", "BING", "NAVER"):
            if rng.random() < 0.7:
                n = int(rng.integers(1, 6))
                want[(f"q{i}", engine)] = [f"{engine.lower()}{i}-{r}.com"
                                           for r in range(n)]
                entries += _page("", engine, want[(f"q{i}", engine)])["entries"]
        pages.append({"query": f"q{i}", "entries": [
            entries[j] for j in rng.permutation(len(entries))]})
    store = _load(tmp_path, [pages[j] for j in rng.permutation(len(pages))])
    assert len(store) == len(want)
    for (query, engine), domains in want.items():
        assert _domains(store.get(query, engine)) == domains


def test_store_rejects_unknown_engine(tmp_path):
    with pytest.raises(SchemaError,
                       match=re.escape("fixtures.jsonl:1: unknown engine 'ALTAVISTA'")):
        _load(tmp_path, [_page("q", "ALTAVISTA", ["a.com"])])


def test_store_miss_raises(tmp_path):
    store = _load(tmp_path, [_page("q", "GOOGLE", ["a.com"])])
    assert len(store) == 1
    assert _domains(store.get("q", "GOOGLE")) == ["a.com"]
    for query, engine in (("other", "GOOGLE"), ("q", "BING")):
        with pytest.raises(FixtureMissError):
            store.get(query, engine)
    with pytest.raises(FixtureMissError):
        FixtureStore().get("q", "GOOGLE")
    # a page with no entries names no engine, so its line is refused on load
    # rather than a later search missing it
    for empty in (_page("empty", "GOOGLE", []), {"query": "bare"}):
        path = _write(tmp_path / "empty.jsonl",
                      [_page("q", "GOOGLE", ["a.com"]), empty])
        with pytest.raises(SchemaError,
                           match=f"empty.jsonl:2: page for '{empty['query']}' "
                                 f"has no entries"):
            FixtureStore.load(path)


def test_changing_a_fetched_result_leaves_the_store_unchanged(tmp_path):
    store = _load(tmp_path, [_page("q", "GOOGLE", ["a.com", "b.com"])])
    before = list(store.get("q", "GOOGLE").entries)
    got = store.get("q", "GOOGLE")
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.entries[0].rank = 7
    got.entries[0] = dataclasses.replace(got.entries[0], url="https://evil.com/p")
    got.entries.append(dataclasses.replace(got.entries[1], rank=3))
    got.entries.sort(key=lambda e: -e.rank)
    assert store.get("q", "GOOGLE").entries == before
    assert _domains(store.get("q", "GOOGLE")) == ["a.com", "b.com"]


def test_store_serves_the_root_domain_of_the_url(tmp_path):
    # a root domain in the file is ignored: a replay derives it from the URL
    record = _page("q", "GOOGLE", [])
    record["entries"] = [{"engine": "GOOGLE", "rank": 1,
                          "url": "https://www.a.co.uk/x", "root_domain": "other.com"}]
    assert _domains(_load(tmp_path, [record]).get("q", "GOOGLE")) == ["a.co.uk"]


def test_load_rejects_an_entry_a_replay_cannot_parse(tmp_path):
    # the entry names its own root domain, but a replay derives it from the URL
    record = _page("q", "GOOGLE", ["a.com", "b.com"])
    record["entries"][1].update(url="not-a-url", root_domain="a.com")
    path = _write(tmp_path / "fixtures.jsonl",
                  [_page("q", "BING", ["a.com"]), record])
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:2: not an absolute URL: 'not-a-url'")):
        FixtureStore.load(path)


def test_store_load_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_page("q", "GOOGLE", ["a.com"])) + "\n{broken\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: Expecting")):
        FixtureStore.load(path)


_GOOD_ENTRY = {"engine": "GOOGLE", "rank": 1, "url": "https://a.com/x"}


@pytest.mark.parametrize("record", [
    {"entries": []},
    {"query": "q", "entries": [7]},
    {"query": "q", "entries": [{"engine": "GOOGLE", "url": "https://a.com/x"}]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank="first")]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank=None)]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank=0)]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank=1.5)]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank=True)]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, rank="2")]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, url="not-a-url")]},
    ["not", "an", "object"],
    {"query": 7, "entries": []},
    {"query": None, "entries": [_GOOD_ENTRY]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, title=None)]},
    {"query": "q", "entries": [dict(_GOOD_ENTRY, engine="YAHOO")]},
    {"query": "q", "entries": [_GOOD_ENTRY, dict(_GOOD_ENTRY, url="https://b.com/x")]},
    # line 1 holds ("q", BING): a second page of that pair
    {"query": "q", "entries": [_GOOD_ENTRY, dict(_GOOD_ENTRY, engine="BING")]},
])
def test_store_load_names_line_of_malformed_record(tmp_path, record):
    good = {"query": "q", "entries": [dict(_GOOD_ENTRY, engine="BING")]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
        FixtureStore.load(path)


def test_fetch_serp_is_one_store_lookup(tmp_path):
    """A fetch replays its pair from the store; a miss or an unknown engine
    raises."""
    store = _load(tmp_path, [_page("q", "GOOGLE", ["a.com"])])
    assert _domains(fetch_serp("q", "GOOGLE", store)) == ["a.com"]
    with pytest.raises(FixtureMissError):
        fetch_serp("missing", "GOOGLE", store)
    with pytest.raises(UnknownEngineError):
        fetch_serp("q", "ASKJEEVES", store)


# --- discovery runs ---------------------------------------------------------


def _random_discovery_case(seed, tmp_path):
    rng = np.random.default_rng(seed)
    pool = [f"scam{i}.com" for i in range(12)] + [f"ok{i}.com" for i in range(12)]
    known = {pool[0], pool[12]}
    engines = ("GOOGLE", "BING")
    categories = ("shoes", "watches", "petmeds")
    ranked = [RankedKeyword(f"kw {i}", categories[i % 3], 0.5, i % 5 + 1)
              for i in range(12)]
    pages = {}
    for kw in ranked:
        for engine in engines:
            pages[(kw.text, engine)] = [
                pool[int(j)] for j in rng.integers(0, len(pool), size=5)]
    store = _load(tmp_path, [_page(query, engine, picks)
                             for (query, engine), picks in pages.items()])
    return ranked, store, pages, known, engines


def _verdict(domain):
    return "SCAM" if domain.startswith("scam") else "BENIGN"


def _classify(domains):
    return [_verdict(d) for d in domains]


def test_run_discovery_matches_brute_force_tally(tmp_path):
    for seed in (1, 2, 3):
        ranked, store, pages, known, engines = _random_discovery_case(seed, tmp_path)
        report = run_discovery(ranked, _classify, store, engines,
                               known_domains=known, exposure_k=3)

        # independent tally over the raw pages
        global_domains, by_cat = set(), {}
        top_k = {e: set() for e in engines}
        for kw in ranked:
            for engine in engines:
                for rank, domain in enumerate(pages[(kw.text, engine)], 1):
                    if domain in known:
                        continue
                    global_domains.add(domain)
                    by_cat.setdefault(kw.category, set()).add(domain)
                    if rank <= 3:
                        top_k[engine].add(domain)
        scams = {d for d in global_domains if _verdict(d) == "SCAM"}

        assert report.total_sites == len(global_domains)
        assert report.discovered_scams == len(scams)
        assert report.queries_run == len(ranked) * len(engines)
        assert [c.category for c in report.categories] == sorted(by_cat)
        for row in report.categories:
            domains = by_cat[row.category]
            assert row.total_sites == len(domains)
            assert row.discovered_scams == len(domains & scams)
        assert [e.engine for e in report.exposure] == sorted(engines)
        for exp in report.exposure:
            assert exp.total_scams == len(scams)
            assert exp.top_k_scams == len(top_k[exp.engine] & scams)
            assert exp.fraction == pytest.approx(
                len(top_k[exp.engine] & scams) / len(scams))
        # the digest hashes a constant mode and capture date
        blob = ('{"capture_date": null, "engines": ["GOOGLE", "BING"], '
                f'"exposure_k": 3, "mode": "REPLAY", "n_queries": {len(ranked)}}}')
        assert report.config_digest == hashlib.md5(blob.encode()).hexdigest()


def test_run_discovery_never_classifies_known_domains(tmp_path):
    ranked, store, pages, known, engines = _random_discovery_case(7, tmp_path)
    calls = []

    def classify(domains):
        calls.extend(domains)
        return ["BENIGN"] * len(domains)

    run_discovery(ranked, classify, store, engines,
                  known_domains=known)
    assert not set(calls) & known          # seed corpus is excluded up front
    assert len(calls) == len(set(calls))   # one verdict per unique domain


def test_run_discovery_classifies_once_after_all_searches(tmp_path):
    ranked, store, pages, known, engines = _random_discovery_case(5, tmp_path)
    batches = []

    def classify(domains):
        batches.append(list(domains))
        return _classify(domains)

    run_discovery(ranked, classify, store, engines,
                  known_domains=known)
    seen = {d for page in pages.values() for d in page} - known
    assert batches == [sorted(seen)]


def test_run_discovery_rejects_wrong_number_of_verdicts(tmp_path):
    ranked, store, _, known, engines = _random_discovery_case(5, tmp_path)
    with pytest.raises(ValueError):
        run_discovery(ranked, lambda ds: _classify(ds)[1:], store, engines,
                      known_domains=known)


def test_run_discovery_rejects_unknown_engine():
    with pytest.raises(UnknownEngineError):
        run_discovery([], _classify, FixtureStore(),
                      engines=("GOOGLE", "LYCOS"))


def test_run_discovery_rejects_a_repeated_engine(tmp_path):
    """A repeated engine would search every keyword twice."""
    ranked, store, _, known, _ = _random_discovery_case(5, tmp_path)
    with pytest.raises(SchemaError, match="engines must not repeat, got GOOGLE,BING,GOOGLE"):
        run_discovery(ranked, _classify, store, ("GOOGLE", "BING", "GOOGLE"),
                      known_domains=known)


def test_run_discovery_missing_fixture_propagates():
    ranked = [RankedKeyword("unseen query", "c", 0.5, 1)]
    with pytest.raises(FixtureMissError):
        run_discovery(ranked, _classify, FixtureStore())


# --- report serialization -----------------------------------------------------


def _sample_report(tmp_path):
    ranked, store, _, known, engines = _random_discovery_case(11, tmp_path)
    return run_discovery(ranked, _classify, store, engines,
                         known_domains=known, exposure_k=3)


def test_report_json_holds_every_count_the_csv_did(tmp_path):
    """Each category's counts and scam fraction, and the global totals and
    scam fraction: what the retired report.csv carried, one row each."""
    report = _sample_report(tmp_path)
    write_report(report, tmp_path / "report.json")
    blob = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [(c["category"], c["discovered_scams"], c["total_sites"])
            for c in blob["categories"]] == [
        (c.category, c.discovered_scams, c.total_sites) for c in report.categories]
    for row, count in zip(blob["categories"], report.categories):
        assert row["scam_fraction"] == count.discovered_scams / count.total_sites
    assert (blob["total_sites"], blob["discovered_scams"]) == (
        report.total_sites, report.discovered_scams)
    assert blob["scam_fraction"] == report.discovered_scams / report.total_sites
    assert blob["queries_run"] == report.queries_run
    assert blob["config_digest"] == report.config_digest
    assert blob["exposure"] == [
        {"engine": e.engine, "top_k_scams": e.top_k_scams,
         "total_scams": e.total_scams, "fraction": e.fraction}
        for e in report.exposure]
    # a category named ALL stays a category; the totals live at the top level
    odd = DiscoveryReport([CategoryCount("ALL", 1, 2), CategoryCount("b", 0, 1)],
                          total_sites=3, discovered_scams=1, exposure=[],
                          queries_run=0)
    write_report(odd, tmp_path / "odd.json")
    blob = json.loads((tmp_path / "odd.json").read_text(encoding="utf-8"))
    assert blob["categories"] == [
        {"category": "ALL", "discovered_scams": 1, "total_sites": 2,
         "scam_fraction": 0.5},
        {"category": "b", "discovered_scams": 0, "total_sites": 1,
         "scam_fraction": 0.0}]
    assert (blob["total_sites"], blob["discovered_scams"],
            blob["scam_fraction"]) == (3, 1, 1 / 3)


def test_write_report_is_byte_identical(tmp_path):
    report = _sample_report(tmp_path)
    write_report(report, tmp_path / "one.json")
    write_report(report, tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == \
        (tmp_path / "two.json").read_bytes()


def test_write_report_picks_format_from_suffix(tmp_path):
    """There is one format: the suffix picks nothing."""
    report = _sample_report(tmp_path)
    write_report(report, tmp_path / "r.json")
    write_report(report, tmp_path / "r.csv")
    text = (tmp_path / "r.json").read_text(encoding="utf-8")
    assert text == json.dumps(report.as_dict(), sort_keys=True, indent=1)
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == text


def test_empty_report_is_header_only(tmp_path):
    """No categories: the report still holds every key, with zero counts."""
    report = DiscoveryReport(categories=[], total_sites=0, discovered_scams=0,
                             exposure=[], queries_run=0)
    write_report(report, tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == {
        "categories": [], "config_digest": "", "discovered_scams": 0,
        "exposure": [], "queries_run": 0, "scam_fraction": 0.0,
        "total_sites": 0}
    assert report.scam_fraction == 0.0
