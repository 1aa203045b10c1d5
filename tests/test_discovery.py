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


def _record(query, engine, capture_date, domains):
    return {"query": query, "engine": engine, "capture_date": capture_date,
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


def test_store_loads_an_identical_duplicate_once(tmp_path):
    record = _record("cheap shoes", "GOOGLE", "2024-05-01", ["a.com", "b.com"])
    store = _load(tmp_path, [record, record])   # same bits: fine
    assert len(store) == 1
    got = store.get("cheap shoes", "GOOGLE")
    assert got.query == "cheap shoes"
    assert _domains(got) == ["a.com", "b.com"]
    assert [e.rank for e in got.entries] == [1, 2]


def test_store_rejects_conflicting_fixture(tmp_path):
    with pytest.raises(SchemaError, match=re.escape(
            "fixtures.jsonl:2: conflicting fixture for ('q', GOOGLE, 2024-05-01)")):
        _load(tmp_path, [_record("q", "GOOGLE", "2024-05-01", ["a.com"]),
                         _record("q", "GOOGLE", "2024-05-01", ["b.com"])])


def test_store_rejects_unknown_engine(tmp_path):
    with pytest.raises(SchemaError,
                       match=re.escape("fixtures.jsonl:1: unknown engine: 'ALTAVISTA'")):
        _load(tmp_path, [_record("q", "ALTAVISTA", "2024-05-01", [])])


def test_store_get_latest_when_date_omitted(tmp_path):
    """A lookup names no date: it gets the latest capture, in any file order."""
    old = _record("q", "GOOGLE", "2024-04-01", ["old.com"])
    new = _record("q", "GOOGLE", "2024-05-01", ["new.com"])
    for records in ([old, new], [new, old]):
        store = _load(tmp_path, records)
        assert len(store) == 2
        assert _domains(store.get("q", "GOOGLE")) == ["new.com"]


def test_store_latest_index_matches_brute_force_max(tmp_path):
    rng = np.random.default_rng(5)
    captures = [(f"q{i}", engine, f"2024-{m:02d}-{d:02d}")
                for i in range(6) for engine in ("GOOGLE", "BING")
                for m in range(1, 7) for d in (1, 15)
                if rng.random() < 0.6]
    captures += captures[:10]  # loading the same capture again is a no-op
    store = _load(tmp_path, [_record(*captures[j], [f"{captures[j][2]}.com"])
                             for j in rng.permutation(len(captures))])
    assert len(store) == len(set(captures))
    for query, engine in {(q, e) for q, e, _ in captures}:
        want = max(c for q, e, c in captures if (q, e) == (query, engine))
        assert _domains(store.get(query, engine)) == [f"{want}.com"]


def test_store_miss_raises(tmp_path):
    store = _load(tmp_path, [_record("q", "GOOGLE", "2024-05-01", [])])
    assert store.get("q", "GOOGLE").entries == []
    with pytest.raises(FixtureMissError):
        store.get("other", "GOOGLE")
    with pytest.raises(FixtureMissError):
        store.get("q", "BING")
    with pytest.raises(FixtureMissError):
        FixtureStore().get("q", "GOOGLE")


def test_changing_a_fetched_result_leaves_the_store_unchanged(tmp_path):
    store = _load(tmp_path, [_record("q", "GOOGLE", "2024-05-01",
                                     ["a.com", "b.com"])])
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
    record = _record("q", "GOOGLE", "2024-05-01", [])
    record["entries"] = [{"engine": "GOOGLE", "rank": 1,
                          "url": "https://www.a.co.uk/x", "root_domain": "other.com"}]
    assert _domains(_load(tmp_path, [record]).get("q", "GOOGLE")) == ["a.co.uk"]


def test_load_rejects_an_entry_a_replay_cannot_parse(tmp_path):
    # the entry names its own root domain, but a replay derives it from the URL
    record = _record("q", "GOOGLE", "2024-05-01", ["a.com", "b.com"])
    record["entries"][1].update(url="not-a-url", root_domain="a.com")
    path = _write(tmp_path / "fixtures.jsonl",
                  [_record("q", "BING", "2024-05-01", ["a.com"]), record])
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:2: not an absolute URL: 'not-a-url'")):
        FixtureStore.load(path)


def test_store_load_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"query": "q", "engine": "GOOGLE", "capture_date": "d", "entries": []}\n{broken\n')
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: Expecting")):
        FixtureStore.load(path)


_GOOD_ENTRY = {"engine": "GOOGLE", "rank": 1, "url": "https://a.com/x"}


@pytest.mark.parametrize("record", [
    {"engine": "GOOGLE", "capture_date": "2024-01-01", "entries": []},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01"},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [{"engine": "GOOGLE", "url": "https://a.com/x"}]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank="first")]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank=None)]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank=0)]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank=1.5)]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank=True)]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, rank="2")]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, url="not-a-url")]},
    ["not", "an", "object"],
    {"query": 7, "engine": "GOOGLE", "capture_date": "2024-01-01", "entries": []},
    {"query": "q", "engine": "GOOGLE", "capture_date": 20240101, "entries": []},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [dict(_GOOD_ENTRY, title=None)]},
    # a capture is one engine's page: no entry of another engine, no rank twice
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [_GOOD_ENTRY, dict(_GOOD_ENTRY, engine="BING", rank=2)]},
    {"query": "q", "engine": "GOOGLE", "capture_date": "2024-01-01",
     "entries": [_GOOD_ENTRY, dict(_GOOD_ENTRY, url="https://b.com/x")]},
])
def test_store_load_names_line_of_malformed_record(tmp_path, record):
    good = {"query": "q", "engine": "BING", "capture_date": "2024-01-01",
            "entries": [dict(_GOOD_ENTRY, engine="BING")]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
        FixtureStore.load(path)


def test_fetch_serp_modes_and_validation(tmp_path):
    """Replay is the only mode: a fetch is one store lookup."""
    store = _load(tmp_path, [_record("q", "GOOGLE", "2024-05-01", ["a.com"])])
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
    store = _load(tmp_path, [_record(query, engine, "2024-05-01", picks)
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
        # the digest still hashes a constant mode and capture date
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
