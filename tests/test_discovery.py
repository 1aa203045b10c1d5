"""SERP replay/live fetching and the discovery report."""

import dataclasses
import json
import re

import numpy as np
import pytest

from scamscout.corpus import SerpEntry
from scamscout.discovery import (
    CategoryCount,
    DiscoveryReport,
    FixtureStore,
    LiveSession,
    _fixture_id,
    fetch_serp,
    report_from_csv,
    report_from_json,
    report_to_json,
    run_discovery,
    write_report,
)
from scamscout.errors import (
    FixtureMissError,
    SchemaError,
    TransportError,
    UnknownEngineError,
    UrlError,
)
from scamscout.lupi import RankedKeyword


def _entry(domain, engine="GOOGLE", rank=1):
    return SerpEntry(engine=engine, rank=rank, url=f"https://{domain}/p",
                     root_domain=domain)


def _entries(domains, engine="GOOGLE"):
    return [_entry(d, engine, i + 1) for i, d in enumerate(domains)]


# --- fixture store ----------------------------------------------------------


def test_store_round_trip_and_idempotent_put():
    store = FixtureStore()
    entries = _entries(["a.com", "b.com"])
    store.put("cheap shoes", "GOOGLE", "2024-05-01", entries)
    store.put("cheap shoes", "GOOGLE", "2024-05-01", entries)  # same bits: fine
    assert len(store) == 1
    got = store.get("cheap shoes", "GOOGLE", "2024-05-01")
    assert got.query == "cheap shoes"
    assert [e.root_domain for e in got.entries] == ["a.com", "b.com"]
    assert [e.rank for e in got.entries] == [1, 2]


def test_store_rejects_conflicting_fixture():
    store = FixtureStore()
    store.put("q", "GOOGLE", "2024-05-01", _entries(["a.com"]))
    with pytest.raises(SchemaError):
        store.put("q", "GOOGLE", "2024-05-01", _entries(["b.com"]))


def test_store_rejects_unknown_engine():
    with pytest.raises(UnknownEngineError):
        FixtureStore().put("q", "ALTAVISTA", "2024-05-01", [])


def test_store_get_latest_when_date_omitted():
    store = FixtureStore()
    store.put("q", "GOOGLE", "2024-04-01", _entries(["old.com"]))
    store.put("q", "GOOGLE", "2024-05-01", _entries(["new.com"]))
    latest = store.get("q", "GOOGLE")
    assert [e.root_domain for e in latest.entries] == ["new.com"]
    dated = store.get("q", "GOOGLE", "2024-04-01")
    assert [e.root_domain for e in dated.entries] == ["old.com"]


def test_store_latest_index_matches_brute_force_max():
    rng = np.random.default_rng(5)
    puts = [(f"q{i}", engine, f"2024-{m:02d}-{d:02d}")
            for i in range(6) for engine in ("GOOGLE", "BING")
            for m in range(1, 7) for d in (1, 15)
            if rng.random() < 0.6]
    puts += puts[:10]  # re-putting the same capture is a no-op
    store = FixtureStore()
    for j in rng.permutation(len(puts)):
        query, engine, capture = puts[j]
        store.put(query, engine, capture, _entries([f"{capture}.com"], engine))
    for query, engine in {(q, e) for q, e, _ in puts}:
        want = max((c, _fixture_id(q, e, c)) for q, e, c in puts
                   if (q, e) == (query, engine))
        got = store.get(query, engine)
        assert [e.root_domain for e in got.entries] == [f"{want[0]}.com"]
        assert got == store.get(query, engine, want[0])


def test_store_miss_raises():
    store = FixtureStore()
    with pytest.raises(FixtureMissError):
        store.get("q", "GOOGLE")
    store.put("q", "GOOGLE", "2024-05-01", [])
    with pytest.raises(FixtureMissError):
        store.get("q", "GOOGLE", "2024-06-01")
    with pytest.raises(FixtureMissError):
        store.get("q", "BING")


def test_store_save_load_round_trip(tmp_path):
    store = FixtureStore()
    store.put("q one", "GOOGLE", "2024-05-01", _entries(["a.com", "b.com"]))
    store.put("q two", "BING", "2024-05-02", _entries(["c.com"], "BING"))
    path = tmp_path / "serps.jsonl"
    store.save(path)
    loaded = FixtureStore.load(path)
    assert len(loaded) == 2
    for query, engine in (("q one", "GOOGLE"), ("q two", "BING")):
        a = store.get(query, engine)
        b = loaded.get(query, engine)
        assert a == b
    loaded.save(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_changing_a_fetched_result_leaves_the_store_unchanged(tmp_path):
    store = FixtureStore()
    store.put("q", "GOOGLE", "2024-05-01", _entries(["a.com", "b.com"]))
    store.save(tmp_path / "before.jsonl")
    before = list(store.get("q", "GOOGLE").entries)
    got = store.get("q", "GOOGLE")
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.entries[0].rank = 7
    got.entries[0] = _entry("evil.com")
    got.entries.append(_entry("more.com", rank=3))
    got.entries.sort(key=lambda e: -e.rank)
    assert store.get("q", "GOOGLE").entries == before
    assert store.get("q", "GOOGLE", "2024-05-01").entries == before
    store.save(tmp_path / "after.jsonl")
    assert (tmp_path / "after.jsonl").read_bytes() == (tmp_path / "before.jsonl").read_bytes()


def test_store_serves_the_root_domain_of_the_url():
    # the stored fields hold no root domain, so a replay derives it from the URL
    store = FixtureStore()
    store.put("q", "GOOGLE", "2024-05-01",
              [SerpEntry(engine="GOOGLE", rank=1, url="https://www.a.co.uk/x",
                         root_domain="other.com")])
    assert [e.root_domain for e in store.get("q", "GOOGLE").entries] == ["a.co.uk"]


_UNREPLAYABLE = SerpEntry(engine="GOOGLE", rank=1, url="not-a-url", root_domain="a.com")


def test_put_rejects_an_entry_a_replay_cannot_parse():
    # the entry carries its own root domain, but a replay derives it from the URL
    store = FixtureStore()
    with pytest.raises(UrlError):
        store.put("q", "GOOGLE", "2024-05-01", [_entry("a.com"), _UNREPLAYABLE])
    assert len(store) == 0
    with pytest.raises(FixtureMissError):
        store.get("q", "GOOGLE")


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
])
def test_store_load_names_line_of_malformed_record(tmp_path, record):
    good = {"query": "q", "engine": "BING", "capture_date": "2024-01-01",
            "entries": [dict(_GOOD_ENTRY, engine="BING")]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
        FixtureStore.load(path)


# --- live session -----------------------------------------------------------


class _FakeClock:
    def __init__(self, step=0.1):
        self.now = 0.0
        self.step = step
        self.slept: list[float] = []

    def clock(self):
        self.now += self.step
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_live_session_spaces_requests():
    clock = _FakeClock(step=0.1)
    session = LiveSession(transport=lambda q, e: _entries(["a.com"]),
                          min_delay=1.0, retries=0,
                          sleep=clock.sleep, clock=clock.clock)
    session.fetch("q1", "GOOGLE")
    assert clock.slept == []  # first request goes out immediately
    session.fetch("q2", "GOOGLE")
    assert len(clock.slept) == 1
    assert clock.slept[0] == pytest.approx(0.9)  # tops the gap up to min_delay


def test_live_session_retries_then_raises():
    attempts = []

    def flaky(query, engine):
        attempts.append(engine)
        if len(attempts) < 2:
            raise OSError("connection reset")
        return _entries(["ok.com"])

    clock = _FakeClock()
    session = LiveSession(transport=flaky, min_delay=0.0, retries=1,
                          sleep=clock.sleep, clock=clock.clock)
    got = session.fetch("q", "GOOGLE")
    assert [e.root_domain for e in got] == ["ok.com"]
    assert len(attempts) == 2

    def dead(query, engine):
        attempts.append(engine)
        raise OSError("down")

    attempts.clear()
    session = LiveSession(transport=dead, min_delay=0.0, retries=2,
                          sleep=clock.sleep, clock=clock.clock)
    with pytest.raises(TransportError, match="3 attempts"):
        session.fetch("q", "BING")
    assert len(attempts) == 3


def test_fetch_serp_modes_and_validation():
    store = FixtureStore()
    store.put("q", "GOOGLE", "2024-05-01", _entries(["a.com"]))
    got = fetch_serp("q", "GOOGLE", store)
    assert [e.root_domain for e in got.entries] == ["a.com"]
    with pytest.raises(FixtureMissError):
        fetch_serp("missing", "GOOGLE", store)
    with pytest.raises(FixtureMissError):
        fetch_serp("q", "GOOGLE", store=None)
    with pytest.raises(UnknownEngineError):
        fetch_serp("q", "ASKJEEVES", store)


def test_live_fetch_records_into_store():
    clock = _FakeClock()
    session = LiveSession(transport=lambda q, e: _entries(["live.com"]),
                          min_delay=0.0, retries=0,
                          sleep=clock.sleep, clock=clock.clock)
    store = FixtureStore()
    got = fetch_serp("q", "GOOGLE", store, session, capture_date="2024-06-01")
    assert [e.root_domain for e in got.entries] == ["live.com"]
    replayed = fetch_serp("q", "GOOGLE", store, capture_date="2024-06-01")
    assert replayed == got


def test_live_fetch_of_an_unreplayable_entry_raises_and_records_nothing():
    clock = _FakeClock()
    session = LiveSession(transport=lambda q, e: [_UNREPLAYABLE],
                          min_delay=0.0, retries=0,
                          sleep=clock.sleep, clock=clock.clock)
    store = FixtureStore()
    with pytest.raises(UrlError):
        fetch_serp("q", "GOOGLE", store, session, capture_date="2024-06-01")
    assert len(store) == 0
    got = fetch_serp("q", "GOOGLE", None, session)    # nothing to record
    assert got.entries == [_UNREPLAYABLE]


# --- discovery runs ---------------------------------------------------------


def _random_discovery_case(seed):
    rng = np.random.default_rng(seed)
    pool = [f"scam{i}.com" for i in range(12)] + [f"ok{i}.com" for i in range(12)]
    known = {pool[0], pool[12]}
    engines = ("GOOGLE", "BING")
    categories = ("shoes", "watches", "petmeds")
    ranked = [RankedKeyword(f"kw {i}", categories[i % 3], 0.5, i % 5 + 1)
              for i in range(12)]
    store = FixtureStore()
    pages = {}
    for kw in ranked:
        for engine in engines:
            picks = [pool[int(j)] for j in rng.integers(0, len(pool), size=5)]
            entries = [_entry(d, engine, r + 1) for r, d in enumerate(picks)]
            store.put(kw.text, engine, "2024-05-01", entries)
            pages[(kw.text, engine)] = picks
    return ranked, store, pages, known, engines


def _verdict(domain):
    return "SCAM" if domain.startswith("scam") else "BENIGN"


def _classify(domains):
    return [_verdict(d) for d in domains]


def test_run_discovery_matches_brute_force_tally():
    for seed in (1, 2, 3):
        ranked, store, pages, known, engines = _random_discovery_case(seed)
        report = run_discovery(ranked, _classify, store, engines,
                               known_domains=known, exposure_k=3,
                               capture_date="2024-05-01")

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


def test_run_discovery_never_classifies_known_domains():
    ranked, store, pages, known, engines = _random_discovery_case(7)
    calls = []

    def classify(domains):
        calls.extend(domains)
        return ["BENIGN"] * len(domains)

    run_discovery(ranked, classify, store, engines,
                  known_domains=known, capture_date="2024-05-01")
    assert not set(calls) & known          # seed corpus is excluded up front
    assert len(calls) == len(set(calls))   # one verdict per unique domain


def test_run_discovery_classifies_once_after_all_searches():
    ranked, store, pages, known, engines = _random_discovery_case(5)
    batches = []

    def classify(domains):
        batches.append(list(domains))
        return _classify(domains)

    run_discovery(ranked, classify, store, engines,
                  known_domains=known, capture_date="2024-05-01")
    seen = {d for page in pages.values() for d in page} - known
    assert batches == [sorted(seen)]


def test_run_discovery_rejects_wrong_number_of_verdicts():
    ranked, store, _, known, engines = _random_discovery_case(5)
    with pytest.raises(ValueError):
        run_discovery(ranked, lambda ds: _classify(ds)[1:], store, engines,
                      known_domains=known, capture_date="2024-05-01")


def test_run_discovery_rejects_unknown_engine():
    with pytest.raises(UnknownEngineError):
        run_discovery([], _classify, FixtureStore(),
                      engines=("GOOGLE", "LYCOS"))


def test_run_discovery_missing_fixture_propagates():
    ranked = [RankedKeyword("unseen query", "c", 0.5, 1)]
    with pytest.raises(FixtureMissError):
        run_discovery(ranked, _classify, FixtureStore())


# --- report serialization -----------------------------------------------------


def _sample_report():
    ranked, store, _, known, engines = _random_discovery_case(11)
    return run_discovery(ranked, _classify, store, engines,
                         known_domains=known, exposure_k=3,
                         capture_date="2024-05-01")


def test_report_csv_round_trip(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "category,discovered_scams,total_sites,scam_fraction"
    assert lines[-1].startswith("ALL,")
    back = report_from_csv(path)
    assert back.categories == report.categories
    assert back.total_sites == report.total_sites
    assert back.discovered_scams == report.discovered_scams
    # a category named ALL stays a category; the last row holds the totals
    odd = DiscoveryReport([CategoryCount("ALL", 1, 2), CategoryCount("b", 0, 1)],
                          total_sites=3, discovered_scams=1, exposure=[],
                          queries_run=0)
    write_report(odd, path)
    back = report_from_csv(path)
    assert (back.categories, back.total_sites, back.discovered_scams) == (
        odd.categories, 3, 1)
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:1: header column 1 is 'wrong', expected 'category'")):
        report_from_csv(path)


def test_report_json_round_trip_keeps_exposure():
    report = _sample_report()
    back = report_from_json(report_to_json(report))
    assert back == report


def test_write_report_is_byte_identical(tmp_path):
    report = _sample_report()
    for suffix in (".csv", ".json"):
        write_report(report, tmp_path / f"one{suffix}")
        write_report(report, tmp_path / f"two{suffix}")
        assert (tmp_path / f"one{suffix}").read_bytes() == \
            (tmp_path / f"two{suffix}").read_bytes()


def test_write_report_picks_format_from_suffix(tmp_path):
    report = _sample_report()
    write_report(report, tmp_path / "r.json")
    write_report(report, tmp_path / "r.csv")
    assert (tmp_path / "r.json").read_text().lstrip().startswith("{")
    assert (tmp_path / "r.csv").read_text().startswith("category,")


def test_empty_report_is_header_only(tmp_path):
    report = DiscoveryReport(categories=[], total_sites=0, discovered_scams=0,
                             exposure=[], queries_run=0)
    write_report(report, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == \
        b"category,discovered_scams,total_sites,scam_fraction\n"
    assert report.scam_fraction == 0.0
