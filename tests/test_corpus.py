"""Snapshot corpus: parsing, admission, root domains, file round trips."""

import json
import re
from dataclasses import asdict
from datetime import date, datetime, timezone

import numpy as np
import pytest

from scamscout.corpus import (
    DomainSnapshot,
    KeywordSuggestion,
    LabeledDomain,
    RankSignals,
    SerpEntry,
    SerpResultSet,
    SnapshotState,
    WhoisRecord,
    admit,
    is_parked,
    parse_snapshot,
    read_keywords,
    read_labels,
    read_serps,
    read_snapshots,
    serialize_snapshot,
    serp_from_record,
    snapshot_state,
    write_keywords,
    write_labels,
    write_serps,
)
from scamscout.errors import (
    SchemaError,
    UnreachableSnapshotError,
    UrlError,
)
from scamscout.psl import public_suffix, root_domain

FETCHED = datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc)


def _full_snapshot() -> DomainSnapshot:
    return DomainSnapshot(
        url="http://deal-site.shop/",
        fetched_at=FETCHED,
        http_status=200,
        final_url="https://deal-site.shop/home",
        html="<html><title>Deals</title><body>80% off</body></html>",
        dns={"a": ["1.2.3.4"], "mx": ["mx1.deal-site.shop", "mx2.deal-site.shop"],
             "txt": ["v=spf1 -all"]},
        whois=WhoisRecord(
            created=date(2024, 1, 10),
            expires=date(2025, 1, 10),
            registrar="CheapNames Inc",
            registrar_country="US",
            registrant_country="CN",
            privacy=True,
            registrant_email_domain="gmail.com",
        ),
        ranks=RankSignals(tranco=123456, majestic=99999),
    )


# --- snapshot (de)serialization ------------------------------------------------


def test_snapshot_round_trip_preserves_every_field():
    snap = _full_snapshot()
    back = parse_snapshot(serialize_snapshot(snap))
    assert back == snap


def test_snapshot_round_trip_minimal_unreachable():
    snap = DomainSnapshot(url="http://gone.example.com/", fetched_at=FETCHED)
    back = parse_snapshot(serialize_snapshot(snap))
    assert back == snap
    assert not back.resolving


def test_parse_snapshot_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "snaps.jsonl"
    good = serialize_snapshot(_full_snapshot()) + "\n"
    path.write_text(good * 5 + "\n" + "{not json\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:7: Expecting property name enclosed in double quotes")):
        list(read_snapshots(path))


def test_parse_snapshot_rejects_missing_url():
    raw = json.dumps({"fetched_at": "2024-03-01T12:00:00Z"})
    with pytest.raises(SchemaError):
        parse_snapshot(raw)


def test_read_snapshots_streams_file(tmp_path):
    path = tmp_path / "snaps.jsonl"
    snaps = [_full_snapshot(),
             DomainSnapshot(url="http://other.com/", fetched_at=FETCHED)]
    path.write_text("".join(serialize_snapshot(s) + "\n" for s in snaps))
    assert list(read_snapshots(path)) == snaps


# --- registrable domains ---------------------------------------------------------


def test_root_domain_known_cases():
    cases = {
        "https://example.com/x": "example.com",
        "https://www.example.com": "example.com",
        "https://a.b.example.co.uk/p?q=1": "example.co.uk",
        "https://user.github.io/page": "user.github.io",  # private suffix
        "http://example.nosuchtld": "example.nosuchtld",  # implicit * rule
        "http://sub.example.nosuchtld": "example.nosuchtld",
        "http://example.com:8080/": "example.com",
        "http://EXAMPLE.COM./": "example.com",  # case and trailing dot
        "http://1.2.3.4/path": "1.2.3.4",  # IP literal passes through
    }
    for url, expected in cases.items():
        assert root_domain(url) == expected, url


def test_root_domain_wildcard_and_exception_rules():
    # *.ck makes foo.ck a public suffix, !www.ck carves the exception out
    assert public_suffix("shop.anything.ck") == "anything.ck"
    assert root_domain("http://shop.anything.ck/") == "shop.anything.ck"
    # !www.ck: www.ck is not a suffix, so it is itself the registrable domain
    assert root_domain("http://www.ck/") == "www.ck"
    assert root_domain("http://sub.www.ck/") == "www.ck"


def test_root_domain_bare_suffix_returned_as_is():
    assert root_domain("http://com/") == "com"
    assert root_domain("http://co.uk/") == "co.uk"


def test_root_domain_rejects_relative_url():
    with pytest.raises(UrlError):
        root_domain("not-a-url")
    with pytest.raises(UrlError):
        root_domain("/relative/path")


# --- parked detection and admission ----------------------------------------------


def _load_parked_fixture(fixtures_dir):
    rows = []
    for line in (fixtures_dir / "parked_50.jsonl").read_text().splitlines():
        rows.append(json.loads(line))
    return rows


def test_parked_fixture_has_no_false_negatives(fixtures_dir):
    rows = _load_parked_fixture(fixtures_dir)
    assert len(rows) == 50
    for row in rows:
        snap = DomainSnapshot(url=row["url"], fetched_at=FETCHED,
                              http_status=200, html=row["html"])
        assert is_parked(snap) == row["parked"], row["url"]


def test_is_parked_raises_on_unreachable():
    snap = DomainSnapshot(url="http://dead.com/", fetched_at=FETCHED)
    with pytest.raises(UnreachableSnapshotError):
        is_parked(snap)


def test_snapshot_state_three_way():
    live = DomainSnapshot(url="http://a.com/", fetched_at=FETCHED,
                          http_status=200, html="<html>shop</html>")
    parked = DomainSnapshot(url="http://b.com/", fetched_at=FETCHED,
                            http_status=200,
                            html="<p>buy this domain today</p>")
    dead = DomainSnapshot(url="http://c.com/", fetched_at=FETCHED)
    assert snapshot_state(live) is SnapshotState.LIVE
    assert snapshot_state(parked) is SnapshotState.PARKED
    assert snapshot_state(dead) is SnapshotState.UNREACHABLE


def test_admit_requires_live_2xx_page():
    ok = DomainSnapshot(url="http://a.com/", fetched_at=FETCHED,
                        http_status=200, html="<html>shop</html>")
    redirect_only = DomainSnapshot(url="http://b.com/", fetched_at=FETCHED,
                                   http_status=0, html="")
    parked = DomainSnapshot(url="http://c.com/", fetched_at=FETCHED,
                            http_status=200, html="domain is parked")
    assert admit(ok)
    assert not admit(redirect_only)
    assert not admit(parked)


# --- keyword / serp / label IO -----------------------------------------------


def test_keyword_round_trip_and_normalization(tmp_path):
    kws = [
        KeywordSuggestion("  Cheap SHOES  ", "seed.com", "sneakers", "LOW", 1200),
        KeywordSuggestion("watch outlet", "seed.com", "watches", "HIGH", None),
    ]
    assert kws[0].text == "cheap shoes"
    path = tmp_path / "kw.jsonl"
    write_keywords(path, kws)
    assert read_keywords(path) == kws
    # an absent key takes the field's default; a volume may be null
    path.write_text('{"text": "shoes"}\n{"text": "bags", "monthly_volume": null}\n')
    assert read_keywords(path) == [
        KeywordSuggestion("shoes", "", "", "LOW", None),
        KeywordSuggestion("bags", "", "", "LOW", None)]
    path.write_text('{"text": "shoes"}\n{"category": "bags"}\n')
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: missing key 'text'")):
        read_keywords(path)


def test_keyword_rejects_empty_text_and_bad_competition():
    with pytest.raises(SchemaError):
        KeywordSuggestion("   ")
    with pytest.raises(SchemaError):
        KeywordSuggestion("shoes", competition="EXTREME")


def test_serp_entry_validation_and_auto_root_domain():
    entry = SerpEntry(engine="GOOGLE", rank=3, url="https://www.shop.co.uk/x")
    assert entry.root_domain == "shop.co.uk"
    with pytest.raises(SchemaError):
        SerpEntry(engine="DUCKDUCKGO", rank=1, url="http://a.com/")
    with pytest.raises(SchemaError):
        SerpEntry(engine="GOOGLE", rank=0, url="http://a.com/")


def test_serp_result_set_sorts_and_dedups_domains():
    entries = [
        SerpEntry(engine="BING", rank=2, url="http://b.com/1"),
        SerpEntry(engine="GOOGLE", rank=1, url="http://a.com/"),
        SerpEntry(engine="BING", rank=1, url="http://www.b.com/2"),
    ]
    rs = SerpResultSet(query="q", entries=entries)
    assert [(e.engine, e.rank) for e in rs.entries] == [
        ("BING", 1), ("BING", 2), ("GOOGLE", 1)]
    assert rs.root_domains() == {"a.com", "b.com"}


@pytest.mark.parametrize("rank", [1.5, True, "2", None])
def test_serp_entry_rejects_non_integer_rank(rank):
    record = {"query": "q", "entries": [
        {"engine": "GOOGLE", "rank": rank, "url": "http://a.com/"}]}
    with pytest.raises(SchemaError, match="rank must be an integer"):
        serp_from_record(record)


def test_serp_entry_stores_integral_rank_as_int():
    entry = SerpEntry(engine="GOOGLE", rank=np.int64(4), url="http://a.com/")
    assert entry.rank == 4 and type(entry.rank) is int


def test_serp_record_round_trip(tmp_path):
    rs = SerpResultSet(query="cheap shoes", entries=[
        SerpEntry(engine="GOOGLE", rank=1, url="http://a.com/",
                  title="A", description="d1"),
        SerpEntry(engine="BING", rank=1, url="http://b.com/",
                  title="B", description="d2"),
    ])
    assert serp_from_record(asdict(rs)) == rs
    path = tmp_path / "serps.jsonl"
    write_serps(path, [rs])
    assert read_serps(path) == [rs]
    # an absent key takes the field's default (the root domain is the URL's),
    # an explicit null stays None
    entry = {"engine": "GOOGLE", "rank": 1, "url": "http://www.c.com/"}
    lines = [{"query": "q", "entries": [entry]},
             {"query": "r", "entries": [dict(entry, title=None)]}, {"query": "s"}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert read_serps(path) == [
        SerpResultSet("q", [SerpEntry("GOOGLE", 1, "http://www.c.com/", "", "", "c.com")]),
        SerpResultSet("r", [SerpEntry("GOOGLE", 1, "http://www.c.com/", None, "", "c.com")]),
        SerpResultSet("s", [])]
    del entry["url"]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(SchemaError, match=re.escape(f"{path}:1: missing key 'url'")):
        read_serps(path)


def test_labels_round_trip_and_conflict(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(path, [
        LabeledDomain("SCAM-site.com", "SCAM", "sneakers"),
        LabeledDomain("ok.com", "BENIGN", ""),
        LabeledDomain("scam-site.com", "SCAM", "sneakers"),  # consistent dup
    ])
    labels = read_labels(path)
    assert len(labels) == 2  # dedup keeps one row
    assert labels[0].root_domain == "scam-site.com"  # lowercased

    write_labels(path, [LabeledDomain("x.com", "SCAM"),
                        LabeledDomain("x.com", "BENIGN")])
    with pytest.raises(SchemaError):
        read_labels(path)


def test_labeled_domain_rejects_unknown_label():
    with pytest.raises(SchemaError):
        LabeledDomain("a.com", "MAYBE")
