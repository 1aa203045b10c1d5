"""Snapshot corpus: record readers, admission, root domains."""

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
    read_keywords,
    read_labels,
    read_serps,
    read_snapshots,
    serp_from_record,
    snapshot_from_record,
    snapshot_state,
    write_keywords,
)
from scamscout.errors import (
    SchemaError,
    UnreachableSnapshotError,
    UrlError,
)
from scamscout.psl import public_suffix, root_domain

FETCHED = datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc)


# one snapshots.jsonl record holding every field, as a crawler writes it
_FULL_RECORD = {
    "url": "http://deal-site.shop/",
    "fetched_at": "2024-03-01T12:00:00Z",
    "http_status": 200,
    "final_url": "https://deal-site.shop/home",
    "html": "<html><title>Deals</title><body>80% off</body></html>",
    "dns": {"a": ["1.2.3.4"], "mx": ["mx1.deal-site.shop", "mx2.deal-site.shop"],
            "txt": ["v=spf1 -all"]},
    "whois": {"created": "2024-01-10", "expires": "2025-01-10",
              "registrar": "CheapNames Inc", "registrar_country": "US",
              "registrant_country": "CN", "privacy": True,
              "registrant_email_domain": "gmail.com"},
    "ranks": {"tranco": 123456, "majestic": 99999, "majestic_refips": 12,
              "majestic_refsubnets": 7, "majestic_tldrank": 345, "cisco": 678},
}


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
        ranks=RankSignals(tranco=123456, majestic=99999, majestic_refips=12,
                          majestic_refsubnets=7, majestic_tldrank=345,
                          cisco=678),
    )


def _jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")


# --- snapshot records ----------------------------------------------------------


def test_snapshot_round_trip_preserves_every_field(tmp_path):
    """Every field of a literal record is read; fetched_at given with Z, with
    an offset or naive is the same UTC instant."""
    path = tmp_path / "snaps.jsonl"
    stamps = ["2024-03-01T12:00:00Z", "2024-03-01T14:00:00+02:00",
              "2024-03-01T12:00:00"]
    _jsonl(path, [dict(_FULL_RECORD, fetched_at=t) for t in stamps])
    snaps = list(read_snapshots(path))
    assert snaps == [_full_snapshot()] * 3
    for snap in snaps:
        assert snap.fetched_at.tzinfo is timezone.utc
        assert snap.whois.privacy is True
        assert snap.whois.created == date(2024, 1, 10)
    assert snapshot_from_record(_FULL_RECORD) == _full_snapshot()


def test_snapshot_round_trip_minimal_unreachable():
    back = snapshot_from_record({"url": "http://gone.example.com/",
                                 "fetched_at": "2024-03-01T12:00:00Z"})
    assert back == DomainSnapshot(url="http://gone.example.com/",
                                  fetched_at=FETCHED)
    assert not back.resolving
    assert back.whois.is_empty and back.ranks == RankSignals()
    assert back.final_url is None and back.dns == {} and back.html == ""


def test_parse_snapshot_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "snaps.jsonl"
    good = json.dumps(_FULL_RECORD) + "\n"
    path.write_text(good * 5 + "\n" + "{not json\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:7: Expecting property name enclosed in double quotes")):
        list(read_snapshots(path))


def test_parse_snapshot_rejects_missing_url():
    with pytest.raises(SchemaError, match="missing 'url'"):
        snapshot_from_record({"fetched_at": "2024-03-01T12:00:00Z"})


def test_read_snapshots_streams_file(tmp_path):
    path = tmp_path / "snaps.jsonl"
    _jsonl(path, [_FULL_RECORD, {"url": "http://other.com/",
                                 "fetched_at": "2024-03-01T12:00:00Z"}])
    snaps = read_snapshots(path)
    assert next(snaps) == _full_snapshot()
    assert list(snaps) == [DomainSnapshot(url="http://other.com/",
                                          fetched_at=FETCHED)]


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
    with pytest.raises(TypeError):   # derived from the URL, never given
        SerpEntry(engine="GOOGLE", rank=3, url="https://a.com/", root_domain="b.com")
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


@pytest.mark.parametrize("rank", [True, 1.5, "2", 0, np.int64(0)])
def test_serp_entry_constructor_rejects_a_non_rank(rank):
    with pytest.raises(SchemaError) as err:
        SerpEntry(engine="GOOGLE", rank=rank, url="http://a.com/")
    assert str(err.value) == f"rank must be an integer >= 1, got {rank!r}"


def test_serp_entry_stores_integral_rank_as_int():
    entry = SerpEntry(engine="GOOGLE", rank=np.int64(4), url="http://a.com/")
    assert entry.rank == 4 and type(entry.rank) is int


def test_serp_record_round_trip(tmp_path):
    """A serps.jsonl record holding two engines reads back as one page."""
    rs = SerpResultSet(query="cheap shoes", entries=[
        SerpEntry(engine="GOOGLE", rank=1, url="http://a.com/",
                  title="A", description="d1"),
        SerpEntry(engine="BING", rank=1, url="http://b.com/",
                  title="B", description="d2"),
    ])
    assert serp_from_record(asdict(rs)) == rs
    path = tmp_path / "serps.jsonl"
    _jsonl(path, [{"query": "cheap shoes", "entries": [
        {"engine": "GOOGLE", "rank": 1, "url": "http://a.com/",
         "title": "A", "description": "d1"},
        {"engine": "BING", "rank": 1, "url": "http://b.com/",
         "title": "B", "description": "d2"}]}])
    assert read_serps(path) == [rs]
    assert [e.engine for e in read_serps(path)[0].entries] == ["BING", "GOOGLE"]
    # an absent key takes the field's default, and the root domain is the
    # URL's, whatever the record says
    assert serp_from_record({"query": "s"}) == SerpResultSet("s", [])
    entry = {"engine": "GOOGLE", "rank": 1, "url": "http://www.c.com/"}
    lines = [{"query": "q", "entries": [entry]},
             {"query": "t", "entries": [dict(entry, root_domain="scam.top")]}]
    _jsonl(path, lines)
    got = read_serps(path)
    assert got == [
        SerpResultSet("q", [SerpEntry("GOOGLE", 1, "http://www.c.com/", "", "")]),
        SerpResultSet("t", [SerpEntry("GOOGLE", 1, "http://www.c.com/", "", "")])]
    assert [e.root_domain for rs in got for e in rs.entries] == ["c.com"] * 2
    # an explicit null title or description is no string
    for field in ("title", "description"):
        _jsonl(path, [{"query": "r", "entries": [dict(entry, **{field: None})]}])
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}:1: {field} must be a string, got None")):
            read_serps(path)
    del entry["url"]
    _jsonl(path, lines)
    with pytest.raises(SchemaError, match=re.escape(f"{path}:1: missing key 'url'")):
        read_serps(path)


def test_labels_round_trip_and_conflict(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("root_domain,label,category\n"
                    "SCAM-site.com,SCAM,sneakers\n"
                    "ok.com,benign,\n"
                    "scam-site.com,SCAM,sneakers\n",   # a consistent duplicate
                    encoding="utf-8")
    assert read_labels(path) == [  # case-folded, one row per domain
        LabeledDomain("scam-site.com", "SCAM", "sneakers"),
        LabeledDomain("ok.com", "BENIGN", "")]

    path.write_text("root_domain,label,category\nx.com,SCAM,\nX.com,BENIGN,\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError, match="conflicting labels for x.com"):
        read_labels(path)


def test_labeled_domain_rejects_unknown_label():
    with pytest.raises(SchemaError):
        LabeledDomain("a.com", "MAYBE")
