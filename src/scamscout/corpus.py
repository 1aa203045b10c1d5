"""Data model and ingestion: domain snapshots, keyword suggestions, SERP
fixtures, category labels, parked-domain filtering.

Everything downstream runs on offline :class:`DomainSnapshot` records; there
is no live fetching here, so any pipeline result can be replayed bit-exactly
from the same snapshot files.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field, asdict
from datetime import date, datetime, timezone
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .datalists import content_lines, data_text
from .errors import SchemaError, UnreachableSnapshotError
from .psl import root_domain
from .records import (
    from_record,
    get_typed,
    read_csv,
    read_jsonl,
    write_jsonl,
)

ENGINES = ("GOOGLE", "BING", "BAIDU", "NAVER")
COMPETITION_LEVELS = ("LOW", "MEDIUM", "HIGH")


@dataclass
class WhoisRecord:
    created: Optional[date] = None
    expires: Optional[date] = None
    registrar: Optional[str] = None
    registrar_country: Optional[str] = None
    registrant_country: Optional[str] = None
    privacy: Optional[bool] = None
    registrant_email_domain: Optional[str] = None

    @property
    def is_empty(self) -> bool:
        return all(
            getattr(self, name) is None for name in self.__dataclass_fields__
        )


@dataclass
class RankSignals:
    tranco: Optional[int] = None
    majestic: Optional[int] = None
    majestic_refips: Optional[int] = None
    majestic_refsubnets: Optional[int] = None
    majestic_tldrank: Optional[int] = None
    cisco: Optional[int] = None


@dataclass
class DomainSnapshot:
    """Offline capture of one website at one point in time.

    ``http_status`` 0 means the domain never resolved; ``final_url`` is the
    post-redirect landing page that all content features are computed from.
    """

    url: str
    fetched_at: datetime
    http_status: int = 0
    final_url: Optional[str] = None
    html: str = ""
    dns: dict[str, list[str]] = field(default_factory=dict)
    whois: WhoisRecord = field(default_factory=WhoisRecord)
    ranks: RankSignals = field(default_factory=RankSignals)

    @property
    def resolving(self) -> bool:
        return self.http_status != 0

    def root_domain(self) -> str:
        """The landing page's registrable domain, the key of its features."""
        return root_domain(self.final_url or self.url)


@dataclass
class KeywordSuggestion:
    text: str
    source_domain: str = ""
    category: str = ""
    competition: str = "LOW"
    monthly_volume: Optional[int] = None

    def __post_init__(self):
        for name in ("text", "source_domain", "category"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise SchemaError(f"keyword {name} must be a string, got {value!r}")
        # bool is a subclass of int, but True is not a volume
        if self.monthly_volume is not None and type(self.monthly_volume) is not int:
            raise SchemaError(f"keyword monthly_volume must be an integer or null, "
                              f"got {self.monthly_volume!r}")
        self.text = self.text.strip().lower()
        if not self.text:
            raise SchemaError("keyword text must be non-empty")
        if self.competition not in COMPETITION_LEVELS:
            raise SchemaError(f"competition must be one of {COMPETITION_LEVELS}, got {self.competition!r}")


@dataclass(frozen=True)
class SerpEntry:
    """One search result; frozen, so stores can hand out the same entry.
    Its root domain is always that of its URL, never read from a file."""

    engine: str
    rank: int
    url: str
    title: str = ""
    description: str = ""
    root_domain: str = field(init=False)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise SchemaError(f"unknown engine {self.engine!r}")
        # a plain int skips the Integral ABC check; bool is an Integral, but
        # True is not a rank
        if (type(self.rank) is not int
                and (not isinstance(self.rank, numbers.Integral)
                     or isinstance(self.rank, bool))
                or self.rank < 1):
            raise SchemaError(f"rank must be an integer >= 1, got {self.rank!r}")
        if not isinstance(self.title, str):
            raise SchemaError(f"title must be a string, got {self.title!r}")
        if not isinstance(self.description, str):
            raise SchemaError(
                f"description must be a string, got {self.description!r}")
        object.__setattr__(self, "rank", int(self.rank))
        object.__setattr__(self, "root_domain", root_domain(self.url))


@dataclass
class SerpResultSet:
    query: str
    entries: list[SerpEntry] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.query, str):
            raise SchemaError(f"query must be a string, got {self.query!r}")
        self.entries = sorted(self.entries, key=lambda e: (e.engine, e.rank))

    def root_domains(self) -> set[str]:
        return {e.root_domain for e in self.entries}


@dataclass
class LabeledDomain:
    root_domain: str
    label: str  # SCAM | BENIGN
    category: str = ""

    def __post_init__(self):
        if self.label not in ("SCAM", "BENIGN"):
            raise SchemaError(f"label must be SCAM or BENIGN, got {self.label!r}")


class SnapshotState(Enum):
    LIVE = "live"
    PARKED = "parked"
    UNREACHABLE = "unreachable"


# --------------------------------------------------------------------------
# snapshot (de)serialization


def _parse_date(value) -> Optional[date]:
    if value is None:
        return None
    return date.fromisoformat(value)


def _parse_timestamp(value) -> datetime:
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _dns(rec: dict) -> dict[str, list[str]]:
    dns = get_typed(rec, "dns", dict, {})
    for name, values in dns.items():
        if type(values) is not list or not all(type(v) is str for v in values):
            raise SchemaError(f"dns.{name} must be a list of strings, got {values!r}")
    return {name: list(values) for name, values in dns.items()}


def snapshot_from_record(rec: dict) -> DomainSnapshot:
    """One snapshots.jsonl object. Absent optionals become None."""
    url = get_typed(rec, "url", str, "")
    if not url:
        raise SchemaError("snapshot record missing 'url'")
    whois_rec = get_typed(rec, "whois", dict, {})
    whois = WhoisRecord(**{k: get_typed(whois_rec, k, bool if k == "privacy" else str,
                                        None, "whois.")
                           for k in WhoisRecord.__dataclass_fields__})
    whois.created, whois.expires = _parse_date(whois.created), _parse_date(whois.expires)
    ranks_rec = get_typed(rec, "ranks", dict, {})
    ranks = RankSignals(**{k: get_typed(ranks_rec, k, int, None, "ranks.")
                           for k in RankSignals.__dataclass_fields__})
    fetched = get_typed(rec, "fetched_at", str, "")
    return DomainSnapshot(
        url=url,
        fetched_at=_parse_timestamp(fetched) if fetched else datetime(1970, 1, 1, tzinfo=timezone.utc),
        http_status=get_typed(rec, "http_status", int, 0),
        final_url=get_typed(rec, "final_url", str, None),
        html=get_typed(rec, "html", str, ""),
        dns=_dns(rec),
        whois=whois,
        ranks=ranks,
    )


def parse_snapshot(line: str) -> DomainSnapshot:
    return snapshot_from_record(json.loads(line))


def read_snapshots(path) -> Iterator[DomainSnapshot]:
    return read_jsonl(path, snapshot_from_record)


# --------------------------------------------------------------------------
# parked-domain filtering


@lru_cache(maxsize=1)
def _parked_patterns() -> list[re.Pattern]:
    return [re.compile(line, re.IGNORECASE)
            for line in content_lines(data_text("parked_patterns.txt"))]


def is_parked(snapshot: DomainSnapshot) -> bool:
    """True iff any parked-page pattern matches the snapshot HTML.

    Raises :class:`UnreachableSnapshotError` for non-resolving snapshots:
    "unreachable" is a distinct terminal state, not a parked verdict.
    """
    if not snapshot.resolving:
        raise UnreachableSnapshotError(snapshot.url)
    html = snapshot.html
    return any(p.search(html) for p in _parked_patterns())


def snapshot_state(snapshot: DomainSnapshot) -> SnapshotState:
    if not snapshot.resolving:
        return SnapshotState.UNREACHABLE
    if is_parked(snapshot):
        return SnapshotState.PARKED
    return SnapshotState.LIVE


def admit(snapshot: DomainSnapshot) -> bool:
    """Pipeline admission: only live pages (HTTP >= 200, not parked) go on."""
    if snapshot.http_status < 200:
        return False
    return snapshot_state(snapshot) is SnapshotState.LIVE


# --------------------------------------------------------------------------
# keyword / serp / label file IO


def read_keywords(path) -> list[KeywordSuggestion]:
    """The keywords of a ``keywords.jsonl``; a text (stripped and lowered)
    that an earlier line holds is a bad line, since every stage counts a
    keyword once."""
    seen: set[str] = set()

    def parse(rec) -> KeywordSuggestion:
        keyword = from_record(KeywordSuggestion, rec)
        if keyword.text in seen:
            raise SchemaError(f"repeated keyword {keyword.text!r}")
        seen.add(keyword.text)
        return keyword

    return list(read_jsonl(path, parse))


def write_keywords(path, keywords: Iterable[KeywordSuggestion]) -> None:
    write_jsonl(path, map(asdict, keywords))


def check_unique_ranks(entries: Iterable[SerpEntry]) -> None:
    """One result page holds at most one entry per (engine, rank)."""
    seen = set()
    for e in entries:
        if (e.engine, e.rank) in seen:
            raise SchemaError(f"{e.engine} rank {e.rank} repeats in one page")
        seen.add((e.engine, e.rank))


def serp_from_record(rec: dict) -> SerpResultSet:
    entries = [from_record(SerpEntry, e) for e in rec.get("entries", [])]
    check_unique_ranks(entries)
    return from_record(SerpResultSet, {**rec, "entries": entries})


def read_serps(path) -> list[SerpResultSet]:
    """The pages of a ``serps.jsonl``.  A page with no entries, which names
    no engine, and a page of a (query, engine) pair that an earlier line
    holds are bad lines, since every reader keeps one page per pair."""
    seen: set[tuple[str, str]] = set()

    def parse(rec) -> SerpResultSet:
        page = serp_from_record(rec)
        if not page.entries:
            raise SchemaError(f"page for {page.query!r} has no entries")
        for engine in sorted({e.engine for e in page.entries}):
            if (page.query, engine) in seen:
                raise SchemaError(
                    f"repeated page for ({page.query!r}, {engine})")
            seen.add((page.query, engine))
        return page

    return list(read_jsonl(path, parse))


def read_labels(path) -> list[LabeledDomain]:
    """labels.csv: root_domain,label,category (one label per root domain)."""
    seen: dict[str, LabeledDomain] = {}

    def parse(row: dict) -> None:
        dom, label = row["root_domain"].strip().lower(), row["label"].strip().upper()
        if dom in seen and seen[dom].label != label:
            raise SchemaError(f"conflicting labels for {dom}")
        seen[dom] = LabeledDomain(dom, label, row.get("category", "").strip())

    for _ in read_csv(path, parse):
        pass
    return list(seen.values())
