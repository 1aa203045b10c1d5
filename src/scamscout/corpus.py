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
from typing import Iterable, Iterator, Optional

from .datalists import content_lines, data_text
from .errors import SchemaError, UnreachableSnapshotError
from .psl import root_domain
from .records import get_typed, read_csv, read_jsonl, write_csv, write_jsonl

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
        return root_domain(self.url)


@dataclass
class KeywordSuggestion:
    text: str
    source_domain: str = ""
    category: str = ""
    competition: str = "LOW"
    monthly_volume: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise SchemaError(f"keyword text must be a string, got {self.text!r}")
        self.text = self.text.strip().lower()
        if not self.text:
            raise SchemaError("keyword text must be non-empty")
        if self.competition not in COMPETITION_LEVELS:
            raise SchemaError(f"competition must be one of {COMPETITION_LEVELS}, got {self.competition!r}")


@dataclass(frozen=True)
class SerpEntry:
    """One search result; frozen, so stores can hand out the same entry."""

    engine: str
    rank: int
    url: str
    title: str = ""
    description: str = ""
    root_domain: str = ""

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise SchemaError(f"unknown engine {self.engine!r}")
        # bool is an Integral, but True is not a rank
        if (not isinstance(self.rank, numbers.Integral)
                or isinstance(self.rank, bool) or self.rank < 1):
            raise SchemaError(f"rank must be an integer >= 1, got {self.rank!r}")
        object.__setattr__(self, "rank", int(self.rank))
        if not self.root_domain:
            object.__setattr__(self, "root_domain", root_domain(self.url))


@dataclass
class SerpResultSet:
    query: str
    entries: list[SerpEntry] = field(default_factory=list)

    def __post_init__(self):
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


def serialize_snapshot(snap: DomainSnapshot) -> str:
    rec = {
        "url": snap.url,
        "fetched_at": snap.fetched_at.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
        "http_status": snap.http_status,
        "final_url": snap.final_url,
        "html": snap.html,
        "dns": snap.dns,
        "whois": {
            "created": snap.whois.created.isoformat() if snap.whois.created else None,
            "expires": snap.whois.expires.isoformat() if snap.whois.expires else None,
            "registrar": snap.whois.registrar,
            "registrar_country": snap.whois.registrar_country,
            "registrant_country": snap.whois.registrant_country,
            "privacy": snap.whois.privacy,
            "registrant_email_domain": snap.whois.registrant_email_domain,
        },
        "ranks": asdict(snap.ranks),
    }
    return json.dumps(rec, sort_keys=True, ensure_ascii=False)


def read_snapshots(path) -> Iterator[DomainSnapshot]:
    return read_jsonl(path, snapshot_from_record)


# --------------------------------------------------------------------------
# parked-domain filtering


def load_parked_patterns(path=None) -> list[re.Pattern]:
    return [re.compile(line, re.IGNORECASE)
            for line in content_lines(data_text("parked_patterns.txt", path))]


_DEFAULT_PARKED: Optional[list[re.Pattern]] = None


def _parked_patterns() -> list[re.Pattern]:
    global _DEFAULT_PARKED
    if _DEFAULT_PARKED is None:
        _DEFAULT_PARKED = load_parked_patterns(None)
    return _DEFAULT_PARKED


def is_parked(snapshot: DomainSnapshot, patterns: Optional[list[re.Pattern]] = None) -> bool:
    """True iff any parked-page pattern matches the snapshot HTML.

    Raises :class:`UnreachableSnapshotError` for non-resolving snapshots:
    "unreachable" is a distinct terminal state, not a parked verdict.
    """
    if not snapshot.resolving:
        raise UnreachableSnapshotError(snapshot.url)
    html = snapshot.html
    return any(p.search(html) for p in (patterns if patterns is not None else _parked_patterns()))


def snapshot_state(snapshot: DomainSnapshot, patterns: Optional[list[re.Pattern]] = None) -> SnapshotState:
    if not snapshot.resolving:
        return SnapshotState.UNREACHABLE
    if is_parked(snapshot, patterns):
        return SnapshotState.PARKED
    return SnapshotState.LIVE


def admit(snapshot: DomainSnapshot, patterns: Optional[list[re.Pattern]] = None) -> bool:
    """Pipeline admission: only live pages (HTTP >= 200, not parked) go on."""
    if snapshot.http_status < 200:
        return False
    return snapshot_state(snapshot, patterns) is SnapshotState.LIVE


# --------------------------------------------------------------------------
# keyword / serp / label file IO


def read_keywords(path) -> list[KeywordSuggestion]:
    return list(read_jsonl(path, lambda rec: KeywordSuggestion(
        text=rec["text"],
        source_domain=rec.get("source_domain", ""),
        category=rec.get("category", ""),
        competition=rec.get("competition", "LOW"),
        monthly_volume=rec.get("monthly_volume"),
    )))


def write_keywords(path, keywords: Iterable[KeywordSuggestion]) -> None:
    write_jsonl(path, ({
        "text": kw.text,
        "source_domain": kw.source_domain,
        "category": kw.category,
        "competition": kw.competition,
        "monthly_volume": kw.monthly_volume,
    } for kw in keywords))


def serp_to_record(rs: SerpResultSet) -> dict:
    return {
        "query": rs.query,
        "entries": [
            {
                "engine": e.engine,
                "rank": e.rank,
                "url": e.url,
                "root_domain": e.root_domain,
                "title": e.title,
                "description": e.description,
            }
            for e in rs.entries
        ],
    }


def serp_from_record(rec: dict) -> SerpResultSet:
    entries = [
        SerpEntry(
            engine=e["engine"],
            rank=e["rank"],
            url=e["url"],
            title=e.get("title", ""),
            description=e.get("description", ""),
            root_domain=e.get("root_domain", ""),
        )
        for e in rec.get("entries", [])
    ]
    return SerpResultSet(query=rec["query"], entries=entries)


def read_serps(path) -> list[SerpResultSet]:
    return list(read_jsonl(path, serp_from_record))


def write_serps(path, serps: Iterable[SerpResultSet]) -> None:
    write_jsonl(path, (serp_to_record(rs) for rs in serps))


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


def write_labels(path, labels: Iterable[LabeledDomain]) -> None:
    write_csv(path, ["root_domain", "label", "category"],
              ([lab.root_domain, lab.label, lab.category] for lab in labels))
