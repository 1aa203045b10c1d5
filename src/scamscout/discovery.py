"""SERP fetching with replay fixtures, and the discovery report.

Without a session, a fetch replays a recorded result page bit-exactly from a
content-addressed JSONL store, so a discovery run over fixtures is fully
reproducible.  Given a ``LiveSession``, it goes through that session's
injected transport with rate limiting and retries, and records what it
fetched so the run can be replayed later.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .corpus import ENGINES, SerpEntry, SerpResultSet
from .errors import (
    FixtureMissError,
    SchemaError,
    TransportError,
    UnknownEngineError,
)
from .lupi.rank import RankedKeyword
from .records import check_header, read_csv, read_jsonl, write_csv, write_jsonl

SCAM = "SCAM"


def _fixture_id(query: str, engine: str, capture_date: str) -> str:
    key = "\x1f".join((query, engine, capture_date)).encode("utf-8")
    return hashlib.md5(key).hexdigest()


def _entry_to_dict(entry: SerpEntry) -> dict:
    return {
        "engine": entry.engine,
        "rank": entry.rank,
        "url": entry.url,
        "title": entry.title,
        "description": entry.description,
    }


def _entry_from_dict(blob: Mapping) -> SerpEntry:
    return SerpEntry(
        engine=blob["engine"],
        rank=blob["rank"],
        url=blob["url"],
        title=blob.get("title", ""),
        description=blob.get("description", ""),
    )


class FixtureStore:
    """Recorded SERPs addressed by (query, engine, capture date).

    Each stored entry is parsed once, when it is put or loaded; ``get``
    hands out the stored (frozen) entries in a new list.
    """

    def __init__(self):
        self._records: dict[str, dict] = {}
        self._entries: dict[str, tuple[SerpEntry, ...]] = {}
        # (query, engine) -> id of its latest capture, by (capture_date, id)
        self._latest: dict[tuple[str, str], str] = {}

    def __len__(self) -> int:
        return len(self._records)

    def put(self, query: str, engine: str, capture_date: str,
            entries: Sequence[SerpEntry]) -> str:
        """Record one capture; an entry whose URL has no host raises ``UrlError``
        and nothing is stored, since a replay derives root domains from URLs."""
        return self._put(query, engine, capture_date,
                         [_entry_to_dict(e) for e in entries])

    def _put(self, query: str, engine: str, capture_date: str,
             blobs: Sequence[Mapping]) -> str:
        if engine not in ENGINES:
            raise UnknownEngineError(f"unknown engine: {engine!r}")
        # entries are built from the stored fields, so each root domain is
        # its URL's, as a replay of the saved store would compute it
        entries = tuple(_entry_from_dict(b) for b in blobs)
        record = {
            "id": _fixture_id(query, engine, capture_date),
            "query": query,
            "engine": engine,
            "capture_date": capture_date,
            "entries": [_entry_to_dict(e) for e in entries],
        }
        existing = self._records.get(record["id"])
        if existing is not None and existing != record:
            raise SchemaError(
                f"conflicting fixture for ({query!r}, {engine}, {capture_date})")
        rid = record["id"]
        self._records[rid] = record
        self._entries[rid] = entries
        latest = self._latest.get((query, engine))
        if latest is None or (capture_date, rid) > (
                self._records[latest]["capture_date"], latest):
            self._latest[(query, engine)] = rid
        return rid

    def get(self, query: str, engine: str,
            capture_date: Optional[str] = None) -> SerpResultSet:
        """Exact capture if a date is given, else the latest one recorded."""
        if capture_date is not None:
            rid = _fixture_id(query, engine, capture_date)
            if rid not in self._entries:
                raise FixtureMissError(
                    f"no fixture for ({query!r}, {engine}, {capture_date})")
        else:
            rid = self._latest.get((query, engine))
            if rid is None:
                raise FixtureMissError(f"no fixture for ({query!r}, {engine})")
        return SerpResultSet(query=query, entries=list(self._entries[rid]))

    def save(self, path: Union[str, Path]) -> None:
        write_jsonl(path, (self._records[rid] for rid in sorted(self._records)))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FixtureStore":
        store = cls()
        for _ in read_jsonl(path, lambda r: store._put(
                r["query"], r["engine"], r["capture_date"], r["entries"])):
            pass
        return store


@dataclass
class LiveSession:
    """Rate-limited live fetching through an injected transport.

    ``transport(query, engine)`` returns the result entries; any exception it
    raises counts as a failed attempt.
    """

    transport: Callable[[str, str], Sequence[SerpEntry]]
    min_delay: float = 1.0
    retries: int = 1
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    _last_request: Optional[float] = field(default=None, repr=False)

    def fetch(self, query: str, engine: str) -> list[SerpEntry]:
        last_error = None
        for _ in range(self.retries + 1):
            now = self.clock()
            if self._last_request is not None:
                wait = self.min_delay - (now - self._last_request)
                if wait > 0:
                    self.sleep(wait)
            self._last_request = self.clock()
            try:
                return list(self.transport(query, engine))
            except Exception as exc:  # transport failures are retried
                last_error = exc
        raise TransportError(
            f"fetch failed for ({query!r}, {engine}) after "
            f"{self.retries + 1} attempts: {last_error}") from last_error


def fetch_serp(
    query: str,
    engine: str,
    store: Optional[FixtureStore] = None,
    session: Optional[LiveSession] = None,
    capture_date: Optional[str] = None,
) -> SerpResultSet:
    """One query against one engine, live iff a ``session`` is given.

    A replay returns the recorded page bit-exactly and raises on a miss.  A
    live fetch goes through ``session`` and records the response into
    ``store`` so the run is replayable afterwards.
    """
    if engine not in ENGINES:
        raise UnknownEngineError(f"unknown engine: {engine!r}")
    if session is None:
        if store is None:
            raise FixtureMissError("replay requires a fixture store")
        return store.get(query, engine, capture_date)
    entries = session.fetch(query, engine)
    if store is not None:
        store.put(query, engine, capture_date or date.today().isoformat(),
                  entries)
    return SerpResultSet(query=query, entries=entries)


# --- discovery report ----------------------------------------------------------


@dataclass(frozen=True)
class CategoryCount:
    category: str
    discovered_scams: int
    total_sites: int

    @property
    def scam_fraction(self) -> float:
        return self.discovered_scams / self.total_sites if self.total_sites else 0.0


@dataclass(frozen=True)
class EngineExposure:
    """Share of all discovered scam domains surfacing in an engine's top k."""

    engine: str
    top_k_scams: int
    total_scams: int

    @property
    def fraction(self) -> float:
        return self.top_k_scams / self.total_scams if self.total_scams else 0.0


@dataclass
class DiscoveryReport:
    categories: list[CategoryCount]
    total_sites: int            # unique new root domains across all categories
    discovered_scams: int       # unique new scam domains across all categories
    exposure: list[EngineExposure]
    queries_run: int
    config_digest: str = ""

    @property
    def scam_fraction(self) -> float:
        return self.discovered_scams / self.total_sites if self.total_sites else 0.0

    def as_dict(self) -> dict:
        return {
            "categories": [
                {"category": c.category,
                 "discovered_scams": c.discovered_scams,
                 "total_sites": c.total_sites,
                 "scam_fraction": c.scam_fraction}
                for c in self.categories
            ],
            "total_sites": self.total_sites,
            "discovered_scams": self.discovered_scams,
            "scam_fraction": self.scam_fraction,
            "exposure": [
                {"engine": e.engine, "top_k_scams": e.top_k_scams,
                 "total_scams": e.total_scams, "fraction": e.fraction}
                for e in self.exposure
            ],
            "queries_run": self.queries_run,
            "config_digest": self.config_digest,
        }


def _config_digest(mode: str, engines: Sequence[str], exposure_k: int,
                   n_queries: int, capture_date: Optional[str]) -> str:
    blob = json.dumps({
        "mode": mode, "engines": list(engines), "exposure_k": exposure_k,
        "n_queries": n_queries, "capture_date": capture_date,
    }, sort_keys=True)
    return hashlib.md5(blob.encode("utf-8")).hexdigest()


def run_discovery(
    ranked: Sequence[RankedKeyword],
    classify: Callable[[list[str]], Sequence[str]],
    store: Optional[FixtureStore] = None,
    engines: Sequence[str] = ("GOOGLE",),
    known_domains: Iterable[str] = (),
    exposure_k: int = 20,
    session: Optional[LiveSession] = None,
    capture_date: Optional[str] = None,
) -> DiscoveryReport:
    """Search every ranked keyword and tally newly discovered scam domains.

    Root domains are deduplicated globally; domains already in
    ``known_domains`` (the labeled seed corpus) never count as discoveries.
    Per-category rows count a domain under every category whose queries
    surfaced it, while the report totals count each domain once.  Exposure
    per engine is the fraction of all discovered scam domains that appear
    within rank <= ``exposure_k`` on that engine.

    Classification happens once, after every search: ``classify`` gets the
    sorted new domains and returns one verdict per domain, in that order.
    """
    for engine in engines:
        if engine not in ENGINES:
            raise UnknownEngineError(f"unknown engine: {engine!r}")
    known = frozenset(known_domains)
    by_category: dict[str, set[str]] = {}
    global_domains: set[str] = set()
    top_k_seen: dict[str, set[str]] = {engine: set() for engine in engines}

    for kw in ranked:
        for engine in engines:
            result = fetch_serp(kw.text, engine, store, session, capture_date)
            cat_domains = by_category.setdefault(kw.category, set())
            for entry in result.entries:
                domain = entry.root_domain
                if domain in known:
                    continue
                if entry.rank <= exposure_k:
                    top_k_seen[engine].add(domain)
                cat_domains.add(domain)
                global_domains.add(domain)

    new_domains = sorted(global_domains)
    verdicts = dict(zip(new_domains, classify(new_domains), strict=True))
    scam_domains = {d for d in global_domains if verdicts[d] == SCAM}
    categories = [
        CategoryCount(
            category=cat,
            discovered_scams=sum(1 for d in domains if verdicts[d] == SCAM),
            total_sites=len(domains),
        )
        for cat, domains in sorted(by_category.items())
    ]
    return DiscoveryReport(
        categories=categories,
        total_sites=len(global_domains),
        discovered_scams=len(scam_domains),
        exposure=[EngineExposure(engine, len(top_k_seen[engine] & scam_domains),
                                 len(scam_domains))
                  for engine in sorted(engines)],
        queries_run=len(ranked) * len(engines),
        config_digest=_config_digest("REPLAY" if session is None else "LIVE",
                                     engines, exposure_k, len(ranked),
                                     capture_date),
    )


def report_to_json(report: DiscoveryReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=1)


def report_from_json(text: str) -> DiscoveryReport:
    blob = json.loads(text)
    return DiscoveryReport(
        categories=[CategoryCount(c["category"], c["discovered_scams"],
                                  c["total_sites"])
                    for c in blob["categories"]],
        total_sites=blob["total_sites"],
        discovered_scams=blob["discovered_scams"],
        exposure=[EngineExposure(e["engine"], e["top_k_scams"],
                                 e["total_scams"])
                  for e in blob["exposure"]],
        queries_run=blob["queries_run"],
        config_digest=blob.get("config_digest", ""),
    )


_REPORT_HEADER = ["category", "discovered_scams", "total_sites",
                  "scam_fraction"]


def write_report(report: DiscoveryReport, path: Union[str, Path]) -> None:
    """``report_to_json`` for a ``.json`` suffix, else CSV: category rows plus
    an ALL row of globally deduplicated totals (the header only when there
    are no categories).  A rerun rewrites the same bytes."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(report_to_json(report), encoding="utf-8")
        return
    rows = [[row.category, row.discovered_scams, row.total_sites,
             f"{row.scam_fraction:.6f}"] for row in report.categories]
    if rows:
        rows.append(["ALL", report.discovered_scams, report.total_sites,
                     f"{report.scam_fraction:.6f}"])
    write_csv(path, _REPORT_HEADER, rows)


def report_from_csv(path) -> DiscoveryReport:
    """Rebuild counts from report.csv; exposure and digest live only in JSON."""
    check_header(path, _REPORT_HEADER)
    rows = list(read_csv(path, lambda row: CategoryCount(
        row["category"], int(row["discovered_scams"]), int(row["total_sites"]))))
    # the totals row comes last, after the categories, if there are any
    total = rows.pop() if rows else CategoryCount("ALL", 0, 0)
    return DiscoveryReport(
        categories=rows, total_sites=total.total_sites,
        discovered_scams=total.discovered_scams, exposure=[], queries_run=0)
