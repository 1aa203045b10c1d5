"""SERP replay from recorded fixtures, and the discovery report.

A fetch replays the recorded result page of its (query, engine) bit-exactly
from a JSONL fixture store, so a discovery run over fixtures is fully
reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

from .corpus import ENGINES, SerpEntry, SerpResultSet, read_serps
from .errors import FixtureMissError, SchemaError, UnknownEngineError
from .lupi.rank import RankedKeyword
from .records import write_document

SCAM = "SCAM"


class FixtureStore:
    """Recorded result pages keyed by (query, engine).

    The store is a ``serps.jsonl`` file, read once, on load, by
    ``corpus.read_serps``, which holds each (query, engine) pair to one
    page; each page's entries are grouped by engine.
    ``get`` hands out the stored (frozen) entries of a pair in a new list.
    """

    def __init__(self):
        self._pages: dict[tuple[str, str], tuple[SerpEntry, ...]] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def get(self, query: str, engine: str) -> SerpResultSet:
        """The page recorded for (query, engine)."""
        entries = self._pages.get((query, engine))
        if entries is None:
            raise FixtureMissError(f"no fixture for ({query!r}, {engine})")
        return SerpResultSet(query=query, entries=list(entries))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FixtureStore":
        store = cls()
        for page in read_serps(path):
            # a page keeps its entries sorted by (engine, rank), so each
            # engine is one group
            for engine, entries in groupby(page.entries, attrgetter("engine")):
                store._pages[page.query, engine] = tuple(entries)
        return store


def fetch_serp(query: str, engine: str, store: FixtureStore) -> SerpResultSet:
    """One query against one engine, replayed bit-exactly from ``store``;
    a miss raises ``FixtureMissError``."""
    if engine not in ENGINES:
        raise UnknownEngineError(f"unknown engine: {engine!r}")
    return store.get(query, engine)


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
        """``asdict`` plus the derived fractions of the report, of each
        category and of each engine."""
        out = asdict(self)
        out["scam_fraction"] = self.scam_fraction
        for row, c in zip(out["categories"], self.categories):
            row["scam_fraction"] = c.scam_fraction
        for row, e in zip(out["exposure"], self.exposure):
            row["fraction"] = e.fraction
        return out


def _config_digest(engines: Sequence[str], exposure_k: int,
                   n_queries: int) -> str:
    # "mode" and "capture_date" hold constants: discovery only replays, and a
    # fixture page carries no date.  They stay in the blob so that the digest,
    # and report.json with it, keeps its bytes
    blob = json.dumps({
        "mode": "REPLAY", "engines": list(engines), "exposure_k": exposure_k,
        "n_queries": n_queries, "capture_date": None,
    }, sort_keys=True)
    return hashlib.md5(blob.encode("utf-8")).hexdigest()


def run_discovery(
    ranked: Sequence[RankedKeyword],
    classify: Callable[[list[str]], Sequence[str]],
    store: FixtureStore,
    engines: Sequence[str] = ("GOOGLE",),
    known_domains: Iterable[str] = (),
    exposure_k: int = 20,
) -> DiscoveryReport:
    """Search every ranked keyword and tally newly discovered scam domains.

    Root domains are deduplicated globally; domains already in
    ``known_domains`` (the labeled seed corpus) never count as discoveries.
    Per-category rows count a domain under every category whose queries
    surfaced it, while the report totals count each domain once.  Exposure
    per engine is the fraction of all discovered scam domains that appear
    within rank <= ``exposure_k`` on that engine.  A repeated engine raises
    ``SchemaError``, since it would search every keyword again.

    Classification happens once, after every search: ``classify`` gets the
    sorted new domains and returns one verdict per domain, in that order.
    """
    if exposure_k < 1:
        raise SchemaError(f"exposure_k must be >= 1, got {exposure_k}")
    for engine in engines:
        if engine not in ENGINES:
            raise UnknownEngineError(f"unknown engine: {engine!r}")
    if len(set(engines)) < len(engines):
        raise SchemaError(f"engines must not repeat, got {','.join(engines)}")
    known = frozenset(known_domains)
    by_category: dict[str, set[str]] = {}
    global_domains: set[str] = set()
    top_k_seen: dict[str, set[str]] = {engine: set() for engine in engines}

    for kw in ranked:
        for engine in engines:
            result = fetch_serp(kw.text, engine, store)
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
        config_digest=_config_digest(engines, exposure_k, len(ranked)),
    )


def write_report(report: DiscoveryReport, path: Union[str, Path]) -> None:
    """``report.as_dict()`` as one JSON document with sorted keys, so a rerun
    rewrites the same bytes."""
    write_document(path, json.dumps(report.as_dict(), sort_keys=True, indent=1))
