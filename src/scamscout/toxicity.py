"""Query quality scores: toxicity and expansion.

A query's toxicity is the fraction of the root domains it returns that are
flagged scams; its expansion is the absolute number of flagged scams it
returns.  Results from all engines that answered the query are pooled and
deduplicated by root domain before counting, so a scam appearing at three
ranks on two engines is counted once.  No rank cutoff is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import SerpResultSet
from .errors import SchemaError
from .records import read_csv, write_csv

SCAM = "SCAM"


@dataclass(frozen=True)
class QueryToxicity:
    query: str
    category: str
    total_sites: int    # root-domain-deduplicated result count
    scam_sites: int
    toxicity: float
    expansion: int      # always equals scam_sites

    def __post_init__(self):
        if self.total_sites < 1:
            raise SchemaError("total_sites must be >= 1")
        if not 0.0 <= self.toxicity <= 1.0:
            raise SchemaError("toxicity must be within [0, 1]")
        if self.expansion != self.scam_sites:
            raise SchemaError("expansion must equal scam_sites")

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "category": self.category,
            "total_sites": self.total_sites,
            "scam_sites": self.scam_sites,
            "toxicity": self.toxicity,
            "expansion": self.expansion,
        }


def score_serp(
    results: SerpResultSet,
    verdicts: Mapping[str, str],
    category: str = "",
) -> QueryToxicity:
    """Toxicity of one query from its pooled result set.

    Entries may come from several engines; they are deduplicated by root
    domain before counting, and entry order never matters.
    """
    domains = results.root_domains()
    if not domains:
        raise SchemaError(
            f"query {results.query!r} returned no results; toxicity undefined")
    scams = sum(1 for d in domains if verdicts.get(d) == SCAM)
    return QueryToxicity(
        query=results.query,
        category=category,
        total_sites=len(domains),
        scam_sites=scams,
        toxicity=scams / len(domains),
        expansion=scams,
    )


def score_query(
    result_sets: Sequence[SerpResultSet],
    verdicts: Mapping[str, str],
    category: str = "",
) -> QueryToxicity:
    """Union one query's result sets across engines, then score once."""
    if not result_sets:
        raise SchemaError("cannot score a query with no result sets")
    query = result_sets[0].query
    entries = []
    for rs in result_sets:
        if rs.query != query:
            raise SchemaError(
                f"mixed queries in one scoring call: {query!r} vs {rs.query!r}")
        entries.extend(rs.entries)
    return score_serp(SerpResultSet(query=query, entries=entries),
                      verdicts, category)


def score_queries(
    result_sets: Iterable[SerpResultSet],
    verdicts: Mapping[str, str],
    categories: Optional[Mapping[str, str]] = None,
) -> list[QueryToxicity]:
    """Group result sets by query and score each group.

    Output is sorted by query text so repeated runs emit identical files.
    """
    grouped: dict[str, list[SerpResultSet]] = {}
    for rs in result_sets:
        grouped.setdefault(rs.query, []).append(rs)
    categories = categories or {}
    return [score_query(grouped[q], verdicts, categories.get(q, ""))
            for q in sorted(grouped)]


def max_reference(
    scored: Sequence[QueryToxicity],
    k: int,
) -> tuple[float, float]:
    """Upper bound achieved by ranking queries on their true scores.

    Toxicity and expansion are sorted independently: the hypothetical
    perfect ranker may pick a different top-k for each metric.  Ties break
    on query text so the reference is deterministic.
    """
    if not scored:
        raise SchemaError("max_reference needs at least one scored query")
    if k < 1:
        raise SchemaError("k must be >= 1")
    by_tox = sorted(scored, key=lambda s: (-s.toxicity, s.query))[:k]
    by_exp = sorted(scored, key=lambda s: (-s.expansion, s.query))[:k]
    mean_tox = sum(s.toxicity for s in by_tox) / len(by_tox)
    mean_exp = sum(s.expansion for s in by_exp) / len(by_exp)
    return mean_tox, mean_exp


def write_scores(scored: Sequence[QueryToxicity], path) -> None:
    write_csv(path, ["query", "category", "total_sites", "scam_sites",
                     "toxicity", "expansion"], (
        [s.query, s.category, s.total_sites, s.scam_sites,
         f"{s.toxicity:.6f}", s.expansion] for s in scored))


def read_scores(path) -> list[QueryToxicity]:
    return list(read_csv(path, lambda row: QueryToxicity(
        query=row["query"],
        category=row.get("category", ""),
        total_sites=int(row["total_sites"]),
        scam_sites=int(row["scam_sites"]),
        toxicity=float(row["toxicity"]),
        expansion=int(row["expansion"]),
    )))
