"""Query toxicity/expansion scoring and the perfect-ranking reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout.corpus import ENGINES, SerpEntry, SerpResultSet
from scamscout.errors import SchemaError
from scamscout.toxicity import (
    QueryToxicity,
    max_reference,
    read_scores,
    score_queries,
    score_serp,
    write_scores,
)


def _entry(domain, engine="GOOGLE", rank=1):
    return SerpEntry(engine=engine, rank=rank, url=f"https://{domain}/p")


def _serp(query, domains, engine="GOOGLE"):
    entries = [_entry(d, engine, i + 1) for i, d in enumerate(domains)]
    return SerpResultSet(query=query, entries=entries)


def test_six_scams_of_twenty():
    domains = [f"site{i}.com" for i in range(20)]
    verdicts = {d: "SCAM" for d in domains[:6]}
    score = score_serp(_serp("cheap shoes", domains), verdicts, "shoes")
    assert score.toxicity == pytest.approx(0.3)
    assert score.scam_sites == 6
    assert score.expansion == 6
    assert score.total_sites == 20
    assert score.category == "shoes"


def test_duplicates_collapse_to_root_domains():
    # 30 entries across three engines, but only 10 distinct root domains
    domains = [f"shop{i}.com" for i in range(10)]
    entries = []
    for engine in ("GOOGLE", "BING", "BAIDU"):
        entries.extend(_entry(d, engine, i + 1) for i, d in enumerate(domains))
    assert len(entries) == 30
    verdicts = {d: "SCAM" for d in domains[:4]}
    score = score_serp(SerpResultSet(query="q", entries=entries), verdicts)

    # independent tally: dedup with a plain loop, then count flags
    seen = []
    for e in entries:
        if e.root_domain not in seen:
            seen.append(e.root_domain)
    expected_scams = sum(1 for d in seen if verdicts.get(d) == "SCAM")
    assert score.total_sites == len(seen) == 10
    assert score.scam_sites == expected_scams == 4
    assert score.toxicity == pytest.approx(0.4)


def test_score_matches_brute_force_on_random_serps():
    rng = np.random.default_rng(17)
    pool = [f"d{i}.net" for i in range(25)]
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=n)]
        entries = [
            _entry(d, ("GOOGLE", "BING", "BAIDU")[int(rng.integers(0, 3))],
                   int(rng.integers(1, 50)))
            for d in picks
        ]
        flagged = {d for d in pool if rng.random() < 0.3}
        verdicts = {d: "SCAM" for d in flagged}
        score = score_serp(SerpResultSet(query="q", entries=entries), verdicts)
        unique = set(picks)
        scams = len(unique & flagged)
        assert score.total_sites == len(unique)
        assert score.scam_sites == scams
        assert score.toxicity == pytest.approx(scams / len(unique))


def test_entry_order_never_matters():
    rng = np.random.default_rng(4)
    domains = [f"x{i}.org" for i in range(12)]
    verdicts = {d: "SCAM" for d in domains[::3]}
    entries = [_entry(d, "GOOGLE", i + 1) for i, d in enumerate(domains)]
    base = score_serp(SerpResultSet(query="q", entries=entries), verdicts)
    for _ in range(20):
        shuffled = list(entries)
        rng.shuffle(shuffled)
        again = score_serp(SerpResultSet(query="q", entries=shuffled), verdicts)
        assert again == base


def test_flagging_one_more_domain_never_lowers_toxicity():
    domains = [f"m{i}.com" for i in range(15)]
    serp = _serp("q", domains)
    verdicts = {}
    prev = score_serp(serp, verdicts).toxicity
    for d in domains:
        verdicts[d] = "SCAM"
        cur = score_serp(serp, verdicts).toxicity
        assert cur >= prev
        prev = cur
    assert prev == pytest.approx(1.0)


# registrable domains, one of them under a multi-label public suffix, one
# under a wildcard rule and one under its exception
_REGISTRABLE = ["shop.com", "deals.co.uk", "cheap-nike.net", "me.github.io",
                "a.b.ck", "www.ck", "x1.org"]


@st.composite
def _result_url(draw, domain):
    """A result URL whose host is ``domain`` or a subdomain of it."""
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "hTtPs"]))
    userinfo = draw(st.sampled_from(["", "", "u@", "u:p@"]))
    host = draw(st.sampled_from(["", "www.", "m.", "a.b."])) + domain
    host = draw(st.sampled_from([host, host.upper()]))
    dots = draw(st.sampled_from(["", "", ".", ".."]))
    port = draw(st.sampled_from(["", "", ":80", ":8443"]))
    path = draw(st.sampled_from(["", "/", "/p/q.html", "?q=1", "#top"]))
    return f"{scheme}://{userinfo}{host}{dots}{port}{path}"


@st.composite
def _serps(draw):
    """(result set, its registrable domains): every domain's URLs in
    several spellings, on several engines, in any order."""
    domains = draw(st.lists(st.sampled_from(_REGISTRABLE), min_size=1,
                            unique=True))
    entries = [SerpEntry(engine=draw(st.sampled_from(ENGINES)), rank=rank,
                         url=draw(_result_url(domain)))
               for domain in domains
               for rank in range(1, draw(st.integers(1, 4)) + 1)]
    return SerpResultSet(query="q", entries=draw(st.permutations(entries))), domains


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_serps(), st.data())
def test_result_urls_on_one_registrable_domain_count_once(serp_domains, data):
    serp, domains = serp_domains
    flagged = data.draw(st.sets(st.sampled_from(domains)))
    score = score_serp(serp, {d: "SCAM" if d in flagged else "BENIGN"
                              for d in domains})
    assert score.total_sites == len(domains)
    assert score.scam_sites == len(flagged)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_serps(), st.data())
def test_one_more_scam_verdict_never_lowers_scam_sites(serp_domains, data):
    serp, _ = serp_domains
    pool = _REGISTRABLE + ["absent.org"]
    verdicts = data.draw(st.dictionaries(st.sampled_from(pool),
                                         st.sampled_from(["SCAM", "BENIGN"])))
    before = score_serp(serp, verdicts)
    after = score_serp(serp, {**verdicts, data.draw(st.sampled_from(pool)): "SCAM"})
    assert after.total_sites == before.total_sites
    assert after.scam_sites >= before.scam_sites
    assert after.toxicity >= before.toxicity


def test_empty_serp_rejected():
    with pytest.raises(SchemaError):
        score_serp(SerpResultSet(query="q", entries=[]), {})


def test_score_queries_unions_engines_before_counting():
    # same scam appears on both engines; it must count once
    google = _serp("q", ["a.com", "b.com", "c.com"], "GOOGLE")
    bing = _serp("q", ["a.com", "d.com"], "BING")
    [score] = score_queries([google, bing], {"a.com": "SCAM"})
    assert score.total_sites == 4
    assert score.scam_sites == 1
    assert score.toxicity == pytest.approx(0.25)


def test_score_queries_groups_and_sorts():
    sets = [
        _serp("zeta", ["a.com", "b.com"], "GOOGLE"),
        _serp("alpha", ["c.com"], "GOOGLE"),
        _serp("zeta", ["b.com", "d.com"], "BING"),
    ]
    scored = score_queries(sets, {"b.com": "SCAM"}, {"zeta": "shoes"})
    assert [s.query for s in scored] == ["alpha", "zeta"]
    assert scored[0].toxicity == 0.0
    assert scored[1].total_sites == 3  # a, b, d after pooling both engines
    assert scored[1].scam_sites == 1
    assert scored[1].category == "shoes"


def _scored(query, toxicity, expansion, total=100):
    scam = expansion
    return QueryToxicity(query=query, category="", total_sites=total,
                         scam_sites=scam, toxicity=toxicity, expansion=scam)


def test_max_reference_sorts_metrics_independently():
    # the best query by toxicity is the worst by expansion and vice versa
    scored = [
        _scored("concentrated", toxicity=1.0, expansion=1, total=1),
        _scored("diluted", toxicity=0.2, expansion=10, total=50),
        _scored("middling", toxicity=0.5, expansion=5, total=10),
    ]
    mean_tox, mean_exp = max_reference(scored, k=1)
    assert mean_tox == pytest.approx(1.0)
    assert mean_exp == pytest.approx(10.0)
    mean_tox, mean_exp = max_reference(scored, k=2)
    assert mean_tox == pytest.approx((1.0 + 0.5) / 2)
    assert mean_exp == pytest.approx((10 + 5) / 2)


def test_max_reference_uses_all_queries_when_k_exceeds_count():
    scored = [_scored("a", 0.4, 4, 10), _scored("b", 0.6, 6, 10)]
    mean_tox, mean_exp = max_reference(scored, k=99)
    assert mean_tox == pytest.approx(0.5)
    assert mean_exp == pytest.approx(5.0)


def test_max_reference_is_order_invariant():
    rng = np.random.default_rng(8)
    scored = [_scored(f"q{i}", (i % 7) / 10, i % 7, 10) for i in range(20)]
    base = max_reference(scored, k=5)
    for _ in range(10):
        shuffled = list(scored)
        rng.shuffle(shuffled)
        assert max_reference(shuffled, k=5) == base


def test_max_reference_validation():
    with pytest.raises(SchemaError):
        max_reference([], k=3)
    with pytest.raises(SchemaError):
        max_reference([_scored("a", 0.5, 5)], k=0)


def test_query_toxicity_validation():
    with pytest.raises(SchemaError):
        QueryToxicity("q", "", total_sites=0, scam_sites=0,
                      toxicity=0.0, expansion=0)
    with pytest.raises(SchemaError):
        QueryToxicity("q", "", total_sites=10, scam_sites=5,
                      toxicity=1.5, expansion=5)
    with pytest.raises(SchemaError):
        QueryToxicity("q", "", total_sites=10, scam_sites=5,
                      toxicity=0.5, expansion=4)
    for scams in (5, -1):   # outside [0, total_sites]
        with pytest.raises(SchemaError, match="scam_sites must be within"):
            QueryToxicity("q", "", total_sites=2, scam_sites=scams,
                          toxicity=0.1, expansion=scams)


def test_csv_round_trip(tmp_path):
    scored = [
        _scored("cheap nike shoes", 0.3, 6, 20),
        _scored("dog beds", 0.0, 0, 18),
    ]
    path = tmp_path / "scores.csv"
    write_scores(scored, path)
    assert read_scores(path) == scored
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "query,category,total_sites,scam_sites,toxicity,expansion"
    assert lines[1].split(",")[4] == "0.300000"  # six-decimal toxicity


def test_read_scores_accepts_every_ratio_write_scores_rounds(tmp_path):
    scored = [_scored(f"q{total}-{scams}", scams / total, scams, total)
              for total in range(1, 301) for scams in range(total + 1)]
    path = tmp_path / "scores.csv"
    write_scores(scored, path)
    back = read_scores(path)
    assert [(s.total_sites, s.scam_sites) for s in back] == \
        [(s.total_sites, s.scam_sites) for s in scored]
    assert all(f"{a.toxicity:.6f}" == f"{b.toxicity:.6f}" for a, b in zip(back, scored))
