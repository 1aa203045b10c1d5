"""Output checks that any correct program passes.

Each check recomputes a result from the generated inputs with plain set
arithmetic (or reads a structural property off an output file) and compares
it with what the CLI wrote.  Every check is one operation in the benchmark's
``attempted`` count; a mismatch is one ``failed`` operation.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

from gen import BRANDS, Inputs


class Ops:
    """Attempted and failed operations: CLI stages plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.stage_failed = False   # a CLI stage failed; outputs are incomplete

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def root_of(url: str) -> str:
    """Registrable domain of a generated URL (hosts are NAME or www.NAME)."""
    return url.split("/")[2].removeprefix("www.")


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def f1_score(pairs) -> float:
    """F1 of the SCAM class over (predicted, true) label pairs."""
    pairs = list(pairs)
    tp = sum(1 for p, t in pairs if p == t == "SCAM")
    fp = sum(1 for p, t in pairs if p == "SCAM" != t)
    fn = sum(1 for p, t in pairs if t == "SCAM" != p)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# --- measure --------------------------------------------------------------------


def check_measure(ops: Ops, inputs: Inputs, out: Path) -> float:
    """Checks verdicts, toxicity and tables; returns the hold-out F1."""
    verdicts = {row[0]: (row[1], float(row[2]))
                for row in _csv_rows(out / "verdicts.csv")}
    ops.record("score writes one verdict per snapshot",
               set(verdicts) == set(inputs.truth),
               f"{len(verdicts)} verdicts for {len(inputs.truth)} domains")
    ops.record("verdicts are SCAM/BENIGN with scores in [0, 1]",
               all(label in ("SCAM", "BENIGN") and 0.0 <= score <= 1.0
                   for label, score in verdicts.values()))

    categories = {kw["text"]: kw["category"]
                  for kw in _jsonl(inputs.files["keywords"])}
    pooled: dict[str, set] = defaultdict(set)
    for rec in _jsonl(inputs.files["serps"]):
        pooled[rec["query"]].update(root_of(e["url"]) for e in rec["entries"])
    expected = []
    for query in sorted(pooled):
        domains = pooled[query]
        scams = sum(1 for d in domains if verdicts.get(d, ("",))[0] == "SCAM")
        expected.append([query, categories.get(query, ""), str(len(domains)),
                         str(scams), f"{scams / len(domains):.6f}", str(scams)])
    got = _csv_rows(out / "toxicity.csv")
    bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    ops.record("toxicity rows equal a brute-force dedup tally", bad == 0,
               f"{bad} rows differ")

    for table in ("attributes.csv", "segments.csv", "cross_category.csv"):
        path = out / "tables" / table
        ops.record(f"baselines writes {table}",
                   path.is_file() and len(_csv_rows(path)) > 0)

    return f1_score((verdicts[d][0], inputs.truth[d]) for d in inputs.holdout)


# --- ranking (distill and discover) ------------------------------------------------


def check_ranked(ops: Ops, inputs: Inputs, path: Path, keywords: Path,
                 k: int) -> float:
    """Checks ranked.csv; returns the mean true toxicity of its top-k rows."""
    rows = _csv_rows(path)
    ops.record("ranked.csv scores lie in [0, 1]",
               bool(rows) and all(0.0 <= float(r[3]) <= 1.0 for r in rows))
    category_of = {kw["text"]: kw["category"] for kw in _jsonl(keywords)}
    by_cat: dict[str, list] = defaultdict(list)
    for cat, rank, text, score in rows:
        by_cat[cat].append((int(rank), text, float(score)))
    ordered = list(by_cat) == sorted(by_cat) and all(
        [r for r, _, _ in group] == list(range(1, len(group) + 1))
        and len(group) <= k
        and all(category_of.get(text) == cat for _, text, _ in group)
        and all(a[2] >= b[2] for a, b in zip(group, group[1:]))
        for cat, group in by_cat.items())
    ops.record("ranked.csv keeps each category's top k in score order", ordered)
    return sum(inputs.query_toxicity[r[2]] for r in rows) / max(len(rows), 1)


# --- discover ---------------------------------------------------------------------


def check_filter(ops: Ops, inputs: Inputs, kept_path: Path) -> None:
    kept = [kw["text"] for kw in _jsonl(kept_path)]
    every = iter(kw["text"] for kw in _jsonl(inputs.files["keywords"]))
    in_order = all(any(text == other for other in every) for text in kept)
    brand_free = not any(set(text.split()) & set(BRANDS) for text in kept)
    ops.record("filter-branded keeps an ordered subset free of brand names",
               in_order and brand_free)


def check_discover(ops: Ops, inputs: Inputs, out: Path, engines) -> None:
    """discovered_scams and queries_run against a brute-force tally.

    ``total_sites`` is left unchecked: how domains without a snapshot count
    there is still to be decided.
    """
    from scamscout.corpus import parse_snapshot
    from scamscout.featurizer import extract_features
    from scamscout.oracle import gbdt

    report = json.loads((out / "report.json").read_text())
    ranked = [(r[0], r[2]) for r in _csv_rows(out / "ranked.csv")]
    pages = {(rec["query"], rec["engine"]): rec["entries"]
             for rec in _jsonl(inputs.files["fixtures"])}
    known = {row[0] for row in _csv_rows(inputs.files["labels"])}
    snapshots = {}
    with open(inputs.files["snapshots"], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            snapshots[root_of(rec["final_url"] or rec["url"])] = line
    model = gbdt.load_model(out / "model.json")

    seen_by_cat: dict[str, set] = defaultdict(set)
    for category, text in ranked:
        for engine in engines:
            for entry in pages[(text, engine)]:
                domain = root_of(entry["url"])
                if domain not in known:
                    seen_by_cat[category].add(domain)
    verdict = {}
    for domain in set().union(*seen_by_cat.values()):
        snap = snapshots.get(domain)
        verdict[domain] = (snap is not None and gbdt.predict(
            model, extract_features(parse_snapshot(snap)))[0] == "SCAM")
    scams = {d for d, is_scam in verdict.items() if is_scam}

    ops.record("discover's discovered_scams equals a brute-force tally",
               report["discovered_scams"] == len(scams),
               f"{report['discovered_scams']} != {len(scams)}")
    ops.record("discover's queries_run equals ranked keywords x engines",
               report["queries_run"] == len(ranked) * len(engines))
    per_cat = {c["category"]: c["discovered_scams"] for c in report["categories"]}
    expected = {cat: len(doms & scams) for cat, doms in seen_by_cat.items()}
    ops.record("discover's per-category scam counts equal a brute-force tally",
               per_cat == expected)
