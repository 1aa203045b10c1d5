"""Command-line entry points for the discovery pipeline.

One umbrella command with a subcommand per pipeline stage:

    featurize       snapshots.jsonl -> features.csv
    train-oracle    features.csv + labels.csv -> model.json
    score           model.json + features.csv -> verdicts.csv
    toxicity        serp.jsonl + verdicts.csv -> toxicity.csv
    baselines       keywords/toxicity/segments -> the three sampling tables
    filter-branded  keywords.jsonl -> unbranded keywords.jsonl
    train-lupi      labeled queries + SERPs -> teacher/student checkpoints
    rank            student checkpoint + keywords -> ranked.csv
    discover        ranked.csv + SERP fixtures + oracle -> report.json

Every stage is deterministic for fixed inputs and seeds: rerunning a
command rewrites byte-identical output files.  A command that fails exits 2
and removes every output file it opened and every output directory it
created, so no later stage reads a partial one.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import corpus, records
from .branded import filter_unbranded
from .discovery import FixtureStore, run_discovery, write_report
from .errors import SchemaError, ScamscoutError
from .featurizer import (
    BOOLEAN,
    CATEGORICAL,
    FEATURES,
    FeatureVector,
    encode_dataset,
    extract_features,
)
from .heuristics import (
    QuerySegment,
    TokenType,
    attribute_table,
    cross_category_matrix,
    rank_segments,
)
from .lupi import (
    LossWeights,
    LupiDataset,
    LupiExample,
    PrivilegedConfig,
    TokenizerConfig,
    TrainConfig,
    assemble,
    distill_student,
    load_student,
    rank_keywords,
    ranked_from_csv,
    save_checkpoint,
    train_teacher,
    write_ranked,
)
from .oracle import gbdt
from .psl import root_domain
from .toxicity import read_scores, score_queries, write_scores


# --- features.csv round trip ---------------------------------------------------

_FEATURE_HEADER = ["root_domain"] + [name for name, _, _ in FEATURES]


def _feature_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def _parse_cell(value: str, name: str, kind: str):
    if value == "":
        return None
    if kind == CATEGORICAL:
        return value
    number = float(value)
    if kind == BOOLEAN and number not in (0.0, 1.0):
        raise ValueError(f"{name}: boolean must be 0 or 1, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"{name}: numeric must be finite, got {value!r}")
    return number


def write_features_csv(path, rows: list[tuple[str, FeatureVector]]) -> None:
    records.write_csv(path, _FEATURE_HEADER, (
        [domain] + [_feature_cell(v) for v in vector.values]
        for domain, vector in rows))


def read_features_csv(path) -> list[tuple[str, FeatureVector]]:
    records.check_header(path, _FEATURE_HEADER)
    return list(records.read_csv(path, lambda row: (row["root_domain"], FeatureVector(
        [_parse_cell(row[name], name, kind) for name, kind, _ in FEATURES]))))


# --- subcommands ----------------------------------------------------------------


def _cmd_featurize(args) -> int:
    rows = []
    tag_memo: dict = {}
    for snap in corpus.read_snapshots(args.snapshots):
        domain = root_domain(snap.final_url or snap.url)
        rows.append((domain, extract_features(snap, memo=tag_memo)))
    write_features_csv(args.out, rows)
    print(f"featurized {len(rows)} snapshots -> {args.out}")
    return 0


def _cmd_train_oracle(args) -> int:
    rows = read_features_csv(args.features)
    labels = {lab.root_domain: lab.label for lab in corpus.read_labels(args.labels)}
    vectors, y = [], []
    skipped = 0
    for domain, vector in rows:
        label = labels.get(domain)
        if label is None:
            skipped += 1
            continue
        vectors.append(vector)
        y.append(1 if label == "SCAM" else 0)
    if skipped:
        print(f"warning: {skipped} feature rows had no label", file=sys.stderr)
    matrix, _ = encode_dataset(vectors, y)
    config = gbdt.TrainConfig(
        rounds=args.rounds, max_depth=args.max_depth,
        learning_rate=args.learning_rate, min_leaf=args.min_leaf)
    model = gbdt.train_gbdt(matrix, config)
    gbdt.save_model(model, args.out)
    print(f"trained on {len(y)} domains "
          f"({sum(y)} scam), loss {model.train_loss[-1]:.6f} -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    model = gbdt.load_model(args.model)
    rows = read_features_csv(args.features)
    verdicts = gbdt.predict_many(model, [vector for _, vector in rows])
    records.write_csv(args.out, ["root_domain", "label", "score"], (
        [domain, label, f"{score:.6f}"]
        for (domain, _), (label, score) in zip(rows, verdicts)))
    print(f"scored {len(rows)} domains -> {args.out}")
    return 0


def _cmd_toxicity(args) -> int:
    serps = corpus.read_serps(args.serps)
    verdicts = {lab.root_domain: lab.label
                for lab in corpus.read_labels(args.labels)}
    categories = {}
    if args.keywords:
        categories = {kw.text: kw.category
                      for kw in corpus.read_keywords(args.keywords)}
    scored = score_queries(serps, verdicts, categories)
    write_scores(scored, args.out)
    print(f"scored {len(scored)} queries -> {args.out}")
    return 0


def _read_segments(path) -> dict[str, list[QuerySegment]]:
    by_cat: dict[str, list[QuerySegment]] = {}
    for category, seg in records.read_jsonl(path, lambda rec: (
            records.get_typed(rec, "category", str, ""),
            QuerySegment(rec["text"], TokenType(rec["token_type"])))):
        by_cat.setdefault(category, []).append(seg)
    return by_cat


def _cmd_baselines(args) -> int:
    keywords = corpus.read_keywords(args.keywords)
    scored = read_scores(args.toxicity)
    segments_by_cat = _read_segments(args.segments) if args.segments else {}
    by_query = {s.query: s for s in scored}

    def fmt(est):
        return ("", "") if est is None else (f"{est.mean:.6f}", f"{est.std:.6f}")

    rows = attribute_table(keywords, by_query, args.seed, args.n_sim,
                           args.sample_size)
    tables = {"attributes.csv": (
        ["attribute", "queries", "toxicity_mean", "toxicity_std",
         "expansion_mean", "expansion_std"],
        [[row.key, row.count, *fmt(row.toxicity), *fmt(row.expansion)]
         for row in rows])}

    all_segments = [seg for segs in segments_by_cat.values() for seg in segs]
    if all_segments:
        ranked = rank_segments(all_segments, scored, args.seed, args.n_sim,
                               args.sample_size)
        tables["segments.csv"] = (
            ["rank", "segment", "queries", "toxicity_mean", "toxicity_std"],
            [[i, row.key, row.count, *fmt(row.toxicity)]
             for i, row in enumerate(ranked, start=1)])

        scored_by_cat: dict[str, list] = {}
        for s in scored:
            scored_by_cat.setdefault(s.category, []).append(s)
        matrix = cross_category_matrix(segments_by_cat, scored_by_cat,
                                       args.seed, args.n_sim, args.sample_size)
        cats = sorted(matrix)
        tables["cross_category.csv"] = (
            ["source"] + cats,
            [[source] + [("" if matrix[source][t] is None
                          else f"{matrix[source][t].mean:.6f}") for t in cats]
             for source in cats])

    out_dir = Path(args.out_dir)
    records.make_output_dir(out_dir)
    for name, (header, table) in tables.items():
        records.write_csv(out_dir / name, header, table)
    print(f"wrote sampling tables -> {out_dir}")
    return 0


def _cmd_filter_branded(args) -> int:
    keywords = corpus.read_keywords(args.in_path)
    unbranded = set(filter_unbranded([kw.text for kw in keywords]))
    kept = [kw for kw in keywords if kw.text in unbranded]
    corpus.write_keywords(args.out, kept)
    print(f"kept {len(kept)}/{len(keywords)} unbranded keywords -> {args.out}")
    return 0


def _lupi_example(rec: dict) -> LupiExample:
    # the example's own fields are checked before those of its page
    example = records.from_record(LupiExample, {**rec, "serps": []})
    if rec.get("entries"):
        example.serps.append(corpus.serp_from_record(rec))
    return example


def _read_lupi_examples(path) -> list[LupiExample]:
    return list(records.read_jsonl(path, _lupi_example))


def _cmd_train_lupi(args) -> int:
    priv = PrivilegedConfig.from_spec(args.priv)
    if priv.filter == "SCAM_ONLY" and not args.labels:
        raise SchemaError("--priv filter scam_only needs --labels")
    weights = LossWeights.from_spec(args.weights)
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed,
                      patience=args.patience)
    examples = _read_lupi_examples(args.train)
    scam_labels = {}
    if args.labels:
        scam_labels = {lab.root_domain: lab.label
                       for lab in corpus.read_labels(args.labels)}
    tensors = assemble(LupiDataset(examples, scam_labels), priv,
                       TokenizerConfig(), cfg.seed)
    teacher, treport = train_teacher(tensors, cfg)
    print(f"teacher best val MAE {min(treport.val_losses):.6f} "
          f"(epoch {treport.best_epoch}, {tensors.empty_priv} queries "
          f"without privileged text)")
    student, sreport = distill_student(tensors, teacher, weights, cfg)
    print(f"student best val loss {min(sreport.val_losses):.6f} "
          f"(epoch {sreport.best_epoch})")
    save_checkpoint(student, args.out)
    if args.teacher_out:
        save_checkpoint(teacher, args.teacher_out)
    print(f"saved student -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    student = load_student(args.model)
    keywords = corpus.read_keywords(args.keywords)
    ranked = rank_keywords(student, keywords, k=args.k)
    write_ranked(args.out, ranked)
    print(f"ranked {len(keywords)} keywords, kept {len(ranked)} -> {args.out}")
    return 0


def _cmd_discover(args) -> int:
    ranked = ranked_from_csv(args.ranked)
    store = FixtureStore.load(args.fixtures)
    model = gbdt.load_model(args.oracle)

    snapshots = {}
    if args.snapshots:
        for snap in corpus.read_snapshots(args.snapshots):
            snapshots[root_domain(snap.final_url or snap.url)] = snap

    unknown: set[str] = set()
    tag_memo: dict = {}

    def classify(domains: list[str]) -> list[str]:
        unknown.update(d for d in domains if d not in snapshots)
        seen = [d for d in domains if d in snapshots]
        verdicts = gbdt.predict_many(
            model, [extract_features(snapshots[d], memo=tag_memo) for d in seen])
        labels = {d: label for d, (label, _) in zip(seen, verdicts)}
        return [labels.get(d, "BENIGN") for d in domains]

    known = set()
    if args.labels:
        known = {lab.root_domain for lab in corpus.read_labels(args.labels)}

    report = run_discovery(
        ranked,
        classify,
        store=store,
        engines=tuple(args.engines.split(",")),
        known_domains=known,
        exposure_k=args.exposure_k,
    )
    if unknown:
        warnings.warn(
            f"{len(unknown)} domains had no snapshot and were treated as benign")
    write_report(report, args.out)
    print(f"ran {report.queries_run} searches, "
          f"{report.discovered_scams}/{report.total_sites} new scam domains "
          f"-> {args.out}")
    return 0


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scamscout",
        description="Scam storefront discovery via toxic search queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="extract oracle features from snapshots")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train-oracle", help="train the scam/benign classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--min-leaf", type=int, default=5)
    p.set_defaults(func=_cmd_train_oracle)

    p = sub.add_parser("score", help="classify featurized domains")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("toxicity", help="toxicity/expansion per query")
    p.add_argument("--serps", required=True)
    p.add_argument("--labels", required=True,
                   help="labels.csv or verdicts.csv from `score`")
    p.add_argument("--keywords", default=None,
                   help="optional keywords.jsonl supplying query categories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_toxicity)

    p = sub.add_parser("baselines", help="attribute/segment sampling tables")
    p.add_argument("--keywords", required=True)
    p.add_argument("--toxicity", required=True)
    p.add_argument("--segments", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sim", type=int, default=1000)
    p.add_argument("--sample-size", type=int, default=20)
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("filter-branded", help="drop brand-bearing keywords")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter_branded)

    p = sub.add_parser("train-lupi", help="train teacher and distill student")
    p.add_argument("--train", required=True)
    p.add_argument("--priv", default=PrivilegedConfig().spec_string(),
                   help="engine:field:filter:selection:size")
    p.add_argument("--weights", default="1,0.5,0.5",
                   help="gt,pm,hm loss weights")
    p.add_argument("--labels", default=None,
                   help="labels.csv for the scam_only privileged filter")
    p.add_argument("--out", required=True)
    p.add_argument("--teacher-out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=2e-5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--patience", type=int, default=2)
    p.set_defaults(func=_cmd_train_lupi)

    p = sub.add_parser("rank", help="rank keywords by predicted toxicity")
    p.add_argument("--model", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("discover", help="search ranked queries, tally new scams")
    p.add_argument("--ranked", required=True)
    p.add_argument("--mode", choices=["replay"], default="replay",
                   help="replay, the only mode: every search is served "
                        "from the fixture store")
    p.add_argument("--oracle", required=True)
    p.add_argument("--fixtures", required=True,
                   help="SERP fixture store to replay")
    p.add_argument("--snapshots", default=None,
                   help="snapshots.jsonl for featurizing discovered domains")
    p.add_argument("--labels", default=None,
                   help="seed labels.csv; those domains never count as new")
    p.add_argument("--engines", default="GOOGLE",
                   help="comma-separated engine list")
    p.add_argument("--exposure-k", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_discover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with records.removed_on_failure():
            return args.func(args)
    except ScamscoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable file, named by its path
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename
              else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
