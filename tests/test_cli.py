"""End-to-end pipeline runs of the command-line interface over fixtures."""

import csv
import errno
import filecmp
import hashlib
import io
import json
import math
import os
import random
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout import corpus, records
from scamscout.cli import (_feature_cell, build_parser, main,
                           read_features_csv, write_features_csv)
from scamscout.errors import SchemaError
from scamscout.featurizer import (BOOLEAN, CATEGORICAL, FEATURES, NUMERIC,
                                    DatasetEncoder, FeatureVector)
from scamscout.lupi import load_student, load_teacher, ranked_from_csv
from scamscout.oracle import gbdt
from scamscout.psl import root_domain

from conftest import FIXTURES
from walkthrough import walkthrough


def _step(workdir, command, **flags):
    """The walkthrough's ``command`` argv, run into ``workdir``, with each
    ``flags`` option (``out=path`` for ``--out``) set to a new value, or
    dropped with its value if that is None."""
    [argv] = [argv for argv in walkthrough(workdir) if argv[0] == command]
    for name, value in flags.items():
        i = argv.index("--" + name.replace("_", "-"))
        argv[i:i + 2] = [] if value is None else [argv[i], str(value)]
    return argv


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _feature_rows(table):
    """``(root domain, FeatureVector)`` per row of a table read by column,
    NaN read back as MISSING."""
    columns = [col if isinstance(col, list)
               else [None if math.isnan(v) else float(v) for v in col]
               for col in table.columns]
    return [(domain, FeatureVector(list(values)))
            for domain, values in zip(table.domains, zip(*columns))]


def test_featurize_output(workdir):
    rows = read_features_csv(workdir / "features.csv")
    n_snapshots = sum(1 for line in (FIXTURES / "snapshots.jsonl").read_text(
        encoding="utf-8").splitlines() if line.strip())
    assert len(rows) == n_snapshots
    # the CSV cell format round-trips float features bit-exactly
    write_features_csv(workdir / "features_rt.csv", _feature_rows(rows))
    assert filecmp.cmp(workdir / "features.csv", workdir / "features_rt.csv",
                       shallow=False)


def test_trained_oracle_scores_every_row(workdir):
    model = gbdt.load_model(workdir / "model.json")
    assert model.config.rounds == 60
    rows = _rows(workdir / "verdicts.csv")
    assert len(rows) == len(read_features_csv(workdir / "features.csv"))
    for row in rows:
        assert row["label"] in ("SCAM", "BENIGN")
        assert 0.0 <= float(row["score"]) <= 1.0


def test_oracle_separates_seed_labels(workdir):
    # training-set fit: labeled seed domains should mostly score correctly
    labels = corpus.read_labels(FIXTURES / "labels.csv")
    rows = _rows(workdir / "verdicts.csv")
    labeled = [r for r in rows if r["root_domain"] in labels]
    assert labeled
    hits = sum(1 for r in labeled if r["label"] == labels[r["root_domain"]])
    assert hits / len(labeled) >= 0.9


def test_toxicity_table(workdir):
    rows = _rows(workdir / "toxicity.csv")
    n_keywords = sum(1 for line in (FIXTURES / "keywords.jsonl").read_text(
        encoding="utf-8").splitlines() if line.strip())
    assert len(rows) == n_keywords
    for row in rows:
        tox = float(row["toxicity"])
        assert 0.0 <= tox <= 1.0
        assert int(row["scam_sites"]) == int(row["expansion"])
        assert row["category"]  # keywords file supplies categories
    queries = [row["query"] for row in rows]
    assert queries == sorted(queries)


# sha256 of the stage outputs that run no numpy code, so no BLAS build or
# numpy version moves their bytes: the featurizer and the toxicity counts,
# both of which take every domain from its URL through psl.  The same digests
# come out under Python 3.10 and 3.11.  A change that moves these bytes on
# purpose re-pins them here and names the file in CHANGES.md.
_PINNED_SHA256 = {
    "features.csv": "4a88e7c4c0435040fac6a9a1e56ab10fcce8cbc28540d4d09b511d8e039e31a3",
    "toxicity.csv": "9e15d98972b4935b77f8740169e62d548d99d011d8f4115e103656fe853ea3c3",
}


@pytest.mark.parametrize("name", sorted(_PINNED_SHA256))
def test_pure_python_outputs_keep_their_pinned_bytes(workdir, name):
    digest = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
    assert digest == _PINNED_SHA256[name]


def test_toxicity_takes_each_root_domain_from_the_url(tmp_path):
    """A ``root_domain`` written in serps.jsonl is ignored: the first result
    is on example.com, whatever its record claims."""
    serps = tmp_path / "serps.jsonl"
    serps.write_text(json.dumps({"query": "q", "entries": [
        {"engine": "GOOGLE", "rank": 1, "url": "https://shop.example.com/p",
         "root_domain": "scam.top"},
        {"engine": "GOOGLE", "rank": 2, "url": "https://example.com/"},
    ]}) + "\n", encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("root_domain,label,category\nexample.com,BENIGN,x\n"
                      "scam.top,SCAM,x\n", encoding="utf-8")
    rc = main(["toxicity", "--serps", str(serps), "--labels", str(labels),
               "--out", str(tmp_path / "toxicity.csv")])
    assert rc == 0
    [row] = _rows(tmp_path / "toxicity.csv")
    assert (row["total_sites"], row["scam_sites"], row["toxicity"]) == (
        "1", "0", "0.000000")


def test_baseline_tables(workdir):
    attr = _rows(workdir / "tables" / "attributes.csv")
    assert [r["attribute"] for r in attr] == [
        "INFORMATIONAL", "COMMERCIAL", "LOW_COMPETITION",
        "MEDIUM_COMPETITION", "LONG_TAIL"]
    seg = _rows(workdir / "tables" / "segments.csv")
    assert [int(r["rank"]) for r in seg] == list(range(1, len(seg) + 1))
    means = [float(r["toxicity_mean"]) for r in seg]
    assert means == sorted(means, reverse=True)
    keys = [r["segment"] for r in seg]
    assert len(set(keys)) == len(keys)   # one row per distinct segment text
    with open(workdir / "tables" / "cross_category.csv", newline="") as fh:
        grid = list(csv.reader(fh))
    cats = grid[0][1:]
    assert cats == sorted(cats)
    assert [row[0] for row in grid[1:]] == cats  # square, same order


def test_baseline_tables_do_not_depend_on_input_order(workdir, tmp_path):
    """Shuffled toxicity rows and segment lines rewrite the same tables."""
    rng = random.Random(7)
    header, *rows = (workdir / "toxicity.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    lines = (FIXTURES / "segments.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    shuffled_rows, shuffled_lines = rows[:], lines[:]
    rng.shuffle(shuffled_rows)
    rng.shuffle(shuffled_lines)
    assert shuffled_rows != rows and shuffled_lines != lines
    (tmp_path / "toxicity.csv").write_text(header + "".join(shuffled_rows),
                                           encoding="utf-8")
    (tmp_path / "segments.jsonl").write_text("".join(shuffled_lines),
                                             encoding="utf-8")
    rc = main(["baselines", "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--toxicity", str(tmp_path / "toxicity.csv"),
               "--segments", str(tmp_path / "segments.jsonl"),
               "--out-dir", str(tmp_path / "tables"), "--n-sim", "200"])
    assert rc == 0
    for name in ("attributes.csv", "segments.csv", "cross_category.csv"):
        assert ((tmp_path / "tables" / name).read_bytes()
                == (workdir / "tables" / name).read_bytes()), name


def test_filter_branded_keeps_subset(workdir):
    kept = corpus.read_keywords(workdir / "unbranded.jsonl")
    original = corpus.read_keywords(FIXTURES / "keywords.jsonl")
    assert 0 < len(kept) <= len(original)
    original_texts = {kw.text for kw in original}
    assert all(kw.text in original_texts for kw in kept)


def test_lupi_checkpoints_load(workdir):
    student = load_student(workdir / "student.json")
    teacher = load_teacher(workdir / "teacher.json")
    assert student.enc_cfg == teacher.enc_cfg
    assert teacher.priv.spec_string() == "google:description:all:ranked:5"


def test_rank_output(workdir):
    ranked = ranked_from_csv(workdir / "ranked.csv")
    per_cat = {}
    for row in ranked:
        per_cat.setdefault(row.category, []).append(row)
    for rows in per_cat.values():
        assert len(rows) <= 5
        assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
        scores = [r.score for r in rows]
        assert scores == sorted(scores, reverse=True)


def _report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_discovery_report(workdir):
    report = _report(workdir / "report.json")
    assert report["total_sites"] > 0
    # globally deduplicated totals never exceed the per-category sums
    assert report["discovered_scams"] <= sum(c["discovered_scams"]
                                             for c in report["categories"])
    assert report["total_sites"] <= sum(c["total_sites"]
                                        for c in report["categories"])
    for row in report["categories"]:
        assert 0 <= row["discovered_scams"] <= row["total_sites"]


def test_discovery_json_report(workdir):
    blob = _report(workdir / "report.json")
    assert [e["engine"] for e in blob["exposure"]] == ["BING", "GOOGLE"]
    for e in blob["exposure"]:
        assert e["total_scams"] == blob["discovered_scams"]
        assert 0 <= e["top_k_scams"] <= e["total_scams"]
    assert blob["scam_fraction"] == (blob["discovered_scams"]
                                     / blob["total_sites"])
    assert blob["queries_run"] == 2 * len(ranked_from_csv(workdir / "ranked.csv"))
    assert len(blob["config_digest"]) == 32


def test_featurize_does_not_depend_on_snapshot_order(workdir, tmp_path):
    """Snapshots in reverse order give the same header and, sorted, the same
    rows: the tag memo shared by the pages of one run does not depend on
    their order."""
    lines = (FIXTURES / "snapshots.jsonl").read_text(
        encoding="utf-8").splitlines()
    snapshots = tmp_path / "snapshots.jsonl"
    snapshots.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    rc = main(_step(workdir, "featurize", snapshots=snapshots,
                    out=tmp_path / "features.csv"))
    assert rc == 0
    header, *rows = (workdir / "features.csv").read_text(
        encoding="utf-8").splitlines()
    new_header, *new_rows = (tmp_path / "features.csv").read_text(
        encoding="utf-8").splitlines()
    assert new_header == header
    assert new_rows != rows and sorted(new_rows) == sorted(rows)


def test_discover_reads_result_hosts_behind_userinfo(workdir, tmp_path):
    """Result URLs carrying userinfo (``https://u@host``) go through
    ``urlsplit`` rather than psl's plain-URL regex; the hosts are the same,
    so the report is too."""
    text = (FIXTURES / "serps.jsonl").read_text(encoding="utf-8")
    assert '"url": "https://' in text
    fixtures = tmp_path / "serps.jsonl"
    fixtures.write_text(text.replace('"url": "https://', '"url": "https://u@'),
                        encoding="utf-8")
    rc = main(_step(workdir, "discover", fixtures=fixtures,
                    out=tmp_path / "report.json"))
    assert rc == 0
    assert filecmp.cmp(workdir / "report.json", tmp_path / "report.json",
                       shallow=False)


def test_train_lupi_random_selection_reruns_byte_identically(workdir,
                                                             tmp_path):
    """The RANDOM privileged selection (each query's results drawn down to
    five, seeded per query) trains the same models on a rerun."""
    runs = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        rc = main(_step(workdir, "train-lupi", priv="all:both:all:random:5",
                        epochs=1, out=out / "student.json",
                        teacher_out=out / "teacher.json"))
        assert rc == 0
        runs.append(_files(out))
    assert len(runs[0]) == 2 and runs[0] == runs[1]


def test_discover_requires_fixtures(tmp_path, capsys):
    """Replay is the only mode: argparse stops a run without a fixture store
    before any file is read (none of these exists)."""
    with pytest.raises(SystemExit) as exc:
        main(["discover", "--ranked", str(tmp_path / "ranked.csv"),
              "--oracle", str(tmp_path / "model.json"),
              "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert "the following arguments are required: --fixtures" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_discover_mode_replay_still_parses(tmp_path, capsys):
    """``--mode replay`` is accepted (benchmark scripts pass it); no other
    mode exists."""
    argv = ["discover", "--ranked", "r.csv", "--oracle", "m.json",
            "--fixtures", "f.jsonl", "--out", "o.json"]
    assert build_parser().parse_args(argv + ["--mode", "replay"]).mode == "replay"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--mode", "live"])
    assert exc.value.code == 2
    assert "invalid choice: 'live'" in capsys.readouterr().err


def test_train_oracle_takes_no_seed(workdir, tmp_path, capsys):
    """Boosting draws no random number, so there is no seed to set."""
    with pytest.raises(SystemExit) as exc:
        main(["train-oracle", "--features", str(workdir / "features.csv"),
              "--labels", str(FIXTURES / "labels.csv"), "--seed", "1",
              "--out", str(tmp_path / "model.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# --- a failed run exits 2 and changes no file ----------------------------------


# the workdir output that each output flag of a subcommand writes
_OUTPUTS = {
    "featurize": {"--out": "features.csv"},
    "train-oracle": {"--out": "model.json"},
    "score": {"--out": "verdicts.csv"},
    "toxicity": {"--out": "toxicity.csv"},
    "baselines": {"--out-dir": "tables"},
    "filter-branded": {"--out": "unbranded.jsonl"},
    "train-lupi": {"--out": "student.json", "--teacher-out": "teacher.json"},
    "rank": {"--out": "ranked.csv"},
    "discover": {"--out": "report.json"},
}


def _tree(root):
    """Each path under ``root``: a file's bytes, or None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture
def exits_2(workdir, tmp_path, capsys):
    """``exits_2(argv, error)`` runs the failing ``argv`` twice: with its
    outputs absent, then with each output already holding the bytes the
    ``workdir`` run wrote there.  Each run must exit 2, print the line
    ``error: {error}``, and leave every file and directory under
    ``tmp_path`` as it found them, so an output opened before the fault
    shows up.  ``earlier_outputs=False`` skips the second run, for a case
    whose output cannot be written: a failed run removes an output it
    overwrote rather than restoring it."""
    def run(argv, error, earlier_outputs=True):
        argv = [str(a) for a in argv]
        outputs = {Path(argv[argv.index(flag) + 1]): workdir / name
                   for flag, name in _OUTPUTS[argv[0]].items() if flag in argv}
        assert all(tmp_path in path.parents and not path.exists()
                   for path in outputs)
        for earlier in (False, True) if earlier_outputs else (False,):
            if earlier:
                for path, source in outputs.items():
                    if source.is_dir():
                        shutil.copytree(source, path)
                    else:
                        shutil.copyfile(source, path)
            before = _tree(tmp_path)
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2, err
            assert f"error: {error}" in err.splitlines(), err
            assert _tree(tmp_path) == before, f"earlier outputs: {earlier}"
    return run


def test_cli_reports_domain_errors_as_exit_code(workdir, tmp_path, exits_2):
    # single-class labels cannot train the oracle
    one_class = tmp_path / "labels.csv"
    with open(FIXTURES / "labels.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["label"] == "SCAM"]
    with open(one_class, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["root_domain", "label", "category"])
        writer.writeheader()
        writer.writerows(rows)
    exits_2(["train-oracle", "--features", workdir / "features.csv",
             "--labels", one_class, "--out", tmp_path / "m.json"],
            "logistic training requires both classes")

    # a ranked keyword with no recorded SERP is a hard replay miss
    missing = tmp_path / "ranked.csv"
    missing.write_text("category,rank,keyword,score\nx,1,never recorded,0.5\n")
    exits_2(["discover", "--ranked", missing, "--oracle", workdir / "model.json",
             "--fixtures", FIXTURES / "serps.jsonl", "--out", tmp_path / "r.json"],
            "no fixture for ('never recorded', GOOGLE)")


def test_discover_rejects_malformed_fixture_with_line_number(workdir, tmp_path,
                                                             exits_2):
    lines = (FIXTURES / "serps.jsonl").read_text().splitlines()
    lines.insert(1, json.dumps({"entries": []}))
    fixtures = tmp_path / "serps.jsonl"
    fixtures.write_text("\n".join(lines) + "\n")
    exits_2(["discover", "--ranked", workdir / "ranked.csv",
             "--oracle", workdir / "model.json",
             "--fixtures", fixtures, "--out", tmp_path / "r.json"],
            f"{fixtures}:2: missing key 'query'")


@pytest.mark.parametrize("toxicity", ["NaN", "1.7", None])
def test_train_lupi_rejects_bad_record_with_line_number(tmp_path, exits_2,
                                                        toxicity):
    lines = (FIXTURES / "lupi_train.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    if toxicity is None:
        cause = _json_error(lines)
        assert cause.startswith("Expecting ',' delimiter")
        lines[2] = lines[2][:-1]  # truncated JSON
    else:
        rec["toxicity"] = float(toxicity)
        lines[2] = json.dumps(rec)
        cause = (f"query {rec['query']!r}: toxicity must be a finite value in "
                 f"[0, 1], got {rec['toxicity']!r}")
    train = tmp_path / "train.jsonl"
    train.write_text("\n".join(lines) + "\n")
    exits_2(["train-lupi", "--train", train, "--labels", FIXTURES / "labels.csv",
             "--out", tmp_path / "student.json"], f"{train}:3: {cause}")


def test_train_lupi_trains_on_naver_results(tmp_path, capsys):
    # the fixture's results moved to NAVER, which a SERP entry accepts
    text = (FIXTURES / "lupi_train.jsonl").read_text(encoding="utf-8")
    assert '"engine": "GOOGLE"' in text and "NAVER" not in text
    train = tmp_path / "train.jsonl"
    train.write_text(text.replace('"engine": "GOOGLE"', '"engine": "NAVER"'),
                     encoding="utf-8")
    rc = main(["train-lupi", "--train", str(train),
               "--priv", "naver:description:all:ranked:5",
               "--epochs", "1", "--lr", "2e-3", "--batch-size", "16",
               "--out", str(tmp_path / "student.json"),
               "--teacher-out", str(tmp_path / "teacher.json")])
    assert rc == 0
    # every query's results reach the teacher
    assert "0 queries without privileged text" in capsys.readouterr().out
    teacher = load_teacher(tmp_path / "teacher.json")
    assert teacher.priv.spec_string() == "naver:description:all:ranked:5"


def test_train_lupi_tokenizes_its_queries_once(tmp_path, monkeypatch):
    # the teacher and the student train on one assembled set
    from scamscout.lupi import train
    batches = []
    tokenize_batch = train.tokenize_batch
    monkeypatch.setattr(train, "tokenize_batch",
                        lambda texts, cfg: batches.append(len(texts))
                        or tokenize_batch(texts, cfg))
    rc = main(["train-lupi", "--train", str(FIXTURES / "lupi_train.jsonl"),
               "--labels", str(FIXTURES / "labels.csv"),
               "--epochs", "1", "--lr", "2e-3", "--batch-size", "16",
               "--out", str(tmp_path / "student.json")])
    assert rc == 0
    n_queries = len((FIXTURES / "lupi_train.jsonl").read_text(
        encoding="utf-8").splitlines())
    assert batches == [n_queries]


@pytest.mark.parametrize("fixture, argv", [
    ("serps.jsonl", ["toxicity", "--serps", "{path}",
                     "--labels", str(FIXTURES / "labels.csv"),
                     "--keywords", str(FIXTURES / "keywords.jsonl"),
                     "--out", "{out}"]),
    ("lupi_train.jsonl", ["train-lupi", "--train", "{path}",
                          "--labels", str(FIXTURES / "labels.csv"),
                          "--epochs", "1", "--out", "{out}"]),
])
def test_a_page_repeating_a_rank_is_rejected_with_its_line(tmp_path, exits_2,
                                                           fixture, argv):
    lines = (FIXTURES / fixture).read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    first, second = rec["entries"][:2]
    assert (first["engine"], first["rank"]) == ("GOOGLE", 1)
    second.update(engine="GOOGLE", rank=1)
    lines[0] = json.dumps(rec)
    path, out = tmp_path / fixture, tmp_path / "out"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    exits_2([a.format(path=path, out=out) for a in argv],
            f"{path}:1: GOOGLE rank 1 repeats in one page")


def test_train_lupi_failed_save_leaves_no_checkpoint(tmp_path, exits_2):
    """The teacher cannot be written, so the student written before it goes."""
    teacher = tmp_path / "nodir" / "teacher.json"
    exits_2(["train-lupi", "--train", FIXTURES / "lupi_train.jsonl",
             "--labels", FIXTURES / "labels.csv",
             "--epochs", "1", "--lr", "2e-3", "--batch-size", "16",
             "--out", tmp_path / "student.json", "--teacher-out", teacher],
            f"{teacher}: No such file or directory", earlier_outputs=False)


_BAD_TRAIN_LUPI_FLAGS = [
    (["--weights", "a,b,c,d"],
     "weights spec must be three comma-separated numbers, got 'a,b,c,d'"),
    (["--weights", "1,0.5,0.5,0.5"],
     "weights spec must be three comma-separated numbers, got '1,0.5,0.5,0.5'"),
    (["--priv", "google:description:all:ranked:x"],
     "privileged spec must be engine:field:filter:selection:size with an "
     "integer size, got 'google:description:all:ranked:x'"),
    (["--weights", "1,nan,0.5"],
     "loss weights must be finite, got (1.0, nan, 0.5)"),
    (["--weights", "1,inf,0"],
     "loss weights must be finite, got (1.0, inf, 0.0)"),
    (["--lr", "nan"], "lr must be finite and > 0, got nan"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("flags, message", _BAD_TRAIN_LUPI_FLAGS,
                         ids=[" ".join(f) for f, _ in _BAD_TRAIN_LUPI_FLAGS])
def test_train_lupi_rejects_a_bad_spec_or_rate_before_training(
        tmp_path, exits_2, monkeypatch, flags, message):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("scamscout.cli.train_teacher", no_training)
    exits_2(["train-lupi", "--train", FIXTURES / "lupi_train.jsonl",
             "--labels", FIXTURES / "labels.csv",
             "--out", tmp_path / "student.json",
             "--teacher-out", tmp_path / "teacher.json", *flags], message)


def test_train_lupi_scam_only_needs_labels(tmp_path, exits_2):
    """The default ``--priv`` keeps only results on scam-labeled domains;
    without ``--labels`` the teacher would see no result page.  The run
    stops before any file is read: the training file does not exist."""
    exits_2(["train-lupi", "--train", tmp_path / "missing.jsonl",
             "--out", tmp_path / "student.json"],
            "--priv filter scam_only needs --labels")


def _drop_rank(line):
    rec = json.loads(line)
    del rec["entries"][0]["rank"]
    return json.dumps(rec)


def _string_rank(line):
    rec = json.loads(line)
    rec["entries"][0]["rank"] = "2"
    return json.dumps(rec)


@pytest.mark.parametrize("mangle, message", [
    (_drop_rank, "missing key 'rank'"),
    (_string_rank, "rank must be an integer >= 1, got '2'"),
    (lambda line: line[:-1], "Expecting"),   # truncated JSON
])
def test_toxicity_rejects_bad_serp_record_with_line_number(tmp_path, exits_2,
                                                           mangle, message):
    lines = (FIXTURES / "serps.jsonl").read_text().splitlines()
    if message == "Expecting":
        message = _json_error(lines)
        assert message.startswith("Expecting ',' delimiter")
    lines[2] = mangle(lines[2])
    serps = tmp_path / "serps.jsonl"
    serps.write_text("\n".join(lines) + "\n")
    exits_2(["toxicity", "--serps", serps, "--labels", FIXTURES / "labels.csv",
             "--keywords", FIXTURES / "keywords.jsonl",
             "--out", tmp_path / "toxicity.csv"], f"{serps}:3: {message}")


def _first_of(kind):
    """(csv column, name) of the first feature of ``kind``."""
    return next((1 + i, name) for i, (name, k, _) in enumerate(FEATURES)
                if k == kind)


def _put(kind, value):
    def mangle(row):
        row = list(row)
        row[_first_of(kind)[0]] = value
        return row
    return mangle


def _widen(row):
    return row + ["0.0"]


def _shorten(row):
    return row[:-1]


def _garble(row):
    return _put(NUMERIC, "many")(row)


@pytest.mark.parametrize("mangle, message", [
    (_widen, f"expected {len(FEATURES) + 1} cells, got {len(FEATURES) + 2}"),
    (_shorten, f"expected {len(FEATURES) + 1} cells, got {len(FEATURES)}"),
    (_garble, "could not convert string to float: 'many'"),
    *[(_put(NUMERIC, cell),
       f"{_first_of(NUMERIC)[1]}: numeric must be finite, got {cell!r}")
      for cell in ("nan", "inf", "-inf", "1e999")],
    (_put(BOOLEAN, "7"), f"{_first_of(BOOLEAN)[1]}: boolean must be 0 or 1, got '7'"),
    (_put(BOOLEAN, "nan"),
     f"{_first_of(BOOLEAN)[1]}: boolean must be 0 or 1, got 'nan'"),
])
def test_bad_features_row_names_its_line(workdir, tmp_path, exits_2, mangle,
                                         message):
    with open(workdir / "features.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3] = mangle(rows[3])
    features = tmp_path / "features.csv"
    with open(features, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    exits_2(["train-oracle", "--features", features,
             "--labels", FIXTURES / "labels.csv", "--out", tmp_path / "model.json"],
            f"{features}:4: {message}")
    exits_2(["score", "--model", workdir / "model.json", "--features", features,
             "--out", tmp_path / "v.csv"], f"{features}:4: {message}")


# --- the row-wise features.csv reader, kept as the referee of the column one ---


def _ref_cell(value, name, kind):
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


def _ref_read_features_csv(path):
    """``(root domain, FeatureVector)`` per row, each cell parsed on its own."""
    seen = set()

    def parse(row):
        domain = row["root_domain"]
        if domain in seen:
            raise SchemaError(f"repeated root domain {domain!r}")
        seen.add(domain)
        return domain, FeatureVector([_ref_cell(row[name], name, kind)
                                      for name, kind, _ in FEATURES])

    records.check_header(path, ["root_domain"] + [n for n, _, _ in FEATURES])
    return list(records.read_csv(path, parse))


def _ref_matrix(vectors):
    """The design matrix built one row of floats at a time, categorical
    codes fitted on ``vectors``."""
    codes = [None] * len(FEATURES)
    for i, (_, kind, _) in enumerate(FEATURES):
        if kind == CATEGORICAL:
            tokens = sorted({v.values[i] for v in vectors} - {None})
            codes[i] = {tok: code for code, tok in enumerate(tokens, start=1)}
    rows = [[(math.nan if value is None else float(value)) if code is None
             else float(code.get(value, 0))
             for code, value in zip(codes, vector.values)]
            for vector in vectors]
    return np.array(rows, dtype=np.float64).reshape(-1, len(FEATURES))


def _outcome(read):
    """The matrix bits of a read and encode, or the error it raised."""
    try:
        return read()
    except SchemaError as exc:
        return str(exc)


# cells drawn into a few columns of each kind; every other cell is "0.0"
_DRAWN = {kind: [i for i, (_, k, _) in enumerate(FEATURES) if k == kind][:4]
          for kind in (NUMERIC, BOOLEAN, CATEGORICAL)}
_GOOD_CELLS = {
    NUMERIC: ["", "0", "0.0", "-0.0", "1e308", " 1 ", "1_0", "2.5", "7"],
    BOOLEAN: ["", "0.0", "1.0", "-0.0", " 1 ", "1"],
    CATEGORICAL: ["", "com", "a,b", "two\nlines", 'say "hi"', "shop"],
}
_BAD_CELLS = {NUMERIC: ["x", "nan", "-inf", "1e999", "1__0"],
              BOOLEAN: ["2", "nan", "1_0", "0.5"]}
_DOMAINS = ["a.com", "b.shop", "c,d.net", "e\nf.org", "g.top", "h.xyz"]


@st.composite
def _features_file(draw):
    """The bytes of a features.csv of up to 6 rows with none, one or two
    faults: a bad cell, a short row, a byte that is not UTF-8 or a repeated
    root domain."""
    n = draw(st.integers(1, 6))
    domains = draw(st.permutations(_DOMAINS))[:n]
    rows = []
    for domain in domains:
        row = [domain] + ["0.0"] * len(FEATURES)
        for kind, cols in _DRAWN.items():
            for col in cols:
                row[1 + col] = draw(st.sampled_from(_GOOD_CELLS[kind]))
        rows.append(row)
    undecodable = set()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["cell", "cell", "cell", "short", "byte",
                                      "domain"]))
        if fault == "cell":
            kind = draw(st.sampled_from([NUMERIC, BOOLEAN]))
            rows[i][1 + draw(st.sampled_from(_DRAWN[kind]))] = draw(
                st.sampled_from(_BAD_CELLS[kind]))
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "byte":
            undecodable.add(i)
        elif i:
            rows[i][0] = rows[draw(st.integers(0, i - 1))][0]
    lines = [",".join(["root_domain"] + [n for n, _, _ in FEATURES]).encode()]
    for i, row in enumerate(rows):
        record = "\n".join(_csv_lines([row])).encode()
        lines.append(record + b"\xff" if i in undecodable else record)
    return b"\n".join(lines) + b"\n"


@settings(max_examples=150, deadline=None)
@given(data=_features_file())
def test_column_reader_matches_the_row_wise_referee(tmp_path_factory, data):
    """The same matrix, bit for bit, or the same error naming the same line:
    the first fault in file order."""
    path = tmp_path_factory.mktemp("features") / "features.csv"
    path.write_bytes(data)

    def referee():
        return _ref_matrix([v for _, v in _ref_read_features_csv(path)]).view(np.uint64)

    def columns():
        table = read_features_csv(path)
        encoder = DatasetEncoder().fit(table.columns)
        return encoder.transform(table.columns).view(np.uint64)

    want, got = _outcome(referee), _outcome(columns)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_the_writer_gives_each_value_the_text_of_feature_cell(tmp_path):
    """An int's text is worked out once per distinct value; -0.0, True and
    0.1 are not taken for the int they equal or stand near."""
    values = [0, -0.0, 0.0, 1, True, 2**60, 0.1, None, "com", 0, -0.0, True]
    vector = FeatureVector(values + [0] * (len(FEATURES) - len(values)))
    write_features_csv(tmp_path / "features.csv", [("a.com", vector)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([
        ["root_domain"] + [n for n, _, _ in FEATURES],
        ["a.com"] + [_feature_cell(v) for v in vector.values]])
    assert (tmp_path / "features.csv").read_bytes() == buf.getvalue().encode()
    assert _feature_cell(-0.0) == "-0.0" and _feature_cell(True) == "1.0"


@pytest.fixture
def matrix_calls(monkeypatch):
    """Rows of each ``predict_proba`` call made so far."""
    calls = []
    original = gbdt.GbdtModel.predict_proba

    def counted(model, columns):
        calls.append(len(columns[0]))
        return original(model, columns)

    monkeypatch.setattr(gbdt.GbdtModel, "predict_proba", counted)
    return calls


def test_score_classifies_in_one_matrix_call(workdir, tmp_path, matrix_calls):
    rc = main(_step(workdir, "score", out=tmp_path / "verdicts.csv"))
    assert rc == 0
    assert matrix_calls == [len(_rows(workdir / "verdicts.csv"))]
    assert filecmp.cmp(workdir / "verdicts.csv", tmp_path / "verdicts.csv",
                       shallow=False)


def test_discover_classifies_in_one_matrix_call(workdir, tmp_path,
                                                matrix_calls):
    rc = main(_step(workdir, "discover", out=tmp_path / "report.json"))
    assert rc == 0
    assert len(matrix_calls) == 1 and matrix_calls[0] > 0
    assert filecmp.cmp(workdir / "report.json", tmp_path / "report.json",
                       shallow=False)


def test_discover_without_snapshots_warns_and_reports(workdir, tmp_path,
                                                      matrix_calls):
    with pytest.warns(UserWarning, match="had no snapshot"):
        rc = main(_step(workdir, "discover", out=tmp_path / "report.json",
                        snapshots=None))
    assert rc == 0
    assert matrix_calls == [0]
    report = _report(tmp_path / "report.json")
    assert report["total_sites"] > 0 and report["discovered_scams"] == 0


def test_discover_rejects_a_repeated_engine(workdir, tmp_path, exits_2):
    """A repeated engine would search every keyword twice."""
    exits_2(_step(workdir, "discover", out=tmp_path / "report.json",
                  engines="GOOGLE,GOOGLE"),
            "engines must not repeat, got GOOGLE,GOOGLE")


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_1_exits_2(workdir, tmp_path, exits_2, k):
    exits_2(_step(workdir, "rank", out=tmp_path / "ranked.csv", k=k),
            f"k must be >= 1, got {k}")
    exits_2(_step(workdir, "discover", out=tmp_path / "report.json",
                  exposure_k=k),
            f"exposure_k must be >= 1, got {k}")


# --- one contract for every input file ----------------------------------------


def _jsonl_case(edit):
    """Mangle the third record of a JSONL file; ``edit`` maps it to a line."""
    def mangle(lines):
        lines[2] = edit(json.loads(lines[2]))
        return lines, 3
    return mangle


def _set(key, value):
    return _jsonl_case(lambda rec: json.dumps({**rec, key: value}))


def _drop(key):
    return _jsonl_case(lambda rec: json.dumps(
        {k: v for k, v in rec.items() if k != key}))


def _set_entry(key, value):
    def edit(rec):
        rec["entries"][0] = value if key is None else {**rec["entries"][0],
                                                        key: value}
        return json.dumps(rec)
    return _jsonl_case(edit)


def _truncate(lines):
    lines[2] = lines[2][:-1]
    return lines, 3


def _not_an_object(lines):
    lines[2] = "[1, 2]"
    return lines, 3


def _document_case(edit):
    """Mangle a one-line JSON document, or the header line of a checkpoint;
    ``edit`` maps it to the new line.  A fault in a document names the file
    alone, with no line number."""
    def mangle(lines):
        return [edit(lines[0]), *lines[1:]], None
    return mangle


def _drop_document_key(key):
    return _document_case(lambda doc: json.dumps(
        {k: v for k, v in json.loads(doc).items() if k != key}))


def _first_split(model):
    """Index and root of the first tree whose root splits a numeric column."""
    return next((i, tree) for i, tree in enumerate(model["trees"])
                if "threshold" in tree)


def _model_case(edit):
    """``edit`` the parsed model document, or checkpoint header, in place."""
    def edit_line(line):
        doc = json.loads(line)
        edit(doc)
        return json.dumps(doc)
    return _document_case(edit_line)


def _split_case(key, value, cause):
    """Set ``key`` of that root to ``value``, or delete it if ``value`` is
    None; the cause is named by the node's path."""
    def edit(model):
        _, node = _first_split(model)
        if value is None:
            del node[key]
        else:
            node[key] = value
    return (_model_case(edit),
            lambda lines: f"trees[{_first_split(json.loads(lines[0]))[0]}].{cause}")


def _section_case(section, **values):
    """Set ``values`` in the ``section`` object of a model document or a
    checkpoint header."""
    return _model_case(lambda doc: doc[section].update(values))


def _short_body(lines):
    """A checkpoint whose parameter bytes lost their last float."""
    header, body = lines
    return [header, body[:-8]], None


def _byte_count_mismatch(lines):
    n = len(lines[1])
    return f"parameter byte count mismatch: {n - 8} vs {n}"


def _top_code(model):
    """The largest code of categorical column 29 in a model document."""
    return max(model["encoder"]["columns"]["29"].values(), default=1)


def _format_1(model):
    """The layout of model format 1: a loss, a seed and a schema version."""
    model.update(format_version=1, schema_version=model["encoder"]["schema_version"])
    model["config"].update(loss="LOGISTIC", seed=0)


def _csv_case(edit):
    """Mangle the CSV row on line 3; ``edit(header, row)`` gives the new row."""
    def mangle(lines):
        rows = list(csv.reader(lines))
        rows[2] = edit(rows[0], rows[2])
        return _csv_lines(rows), 3
    return mangle


def _csv_lines(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().splitlines()


def _cell(column, value):
    return _cells(**{column: value})


def _cells(**values):
    return _csv_case(lambda header, row: [values.get(name, cell)
                                          for name, cell in zip(header, row)])


_short_row = _csv_case(lambda header, row: row[:-1])


def _drop_column(column, lineno):
    """Drop ``column`` from every row; the fault shows on line ``lineno``."""
    def mangle(lines):
        rows = list(csv.reader(lines))
        keep = [i for i, name in enumerate(rows[0]) if name != column]
        return _csv_lines([[row[i] for i in keep] for row in rows]), lineno
    return mangle


def _conflicting_label(lines):
    rows = list(csv.reader(lines))
    flipped = "BENIGN" if rows[1][1] == "SCAM" else "SCAM"
    rows.insert(2, [rows[1][0], flipped, rows[1][2]])
    return _csv_lines(rows), 3


def _repeat_line_2(lines):
    """A copy of the second record as the third."""
    lines.insert(2, lines[1])
    return lines, 3


def _upper_copy_of_line_2(lines):
    """A copy of the second keyword as the third, its text upper-cased and
    padded: the same keyword once stripped and lowered."""
    rec = json.loads(lines[1])
    lines.insert(2, json.dumps({**rec, "text": f" {rec['text'].upper()} "}))
    return lines, 3


def _repeated_keyword(lines):
    return f"repeated keyword {json.loads(lines[1])['text']!r}"


def _conflicting_domain(lines):
    return f"conflicting labels for {next(csv.reader(lines[1:2]))[0]}"


def _repeated_page(lines):
    page = json.loads(lines[1])
    return f"repeated page for ({page['query']!r}, {page['entries'][0]['engine']})"


def _repeated_row_domain(lines):
    return f"repeated root domain {next(csv.reader(lines[1:2]))[0]!r}"


def _snapshot_root(line):
    rec = json.loads(line)
    return root_domain(rec.get("final_url") or rec["url"])


def _subdomain_copy_of_line_2(lines):
    """A snapshot of the second record's root domain, at a subdomain of it,
    as the third."""
    rec = json.loads(lines[1])
    rec.update(url=f"https://shop.{_snapshot_root(lines[1])}/", final_url=None)
    lines.insert(2, json.dumps(rec))
    return lines, 3


def _repeated_snapshot_root(lines):
    return f"repeated root domain {_snapshot_root(lines[1])!r}"


_OVERSIZED_CELL = "x" * 200_000
_FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"


def _repeated_query(lines):
    return f"repeated query {next(csv.reader(lines[1:2]))[0]!r}"


def _empty_page(lines):
    return f"page for {json.loads(lines[2])['query']!r} has no entries"


def _json_error(lines, index=2):
    """The decoder's message and column for the truncated line ``index``."""
    try:
        json.loads(lines[index][:-1] + "\n")
    except json.JSONDecodeError as exc:
        return f"{exc.msg} at column {exc.pos + 1}"


def _of_query(cause):
    """``cause`` prefixed by the query of the mangled third record."""
    return lambda lines: f"query {json.loads(lines[2])['query']!r}: {cause}"


# input -> (file it is made from, argv with {bad} and {out} filled in)
_INPUTS = {
    "snapshots": ("{fx}/snapshots.jsonl",
                  ["featurize", "--snapshots", "{bad}", "--out", "{out}"]),
    "features": ("{work}/features.csv",
                 ["train-oracle", "--features", "{bad}", "--labels",
                  "{fx}/labels.csv", "--rounds", "2", "--out", "{out}"]),
    "scored_features": ("{work}/features.csv",
                        ["score", "--model", "{work}/model.json",
                         "--features", "{bad}", "--out", "{out}"]),
    "discover_snapshots": ("{fx}/snapshots.jsonl",
                           ["discover", "--ranked", "{work}/ranked.csv",
                            "--oracle", "{work}/model.json",
                            "--fixtures", "{fx}/serps.jsonl",
                            "--snapshots", "{bad}", "--out", "{out}"]),
    "labels": ("{fx}/labels.csv",
               ["train-oracle", "--features", "{work}/features.csv",
                "--labels", "{bad}", "--rounds", "2", "--out", "{out}"]),
    "serps": ("{fx}/serps.jsonl",
              ["toxicity", "--serps", "{bad}", "--labels", "{fx}/labels.csv",
               "--out", "{out}"]),
    "keywords": ("{fx}/keywords.jsonl",
                 ["filter-branded", "--in", "{bad}", "--out", "{out}"]),
    "toxicity": ("{work}/toxicity.csv",
                 ["baselines", "--keywords", "{fx}/keywords.jsonl",
                  "--toxicity", "{bad}", "--out-dir", "{out}", "--n-sim", "5"]),
    "segments": ("{fx}/segments.jsonl",
                 ["baselines", "--keywords", "{fx}/keywords.jsonl",
                  "--toxicity", "{work}/toxicity.csv", "--segments", "{bad}",
                  "--out-dir", "{out}", "--n-sim", "5"]),
    "lupi_train": ("{fx}/lupi_train.jsonl",
                   ["train-lupi", "--train", "{bad}", "--labels",
                    "{fx}/labels.csv", "--epochs", "1",
                    "--out", "{out}", "--teacher-out", "{tmp}/teacher.json"]),
    "ranked": ("{work}/ranked.csv",
               ["discover", "--ranked", "{bad}", "--oracle", "{work}/model.json",
                "--fixtures", "{fx}/serps.jsonl", "--out", "{out}"]),
    "fixtures": ("{fx}/serps.jsonl",
                 ["discover", "--ranked", "{work}/ranked.csv",
                  "--oracle", "{work}/model.json", "--fixtures", "{bad}",
                  "--out", "{out}"]),
    "model": ("{work}/model.json",
              ["score", "--model", "{bad}", "--features", "{work}/features.csv",
               "--out", "{out}"]),
    "oracle": ("{work}/model.json",
               ["discover", "--ranked", "{work}/ranked.csv", "--oracle", "{bad}",
                "--fixtures", "{fx}/serps.jsonl", "--out", "{out}"]),
    "student": ("{work}/student.json",
                ["rank", "--model", "{bad}", "--keywords",
                 "{work}/unbranded.jsonl", "--out", "{out}"]),
    "teacher": ("{work}/teacher.json",
                ["rank", "--model", "{bad}", "--keywords",
                 "{work}/unbranded.jsonl", "--out", "{out}"]),
}

_CHECKPOINTS = {"student", "teacher"}
_NOT_AN_OBJECT = "expected a JSON object, got list"
_N_FEATURE_CELLS = len(FEATURES) + 1

_BAD_INPUTS = [
    # (input, id, mangle, cause)
    ("snapshots", "no-url", _drop("url"), "snapshot record missing 'url'"),
    ("snapshots", "bad-fetched-at", _set("fetched_at", "yesterday"),
     "Invalid isoformat string: 'yesterday'"),
    ("snapshots", "string-status", _set("http_status", "200"),
     "http_status must be int, got '200'"),
    ("snapshots", "bool-status", _set("http_status", True),
     "http_status must be int, got True"),
    ("snapshots", "float-status", _set("http_status", 200.7),
     "http_status must be int, got 200.7"),
    ("snapshots", "list-dns", _set("dns", ["203.0.113.1"]),
     "dns must be dict, got ['203.0.113.1']"),
    ("snapshots", "string-whois", _set("whois", "private"),
     "whois must be dict, got 'private'"),
    ("snapshots", "int-ranks", _set("ranks", 7), "ranks must be dict, got 7"),
    ("snapshots", "string-dns-value", _set("dns", {"a": "203.0.113.1"}),
     "dns.a must be a list of strings, got '203.0.113.1'"),
    ("snapshots", "int-in-dns-list", _set("dns", {"a": [1]}),
     "dns.a must be a list of strings, got [1]"),
    ("snapshots", "string-rank", _set("ranks", {"tranco": "123"}),
     "ranks.tranco must be int, got '123'"),
    ("snapshots", "bool-rank", _set("ranks", {"cisco": True}),
     "ranks.cisco must be int, got True"),
    ("snapshots", "int-whois-date", _set("whois", {"created": 2020}),
     "whois.created must be str, got 2020"),
    ("snapshots", "bad-whois-date", _set("whois", {"expires": "soon"}),
     "Invalid isoformat string: 'soon'"),
    ("snapshots", "int-registrar", _set("whois", {"registrar": 7}),
     "whois.registrar must be str, got 7"),
    ("snapshots", "string-privacy", _set("whois", {"privacy": "yes"}),
     "whois.privacy must be bool, got 'yes'"),
    ("snapshots", "truncated", _truncate, _json_error),
    ("snapshots", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("snapshots", "repeated-root-domain", _subdomain_copy_of_line_2,
     _repeated_snapshot_root),
    ("discover_snapshots", "repeated-root-domain", _subdomain_copy_of_line_2,
     _repeated_snapshot_root),
    ("features", "no-column", _drop_column(FEATURES[0][0], 1),
     f"header column 2 is {FEATURES[1][0]!r}, expected {FEATURES[0][0]!r}"),
    ("features", "not-a-float", _csv_case(lambda header, row: _garble(row)),
     "could not convert string to float: 'many'"),
    ("features", "short-row", _short_row,
     f"expected {_N_FEATURE_CELLS} cells, got {_N_FEATURE_CELLS - 1}"),
    ("features", "repeated-root-domain", _repeat_line_2, _repeated_row_domain),
    ("features", "oversized-cell", _cell("tld", _OVERSIZED_CELL), _FIELD_LIMIT),
    ("scored_features", "repeated-root-domain", _repeat_line_2,
     _repeated_row_domain),
    ("labels", "no-root-domain", _drop_column("root_domain", 2),
     "missing key 'root_domain'"),
    ("labels", "bad-label", _cell("label", "MAYBE"),
     "label must be SCAM or BENIGN, got 'MAYBE'"),
    ("labels", "short-row", _short_row, "expected 3 cells, got 2"),
    ("labels", "oversized-cell", _cell("root_domain", _OVERSIZED_CELL),
     _FIELD_LIMIT),
    ("labels", "conflict", _conflicting_label, _conflicting_domain),
    ("serps", "no-query", _drop("query"), "missing key 'query'"),
    ("serps", "int-query", _set("query", 7), "query must be a string, got 7"),
    ("serps", "float-rank", _set_entry("rank", 1.5),
     "rank must be an integer >= 1, got 1.5"),
    ("serps", "int-description", _set_entry("description", 7),
     "description must be a string, got 7"),
    ("serps", "repeated-page", _repeat_line_2, _repeated_page),
    ("serps", "empty-entries", _set("entries", []), _empty_page),
    ("serps", "no-entries", _drop("entries"), _empty_page),
    ("serps", "truncated", _truncate, _json_error),
    ("serps", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("keywords", "no-text", _drop("text"), "missing key 'text'"),
    ("keywords", "int-text", _set("text", 7),
     "keyword text must be a string, got 7"),
    ("keywords", "null-category", _set("category", None),
     "keyword category must be a string, got None"),
    ("keywords", "int-source-domain", _set("source_domain", 5),
     "keyword source_domain must be a string, got 5"),
    ("keywords", "string-volume", _set("monthly_volume", "lots"),
     "keyword monthly_volume must be an integer or null, got 'lots'"),
    ("keywords", "bool-volume", _set("monthly_volume", True),
     "keyword monthly_volume must be an integer or null, got True"),
    ("keywords", "truncated", _truncate, _json_error),
    ("keywords", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("keywords", "repeated-text", _repeat_line_2, _repeated_keyword),
    ("keywords", "repeated-text-unnormalized", _upper_copy_of_line_2,
     _repeated_keyword),
    ("toxicity", "no-column", _drop_column("total_sites", 2),
     "missing key 'total_sites'"),
    ("toxicity", "float-count", _cell("total_sites", "2.5"),
     "invalid literal for int() with base 10: '2.5'"),
    ("toxicity", "short-row", _short_row, "expected 6 cells, got 5"),
    ("toxicity", "scams-over-total",
     _cells(total_sites="4", scam_sites="5", toxicity="1.000000", expansion="5"),
     "scam_sites must be within [0, total_sites=4], got 5"),
    ("toxicity", "negative-scams",
     _cells(total_sites="4", scam_sites="-1", toxicity="0.000000",
            expansion="-1"),
     "scam_sites must be within [0, total_sites=4], got -1"),
    ("toxicity", "not-the-ratio",
     _cells(total_sites="4", scam_sites="1", toxicity="0.300000", expansion="1"),
     "toxicity 0.300000 is not scam_sites / total_sites = 1/4"),
    ("toxicity", "repeated-query", _repeat_line_2, _repeated_query),
    ("segments", "no-token-type", _drop("token_type"),
     "missing key 'token_type'"),
    ("segments", "bad-token-type", _set("token_type", "VERB"),
     "'VERB' is not a valid TokenType"),
    ("segments", "list-category", _set("category", ["a"]),
     "category must be str, got ['a']"),
    ("segments", "int-text", _set("text", 5), "segment text must be a string, got 5"),
    ("segments", "truncated", _truncate, _json_error),
    ("segments", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("lupi_train", "no-query", _drop("query"), "missing key 'query'"),
    ("lupi_train", "int-query", _set("query", 7),
     "example query must be a string, got 7"),
    ("lupi_train", "null-category", _set("category", None),
     "example category must be a string, got None"),
    ("lupi_train", "bool-toxicity", _set("toxicity", True),
     _of_query("toxicity must be a finite value in [0, 1], got True")),
    ("lupi_train", "string-toxicity", _set("toxicity", "0.5"),
     _of_query("toxicity must be a finite value in [0, 1], got '0.5'")),
    ("lupi_train", "float-expansion", _set("expansion", 2.7),
     _of_query("expansion must be an integer >= 0, got 2.7")),
    ("lupi_train", "negative-expansion", _set("expansion", -1),
     _of_query("expansion must be an integer >= 0, got -1")),
    ("lupi_train", "int-entry", _set_entry(None, 7),
     "'int' object is not subscriptable"),
    ("lupi_train", "null-title", _set_entry("title", None),
     "title must be a string, got None"),
    ("lupi_train", "truncated", _truncate, _json_error),
    ("lupi_train", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("ranked", "no-column", _drop_column("score", 1),
     "header column 4 is None, expected 'score'"),
    ("ranked", "not-a-float", _cell("score", "high"),
     "could not convert string to float: 'high'"),
    ("ranked", "short-row", _short_row, "expected 4 cells, got 3"),
    ("fixtures", "no-query", _drop("query"), "missing key 'query'"),
    ("fixtures", "int-query", _set("query", 7), "query must be a string, got 7"),
    ("fixtures", "yahoo", _set_entry("engine", "YAHOO"), "unknown engine 'YAHOO'"),
    ("fixtures", "no-host", _set_entry("url", "not-a-url"),
     "not an absolute URL: 'not-a-url'"),
    ("fixtures", "repeated-page", _repeat_line_2, _repeated_page),
    ("fixtures", "empty-entries", _set("entries", []), _empty_page),
    ("fixtures", "no-entries", _drop("entries"), _empty_page),
    ("fixtures", "truncated", _truncate, _json_error),
    ("fixtures", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("model", "truncated", _document_case(lambda doc: doc[:-1]),
     lambda lines: _json_error(lines, 0)),
    ("model", "no-threshold",
     *_split_case("threshold", None, "threshold must be a finite float, got None")),
    ("model", "feature-index-500",
     *_split_case("feature_index", 500,
                  "feature_index must be an int in [0, 103), got 500")),
    ("model", "missing-goes-up",
     *_split_case("missing_goes", "UP",
                  "missing_goes must be 'LEFT' or 'RIGHT', got 'UP'")),
    ("model", "format-1", _model_case(_format_1),
     "unsupported model format 1 (expected 2); retrain the model with "
     "train-oracle to rebuild it"),
    ("model", "format-99", _model_case(lambda m: m.update(format_version=99)),
     "unsupported model format 99 (expected 2); retrain the model with "
     "train-oracle to rebuild it"),
    ("model", "foreign-schema",
     _model_case(lambda m: m["encoder"].update(schema_version="1999.9")),
     "encoder schema '1999.9' does not match '2024.1'"),
    ("model", "extra-column",
     _model_case(lambda m: m["encoder"]["columns"].update({"6": {"x": 1}})),
     "encoder.columns['6'] is not a categorical column"),
    ("model", "missing-column",
     _model_case(lambda m: m["encoder"]["columns"].pop("29")),
     "encoder.columns lacks categorical column '29'"),
    ("model", "code-0",
     _model_case(lambda m: m["encoder"]["columns"]["29"].update(zzz=0)),
     "encoder.columns['29'] maps 'zzz' to 0; codes must be distinct ints >= 1"),
    ("model", "repeated-code",
     _model_case(lambda m: m["encoder"]["columns"]["29"].update(zzz=_top_code(m))),
     lambda lines: (f"encoder.columns['29'] maps 'zzz' to "
                    f"{_top_code(json.loads(lines[0]))}; "
                    f"codes must be distinct ints >= 1")),
    ("model", "float-max-depth", _section_case("config", max_depth=2.5),
     "max_depth must be int, got 2.5"),
    ("model", "bool-min-leaf", _section_case("config", min_leaf=True),
     "min_leaf must be int, got True"),
    ("model", "string-learning-rate",
     _section_case("config", learning_rate="0.1"),
     "learning_rate must be a real number, got '0.1'"),
    ("oracle", "truncated", _document_case(lambda doc: doc[:-1]),
     lambda lines: _json_error(lines, 0)),
    ("student", "no-tokenizer", _drop_document_key("tokenizer"),
     "missing key 'tokenizer'"),
    ("student", "float-heads", _section_case("encoder", heads=2.0),
     "heads must be int, got 2.0"),
    ("student", "bool-heads", _section_case("encoder", heads=True),
     "heads must be int, got True"),
    ("student", "string-heads", _section_case("encoder", heads="4"),
     "heads must be int, got '4'"),
    ("student", "null-heads", _section_case("encoder", heads=None),
     "heads must be int, got None"),
    ("student", "bool-dropout", _section_case("encoder", dropout=True),
     "dropout must be a real number, got True"),
    ("student", "float-vocab-size",
     _section_case("tokenizer", vocab_size=8192.0),
     "vocab_size must be int, got 8192.0"),
    ("student", "short-body", _short_body, _byte_count_mismatch),
    ("teacher", "not-a-student", _document_case(lambda doc: doc),
     "checkpoint does not contain a student model"),
]


@pytest.mark.parametrize(
    "name, mangle, cause",
    [pytest.param(name, mangle, cause, id=f"{name}-{case}")
     for name, case, mangle, cause in _BAD_INPUTS])
def test_every_bad_input_exits_2_naming_its_line(workdir, tmp_path, exits_2,
                                                 name, mangle, cause):
    """A bad record is named by ``path:lineno``; a bad model file by its path.
    A checkpoint is mangled as two lines: its header line, then its
    parameter bytes."""
    source, argv = _INPUTS[name]
    fill = {"fx": FIXTURES, "work": workdir, "tmp": tmp_path}
    source = Path(source.format(**fill))
    data = source.read_bytes()
    if name in _CHECKPOINTS:
        header, body = data.split(b"\n", 1)
        lines = [header.decode("utf-8"), body]
    else:
        lines = data.decode("utf-8").splitlines()
    if callable(cause):
        cause = cause(lines)
    lines, lineno = mangle(lines)
    body = lines.pop() if name in _CHECKPOINTS else b""
    bad = tmp_path / source.name
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + body)
    fill.update(bad=bad, out=tmp_path / "out")
    where = bad if lineno is None else f"{bad}:{lineno}"
    exits_2([arg.format(**fill) for arg in argv], f"{where}: {cause}")


def test_baselines_write_no_table_when_one_fails(workdir, tmp_path, exits_2):
    # the attribute and segment tables succeed; the cross-category matrix
    # finds no query holding the one segment
    segments = tmp_path / "segments.jsonl"
    segments.write_text('{"text": "zzz", "token_type": "CORE_PRODUCT_TYPE"}\n',
                        encoding="utf-8")
    exits_2(["baselines", "--keywords", FIXTURES / "keywords.jsonl",
             "--toxicity", workdir / "toxicity.csv", "--segments", segments,
             "--n-sim", "5", "--out-dir", tmp_path / "tables"],
            "no segment matched any query in any cell")


# --- a missing input file -----------------------------------------------------


# every subcommand with valid inputs; each case swaps one input for a
# path that does not exist
_VALID_ARGV = {
    "featurize": ["--snapshots", "{fx}/snapshots.jsonl", "--out", "{out}"],
    "train-oracle": ["--features", "{work}/features.csv",
                     "--labels", "{fx}/labels.csv", "--rounds", "2",
                     "--out", "{out}"],
    "score": ["--model", "{work}/model.json",
              "--features", "{work}/features.csv", "--out", "{out}"],
    "toxicity": ["--serps", "{fx}/serps.jsonl", "--labels", "{fx}/labels.csv",
                 "--keywords", "{fx}/keywords.jsonl", "--out", "{out}"],
    "baselines": ["--keywords", "{fx}/keywords.jsonl",
                  "--toxicity", "{work}/toxicity.csv",
                  "--segments", "{fx}/segments.jsonl", "--n-sim", "5",
                  "--out-dir", "{out}"],
    "filter-branded": ["--in", "{fx}/keywords.jsonl", "--out", "{out}"],
    "train-lupi": ["--train", "{fx}/lupi_train.jsonl",
                   "--labels", "{fx}/labels.csv", "--epochs", "1",
                   "--out", "{out}"],
    "rank": ["--model", "{work}/student.json",
             "--keywords", "{work}/unbranded.jsonl", "--out", "{out}"],
    "discover": ["--ranked", "{work}/ranked.csv", "--oracle", "{work}/model.json",
                 "--fixtures", "{fx}/serps.jsonl",
                 "--snapshots", "{fx}/snapshots.jsonl",
                 "--labels", "{fx}/labels.csv", "--out", "{out}"],
}

_INPUT_FLAGS = [(command, flag)
                for command, argv in _VALID_ARGV.items()
                for flag, value in zip(argv[::2], argv[1::2])
                if value.startswith(("{fx}", "{work}"))]


@pytest.mark.parametrize("command, flag", _INPUT_FLAGS,
                         ids=[f"{c}{f}" for c, f in _INPUT_FLAGS])
def test_missing_input_file_exits_2_naming_it(workdir, tmp_path, exits_2,
                                              command, flag):
    missing = tmp_path / "missing.jsonl"
    fill = {"fx": FIXTURES, "work": workdir, "out": tmp_path / "out"}
    argv = [command] + [arg.format(**fill) for arg in _VALID_ARGV[command]]
    argv[argv.index(flag) + 1] = str(missing)
    exits_2(argv, f"{missing}: No such file or directory")


# --- a failed run leaves no output -------------------------------------------


class _CountedFile:
    """An output file that counts its writes and raises ``ENOSPC`` in place
    of write number ``fail_at``."""

    def __init__(self, fh, path, fail_at):
        self.fh, self.path, self.fail_at, self.writes = fh, path, fail_at, 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _open_outputs(monkeypatch, fail=None):
    """Wrap every output ``records`` opens; ``fail`` is ``(path, n)`` to make
    the ``n``-th write to ``path`` raise.  Returns the files, in open order."""
    opened = []
    real = records._open_output

    def wrapped(path, mode="w"):
        fail_at = fail[1] if fail and Path(path) == fail[0] else None
        opened.append(_CountedFile(real(path, mode), Path(path), fail_at))
        return opened[-1]

    monkeypatch.setattr(records, "_open_output", wrapped)
    return opened


def _files(root):
    return {path: data for path, data in _tree(root).items() if data is not None}


_FAILED_WRITES = (
    [(command, "out", []) for command in _VALID_ARGV]
    + [("train-lupi", "student.json", ["--teacher-out", "{run}/teacher.json"]),
       ("discover", "report.json", [])])


@pytest.mark.parametrize("command, out_name, extra", _FAILED_WRITES,
                         ids=[f"{c}-{o}" for c, o, _ in _FAILED_WRITES])
def test_failed_write_leaves_no_output(workdir, tmp_path, monkeypatch, capsys,
                                       command, out_name, extra):
    """The last write of the last output fails: every output the run opened
    is removed, also one an earlier run wrote, and no other file is touched."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "keep.txt").write_bytes(b"not an output\n")
    fill = {"fx": FIXTURES, "work": workdir, "out": run / out_name, "run": run}
    argv = [command] + [a.format(**fill) for a in _VALID_ARGV[command] + extra]

    outputs = _open_outputs(monkeypatch)
    assert main(argv) == 0
    last = outputs[-1]
    assert last.writes > 0
    monkeypatch.undo()
    before = _files(run)
    assert len(before) > len(outputs)

    _open_outputs(monkeypatch, fail=(last.path, last.writes))
    rc = main(argv)
    assert rc == 2
    assert (f"error: {last.path}: No space left on device"
            in capsys.readouterr().err)
    assert _files(run) == {Path("keep.txt"): before[Path("keep.txt")]}


@pytest.mark.parametrize("existing", [[], ["a"], ["a", "a/b"]],
                         ids=["none", "a", "a-b"])
def test_failed_baselines_removes_the_directories_it_made(
        workdir, tmp_path, monkeypatch, capsys, existing):
    """--out-dir a/b/tables: the second table cannot be written, so each
    directory the run created goes, and one that was there before stays."""
    for directory in existing:
        (tmp_path / directory).mkdir()
    out = tmp_path / "a" / "b" / "tables"
    _open_outputs(monkeypatch, fail=(out / "segments.csv", 1))
    rc = main(["baselines", "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--toxicity", str(workdir / "toxicity.csv"),
               "--segments", str(FIXTURES / "segments.jsonl"), "--n-sim", "5",
               "--out-dir", str(out)])
    assert rc == 2
    assert (f"error: {out / 'segments.csv'}: No space left on device"
            in capsys.readouterr().err)
    assert ({p.relative_to(tmp_path) for p in tmp_path.rglob("*")}
            == set(map(Path, existing)))


def test_failed_run_keeps_a_made_directory_that_is_not_empty(tmp_path):
    out = tmp_path / "a" / "b"
    with pytest.raises(RuntimeError), records.removed_on_failure():
        records.make_output_dir(out)
        (tmp_path / "a" / "other.txt").write_bytes(b"not an output\n")
        raise RuntimeError("the run fails")
    assert not out.exists()
    assert _files(tmp_path) == {Path("a/other.txt"): b"not an output\n"}


def test_unwritable_table_leaves_no_table(workdir, tmp_path, capsys):
    out = tmp_path / "tables"
    (out / "segments.csv").mkdir(parents=True)
    (out / "cross_category.csv").write_bytes(b"not written by this run\n")
    rc = main(["baselines", "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--toxicity", str(workdir / "toxicity.csv"),
               "--segments", str(FIXTURES / "segments.jsonl"), "--n-sim", "5",
               "--out-dir", str(out)])
    assert rc == 2
    assert f"error: {out / 'segments.csv'}: Is a directory" in capsys.readouterr().err
    assert not (out / "attributes.csv").exists()
    assert (out / "segments.csv").is_dir()
    assert _files(out) == {Path("cross_category.csv"): b"not written by this run\n"}


def test_failed_run_keeps_a_fifo_output(workdir, tmp_path, monkeypatch):
    """A FIFO named as an output is written to, but never removed."""
    fifo = tmp_path / "ranked.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _open_outputs(monkeypatch, fail=(fifo, 1))
        rc = main(["rank", "--model", str(workdir / "student.json"),
                   "--keywords", str(workdir / "unbranded.jsonl"),
                   "--out", str(fifo)])
    finally:
        os.close(reader)
    assert rc == 2
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# --- every file is UTF-8, whatever the locale ------------------------------------


_LOCALE_SCRIPT = """
import sys
from pathlib import Path

from scamscout.discovery import (CategoryCount, DiscoveryReport, EngineExposure,
                                 FixtureStore, write_report)
from scamscout.lupi import (EncoderConfig, RankedKeyword, StudentModel,
                            TokenizerConfig, load_student, save_checkpoint,
                            write_ranked)
from scamscout.records import write_jsonl

out = Path(sys.argv[1])
report = DiscoveryReport([CategoryCount("caf\\u00e9", 1, 2)], 2, 1,
                         [EngineExposure("GOOGLE", 1, 1)], 3)
write_report(report, out / "report.json")
write_ranked(out / "ranked.csv", [RankedKeyword("cr\\u00e8me", "caf\\u00e9", 0.5, 1)])
write_jsonl(out / "serps.jsonl", [
    {"query": "cr\\u00e8me",
     "entries": [{"engine": "GOOGLE", "rank": 1, "url": "https://a.com/x",
                  "title": "\\u00e9t\\u00e9"}]}])
store = FixtureStore.load(out / "serps.jsonl")
assert store.get("cr\\u00e8me", "GOOGLE").entries[0].title == "\\u00e9t\\u00e9"
student = StudentModel(TokenizerConfig(vocab_size=16, max_len_query=4),
                       EncoderConfig(layers=1, dim=4, heads=1, ff_dim=4))
save_checkpoint(student, out / "student.json")
load_student(out / "student.json")
"""


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(__file__).parents[1] / "src"),
                    os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", _LOCALE_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert "caf\u00e9," in (tmp_path / "ranked.csv").read_text(encoding="utf-8")
    assert json.loads((tmp_path / "report.json").read_text(
        encoding="utf-8"))["categories"][0]["category"] == "caf\u00e9"
