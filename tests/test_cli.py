"""End-to-end pipeline runs of the command-line interface over fixtures."""

import csv
import filecmp
import json

import pytest

from scamscout import corpus
from scamscout.cli import main, read_features_csv, write_features_csv
from scamscout.discovery import report_from_csv
from scamscout.featurizer import CATEGORICAL, FEATURES
from scamscout.lupi import load_student, load_teacher, ranked_from_csv
from scamscout.oracle import gbdt

from conftest import FIXTURES


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run every pipeline stage once; tests assert on the artifacts."""
    work = tmp_path_factory.mktemp("pipeline")
    fx = FIXTURES

    def run(*argv):
        rc = main([str(a) for a in argv])
        assert rc == 0, f"stage failed: {argv}"

    run("featurize", "--snapshots", fx / "snapshots.jsonl",
        "--out", work / "features.csv")
    run("train-oracle", "--features", work / "features.csv",
        "--labels", fx / "labels.csv", "--rounds", 60,
        "--out", work / "model.json")
    run("score", "--model", work / "model.json",
        "--features", work / "features.csv", "--out", work / "verdicts.csv")
    run("toxicity", "--serps", fx / "serps.jsonl", "--labels", fx / "labels.csv",
        "--keywords", fx / "keywords.jsonl", "--out", work / "toxicity.csv")
    run("baselines", "--keywords", fx / "keywords.jsonl",
        "--toxicity", work / "toxicity.csv", "--segments", fx / "segments.jsonl",
        "--out-dir", work / "tables", "--n-sim", 200)
    run("filter-branded", "--in", fx / "keywords.jsonl",
        "--out", work / "unbranded.jsonl")
    run("train-lupi", "--train", fx / "lupi_train.jsonl",
        "--labels", fx / "labels.csv",
        "--priv", "google:description:all:ranked:5",
        "--epochs", 2, "--lr", "2e-3", "--batch-size", 16,
        "--out", work / "student.json", "--teacher-out", work / "teacher.json")
    run("rank", "--model", work / "student.json",
        "--keywords", work / "unbranded.jsonl", "--k", 5,
        "--out", work / "ranked.csv")
    run("discover", "--ranked", work / "ranked.csv",
        "--oracle", work / "model.json",
        "--fixtures", fx / "serp_fixtures.jsonl",
        "--snapshots", fx / "snapshots.jsonl", "--labels", fx / "labels.csv",
        "--engines", "GOOGLE,BING", "--exposure-k", 5,
        "--out", work / "report.csv")
    return work


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_featurize_output(workdir):
    rows = read_features_csv(workdir / "features.csv")
    n_snapshots = sum(1 for line in open(FIXTURES / "snapshots.jsonl") if line.strip())
    assert len(rows) == n_snapshots
    # the CSV cell format round-trips float features bit-exactly
    write_features_csv(workdir / "features_rt.csv", rows)
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
    labels = {lab.root_domain: lab.label
              for lab in corpus.read_labels(FIXTURES / "labels.csv")}
    rows = _rows(workdir / "verdicts.csv")
    labeled = [r for r in rows if r["root_domain"] in labels]
    assert labeled
    hits = sum(1 for r in labeled if r["label"] == labels[r["root_domain"]])
    assert hits / len(labeled) >= 0.9


def test_toxicity_table(workdir):
    rows = _rows(workdir / "toxicity.csv")
    n_keywords = sum(1 for line in open(FIXTURES / "keywords.jsonl") if line.strip())
    assert len(rows) == n_keywords
    for row in rows:
        tox = float(row["toxicity"])
        assert 0.0 <= tox <= 1.0
        assert int(row["scam_sites"]) == int(row["expansion"])
        assert row["category"]  # keywords file supplies categories
    queries = [row["query"] for row in rows]
    assert queries == sorted(queries)


def test_toxicity_rerun_is_byte_identical(workdir):
    rc = main(["toxicity", "--serps", str(FIXTURES / "serps.jsonl"),
               "--labels", str(FIXTURES / "labels.csv"),
               "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--out", str(workdir / "toxicity2.csv")])
    assert rc == 0
    assert filecmp.cmp(workdir / "toxicity.csv", workdir / "toxicity2.csv",
                       shallow=False)


def test_baseline_tables(workdir):
    attr = _rows(workdir / "tables" / "attributes.csv")
    assert [r["attribute"] for r in attr] == [
        "INFORMATIONAL", "COMMERCIAL", "LOW_COMPETITION",
        "MEDIUM_COMPETITION", "LONG_TAIL"]
    seg = _rows(workdir / "tables" / "segments.csv")
    assert [int(r["rank"]) for r in seg] == list(range(1, len(seg) + 1))
    means = [float(r["toxicity_mean"]) for r in seg]
    assert means == sorted(means, reverse=True)
    with open(workdir / "tables" / "cross_category.csv", newline="") as fh:
        grid = list(csv.reader(fh))
    cats = grid[0][1:]
    assert cats == sorted(cats)
    assert [row[0] for row in grid[1:]] == cats  # square, same order


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


def test_rank_output_and_rerun(workdir):
    ranked = ranked_from_csv((workdir / "ranked.csv").read_text())
    per_cat = {}
    for row in ranked:
        per_cat.setdefault(row.category, []).append(row)
    for rows in per_cat.values():
        assert len(rows) <= 5
        assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
        scores = [r.score for r in rows]
        assert scores == sorted(scores, reverse=True)
    rc = main(["rank", "--model", str(workdir / "student.json"),
               "--keywords", str(workdir / "unbranded.jsonl"), "--k", "5",
               "--out", str(workdir / "ranked2.csv")])
    assert rc == 0
    assert filecmp.cmp(workdir / "ranked.csv", workdir / "ranked2.csv",
                       shallow=False)


def test_discovery_report_and_rerun(workdir):
    report = report_from_csv((workdir / "report.csv").read_text())
    assert report.total_sites > 0
    # globally deduplicated totals never exceed the per-category sums
    assert report.discovered_scams <= sum(c.discovered_scams
                                          for c in report.categories)
    assert report.total_sites <= sum(c.total_sites for c in report.categories)
    for row in report.categories:
        assert 0 <= row.discovered_scams <= row.total_sites

    rc = main(["discover", "--ranked", str(workdir / "ranked.csv"),
               "--oracle", str(workdir / "model.json"),
               "--fixtures", str(FIXTURES / "serp_fixtures.jsonl"),
               "--snapshots", str(FIXTURES / "snapshots.jsonl"),
               "--labels", str(FIXTURES / "labels.csv"),
               "--engines", "GOOGLE,BING", "--exposure-k", "5",
               "--out", str(workdir / "report2.csv")])
    assert rc == 0
    assert filecmp.cmp(workdir / "report.csv", workdir / "report2.csv",
                       shallow=False)


def test_discovery_json_report(workdir):
    rc = main(["discover", "--ranked", str(workdir / "ranked.csv"),
               "--oracle", str(workdir / "model.json"),
               "--fixtures", str(FIXTURES / "serp_fixtures.jsonl"),
               "--snapshots", str(FIXTURES / "snapshots.jsonl"),
               "--labels", str(FIXTURES / "labels.csv"),
               "--engines", "GOOGLE,BING", "--exposure-k", "5",
               "--out", str(workdir / "report.json")])
    assert rc == 0
    blob = json.loads((workdir / "report.json").read_text())
    assert [e["engine"] for e in blob["exposure"]] == ["BING", "GOOGLE"]
    for e in blob["exposure"]:
        assert e["total_scams"] == blob["discovered_scams"]
    csv_report = report_from_csv((workdir / "report.csv").read_text())
    assert blob["discovered_scams"] == csv_report.discovered_scams
    assert blob["total_sites"] == csv_report.total_sites


def test_cli_reports_domain_errors_as_exit_code(workdir, tmp_path, capsys):
    # single-class labels cannot train the oracle
    one_class = tmp_path / "labels.csv"
    with open(FIXTURES / "labels.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["label"] == "SCAM"]
    with open(one_class, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["root_domain", "label", "category"])
        writer.writeheader()
        writer.writerows(rows)
    rc = main(["train-oracle", "--features", str(workdir / "features.csv"),
               "--labels", str(one_class), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    # a ranked keyword with no recorded SERP is a hard replay miss
    missing = tmp_path / "ranked.csv"
    missing.write_text("category,rank,keyword,score\nx,1,never recorded,0.5\n")
    rc = main(["discover", "--ranked", str(missing),
               "--oracle", str(workdir / "model.json"),
               "--fixtures", str(FIXTURES / "serp_fixtures.jsonl"),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2


def test_discover_rejects_malformed_fixture_with_line_number(workdir, tmp_path,
                                                             capsys):
    lines = (FIXTURES / "serp_fixtures.jsonl").read_text().splitlines()
    lines.insert(1, json.dumps({"engine": "GOOGLE", "capture_date": "2024-01-01",
                                "entries": []}))
    fixtures = tmp_path / "serp_fixtures.jsonl"
    fixtures.write_text("\n".join(lines) + "\n")
    rc = main(["discover", "--ranked", str(workdir / "ranked.csv"),
               "--oracle", str(workdir / "model.json"),
               "--fixtures", str(fixtures), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bad fixture line 2: KeyError" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("toxicity", ["NaN", "1.7", None])
def test_train_lupi_rejects_bad_record_with_line_number(tmp_path, capsys,
                                                        toxicity):
    lines = (FIXTURES / "lupi_train.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    if toxicity is None:
        lines[2] = lines[2][:-1]  # truncated JSON
    else:
        rec["toxicity"] = float(toxicity)
        lines[2] = json.dumps(rec)
    train = tmp_path / "train.jsonl"
    train.write_text("\n".join(lines) + "\n")
    rc = main(["train-lupi", "--train", str(train),
               "--out", str(tmp_path / "student.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{train}:3: bad training record" in err
    if toxicity is not None:
        assert repr(rec["query"]) in err
    assert not (tmp_path / "student.json").exists()


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
def test_toxicity_rejects_bad_serp_record_with_line_number(tmp_path, capsys,
                                                           mangle, message):
    lines = (FIXTURES / "serps.jsonl").read_text().splitlines()
    lines[2] = mangle(lines[2])
    serps = tmp_path / "serps.jsonl"
    serps.write_text("\n".join(lines) + "\n")
    rc = main(["toxicity", "--serps", str(serps),
               "--labels", str(FIXTURES / "labels.csv"),
               "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--out", str(tmp_path / "toxicity.csv")])
    assert rc == 2
    assert f"error: {serps}:3: bad serp record: {message}" in capsys.readouterr().err
    assert not (tmp_path / "toxicity.csv").exists()


def _numeric_column():
    return 1 + next(i for i, (_, kind, _) in enumerate(FEATURES)
                    if kind != CATEGORICAL)


def _widen(row):
    return row + ["0.0"]


def _shorten(row):
    return row[:-1]


def _garble(row):
    row = list(row)
    row[_numeric_column()] = "many"
    return row


@pytest.mark.parametrize("mangle, message", [
    (_widen, f"expected {len(FEATURES) + 1} cells, got {len(FEATURES) + 2}"),
    (_shorten, f"expected {len(FEATURES) + 1} cells, got {len(FEATURES)}"),
    (_garble, "could not convert string to float: 'many'"),
])
def test_bad_features_row_names_its_line(workdir, tmp_path, capsys, mangle,
                                         message):
    with open(workdir / "features.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3] = mangle(rows[3])
    features = tmp_path / "features.csv"
    with open(features, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main(["train-oracle", "--features", str(features),
               "--labels", str(FIXTURES / "labels.csv"),
               "--out", str(tmp_path / "model.json")])
    assert rc == 2
    assert f"error: {features}:4: {message}" in capsys.readouterr().err
    rc = main(["score", "--model", str(workdir / "model.json"),
               "--features", str(features), "--out", str(tmp_path / "v.csv")])
    assert rc == 2
    assert f"error: {features}:4: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.fixture
def matrix_calls(monkeypatch):
    """Number of ``predict_proba_matrix`` calls made so far."""
    calls = []
    original = gbdt.GbdtModel.predict_proba_matrix

    def counted(model, values):
        calls.append(values.shape[0])
        return original(model, values)

    monkeypatch.setattr(gbdt.GbdtModel, "predict_proba_matrix", counted)
    return calls


def test_score_classifies_in_one_matrix_call(workdir, tmp_path, matrix_calls):
    rc = main(["score", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"),
               "--out", str(tmp_path / "verdicts.csv")])
    assert rc == 0
    assert matrix_calls == [len(_rows(workdir / "verdicts.csv"))]
    assert filecmp.cmp(workdir / "verdicts.csv", tmp_path / "verdicts.csv",
                       shallow=False)


def _discover(workdir, out, *extra):
    return main(["discover", "--ranked", str(workdir / "ranked.csv"),
                 "--oracle", str(workdir / "model.json"),
                 "--fixtures", str(FIXTURES / "serp_fixtures.jsonl"),
                 "--labels", str(FIXTURES / "labels.csv"),
                 "--engines", "GOOGLE,BING", "--exposure-k", "5",
                 "--out", str(out), *extra])


def test_discover_classifies_in_one_matrix_call(workdir, tmp_path,
                                                matrix_calls):
    rc = _discover(workdir, tmp_path / "report.csv",
                   "--snapshots", str(FIXTURES / "snapshots.jsonl"))
    assert rc == 0
    assert len(matrix_calls) == 1 and matrix_calls[0] > 0
    assert filecmp.cmp(workdir / "report.csv", tmp_path / "report.csv",
                       shallow=False)


def test_discover_without_snapshots_warns_and_reports(workdir, tmp_path,
                                                      matrix_calls):
    with pytest.warns(UserWarning, match="had no snapshot"):
        rc = _discover(workdir, tmp_path / "report.csv")
    assert rc == 0
    assert matrix_calls == [0]
    report = report_from_csv((tmp_path / "report.csv").read_text())
    assert report.total_sites > 0 and report.discovered_scams == 0
