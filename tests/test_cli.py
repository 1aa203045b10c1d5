"""End-to-end pipeline runs of the command-line interface over fixtures."""

import csv
import filecmp
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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
    n_snapshots = sum(1 for line in (FIXTURES / "snapshots.jsonl").read_text(
        encoding="utf-8").splitlines() if line.strip())
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
    ranked = ranked_from_csv(workdir / "ranked.csv")
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
    report = report_from_csv(workdir / "report.csv")
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
    csv_report = report_from_csv(workdir / "report.csv")
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
    assert f"error: {fixtures}:2: missing key 'query'" in capsys.readouterr().err
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
    assert f"error: {train}:3: " in err
    assert (f"toxicity must be a finite value in [0, 1], got {rec['toxicity']!r}"
            if toxicity is not None else "Expecting ',' delimiter") in err
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
    assert f"error: {serps}:3: {message}" in capsys.readouterr().err
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
    report = report_from_csv(tmp_path / "report.csv")
    assert report.total_sites > 0 and report.discovered_scams == 0


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
    """Mangle a one-line JSON document; ``edit`` maps it to the new line.
    A fault in a document names the file alone, with no line number."""
    def mangle(lines):
        return [edit(lines[0])], None
    return mangle


def _drop_document_key(key):
    return _document_case(lambda doc: json.dumps(
        {k: v for k, v in json.loads(doc).items() if k != key}))


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
    return _csv_case(lambda header, row: [value if name == column else cell
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


def _json_error(lines, index=2):
    """The decoder's message and column for the truncated line ``index``."""
    try:
        json.loads(lines[index][:-1] + "\n")
    except json.JSONDecodeError as exc:
        return f"{exc.msg} at column {exc.pos + 1}"


# input -> (file it is made from, argv with {bad} and {out} filled in)
_INPUTS = {
    "snapshots": ("{fx}/snapshots.jsonl",
                  ["featurize", "--snapshots", "{bad}", "--out", "{out}"]),
    "features": ("{work}/features.csv",
                 ["train-oracle", "--features", "{bad}", "--labels",
                  "{fx}/labels.csv", "--rounds", "2", "--out", "{out}"]),
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
                   ["train-lupi", "--train", "{bad}", "--epochs", "1",
                    "--out", "{out}"]),
    "ranked": ("{work}/ranked.csv",
               ["discover", "--ranked", "{bad}", "--oracle", "{work}/model.json",
                "--fixtures", "{fx}/serp_fixtures.jsonl", "--out", "{out}"]),
    "fixtures": ("{fx}/serp_fixtures.jsonl",
                 ["discover", "--ranked", "{work}/ranked.csv",
                  "--oracle", "{work}/model.json", "--fixtures", "{bad}",
                  "--out", "{out}"]),
    "model": ("{work}/model.json",
              ["score", "--model", "{bad}", "--features", "{work}/features.csv",
               "--out", "{out}"]),
    "oracle": ("{work}/model.json",
               ["discover", "--ranked", "{work}/ranked.csv", "--oracle", "{bad}",
                "--fixtures", "{fx}/serp_fixtures.jsonl", "--out", "{out}"]),
    "student": ("{work}/student.json",
                ["rank", "--model", "{bad}", "--keywords",
                 "{work}/unbranded.jsonl", "--out", "{out}"]),
    "teacher": ("{work}/teacher.json",
                ["rank", "--model", "{bad}", "--keywords",
                 "{work}/unbranded.jsonl", "--out", "{out}"]),
}

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
    ("features", "no-column", _drop_column(FEATURES[0][0], 1),
     f"header column 2 is {FEATURES[1][0]!r}, expected {FEATURES[0][0]!r}"),
    ("features", "not-a-float", _csv_case(lambda header, row: _garble(row)),
     "could not convert string to float: 'many'"),
    ("features", "short-row", _short_row,
     f"expected {_N_FEATURE_CELLS} cells, got {_N_FEATURE_CELLS - 1}"),
    ("labels", "no-root-domain", _drop_column("root_domain", 2),
     "missing key 'root_domain'"),
    ("labels", "bad-label", _cell("label", "MAYBE"),
     "label must be SCAM or BENIGN, got 'MAYBE'"),
    ("labels", "short-row", _short_row, "expected 3 cells, got 2"),
    ("labels", "conflict", _conflicting_label, "conflicting labels for "),
    ("serps", "no-query", _drop("query"), "missing key 'query'"),
    ("serps", "float-rank", _set_entry("rank", 1.5),
     "rank must be an integer >= 1, got 1.5"),
    ("serps", "truncated", _truncate, _json_error),
    ("serps", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("keywords", "no-text", _drop("text"), "missing key 'text'"),
    ("keywords", "int-text", _set("text", 7),
     "keyword text must be a string, got 7"),
    ("keywords", "truncated", _truncate, _json_error),
    ("keywords", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("toxicity", "no-column", _drop_column("total_sites", 2),
     "missing key 'total_sites'"),
    ("toxicity", "float-count", _cell("total_sites", "2.5"),
     "invalid literal for int() with base 10: '2.5'"),
    ("toxicity", "short-row", _short_row, "expected 6 cells, got 5"),
    ("segments", "no-token-type", _drop("token_type"),
     "missing key 'token_type'"),
    ("segments", "bad-token-type", _set("token_type", "VERB"),
     "'VERB' is not a valid TokenType"),
    ("segments", "list-category", _set("category", ["a"]),
     "category must be str, got ['a']"),
    ("segments", "truncated", _truncate, _json_error),
    ("segments", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("lupi_train", "no-query", _drop("query"), "missing key 'query'"),
    ("lupi_train", "int-entry", _set_entry(None, 7),
     "'int' object is not subscriptable"),
    ("lupi_train", "truncated", _truncate, _json_error),
    ("lupi_train", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("ranked", "no-column", _drop_column("score", 1),
     "header column 4 is None, expected 'score'"),
    ("ranked", "not-a-float", _cell("score", "high"),
     "could not convert string to float: 'high'"),
    ("ranked", "short-row", _short_row, "expected 4 cells, got 3"),
    ("fixtures", "no-query", _drop("query"), "missing key 'query'"),
    ("fixtures", "yahoo", _set("engine", "YAHOO"), "unknown engine: 'YAHOO'"),
    ("fixtures", "no-host", _set_entry("url", "not-a-url"),
     "not an absolute URL: 'not-a-url'"),
    ("fixtures", "truncated", _truncate, _json_error),
    ("fixtures", "not-an-object", _not_an_object, _NOT_AN_OBJECT),
    ("model", "truncated", _document_case(lambda doc: doc[:-1]),
     lambda lines: _json_error(lines, 0)),
    ("oracle", "truncated", _document_case(lambda doc: doc[:-1]),
     lambda lines: _json_error(lines, 0)),
    ("student", "no-tokenizer", _drop_document_key("tokenizer"),
     "missing key 'tokenizer'"),
    ("teacher", "not-a-student", _document_case(lambda doc: doc),
     "checkpoint does not contain a student model"),
]


@pytest.mark.parametrize(
    "name, mangle, cause",
    [pytest.param(name, mangle, cause, id=f"{name}-{case}")
     for name, case, mangle, cause in _BAD_INPUTS])
def test_every_bad_input_exits_2_naming_its_line(workdir, tmp_path, capsys,
                                                 name, mangle, cause):
    """A bad record is named by ``path:lineno``; a bad model file by its path."""
    source, argv = _INPUTS[name]
    fill = {"fx": FIXTURES, "work": workdir}
    source = Path(source.format(**fill))
    lines = (FIXTURES / source).read_text(encoding="utf-8").splitlines()
    if callable(cause):
        cause = cause(lines)
    lines, lineno = mangle(lines)
    bad = tmp_path / source.name
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    fill.update(bad=bad, out=out)
    rc = main([arg.format(**fill) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    where = bad if lineno is None else f"{bad}:{lineno}"
    assert f"error: {where}: {cause}" in err
    assert not out.exists()


def test_baselines_write_no_table_when_one_fails(workdir, tmp_path, capsys):
    # the attribute and segment tables succeed; the cross-category matrix
    # finds no query holding the one segment
    segments = tmp_path / "segments.jsonl"
    segments.write_text('{"text": "zzz", "token_type": "CORE_PRODUCT_TYPE"}\n',
                        encoding="utf-8")
    out = tmp_path / "tables"
    rc = main(["baselines", "--keywords", str(FIXTURES / "keywords.jsonl"),
               "--toxicity", str(workdir / "toxicity.csv"),
               "--segments", str(segments), "--n-sim", "5",
               "--out-dir", str(out)])
    assert rc == 2
    assert ("error: no segment matched any query in any cell"
            in capsys.readouterr().err)
    assert not out.exists()


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
                 "--fixtures", "{fx}/serp_fixtures.jsonl",
                 "--snapshots", "{fx}/snapshots.jsonl",
                 "--labels", "{fx}/labels.csv", "--out", "{out}"],
}

_INPUT_FLAGS = [(command, flag)
                for command, argv in _VALID_ARGV.items()
                for flag, value in zip(argv[::2], argv[1::2])
                if value.startswith(("{fx}", "{work}"))]


@pytest.mark.parametrize("command, flag", _INPUT_FLAGS,
                         ids=[f"{c}{f}" for c, f in _INPUT_FLAGS])
def test_missing_input_file_exits_2_naming_it(workdir, tmp_path, capsys,
                                              command, flag):
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "out"
    fill = {"fx": FIXTURES, "work": workdir, "out": out}
    argv = [command] + [arg.format(**fill) for arg in _VALID_ARGV[command]]
    argv[argv.index(flag) + 1] = str(missing)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"error: {missing}: No such file or directory" in err
    assert not out.exists()


# --- every file is UTF-8, whatever the locale ------------------------------------


_LOCALE_SCRIPT = """
import sys
from pathlib import Path

from scamscout.corpus import SerpEntry
from scamscout.discovery import (CategoryCount, DiscoveryReport, EngineExposure,
                                 FixtureStore, write_report)
from scamscout.lupi import (EncoderConfig, StudentModel, TokenizerConfig,
                            load_student, save_checkpoint)

out = Path(sys.argv[1])
report = DiscoveryReport([CategoryCount("caf\\u00e9", 1, 2)], 2, 1,
                         [EngineExposure("GOOGLE", 1, 1)], 3)
write_report(report, out / "report.csv")
write_report(report, out / "report.json")
store = FixtureStore()
store.put("cr\\u00e8me", "GOOGLE", "2024-05-01",
          [SerpEntry("GOOGLE", 1, "https://a.com/x", title="\\u00e9t\\u00e9")])
store.save(out / "fixtures.jsonl")
FixtureStore.load(out / "fixtures.jsonl")
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
    assert "caf\u00e9," in (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert json.loads((tmp_path / "report.json").read_text(
        encoding="utf-8"))["categories"][0]["category"] == "caf\u00e9"
