"""Acceptance suite: one test per end-to-end guarantee of the toolkit.

Each test checks a user-visible contract at full fidelity: analytic
gradients against central finite differences, ranking quality of the
distilled student on categories it never trained on, oracle classification
quality, exact toxicity arithmetic, bootstrap estimator behavior, diagonal
dominance of the cross-category matrix, distillation side-effect freedom,
teacher invariances, branded-filter quality, and byte-level determinism of
the replay pipeline.
"""

import filecmp
import json
import time

import numpy as np

from scamscout import corpus
from scamscout.branded import evaluate_filter
from scamscout.cli import main
from scamscout.corpus import SerpEntry, SerpResultSet
from scamscout.discovery import FixtureStore, report_from_csv, report_from_json
from scamscout.featurizer import FEATURE_NAMES, FeatureVector, extract_features
from scamscout.heuristics import bootstrap_estimate, cross_category_matrix
from scamscout.lupi import (
    EncoderConfig,
    LossWeights,
    PrivilegedConfig,
    StudentModel,
    TeacherModel,
    TokenizerConfig,
    TrainConfig,
    distill_student,
    loco_cv,
    ranked_from_csv,
    tokenize_batch,
    total_loss,
    train_query_baseline,
    train_teacher,
)
from scamscout.oracle import cross_validate, gbdt
from scamscout.psl import root_domain
from scamscout.toxicity import score_serp

from conftest import FIXTURES
from synthcorpus import make_loco_corpus, make_matrix_case

_PRIV = PrivilegedConfig("GOOGLE", "DESCRIPTION", "ALL", "RANKED", 5)

_WORDS = ("cheap replica watch outlet deal best guide flash store new sale "
          "review top buy shop free express mega final rush").split()


# --- gradient correctness -------------------------------------------------------


def _random_gradient_case(seed):
    """Tiny random model and batch, with MAE arguments held away from kinks."""
    rng = np.random.default_rng([seed, 9176])
    dim = int(rng.choice([8, 12, 16]))
    heads = int(rng.choice([h for h in (2, 4) if dim % h == 0]))
    enc = EncoderConfig(int(rng.integers(1, 3)), dim, heads,
                        int(rng.choice([16, 24])), 0.0)
    tok = TokenizerConfig(64, 6, 6)
    teacher = TeacherModel(tok, enc, _PRIV, seed=seed + 100)
    student = StudentModel(tok, enc, seed=seed + 1)

    b, k = 3, 2
    def text():
        return " ".join(rng.choice(_WORDS, size=int(rng.integers(2, 6))))
    q_ids = tokenize_batch([text() for _ in range(b)], tok)
    s_ids = np.stack([tokenize_batch([text() for _ in range(k)],
                                     tok, tok.max_len_serp) for _ in range(b)])
    present = rng.random((b, k)) < 0.8
    t_score, t_fused, t_attn = teacher.forward(q_ids, s_ids, present,
                                               train=False, cache=False)
    s0, _, _ = student.forward(q_ids, train=False, cache=False)
    # absolute-error terms are non-differentiable where prediction equals
    # target, so targets are offset far beyond the finite-difference step
    labels = s0 - rng.choice([-1.0, 1.0], size=b) * rng.uniform(0.2, 0.5, size=b)
    gap = s0 - t_score
    t_score = np.where(np.abs(gap) >= 0.05, t_score, s0 - 0.25)
    return student, q_ids, labels, t_score, t_fused, t_attn, rng


def test_gradients_match_finite_differences_for_all_loss_terms():
    # per-term weight vectors isolate each loss component; every fifth case
    # checks a random positive mix of all four
    variants = [LossWeights(1, 0, 0, 0), LossWeights(0, 1, 0, 0),
                LossWeights(0, 0, 1, 0), LossWeights(0, 0, 0, 1)]
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for seed in range(20):
        student, q_ids, labels, t_score, t_fused, t_attn, rng = \
            _random_gradient_case(seed)
        if seed % 5 == 4:
            weights = LossWeights(*np.round(rng.uniform(0.1, 1.0, size=4), 3))
        else:
            weights = variants[seed % 5]

        def loss_value():
            s, h, a = student.forward(q_ids, train=False, cache=False)
            value, _, _ = total_loss(labels, s, h, a, t_score, t_fused,
                                     t_attn, weights)
            return value

        def central(flat, idx, eps):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_value()
            flat[idx] = orig - eps
            down = loss_value()
            flat[idx] = orig
            return (up - down) / (2 * eps)

        student.zero_grads()
        s, h, a = student.forward(q_ids, train=False, cache=True)
        _, _, (d_s, d_h, d_a) = total_loss(labels, s, h, a, t_score, t_fused,
                                           t_attn, weights)
        student.backward(d_s, d_h, d_a)
        grads = student.gradients()
        eps = 1e-5
        for name, tensor in student.parameters().items():
            flat = tensor.reshape(-1)
            # finite differences are invalid when a ReLU pre-activation sits
            # within eps of zero, so each estimate is cross-checked at eps/2
            # and the coordinate redrawn on disagreement; a wrong analytic
            # gradient would instead disagree with a consistent pair
            for _ in range(6):
                idx = int(rng.integers(0, flat.size))
                numeric = central(flat, idx, eps)
                refine = central(flat, idx, eps / 2)
                if abs(numeric - refine) <= 1e-7 * max(1.0, abs(numeric)):
                    break
            else:
                continue
            analytic = float(grads[name].reshape(-1)[idx])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, err)
            checked += 1
    assert checked >= 600
    assert worst <= 1e-4
    assert time.monotonic() - start < 60


# --- distilled-student ranking quality ------------------------------------------


def test_distilled_student_outranks_query_baseline_on_held_out_categories():
    start = time.monotonic()
    data = make_loco_corpus(2000, 5, seed=47)
    assert len(data.examples) == 2000
    assert len({ex.category for ex in data.examples}) == 5

    reports = loco_cv(
        data,
        _PRIV,
        TrainConfig(lr=2e-3, epochs=5, batch_size=64, patience=2, seed=47),
        LossWeights(0.5, 1.0, 0.5, 0.5),
        k=20,
        min_queries=25,
        tok_cfg=TokenizerConfig(4096, 12, 12),
        enc_cfg=EncoderConfig(1, 32, 2, 64, 0.1),
    )
    assert len(reports) == 5

    teacher_wins = sum(r.toxicity["teacher"] >= r.toxicity["student"]
                       for r in reports)
    student_wins = sum(r.toxicity["student"] > r.toxicity["baseline"]
                       for r in reports)
    assert teacher_wins >= 4
    assert student_wins >= 4
    student_mean = np.mean([r.toxicity["student"] for r in reports])
    baseline_mean = np.mean([r.toxicity["baseline"] for r in reports])
    assert student_mean > baseline_mean
    assert time.monotonic() - start < 900


# --- oracle quality --------------------------------------------------------------


def _feature_vec(f1, f2):
    values = [None] * len(FEATURE_NAMES)
    values[FEATURE_NAMES.index("tranco")] = f1
    values[FEATURE_NAMES.index("majestic")] = f2
    return FeatureVector(values)


def test_oracle_cv_is_perfect_on_separable_data_and_beats_linear_baseline():
    rng = np.random.default_rng(17)
    vectors, labels = [], []
    for i in range(120):
        label = i % 2
        f1 = rng.uniform(12, 20) if label else rng.uniform(0, 8)
        vectors.append(_feature_vec(float(f1), float(rng.uniform(0, 1))))
        labels.append(label)
    report = cross_validate(vectors, labels, k=5, seed=0,
                            config=gbdt.TrainConfig(rounds=20,
                                                    learning_rate=0.3,
                                                    max_depth=2))
    assert [m.f1 for m in report.fold_metrics] == [1.0] * 5

    # xor-style labels are invisible to a linear model but easy for trees
    rng = np.random.default_rng(5)
    vectors, labels = [], []
    for _ in range(240):
        a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        vectors.append(_feature_vec(a + float(rng.uniform(-0.2, 0.2)),
                                    b + float(rng.uniform(-0.2, 0.2))))
        labels.append(a ^ b)
    trees = cross_validate(vectors, labels, k=5, seed=0,
                           config=gbdt.TrainConfig(rounds=40,
                                                   learning_rate=0.3,
                                                   max_depth=3))
    linear = cross_validate(vectors, labels, k=5, seed=0, model="logistic")
    assert trees.mean_f1 > linear.mean_f1


# --- toxicity arithmetic ---------------------------------------------------------


def test_toxicity_equals_brute_force_dedup_oracle_on_random_serps():
    rng = np.random.default_rng(2718)
    pool = [f"site{i}.com" for i in range(25)]
    verdicts = {d: ("SCAM" if rng.random() < 0.3 else "BENIGN") for d in pool}
    for t in range(1000):
        n = int(rng.integers(1, 30))
        picks = rng.choice(pool, size=n)
        entries = [
            SerpEntry(engine=str(rng.choice(["GOOGLE", "BING", "BAIDU"])),
                      rank=j + 1, url=f"https://{d}/p", root_domain=str(d))
            for j, d in enumerate(picks)
        ]
        got = score_serp(SerpResultSet(query=f"q{t}", entries=entries), verdicts)
        uniq = set(map(str, picks))
        scams = {d for d in uniq if verdicts[d] == "SCAM"}
        assert got.total_sites == len(uniq)
        assert got.scam_sites == len(scams)
        assert got.toxicity == len(scams) / len(uniq)
        assert got.expansion == len(scams)

    # worked example: 6 scams among 20 distinct results
    flagged = {f"d{i}.com": ("SCAM" if i < 6 else "BENIGN") for i in range(20)}
    entries = [SerpEntry(engine="GOOGLE", rank=i + 1, url=f"https://d{i}.com/")
               for i in range(20)]
    got = score_serp(SerpResultSet(query="worked example", entries=entries),
                     flagged)
    assert got.toxicity == 0.3
    assert got.expansion == 6
    assert got.total_sites == 20


# --- bootstrap estimator ---------------------------------------------------------


def test_bootstrap_is_exact_on_constants_and_unbiased_on_coin_flips():
    for seed in range(5):
        est = bootstrap_estimate([0.4] * 30, n_sim=1000, sample_size=20,
                                 seed=seed)
        assert abs(est.mean - 0.4) <= 1e-12
        assert est.std <= 1e-12

    first = bootstrap_estimate([0.1, 0.9, 0.5], n_sim=500, sample_size=10, seed=7)
    again = bootstrap_estimate([0.1, 0.9, 0.5], n_sim=500, sample_size=10, seed=7)
    assert first.mean == again.mean
    assert first.std == again.std

    # balanced coin flips: the mean of 1000 resampled 20-draw means stays
    # within three standard errors (3 * 0.5 / sqrt(20000)) of one half
    est = bootstrap_estimate([0.0, 1.0] * 50, n_sim=1000, sample_size=20, seed=0)
    assert abs(est.mean - 0.5) < 3 * 0.5 / np.sqrt(20000)


# --- cross-category matrix -------------------------------------------------------


def test_cross_category_matrix_diagonal_dominates_every_row():
    segments_by_cat, scored = make_matrix_case(seed=5)
    matrix = cross_category_matrix(segments_by_cat, scored, master_seed=5,
                                   n_sim=500, sample_size=20)
    assert len(matrix) == len(segments_by_cat)
    for source, row in matrix.items():
        assert all(cell is not None for cell in row.values())
        diagonal = row[source].mean
        for target, cell in row.items():
            if target != source:
                assert diagonal > cell.mean


# --- distillation side effects ---------------------------------------------------


def test_distillation_freezes_teacher_and_zero_weight_run_equals_baseline():
    data = make_loco_corpus(120, 3, seed=3)
    tok = TokenizerConfig(512, 10, 12)
    enc = EncoderConfig(1, 16, 2, 32, 0.1)
    cfg = TrainConfig(lr=2e-3, epochs=2, batch_size=16, patience=2, seed=3)
    teacher, _ = train_teacher(data, _PRIV, cfg, tok, enc)

    # a freshly initialized student carries the teacher backbone bit-exactly
    fresh = StudentModel(tok, enc, seed=cfg.seed)
    fresh.init_from_teacher(teacher)
    student_backbone = dict(fresh.query_encoder.named_parameters(""))
    for name, value in teacher.query_encoder.named_parameters(""):
        assert np.array_equal(student_backbone[name], value)

    before = {k: v.copy() for k, v in teacher.parameters().items()}
    distill_student(data, teacher, LossWeights(0.5, 1.0, 0.5, 0.5), cfg)
    after = teacher.parameters()
    assert all(np.array_equal(after[k], v) for k, v in before.items())

    # with only the label term active, distillation must replay the plain
    # query-only run step for step
    plain, plain_report = train_query_baseline(data, cfg, init_from=teacher)
    zeroed, zeroed_report = distill_student(data, teacher,
                                            LossWeights(1, 0, 0, 0), cfg)
    assert zeroed_report.step_losses == plain_report.step_losses
    assert zeroed_report.val_losses == plain_report.val_losses
    plain_params = plain.parameters()
    for name, value in zeroed.parameters().items():
        assert np.array_equal(plain_params[name], value)


# --- teacher invariances ---------------------------------------------------------


def test_teacher_is_permutation_invariant_with_normalized_attention():
    tok = TokenizerConfig(256, 10, 12)
    enc = EncoderConfig(2, 16, 4, 32, 0.1)
    teacher = TeacherModel(tok, enc, _PRIV, seed=3)
    rng = np.random.default_rng(21)

    def text(n):
        return " ".join(rng.choice(_WORDS, size=n))

    q_ids = tokenize_batch([text(int(rng.integers(2, 8))) for _ in range(10)], tok)
    s_ids = np.stack([
        tokenize_batch([text(int(rng.integers(3, 9))) for _ in range(4)],
                       tok, tok.max_len_serp)
        for _ in range(10)
    ])
    present = np.ones((10, 4), dtype=bool)
    base, _, _ = teacher.forward(q_ids, s_ids, present, train=False, cache=False)
    for _ in range(20):
        shuffled = s_ids.copy()
        for i in range(10):
            shuffled[i] = shuffled[i][rng.permutation(4)]
        score, _, _ = teacher.forward(q_ids, shuffled, present,
                                      train=False, cache=False)
        assert float(np.max(np.abs(score - base))) <= 1e-6

    queries = tokenize_batch([text(int(rng.integers(1, 9)))
                              for _ in range(100)], tok)
    _, _, attn = teacher.forward(
        queries, np.zeros((100, 0, tok.max_len_serp), dtype=np.int64),
        np.zeros((100, 0), dtype=bool), train=False, cache=False)
    for layer in attn:
        assert np.allclose(layer.sum(axis=-1), 1.0, atol=1e-5)


# --- branded filter --------------------------------------------------------------


def test_branded_filter_reaches_f1_threshold_on_labeled_fixture():
    labeled = []
    with open(FIXTURES / "branded_200.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            labeled.append((record["text"], record["label"]))
    assert len(labeled) == 200
    metrics = evaluate_filter(labeled)
    assert metrics["f1"] >= 0.85


# --- replay pipeline determinism --------------------------------------------------


def test_replay_pipeline_is_byte_identical_and_matches_brute_force_tally(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("featurize", "--snapshots", FIXTURES / "snapshots.jsonl",
        "--out", tmp_path / "features.csv")
    run("train-oracle", "--features", tmp_path / "features.csv",
        "--labels", FIXTURES / "labels.csv", "--rounds", 60,
        "--out", tmp_path / "model.json")
    run("filter-branded", "--in", FIXTURES / "keywords.jsonl",
        "--out", tmp_path / "unbranded.jsonl")
    run("train-lupi", "--train", FIXTURES / "lupi_train.jsonl",
        "--labels", FIXTURES / "labels.csv",
        "--priv", "google:description:all:ranked:5",
        "--epochs", 2, "--lr", "2e-3", "--batch-size", 16,
        "--out", tmp_path / "student.json")

    run("rank", "--model", tmp_path / "student.json",
        "--keywords", tmp_path / "unbranded.jsonl", "--k", 5,
        "--out", tmp_path / "ranked.csv")
    run("rank", "--model", tmp_path / "student.json",
        "--keywords", tmp_path / "unbranded.jsonl", "--k", 5,
        "--out", tmp_path / "ranked_again.csv")
    assert filecmp.cmp(tmp_path / "ranked.csv", tmp_path / "ranked_again.csv",
                       shallow=False)

    discover = ("discover", "--ranked", tmp_path / "ranked.csv",
                "--oracle", tmp_path / "model.json",
                "--fixtures", FIXTURES / "serp_fixtures.jsonl",
                "--snapshots", FIXTURES / "snapshots.jsonl",
                "--labels", FIXTURES / "labels.csv",
                "--mode", "replay", "--engines", "GOOGLE,BING",
                "--exposure-k", 5)
    run(*discover, "--out", tmp_path / "report.csv")
    run(*discover, "--out", tmp_path / "report_again.csv")
    run(*discover, "--out", tmp_path / "report.json")
    assert filecmp.cmp(tmp_path / "report.csv", tmp_path / "report_again.csv",
                       shallow=False)

    # brute-force tally over the fixture store with plain set arithmetic
    ranked = ranked_from_csv(tmp_path / "ranked.csv")
    store = FixtureStore.load(FIXTURES / "serp_fixtures.jsonl")
    model = gbdt.load_model(tmp_path / "model.json")
    snapshots = {root_domain(s.final_url or s.url): s
                 for s in corpus.read_snapshots(FIXTURES / "snapshots.jsonl")}
    known = {lab.root_domain
             for lab in corpus.read_labels(FIXTURES / "labels.csv")}
    engines = ("GOOGLE", "BING")
    exposure_k = 5

    seen_by_cat: dict[str, set] = {}
    seen_all: set = set()
    top_seen: dict[str, set] = {engine: set() for engine in engines}
    for keyword in ranked:
        for engine in engines:
            page = store.get(keyword.text, engine)
            for entry in page.entries:
                domain = entry.root_domain
                if domain in known:
                    continue
                seen_by_cat.setdefault(keyword.category, set()).add(domain)
                seen_all.add(domain)
                if entry.rank <= exposure_k:
                    top_seen[engine].add(domain)

    def is_scam(domain):
        snap = snapshots.get(domain)
        if snap is None:
            return False
        return gbdt.predict(model, extract_features(snap))[0] == "SCAM"

    scams = {d for d in seen_all if is_scam(d)}
    assert scams  # the fixtures must actually exercise the scam path

    report = report_from_json((tmp_path / "report.json").read_text())
    assert report.total_sites == len(seen_all)
    assert report.discovered_scams == len(scams)
    assert report.queries_run == len(ranked) * len(engines)
    assert [c.category for c in report.categories] == sorted(seen_by_cat)
    for row in report.categories:
        domains = seen_by_cat[row.category]
        assert row.total_sites == len(domains)
        assert row.discovered_scams == sum(1 for d in domains if d in scams)
    assert [e.engine for e in report.exposure] == sorted(engines)
    for exposure in report.exposure:
        assert exposure.total_scams == len(scams)
        assert exposure.top_k_scams == len(top_seen[exposure.engine] & scams)

    csv_report = report_from_csv(tmp_path / "report.csv")
    assert ([(c.category, c.discovered_scams, c.total_sites)
             for c in csv_report.categories]
            == [(c.category, c.discovered_scams, c.total_sites)
                for c in report.categories])
    assert csv_report.total_sites == report.total_sites
    assert csv_report.discovered_scams == report.discovered_scams
