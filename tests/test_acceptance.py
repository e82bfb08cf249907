"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion. Each test pins its tolerance and, where stated, its
runtime budget.
"""

import csv
import random
import time

import numpy as np
import pytest

from querystance.cli import main
from querystance.corpus import group_by_query, load_dataset
from querystance.features import (
    WordTable,
    feature_cosine,
    feature_exact,
    feature_noun,
    fit_vocabulary,
    task2_features,
)
from querystance.lexicons import SentimentLexicon
from querystance.pipeline import (
    PipelineConfig,
    macro_average,
    predict_task1,
    predict_task2,
    train_task1,
    train_task2,
)
from querystance.porter import porter_stem
from querystance.svm import train_binary
from querystance.textproc import tokenize

from oracles import dense_gram as _gram, dice_bruteforce, dual_objective, noun_bruteforce, solve_dual_bruteforce
from svm_fixtures import fixture_instances, kkt_satisfied
from synth import lexicon_objects, make_census_records, make_records, write_dataset_csv, write_lexicon_files

WORD_POOL = ["sun", "skin", "cancer", "cause", "the", "a", "is", "risk", "cell", "light", "dose"]


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_evaluation_arithmetic():
    start = time.perf_counter()
    table1 = [48.86363636, 89.65517241, 93.05555556, 71.875, 63.51351351]
    table2 = [44.31818182, 32.75862069, 22.22222222, 29.6875, 39.18918919]
    assert macro_average(table1) == pytest.approx(73.39257557, abs=1e-6)
    assert macro_average(table2) == pytest.approx(33.63514278, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"macro averages reproduced to 1e-6 in {elapsed:.3f}s")


def test_criterion_2_dice_oracle():
    query = ["ram", "is", "a", "good", "boy"]
    sentence = ["shyam", "is", "a", "bad", "boy"]
    assert feature_exact(tokenize(" ".join(query)), tokenize(" ".join(sentence))) == 0.6
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        q = [rng.choice(WORD_POOL) for _ in range(rng.randrange(0, 12))]
        s = [rng.choice(WORD_POOL) for _ in range(rng.randrange(0, 12))]
        got = feature_exact(tokenize(" ".join(q)), tokenize(" ".join(s)))
        worst = max(worst, abs(got - dice_bruteforce(q, s)))
    assert worst <= 1e-12
    _report(2, f"worked example exact; 1000 random pairs within {worst:.1e} of brute force")


def test_criterion_3_noun_oracle():
    rng = random.Random(77)
    for _ in range(500):
        nouns = frozenset(rng.sample(WORD_POOL, rng.randrange(0, 7)))
        q_tokens = [rng.choice(WORD_POOL) for _ in range(rng.randrange(0, 10))]
        s_tokens = [rng.choice(WORD_POOL) for _ in range(rng.randrange(0, 10))]
        got = feature_noun(tokenize(" ".join(q_tokens)), tokenize(" ".join(s_tokens)), nouns)
        assert got == noun_bruteforce(q_tokens, s_tokens, nouns)
    _report(3, "500 random triples match brute-force set arithmetic exactly")


def test_criterion_4_smo_against_qp_oracle():
    start = time.perf_counter()
    worst_rel = 0.0
    for name, x, y, cfg in fixture_instances():
        model = train_binary(x, y, cfg)
        achieved = dual_objective(model, cfg.kernel)
        expected, _ = solve_dual_bruteforce(_gram(cfg.kernel, x, x), y, cfg.c)
        rel = abs(achieved - expected) / max(1.0, abs(expected))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4, f"{name}: objective off by {rel:.2e}"
        assert kkt_satisfied(model, cfg, np.asarray(x, dtype=float), y, tol=1e-3), name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"{len(fixture_instances())} instances, worst rel err {worst_rel:.1e}, {elapsed:.2f}s")


def test_criterion_5_porter_vocabulary(porter_pairs):
    start = time.perf_counter()
    assert porter_stem("mangoes") == "mango"
    assert len(porter_pairs) >= 20000
    mismatches = sum(porter_stem(w) != expected for w, expected in porter_pairs)
    agreement = 1.0 - mismatches / len(porter_pairs)
    elapsed = time.perf_counter() - start
    assert agreement >= 0.999
    assert elapsed < 5.0
    _report(
        5,
        f"mangoes->mango; {agreement * 100:.3f}% agreement over "
        f"{len(porter_pairs)} words in {elapsed:.2f}s",
    )


def test_criterion_6_tfidf_cosine():
    vocab = fit_vocabulary([["sun", "causes", "cancer"], ["sun", "is", "bright"], ["cancer", "research"]])
    # sun appears in 2 of 3 docs; a term in every doc weighs exactly 0
    everywhere = fit_vocabulary([["a", "b"], ["a", "c"]])
    row = task2_features(WordTable.of([["a"]]), [0], [False], everywhere, SentimentLexicon()).to_dense()[0]
    assert row[everywhere.terms.index("a")] == 0.0
    assert feature_cosine(tokenize("sun cancer"), tokenize("sun cancer"), vocab) == pytest.approx(1.0, abs=1e-12)
    import math

    got = feature_cosine(tokenize("sun cancer"), tokenize("sun causes cancer"), vocab)
    l2, l3 = math.log(3 / 2), math.log(3.0)
    expected = math.sqrt(2) * l2 / math.sqrt(2 * l2 * l2 + l3 * l3)
    assert got == pytest.approx(expected, abs=1e-12)
    _report(6, "zero-idf, self-cosine and 3-sentence hand corpus all within 1e-12")


def test_criterion_7_end_to_end_synthetic():
    start = time.perf_counter()
    records = make_records(seed=0, per_query=40)
    assert len(records) == 200
    assert len(group_by_query(records)) == 5
    lexicons = lexicon_objects()
    config = PipelineConfig()  # reference settings: C=1e7, poly 0.006 / rbf 0.005
    pipeline = train_task1(records, lexicons, config)
    pipeline = train_task2(
        records, [r.relevance for r in records], lexicons, config, pipeline=pipeline
    )
    relevance = predict_task1(pipeline, records)
    stance = predict_task2(pipeline, records, relevance)
    acc1 = sum(p == r.relevance for p, r in zip(relevance, records)) / len(records)
    acc2 = sum(p == r.stance for p, r in zip(stance, records)) / len(records)
    elapsed = time.perf_counter() - start
    assert acc1 >= 0.95, f"task-1 accuracy {acc1:.3f}"
    assert acc2 >= 0.90, f"task-2 accuracy {acc2:.3f}"
    assert elapsed < 60.0
    _report(7, f"task-1 {acc1 * 100:.1f}%, task-2 {acc2 * 100:.1f}% in {elapsed:.2f}s")


def test_criterion_8_end_to_end_determinism(tmp_path):
    records = make_records(seed=0, per_query=15)
    lex_paths = write_lexicon_files(tmp_path)
    data = write_dataset_csv(records, tmp_path / "train.csv")
    artifacts = {}
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        m1, m2 = run_dir / "m1.json", run_dir / "m2.json"
        pred, report = run_dir / "pred.csv", run_dir / "report.csv"
        base = [
            "--data", str(data),
            "--nouns", str(lex_paths["nouns"]),
            "--gloss", str(lex_paths["gloss"]),
            "--sentiment", str(lex_paths["sentiment"]),
        ]
        assert main(["train", "--task", "1", "--out", str(m1), "--seed", "0", *base]) == 0
        assert main(["train", "--task", "2", "--out", str(m2), "--seed", "0", *base]) == 0
        assert main([
            "predict", "--chain", "--model", str(m1), "--model2", str(m2),
            "--out", str(pred), *base,
        ]) == 0
        assert main([
            "evaluate", "--gold", str(data), "--pred", str(pred),
            "--column", "relevance", "--out", str(report),
        ]) == 0
        artifacts[run] = [p.read_bytes() for p in (m1, m2, pred, report)]
    names = ["task-1 model", "task-2 model", "predictions CSV", "report CSV"]
    for name, first, second in zip(names, artifacts["one"], artifacts["two"]):
        assert first == second, f"{name} differs between identical runs"
    _report(8, "two identical runs produced byte-identical models, predictions and report")


def test_criterion_9_dataset_accounting(tmp_path):
    train_counts = {"q1": 68, "q2": 83, "q3": 61, "q4": 71, "q5": 65}
    test_counts = {"q1": 342, "q2": 414, "q3": 260, "q4": 279, "q5": 247}
    train_path = write_dataset_csv(make_census_records(train_counts), tmp_path / "train.csv")
    test_path = write_dataset_csv(
        make_census_records(test_counts, labeled=False), tmp_path / "test.csv", with_labels=False
    )
    train_records = load_dataset(train_path, labeled=True)
    test_records = load_dataset(test_path, labeled=False)
    assert len(train_records) == 348
    assert len(test_records) == 1542
    assert [len(g) for g in group_by_query(train_records).values()] == list(train_counts.values())
    assert [len(g) for g in group_by_query(test_records).values()] == list(test_counts.values())
    _report(9, "348 training and 1542 test records with the stated per-query census")


def test_chained_cli_prediction_row_count(tmp_path):
    """1542 unlabeled rows in, 1542 chained predictions out."""
    counts = {"q1": 342, "q2": 414, "q3": 260, "q4": 279, "q5": 247}
    lex_paths = write_lexicon_files(tmp_path)
    train = write_dataset_csv(make_records(seed=0, per_query=15), tmp_path / "train.csv")
    test = write_dataset_csv(
        make_census_records(counts, labeled=False), tmp_path / "test.csv", with_labels=False
    )
    base = [
        "--nouns", str(lex_paths["nouns"]),
        "--gloss", str(lex_paths["gloss"]),
        "--sentiment", str(lex_paths["sentiment"]),
    ]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["train", "--task", "1", "--data", str(train), "--out", str(m1), *base]) == 0
    assert main(["train", "--task", "2", "--data", str(train), "--out", str(m2), *base]) == 0
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--chain", "--model", str(m1), "--model2", str(m2),
        "--data", str(test), "--out", str(pred), *base,
    ]) == 0
    with open(pred, newline="", encoding="utf-8") as handle:
        assert len(list(csv.DictReader(handle))) == 1542
