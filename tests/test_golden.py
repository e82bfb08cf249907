"""The bench corpora's outputs against a committed record, ``tests/data/golden.json``.

Each corpus is written with ``bench/corpus_gen`` into a fresh directory,
which becomes the working directory, so every path the CLI sees and
records in a model file is relative. ``cli.main`` then runs ``train`` for
both tasks, ``predict --chain``, ``features`` for both tasks and
``evaluate`` for both labels:

* paper_cli, seed 1: its training and test files;
* query_stream: its training file and the requests of seed 7, as one
  labeled file.

What is compared:

* the SHA-256 of both feature dumps, the chained CSV and both evaluate
  reports. The feature code makes no BLAS call, so these bytes hold on
  every platform;
* each model file as a parsed document: every value that is not a float
  equal, every float within 1e-9 relative (kernel sums go through BLAS,
  whose last bits may differ from one CPU to another);
* each machine's decision values on every 50th row of the predicted
  file, within 1e-9 absolute.

A change that moves an output on purpose rewrites the record with
``PYTHONPATH=src python tests/test_golden.py``, and lists every entry that
changed, and why, in CHANGES.md. The writer keeps each recorded entry that
its test still accepts, so BLAS noise within the tolerances moves nothing,
and prints the keys it replaced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from querystance.cli import main
from querystance.corpus import load_dataset
from querystance.pipeline import (
    LexiconSet,
    PipelineConfig,
    load_task_model,
    save_task_model,
    task1_rows,
    task2_rows,
    train_task1,
    train_task2,
)
from querystance.svm import decision_values

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "golden.json"
sys.path.insert(0, str(REPO / "bench"))

import corpus_gen  # noqa: E402

CORPORA = ("paper_cli", "query_stream")
DIGESTED = ("features1.csv", "features2.csv", "pred.csv", "eval_relevance.csv", "eval_stance.csv")
MODELS = ("task1.json", "task2.json")
SAMPLE_STRIDE = 50  # decision values are pinned on every 50th predicted row
LEXICONS = ("--gloss", "gloss.tsv", "--nouns", "nouns.txt", "--sentiment", "sentiment.tsv")


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code == 0, f"{argv[0]} exited {code}"


def _write_inputs(name: str) -> None:
    """The corpus's training and test files and lexicons, in the working directory."""
    if name == "paper_cli":
        corpus_gen.write_files(corpus_gen.generate(name, 1), Path("."))
    else:
        corpus = corpus_gen.generate(name, 7)
        corpus_gen.write_files(corpus, Path("."))
        corpus_gen.write_dataset([row for request in corpus.requests for row in request], Path("test.csv"))


def _decision_values() -> dict[str, list[list[float]]]:
    """Each task's machines on every SAMPLE_STRIDE-th row of test.csv, task 2 reading
    the relevance that ``predict --chain`` gave those rows."""
    lexicons = LexiconSet.load("gloss.tsv", "sentiment.tsv", "nouns.txt")
    pipeline = load_task_model("task2.json", lexicons, into=load_task_model("task1.json", lexicons))
    records = load_dataset("test.csv", labeled=False)[::SAMPLE_STRIDE]
    with open("pred.csv", encoding="utf-8", newline="") as handle:
        relevance = [row["predicted_relevance"] for row in csv.DictReader(handle)][::SAMPLE_STRIDE]
    batch1 = task1_rows(records, pipeline.task1.vocabularies, pipeline.lexicons)
    batch2 = task2_rows(records, relevance, pipeline.task2.vocabulary, pipeline.lexicons)
    return {
        "task1": decision_values(pipeline.task1_model, batch1).tolist(),
        "task2": decision_values(pipeline.task2_model, batch2).tolist(),
    }


def run_corpus(name: str, directory: Path) -> dict:
    """The outputs of one corpus, keyed as in the golden record."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        _write_inputs(name)
        _cli("train", "--task", "1", "--data", "train.csv", *LEXICONS[:4], "--out", "task1.json")
        _cli("train", "--task", "2", "--data", "train.csv", *LEXICONS[4:], "--out", "task2.json")
        _cli("predict", "--chain", "--data", "test.csv", "--model", "task1.json", "--model2", "task2.json",
             *LEXICONS, "--out", "pred.csv")
        _cli("features", "--task", "1", "--data", "test.csv", "--model", "task1.json", *LEXICONS[:4],
             "--out", "features1.csv")
        _cli("features", "--task", "2", "--data", "test.csv", "--model", "task2.json", *LEXICONS[4:],
             "--out", "features2.csv")
        for column in ("relevance", "stance"):
            _cli("evaluate", "--gold", "test.csv", "--pred", "pred.csv", "--column", column,
                 "--out", f"eval_{column}.csv")
        outputs = {name_: hashlib.sha256(Path(name_).read_bytes()).hexdigest() for name_ in DIGESTED}
        outputs.update({name_: json.loads(Path(name_).read_text(encoding="utf-8")) for name_ in MODELS})
        outputs.update({f"decision_values.{task}": values for task, values in _decision_values().items()})
    return {f"{name}/{key}": value for key, value in outputs.items()}


def _close(expected, actual, where: str = "") -> list[str]:
    """Where ``actual`` differs from ``expected``: a float beyond 1e-9 relative,
    anything else unequal, down to the first difference in each list or object."""
    if isinstance(expected, float) and type(actual) is float:
        return [] if math.isclose(actual, expected, rel_tol=1e-9) else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [diff for key in expected for diff in _close(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} items != {len(expected)}"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs = _close(e, a, f"{where}[{i}]")
            if diffs:
                return diffs
        return []
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r:.60} != {expected!r:.60}"]
    return []


def _refusals(key: str, expected, actual) -> list[str]:
    """Why the test of ``key`` refuses the output ``actual`` against the record
    ``expected``, empty if it accepts it: decision values must keep their shape
    and lie within 1e-9 absolute, everything else passes ``_close``."""
    if "/decision_values." not in key:
        return _close(expected, actual, key)
    if len(actual) != len(expected) or any(len(a) != len(e) for a, e in zip(actual, expected)):
        return [f"{key}: the shape changed"]
    worst = max(abs(a - e) for a_row, e_row in zip(actual, expected) for a, e in zip(a_row, e_row))
    return [] if worst <= 1e-9 else [f"{key}: a decision value moved by {worst:.3g}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=CORPORA)
def outputs(request, tmp_path_factory):
    return request.param, run_corpus(request.param, tmp_path_factory.mktemp(request.param))


def test_file_digests(outputs, golden):
    name, got = outputs
    for file in DIGESTED:
        key = f"{name}/{file}"
        assert got[key] == golden[key], f"{key} changed"


@pytest.mark.parametrize("file", MODELS)
def test_model_documents(outputs, golden, file):
    name, got = outputs
    key = f"{name}/{file}"
    assert _refusals(key, golden[key], got[key]) == []


@pytest.mark.parametrize("task", ("task1", "task2"))
def test_decision_values(outputs, golden, task):
    name, got = outputs
    key = f"{name}/decision_values.{task}"
    assert _refusals(key, golden[key], got[key]) == []


def test_task2_file_round_trip(tmp_path, monkeypatch):
    """A task-2 file saved again after loading has the same bytes, and the loaded
    model's decision values on the paper_cli seed-1 test rows are the in-memory
    model's, bit for bit."""
    monkeypatch.chdir(tmp_path)
    corpus_gen.write_files(corpus_gen.generate("paper_cli", 1), Path("."))
    lexicons = LexiconSet.load(sentiment_path="sentiment.tsv")
    records = load_dataset("train.csv", labeled=True)
    trained = train_task2(records, [r.relevance for r in records], lexicons,
                          PipelineConfig(sentiment_path="sentiment.tsv"))
    save_task_model(trained, 2, "saved.json")
    loaded = load_task_model("saved.json", lexicons)
    save_task_model(loaded, 2, "saved_again.json")
    assert Path("saved_again.json").read_bytes() == Path("saved.json").read_bytes()
    test = load_dataset("test.csv", labeled=True)
    batch = task2_rows(test, [r.relevance for r in test], trained.task2.vocabulary, lexicons)
    expected = decision_values(trained.task2_model, batch)
    assert decision_values(loaded.task2_model, batch).tobytes() == expected.tobytes()


def test_task1_file_round_trip(tmp_path, monkeypatch):
    """A task-1 file saved again after loading has the same bytes, and the loaded
    model's vocabularies are the trained ones and its decision values on the
    paper_cli seed-1 test rows those of the trained model's stored form, bit for bit."""
    monkeypatch.chdir(tmp_path)
    corpus_gen.write_files(corpus_gen.generate("paper_cli", 1), Path("."))
    lexicons = LexiconSet.load(gloss_path="gloss.tsv", noun_path="nouns.txt")
    trained = train_task1(load_dataset("train.csv", labeled=True), lexicons,
                          PipelineConfig(gloss_path="gloss.tsv", noun_path="nouns.txt"))
    save_task_model(trained, 1, "saved.json")
    loaded = load_task_model("saved.json", lexicons)
    save_task_model(loaded, 1, "saved_again.json")
    assert Path("saved_again.json").read_bytes() == Path("saved.json").read_bytes()
    assert loaded.task1.vocabularies == trained.task1.vocabularies
    batch = task1_rows(load_dataset("test.csv", labeled=True), trained.task1.vocabularies, lexicons)
    expected = decision_values(trained.task1.classifier, batch)
    assert decision_values(loaded.task1.classifier, batch).tobytes() == expected.tobytes()


def write_golden() -> None:
    """Record every corpus's outputs, one entry per line. An entry whose test
    accepts the output keeps its recorded value; the keys replaced are printed."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    record = {}
    with tempfile.TemporaryDirectory() as root:
        for name in CORPORA:
            directory = Path(root) / name
            directory.mkdir()
            record.update(run_corpus(name, directory))
    for key, value in record.items():
        if key in old and not _refusals(key, old[key], value):
            record[key] = old[key]
        else:
            print(f"replaced {key}")
    lines = [f"{json.dumps(key)}: {json.dumps(record[key], sort_keys=True)}" for key in sorted(record)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
