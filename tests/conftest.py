import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))
sys.path.insert(0, str(TESTS_DIR.parent / "bench"))

import corpus_gen  # noqa: E402
from synth import lexicon_objects, make_records  # noqa: E402


@pytest.fixture(scope="session")
def synthetic_records():
    return make_records(seed=0, per_query=40)


@pytest.fixture(scope="session")
def synthetic_lexicons():
    return lexicon_objects()


@pytest.fixture(scope="session")
def paper_corpus(tmp_path_factory):
    """The files of the bench's paper_cli corpus of seed 1 (348 training rows, 1,542
    test rows, lexicons), by role. On it task 1's default cubic kernel keeps far more
    pool entries than its map's 35 terms, so its model is stored as weights; the
    synthetic records keep two support vectors, whose pool stays the stored form."""
    return corpus_gen.write_files(corpus_gen.generate("paper_cli", 1), tmp_path_factory.mktemp("paper"))


@pytest.fixture
def fresh_analysis(monkeypatch):
    """An empty batch-analysis memo, for a test that counts the text analysis its calls do."""
    from querystance import pipeline

    monkeypatch.setattr(pipeline, "_last_analysis", ((), {}, pipeline.WordTable.of([])))


@pytest.fixture(scope="session")
def porter_pairs():
    path = TESTS_DIR / "data" / "porter_vocabulary.tsv"
    with open(path, encoding="utf-8") as handle:
        return [tuple(line.rstrip("\n").split("\t")) for line in handle]
