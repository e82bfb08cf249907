import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

from synth import lexicon_objects, make_records  # noqa: E402


@pytest.fixture(scope="session")
def synthetic_records():
    return make_records(seed=0, per_query=40)


@pytest.fixture(scope="session")
def synthetic_lexicons():
    return lexicon_objects()


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
