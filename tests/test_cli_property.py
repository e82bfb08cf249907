"""Every malformed input file ends in exit 0 or in an error that names it.

One to three byte-level edits, from a token set of field separators, quotes,
encoding faults, non-finite numbers and label words, go into one input file of
a small workspace: the dataset, a lexicon, the ``--config`` file, a model file
or the predictions file. The commands that read input files then run on it.
Each run exits 0, or exits 1 with its first error line
``error: <the edited file>: ``; none prints ``internal error``, and a
``train`` that fails leaves neither its model nor its manifest. ``evaluate``
reads two files that must agree row by row, the dataset as gold and the
predictions: when their query ids or row counts disagree, either may be at
fault, so its first error line may instead start with the predictions file
and end with the edited one.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from querystance.cli import main
from querystance.corpus import EXPECTED_HEADER

from synth import QUERIES, make_records, write_dataset_csv, write_lexicon_files

TOKENS = (b"\t", b"\n", b'"', b",", b"\x00", b"\xff", "\ufeff".encode(), b"nan", b"inf", b"1e309",
          b"relevant", b"irrelevant", b"support", b"oppose", b"neutral")

# the workspace's files: the option that names each, the two models, trained on the others, and
# the chained predictions of the dataset by those models
FILES = {"data": "data.csv", "gloss": "gloss.tsv", "sentiment": "sentiment.tsv", "nouns": "nouns.txt",
         "config": "run.cfg", "m1": "m1.json", "m2": "m2.json", "pred": "pred.csv"}
COMMON = [word for name in ("data", "gloss", "sentiment", "nouns", "config") for word in (f"--{name}", name)]

# each command's words; a word that names a workspace file stands for its path
COMMANDS = {
    "train --task 1": ["train", "--task", "1", *COMMON],
    "train --task 2": ["train", "--task", "2", *COMMON],
    "predict --chain": ["predict", "--chain", "--model", "m1", "--model2", "m2", *COMMON],
    "features --task 1": ["features", "--task", "1", "--model", "m1", *COMMON],
    "features --task 2": ["features", "--task", "2", "--model", "m2", *COMMON],
    "evaluate --column relevance": ["evaluate", "--gold", "data", "--pred", "pred", "--column", "relevance",
                                    "--config", "config"],
    "evaluate --column stance": ["evaluate", "--gold", "data", "--pred", "pred", "--column", "stance",
                                 "--config", "config"],
}

# the first data row's query id starts here, and its query text after it: an edit to the id
# sets gold against predictions in evaluate, one to the text gives the id two texts
FIRST_QUERY_ID = len(",".join(EXPECTED_HEADER)) + 1
FIRST_QUERY_TEXT = FIRST_QUERY_ID + len(QUERIES[0][0]) + 1


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of each workspace file, the models and the predictions made from the others."""
    root = tmp_path_factory.mktemp("property")
    paths = {name: root / file for name, file in FILES.items()}
    write_lexicon_files(root)
    write_dataset_csv(make_records(seed=0, per_query=6), paths["data"])
    paths["config"].write_text("# run settings\ntol=0.001\nstance_classes=three_class\n", encoding="utf-8")
    for task in (1, 2):
        assert _run(COMMANDS[f"train --task {task}"], paths, paths[f"m{task}"])[0] == 0
    assert _run(COMMANDS["predict --chain"], paths, paths["pred"])[0] == 0
    return {name: path.read_bytes() for name, path in paths.items()}


def _run(words, paths, out):
    """Exit code and stderr of one command on the workspace ``paths``."""
    argv = [str(paths[word]) if word in paths else word for word in words] + ["--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _edited(content: bytes, edits) -> bytes:
    """``content`` with each (kind, place, span, token) edit applied in turn; a place
    beyond the end wraps round."""
    for kind, place, span, token in edits:
        at = place % (len(content) + 1)
        if kind == "insert":
            content = content[:at] + token + content[at:]
        elif kind == "delete":
            content = content[:at] + content[at + span:]
        else:
            content = content[:at] + token + content[at + span:]
    return content


edits = st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace")), st.integers(0, 1 << 16),
                           st.integers(1, 8), st.sampled_from(TOKENS)), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FILES)), edits)
@example("data", [("insert", FIRST_QUERY_TEXT, 1, b"nan")])
@example("data", [("insert", FIRST_QUERY_ID, 1, b"neutral")])
@example("pred", [("insert", FIRST_QUERY_ID, 1, b"neutral")])
@example("config", [("delete", 1, 8, b"\t"), ("insert", 736, 1, b"1e309")])  # tol=0.0011e309 lies outside (0, 2)
def test_edited_input_exits_0_or_names_the_file(originals, edited, edits):
    with tempfile.TemporaryDirectory() as root:
        paths = {name: Path(root, file) for name, file in FILES.items()}
        for name, content in originals.items():
            paths[name].write_bytes(_edited(content, edits) if name == edited else content)
        for i, (command, words) in enumerate(COMMANDS.items()):
            out = Path(root, f"out{i}")
            code, err = _run(words, paths, out)
            assert "internal error" not in err, (command, err)
            assert code in (0, 1), (command, err)
            if code == 1:
                first = next((line for line in err.splitlines() if line.startswith("error: ")), "")
                named = first.startswith(f"error: {paths[edited]}: ")
                if command.startswith("evaluate"):
                    named |= first.startswith(f"error: {paths['pred']}: ") and first.endswith(f" {paths[edited]}")
                assert named, (command, err)
                if command.startswith("train"):
                    assert not out.exists() and not Path(f"{out}.manifest.json").exists(), command
