import csv
import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from querystance import cli as cli_module, pipeline as pipeline_module
from querystance.cli import main
from querystance.codec import to_doc
from querystance.corpus import EXPECTED_HEADER, load_dataset, read_csv_rows
from querystance.errors import VersionMismatch
from querystance.features import TASK1_FEATURE_NAMES, TASK2_TAIL_NAMES
from querystance.pipeline import LexiconSet, PipelineConfig, load_task_model, task1_rows
from querystance.svm import predict_batch

from synth import make_records, write_dataset_csv, write_lexicon_files


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset and lexicon files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    records = make_records(seed=0, per_query=20)
    paths = write_lexicon_files(root)
    paths["train"] = write_dataset_csv(records, root / "train.csv")
    paths["unlabeled"] = write_dataset_csv(records, root / "test.csv", with_labels=False)
    paths["root"] = root
    return paths


def train_args(ws, task, out, *extra):
    args = [
        "train", "--task", str(task),
        "--data", str(ws["train"]),
        "--out", str(out),
        "--nouns", str(ws["nouns"]),
        "--gloss", str(ws["gloss"]),
        "--sentiment", str(ws["sentiment"]),
    ]
    args.extend(extra)
    return args


@pytest.fixture(scope="module")
def trained_models(workspace):
    root = workspace["root"]
    m1, m2 = root / "m1.json", root / "m2.json"
    assert main(train_args(workspace, 1, m1)) == 0
    assert main(train_args(workspace, 2, m2)) == 0
    return {"m1": m1, "m2": m2}


@pytest.fixture(scope="module")
def weights_task1_model(paper_corpus, tmp_path_factory):
    """A task-1 file that stores weights: the default cubic kernel trained on the paper_cli corpus."""
    out = tmp_path_factory.mktemp("weights") / "m1.json"
    assert main(["train", "--task", "1", "--data", str(paper_corpus["train"]), "--out", str(out),
                 "--gloss", str(paper_corpus["gloss"]), "--nouns", str(paper_corpus["nouns"])]) == 0
    assert "weights" in json.loads(out.read_text())["svm"]
    return out


@pytest.fixture(scope="module")
def rbf_task1_model(workspace):
    """A task-1 file that stores its support-vector pool: an RBF kernel has no finite map."""
    out = workspace["root"] / "m1_rbf.json"
    assert main(train_args(workspace, 1, out, "--kernel", "rbf", "--gamma", "0.5")) == 0
    assert "pool" in json.loads(out.read_text())["svm"]
    return out


class TestTrain:
    def test_writes_model_and_manifest(self, workspace, tmp_path):
        out = tmp_path / "model.json"
        code = main(train_args(workspace, 1, out, "--gamma", "0.006", "--C", "1e7", "--kernel", "poly"))
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["task1"]["kernel"]["gamma"] == 0.006
        assert manifest["config"]["task1"]["c"] == 1e7
        # recomputing a recorded digest must match
        for entry in manifest["inputs"].values():
            with open(entry["path"], "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            assert digest == entry["sha256"]

    def test_missing_lexicon_file_exits_1(self, workspace, tmp_path, capsys):
        args = train_args(workspace, 1, tmp_path / "m.json")
        args[args.index("--nouns") + 1] = str(tmp_path / "missing_nouns.txt")
        assert main(args) == 1
        assert "missing_nouns.txt" in capsys.readouterr().err

    def test_bad_flag_exits_2(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(train_args(workspace, 1, tmp_path / "m.json", "--kernel", "quantum"))
        assert err.value.code == 2

    def test_missing_required_path_exits_2(self, tmp_path, capsys):
        assert main(["train", "--task", "1", "--out", str(tmp_path / "m.json")]) == 2
        assert "--data" in capsys.readouterr().err

    def test_no_retrain_full_trains_on_split(self, workspace, tmp_path):
        full = tmp_path / "full.json"
        part = tmp_path / "part.json"
        assert main(train_args(workspace, 1, full)) == 0
        assert main(train_args(workspace, 1, part, "--no-retrain-full")) == 0
        assert full.read_bytes() != part.read_bytes()

    def test_config_file_overridden_by_flags(self, workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma=0.5\nseed=3\n", encoding="utf-8")
        out = tmp_path / "m.json"
        code = main(train_args(workspace, 1, out, "--config", str(config), "--gamma", "0.006"))
        assert code == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["config"]["task1"]["kernel"]["gamma"] == 0.006  # flag wins
        assert manifest["config"]["seed"] == 3  # config file wins over default

    def test_config_retrain_full_false_is_the_flag(self, workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("retrain_full=false\n", encoding="utf-8")
        flag, line = tmp_path / "flag.json", tmp_path / "line.json"
        assert main(train_args(workspace, 1, flag, "--no-retrain-full")) == 0
        assert main(train_args(workspace, 1, line, "--config", str(config))) == 0
        assert line.read_bytes() == flag.read_bytes()

    def test_config_file_starting_with_a_bom_is_applied(self, workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("\ufeffseed=3\n", encoding="utf-8")
        assert main(train_args(workspace, 1, tmp_path / "m.json", "--config", str(config))) == 0
        assert json.loads((tmp_path / "m.json.manifest.json").read_text())["config"]["seed"] == 3

    @pytest.mark.parametrize(
        "flags", [["--C", "nan"], ["--max-passes", "0"], ["--gamma", "inf"], ["--coef0", "nan"],
                  ["--tol", "inf"], ["--tol", "2"], ["--tol", "1e9"], ["--train-fraction", "nan"]],
        ids=" ".join,
    )
    def test_degenerate_setting_exits_1_without_model(self, workspace, tmp_path, capsys, flags):
        out = tmp_path / "m.json"
        assert main(train_args(workspace, 1, out, *flags)) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("task, key, value", [(1, "tol", "1e9"), (2, "C", "0")])
    def test_setting_that_can_never_train_from_config_names_its_line(self, workspace, tmp_path, capsys, task, key,
                                                                     value):
        """A tol of 2 or more would stop SMO before its first update, and a C of 0
        leaves no room in the box: each is refused before the data is read, naming
        the file, line and key."""
        config, out = tmp_path / "run.cfg", tmp_path / "m.json"
        config.write_text(f"# solver\n{key}={value}\n", encoding="utf-8")
        assert main(train_args(workspace, task, out, "--config", str(config))) == 1
        assert not out.exists() and not (tmp_path / "m.json.manifest.json").exists()
        problem = {"tol": "tol must be in (0, 2)", "C": "c must be positive and finite"}[key]
        assert capsys.readouterr().err == f"error: {config}: line 2: {key}: {problem}, got {float(value)}\n"

    def test_tiny_c_trains(self, workspace, tmp_path):
        """Any positive C trains: the support vectors are the nonzero alphas, however small."""
        out = tmp_path / "m.json"
        assert main(train_args(workspace, 1, out, "--C", "1e-9")) == 0
        assert json.loads(out.read_text())["config"]["task1"]["c"] == 1e-9

    def test_eps_flag_exits_2(self, workspace, tmp_path):
        """There is no support-vector floor to set."""
        with pytest.raises(SystemExit) as err:
            main(train_args(workspace, 1, tmp_path / "m.json", "--eps", "0"))
        assert err.value.code == 2

    def test_eps_config_line_names_its_line(self, workspace, tmp_path, capsys):
        config, out = tmp_path / "run.cfg", tmp_path / "m.json"
        config.write_text("# solver\neps=1e-8\n", encoding="utf-8")
        assert main(train_args(workspace, 1, out, "--config", str(config))) == 1
        assert capsys.readouterr().err == f"error: {config}: line 2: eps: no command takes this option\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", [1, 2])
    def test_empty_train_side_exits_1_without_model(self, workspace, tmp_path, capsys, task):
        # three queries of three rows: round(0.1 * 3) puts none of a query's rows on the train side
        data = write_dataset_csv(make_records(seed=0, per_query=3)[:9], tmp_path / "d.csv")
        out = tmp_path / "m.json"
        args = train_args(workspace, task, out, "--no-retrain-full", "--train-fraction", "0.1")
        args[args.index("--data") + 1] = str(data)
        assert main(args) == 1
        assert not out.exists() and not (tmp_path / "m.json.manifest.json").exists()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {data}: the train side of the split at train_fraction 0.1 is empty"

    def test_bare_train_config_is_the_dataclass_default(self, workspace, tmp_path):
        out = tmp_path / "m.json"
        assert main([
            "train", "--task", "1", "--data", str(workspace["train"]), "--out", str(out),
            "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
        ]) == 0
        expected = to_doc(PipelineConfig(gloss_path=str(workspace["gloss"]), noun_path=str(workspace["nouns"])))
        assert json.loads(out.read_text())["config"] == expected
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["config"] == {"task": 1, **expected}


HEADER = b"query_id,query_text,sentence_text,relevance,stance\n"

def _predictions_misaligned_at_row_3(ws) -> bytes:
    """The gold dataset as a prediction CSV whose row 3 has another query id."""
    lines = ws["train"].read_bytes().splitlines()
    lines = [lines[0] + b",predicted_relevance"] + [line + b",relevant" for line in lines[1:]]
    lines[2] = b"zzz" + lines[2][lines[2].index(b","):]
    return b"\n".join(lines) + b"\n"


def _constant_predictions(ws) -> bytes:
    """The gold dataset as a prediction CSV predicting relevant/support for every row."""
    lines = [HEADER[:-1] + b",predicted_relevance,predicted_stance"]
    lines += [line + b",relevant,support" for line in ws["train"].read_bytes().splitlines()[1:]]
    return b"\n".join(lines) + b"\n"


def _predictions_changed_at_row(ws, row: int, change) -> bytes:
    """``_constant_predictions`` with ``change`` applied to the line of CSV row ``row``."""
    lines = _constant_predictions(ws).splitlines()
    lines[row - 1] = change(lines[row - 1])
    return b"\n".join(lines) + b"\n"


def _blank_line_after_row_3(content: bytes) -> bytes:
    """``content`` with a blank line inserted as CSV row 4, after row 3."""
    lines = content.splitlines()
    return b"\n".join(lines[:3] + [b""] + lines[3:]) + b"\n"


# a broken input file: (the role it replaces, its bytes or a function of the workspace
# giving them[, what the message says after the file]); the command that reads it fails
# with exit 1, naming the file and writing no model. "train" and "train2" are the data
# of task-1 and task-2 training, and a "gold" file is scored against a header-only
# prediction CSV
BAD_INPUTS = {
    "gloss line without a tab": ("gloss", b"espresso a strong coffee\n"),
    "sentiment score out of range": ("sentiment", b"good\t1.5\t0.0\n"),
    "dataset row with a missing field": ("train", HEADER + b"q,does coffee help,coffee helps,relevant\n"),
    "dataset label outside its domain": ("train", HEADER + b"q,does coffee help,coffee helps,maybe,\n"),
    "dataset empty sentence": ("train", HEADER + b"q,does coffee help,  ,relevant,support\n"),
    "dataset field over the csv size limit": ("train", HEADER + b"q,t," + b"x" * 200_000 + b",relevant,\n"),
    "lexicon not UTF-8": ("nouns", b"coffee\n\xff\xfe\n"),
    "dataset not UTF-8": ("train", HEADER + b"q,does coffee help,caf\xe9 helps,relevant,support\n"),
    "prediction CSV not UTF-8": ("pred", HEADER[:-1] + b",predicted_relevance\nq,t,s,,,\xff\n"),
    "config file not UTF-8": ("config", b"gamma=0.5\n\xff\n"),
    "config C not a number": ("config", b"# tuned\nC=abc\n", "line 2: C: "),
    "config max_passes not an integer": ("config", b"max_passes=1.5\n", "line 1: max_passes: "),
    "config retrain_full not a boolean": ("config", b"retrain_full=maybe\n", "line 1: retrain_full: "),
    "config line without =": ("config", b"gamma\n", "line 1: "),
    "config kernel not a choice": ("config", b"kernel=sigmoid\n", "line 1: kernel: "),
    "config stance_classes not a choice": ("config", b"stance_classes=four\n", "line 1: stance_classes: "),
    "config gamma outside its domain": ("config", b"gamma=-1\n", "line 1: gamma: "),
    "config key no command takes": ("config", b"gama=0.5\n", "line 1: gama: "),
    "task-2 prediction row without relevance": (
        "predict_data",
        HEADER + b"q,does coffee help,coffee helps,relevant,\nq,does coffee help,tea helps,relevant,\n"
        + b"q,does coffee help,rain falls,,\n",
        "row 4: ",
    ),
    "prediction query id not the gold one": ("pred", _predictions_misaligned_at_row_3, "row 3: "),
    "prediction CSV shorter than gold": (
        "pred", lambda ws: b"\n".join(_constant_predictions(ws).splitlines()[:2]) + b"\n", "1 prediction rows vs "
    ),
    "prediction label outside its domain": (
        "pred",
        lambda ws: _predictions_changed_at_row(ws, 3, lambda line: line.rsplit(b",", 2)[0] + b",relevent,support"),
        "row 3: predicted_relevance must be one of ",
    ),
    "prediction label outside its domain after a blank line": (
        "pred",
        lambda ws: _blank_line_after_row_3(
            _predictions_changed_at_row(ws, 5, lambda line: line.rsplit(b",", 2)[0] + b",relevent,support")
        ),
        "row 6: predicted_relevance must be one of ",
    ),
    "prediction row ending before its label": (
        "pred", lambda ws: _predictions_changed_at_row(ws, 4, lambda line: line.rsplit(b",", 2)[0]),
        "row 4: no predicted_relevance value",
    ),
    "task-2 training row without a stance": (
        "train2",
        HEADER + b"q,does coffee help,coffee helps,relevant,support\n"
        + b"q,does coffee help,coffee hurts,relevant,\n",
        "row 3: no stance label, needed for task-2 training",
    ),
    "training file with one relevance class": (
        "train",
        HEADER + b"q,does coffee help,coffee helps,relevant,\nq,does coffee help,tea helps,relevant,\n",
        "need at least 2 distinct labels, got ['relevant']",
    ),
    "training query id with two texts": (
        "train",
        HEADER + b"q,does coffee help,coffee helps,relevant,\nq,does tea help,tea helps,irrelevant,\n",
        "query_id 'q' maps to both 'does coffee help' at row 2 and 'does tea help' at row 3",
    ),
    "training file with a header only": ("train", HEADER, "the file holds no data rows"),
    "task-2 training file with a header only": ("train2", HEADER, "the file holds no data rows"),
    "gold file with a header only": ("gold", HEADER, "nothing to evaluate"),
    "dataset file of 0 bytes": ("train", b"", "empty file, expected header "),
    "dataset empty query text": ("train", HEADER + b"q,  ,coffee helps,relevant,\n", "row 2: empty query_text"),
    "dataset header over the csv size limit": ("train", b"x" * 200_000 + b"\n", "row 1: field larger than"),
    "lexicon line with an empty term": ("gloss", b"espresso\ta strong coffee\n \tno term\n", "line 2: empty term"),
    "noun line holding a tab": ("nouns", b"coffee\ttea\n", "line 1: expected word, got 2 fields"),
    "prediction CSV without its predicted column": ("pred", HEADER, "missing column 'predicted_relevance'"),
    "prediction field over the csv size limit": (
        "pred", lambda ws: _predictions_changed_at_row(ws, 3, lambda line: line + b"x" * 200_000),
        "row 3: field larger than",
    ),
}


class TestInputFileErrorsNameTheFile:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_exit_1_naming_file(self, workspace, trained_models, tmp_path, capsys, case):
        role, content, *after = BAD_INPUTS[case]
        bad = tmp_path / f"bad_{role}.input"
        bad.write_bytes(content(workspace) if callable(content) else content)
        if role == "pred":
            args = ["evaluate", "--gold", str(workspace["train"]), "--pred", str(bad)]
        elif role == "gold":
            pred = tmp_path / "pred.csv"
            pred.write_bytes(HEADER[:-1] + b",predicted_relevance\n")
            args = ["evaluate", "--gold", str(bad), "--pred", str(pred)]
        elif role == "predict_data":
            args = ["predict", "--model", str(trained_models["m2"]), "--data", str(bad),
                    "--out", str(tmp_path / "p.csv"), "--sentiment", str(workspace["sentiment"])]
        elif role == "config":
            args = train_args(workspace, 1, tmp_path / "m.json", "--config", str(bad))
        else:
            task = 2 if role in ("sentiment", "train2") else 1
            args = train_args(workspace, task, tmp_path / "m.json")
            args[args.index(f"--{'data' if role.startswith('train') else role}") + 1] = str(bad)
        assert main(args) == 1
        assert not list(tmp_path.glob("m.json*"))  # neither the model nor its manifest
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {bad}: {''.join(after)}"), last


def _set(*path_and_value):
    """Mutation that sets one field of a task-2 document, by key/index path."""
    *path, key, value = path_and_value

    def mutate(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
        return doc

    return mutate


def _relabel(*labels):
    """Mutation that renames the labels of a task-2 document, in their sorted order, to ``labels``
    (its machines follow by their places)."""
    return _set("svm", "labels", list(labels))


def _pop(*path):
    def mutate(doc):
        node = doc
        for step in path:
            node = node[step]
        node.pop()
        return doc

    return mutate


def _swap_first_columns(doc):
    """Mutation that swaps the first two entries of the pool's first row, which stores more than one."""
    pool = doc["svm"]["pool"]
    assert pool["indptr"][1] >= 2
    for name in ("indices", "values"):
        pool[name][0], pool[name][1] = pool[name][1], pool[name][0]
    return doc


ORDER_ERROR = "svm.pool.indices: columns must strictly increase within a row"

# each mutation of a saved task-2 file, and the field its error must name
CORRUPTIONS = {
    "dual_coefs truncated": (_pop("svm", "machines", 0, "dual_coefs"), "svm.machines[0]: "),
    "df zero": (_set("vocabulary", "df", 0, 0), "vocabulary: "),
    "df shorter than terms": (_pop("vocabulary", "df"), "vocabulary: "),
    "term repeated": (lambda doc: _set("vocabulary", "terms", 1, doc["vocabulary"]["terms"][0])(doc),
                      "vocabulary.terms: must be strictly increasing"),
    "a machine missing": (_pop("svm", "machines"), "svm.machines: "),
    "a machine too many": (lambda doc: _set("svm", "machines", [*doc["svm"]["machines"], doc["svm"]["machines"][0]])(doc),
                           "svm.machines: "),
    "bias NaN": (_set("svm", "machines", 0, "bias", float("nan")), "svm.machines[0].bias: "),
    "dual_coef true": (_set("svm", "machines", 0, "dual_coefs", 0, True),
                       "svm.machines[0].dual_coefs: expected a rectangular array of numbers"),
    "sv_index out of range": (_set("svm", "machines", 0, "sv_index", 0, 10**6),
                              "svm.machines[0].sv_index: "),
    "sv_index beyond int64": (_set("svm", "machines", 0, "sv_index", 0, 2**70),
                              "svm.machines[0].sv_index: expected integers within the int64 range"),
    "column not below dims": (_set("svm", "pool", "indices", 0, 10**6), "svm.pool.indices: "),
    "pool columns out of order in a row": (_swap_first_columns, ORDER_ERROR),
    "a pool column twice in a row": (lambda doc: _set("svm", "pool", "indices", 1,
                                                      doc["svm"]["pool"]["indices"][0])(doc), ORDER_ERROR),
    "indptr decreasing": (_set("svm", "pool", "indptr", 1, -1), "svm.pool.indptr: "),
    "values shorter than indices": (_pop("svm", "pool", "values"), "svm.pool.values: "),
    "config gamma not a number": (_set("config", "task2", "kernel", "gamma", "abc"),
                                  "config.task2.kernel.gamma: "),
    "svm gamma negative": (_set("svm", "kernel", "gamma", -1), "svm.kernel: "),
    "config kernel not the svm's": (_set("config", "task2", "kernel", "kind", "linear"),
                                    "svm.kernel: differs from config.task2.kernel"),
    "pool dims raised by 7": (lambda doc: _set("svm", "pool", "dims", doc["svm"]["pool"]["dims"] + 7)(doc),
                              "svm.pool.dims: "),
    "schema of task 1": (_set("svm", "schema_id", "task1-v1"), "svm.schema_id: "),
    "labels reversed": (lambda doc: _set("svm", "labels", doc["svm"]["labels"][::-1])(doc), "svm.labels: "),
    "top level is a list": (lambda doc: [], "expected a JSON object"),
    "indptr not a flat list": (_set("svm", "pool", "indptr", [[0]]), "svm.pool.indptr: must be a flat list"),
    "pool dims negative": (_set("svm", "pool", "dims", -1), "svm.pool.dims: must be >= 0"),
    "pool value NaN": (_set("svm", "pool", "values", 0, float("nan")), "svm.pool.values: must be finite"),
    "unknown field": (_set("svm", "extra", 1), "svm: unknown field 'extra'"),
    "bias beyond the float range": (_set("svm", "machines", 0, "bias", 10**400),
                                    "svm.machines[0].bias: expected a finite number"),
    "labels empty": (lambda doc: _set("svm", "machines", [])(_set("svm", "labels", [])(doc)), "svm.labels: "),
    "labels renamed": (_relabel("oppose", "support", "zzz"), "svm.labels: "),
}


# each mutation of a task-1 file that stores weights, and the field its error must name
WEIGHTS_CORRUPTIONS = {
    "a weight dropped": (_pop("svm", "weights", 0), "svm.weights: must have shape (1, 35)"),
    "a weight of 1e308": (_set("svm", "weights", 0, 0, 1e308),
                          "svm.weights: a value beyond ±1.284e+306 could overflow"),
    "bias beyond the float range": (_set("svm", "biases", 0, 10**400), "svm.biases: expected a finite number"),
    "a bias of 1e308": (_set("svm", "biases", 0, 1e308), "svm.biases: a value beyond ±8.988e+307 could overflow"),
    "dims of 6": (_set("svm", "dims", 6), "svm.weights: must have shape (1, 56)"),
}


class TestCorruptModelRejectedAtLoad:
    @pytest.mark.parametrize("case", sorted(WEIGHTS_CORRUPTIONS))
    def test_task1_weights_exit_1_naming_the_field(self, workspace, weights_task1_model, tmp_path, capsys, case):
        """A task-1 file's weights and biases are checked at load, before any of
        them meets a row: a wrong shape, or a value on which a decision value
        could overflow, is refused naming its field, and no numpy warning is met."""
        mutate, field = WEIGHTS_CORRUPTIONS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(weights_task1_model.read_text()))), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "predict", "--model", str(bad), "--data", str(workspace["unlabeled"]),
                "--out", str(tmp_path / "pred.csv"),
                "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {bad}: {field}" in err
        assert "internal error" not in err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_chain_exits_1_naming_file_and_field(self, workspace, trained_models, tmp_path, capsys, case):
        mutate, field = CORRUPTIONS[case]
        doc = mutate(json.loads(trained_models["m2"].read_text()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(bad),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {bad}: {field}" in err
        assert "internal error" not in err
        assert not (tmp_path / "pred.csv").exists()

    def test_task1_config_kernel_differs_from_svm(self, workspace, trained_models, tmp_path, capsys):
        """The kernel is stored twice, in ``svm.kernel`` and ``config.task1.kernel``;
        a file whose two copies differ is refused, not predicted with one of them."""
        doc = json.loads(trained_models["m1"].read_text())
        doc["config"]["task1"]["kernel"].update(kind="rbf", gamma=0.5)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--model", str(bad), "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
        ])
        assert code == 1
        assert f"error: {bad}: svm.kernel: differs from config.task1.kernel" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("value", [1.1663984695979098e+103, 1.5, -0.25])
    def test_task1_pool_value_outside_the_feature_range(self, workspace, rbf_task1_model, tmp_path, capsys, value):
        """Every task-1 feature lies in [0, 1], so a pool value outside it is refused at
        load, not met at predict time as an overflow."""
        doc = json.loads(rbf_task1_model.read_text())
        doc["svm"]["pool"]["values"][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--model", str(bad), "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
        ])
        assert code == 1
        assert f"error: {bad}: svm.pool.values: must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_task1_vocabulary_repeating_a_term(self, workspace, trained_models, tmp_path, capsys):
        doc = json.loads(trained_models["m1"].read_text())
        query_id, vocabulary = next(iter(doc["vocabularies"].items()))
        vocabulary["terms"][2] = vocabulary["terms"][1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--chain",
            "--model", str(bad),
            "--model2", str(trained_models["m2"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ])
        assert code == 1
        assert f"error: {bad}: vocabularies[{query_id!r}].terms: must be strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()


def _as_old(doc, version):
    """``doc`` with the headers of a ``version`` model file: the file's own
    and, up to version 2, one more on its svm block."""
    doc["format_version"] = version
    doc["svm"].update(format="querystance-svm", format_version=version)
    return doc


def _as_v1(doc):
    """The task-2 document as version 1 wrote it: dense support vectors per
    machine, no pool."""
    svm = doc["svm"]
    pool = svm.pop("pool")
    dense = [[0.0] * pool["dims"] for _ in pool["indptr"][1:]]
    for row, (start, end) in enumerate(zip(pool["indptr"], pool["indptr"][1:])):
        for column, value in zip(pool["indices"][start:end], pool["values"][start:end]):
            dense[row][column] = value
    for machine in svm["machines"]:
        machine["support_vectors"] = [dense[row] for row in machine.pop("sv_index")]
    return _as_old(doc, 1)


def _predict_refuses(workspace, old, tmp_path, capsys, version):
    """``predict`` on the model file ``old`` exits 1 naming it and its version, and writes nothing."""
    with pytest.raises(VersionMismatch):
        load_task_model(old, LexiconSet.load())
    code = main([
        "predict", "--model", str(old), "--data", str(workspace["unlabeled"]),
        "--out", str(tmp_path / "pred.csv"), "--sentiment", str(workspace["sentiment"]),
    ])
    assert code == 1
    assert f"error: {old}: unsupported format_version {version}, expected 6" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


class TestVersion1ModelFile:
    def test_v1_task2_file_raises_version_mismatch(self, workspace, trained_models, tmp_path, capsys):
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(_as_v1(json.loads(trained_models["m2"].read_text()))), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 1)

    def test_v1_pipeline_file_fails_predict(self, workspace, trained_models, tmp_path, capsys):
        """A pipeline file of format_version 1 (task-2 pool values as floats) is refused."""
        doc = _as_old(json.loads(trained_models["m2"].read_text()), 1)
        doc["svm"]["pool"]["values"] = [float(value) for value in doc["svm"]["pool"]["values"]]
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 1)


class TestVersion2ModelFile:
    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_v2_file_fails_predict(self, workspace, trained_models, tmp_path, capsys, name):
        """A file as version 2 wrote it, with a header on its svm block too, is refused."""
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(_as_old(json.loads(trained_models[name].read_text()), 2)), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 2)


class TestVersion3ModelFile:
    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_v3_file_fails_predict(self, workspace, trained_models, tmp_path, capsys, name):
        """A file under the header of version 3, which stored every task-1 model as its pool, is refused."""
        doc = json.loads(trained_models[name].read_text())
        doc["format_version"] = 3
        old = tmp_path / "v3.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 3)


class TestVersion4ModelFile:
    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_v4_file_fails_predict(self, workspace, trained_models, tmp_path, capsys, name):
        """A file as version 4 wrote it, with the support-vector floor eps in each task's settings, is refused."""
        doc = json.loads(trained_models[name].read_text())
        doc["format_version"] = 4
        for task in ("task1", "task2"):
            doc["config"][task]["eps"] = 1e-8
        old = tmp_path / "v4.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 4)


class TestVersion5ModelFile:
    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_v5_file_fails_predict(self, workspace, trained_models, tmp_path, capsys, name):
        """A file as version 5 wrote it, whose pool-form machines each stored their two labels, is refused."""
        doc = json.loads(trained_models[name].read_text())
        doc["format_version"] = 5
        svm = doc["svm"]
        for machine, (neg, pos) in zip(svm.get("machines", ()), itertools.combinations(svm["labels"], 2)):
            machine.update(positive_label=pos, negative_label=neg)
        old = tmp_path / "v5.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        _predict_refuses(workspace, old, tmp_path, capsys, 5)


@pytest.fixture(scope="module")
def own_lexicon_models(workspace):
    """A task-1 model trained with --gloss and --nouns only, a task-2 model with --sentiment only."""
    models = {1: workspace["root"] / "own1.json", 2: workspace["root"] / "own2.json"}
    for task, names in ((1, ("gloss", "nouns")), (2, ("sentiment",))):
        args = ["train", "--task", str(task), "--data", str(workspace["train"]), "--out", str(models[task])]
        for name in names:
            args += [f"--{name}", str(workspace[name])]
        assert main(args) == 0
    return models


class TestPredict:
    def test_chained_prediction(self, workspace, trained_models, tmp_path):
        out = tmp_path / "pred.csv"
        code = main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(trained_models["m2"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 100
        assert set(rows[0]) >= {"predicted_relevance", "predicted_stance"}
        assert all(r["predicted_relevance"] in ("relevant", "irrelevant") for r in rows)
        assert all(r["predicted_stance"] in ("support", "oppose", "neutral") for r in rows)

    def test_chained_prediction_tokenizes_each_text_once(self, workspace, trained_models, tmp_path, monkeypatch,
                                                         fresh_analysis):
        calls = []
        tokenize_batch = pipeline_module.tokenize_batch
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        assert main([
            "predict", "--chain", "--model", str(trained_models["m1"]), "--model2", str(trained_models["m2"]),
            "--data", str(workspace["unlabeled"]), "--out", str(tmp_path / "pred.csv"),
        ]) == 0
        records = load_dataset(workspace["unlabeled"], labeled=False)
        assert sorted(calls) == sorted({text for r in records for text in (r.query_text, r.sentence_text)})

    def test_chain_manifest_digests_every_input(self, workspace, trained_models, tmp_path):
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(trained_models["m2"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ]) == 0
        inputs = json.loads((tmp_path / "pred.csv.manifest.json").read_text())["inputs"]
        paths = {"data": workspace["unlabeled"], "model": trained_models["m1"], "model2": trained_models["m2"]}
        paths.update((name, workspace[name]) for name in ("gloss", "nouns", "sentiment"))
        assert set(inputs) == set(paths)
        for name, path in paths.items():
            assert inputs[name] == {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_manifest_chain_says_whether_task2_read_task1_predictions(self, workspace, trained_models, tmp_path):
        lexicons = ["--sentiment", str(workspace["sentiment"]), "--nouns", str(workspace["nouns"]),
                    "--gloss", str(workspace["gloss"])]
        runs = {
            "both": ["--model", str(trained_models["m1"]), "--model2", str(trained_models["m2"]),
                     "--data", str(workspace["unlabeled"])],
            "task2": ["--model", str(trained_models["m2"]), "--data", str(workspace["train"])],
        }
        for name, args in runs.items():
            assert main(["predict", *args, *lexicons, "--out", str(tmp_path / f"{name}.csv")]) == 0
        manifests = {name: json.loads((tmp_path / f"{name}.csv.manifest.json").read_text()) for name in runs}
        assert manifests["both"]["config"] == {"chain": True, "tasks": [1, 2]}
        assert manifests["task2"]["config"] == {"chain": False, "tasks": [2]}

    def test_config_file_gives_data_and_skips_train_options(self, workspace, tmp_path):
        model = tmp_path / "m1.json"
        assert main(train_args(workspace, 1, model, "--seed", "3")) == 0
        config = tmp_path / "run.cfg"
        config.write_text(f"data={workspace['unlabeled']}\ngamma=0.5\nseed=5\n", encoding="utf-8")
        outs = {"flag": tmp_path / "flag.csv", "config": tmp_path / "config.csv"}
        base = ["predict", "--model", str(model), "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"])]
        assert main(base + ["--data", str(workspace["unlabeled"]), "--out", str(outs["flag"])]) == 0
        assert main(base + ["--config", str(config), "--out", str(outs["config"])]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert len(outs["config"].read_text(encoding="utf-8").splitlines()) == 101
        assert json.loads((tmp_path / "config.csv.manifest.json").read_text())["seed"] == 3  # the model's

    def test_wrong_task_model_exits_1(self, workspace, trained_models, tmp_path, capsys):
        # task-2 model alone cannot label an unlabeled file (no relevance column)
        code = main([
            "predict",
            "--model", str(trained_models["m2"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--sentiment", str(workspace["sentiment"]),
        ])
        assert code == 1
        assert "relevance" in capsys.readouterr().err

    @pytest.mark.parametrize("first", [1, 2], ids=["task1-first", "task2-first"])
    def test_chain_warns_of_each_models_missing_lexicon(
        self, workspace, own_lexicon_models, tmp_path, capsys, first
    ):
        models = [own_lexicon_models[first], own_lexicon_models[3 - first]]
        for given, missing in ((("gloss", "nouns"), {"sentiment"}), (("sentiment",), {"gloss", "nouns"})):
            args = [
                "predict", "--chain", "--model", str(models[0]), "--model2", str(models[1]),
                "--data", str(workspace["unlabeled"]), "--out", str(tmp_path / "pred.csv"),
            ]
            for name in given:
                args += [f"--{name}", str(workspace[name])]
            assert main(args) == 0
            err = capsys.readouterr().err
            for name in ("gloss", "nouns", "sentiment"):
                warned = f"warning: model was trained with --{name} but none was given" in err
                assert warned == (name in missing), (given, name)

    @pytest.mark.parametrize("model, given, warned", [
        ("m1", ("gloss", "nouns"), set()),
        ("m2", (), {"sentiment"}),
    ], ids=["task1", "task2"])
    def test_warns_only_of_lexicons_the_models_task_reads(
        self, workspace, trained_models, tmp_path, capsys, model, given, warned
    ):
        # each model was trained with all three lexicons; task 1 never reads sentiment, task 2 reads only it
        args = [
            "predict", "--model", str(trained_models[model]),
            "--data", str(workspace["train"]), "--out", str(tmp_path / "pred.csv"),
        ]
        for name in given:
            args += [f"--{name}", str(workspace[name])]
        assert main(args) == 0
        err = capsys.readouterr().err
        for name in ("gloss", "nouns", "sentiment"):
            warning = f"warning: model was trained with --{name} but none was given"
            assert (warning in err) == (name in warned), name

    def test_empty_input(self, workspace, trained_models, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("query_id,query_text,sentence_text,relevance,stance\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        code = main([
            "predict",
            "--model", str(trained_models["m1"]),
            "--data", str(empty),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
        ])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert list(csv.DictReader(handle)) == []

    def test_chain_requires_both_models(self, workspace, trained_models, tmp_path, capsys):
        code = main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
        ])
        assert code == 1

    def test_config_chain_yes_requires_both_models(self, workspace, trained_models, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("chain=yes\n", encoding="utf-8")
        code = main([
            "predict", "--config", str(config),
            "--model", str(trained_models["m1"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
        ])
        assert code == 1
        assert "error: --chain needs a task-1 model (--model) and a task-2 model" in capsys.readouterr().err

    def test_chain_with_same_task_twice_exits_1(self, workspace, trained_models, tmp_path):
        code = main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(trained_models["m1"]),
            "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
        ])
        assert code == 1


class TestQueryIdWithTwoTexts:
    """Rows of one query id with two texts fail where the query's sentences are
    grouped, naming the data file, both rows and both texts (training is in
    ``BAD_INPUTS``); the rows of a query the model saw are each read with their own text."""

    COMMANDS = {
        "features --task 1": ["features", "--task", "1", "--model", "m1"],
        "predict --chain": ["predict", "--chain", "--model", "m1", "--model2", "m2"],
    }

    def _run(self, workspace, trained_models, tmp_path, case, query_id):
        data, out = tmp_path / "two_texts.csv", tmp_path / "out.csv"
        data.write_text(
            HEADER.decode() + f"{query_id},does tea help,tea helps,,\n{query_id},does tea harm,tea hurts,,\n",
            encoding="utf-8",
        )
        args = [str(trained_models[a]) if a in trained_models else a for a in self.COMMANDS[case]] + [
            "--data", str(data), "--out", str(out),
            *(arg for name in ("nouns", "gloss", "sentiment") for arg in (f"--{name}", str(workspace[name]))),
        ]
        return main(args), data, out

    @pytest.mark.parametrize("case", list(COMMANDS))
    def test_unseen_query_exits_1_naming_file_and_rows(self, workspace, trained_models, tmp_path, capsys, case):
        code, data, out = self._run(workspace, trained_models, tmp_path, case, "zz")
        assert code == 1
        assert not list(tmp_path.glob("out.csv*"))  # neither the output nor its manifest
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {data}: query_id 'zz' maps to both 'does tea help' at row 2 and 'does tea harm' at row 3"
        )

    @pytest.mark.parametrize("case", list(COMMANDS))
    def test_seen_query_is_accepted(self, workspace, trained_models, tmp_path, case):
        code, _, out = self._run(workspace, trained_models, tmp_path, case, "q_coffee")
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert len([row for row in csv.reader(handle) if not row[0].startswith("#")]) == 3


class TestHeaderOnlyDataFile:
    """A data file with a header and no rows gives a header-only output; a task-1
    model alone is ``TestPredict::test_empty_input``, and training on such a file
    is an error (``BAD_INPUTS``)."""

    COMMANDS = {
        "predict --chain": (["predict", "--chain", "--model", "m1", "--model2", "m2"],
                            EXPECTED_HEADER + ["predicted_relevance", "predicted_stance"]),
        "predict task 2": (["predict", "--model", "m2"], EXPECTED_HEADER + ["predicted_stance"]),
        "features --task 1": (["features", "--task", "1"], ["query_id", "row", *TASK1_FEATURE_NAMES]),
        "features --task 2": (["features", "--task", "2", "--model", "m2"], None),  # None: read from the model
    }

    @pytest.mark.parametrize("case", list(COMMANDS))
    def test_exits_0_writing_only_the_header(self, workspace, trained_models, tmp_path, case):
        argv, header = self.COMMANDS[case]
        if header is None:
            vocab = load_task_model(trained_models["m2"], LexiconSet.load()).task2.vocabulary
            header = ["query_id", "row", *(f"tf:{term}" for term in vocab.terms), *TASK2_TAIL_NAMES]
        empty, out = tmp_path / "empty.csv", tmp_path / "out.csv"
        empty.write_bytes(HEADER)
        args = [str(trained_models[a]) if a in trained_models else a for a in argv] + [
            "--data", str(empty), "--out", str(out),
            *(arg for name in ("nouns", "gloss", "sentiment") for arg in (f"--{name}", str(workspace[name]))),
        ]
        assert main(args) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert [row for row in csv.reader(handle) if not row[0].startswith("#")] == [header]


class TestSeedIsATrainOption:
    @pytest.mark.parametrize("command", [["predict"], ["features", "--task", "1"]], ids=" ".join)
    def test_seed_flag_exits_2(self, workspace, trained_models, tmp_path, command):
        with pytest.raises(SystemExit) as err:
            main([*command, "--model", str(trained_models["m1"]), "--data", str(workspace["unlabeled"]),
                  "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
                  "--out", str(tmp_path / "out.csv"), "--seed", "5"])
        assert err.value.code == 2

    def test_features_manifest_records_seed_0(self, workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\n", encoding="utf-8")
        out = tmp_path / "f1.csv"
        assert main(["features", "--task", "1", "--data", str(workspace["train"]), "--out", str(out),
                     "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
                     "--config", str(config)]) == 0
        assert json.loads((tmp_path / "f1.csv.manifest.json").read_text())["seed"] == 0


class TestTwoClassMode:
    def test_chained_two_class_emits_neutral_for_irrelevant(self, workspace, trained_models, tmp_path):
        m2 = tmp_path / "m2_two.json"
        assert main(train_args(workspace, 2, m2, "--stance-classes", "two_class")) == 0
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(m2),
            "--data", str(workspace["unlabeled"]),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            if row["predicted_relevance"] == "irrelevant":
                assert row["predicted_stance"] == "neutral"
            else:
                assert row["predicted_stance"] in ("support", "oppose")


class TestEvaluate:
    def _predictions(self, workspace, trained_models, tmp_path):
        out = tmp_path / "pred.csv"
        main([
            "predict", "--chain",
            "--model", str(trained_models["m1"]),
            "--model2", str(trained_models["m2"]),
            "--data", str(workspace["train"]),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
            "--sentiment", str(workspace["sentiment"]),
        ])
        return out

    def test_gold_equals_predictions(self, workspace, trained_models, tmp_path, capsys):
        pred = self._predictions(workspace, trained_models, tmp_path)
        report = tmp_path / "report.csv"
        code = main([
            "evaluate",
            "--gold", str(workspace["train"]),
            "--pred", str(pred),
            "--column", "relevance",
            "--out", str(report),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "MACRO_AVERAGE" in table
        with open(report, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["query_id", "accuracy"]
        assert rows[-1][0] == "MACRO_AVERAGE"
        assert float(rows[-1][1]) == 100.0  # trained on this data, separable

    def test_mismatched_row_counts_exit_1(self, workspace, trained_models, tmp_path, capsys):
        pred = self._predictions(workspace, trained_models, tmp_path)
        short = tmp_path / "short.csv"
        lines = pred.read_text(encoding="utf-8").splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        code = main([
            "evaluate", "--gold", str(workspace["train"]), "--pred", str(short),
        ])
        assert code == 1
        gold = workspace["train"]
        n_gold = len(gold.read_text(encoding="utf-8").splitlines()) - 1
        expected = f"error: {short}: {n_gold - 5} prediction rows vs {n_gold} gold rows in {gold}"
        assert expected in capsys.readouterr().err

    def test_query_id_disagreement_names_both_files(self, workspace, tmp_path, capsys):
        # the gold file is the edited one here, so naming only the predictions file would blame the wrong one
        pred = tmp_path / "pred.csv"
        pred.write_bytes(_constant_predictions(workspace))
        gold = tmp_path / "gold.csv"
        lines = workspace["train"].read_bytes().splitlines()
        query_id = lines[2][:lines[2].index(b",")].decode()
        lines[2] = b"zzz" + lines[2][lines[2].index(b","):]
        gold.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 1
        expected = f"error: {pred}: row 3: prediction query_id {query_id!r} vs gold query_id 'zzz' at row 3 of {gold}\n"
        assert capsys.readouterr().err == expected

    def test_stance_column(self, workspace, trained_models, tmp_path):
        pred = self._predictions(workspace, trained_models, tmp_path)
        code = main([
            "evaluate",
            "--gold", str(workspace["train"]),
            "--pred", str(pred),
            "--column", "stance",
        ])
        assert code == 0

    def test_config_column_is_the_flag_column(self, workspace, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_bytes(_constant_predictions(workspace))
        config = tmp_path / "run.cfg"
        config.write_text("column=stance\n", encoding="utf-8")
        tables = {}
        for name, extra in (("relevance", ["--column", "relevance"]), ("stance", ["--column", "stance"]),
                            ("config", ["--config", str(config)])):
            assert main(["evaluate", "--gold", str(workspace["train"]), "--pred", str(pred), *extra]) == 0
            tables[name] = capsys.readouterr().out
        assert tables["relevance"] != tables["stance"]
        assert tables["config"] == tables["stance"]

    def test_config_column_not_a_choice_exits_1(self, workspace, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_bytes(_constant_predictions(workspace))
        config = tmp_path / "run.cfg"
        config.write_text("# scored\ncolumn=score\n", encoding="utf-8")
        args = ["evaluate", "--gold", str(workspace["train"]), "--pred", str(pred), "--config", str(config)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: line 2: column: ")

    def test_published_macro_average_fixture(self, tmp_path):
        # per-query accuracies 43/88, 52/58, 67/72, 46/64, 47/74 average
        # to the published 73.39257557
        sizes_correct = [(88, 43), (58, 52), (72, 67), (64, 46), (74, 47)]
        gold = tmp_path / "gold.csv"
        pred = tmp_path / "pred.csv"
        header = ["query_id", "query_text", "sentence_text", "relevance", "stance"]
        with open(gold, "w", newline="", encoding="utf-8") as g, open(
            pred, "w", newline="", encoding="utf-8"
        ) as p:
            gw, pw = csv.writer(g, lineterminator="\n"), csv.writer(p, lineterminator="\n")
            gw.writerow(header)
            pw.writerow(header + ["predicted_relevance"])
            for q, (size, right) in enumerate(sizes_correct):
                for i in range(size):
                    row = [f"q{q}", f"topic {q}", f"sentence {i}", "relevant", ""]
                    gw.writerow(row)
                    pw.writerow(row + ["relevant" if i < right else "irrelevant"])
        report = tmp_path / "report.csv"
        assert main([
            "evaluate", "--gold", str(gold), "--pred", str(pred),
            "--column", "relevance", "--out", str(report),
        ]) == 0
        with open(report, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[-1][0] == "MACRO_AVERAGE"
        assert abs(float(rows[-1][1]) - 73.39257557) < 1e-6


class TestCsvRoundTrip:
    """Texts and query ids that hold a bare CR, a comma, a double quote or a newline
    come back from predict's and evaluate's files as they went in, and the files
    hold the same bytes on every Python."""

    ROWS = [
        ["q,1", "does coffee improve memory", "coffee helps\rmemory", "", ""],
        ["q,1", "does coffee improve memory", 'coffee, "strong" coffee, harms\nmemory', "", ""],
        ['q"2', "can yoga reduce back pain", "yoga\rtractor lantern", "", ""],
    ]

    @staticmethod
    def _write(rows, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows([EXPECTED_HEADER, *rows])
        return path

    def test_predict_and_evaluate(self, workspace, trained_models, tmp_path):
        data, pred, report = self._write(self.ROWS, tmp_path / "data.csv"), tmp_path / "pred.csv", tmp_path / "r.csv"
        assert main(["predict", "--chain", "--model", str(trained_models["m1"]), "--model2", str(trained_models["m2"]),
                     "--data", str(data), "--out", str(pred)]) == 0
        header, *rows = read_csv_rows(pred)
        assert header == EXPECTED_HEADER + ["predicted_relevance", "predicted_stance"]
        assert [row[:5] for row in rows] == self.ROWS
        (r0, s0), (r1, s1), (r2, s2) = [row[5:] for row in rows]
        assert pred.read_bytes().decode("utf-8") == (
            "query_id,query_text,sentence_text,relevance,stance,predicted_relevance,predicted_stance\n"
            f'"q,1",does coffee improve memory,"coffee helps\rmemory",,,{r0},{s0}\n'
            f'"q,1",does coffee improve memory,"coffee, ""strong"" coffee, harms\nmemory",,,{r1},{s1}\n'
            f'"q""2",can yoga reduce back pain,"yoga\rtractor lantern",,,{r2},{s2}\n'
        )

        # gold labels equal to the predictions: every query scores 100
        gold = self._write([row[:3] + row[5:] for row in rows], tmp_path / "gold.csv")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--out", str(report)]) == 0
        assert list(read_csv_rows(report)) == [["query_id", "accuracy"], ["q,1", "100.0"], ['q"2', "100.0"],
                                               ["MACRO_AVERAGE", "100.0"]]
        assert report.read_bytes() == b'query_id,accuracy\n"q,1",100.0\n"q""2",100.0\nMACRO_AVERAGE,100.0\n'


class TestFeaturesDump:
    def test_task1_has_five_feature_columns(self, workspace, tmp_path):
        out = tmp_path / "f1.csv"
        code = main([
            "features", "--task", "1",
            "--data", str(workspace["train"]),
            "--out", str(out),
            "--nouns", str(workspace["nouns"]),
            "--gloss", str(workspace["gloss"]),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# schema_id=task1-v1"
        header = lines[1].split(",")
        assert header[:2] == ["query_id", "row"]
        assert len(header) - 2 == 5

    def test_task2_has_n_plus_four_columns(self, workspace, trained_models, tmp_path):
        out = tmp_path / "f2.csv"
        code = main([
            "features", "--task", "2",
            "--data", str(workspace["train"]),
            "--out", str(out),
            "--sentiment", str(workspace["sentiment"]),
            "--model", str(trained_models["m2"]),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# schema_id=task2-v1 n_vocab=")
        n = int(lines[0].rsplit("=", 1)[1])
        header = lines[1].split(",")
        assert len(header) - 2 == n + 4

    def test_task1_model_gives_the_rows_predict_reads(self, workspace, trained_models, tmp_path):
        # five of a trained query's sentences: a vocabulary fitted on them is not the model's
        part = tmp_path / "part.csv"
        part.write_bytes(b"\n".join(workspace["unlabeled"].read_bytes().splitlines()[:6]) + b"\n")
        dumps = {}
        for name, extra in (("model", ["--model", str(trained_models["m1"])]), ("none", [])):
            out = tmp_path / f"{name}.csv"
            assert main([
                "features", "--task", "1", "--data", str(part), "--out", str(out),
                "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]), *extra,
            ]) == 0
            with open(out, newline="", encoding="utf-8") as handle:
                dumps[name] = [[float(v) for v in row[2:]] for row in list(csv.reader(handle))[2:]]
        lexicons = LexiconSet.load(gloss_path=workspace["gloss"], noun_path=workspace["nouns"])
        model = load_task_model(trained_models["m1"], lexicons)
        batch = task1_rows(load_dataset(part), model.task1.vocabularies, lexicons)
        assert dumps["model"] == batch.values.tolist()
        cosine = TASK1_FEATURE_NAMES.index("cosine")
        assert [row[cosine] for row in dumps["model"]] != [row[cosine] for row in dumps["none"]]

    def test_task2_model_gives_the_rows_predict_reads(self, workspace, trained_models, tmp_path, monkeypatch):
        paths = ["--data", str(workspace["train"]), "--sentiment", str(workspace["sentiment"]),
                 "--model", str(trained_models["m2"])]
        dump = tmp_path / "f2.csv"
        assert main(["features", "--task", "2", "--out", str(dump), *paths]) == 0
        with open(dump, newline="", encoding="utf-8") as handle:
            rows = [[float(v) for v in row[2:]] for row in list(csv.reader(handle))[2:]]
        chunks = []

        def recorded(model, batch):
            chunks.append(batch.values)
            return predict_batch(model, batch)

        monkeypatch.setattr(pipeline_module, "predict_batch", recorded)
        # a standalone task-2 model reads the dataset's relevance labels, as features --task 2 does
        assert main(["predict", "--out", str(tmp_path / "pred.csv"), *paths]) == 0
        assert rows == np.concatenate(chunks).tolist()

    def test_task2_tokenizes_each_sentence_once(self, workspace, trained_models, tmp_path, monkeypatch,
                                                fresh_analysis):
        records = load_dataset(workspace["train"]) * 2  # every sentence text repeats
        data = write_dataset_csv(records, tmp_path / "twice.csv")
        calls = []
        tokenize_batch = pipeline_module.tokenize_batch
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        assert main(["features", "--task", "2", "--data", str(data), "--out", str(tmp_path / "f2.csv"),
                     "--sentiment", str(workspace["sentiment"]), "--model", str(trained_models["m2"])]) == 0
        # the batch's analysis tokenizes its query texts too, each once
        assert sorted(calls) == sorted({text for r in records for text in (r.query_text, r.sentence_text)})

    def test_task2_model_for_task1_exits_1(self, workspace, trained_models, tmp_path, capsys):
        assert main([
            "features", "--task", "1", "--data", str(workspace["unlabeled"]), "--out", str(tmp_path / "f.csv"),
            "--nouns", str(workspace["nouns"]), "--gloss", str(workspace["gloss"]),
            "--model", str(trained_models["m2"]),
        ]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: {trained_models['m2']}: not a task-1 model file"

    def test_dump_is_deterministic(self, workspace, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"f{i}.csv"
            main([
                "features", "--task", "1",
                "--data", str(workspace["train"]),
                "--out", str(out),
                "--nouns", str(workspace["nouns"]),
                "--gloss", str(workspace["gloss"]),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "querystance" in capsys.readouterr().out


class TestInternalError:
    def test_unexpected_exception_exits_1_without_traceback(self, workspace, trained_models, tmp_path,
                                                            monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "load_task_model", fail)
        code = main([
            "predict", "--model", str(trained_models["m2"]), "--data", str(workspace["unlabeled"]),
            "--out", str(tmp_path / "pred.csv"), "--sentiment", str(workspace["sentiment"]),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "internal error: RuntimeError('boom')\n"


def _without(args, flag):
    """``args`` without ``flag`` and its value."""
    at = args.index(flag)
    return args[:at] + args[at + 2:]


def _replaced(args, flag, value):
    at = args.index(flag) + 1
    return args[:at] + [value] + args[at + 1:]


def _evaluate_to_empty_out(ws, models, root):
    pred = root / "pred.csv"
    assert main([
        "predict", "--model", str(models["m1"]), "--data", str(ws["train"]), "--out", str(pred),
        "--nouns", str(ws["nouns"]), "--gloss", str(ws["gloss"]),
    ]) == 0
    return ["evaluate", "--gold", str(ws["train"]), "--pred", str(pred), "--out", ""]


def _config_with_empty_gloss(ws, models, root):
    config = root / "run.cfg"
    config.write_text("gloss=\n", encoding="utf-8")
    return _without(train_args(ws, 1, "m.json"), "--gloss") + ["--config", str(config)]


EMPTY_PATH_RUNS = {
    "train --gloss ''": lambda ws, models, root: _replaced(train_args(ws, 1, "m.json"), "--gloss", ""),
    "train --task 2 --sentiment ''": lambda ws, models, root: _replaced(train_args(ws, 2, "m.json"), "--sentiment", ""),
    "config gloss=": _config_with_empty_gloss,
    "train --config ''": lambda ws, models, root: train_args(ws, 1, "m.json") + ["--config", ""],
    "predict --model2 ''": lambda ws, models, root: [
        "predict", "--model", str(models["m1"]), "--model2", "", "--data", str(ws["unlabeled"]),
        "--out", "pred.csv", "--nouns", str(ws["nouns"]), "--gloss", str(ws["gloss"]),
        "--sentiment", str(ws["sentiment"]),
    ],
    "features --task 1 --model ''": lambda ws, models, root: [
        "features", "--task", "1", "--model", "", "--data", str(ws["unlabeled"]), "--out", "f1.csv",
        "--nouns", str(ws["nouns"]), "--gloss", str(ws["gloss"]),
    ],
    "evaluate --out ''": _evaluate_to_empty_out,
}


class TestEmptyPathIsGiven:
    """An option is absent only when it is not given: an empty path is a path,
    which fails to open, so the run exits 1 and writes nothing."""

    @pytest.mark.parametrize("case", EMPTY_PATH_RUNS, ids=str)
    def test_exits_1_and_writes_nothing(self, workspace, trained_models, tmp_path, monkeypatch, capsys, case):
        args = EMPTY_PATH_RUNS[case](workspace, trained_models, tmp_path)
        run_dir = tmp_path / "run"  # relative outputs and a stray `.manifest.json` would land here
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        assert main(args) == 1
        assert list(run_dir.iterdir()) == []
        assert "error: " in capsys.readouterr().err
