"""Command-line interface: train, predict, evaluate, features.

Each option is declared once, in ``build_parser``. A ``--config`` file of
``key=value`` lines fills the options the command line left unset: a key
is an option's name with ``-`` written as ``_``, and its value is
converted and checked by that option's own argparse action, as the
flag's text would be. A key that no command takes is an error; a key
that only another command takes is skipped.

Every artifact-producing run writes a ``<out>.manifest.json`` next to
its output with the digest of every file-reading option given, the
resolved settings and the seed, so runs can be reproduced and verified.
Exit codes: 0 success, 1 data or model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter

from . import __version__
from .codec import to_doc, write_json
from .corpus import (
    EXPECTED_HEADER,
    RELEVANCE_LABELS,
    STANCE_LABELS,
    load_dataset,
    parse_label,
    read_csv_rows,
    required_labels,
    split_train_dev,
    write_csv_rows,
)
from .errors import (
    AlignmentError,
    BadLabel,
    ConflictingQueryText,
    EmptyInput,
    LengthMismatch,
    NonFinite,
    QueryStanceError,
    SingleClassInput,
)
from .features import SCHEMA_TASK1, SCHEMA_TASK2, TASK1_FEATURE_NAMES, TASK2_TAIL_NAMES
from .lexicons import data_lines
from .pipeline import (
    LEXICON_PATHS,
    TASK_MODELS,
    THREE_CLASS,
    TWO_CLASS,
    LexiconSet,
    PipelineConfig,
    evaluate,
    load_task_model,
    predict_chain,
    predict_task1,
    predict_task2,
    save_task_model,
    task1_rows,
    task2_rows,
    train_task1,
    train_task2,
)
from .svm import KERNEL_KINDS

# --- settings resolution ----------------------------------------------------


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise QueryStanceError(f"expected a boolean, got {raw!r}")


def _read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """key=value lines as key -> (line number, value), read as a lexicon's lines are."""
    values: dict[str, tuple[int, str]] = {}
    for line_no, line in data_lines(path):
        if "=" not in line:
            raise QueryStanceError(f"expected key=value, got {line.strip()!r}", path, line=line_no)
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = (line_no, value.strip())
    return values


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A command's options by destination, the name its config key gives."""
    return {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}


def _convert(action: argparse.Action, raw: str):
    """Config-file text as ``action`` stores its flag's text."""
    if action.nargs == 0:  # store_true / store_false: the line gives the value itself
        return _parse_bool(raw)
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {action.choices}, got {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict[str, int]:
    """Fill each option of ``args.command`` left unset from ``args.config``;
    returns the config line of each option it filled."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    own = _options(commands[args.command])
    lines = {}
    for key, (line_no, raw) in _read_config_file(args.config).items():
        if not any(key in _options(command) for command in commands.values()):
            raise QueryStanceError("no command takes this option", args.config, line=line_no, field=key)
        if key in own and getattr(args, key) is None:
            try:
                setattr(args, key, _convert(own[key], raw))
            except (QueryStanceError, ValueError) as exc:
                raise QueryStanceError(str(exc), args.config, line=line_no, field=key) from exc
            lines[key] = line_no
    return lines


# flag or config-file key -> dataclass field, for the trained task's SvmConfig,
# its KernelConfig and the PipelineConfig around them
SVM_OPTIONS = {"C": "c", "tol": "tol", "max_passes": "max_passes"}
KERNEL_OPTIONS = {"kernel": "kind", "gamma": "gamma", "degree": "degree", "coef0": "coef0"}
PIPELINE_OPTIONS = {
    "stance_classes": "stance_classes",
    "train_fraction": "train_fraction",
    "seed": "seed",
    **LEXICON_PATHS,
}


def _override(args: argparse.Namespace, obj, options: dict[str, str]):
    """``obj`` with the fields the options set, one at a time, so that a value
    outside its field's domain names the config line it came from."""
    for option, field in options.items():
        value = getattr(args, option, None)
        if value is None:
            continue
        try:
            obj = replace(obj, **{field: value})
        except ValueError as exc:
            if option not in args.config_lines:
                raise
            raise QueryStanceError(str(exc), args.config, line=args.config_lines[option], field=option) from exc
    return obj


def _pipeline_config(args: argparse.Namespace, task: int) -> PipelineConfig:
    """PipelineConfig() with the given settings; flags tune task ``task``'s SVM."""
    config = _override(args, PipelineConfig(), PIPELINE_OPTIONS)
    svm = getattr(config, f"task{task}")
    svm = replace(
        _override(args, svm, SVM_OPTIONS),
        kernel=_override(args, svm.kernel, KERNEL_OPTIONS),
    )
    return replace(config, **{f"task{task}": svm})


def _load_lexicons(args: argparse.Namespace, task: int) -> LexiconSet:
    """The lexicons task ``task`` reads, each one required."""
    names = TASK_MODELS[task].lexicons_read()
    lexicons = LexiconSet.load(**{LEXICON_PATHS[name]: _require(args, name) for name in names})
    counts = ", ".join(f"{len(getattr(lexicons, name))} {name} entries" for name in names)
    print(f"loaded {counts}", file=sys.stderr)
    return lexicons


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"--{name} is required for this command")
    return value


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _naming(data_path: str):
    """Re-raise an error the pipeline finds in the rows of ``data_path`` naming that file."""
    try:
        yield
    except (SingleClassInput, ConflictingQueryText, NonFinite) as exc:
        raise type(exc)(str(exc), data_path) from exc


# --- manifest ---------------------------------------------------------------


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# the options that name a file a command reads; the manifest digests each one given
INPUT_OPTIONS = ("data", "gold", "pred", "model", "model2", "gloss", "nouns", "sentiment")


def _write_manifest(args: argparse.Namespace, config: dict, seed: int) -> None:
    inputs = {name: getattr(args, name, None) for name in INPUT_OPTIONS}
    manifest = {
        "command": args.command,
        "tool": "querystance",
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "inputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in inputs.items() if p is not None},
        "output": args.out,
    }
    write_json(str(args.out) + ".manifest.json", manifest)


# --- commands ---------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    task = args.task
    data_path = _require(args, "data")
    out_path = _require(args, "out")
    config = _pipeline_config(args, task)
    lexicons = _load_lexicons(args, task)
    records = load_dataset(data_path, labeled=True)
    if not records:
        raise EmptyInput("the file holds no data rows", data_path)
    if task == 2:
        required_labels(records, "stance", "task-2 training", data_path)
    # the rows read (or kept) may hold one label, or one query id with two texts
    with _naming(data_path):
        if args.retrain_full is False:
            records, _ = split_train_dev(records, config.train_fraction, config.seed)
            if not records:
                problem = f"the train side of the split at train_fraction {config.train_fraction} is empty"
                raise EmptyInput(problem, data_path)
        if task == 1:
            pipeline = train_task1(records, lexicons, config)
        else:
            pipeline = train_task2(records, [r.relevance for r in records], lexicons, config)
    save_task_model(pipeline, task, out_path)
    _write_manifest(args, {"task": task, **to_doc(config)}, config.seed)
    print(f"wrote {out_path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    data_path = _require(args, "data")
    out_path = _require(args, "out")
    lexicons = LexiconSet.load(**{path: getattr(args, name) for name, path in LEXICON_PATHS.items()})
    pipeline = load_task_model(_require(args, "model"), lexicons)
    if args.model2 is not None:
        pipeline = load_task_model(args.model2, lexicons, into=pipeline)
    models = [model for model in (pipeline.task1, pipeline.task2) if model is not None]
    tasks = [model.task for model in models]
    if (args.chain or args.model2 is not None) and tasks != [1, 2]:
        raise QueryStanceError("--chain needs a task-1 model (--model) and a task-2 model (--model2)")
    # a lexicon that a held model's task reads and was trained with, absent now, degrades its features
    for model in models:
        for name in model.lexicons_read():
            if getattr(model.config, LEXICON_PATHS[name]) is not None and not len(getattr(lexicons, name)):
                print(f"warning: model was trained with --{name} but none was given", file=sys.stderr)
    records = load_dataset(data_path, labeled=False)

    columns: dict[str, list[str]] = {}  # output column -> labels, in column order
    with _naming(data_path):  # an unseen query id with two texts
        if tasks == [1, 2]:
            columns["predicted_relevance"], columns["predicted_stance"] = predict_chain(pipeline, records)
        elif tasks == [1]:
            columns["predicted_relevance"] = predict_task1(pipeline, records)
        else:  # standalone task-2 model: relevance flags come from the dataset
            relevance = required_labels(records, "relevance", "standalone task-2 prediction", data_path)
            columns["predicted_stance"] = predict_task2(pipeline, records, relevance)

    rows = ([r.query_id, r.query_text, r.sentence_text, r.relevance or "", r.stance or "", *labels]
            for r, labels in zip(records, zip(*columns.values())))
    write_csv_rows(out_path, chain([EXPECTED_HEADER + list(columns)], rows))
    # "chain": task 2 read task-1 predictions, with or without --chain
    _write_manifest(args, {"chain": tasks == [1, 2], "tasks": tasks}, pipeline.config.seed)
    print(f"wrote {out_path} ({len(records)} rows)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold_path = _require(args, "gold")
    pred_path = _require(args, "pred")
    column = args.column or "relevance"
    gold_records = load_dataset(gold_path, labeled=False)
    if not gold_records:
        raise EmptyInput("nothing to evaluate", gold_path)
    gold = required_labels(gold_records, column, "evaluation", gold_path)

    predicted_column = f"predicted_{column}"
    rows = read_csv_rows(pred_path)
    header = next(rows, None)
    if header is None or predicted_column not in header:
        raise QueryStanceError(f"missing column {predicted_column!r}", pred_path)
    # each non-blank row with its record number in the file, as read_csv_rows counts them
    pred_rows = [(row_no, dict(zip(header, row))) for row_no, row in enumerate(rows, start=2) if row]
    if len(pred_rows) != len(gold_records):
        problem = f"{len(pred_rows)} prediction rows vs {len(gold_records)} gold rows in {gold_path}"
        raise LengthMismatch(problem, pred_path)
    allowed = RELEVANCE_LABELS if column == "relevance" else STANCE_LABELS
    predictions = []  # each read by the gold file's label rule
    for record, (row_no, row) in zip(gold_records, pred_rows):
        if "query_id" in header and row.get("query_id") != record.query_id:
            # either file may be the one at fault, so the message names both
            problem = (f"prediction query_id {row.get('query_id')!r} vs gold query_id {record.query_id!r}"
                       f" at row {record.row} of {gold_path}")
            raise AlignmentError(problem, pred_path, row=row_no)
        raw = row.get(predicted_column, "")  # absent: the row ends before the column
        label = parse_label(raw, allowed, pred_path, row_no, predicted_column)
        if label is None:
            raise BadLabel(f"no {predicted_column} value: {raw!r}", pred_path, row=row_no)
        predictions.append(label)
    report = evaluate(gold, predictions, [r.query_id for r in gold_records])
    print(report.render_table())
    if args.out is not None:
        write_csv_rows(args.out, [("query_id", "accuracy"), *report.to_csv_rows()])
        _write_manifest(args, {"column": column}, 0)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    task = args.task
    data_path = _require(args, "data")
    out_path = _require(args, "out")
    records = load_dataset(data_path, labeled=False)

    lexicons = _load_lexicons(args, task)
    model_path = args.model if task == 1 else _require(args, "model")  # task 1: optional
    pipeline = load_task_model(model_path, lexicons) if model_path is not None else None
    if pipeline and getattr(pipeline, f"task{task}") is None:
        raise QueryStanceError(f"not a task-{task} model file", model_path)

    if task == 1:
        header_comment = f"# schema_id={SCHEMA_TASK1}"
        names = list(TASK1_FEATURE_NAMES)
        # the rows predict feeds the SVM: the model's vocabulary for each query it saw
        with _naming(data_path):
            batch = task1_rows(records, pipeline.task1.vocabularies if pipeline else {}, lexicons)
    else:
        vocab = pipeline.task2.vocabulary
        relevance = required_labels(records, "relevance", "the task-2 relevance flag", data_path)
        header_comment = f"# schema_id={SCHEMA_TASK2} n_vocab={vocab.size}"
        names = [f"tf:{term}" for term in vocab.terms] + list(TASK2_TAIL_NAMES)
        batch = task2_rows(records, relevance, vocab, lexicons)

    # the comment line is a row of one field that holds nothing to quote
    rows = ([r.query_id, str(i), *map(repr, row)] for i, (r, row) in enumerate(zip(records, batch.to_dense().tolist())))
    write_csv_rows(out_path, chain([[header_comment], ["query_id", "row"] + names], rows))
    _write_manifest(args, {"task": task}, 0)
    print(f"wrote {out_path} ({len(records)} rows)")
    return 0


# --- parser -----------------------------------------------------------------


def _add_common_paths(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="dataset CSV")
    parser.add_argument("--nouns", help="noun lexicon, one word per line")
    parser.add_argument("--gloss", help="gloss dictionary TSV (term<TAB>gloss)")
    parser.add_argument("--sentiment", help="sentiment lexicon TSV (term<TAB>pos<TAB>neg)")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--config", help="key=value config file, overridden by explicit flags")


def _default_help(text: str, field: str) -> str:
    """``text`` plus the task-1 / task-2 default of SvmConfig field ``field``."""
    get, config = attrgetter(field), PipelineConfig()
    return f"{text} (default {get(config.task1):g} / {get(config.task2):g} for task 1 / 2)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querystance",
        description="Train, run and score the relevance/stance sentence classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"querystance {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a task model from a labeled CSV")
    train.add_argument("--task", type=int, choices=(1, 2), required=True)
    _add_common_paths(train)
    train.add_argument("--C", type=float, dest="C", help=_default_help("box constraint", "c"))
    train.add_argument("--gamma", type=float, help=_default_help("kernel gamma", "kernel.gamma"))
    train.add_argument("--kernel", choices=KERNEL_KINDS)
    train.add_argument("--degree", type=int, help=_default_help("poly degree", "kernel.degree"))
    train.add_argument("--coef0", type=float, help=_default_help("poly offset", "kernel.coef0"))
    train.add_argument("--tol", type=float, help=_default_help("KKT gap tolerance", "tol"))
    train.add_argument(
        "--max-passes", type=int, dest="max_passes",
        help=_default_help("solver cap, in passes of n pair updates for n training rows", "max_passes"),
    )
    train.add_argument("--stance-classes", choices=(THREE_CLASS, TWO_CLASS), dest="stance_classes")
    train.add_argument("--train-fraction", type=float, dest="train_fraction")
    seed_help = f"seed of the train/dev split that --no-retrain-full trains on (default {PipelineConfig().seed})"
    train.add_argument("--seed", type=int, help=seed_help)
    train.add_argument(
        "--no-retrain-full",
        dest="retrain_full",
        action="store_false",
        default=None,
        help="fit on the train side of the train/dev split instead of all rows",
    )
    train.set_defaults(func=cmd_train)

    pred = sub.add_parser("predict", help="label a CSV with a trained model")
    _add_common_paths(pred)
    pred.add_argument("--model", help="model file")
    pred.add_argument("--model2", help="task-2 model file; with --model, task 2 reads task-1 predictions")
    pred.add_argument("--chain", action="store_true", default=None,
                      help="require both --model and --model2, and run task 1 then task 2")
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="per-query accuracy of predictions vs gold")
    ev.add_argument("--gold", help="gold dataset CSV")
    ev.add_argument("--pred", help="predictions CSV from the predict command")
    ev.add_argument("--column", choices=("relevance", "stance"), help="label to score (default relevance)")
    ev.add_argument("--out", help="also write the report as CSV")
    ev.add_argument("--config", help="key=value config file")
    ev.set_defaults(func=cmd_evaluate)

    feats = sub.add_parser("features", help="dump feature vectors for inspection")
    feats.add_argument("--task", type=int, choices=(1, 2), required=True)
    _add_common_paths(feats)
    feats.add_argument(
        "--model",
        help="model file of --task: required for task 2, whose vocabulary it supplies; optional for "
        "task 1, where each query it was trained on reads its vocabulary, as in predict",
    )
    feats.set_defaults(func=cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_lines = _apply_config(parser, args) if args.config is not None else {}
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (QueryStanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # contract: never traceback to the shell
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
