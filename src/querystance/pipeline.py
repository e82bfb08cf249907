"""End-to-end orchestration: vocabularies, features, training, chaining.

Relevance (task 1) trains one pooled binary SVM over all queries, with
a TF-IDF vocabulary fitted per query group. Stance (task 2) trains a
one-vs-one SVM over a global vocabulary; its relevance-flag feature
uses gold labels at training time and task-1 predictions at inference
time, so the two stages chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .codec import FieldError, from_doc, read_json, to_doc, write_json
from .corpus import RELEVANCE_LABELS, STANCE_LABELS, SentenceRecord, group_by_query, required_labels
from .errors import AlignmentError, CorruptModel, EmptyInput, LengthMismatch, VersionMismatch
from .features import (
    TASK1_FEATURE_NAMES,
    TASK2_TAIL_NAMES,
    SparseRows,
    VocabularyModel,
    WordTable,
    fit_vocabulary,
    task1_features,
    task2_counts,
    task2_features,
    task2_values,
)
from .lexicons import (
    GlossDictionary,
    SentimentLexicon,
    load_gloss_dictionary,
    load_noun_lexicon,
    load_sentiment_lexicon,
)
from .svm import (
    KernelConfig,
    MulticlassModel,
    SvmConfig,
    WeightsModel,
    predict_batch,
    train_multiclass,
    weights_form,
)
from .textproc import tokenize_batch

RELEVANT = "relevant"
NEUTRAL = "neutral"

THREE_CLASS = "three_class"
TWO_CLASS = "two_class"


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings; the defaults are the tuned reference settings."""

    task1: SvmConfig = SvmConfig(c=1e7, kernel=KernelConfig("poly", gamma=0.006, degree=3, coef0=0.0))
    task2: SvmConfig = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=0.005))
    stance_classes: str = THREE_CLASS
    train_fraction: float = 0.6
    seed: int = 0
    gloss_path: str | None = None
    sentiment_path: str | None = None
    noun_path: str | None = None

    def __post_init__(self):
        if self.stance_classes not in (THREE_CLASS, TWO_CLASS):
            raise ValueError(f"stance_classes must be {THREE_CLASS!r} or {TWO_CLASS!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


# each lexicon's LexiconSet field, also its CLI flag and config key -> the
# PipelineConfig field of its path; a task reads the lexicons whose path
# field is in its model's CONFIG_FIELDS
LEXICON_PATHS = {"gloss": "gloss_path", "sentiment": "sentiment_path", "nouns": "noun_path"}


@dataclass(frozen=True)
class LexiconSet:
    gloss: GlossDictionary
    sentiment: SentimentLexicon
    nouns: frozenset[str]

    @classmethod
    def load(
        cls,
        gloss_path: str | Path | None = None,
        sentiment_path: str | Path | None = None,
        noun_path: str | Path | None = None,
    ) -> "LexiconSet":
        """Load each resource whose path is not None, even an empty one; the rest stay empty."""
        return cls(
            gloss=load_gloss_dictionary(gloss_path) if gloss_path is not None else GlossDictionary(),
            sentiment=load_sentiment_lexicon(sentiment_path) if sentiment_path is not None else SentimentLexicon(),
            nouns=load_noun_lexicon(noun_path) if noun_path is not None else frozenset(),
        )


@dataclass(frozen=True)
class TaskModel:
    """One task's model file: its SVM, the config it was trained with and (in each
    subclass) the vocabulary its features read. It is checked as a whole, so a file
    that loads also predicts. ``svm`` is the SVM as the file stores it, and the
    derived ``classifier`` the SVM that predicts: ``svm`` itself, unless the
    subclass stores it in another form."""

    task: ClassVar[int]  # the task number, also the ``task`` key of the file header
    LABELS: ClassVar[tuple[str, ...]]  # the task's labels; its SVM holds two or more of them
    CONFIG_FIELDS: ClassVar[tuple[str, ...]]  # the config fields the task's prediction reads

    config: PipelineConfig
    svm: MulticlassModel
    classifier: MulticlassModel | WeightsModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        svm = self.svm
        dims, where = (svm.dims, "svm.dims") if isinstance(svm, WeightsModel) else (svm.pool.dims, "svm.pool.dims")
        if dims != self.width:
            raise FieldError(where, f"expected width {self.width}, got {dims}")
        if len(svm.labels) < 2 or not set(svm.labels) <= set(self.LABELS):
            raise FieldError("svm.labels", f"expected two or more of {self.LABELS}, got {list(svm.labels)}")
        if svm.kernel != getattr(self.config, f"task{self.task}").kernel:
            raise FieldError("svm.kernel", f"differs from config.task{self.task}.kernel")
        object.__setattr__(self, "classifier", svm)

    @classmethod
    def lexicons_read(cls) -> list[str]:
        """The LexiconSet fields the task's features read, in LEXICON_PATHS order."""
        return [name for name, path in LEXICON_PATHS.items() if path in cls.CONFIG_FIELDS]


@dataclass(frozen=True)
class Task1Model(TaskModel):
    """The relevance model. Its ``svm`` is stored in the form that
    ``svm.weights_form`` picks: the weights of the kernel's map (task 1's
    default cubic kernel has 35 terms), or the support-vector pool (an RBF
    kernel, or a map of more terms than the pool stores entries). Given a pool
    that takes weights, it stores and predicts with the weights and keeps the
    pool as ``pooled``, so a trained model and its reloaded file predict alike."""

    task = 1
    LABELS = RELEVANCE_LABELS
    CONFIG_FIELDS = ("task1", "gloss_path", "noun_path")
    width = len(TASK1_FEATURE_NAMES)

    svm: MulticlassModel | WeightsModel
    vocabularies: dict[str, VocabularyModel]
    # the support-vector model given, None when given weights
    pooled: MulticlassModel | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        svm = self.svm
        if isinstance(svm, MulticlassModel):
            if not ((svm.pool.values >= 0.0) & (svm.pool.values <= 1.0 + 1e-12)).all():  # cosine: 1 + ulps
                raise FieldError("svm.pool.values", "must lie in [0, 1], as every task-1 feature does")
            object.__setattr__(self, "pooled", svm)
            svm = weights_form(svm) or svm
            object.__setattr__(self, "svm", svm)
            object.__setattr__(self, "classifier", svm)
        if isinstance(svm, WeightsModel):
            # every term of the map is at most 1 on rows in [0, 1] (the cosine's ulps aside), so
            # |decision| <= sum |weight| + |bias| <= max / 4 + max / 2, and no partial sum overflows
            limits = {"weights": np.finfo(np.float64).max / 4 / max(svm.weights.shape[1], 1),
                      "biases": np.finfo(np.float64).max / 2}
            for name, limit in limits.items():
                if np.abs(getattr(svm, name)).max(initial=0.0) > limit:
                    raise FieldError(f"svm.{name}", f"a value beyond ±{limit:.4g} could overflow "
                                                    "a decision value on rows in [0, 1]")


@dataclass(frozen=True)
class Task2Model(TaskModel):
    """The stance model. Its ``svm`` holds each pool entry as an integer count:
    the term count in a TF-IDF column, then the three sentiment counts and the
    relevance flag. Its ``classifier`` reads the feature values that
    ``task2_values`` rebuilds from them, bit for bit those ``task2_features`` gives."""

    task = 2
    LABELS = STANCE_LABELS
    CONFIG_FIELDS = ("task2", "stance_classes", "sentiment_path")

    vocabulary: VocabularyModel

    def __post_init__(self):
        super().__post_init__()
        pool = self.svm.pool
        try:
            values = task2_values(pool, self.vocabulary)
        except ValueError as exc:
            raise FieldError("svm.pool.values", str(exc)) from exc
        stored = replace(pool, values=pool.values.astype(np.int64))  # read from a file as floats
        object.__setattr__(self, "svm", replace(self.svm, pool=stored))
        object.__setattr__(self, "classifier", replace(self.svm, pool=replace(pool, values=values)))

    @classmethod
    def of(cls, config: PipelineConfig, svm: MulticlassModel, vocabulary: VocabularyModel) -> "Task2Model":
        """The model of ``svm`` as trained on ``task2_features`` rows over ``vocabulary``,
        its pool stored as counts. Raises ValueError unless the counts rebuild the
        pool bit for bit, so no file is written that loads another model."""
        pool = svm.pool
        model = cls(config, replace(svm, pool=replace(pool, values=task2_counts(pool, vocabulary))), vocabulary)
        if model.classifier.pool.values.tobytes() != pool.values.tobytes():
            raise ValueError("the support vectors are not task-2 rows: no counts rebuild them bit for bit")
        return model

    @property
    def width(self) -> int:
        return self.vocabulary.size + len(TASK2_TAIL_NAMES)  # the TF-IDF block, then the tail


TASK_MODELS = {1: Task1Model, 2: Task2Model}


@dataclass
class TrainedPipeline:
    """Task models as saved and the lexicons their features read; ``config``
    holds the fields that each held model's task reads from its own config."""

    config: PipelineConfig
    lexicons: LexiconSet
    task1: Task1Model | None = None
    task2: Task2Model | None = None

    @property
    def task1_model(self) -> MulticlassModel | WeightsModel | None:
        """The task-1 SVM with its support vectors where the pipeline has them
        (trained here, or read from a pool-form file), else its weights."""
        if self.task1 is None:
            return None
        return self.task1.classifier if self.task1.pooled is None else self.task1.pooled

    @property
    def task2_model(self) -> MulticlassModel | None:
        return None if self.task2 is None else self.task2.classifier


def _join(pipeline: TrainedPipeline | None, model: TaskModel, lexicons: LexiconSet) -> TrainedPipeline:
    """``pipeline`` (a new one on ``lexicons`` if None) holding ``model``, the config
    fields its task reads and the lexicons of ``lexicons`` that it reads, so a chained
    pipeline predicts as each model was given."""
    if pipeline is None:
        pipeline = TrainedPipeline(config=model.config, lexicons=lexicons)
    taken = {name: getattr(model.config, name) for name in model.CONFIG_FIELDS}
    pipeline.config = replace(pipeline.config, **taken)
    read = {name: getattr(lexicons, name) for name in model.lexicons_read()}
    pipeline.lexicons = replace(pipeline.lexicons, **read)
    setattr(pipeline, f"task{model.task}", model)
    return pipeline


def _all_texts(records: Sequence[SentenceRecord]) -> Iterable[str]:
    return (text for r in records for text in (r.query_text, r.sentence_text))


# the last batch analysed: its texts in order, each distinct text's tokens and its sentences' word table
_last_analysis: tuple[tuple[str, ...], dict[str, list[str]], WordTable] = ((), {}, WordTable.of([]))


def _analysis(records: Sequence[SentenceRecord]) -> tuple[dict[str, list[str]], WordTable]:
    """Each distinct text of ``records`` -> its tokens, and the word table of the
    records' sentences, text i being record i's sentence.

    Only the last batch's analysis is kept, keyed by its query and sentence
    texts in order, so tasks called one after the other on a batch tokenize
    each distinct text once, all in one ``tokenize_batch`` call, and count
    its sentences once. It holds tokens and the table only, never features
    or labels, so it gives what a fresh analysis gives whatever pipeline or
    lexicons read it. The entry is one
    tuple, read whole and replaced by one assignment, and nothing changes
    its tokens or table, so threads that share it each read a whole entry
    of their own batch's texts or analyse afresh.
    """
    global _last_analysis
    key = tuple(_all_texts(records))
    last = _last_analysis
    if last[0] != key:
        distinct = list(dict.fromkeys(key))
        tokens = dict(zip(distinct, tokenize_batch(distinct)))
        last = _last_analysis = key, tokens, WordTable.of([tokens[r.sentence_text] for r in records])
    return last[1], last[2]


def _model(pipeline: TrainedPipeline, task: int) -> TaskModel:
    model = getattr(pipeline, f"task{task}", None)
    if model is None:
        raise ValueError(f"pipeline has no trained task-{task} model")
    return model


def task1_rows(
    records: Sequence[SentenceRecord],
    vocabularies: dict[str, VocabularyModel],
    lexicons: LexiconSet,
    *,
    fitted: dict[str, VocabularyModel] | None = None,
) -> SparseRows:
    """Task-1 feature rows of ``records``, the rows the task-1 SVM reads.

    A query without an entry in ``vocabularies`` reads the vocabulary of its
    sentences in ``records``, its IDF counted in the batch's word table;
    if ``fitted`` is a dict, that vocabulary is put in it under the query id.
    The texts are read from the batch's analysis (``_analysis``), which a
    task-2 call on the same records reads again.
    """
    tokens, table = _analysis(records)
    group_by_query([r for r in records if r.query_id not in vocabularies])  # one query text per unseen query
    queries = [(tokens[r.query_text], vocabularies.get(r.query_id, r.query_id)) for r in records]
    return task1_features(queries, table, lexicons.gloss, lexicons.nouns, fitted)


def _task2_batch(table: WordTable, texts: Sequence[int], relevance: Sequence[str], vocabulary: VocabularyModel,
                 lexicons: LexiconSet) -> SparseRows:
    return task2_features(table, texts, [label == RELEVANT for label in relevance], vocabulary, lexicons.sentiment)


def task2_rows(
    records: Sequence[SentenceRecord],
    relevance: Sequence[str],
    vocabulary: VocabularyModel,
    lexicons: LexiconSet,
) -> SparseRows:
    """Task-2 feature rows of ``records``, the rows the task-2 SVM reads, each row's
    relevance flag set where its label in ``relevance`` is relevant. The sentences
    are read from the word table of the batch's analysis (``_analysis``).
    """
    return _task2_batch(_analysis(records)[1], range(len(records)), relevance, vocabulary, lexicons)


def train_task1(
    records: Sequence[SentenceRecord],
    lexicons: LexiconSet,
    config: PipelineConfig,
) -> TrainedPipeline:
    """Fit per-query vocabularies and the pooled relevance classifier."""
    labels = required_labels(records, "relevance", "task-1 training")
    vocabularies = {}
    svm = train_multiclass(task1_rows(records, {}, lexicons, fitted=vocabularies), labels, config.task1)
    return _join(None, Task1Model(config, svm, vocabularies), lexicons)


def predict_task1(pipeline: TrainedPipeline, records: Sequence[SentenceRecord]) -> list[str]:
    """Relevance label per record, in input order, from the rows of ``task1_rows``.

    Queries unseen at training time read the IDF of their own sentences in
    this batch.
    """
    model = _model(pipeline, 1)
    return predict_batch(model.classifier, task1_rows(records, model.vocabularies, pipeline.lexicons))


def train_task2(
    records: Sequence[SentenceRecord],
    task1_labels: Sequence[str],
    lexicons: LexiconSet,
    config: PipelineConfig,
    pipeline: TrainedPipeline | None = None,
) -> TrainedPipeline:
    """Fit the global vocabulary and the stance classifier.

    ``task1_labels`` supplies each record's relevance flag (gold labels
    at training time). In two-class mode, neutral rows are excluded
    from SVM training but still contribute to the vocabulary. The
    vocabulary and the rows both read the word table of the batch's
    analysis (``_analysis``), which counts each sentence once.
    """
    if len(task1_labels) != len(records):
        raise AlignmentError(
            f"{len(records)} records but {len(task1_labels)} relevance labels"
        )
    stances = required_labels(records, "stance", "task-2 training")
    _, table = _analysis(records)
    vocabulary = fit_vocabulary(table)
    two_class = config.stance_classes == TWO_CLASS
    kept = [i for i, stance in enumerate(stances) if not two_class or stance != NEUTRAL]
    batch = _task2_batch(table, kept, [task1_labels[i] for i in kept], vocabulary, lexicons)
    svm = train_multiclass(batch, [stances[i] for i in kept], config.task2)
    return _join(pipeline, Task2Model.of(config, svm, vocabulary), lexicons)


def predict_task2(
    pipeline: TrainedPipeline,
    records: Sequence[SentenceRecord],
    task1_predictions: Sequence[str],
) -> list[str]:
    """Stance label per record, chained on task-1 output.

    In two-class mode, records predicted irrelevant come back neutral
    without consulting the model; a call that asks the model nothing
    analyses nothing. The rows of every record asked are built as one batch,
    their sentences read from the word table of the batch's analysis
    (``_analysis``), which a ``predict_task1`` call on the same records has
    made already, and predicted in one ``predict_batch`` call; only
    ``svm.decision_values`` cuts them into chunks.
    """
    model = _model(pipeline, 2)
    if len(task1_predictions) != len(records):
        raise AlignmentError(
            f"{len(records)} records but {len(task1_predictions)} task-1 predictions"
        )
    two_class = pipeline.config.stance_classes == TWO_CLASS
    asked = [i for i, relevance in enumerate(task1_predictions) if not two_class or relevance == RELEVANT]
    out = [NEUTRAL] * len(records)
    if not asked:
        return out
    _, table = _analysis(records)
    batch = _task2_batch(table, asked, [task1_predictions[i] for i in asked], model.vocabulary, pipeline.lexicons)
    for i, label in zip(asked, predict_batch(model.classifier, batch)):
        out[i] = label
    return out


def predict_chain(pipeline: TrainedPipeline, records: Sequence[SentenceRecord]) -> tuple[list[str], list[str]]:
    """Relevance, then stance chained on it, per record: ``predict_task1`` and
    then ``predict_task2``, which reads the batch's analysis that the first made."""
    relevance = predict_task1(pipeline, records)
    return relevance, predict_task2(pipeline, records, relevance)


# --- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationReport:
    """Percentage accuracy per query id, in first-appearance order, plus their unweighted mean."""

    accuracy: dict[str, float]

    @property
    def macro_average(self) -> float:
        return macro_average(self.accuracy.values())

    def render_table(self) -> str:
        width = max(len("query_id"), *map(len, self.accuracy))
        lines = [f"{'query_id':<{width}}  accuracy"]
        for query_id, accuracy in self.accuracy.items():
            lines.append(f"{query_id:<{width}}  {accuracy:.8f}")
        lines.append(f"{'MACRO_AVERAGE':<{width}}  {self.macro_average:.8f}")
        return "\n".join(lines)

    def to_csv_rows(self) -> list[tuple[str, str]]:
        rows = [(query_id, repr(accuracy)) for query_id, accuracy in self.accuracy.items()]
        rows.append(("MACRO_AVERAGE", repr(self.macro_average)))
        return rows


def macro_average(accuracies: Iterable[float]) -> float:
    """Unweighted mean over queries, their sum added left to right (Python's
    ``sum`` compensates its rounding from 3.12 on)."""
    values = list(accuracies)
    if not values:
        raise EmptyInput("macro average of zero queries")
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def evaluate(
    gold: Sequence[str],
    predicted: Sequence[str],
    query_ids: Sequence[str],
) -> EvaluationReport:
    """Percentage accuracy per query, queries in first-appearance order."""
    if len(gold) != len(predicted):
        raise LengthMismatch(f"{len(gold)} gold labels vs {len(predicted)} predictions")
    if len(gold) != len(query_ids):
        raise LengthMismatch(f"{len(gold)} gold labels vs {len(query_ids)} query ids")
    if not gold:
        raise EmptyInput("nothing to evaluate")
    total = Counter(query_ids)  # keys in first-appearance order
    correct = Counter(qid for qid, g, p in zip(query_ids, gold, predicted) if g == p)
    return EvaluationReport({qid: 100.0 * correct[qid] / n for qid, n in total.items()})


# --- persistence ------------------------------------------------------------

FORMAT, FORMAT_VERSION = "querystance-pipeline", 7  # with ``task``, the header of every model file


def save_task_model(pipeline: TrainedPipeline, task: int, path: str | Path) -> None:
    """Write the pipeline's task-``task`` model as JSON below its header, as it was trained or loaded."""
    header = {"format": FORMAT, "format_version": FORMAT_VERSION, "task": task}
    write_json(path, {**header, **to_doc(_model(pipeline, task))})


def load_task_model(
    path: str | Path,
    lexicons: LexiconSet,
    into: TrainedPipeline | None = None,
) -> TrainedPipeline:
    """Load a saved task model into ``into``, or into a new pipeline on ``lexicons``. Its header
    is checked ``task`` first, so a JSON file that is no model file fails on its ``task``."""
    doc = read_json(path)
    task = doc.pop("task", None)
    kind = TASK_MODELS.get(task) if type(task) is int else None
    if kind is None:
        raise CorruptModel(f"expected 1 or 2, got {task!r:.40}", path, field="task")
    if doc.pop("format", None) != FORMAT:
        raise CorruptModel(f"not a {FORMAT} document", path)
    if (version := doc.pop("format_version", None)) != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}", path)
    return _join(into, from_doc(kind, doc, path), lexicons)
