import copy
import json
import math
import typing
import warnings
from dataclasses import replace

import numpy as np
import numpy.typing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from querystance.codec import from_doc, to_doc
from querystance.corpus import load_dataset
from querystance.errors import CorruptModel
from querystance.pipeline import (
    THREE_CLASS,
    TWO_CLASS,
    LexiconSet,
    PipelineConfig,
    Task2Model,
    load_task_model,
    predict_task1,
    predict_task2,
    save_task_model,
    train_task1,
    train_task2,
)
from querystance.features import SharedWords, VocabularyModel
from querystance.svm import (
    KERNEL_KINDS,
    KernelConfig,
    MulticlassModel,
    PoolGaps,
    SupportVectorPool,
    SvmConfig,
    WeightsModel,
)

from oracles import columns_of_gaps, front_coded_reference, gaps_of_columns
from synth import lexicon_objects, make_records

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
kernels = st.builds(
    KernelConfig,
    kind=st.sampled_from(KERNEL_KINDS),
    gamma=positive,
    degree=st.integers(1, 10),
    coef0=finite,
)
# tol lies in (0, 2): outside it no setting can train
svms = st.builds(
    SvmConfig,
    c=positive,
    kernel=kernels,
    tol=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    max_passes=st.integers(1, 10**9),
)
paths = st.none() | st.text(max_size=8)
pipelines = st.builds(
    PipelineConfig,
    task1=svms,
    task2=svms,
    stance_classes=st.sampled_from((THREE_CLASS, TWO_CLASS)),
    train_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**63),
    gloss_path=paths,
    sentiment_path=paths,
    noun_path=paths,
)


@pytest.mark.parametrize("cls, strategy", [
    (KernelConfig, kernels), (SvmConfig, svms), (PipelineConfig, pipelines),
])
def test_config_roundtrip(cls, strategy):
    @given(strategy)
    def roundtrip(value):
        doc = json.loads(json.dumps(to_doc(value)))
        assert from_doc(cls, doc, "doc") == value

    roundtrip()


@pytest.mark.parametrize("doc", [[1, 2**70], [1, -2**70], [[1], [2**64]], [2**63], [1, 2**63]])
def test_integers_beyond_int64_are_named_as_such(doc):
    """An integer array whose integers numpy cannot hold as int64 (it reads them as
    objects, uint64 or float64) is refused for its range, naming the field."""
    with pytest.raises(CorruptModel, match=r"^doc: sv_index: expected integers within the int64 range$"):
        from_doc(npt.NDArray[np.int64], doc, "doc", "sv_index")


@pytest.mark.parametrize("cls, doc, what", [
    (np.ndarray, [True, 1.5], "numbers"), (np.ndarray, [[1.0, False]], "numbers"),
    (npt.NDArray[np.int64], [True, 1], "integers"),
])
def test_a_bool_in_a_numeric_array_is_not_a_number(cls, doc, what):
    """A JSON true or false is never a number, also beside numbers in an array."""
    with pytest.raises(CorruptModel, match=rf"^doc: coefs: expected a rectangular array of {what}$"):
        from_doc(cls, doc, "doc", "coefs")


def _mapped(doc, read):
    """Nested lists ``doc`` with ``read`` applied to each leaf."""
    return [_mapped(item, read) for item in doc] if isinstance(doc, list) else read(doc)


def _leaf_reading(cls, leaf):
    """``leaf`` as the scalar field ``cls`` reads it; a float array keeps a
    non-finite float for its dataclass's own check."""
    if cls is float and type(leaf) is float and not math.isfinite(leaf):
        return leaf
    return from_doc(cls, leaf, "doc")


# numbers drawn twice as often as the rest, so that many lists load
json_leaves = st.integers() | st.floats() | st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=3)
nested_lists = st.one_of(
    st.lists(json_leaves, max_size=4),
    st.integers(0, 3).flatmap(lambda width: st.lists(st.lists(json_leaves, min_size=width, max_size=width), max_size=3)),
    st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=8).filter(
        lambda doc: isinstance(doc, list)),
)


@pytest.mark.parametrize("cls, scalar", [(np.ndarray, float), (npt.NDArray[np.int64], int)], ids=["float", "int"])
def test_an_array_reads_each_leaf_as_its_scalar_field(cls, scalar):
    """An array field either fails, or holds each leaf as the scalar field of
    its dtype reads that leaf."""
    @settings(max_examples=500)
    @given(nested_lists)
    @example([True, 1.5])
    @example([[1], [2**70]])
    @example([1, 2**1100])
    def reading(doc):
        try:
            array = from_doc(cls, doc, "doc", "coefs")
        except CorruptModel as exc:
            assert str(exc).startswith("doc: coefs: expected ")
            return
        assert array.dtype == np.dtype(np.float64 if scalar is float else np.int64)
        # the same rows, and each value to the bit (repr tells -0.0 from 0.0 and matches nan)
        assert _mapped(array.tolist(), repr) == _mapped(doc, lambda leaf: repr(_leaf_reading(scalar, leaf)))

    reading()


# words of digits, ASCII and non-ASCII letters (the empty word included), so lists
# hold one-character words and words that are a prefix of the next
any_word = st.text(st.sampled_from("019azAéü中"), max_size=4) | st.text(max_size=3)
word_lists = st.lists(any_word, unique=True, max_size=40).map(sorted)


@settings(max_examples=300)
@given(word_lists)
@example([])
@example(["a"])
@example(["1", "10", "109", "2", "a", "ab", "abc", "abd", "é", "éa", "中"])
def test_a_sorted_word_list_survives_the_file_form(words):
    """Any strictly increasing word list is stored front-coded, each word with the
    longest prefix it shares with the word before it, and read back as it was."""
    vocab = VocabularyModel(tuple(words), (1,) * len(words), 1)
    doc = json.loads(json.dumps(to_doc(vocab)))
    assert doc["terms"] == front_coded_reference(words)
    assert from_doc(VocabularyModel, doc, "doc") == vocab


@settings(max_examples=200)
@given(word_lists.flatmap(lambda words: st.dictionaries(
    st.text(max_size=3), st.lists(st.sampled_from(words), unique=True).map(sorted) if words else st.just([]),
    max_size=4)))
def test_vocabularies_survive_the_shared_word_list(terms_of):
    """Any vocabularies by query are stored as one word list and gap-coded ids into
    it, and read back as they were."""
    vocabularies = {query: VocabularyModel(tuple(terms), (1,) * len(terms), 2) for query, terms in terms_of.items()}
    doc = json.loads(json.dumps(to_doc(SharedWords.of(vocabularies))))
    assert from_doc(SharedWords, doc, "doc").value == vocabularies


@st.composite
def pools(draw):
    """A valid pool: rows of strictly increasing columns (empty and one-entry rows
    among them) below a ``dims`` up to 2**63 - 1, and finite values."""
    dims = draw(st.integers(1, 12) | st.sampled_from([2**31, 2**62 + 1, 2**63 - 1]))
    columns = st.integers(0, dims - 1) | st.sampled_from([0, dims - 1])
    rows = draw(st.lists(st.lists(columns, unique=True, max_size=5).map(sorted), max_size=6))
    indices = np.array([column for row in rows for column in row], dtype=np.int64)
    values = draw(st.lists(finite, min_size=len(indices), max_size=len(indices)))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return SupportVectorPool(dims, indptr, indices, np.array(values, dtype=np.float64))


@settings(max_examples=300)
@given(pools())
def test_a_pool_survives_gap_coding_bit_for_bit(pool):
    """Any valid pool is stored with its columns as gaps within each row, and read
    back through the model's declared pool field bit for bit."""
    doc = json.loads(json.dumps(to_doc(PoolGaps.of(pool))))
    assert doc["indices"] == gaps_of_columns(doc, pool.indices.tolist())
    again = from_doc(typing.get_type_hints(MulticlassModel, include_extras=True)["pool"], doc, "doc")
    assert type(again) is SupportVectorPool and again.dims == pool.dims
    for name in ("indptr", "indices", "values"):
        assert getattr(again, name).dtype == getattr(pool, name).dtype
        assert getattr(again, name).tobytes() == getattr(pool, name).tobytes()


DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _field_paths(node, path=()):
    """Every key/index path below ``node``; of a list only the first and last items."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = [(i, node[i]) for i in sorted({0, len(node) - 1}) if node]
    else:
        children = []
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _nudged(value):
    """``value`` changed within its JSON type, so the type checks pass it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 7
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[::-1]
    return DELETE


def _saved(tmp_path_factory, pipeline, task):
    """The saved task-``task`` document of ``pipeline``, its field paths and a file to write mutants to."""
    root = tmp_path_factory.mktemp("codec")
    save_task_model(pipeline, task, root / f"m{task}.json")
    doc = json.loads((root / f"m{task}.json").read_text())
    return doc, sorted(_field_paths(doc), key=repr), root / "mutant.json"


@pytest.fixture(scope="module")
def task1_file(tmp_path_factory, paper_corpus):
    """A task-1 file that stores weights: the default cubic kernel trained on the paper_cli corpus."""
    lexicons = LexiconSet.load(paper_corpus["gloss"], noun_path=paper_corpus["nouns"])
    pipeline = train_task1(load_dataset(paper_corpus["train"], labeled=True), lexicons, PipelineConfig())
    assert isinstance(pipeline.task1.svm, WeightsModel)
    return _saved(tmp_path_factory, pipeline, 1)


@pytest.fixture(scope="module")
def pool_task1_file(tmp_path_factory):
    """A small task-1 file that stores its support-vector pool: an RBF kernel has no finite map."""
    records = make_records(seed=0, per_query=4)
    config = PipelineConfig(task1=SvmConfig(kernel=KernelConfig("rbf", gamma=0.5)))
    pipeline = train_task1(records, lexicon_objects(), config)
    assert isinstance(pipeline.task1.svm, MulticlassModel)
    return _saved(tmp_path_factory, pipeline, 1)


@pytest.fixture(scope="module")
def task2_file(tmp_path_factory):
    records = make_records(seed=0, per_query=4)
    pipeline = train_task2(records, [r.relevance for r in records], lexicon_objects(), PipelineConfig())
    return _saved(tmp_path_factory, pipeline, 2)


def _mutants_load_or_raise_corrupt_model(saved, task, examples=()):
    """Every mutant of the saved task-``task`` file, ``examples`` (path, value) among
    them, either fails at load naming the file, or loads and predicts."""
    doc, field_paths, mutant = saved
    batch = make_records(seed=1, per_query=4)  # 20 rows

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(field_paths), st.just(DELETE) | json_values)
    def mutation(path, value):
        changed = copy.deepcopy(doc)
        parent = changed
        for step in path[:-1]:
            parent = parent[step]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        mutant.write_text(json.dumps(changed), encoding="utf-8")
        try:
            pipeline = load_task_model(mutant, lexicon_objects())
        except CorruptModel as exc:
            assert str(exc).startswith(f"{mutant}: ")
            return
        # a file that loads also predicts, with the labels of its model
        if task == 1:
            labels, model = predict_task1(pipeline, batch), pipeline.task1_model
        else:
            labels, model = predict_task2(pipeline, batch, [r.relevance for r in batch]), pipeline.task2_model
        assert set(labels) <= set(model.labels)

    for path in field_paths:  # besides the random values, each field nudged within its type
        node = doc
        for step in path:
            node = node[step]
        mutation = example(path, _nudged(node))(mutation)
    for path, value in examples:
        mutation = example(path, value)(mutation)
    mutation()


def test_single_value_mutation_loads_or_raises_corrupt_model(task2_file):
    _mutants_load_or_raise_corrupt_model(task2_file, 2)


def test_single_value_mutation_of_a_task1_file_loads_or_raises_corrupt_model(task1_file):
    # weights and biases on which predict would overflow, and the largest weight it may read
    terms = len(task1_file[0]["svm"]["weights"][0])
    _mutants_load_or_raise_corrupt_model(task1_file, 1, [
        (("svm", "weights", 0, 0), 1e308), (("svm", "weights", 0, 1), -1.2e307),
        (("svm", "biases", 0), 1e308), (("svm", "weights", 0, 0), np.finfo(np.float64).max / 4 / terms),
    ])


def test_single_value_mutation_of_a_pool_form_task1_file_loads_or_raises_corrupt_model(pool_task1_file):
    # a pool value that no task-1 feature takes, on which predict would overflow
    _mutants_load_or_raise_corrupt_model(pool_task1_file, 1, [(("svm", "pool", "values", 0), 1.1663984695979098e+103)])


def _count_mutation(change):
    """Mutation of a task-2 document that ``change``s the first pool row holding both
    term and sentiment counts: ``change(pool, term, sentiment)`` gets the pool, its
    columns rebuilt from the file's gaps, and the row's term and sentiment entries.
    The columns are stored as gaps again after the change."""
    def mutate(doc):
        pool, size = doc["svm"]["pool"], len(doc["vocabulary"]["terms"]["prefix"])
        pool["indices"] = columns_of_gaps(pool)
        for start, end in zip(pool["indptr"], pool["indptr"][1:]):
            term = [e for e in range(start, end) if pool["indices"][e] < size]
            sentiment = [e for e in range(start, end) if size <= pool["indices"][e] < size + 3]
            if term and sentiment:
                change(pool, term, sentiment)
                pool["indices"] = gaps_of_columns(pool, pool["indices"])
                return doc
        raise AssertionError("no pool row holds both term and sentiment counts")

    return mutate


def _set_count(entry, value):
    def change(pool, term, sentiment):
        pool["values"][(term + sentiment)[entry]] = value(pool, sentiment)

    return change


def _drop_sentiment(pool, term, sentiment):
    for e in reversed(sentiment):
        del pool["indices"][e], pool["values"][e]
    pool["indptr"] = [i - len(sentiment) if i > sentiment[0] else i for i in pool["indptr"]]


def _flag_of_two(pool, term, sentiment):
    pool["values"][pool["indices"].index(pool["dims"] - 1)] = 2  # the first stored relevance flag


# each corruption of a task-2 file's counts; all must fail at load naming svm.pool.values
COUNT_CORRUPTIONS = {
    "negative count": _count_mutation(_set_count(0, lambda pool, sentiment: -1)),
    "fractional count": _count_mutation(_set_count(0, lambda pool, sentiment: 1.5)),
    "non-finite count": _count_mutation(_set_count(-1, lambda pool, sentiment: float("inf"))),
    "term count in a row of no tokens": _count_mutation(_drop_sentiment),
    "relevance flag of 2": _count_mutation(_flag_of_two),
    "term counts above the token count": _count_mutation(_set_count(
        0, lambda pool, sentiment: sum(pool["values"][e] for e in sentiment) + 1)),
}


@pytest.mark.parametrize("case", sorted(COUNT_CORRUPTIONS))
def test_bad_count_fails_at_load_naming_the_field(task2_file, case):
    doc, _, mutant = task2_file
    mutant.write_text(json.dumps(COUNT_CORRUPTIONS[case](copy.deepcopy(doc))), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not a numpy RuntimeWarning or a ZeroDivisionError
        with pytest.raises(CorruptModel) as caught:
            load_task_model(mutant, lexicon_objects())
    assert str(caught.value).startswith(f"{mutant}: svm.pool.values: ")


def test_counts_that_do_not_rebuild_the_pool_are_refused():
    """A pool that no integer counts rebuild bit for bit is never turned into a file."""
    records = make_records(seed=0, per_query=4)
    model = train_task2(records, [r.relevance for r in records], lexicon_objects(), PipelineConfig()).task2
    svm, pool = model.classifier, model.classifier.pool
    values = pool.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    with pytest.raises(ValueError, match="bit for bit"):
        Task2Model.of(model.config, replace(svm, pool=replace(pool, values=values)), model.vocabulary)
