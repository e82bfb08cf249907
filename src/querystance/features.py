"""Similarity features for query-sentence pairs.

Two feature schemas, each named by the header line of a ``features`` dump:

* ``task1-v1``: five similarity scores in [0, 1] used for relevance
  classification (exact, stemmed, noun, gloss-neighborhood, cosine).
* ``task2-v1``: a TF-IDF bag-of-words block over a fitted vocabulary
  plus positive/negative/neutral word counts and a relevance flag,
  used for stance classification. Every value of such a row rebuilds
  from integer counts (``task2_counts``, ``task2_values``), which is how
  a task-2 model file stores its support vectors.

Both schemas weigh a word by ``tfidf_weights``, the one TF-IDF rule.

Every function here reads each text as its tokens (``textproc.tokenize``
output), never as a raw string, and each rule is computed in one batch
function. A batch's sentences are counted once, into one table of their
word types (``WordTable``): every distinct word gets a small int id, and
each text becomes (id, count) entries. Such a table is the one form in
which the two batch feature functions take their sentences: they read the
entries of the texts they are asked about in place and never change the
table, so one table may serve both tasks and several threads (``pipeline``
keeps the last batch's). What a feature needs to know of a word (its
stem, noun flag, polarity, vocabulary column, gloss matches and, for a
query seen only in this batch, its document frequency there) is then
looked up or counted once per type and call, and the features are sums
over id arrays. The per-row ``feature_*`` functions are one-row calls
into ``task1_features``.

A batch's rows are ``SparseRows``, CSR rows that store only nonzero
values: the rows the SVM reads and the form of its support-vector pool.
As in LIBSVM's sparse rows, they carry no tag of their schema: a model
knows its task's rows by their width. A task-2 row is built sparse from
the table's entries and holds a few dozen values of a few thousand
columns; ``SparseRows.to_dense`` builds the dense matrix for a reader
that needs it.

Every float sum that feeds a feature adds left to right in a fixed order,
through ``np.bincount``, which adds its weights one by one in input order,
or a plain loop: the TF-IDF cosine sums a sentence's squared weights in the
order its words first appear, and the query's squared weights and its
products with the sentence in the order the query's words first appear.
Python's ``sum`` would not do: from Python 3.12 on it compensates its
rounding errors, so the last bit of a sum would depend on the interpreter.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np
import numpy.typing as npt

from .codec import FieldError
from .errors import EmptyCorpus, VocabNotFitted
from .lexicons import GlossDictionary, Polarity, SentimentLexicon, gloss_first_k_sentences, memoise_glosses
from .textproc import stem_tokens

# the header text of a ``features`` dump of each task's rows
SCHEMA_TASK1 = "task1-v1"
SCHEMA_TASK2 = "task2-v1"

TASK1_FEATURE_NAMES = ("exact", "stemmed", "noun", "neighborhood", "cosine")

IndexArray = npt.NDArray[np.int64]

# the columns of a task-2 row after its TF-IDF block: a count per polarity, in the member
# order of ``Polarity`` (the place that ``SentimentLexicon`` maps a word to), then the relevance flag
TASK2_TAIL_NAMES = (*(f"{p.value}_count" for p in Polarity), "relevance_flag")
_NEUTRAL_COLUMN = TASK2_TAIL_NAMES.index("neutral_count")


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Rows in CSR form: row r holds ``values[indptr[r]:indptr[r + 1]]`` at the
    columns ``indices[indptr[r]:indptr[r + 1]]``, each in [0, ``dims``). Within a
    row the columns strictly increase, as in LIBSVM's sparse rows, so every sum
    over a row's entries adds them in column order; rows made otherwise raise
    FieldError naming the field. The rows built here store no zero."""

    dims: int
    indptr: IndexArray
    indices: IndexArray
    values: np.ndarray

    def __post_init__(self):
        indptr, indices = self.indptr, self.indices
        for name in ("indptr", "indices", "values"):
            if getattr(self, name).ndim != 1:
                raise FieldError(name, "must be a flat list")
        if self.dims < 0:
            raise FieldError("dims", f"must be >= 0, got {self.dims}")
        if not len(indptr) or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            raise FieldError("indptr", "must start at 0 and never decrease")
        if indptr[-1] != len(indices):
            raise FieldError("indptr", f"ends at {indptr[-1]}, not at the {len(indices)} indices")
        if len(self.values) != len(indices):
            raise FieldError("values", f"{len(self.values)} values for {len(indices)} indices")
        if len(indices) and not 0 <= indices.min() <= indices.max() < self.dims:
            raise FieldError("indices", f"a column lies outside [0, {self.dims})")
        starts = np.zeros(len(indices) + 1, dtype=bool)  # a key row * dims may overflow for a dims read from a file
        starts[indptr] = True  # each entry that starts a row, which need not follow a lower column
        if not ((indices[1:] > indices[:-1]) | starts[1:-1]).all():
            raise FieldError("indices", "columns must strictly increase within a row")

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> SparseRows:
        """The entries of a (rows, dims) matrix that are not zero (NaN is not
        zero, -0.0 is), row by row and in column order."""
        row, col = matrix.nonzero()
        return cls(matrix.shape[1], row.searchsorted(np.arange(len(matrix) + 1)), col, matrix[row, col])

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    def row_of_entries(self) -> IndexArray:
        """The row of each stored entry."""
        return np.arange(self.rows).repeat(self.indptr[1:] - self.indptr[:-1])

    def to_dense(self) -> np.ndarray:
        """The (rows, dims) float64 matrix of the rows."""
        matrix = np.zeros((self.rows, self.dims))
        matrix[self.row_of_entries(), self.indices] = self.values
        return matrix


@dataclass(frozen=True)
class VocabularyModel:
    """Sorted term list with per-term document frequencies.

    A "document" is one sentence; df(t) counts sentences containing t
    at least once. Term order is fixed at fit time and travels with
    serialized models; the terms must be strictly increasing, so each
    term has one column. Each term's IDF, ln(n_docs/df), is computed
    once per distinct df, into an array with a trailing 0.0 that column
    -1 (a word outside the vocabulary) reads.
    """

    terms: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    def __post_init__(self):
        if len(self.df) != len(self.terms):
            raise ValueError(f"{len(self.terms)} terms but {len(self.df)} df values")
        distinct = set(self.df)
        if distinct and not 1 <= min(distinct) <= max(distinct) <= self.n_docs:
            raise ValueError(f"every df must lie in [1, n_docs={self.n_docs}]")
        if not all(map(operator.lt, self.terms, self.terms[1:])):
            raise FieldError("terms", "must be strictly increasing: sorted, with no term twice")
        object.__setattr__(self, "_index", {term: i for i, term in enumerate(self.terms)})
        logs = {df: math.log(self.n_docs / df) for df in distinct}  # one log per distinct df
        object.__setattr__(self, "_idf", np.array([*map(logs.__getitem__, self.df), 0.0]))

    @property
    def size(self) -> int:
        return len(self.terms)


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    """Each word type's IDF from its document frequency in ``n_docs`` texts
    of a batch (df <= n_docs): ln(n_docs / df) as ``VocabularyModel``
    computes it, one log per distinct df, and 0.0 where df is 0. The
    distinct dfs come from one ``np.bincount`` over the dfs, which is safe
    here as no df exceeds the batch's row count; a vocabulary read from a
    file may hold any df, so ``VocabularyModel`` maps its dfs through a dict."""
    texts_of_df = np.bincount(df, minlength=1)
    distinct = texts_of_df.nonzero()[0]
    logs = np.zeros(len(texts_of_df))
    logs[distinct] = [math.log(n_docs / d) if d else 0.0 for d in distinct.tolist()]
    return logs[df]


def _vocabulary(types: Sequence[str], df: np.ndarray, n_docs: int) -> VocabularyModel:
    """The vocabulary of the word types whose ``df`` (a count per type over ``n_docs`` texts) is not 0."""
    terms = sorted(compress(range(len(types)), df.tolist()), key=types.__getitem__)
    return VocabularyModel(tuple(map(types.__getitem__, terms)), tuple(df[terms].tolist()), n_docs)


def tfidf_weights(counts, lengths, idf):
    """The TF-IDF weight of a word in a text: its count there / the text's token
    count (out-of-vocabulary tokens included) * its IDF, in that order. Every
    TF-IDF value here, and every one rebuilt from a model file, is this expression."""
    return counts / lengths * idf


def _columns(vocab: VocabularyModel, words: Sequence[str]) -> np.ndarray:
    """Each word's column in ``vocab``, -1 for a word outside it."""
    return np.fromiter(map(vocab._index.get, words, repeat(-1)), np.intp, len(words))


class WordTable:
    """The word types of a batch's texts, each text counted once.

    ``types`` holds the batch's distinct words, and a word's id is its
    place there (``index`` maps the word to it). The texts' (id, count)
    entries lie end to end: entries ``start[i]:start[i + 1]`` are text i's,
    entry e being word ``type[e]`` ``count[e]`` times in text ``text[e]``.
    ``length[i]`` is the token count of text i and ``sizes[i]`` the number
    of its entries. No code changes a table once it is built, so one table
    may be read by several calls and threads at once.
    """

    def __init__(self, types: list[str], type: np.ndarray, count: np.ndarray, length: np.ndarray,
                 sizes: np.ndarray, index: dict[str, int] | None = None):
        self.types, self.type, self.count, self.length, self.sizes = types, type, count, length, sizes
        self.index = dict(zip(types, range(len(types)))) if index is None else index

    @functools.cached_property
    def start(self) -> np.ndarray:
        return np.concatenate(([0], self.sizes.cumsum()))

    @classmethod
    def of(cls, texts: Sequence[Iterable[str]]) -> WordTable:
        """The table of ``texts``, each given by its words: a text's entries in the
        order its words first appear in it, the ids in the order the words first
        appear in the batch.

        The batch is counted in one pass: each (text, id) pair of its words is a
        key ``text * types + id``, and ``np.unique`` gives each key's count and
        the place of its first word. The keys sorted by that place come out text
        after text, since a text's words lie together, and within a text in the
        order its words first appear: the order in which every ``np.bincount``
        sum over a text's entries adds them."""
        index = {}  # each id is the number of words met before it
        ids = np.fromiter([index.setdefault(word, len(index)) for word in chain.from_iterable(texts)], np.intp)
        length = np.fromiter(map(len, texts), np.intp, len(texts))
        text = np.arange(len(texts)).repeat(length)
        _, first, count = np.unique(text * len(index) + ids, return_index=True, return_counts=True)
        order = np.argsort(first)
        return cls(list(index), ids[first[order]], count[order], length,
                   np.bincount(text[first], minlength=len(texts)), index)

    @property
    def texts(self) -> int:
        return len(self.length)

    def entries(self, texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``texts`` (text ids), text after text: their places in
        the entry arrays, and the place in ``texts`` of each one's text."""
        sizes = self.sizes[texts]
        ends = sizes.cumsum()
        at = (self.start[texts] - ends + sizes).repeat(sizes) + np.arange(sizes.sum())
        return at, np.arange(len(texts)).repeat(sizes)


# what a per-row feature that does not read a resource passes for it
_NO_VOCABULARY, _NO_GLOSSES = VocabularyModel((), (), 1), GlossDictionary()


def _one_row(query, sentence, vocab=_NO_VOCABULARY, gloss_dict=_NO_GLOSSES, nouns=frozenset()):
    """The five task-1 features of one pair of token lists, from a batch of one row."""
    return task1_features([(query, vocab)], WordTable.of([sentence]), gloss_dict, nouns).to_dense()[0]


def feature_exact(query: Sequence[str], sentence: Sequence[str]) -> float:
    """2 * common / (query tokens + sentence tokens), ``common`` the size of
    the multiset intersection of the two token lists."""
    return float(_one_row(query, sentence)[0])


def feature_stemmed(query: Sequence[str], sentence: Sequence[str]) -> float:
    """``feature_exact`` over the Porter stems of the tokens."""
    return float(_one_row(query, sentence)[1])


def feature_noun(query: Sequence[str], sentence: Sequence[str], nouns: frozenset[str]) -> float:
    """Fraction of distinct query nouns (words whose lowercase form is in ``nouns``) that appear in the sentence."""
    return float(_one_row(query, sentence, nouns=nouns)[2])


def feature_neighborhood(query: Sequence[str], sentence: Sequence[str], gloss_dict: GlossDictionary) -> float:
    """Exact matching widened by dictionary glosses.

    A sentence word also matches a query word when the first
    GLOSS_SENTENCES sentences of its gloss mention that query word.
    Matches per distinct query word are capped at that word's count in
    the query, and the final score is clamped to [0, 1] (one sentence
    word may match several query words through its gloss).
    """
    return float(_one_row(query, sentence, gloss_dict=gloss_dict)[3])


def feature_cosine(query: Sequence[str], sentence: Sequence[str], vocab: VocabularyModel) -> float:
    """Cosine of the query's and the sentence's TF-IDF weights: a word's weight
    is its count / the text's token count (out-of-vocabulary tokens included)
    times its IDF, and a word outside ``vocab`` weighs 0."""
    return float(_one_row(query, sentence, vocab=vocab)[4])


def fit_vocabulary(sentences: Sequence[Iterable[str]] | WordTable) -> VocabularyModel:
    """Collect sorted distinct terms and sentence-level frequencies.

    Each sentence is given by its tokens, or by its distinct terms as a
    set, or the sentences by their word table; the table's entries count
    each term once per sentence that holds it.
    """
    table = sentences if isinstance(sentences, WordTable) else WordTable.of(sentences)
    if not table.texts:
        raise EmptyCorpus("cannot fit a vocabulary on zero sentences")
    return _vocabulary(table.types, np.bincount(table.type, minlength=len(table.types)), table.texts)


def task1_features(
    queries: Sequence[tuple[Sequence[str], VocabularyModel | str]],
    table: WordTable,
    gloss_dict: GlossDictionary,
    nouns: frozenset[str],
    fitted: dict[str, VocabularyModel] | None = None,
) -> SparseRows:
    """The five relevance features, ordered as TASK1_FEATURE_NAMES, of each
    sentence of ``table`` and its query: row i pairs text i of the table with
    ``queries[i]``, its (query tokens, vocabulary) pair.

    In place of a vocabulary, a pair may hold its query's id (a str): its
    rows then read the vocabulary of their own sentences, each term's IDF
    ln(n / df) taken from ``np.bincount`` over their entries in the word
    table, where n counts the rows and df those whose sentence holds the
    term. If ``fitted`` is a dict, it receives that vocabulary under the
    query id. The rows of one query id must share their query words.

    Rows with equal query words and one vocabulary (or query id) form a
    group. The table is only read: a query word that it lacks gets an id
    of this call's own, after the table's. Each word type is stemmed once
    and, if a sentence holds it and the dictionary glosses it, its gloss is
    matched once against the batch's query words, the glosses that the
    dictionary's memo lacks all tokenized in one ``memoise_glosses`` call.
    A group then marks which of its columns each word type hits: a query
    word itself (exact, noun), a query stem (stemmed), or a query word
    itself or through the type's gloss (neighborhood). One ``np.bincount``
    over the group's sentence entries counts the matches of each sentence
    and column, and ``np.minimum`` caps them at the query's counts.
    """
    if any(isinstance(query, str) for query, _ in queries):  # a str is a sequence too
        raise TypeError("task1_features takes each query's tokens, not its text")
    if any(vocab is None for _, vocab in queries):
        raise VocabNotFitted("task1_features requires a fitted vocabulary for every row")
    groups = {}  # (query words, vocabulary id or query id) -> query words, vocabulary or query id, rows
    words_of = {}  # query id -> its query words
    for row, (query, vocab) in enumerate(queries):
        words = tuple(query)
        if isinstance(vocab, str) and words_of.setdefault(vocab, words) != words:
            raise ValueError(f"the rows of query {vocab!r} hold different query words")
        groups.setdefault((words, vocab if isinstance(vocab, str) else id(vocab)), (words, vocab, []))[2].append(row)
    if table.texts != len(queries):
        raise ValueError(f"{len(queries)} rows but a word table of {table.texts} sentences")
    counted = [Counter(words) for words, _, _ in groups.values()]  # each group's query words and their counts
    index, extra = table.index, {}  # the query words outside the table -> their ids, after the table's
    query_types = [[index[word] if word in index else extra.setdefault(word, len(table.types) + len(extra))
                    for word in query] for query in counted]
    types = table.types + list(extra)
    stems = stem_tokens(types)

    # once per glossed sentence word type: the query words that its gloss mentions
    query_words = set().union(*counted)
    gloss_matches = {}
    glossed = list(compress(table.types, map(gloss_dict.entries.__contains__, map(str.lower, table.types))))
    memoise_glosses(gloss_dict, glossed)
    for word in glossed:
        tokens = gloss_first_k_sentences(gloss_dict, word)
        if not query_words.isdisjoint(tokens):  # most glosses mention no query word
            gloss_matches[table.index[word]] = query_words.intersection(tokens)

    values = np.zeros((len(queries), len(TASK1_FEATURE_NAMES)))  # an empty query scores 0.0 throughout
    for (words, vocab, rows), query, q_types in zip(groups.values(), counted, query_types):
        n = len(rows)
        at, e_text = table.entries(np.array(rows))
        e_type, e_count, length = table.type[at], table.count[at], table.length[rows]
        if isinstance(vocab, str):
            df = np.bincount(e_type, minlength=len(types))
            idf = _idf(df, n)
            if fitted is not None:
                fitted[vocab] = _vocabulary(types, df, n)
        else:
            idf = vocab._idf[_columns(vocab, types)]  # each type's IDF, 0.0 outside the vocabulary
        q_counts, k = list(query.values()), len(query)
        if not k:
            continue
        stem_counts = {}  # query stem -> its count in the query
        for t, count in zip(q_types, q_counts):
            stem_counts[stems[t]] = stem_counts.get(stems[t], 0) + count
        m, noun_flags = len(stem_counts), [int(word.lower() in nouns) for word in query]

        # the cells (type, column) that word types hit, in four blocks of columns:
        # exact (k), stemmed (one per query stem), noun (k) and neighborhood (k)
        width = 3 * k + m
        stem_column, near_column = dict(zip(stem_counts, range(k, k + m))), dict(zip(query, range(2 * k + m, width)))
        hits = np.zeros(len(types) * width, dtype=bool)
        hits[[t * width + j for j, t in chain(enumerate(q_types), enumerate(q_types, k + m),
                                              enumerate(q_types, 2 * k + m))]
             + [t * width + stem_column[stems[t]]
                for t in compress(range(len(types)), map(stem_column.__contains__, stems))]
             + [t * width + near_column[word] for t, matched in gloss_matches.items()
                for word in matched if word in near_column]] = True

        # the matches of each sentence and column, capped, then added up block by block
        hit_entry, hit_column = np.divmod(np.flatnonzero(hits.reshape(len(types), width).take(e_type, axis=0)), width)
        found = np.bincount(e_text[hit_entry] * width + hit_column, e_count[hit_entry], minlength=n * width)
        found = found.reshape(n, width)
        caps = q_counts + list(stem_counts.values()) + noun_flags + q_counts
        matches = np.add.reduceat(np.minimum(found, caps), [0, k, k + m, 2 * k + m], axis=1)

        # the cosine: each query word's TF-IDF weight in the sentence times its weight in
        # the query, added up in query order; the sentence's squared weights added up
        # in the order its words first appear
        q_idf = idf[q_types]
        q_weights = [tfidf_weights(count, len(words), w) for count, w in zip(q_counts, q_idf.tolist())]
        products = tfidf_weights(found[:, :k], np.maximum(length, 1)[:, None], q_idf) * q_weights  # 0 of 0 words: 0.0
        dots = np.bincount(np.repeat(np.arange(n), k), products.ravel(), minlength=n)
        weight = tfidf_weights(e_count, length[e_text], idf[e_type])
        square = 0.0
        for w in q_weights:
            square += w * w
        norms = math.sqrt(square) * np.sqrt(np.bincount(e_text, weight * weight, minlength=n))

        group_values = np.empty((n, len(TASK1_FEATURE_NAMES)))
        group_values[:, :4] = 2.0 * matches / (length + len(words))[:, None]
        group_values[:, 2] = matches[:, 2] / max(sum(noun_flags), 1)
        np.minimum(group_values[:, 3], 1.0, out=group_values[:, 3])  # one word may match several query words
        group_values[:, 4] = dots / np.where(norms == 0.0, 1.0, norms)  # a zero norm comes with a zero dot
        values[rows] = group_values
    return SparseRows.from_dense(values)


def task2_features(
    table: WordTable,
    texts: Sequence[int],
    relevance_flags: Sequence[bool],
    vocab_global: VocabularyModel,
    sent_lex: SentimentLexicon,
) -> SparseRows:
    """TF-IDF block plus sentiment counts and the relevance flag, one row
    per text id in ``texts``: row i is text ``texts[i]`` of ``table``.

    Dimension is vocabulary size + 4; the three counts partition the
    sentence's tokens. The rows are built sparse, straight from the texts'
    entries, which are read in place: each word type of the table has its
    vocabulary column and its polarity's column looked up once, the latter
    in the lexicon's word -> polarity map. A value of 0.0 is not stored: a
    word outside the vocabulary or in every sentence it was fitted on, a
    polarity no token has and a flag that is not set. One argsort on the
    key (row, column) puts the entries in the order ``SparseRows`` keeps.
    """
    if vocab_global is None:
        raise VocabNotFitted("task2_features requires a fitted global vocabulary")
    n = len(texts)
    if len(relevance_flags) != n:
        raise ValueError(f"{n} sentences but {len(relevance_flags)} relevance flags")
    at, e_text = table.entries(texts)
    e_type, e_count = table.type[at], table.count[at]
    size = vocab_global.size
    column = _columns(vocab_global, table.types)[e_type]
    polarity_column = np.fromiter(map(sent_lex._place.get, map(str.lower, table.types), repeat(_NEUTRAL_COLUMN)),
                                  np.intp, len(table.types))
    weight = tfidf_weights(e_count, table.length[texts][e_text], vocab_global._idf[column])  # 0.0 at column -1
    # each row's tail, a count per polarity and then the flag, as that many slots of one array
    slots = len(TASK2_TAIL_NAMES)
    tail = np.bincount(e_text * slots + polarity_column[e_type], e_count, minlength=slots * n)
    tail[slots - 1::slots] = relevance_flags
    known, filled = weight.nonzero()[0], tail.nonzero()[0]
    row = np.concatenate((e_text[known], filled // slots))
    col = np.concatenate((column[known], size + filled % slots))
    order = (row * (size + slots) + col).argsort()  # the keys are distinct: row after row, each in column order
    indices, values = col[order], np.concatenate((weight[known], tail[filled]))[order]
    indptr = row[order].searchsorted(np.arange(n + 1))
    return SparseRows(size + slots, indptr, indices, values)


# a count in a task-2 model file lies in [1, _COUNT_LIMIT): sums of three stay exact in float64
_COUNT_LIMIT = 2**31


def _token_counts(rows: SparseRows, vocab: VocabularyModel):
    """Each entry's row, which entries lie in the TF-IDF block, and each row's token
    count, the sum of its three sentiment counts, of task-2 ``rows``."""
    row, indices = rows.row_of_entries(), rows.indices
    term = indices < vocab.size
    sentiment = ~term & (indices < vocab.size + 3)
    return row, term, np.bincount(row[sentiment], rows.values[sentiment], minlength=rows.rows)


def task2_values(rows: SparseRows, vocab: VocabularyModel) -> np.ndarray:
    """The values of sparse task-2 ``rows`` whose stored values are counts, in the
    order ``rows`` stores them.

    A count in the TF-IDF block is a term count and becomes its ``tfidf_weights``
    with the row's token count; a count in the tail is the value itself. Raises
    ValueError, before any division, for a count that is not a whole number in
    [1, 2**31), a relevance flag other than 1 and a row whose term counts add up
    to more than its token count.
    """
    counts, indices = rows.values, rows.indices
    if not np.all((counts >= 1) & (counts < _COUNT_LIMIT) & (counts == np.floor(counts))):
        raise ValueError("must be counts: whole numbers in [1, 2**31)")
    if np.any(counts[indices == vocab.size + 3] != 1):
        raise ValueError("a relevance flag, when stored, must be 1")
    row, term, length = _token_counts(rows, vocab)
    if np.any(np.bincount(row[term], counts[term], minlength=len(length)) > length):
        raise ValueError("a row's term counts add up to more than its token count, the sum of its sentiment counts")
    values = counts.astype(np.float64)
    values[term] = tfidf_weights(counts[term], length[row[term]], vocab._idf[indices[term]])
    return values


def task2_counts(rows: SparseRows, vocab: VocabularyModel) -> np.ndarray:
    """The integer counts, in the order ``rows`` stores them, that ``task2_values``
    reads of the task-2 ``rows`` that ``task2_features`` built: each tail value,
    and each term's weight times its row's token count over its IDF, rounded."""
    counts = np.rint(rows.values).astype(np.int64)  # the tail values are counts already
    row, term, length = _token_counts(rows, vocab)
    counts[term] = np.rint(rows.values[term] * length[row[term]] / vocab._idf[rows.indices[term]])
    return counts
