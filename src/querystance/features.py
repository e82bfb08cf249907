"""Similarity features for query-sentence pairs.

Two feature schemas:

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
function. A batch call builds one table of its word types (``_WordTable``):
every distinct word gets a small int id, and each text becomes (id, count)
entries. What a feature needs to know of a word (its stem, noun flag,
polarity, vocabulary column and gloss matches) is then looked up once per
type and call, and the features are sums over id arrays. The per-row
``feature_*`` functions are one-row calls into ``task1_features``.

Every float sum that feeds a feature adds left to right in a fixed order,
through ``np.bincount``, which adds its weights one by one in input order,
or a plain loop: the TF-IDF cosine sums a sentence's squared weights in the
order its words first appear, and the query's squared weights and its
products with the sentence in the order the query's words first appear.
Python's ``sum`` would not do: from Python 3.12 on it compensates its
rounding errors, so the last bit of a sum would depend on the interpreter.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat

import numpy as np

from .codec import FieldError
from .errors import EmptyCorpus, VocabNotFitted
from .lexicons import GlossDictionary, Polarity, SentimentLexicon, gloss_first_k_sentences
from .textproc import stem_tokens

SCHEMA_TASK1 = "task1-v1"
SCHEMA_TASK2 = "task2-v1"

TASK1_FEATURE_NAMES = ("exact", "stemmed", "noun", "neighborhood", "cosine")

# the columns of a task-2 row after its TF-IDF block: a count per polarity, in the member
# order of ``Polarity`` (the place that ``SentimentLexicon`` maps a word to), then the relevance flag
TASK2_TAIL_NAMES = (*(f"{p.value}_count" for p in Polarity), "relevance_flag")
_NEUTRAL_COLUMN = TASK2_TAIL_NAMES.index("neutral_count")


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """A batch's feature rows as one (rows, dims) float64 matrix, and their schema."""

    values: np.ndarray
    schema_id: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise ValueError("feature values must be a (rows, dims) matrix")

    @property
    def dims(self) -> int:
        return int(self.values.shape[1])


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


def tfidf_weights(counts, lengths, idf):
    """The TF-IDF weight of a word in a text: its count there / the text's token
    count (out-of-vocabulary tokens included) * its IDF, in that order. Every
    TF-IDF value here, and every one rebuilt from a model file, is this expression."""
    return counts / lengths * idf


def _columns(vocab: VocabularyModel, words: Sequence[str]) -> np.ndarray:
    """Each word's column in ``vocab``, -1 for a word outside it."""
    return np.fromiter(map(vocab._index.get, words, repeat(-1)), np.intp, len(words))


class _WordTable:
    """The word types of a batch's texts, each text given by its words.

    ``counts[i]`` counts the words of text i in the order they first
    appear in it. ``types`` holds the batch's distinct words in
    first-appearance order, and a word's id is its place there (``index``
    maps the word to it). The texts' (id, count) entries lie end to end:
    entries ``start[i]:start[i + 1]`` are text i's, entry e being word
    ``type[e]`` ``count[e]`` times in text ``text[e]``. ``length[i]`` is
    the token count of text i.
    """

    def __init__(self, texts: Sequence[Iterable[str]]):
        self.counts = list(map(Counter, texts))
        self.index = {}  # each id is the number of words met before it
        ids = [self.index.setdefault(word, len(self.index)) for word in chain.from_iterable(self.counts)]
        self.types = list(self.index)
        self.type = np.fromiter(ids, np.intp, len(ids))
        self.count = np.fromiter(chain.from_iterable(map(Counter.values, self.counts)), np.intp, len(ids))
        self.length = np.fromiter(map(len, texts), np.intp, len(texts))
        sizes = list(map(len, self.counts))
        self.start = list(accumulate(sizes, initial=0))
        self.text = np.repeat(np.arange(len(texts)), sizes)


# what a per-row feature that does not read a resource passes for it
_NO_VOCABULARY, _NO_GLOSSES = VocabularyModel((), (), 1), GlossDictionary()


def _one_row(query, sentence, vocab=_NO_VOCABULARY, gloss_dict=_NO_GLOSSES, nouns=frozenset()):
    """The five task-1 features of one pair of token lists, from a batch of one row."""
    return task1_features([(query, sentence, vocab)], gloss_dict, nouns).values[0]


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


def fit_vocabulary(sentences: Sequence[Iterable[str]]) -> VocabularyModel:
    """Collect sorted distinct terms and sentence-level frequencies.

    Each sentence is given by its tokens, or by its distinct terms as a
    set; one ``Counter`` counts the sentences that hold each term.
    """
    if not sentences:
        raise EmptyCorpus("cannot fit a vocabulary on zero sentences")
    df = Counter(chain.from_iterable(map(set, sentences)))
    terms = sorted(df)
    return VocabularyModel(terms=tuple(terms), df=tuple(map(df.__getitem__, terms)), n_docs=len(sentences))


def task1_features(
    triples: Iterable[tuple[Sequence[str], Sequence[str], VocabularyModel]],
    gloss_dict: GlossDictionary,
    nouns: frozenset[str],
) -> FeatureBatch:
    """The five relevance features, ordered as TASK1_FEATURE_NAMES, of each
    (query tokens, sentence tokens, vocabulary) triple.

    Rows with equal query words and one vocabulary object form a group, and
    every group's query and its rows' sentences go into one word table.
    Each word type is stemmed once and, if a sentence holds it and the
    dictionary glosses it, its gloss is matched once against the batch's
    query words. A group then marks which of its columns each word type
    hits: a query word itself (exact, noun), a query stem (stemmed), or a
    query word itself or through the type's gloss (neighborhood). One
    ``np.bincount`` over the group's sentence entries counts the matches of
    each sentence and column, and ``np.minimum`` caps them at the query's
    counts.
    """
    triples = list(triples)
    if any(isinstance(text, str) for triple in triples for text in triple[:2]):  # a str is a sequence too
        raise TypeError("task1_features takes each text's tokens, not the text")
    if any(vocab is None for *_, vocab in triples):
        raise VocabNotFitted("task1_features requires a fitted vocabulary for every row")
    groups = {}  # (query words, id(vocabulary)) -> query words, vocabulary, rows and their sentences
    for row, (query, sentence, vocab) in enumerate(triples):
        words = tuple(query)
        group = groups.setdefault((words, id(vocab)), (words, vocab, [], []))
        group[2].append(row)
        group[3].append(sentence)
    table = _WordTable([text for query, _, _, sentences in groups.values() for text in (query, *sentences)])
    types, stems = table.types, stem_tokens(table.types)
    bases = list(accumulate((1 + len(group[2]) for group in groups.values()), initial=0))  # each group's query

    # once per glossed sentence word type: the query words that its gloss mentions
    query_words, sentence_words = set(), set()
    for base, end in zip(bases, bases[1:]):
        query_words.update(table.counts[base])
        sentence_words.update(*table.counts[base + 1:end])
    gloss_matches = {}
    for word in compress(sentence_words, map(gloss_dict.entries.__contains__, map(str.lower, sentence_words))):
        tokens = gloss_first_k_sentences(gloss_dict, word)
        if not query_words.isdisjoint(tokens):  # most glosses mention no query word
            gloss_matches[table.index[word]] = query_words.intersection(tokens)

    values = np.zeros((len(triples), len(TASK1_FEATURE_NAMES)))  # an empty query scores 0.0 throughout
    for (words, vocab, rows, _), base, end in zip(groups.values(), bases, bases[1:]):
        query, n = table.counts[base], end - base - 1
        q_counts, q_types, k = list(query.values()), list(map(table.index.__getitem__, query)), len(query)
        if not k:
            continue
        idf = vocab._idf[_columns(vocab, types)]  # each type's IDF, 0.0 outside the vocabulary
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
        lo, hi = table.start[base + 1], table.start[end]
        e_text, e_type, e_count = table.text[lo:hi] - (base + 1), table.type[lo:hi], table.count[lo:hi]
        length = table.length[base + 1:end]
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
    return FeatureBatch(values, SCHEMA_TASK1)


def task2_features(
    sentences: Sequence[Sequence[str]],
    relevance_flags: Sequence[bool],
    vocab_global: VocabularyModel,
    sent_lex: SentimentLexicon,
) -> FeatureBatch:
    """TF-IDF block plus sentiment counts and the relevance flag, one row
    per sentence's tokens.

    Dimension is vocabulary size + 4; the three counts partition the
    sentence's tokens. The sentences make one word table, and each word
    type has its vocabulary column and its polarity's column looked up
    once, the latter in the lexicon's word -> polarity map.
    """
    if vocab_global is None:
        raise VocabNotFitted("task2_features requires a fitted global vocabulary")
    if any(isinstance(tokens, str) for tokens in sentences):  # a str is a sequence too, of characters
        raise TypeError("task2_features takes each sentence's tokens, not its text")
    if len(relevance_flags) != len(sentences):
        raise ValueError(f"{len(sentences)} sentences but {len(relevance_flags)} relevance flags")
    table = _WordTable(sentences)
    size = vocab_global.size
    column = _columns(vocab_global, table.types)[table.type]
    polarity_column = np.fromiter(map(sent_lex._place.get, map(str.lower, table.types), repeat(_NEUTRAL_COLUMN)),
                                  np.intp, len(table.types))
    values = np.zeros((len(sentences), size + len(TASK2_TAIL_NAMES)))
    known = column >= 0
    row = table.text
    values[row[known], column[known]] = tfidf_weights(table.count, table.length[row], vocab_global._idf[column])[known]
    tail = np.bincount(row * 3 + polarity_column[table.type], table.count, minlength=3 * len(sentences))
    values[:, size:size + 3] = tail.reshape(len(sentences), 3)
    values[:, -1] = relevance_flags
    return FeatureBatch(values, SCHEMA_TASK2)


# a count in a task-2 model file lies in [1, _COUNT_LIMIT): sums of three stay exact in float64
_COUNT_LIMIT = 2**31


def _token_counts(counts, indptr, indices, vocab: VocabularyModel):
    """Each entry's row, which entries lie in the TF-IDF block, and each row's token
    count, the sum of its three sentiment counts, of task-2 rows held as counts."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    term = indices < vocab.size
    sentiment = ~term & (indices < vocab.size + 3)
    return rows, term, np.bincount(rows[sentiment], counts[sentiment], minlength=len(indptr) - 1)


def task2_values(counts: np.ndarray, indptr: np.ndarray, indices: np.ndarray, vocab: VocabularyModel) -> np.ndarray:
    """The values of sparse task-2 rows stored as counts, in CSR form: row r holds
    ``counts[indptr[r]:indptr[r + 1]]`` at the columns ``indices[indptr[r]:indptr[r + 1]]``.

    A count in the TF-IDF block is a term count and becomes its ``tfidf_weights``
    with the row's token count; a count in the tail is the value itself. Raises
    ValueError, before any division, for a count that is not a whole number in
    [1, 2**31), a relevance flag other than 1 and a row whose term counts add up
    to more than its token count.
    """
    if not np.all((counts >= 1) & (counts < _COUNT_LIMIT) & (counts == np.floor(counts))):
        raise ValueError("must be counts: whole numbers in [1, 2**31)")
    if np.any(counts[indices == vocab.size + 3] != 1):
        raise ValueError("a relevance flag, when stored, must be 1")
    rows, term, length = _token_counts(counts, indptr, indices, vocab)
    if np.any(np.bincount(rows[term], counts[term], minlength=len(length)) > length):
        raise ValueError("a row's term counts add up to more than its token count, the sum of its sentiment counts")
    values = counts.astype(np.float64)
    values[term] = tfidf_weights(counts[term], length[rows[term]], vocab._idf[indices[term]])
    return values


def task2_counts(values: np.ndarray, indptr: np.ndarray, indices: np.ndarray, vocab: VocabularyModel) -> np.ndarray:
    """The integer counts, in the CSR form ``task2_values`` reads, of the task-2 rows
    that ``task2_features`` built as ``values``: each tail value, and each term's
    weight times its row's token count over its IDF, rounded."""
    counts = np.rint(values).astype(np.int64)  # the tail values are counts already
    rows, term, length = _token_counts(counts, indptr, indices, vocab)
    counts[term] = np.rint(values[term] * length[rows[term]] / vocab._idf[indices[term]])
    return counts
