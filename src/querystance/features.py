"""Similarity features for query-sentence pairs.

Two feature schemas:

* ``task1-v1``: five similarity scores in [0, 1] used for relevance
  classification (exact, stemmed, noun, gloss-neighborhood, cosine).
* ``task2-v1``: a TF-IDF bag-of-words block over a fitted vocabulary
  plus positive/negative/neutral word counts and a relevance flag,
  used for stance classification.

The features read analysed text (``textproc.analyse`` or
``textproc.tokenize`` output), never raw strings, so a caller analyses
each text once however many features read it. The task-1 features read
an analysis's token and stem counts, and ``task2_features`` counts each
sentence's tokens once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, VocabNotFitted
from .lexicons import (
    GlossDictionary,
    NounLexicon,
    Polarity,
    SentimentLexicon,
    gloss_first_k_sentences,
    is_noun,
    polarity,
)
from .textproc import Analysis

SCHEMA_TASK1 = "task1-v1"
SCHEMA_TASK2 = "task2-v1"

TASK1_FEATURE_NAMES = ("exact", "stemmed", "noun", "neighborhood", "cosine")

# the columns of a task-2 row after its TF-IDF block: a count per polarity, then the relevance flag
TASK2_TAIL_NAMES = ("positive_count", "negative_count", "neutral_count", "relevance_flag")
_POLARITY_COLUMNS = {p: TASK2_TAIL_NAMES.index(f"{p.value}_count") for p in Polarity}


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
    serialized models. Each term's IDF, ln(n_docs/df), is computed once.
    """

    terms: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    def __post_init__(self):
        if len(self.df) != len(self.terms):
            raise ValueError(f"{len(self.terms)} terms but {len(self.df)} df values")
        if self.df and not 1 <= min(self.df) <= max(self.df) <= self.n_docs:
            raise ValueError(f"every df must lie in [1, n_docs={self.n_docs}]")
        object.__setattr__(
            self, "_index", {term: i for i, term in enumerate(self.terms)}
        )
        object.__setattr__(self, "_idf", tuple(math.log(self.n_docs / df) for df in self.df))

    @property
    def size(self) -> int:
        return len(self.terms)

    def index_of(self, term: str) -> int | None:
        return self._index.get(term)


def dice_counts(query_counts: Mapping[str, int], sentence_counts: Mapping[str, int], n_tokens: int) -> float:
    """2 * common / n_tokens, from the two texts' word counts and their
    total token count.

    ``common`` is the size of the multiset intersection: a word counted
    twice in both texts contributes two matches.
    """
    if not n_tokens:
        return 0.0
    common = sum(min(query_counts[w], sentence_counts[w]) for w in query_counts.keys() & sentence_counts.keys())
    return 2.0 * common / n_tokens


def feature_exact(query: Analysis, sentence: Analysis) -> float:
    return dice_counts(query.counts, sentence.counts, len(query.tokens) + len(sentence.tokens))


def feature_stemmed(query: Analysis, sentence: Analysis) -> float:
    return dice_counts(query.stem_counts, sentence.stem_counts, len(query.tokens) + len(sentence.tokens))


def feature_noun(query: Analysis, sentence: Analysis, noun_lex: NounLexicon) -> float:
    """Fraction of distinct query nouns that appear in the sentence."""
    query_nouns = {t for t in query.counts if is_noun(noun_lex, t)}
    if not query_nouns:
        return 0.0
    return len(query_nouns.intersection(sentence.counts)) / len(query_nouns)


def feature_neighborhood(
    query: Analysis,
    sentence: Analysis,
    gloss_dict: GlossDictionary,
    matches: dict[str, tuple[str, ...]] | None = None,
) -> float:
    """Exact matching widened by dictionary glosses.

    A sentence word also matches a query word when the first
    GLOSS_SENTENCES sentences of its gloss mention that query word.
    Matches per distinct query word are capped at that word's count in
    the query, and the final score is clamped to [0, 1] (one sentence
    word may match several query words through its gloss).

    ``matches`` memoises, for this query only, the query words that each
    sentence word matches; ``task1_features`` keeps one per query for
    its batch, so that each (query, sentence word) pair looks up its
    gloss once.
    """
    n_tokens = len(query.tokens) + len(sentence.tokens)
    if not n_tokens:
        return 0.0
    if matches is None:
        matches = {}
    q_counts = query.counts
    matched: dict[str, int] = {}  # query word -> sentence tokens that match it
    for s_word, s_count in sentence.counts.items():
        words = matches.get(s_word)
        if words is None:
            gloss = gloss_first_k_sentences(gloss_dict, s_word)
            words = matches[s_word] = tuple(q_counts.keys() & {s_word, *gloss})
        for word in words:
            matched[word] = matched.get(word, 0) + s_count
    common = sum(min(count, q_counts[word]) for word, count in matched.items())
    return min(max(2.0 * common / n_tokens, 0.0), 1.0)


def fit_vocabulary(sentences: Sequence[Iterable[str]]) -> VocabularyModel:
    """Collect sorted distinct terms and sentence-level frequencies.

    Each sentence is given by its tokens, or by its distinct terms as a
    set such as ``Analysis.counts.keys()``.
    """
    if not sentences:
        raise EmptyCorpus("cannot fit a vocabulary on zero sentences")
    df_counts: Counter[str] = Counter()
    for terms in sentences:
        df_counts.update(terms if isinstance(terms, Set) else set(terms))
    terms = tuple(sorted(df_counts))
    return VocabularyModel(
        terms=terms,
        df=tuple(df_counts[t] for t in terms),
        n_docs=len(sentences),
    )


def tfidf_weights(vocab: VocabularyModel, counts: Mapping[str, int], n_tokens: int) -> dict[int, float]:
    """Sparse TF-IDF weights keyed by term index, from a text's term counts
    and its token count.

    TF is count/n_tokens, the denominator including out-of-vocabulary
    tokens; IDF is ln(n_docs/df). Terms absent from the vocabulary get
    no component. Absent key means weight 0. Weights are inserted in the
    order of ``counts``.
    """
    if vocab is None:
        raise VocabNotFitted("tfidf_weights requires a fitted vocabulary")
    index, idf = vocab._index, vocab._idf
    weights: dict[int, float] = {}
    for term, count in counts.items():
        idx = index.get(term)
        if idx is not None:
            weights[idx] = (count / n_tokens) * idf[idx]
    return weights


def _cosine(u: dict[int, float], v: dict[int, float]) -> float:
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    norm_v = math.sqrt(sum(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    dot = sum(w * v[i] for i, w in u.items() if i in v)
    return dot / (norm_u * norm_v)


def feature_cosine(
    query: Analysis,
    sentence: Analysis,
    vocab: VocabularyModel,
    query_weights: dict[int, float] | None = None,
) -> float:
    """TF-IDF cosine of query and sentence; ``query_weights`` is the query's
    ``tfidf_weights``, when the caller already has it."""
    if query_weights is None:
        query_weights = tfidf_weights(vocab, query.counts, len(query.tokens))
    return _cosine(query_weights, tfidf_weights(vocab, sentence.counts, len(sentence.tokens)))


def task1_features(
    triples: Iterable[tuple[Analysis, Analysis, VocabularyModel]],
    gloss_dict: GlossDictionary,
    noun_lex: NounLexicon,
) -> FeatureBatch:
    """The five relevance features, ordered as TASK1_FEATURE_NAMES, of each
    (query, sentence, vocabulary) triple, read one at a time.

    Each query's TF-IDF weights are computed once per vocabulary, and
    the gloss matches of each (query, sentence word) pair once per batch:
    both memos live for this call only.
    """
    query_weights: dict[tuple, tuple] = {}  # (query tokens, id(vocabulary)) -> (vocabulary, weights)
    gloss_matches: dict[tuple[str, ...], dict[str, tuple[str, ...]]] = {}  # query tokens -> its matches memo
    rows = []
    for query, sentence, vocab in triples:
        key = (query.tokens, id(vocab))
        if key not in query_weights:  # holding the vocabulary keeps its id from being reused
            query_weights[key] = (vocab, tfidf_weights(vocab, query.counts, len(query.tokens)))
        rows.append((
            feature_exact(query, sentence),
            feature_stemmed(query, sentence),
            feature_noun(query, sentence, noun_lex),
            feature_neighborhood(query, sentence, gloss_dict, gloss_matches.setdefault(query.tokens, {})),
            feature_cosine(query, sentence, vocab, query_weights[key][1]),
        ))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(TASK1_FEATURE_NAMES))
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
    sentence's tokens. Each sentence's tokens are counted once, and each
    distinct word of the batch has its polarity looked up once.
    """
    if vocab_global is None:
        raise VocabNotFitted("task2_features requires a fitted global vocabulary")
    size = vocab_global.size
    tail_columns = range(size, size + len(TASK2_TAIL_NAMES))
    rows: list[int] = []  # the batch's nonzeros, written into the matrix at once
    cols: list[int] = []
    data: list[float] = []
    polarity_column: dict[str, int] = {}  # word -> column of its polarity count; lives for this call
    for row, (tokens, flag) in enumerate(zip(sentences, relevance_flags, strict=True)):
        if isinstance(tokens, str):  # a str is a sequence too, of characters
            raise TypeError("task2_features takes each sentence's tokens, not its text")
        counts = Counter(tokens)
        weights = tfidf_weights(vocab_global, counts, len(tokens))
        tail = [0.0] * len(tail_columns)
        tail[-1] = 1.0 if flag else 0.0  # relevance_flag, the last of TASK2_TAIL_NAMES
        for word, count in counts.items():
            column = polarity_column.get(word)
            if column is None:
                column = polarity_column[word] = _POLARITY_COLUMNS[polarity(sent_lex, word)]
            tail[column] += count
        rows += [row] * (len(weights) + len(tail))
        cols += weights
        cols += tail_columns
        data += weights.values()
        data += tail
    values = np.zeros((len(sentences), tail_columns.stop))
    values[np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)] = data
    return FeatureBatch(values, SCHEMA_TASK2)
