"""Similarity features for query-sentence pairs.

Two feature schemas:

* ``task1-v1``: five similarity scores in [0, 1] used for relevance
  classification (exact, stemmed, noun, gloss-neighborhood, cosine).
* ``task2-v1``: a TF-IDF bag-of-words block over a fitted vocabulary
  plus positive/negative/neutral word counts and a relevance flag,
  used for stance classification.

The features read analysed text (``textproc.analyse`` or
``textproc.tokenize`` output), never raw strings, so a caller analyses
each text once however many features read it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

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

GLOSS_SENTENCES = 3


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


def dice_similarity(query_tokens: Sequence[str], sentence_tokens: Sequence[str]) -> float:
    """2 * common / (len(query) + len(sentence)).

    ``common`` counts words word-by-word: a word appearing twice in both
    lists contributes two matches (multiset intersection).
    """
    if not query_tokens and not sentence_tokens:
        return 0.0
    q_counts = Counter(query_tokens)
    s_counts = Counter(sentence_tokens)
    common = sum(min(count, s_counts[word]) for word, count in q_counts.items())
    return 2.0 * common / (len(query_tokens) + len(sentence_tokens))


def feature_exact(query: Analysis, sentence: Analysis) -> float:
    return dice_similarity(query.tokens, sentence.tokens)


def feature_stemmed(query: Analysis, sentence: Analysis) -> float:
    return dice_similarity(query.stems, sentence.stems)


def feature_noun(query: Analysis, sentence: Analysis, noun_lex: NounLexicon) -> float:
    """Fraction of distinct query nouns that appear in the sentence."""
    query_nouns = {t for t in query.token_set if is_noun(noun_lex, t)}
    if not query_nouns:
        return 0.0
    return len(query_nouns & sentence.token_set) / len(query_nouns)


def feature_neighborhood(query: Analysis, sentence: Analysis, gloss_dict: GlossDictionary) -> float:
    """Exact matching widened by dictionary glosses.

    A sentence word also matches a query word when the first
    GLOSS_SENTENCES sentences of its gloss mention that query word.
    Matches per distinct query word are capped at that word's count in
    the query, and the final score is clamped to [0, 1] (one sentence
    word may match several query words through its gloss).
    """
    if not query.tokens and not sentence.tokens:
        return 0.0
    q_counts = Counter(query.tokens)
    matched: Counter[str] = Counter()  # query word -> sentence tokens that match it
    for s_word, s_count in Counter(sentence.tokens).items():
        gloss = gloss_first_k_sentences(gloss_dict, s_word, GLOSS_SENTENCES)
        for word in q_counts.keys() & {s_word, *gloss}:
            matched[word] += s_count
    common = sum(min(matched[word], q_count) for word, q_count in q_counts.items())
    score = 2.0 * common / (len(query.tokens) + len(sentence.tokens))
    return min(max(score, 0.0), 1.0)


def fit_vocabulary(sentences: Sequence[Sequence[str]]) -> VocabularyModel:
    """Collect sorted distinct terms and sentence-level frequencies."""
    if not sentences:
        raise EmptyCorpus("cannot fit a vocabulary on zero sentences")
    df_counts: Counter[str] = Counter()
    for tokens in sentences:
        df_counts.update(set(tokens))
    terms = tuple(sorted(df_counts))
    return VocabularyModel(
        terms=terms,
        df=tuple(df_counts[t] for t in terms),
        n_docs=len(sentences),
    )


def tfidf_vector(vocab: VocabularyModel, tokens: Sequence[str]) -> dict[int, float]:
    """Sparse TF-IDF weights keyed by term index.

    TF is count/len(tokens) with the denominator including
    out-of-vocabulary tokens; IDF is ln(n_docs/df). Terms absent from
    the vocabulary get no component. Absent key means weight 0.
    """
    if vocab is None:
        raise VocabNotFitted("tfidf_vector requires a fitted vocabulary")
    if not tokens:
        return {}
    total = len(tokens)
    weights: dict[int, float] = {}
    for term, count in Counter(tokens).items():
        idx = vocab.index_of(term)
        if idx is None:
            continue
        weights[idx] = (count / total) * vocab._idf[idx]
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
    ``tfidf_vector``, when the caller already has it."""
    if query_weights is None:
        query_weights = tfidf_vector(vocab, query.tokens)
    return _cosine(query_weights, tfidf_vector(vocab, sentence.tokens))


def task1_features(
    triples: Iterable[tuple[Analysis, Analysis, VocabularyModel]],
    gloss_dict: GlossDictionary,
    noun_lex: NounLexicon,
) -> FeatureBatch:
    """The five relevance features, ordered as TASK1_FEATURE_NAMES, of each
    (query, sentence, vocabulary) triple, read one at a time.

    Each query's TF-IDF weights are computed once per vocabulary.
    """
    query_weights: dict[tuple, tuple] = {}  # (query tokens, id(vocabulary)) -> (vocabulary, weights)
    rows = []
    for query, sentence, vocab in triples:
        key = (query.tokens, id(vocab))
        if key not in query_weights:  # holding the vocabulary keeps its id from being reused
            query_weights[key] = (vocab, tfidf_vector(vocab, query.tokens))
        rows.append((
            feature_exact(query, sentence),
            feature_stemmed(query, sentence),
            feature_noun(query, sentence, noun_lex),
            feature_neighborhood(query, sentence, gloss_dict),
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
    sentence's tokens.
    """
    if vocab_global is None:
        raise VocabNotFitted("task2_features requires a fitted global vocabulary")
    values = np.zeros((len(sentences), vocab_global.size + 4))
    for row, tokens, flag in zip(values, sentences, relevance_flags, strict=True):
        if isinstance(tokens, str):  # a str is a sequence too, of characters
            raise TypeError("task2_features takes each sentence's tokens, not its text")
        for idx, weight in tfidf_vector(vocab_global, tokens).items():
            row[idx] = weight
        counts = Counter(polarity(sent_lex, t) for t in tokens)
        row[-4:] = (counts[Polarity.POSITIVE], counts[Polarity.NEGATIVE], counts[Polarity.NEUTRAL],
                    1.0 if flag else 0.0)
    return FeatureBatch(values, SCHEMA_TASK2)
