import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as npst

from querystance import lexicons as lexicons_module, pipeline
from querystance.codec import FieldError
from querystance.corpus import SentenceRecord
from querystance.errors import EmptyCorpus, VocabNotFitted
from querystance import features as features_module
from querystance.features import (
    SparseRows,
    TASK2_TAIL_NAMES,
    VocabularyModel,
    WordTable,
    feature_cosine,
    feature_exact,
    feature_neighborhood,
    feature_noun,
    feature_stemmed,
    fit_vocabulary,
    task1_features,
    task2_features,
)
from querystance.lexicons import GlossDictionary, SentimentLexicon, load_sentiment_lexicon
from querystance.svm import predict_batch
from querystance.textproc import tokenize

from oracles import (
    cosine,
    cosine_bruteforce,
    dice_bruteforce,
    dice_counts,
    idf_reference,
    left_to_right,
    noun_bruteforce,
    polarity_reference,
    task1_features_reference,
    task2_features_reference,
    task2_tokens_reference,
    tfidf_reference,
    tokenize_reference,
    word_table_reference,
)
from synth import GLOSSES, make_records

WORDS = ["sun", "cancer", "skin", "cause", "is", "a", "the", "cell", "risk", "study"]

tokens_strategy = st.lists(st.sampled_from(WORDS), max_size=12)


def dice(query, sentence) -> float:
    """``dice_counts`` of two token lists."""
    return dice_counts(Counter(query), Counter(sentence), len(query) + len(sentence))


def task1_of(triples, gloss_dict, nouns, fitted=None):
    """The task-1 batch of (query tokens, sentence tokens, vocabulary) triples: row i
    pairs text i of a word table of the sentences with its query and vocabulary."""
    queries = [(query, vocab) for query, _, vocab in triples]
    return task1_features(queries, WordTable.of([sentence for _, sentence, _ in triples]), gloss_dict, nouns, fitted)


def task2_of(sentences, flags, vocab, sent_lex):
    """The task-2 batch of token lists: every text of a word table of them, in order."""
    return task2_features(WordTable.of(sentences), range(len(sentences)), flags, vocab, sent_lex)


def tfidf(vocab, tokens) -> dict[str, float]:
    """The TF-IDF block of a token list's task-2 row, by term."""
    row = task2_of([tokens], [False], vocab, SentimentLexicon()).to_dense()[0]
    return dict(zip(vocab.terms, row[:vocab.size].tolist()))


class TestDiceSimilarity:
    def test_worked_example(self):
        query = ["ram", "is", "a", "good", "boy"]
        sentence = ["shyam", "is", "a", "bad", "boy"]
        assert dice(query, sentence) == 0.6

    def test_identity(self):
        assert dice(["x", "y"], ["x", "y"]) == 1.0

    def test_disjoint(self):
        assert dice(["x"], ["y"]) == 0.0

    def test_both_empty(self):
        assert dice([], []) == 0.0

    def test_repeats_use_multiset_counts(self):
        # "a" matches only once: min(1, 2)
        assert dice(["a", "b"], ["a", "a"]) == 2 * 1 / 4

    @given(tokens_strategy, tokens_strategy)
    def test_symmetric_and_bounded(self, q, s):
        value = dice(q, s)
        assert value == dice(s, q)
        assert 0.0 <= value <= 1.0

    @given(tokens_strategy, tokens_strategy)
    def test_one_iff_equal_multisets(self, q, s):
        value = dice(q, s)
        if value == 1.0:
            assert sorted(q) == sorted(s) and q
        if q and sorted(q) == sorted(s):
            assert value == 1.0

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(300):
            q = [rng.choice(WORDS) for _ in range(rng.randrange(0, 10))]
            s = [rng.choice(WORDS) for _ in range(rng.randrange(0, 10))]
            assert abs(dice(q, s) - dice_bruteforce(q, s)) <= 1e-12


class TestExactAndStemmed:
    def test_exact_worked_example(self):
        assert feature_exact(tokenize("Ram is a good boy"), tokenize("Shyam is a bad boy")) == 0.6

    def test_exact_self(self):
        assert feature_exact(tokenize("any query here"), tokenize("any query here")) == 1.0

    def test_exact_empty_sentence(self):
        assert feature_exact(tokenize("query"), tokenize("")) == 0.0

    def test_stemmed_collapses_inflection(self):
        assert feature_stemmed(tokenize("mango"), tokenize("mangoes")) == 1.0
        assert feature_exact(tokenize("mango"), tokenize("mangoes")) == 0.0

    def test_stemmed_empty(self):
        assert feature_stemmed(tokenize(""), tokenize("")) == 0.0

    def test_stemmed_rarely_below_exact(self, synthetic_records):
        rng = random.Random(5)
        pairs = [(rng.choice(synthetic_records), rng.choice(synthetic_records)) for _ in range(200)]
        below = sum(
            feature_stemmed(tokenize(a.query_text), tokenize(b.sentence_text))
            < feature_exact(tokenize(a.query_text), tokenize(b.sentence_text))
            for a, b in pairs
        )
        assert below / len(pairs) < 0.05


class TestNounFeature:
    LEX = frozenset({"sun", "exposure", "cancer", "skin"})

    def test_one_of_three(self):
        value = feature_noun(tokenize("sun exposure cancer"), tokenize("cancer ward stories"), self.LEX)
        assert value == pytest.approx(1 / 3)

    def test_no_query_nouns(self):
        assert feature_noun(tokenize("is a the"), tokenize("cancer"), self.LEX) == 0.0

    def test_all_present(self):
        assert feature_noun(tokenize("sun cancer"), tokenize("cancer under the sun"), self.LEX) == 1.0

    def test_matches_bruteforce(self):
        rng = random.Random(23)
        for _ in range(200):
            nouns = frozenset(rng.sample(WORDS, rng.randrange(0, 6)))
            q = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 8)))
            s = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 8)))
            expected = noun_bruteforce(q.split(), s.split(), nouns)
            assert feature_noun(tokenize(q), tokenize(s), nouns) == pytest.approx(expected, abs=1e-15)


class TestNeighborhoodFeature:
    GLOSS = GlossDictionary(
        entries={
            "melanoma": "Melanoma is a type of skin cancer. It develops from melanocytes. It spreads.",
        }
    )

    def test_gloss_widens_match(self):
        # "melanoma" is not in the query, but its gloss mentions "cancer"
        query = "skin cancer risks factor now"
        with_gloss = feature_neighborhood(tokenize(query), tokenize("melanoma risks"), self.GLOSS)
        without = feature_exact(tokenize(query), tokenize("melanoma risks"))
        assert with_gloss > without
        # "risks" matches exactly; "melanoma" matches "skin" and "cancer"
        # via its gloss: common = 3 over lengths 5 + 2
        assert with_gloss == pytest.approx(2 * 3 / 7)

    def test_empty_gloss_reduces_to_exact(self):
        empty = GlossDictionary()
        rng = random.Random(7)
        for _ in range(200):
            q = tokenize(" ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 8))))
            s = tokenize(" ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 8))))
            assert feature_neighborhood(q, s, empty) == pytest.approx(feature_exact(q, s))

    def test_never_below_exact(self):
        rng = random.Random(9)
        for _ in range(200):
            q = tokenize(" ".join(rng.choice(WORDS + ["melanoma"]) for _ in range(rng.randrange(0, 8))))
            s = tokenize(" ".join(rng.choice(WORDS + ["melanoma"]) for _ in range(rng.randrange(0, 8))))
            assert feature_neighborhood(q, s, self.GLOSS) >= feature_exact(q, s) - 1e-15

    def test_clamped_to_unit_interval(self):
        # one sentence word matching two query words can inflate the count
        value = feature_neighborhood(tokenize("skin cancer"), tokenize("melanoma"), self.GLOSS)
        assert value == 1.0


class TestVocabulary:
    def test_counting(self):
        vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
        assert vocab.terms == ("a", "b", "c")
        assert vocab.df == (1, 2, 1)
        assert vocab.n_docs == 2

    def test_single_sentence(self):
        vocab = fit_vocabulary([["x", "y", "x"]])
        assert vocab.df == (1, 1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_vocabulary([])

    def test_roundtrip_dict(self):
        vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
        from querystance.codec import from_doc, to_doc
        from querystance.features import VocabularyModel

        again = from_doc(VocabularyModel, to_doc(vocab), "vocab")
        assert again.terms == vocab.terms and again.df == vocab.df

    @pytest.mark.parametrize("terms", [("a", "a"), ("b", "a"), ("a", "c", "b")])
    def test_terms_must_strictly_increase(self, terms):
        with pytest.raises(ValueError, match="terms: must be strictly increasing"):
            VocabularyModel(terms, (1,) * len(terms), 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6).flatmap(
        lambda n_docs: st.tuples(st.just(n_docs), st.lists(st.integers(1, n_docs), max_size=60))))
    def test_idf_is_the_per_term_log(self, n_docs_and_df):
        """One log per distinct df gives each term's ln(n_docs / df), bit for bit, and 0.0 after the last."""
        n_docs, df = n_docs_and_df
        vocab = VocabularyModel(tuple(f"t{i:03d}" for i in range(len(df))), tuple(df), n_docs)
        expected = [math.log(n_docs / d) for d in df] + [0.0]
        assert vocab._idf.dtype == np.float64
        assert vocab._idf.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["sun", "skin", "risk", "cancer", "tan"]), max_size=6), min_size=1,
                    max_size=8),
           st.lists(st.sampled_from(["sun", "cancer", "zebra", "of"]), max_size=4))
    @example([["sun", "sun"], [], ["risk", "sun"]], ["zebra", "sun", "sun"])
    def test_unseen_query_idf_is_the_fitted_idf(self, sentences, query):
        """The IDF of a query read from its rows' word table is ``fit_vocabulary``'s over
        their sentences, gathered per word type, bit for bit: a repeated sentence counts
        again, an empty one holds no word and a query word in no sentence reads 0.0.
        Rows that name their query id get the features and the vocabulary of rows
        that hold that fitted vocabulary."""
        sentences = sentences + sentences[:2]
        table = WordTable.of(sentences)
        types = table.types + [word for word in dict.fromkeys(query) if word not in table.index]  # df 0 after the table's
        idf = features_module._idf(np.bincount(table.type, minlength=len(types)), len(sentences))
        vocab = fit_vocabulary(sentences)
        assert idf.tobytes() == vocab._idf[[vocab._index.get(word, -1) for word in types]].tobytes()
        assert idf.tobytes() == np.array(idf_reference(sentences, types)).tobytes()
        fitted = {}
        n = len(sentences)
        named = task1_features([(query, "q")] * n, table, GlossDictionary(), frozenset(), fitted).to_dense()
        given_vocabulary = task1_features([(query, vocab)] * n, table, GlossDictionary(), frozenset()).to_dense()
        assert named.tobytes() == given_vocabulary.tobytes()
        assert (fitted["q"].terms, fitted["q"].df, fitted["q"].n_docs) == (vocab.terms, vocab.df, vocab.n_docs)


class TestWordTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["sun", "Sun", "skin", "risk", "a", "tan"]), max_size=8), max_size=10),
           st.booleans())
    @example([], False)  # an empty batch
    @example([[], ["sun", "sun", "skin"], [], ["skin", "risk", "sun", "skin"]], False)
    @example([["sun", "skin"], [], ["skin", "risk", "sun"]], True)
    def test_of_equals_the_counter_reference(self, texts, as_sets):
        """The table counted in one ``np.unique`` pass is the one a ``Counter`` per text
        gives: ``types`` and ``index`` equal, and ``type``, ``count``, ``length`` and
        ``sizes`` equal in bytes and dtype, for token lists and for sets (which
        ``fit_vocabulary`` takes), empty texts and empty batches included, and words
        repeated within and across texts."""
        if as_sets:
            texts = [set(text) for text in texts]
        table = WordTable.of(texts)
        types, index, *arrays = word_table_reference(texts)
        assert table.types == types and table.index == index
        for name, expected in zip(("type", "count", "length", "sizes"), arrays):
            got = getattr(table, name)
            assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes()), name


class TestTfidf:
    def test_ubiquitous_term_weight_zero(self):
        vocab = fit_vocabulary([["a", "b"], ["a", "c"]])
        assert tfidf(vocab, ["a"])["a"] == 0.0

    def test_worked_arithmetic(self):
        vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
        assert tfidf(vocab, ["a", "a"])["a"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_out_of_vocab_gets_no_slot(self):
        vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
        weights = tfidf(vocab, ["zzz"])
        assert list(weights) == ["a", "b", "c"] and not any(weights.values())

    def test_oov_still_inflates_denominator(self):
        vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
        assert tfidf(vocab, ["a", "zzz"])["a"] == pytest.approx(tfidf(vocab, ["a"])["a"] / 2)

    def test_empty_tokens(self):
        vocab = fit_vocabulary([["a"]])
        assert not any(tfidf(vocab, []).values())

    def test_unfitted_vocab(self):
        with pytest.raises(VocabNotFitted):
            feature_cosine(["a"], ["a"], None)


class TestCosine:
    CORPUS = [["sun", "causes", "cancer"], ["sun", "is", "bright"], ["cancer", "research"]]

    def test_identical_vectors(self):
        vocab = fit_vocabulary(self.CORPUS)
        assert feature_cosine(tokenize("sun cancer"), tokenize("sun cancer"), vocab) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        vocab = fit_vocabulary(self.CORPUS)
        assert feature_cosine(tokenize("bright is"), tokenize("cancer research"), vocab) == 0.0

    def test_zero_norm_query(self):
        vocab = fit_vocabulary(self.CORPUS)
        assert feature_cosine(tokenize("unknownword"), tokenize("sun cancer"), vocab) == 0.0

    def test_hand_arithmetic(self):
        vocab = fit_vocabulary(self.CORPUS)
        got = feature_cosine(tokenize("sun cancer"), tokenize("sun causes cancer"), vocab)
        l2, l3 = math.log(3 / 2), math.log(3.0)
        expected = math.sqrt(2) * l2 / math.sqrt(2 * l2 * l2 + l3 * l3)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_sums_add_left_to_right(self):
        # squared weights whose left-to-right sum differs from the exact one
        vocab = fit_vocabulary([["b"], ["h", "f", "c", "f", "b"], ["g", "g", "e"], ["e", "d", "f"],
                                ["b", "c", "a", "g"], ["c"]])
        query, sentence = tokenize("f h"), tokenize("g a g a f h")
        u, v = tfidf_reference(vocab, query), tfidf_reference(vocab, sentence)
        squares = [w * w for w in v.values()]
        assert left_to_right(squares) != math.fsum(squares)
        exact_sums = math.fsum(w * v[i] for i, w in u.items() if i in v) / (
            math.sqrt(math.fsum(w * w for w in u.values())) * math.sqrt(math.fsum(squares)))
        assert feature_cosine(query, sentence, vocab) == cosine(u, v) != exact_sums

    def test_matches_bruteforce_cosine(self):
        vocab = fit_vocabulary(self.CORPUS)
        u = tfidf_reference(vocab, ["sun", "cancer"])
        v = tfidf_reference(vocab, ["sun", "causes", "cancer"])
        assert feature_cosine(tokenize("sun cancer"), tokenize("sun causes cancer"), vocab) == pytest.approx(
            cosine_bruteforce(u, v), abs=1e-12
        )


class TestTask1Vector:
    LEX = frozenset({"sun", "cancer"})
    GLOSS = GlossDictionary()

    def _row(self, query, sentence, vocab):
        batch = task1_features([(tokenize(query), vocab)], WordTable.of([tokenize(sentence)]), self.GLOSS, self.LEX)
        assert (batch.rows, batch.dims) == (1, 5)
        return batch.to_dense()[0]

    def test_self_pair(self):
        vocab = fit_vocabulary([["sun", "cancer", "risk"], ["bright", "day"]])
        tokens = tokenize("sun cancer risk")
        batch = task1_features([(tokens, vocab)], WordTable.of([tokens]), self.GLOSS, self.LEX)
        assert batch.dims == 5
        np.testing.assert_allclose(batch.to_dense(), [[1.0, 1.0, 1.0, 1.0, 1.0]], atol=1e-12)

    def test_self_pair_without_nouns(self):
        vocab = fit_vocabulary([["nothing", "here"], ["sun", "up"]])
        assert self._row("nothing here", "nothing here", vocab)[2] == 0.0

    def test_unrelated_pair_mostly_zero(self):
        vocab = fit_vocabulary([["sun", "cancer"], ["violin", "pottery"]])
        np.testing.assert_allclose(self._row("sun cancer", "violin pottery", vocab), np.zeros(5), atol=1e-12)

    def test_components_in_unit_interval(self, synthetic_records, synthetic_lexicons):
        rng = random.Random(2)
        vocab = fit_vocabulary(
            [rec.sentence_text.split() for rec in synthetic_records[:40]]
        )
        triples = [
            (tokenize(rng.choice(synthetic_records).query_text), tokenize(rng.choice(synthetic_records).sentence_text),
             vocab)
            for _ in range(1000)
        ]
        values = task1_of(triples, synthetic_lexicons.gloss, synthetic_lexicons.nouns).to_dense()
        assert values.shape == (1000, 5)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_empty_batch(self):
        assert task1_features([], WordTable.of([]), self.GLOSS, self.LEX).to_dense().shape == (0, 5)

    def test_cosine_column_is_each_rows_cosine(self):
        vocabs = [fit_vocabulary([["sun", "cancer"], ["skin", "risk"]]), fit_vocabulary([["sun", "risk"]])]
        queries = [tokenize("sun cancer"), tokenize("skin risk sun")]
        sentences = [tokenize(text) for text in ("sun cancer risk", "skin", "the sun", "risk risk cancer")]
        triples = [(q, s, v) for v in vocabs for q in queries for s in sentences]
        batch = task1_of(triples, self.GLOSS, self.LEX)
        assert np.array_equal(batch.to_dense()[:, 4], [feature_cosine(q, s, v) for q, s, v in triples])

    def test_text_instead_of_tokens_rejected(self):
        with pytest.raises(TypeError):
            task1_features([("sun", fit_vocabulary([["sun"]]))], WordTable.of([["sun"]]), self.GLOSS, self.LEX)

    def test_unfitted_vocab(self):
        with pytest.raises(VocabNotFitted):
            task1_features([(["sun"], None)], WordTable.of([["sun"]]), self.GLOSS, self.LEX)

    def test_query_id_rows_must_share_query_words(self):
        with pytest.raises(ValueError, match="the rows of query 'q' hold different query words"):
            task1_features([(["sun"], "q"), (["skin"], "q")], WordTable.of([["sun"], ["sun"]]), self.GLOSS, self.LEX)

    def test_given_table_holds_one_sentence_per_row(self):
        with pytest.raises(ValueError, match="2 rows but a word table of 1 sentences"):
            task1_features([(["sun"], "q")] * 2, WordTable.of([["sun"]]), self.GLOSS, self.LEX)


class TestTask2Vector:
    LEX = SentimentLexicon(entries={"good": (0.9, 0.0), "bad": (0.0, 0.9)})

    def test_sentiment_counts(self):
        vocab = fit_vocabulary([["good", "day"], ["bad", "day"]])
        batch = task2_of([tokenize("good good bad")], [True], vocab, self.LEX)
        assert batch.dims == vocab.size + 4
        assert tuple(batch.to_dense()[0, -4:]) == (2.0, 1.0, 0.0, 1.0)

    def test_empty_sentence(self):
        vocab = fit_vocabulary([["good"]])
        batch = task2_of([[]], [False], vocab, self.LEX)
        assert (batch.rows, batch.dims) == (1, vocab.size + 4) and not batch.values.any()
        assert task2_of([], [], vocab, self.LEX).to_dense().shape == (0, vocab.size + 4)

    def test_sparse_rows_count_their_nonzeros(self):
        vocab = fit_vocabulary([["good", "day"], ["bad", "day"]])  # "day" is in both: its IDF is 0
        batch = task2_of([tokenize("good day zebra"), [], tokenize("bad bad")], [True, False, False], vocab, self.LEX)
        assert batch.dims == vocab.size + 4
        # good's weight, positive 1, neutral 2 and the flag; nothing; bad's weight and negative 2
        assert np.count_nonzero(batch.to_dense()) == len(batch.values) == 6
        assert batch.indptr.tolist() == [0, 4, 4, 6]

    # words of the vocabulary, one of them ("day") in every sentence it is fitted on,
    # and words outside it
    WORDS = ["good", "bad", "day", "sun", "zebra", "Good", "meh"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(WORDS), max_size=8), st.booleans()), max_size=10))
    @example([])
    @example([(["zebra", "meh"], True), ([], False), (["day", "day"], False), (["good", "Good", "sun"], True)])
    def test_sparse_rows_equal_dense_reference(self, rows):
        """The rows built sparse, from a word table of their sentences alone or from
        some texts of one that holds other texts too, store no zero, are the
        dense reference rows, bit for bit, and are stored as ``SparseRows.from_dense``
        stores their dense matrix: each row in column order."""
        sentences, flags = [tokens for tokens, _ in rows], [flag for _, flag in rows]
        vocab = fit_vocabulary([["good", "day", "sun"], ["bad", "day"], ["day"]])
        expected = np.array([task2_tokens_reference(t, f, vocab, self.LEX) for t, f in rows])
        expected = expected.reshape(len(rows), vocab.size + 4)
        table = WordTable.of([["zebra", "sun"], *sentences, ["bad"]])
        for given, texts in ((WordTable.of(sentences), range(len(rows))), (table, range(1, len(rows) + 1))):
            batch = task2_features(given, texts, flags, vocab, self.LEX)
            dense = batch.to_dense()
            assert dense.shape == (len(rows), vocab.size + 4)
            assert dense.tobytes() == expected.tobytes()
            assert np.all(batch.values != 0.0) and len(batch.values) == np.count_nonzero(expected)
            # each row's columns strictly increase, as those of the dense matrix's nonzero entries
            reference = SparseRows.from_dense(dense)
            for name in ("indptr", "indices", "values"):
                a, b = getattr(batch, name), getattr(reference, name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name

    # a batch of sentences, and text ids of it (a subset, reordered, repeated or none), each with a flag
    asked_batches = st.lists(st.lists(st.sampled_from(WORDS), max_size=8), max_size=8).flatmap(
        lambda sentences: st.tuples(st.just(sentences), st.lists(
            st.tuples(st.integers(0, len(sentences) - 1), st.booleans()), max_size=12) if sentences else st.just([])))

    @settings(max_examples=100, deadline=None)
    @given(asked_batches)
    @example(([], []))
    @example(([["sun"], ["bad"]], []))
    @example(([["good", "day"], [], ["bad", "Good", "bad"], ["zebra"]], [(2, True), (0, False), (2, False), (1, True)]))
    def test_rows_read_in_place_equal_a_table_of_their_texts(self, batch):
        """The rows of some text ids of a word table, read in place, are those of a
        table of these texts alone, in the bytes and dtypes of ``indptr``, ``indices``
        and ``values``, and their dense matrix is the dense reference rows."""
        sentences, asked = batch
        texts, flags = [t for t, _ in asked], [flag for _, flag in asked]
        vocab = fit_vocabulary([["good", "day", "sun"], ["bad", "day"], ["day"]])
        got = task2_features(WordTable.of(sentences), texts, flags, vocab, self.LEX)
        alone = task2_of([sentences[t] for t in texts], flags, vocab, self.LEX)
        for name in ("indptr", "indices", "values"):
            a, b = getattr(got, name), getattr(alone, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        expected = [task2_tokens_reference(sentences[t], flag, vocab, self.LEX) for t, flag in asked]
        assert got.to_dense().tobytes() == np.array(expected).reshape(len(asked), vocab.size + 4).tobytes()

    def test_relevance_flag(self):
        vocab = fit_vocabulary([["good"]])
        assert list(task2_of([["x"], ["x"]], [True, False], vocab, self.LEX).to_dense()[:, -1]) == [1.0, 0.0]

    def test_unfitted_vocab(self):
        with pytest.raises(VocabNotFitted):
            task2_features(WordTable.of([["x"]]), [0], [True], None, self.LEX)

    def test_one_flag_per_sentence(self):
        with pytest.raises(ValueError):
            task2_features(WordTable.of([["good"], ["day"]]), [0, 1], [True], fit_vocabulary([["good"]]), self.LEX)

    @given(st.lists(st.sampled_from(["good", "bad", "day", "sun"]), max_size=15))
    def test_counts_partition_tokens(self, words):
        vocab = fit_vocabulary([["good", "bad", "day"]])
        sentence = " ".join(words)
        row = task2_of([tokenize(sentence)], [True], vocab, self.LEX).to_dense()[0]
        assert row[-4] + row[-3] + row[-2] == len(words)

    def test_dimension_constant_across_sentences(self, synthetic_records, synthetic_lexicons):
        vocab = fit_vocabulary([r.sentence_text.split() for r in synthetic_records])
        records = synthetic_records[:20]
        batch = task2_of(
            [tokenize(r.sentence_text) for r in records], [True] * len(records), vocab, synthetic_lexicons.sentiment
        )
        assert batch.to_dense().shape == (20, vocab.size + 4)


def _task2_rows(rows):
    """The ``SparseRows`` that ``task2_features`` builds of (tokens, flag) rows."""
    vocab = fit_vocabulary([["good", "day", "sun"], ["bad", "day"], ["day"]])
    return task2_of([tokens for tokens, _ in rows], [flag for _, flag in rows], vocab, TestTask2Vector.LEX)


class TestSparseRows:
    """``SparseRows`` checks its own form wherever rows are made, a caller's too."""

    ORDER = "columns must strictly increase within a row"

    @pytest.mark.parametrize("indices, problem", [
        ([0, 0], ORDER),  # a column twice in a row, which the kernel read in two ways
        ([2, 1], ORDER),
        ([-1], "a column lies outside [0, 3)"),  # which numpy would read as column 2
        ([3], "a column lies outside [0, 3)"),
    ])
    def test_a_row_breaking_the_column_rule_is_refused(self, indices, problem):
        with pytest.raises(FieldError) as info:
            SparseRows(3, np.array([0, len(indices)]), np.array(indices), np.ones(len(indices)))
        assert (info.value.field, info.value.problem) == ("indices", problem)

    @pytest.mark.parametrize("dims, indptr, indices, values, field, problem", [
        (3, [[0, 1]], [0], [1.0], "indptr", "must be a flat list"),
        (3, [0, 1], [0], [[1.0]], "values", "must be a flat list"),
        (-1, [0], [], [], "dims", "must be >= 0, got -1"),
        (3, [], [], [], "indptr", "must start at 0 and never decrease"),
        (3, [1, 1], [0], [1.0], "indptr", "must start at 0 and never decrease"),
        (3, [0, 2, 1], [0, 1], [1.0, 1.0], "indptr", "must start at 0 and never decrease"),
        (3, [0, 1], [0, 1], [1.0, 1.0], "indptr", "ends at 1, not at the 2 indices"),
        (3, [0, 1], [0], [1.0, 2.0], "values", "2 values for 1 indices"),
    ])
    def test_malformed_fields_are_refused_naming_the_field(self, dims, indptr, indices, values, field, problem):
        with pytest.raises(FieldError) as info:
            SparseRows(dims, np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64), np.array(values))
        assert (info.value.field, info.value.problem) == (field, problem)

    built = st.one_of(
        npst.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 8)),
                    elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.5])).map(SparseRows.from_dense),
        st.lists(st.tuples(st.lists(st.sampled_from(TestTask2Vector.WORDS), max_size=8), st.booleans()),
                 max_size=6).map(_task2_rows),
    )

    @settings(max_examples=100, deadline=None)
    @given(built, st.data())
    def test_built_rows_pass_and_a_row_out_of_order_is_refused(self, rows, data):
        """Every row set that ``from_dense`` and ``task2_features`` build passes the
        check when made again, and the same rows with two entries of one row swapped,
        or with an entry's column repeating the one before it, are refused."""
        replace(rows)
        stored = np.diff(rows.indptr)
        if not (stored >= 2).any():
            return
        row = data.draw(st.sampled_from(np.flatnonzero(stored >= 2).tolist()))
        i = data.draw(st.integers(rows.indptr[row], rows.indptr[row + 1] - 2))
        j = data.draw(st.integers(i + 1, rows.indptr[row + 1] - 1))
        order = np.arange(len(rows.indices))
        order[[i, j]] = j, i
        repeated = rows.indices.copy()
        repeated[i + 1] = repeated[i]
        for changed in ({"indices": rows.indices[order], "values": rows.values[order]}, {"indices": repeated}):
            with pytest.raises(FieldError) as info:
                replace(rows, **changed)
            assert (info.value.field, info.value.problem) == ("indices", self.ORDER)


class TestAnalysedPathEqualsStringOracles:
    """Tokenizing each text once gives the values that re-tokenizing each text
    in every feature gives, bit for bit."""

    # gloss terms stand in for the query nouns their glosses mention
    SYNONYMS = {"coffee": "espresso", "sleep": "insomnia", "pain": "backache", "soda": "cola"}

    @pytest.fixture(scope="class")
    def records(self, synthetic_records):
        assert set(self.SYNONYMS.values()) <= set(GLOSSES)
        swapped = [
            replace(r, sentence_text=" ".join(self.SYNONYMS.get(w, w) for w in r.sentence_text.split()))
            for r in synthetic_records
        ]
        odd = [
            replace(r, sentence_text="Espresso's -- COFFEE_time, 'cola' x² ½ İnsomnia!")
            for r in synthetic_records[::40]
        ]
        return synthetic_records + swapped + odd

    def test_task1(self, records, synthetic_lexicons):
        lex = synthetic_lexicons
        vocabularies = {}
        batch = pipeline.task1_rows(records, {}, lex, fitted=vocabularies)
        got = batch.to_dense()
        expected = np.array([
            task1_features_reference(
                r.query_text, r.sentence_text, vocabularies[r.query_id], lex.gloss, lex.nouns
            )
            for r in records
        ])
        assert np.array_equal(got, expected)
        assert np.any(got[:, 3] > got[:, 0])  # some gloss hit widens a match

    def test_task2(self, records, synthetic_lexicons):
        vocab = fit_vocabulary([tokenize(r.sentence_text) for r in records])
        sentiment = synthetic_lexicons.sentiment
        flags = [i % 2 == 0 for i in range(len(records))]
        got = task2_of([tokenize(r.sentence_text) for r in records], flags, vocab, sentiment).to_dense()
        expected = [task2_features_reference(r.sentence_text, flag, vocab, sentiment) for r, flag in zip(records, flags)]
        assert np.array_equal(got, np.array(expected))


class TestCountPathEqualsStringOracles:
    """Features read from word counts, with per-batch memos, equal the string
    oracles that re-tokenize every text for every feature."""

    GLOSS = GlossDictionary(entries={
        "melanoma": "Melanoma is a type of skin cancer. It spreads. The sun may cause it. Not this sentence: risk.",
        "tan": "A tan is skin darkened by the sun.",
        "ray": "Light from the sun. Rays raise the risk of cancer, and cancer again.",
    })
    NOUNS = frozenset({"sun", "cancer", "skin", "risk"})
    SENTIMENT = SentimentLexicon(entries={"good": (0.8, 0.1), "bad": (0.0, 0.7), "risk": (0.2, 0.5), "sun": (0.3, 0.3)})
    # query words, gloss terms naming them, inflections, and words outside every lexicon
    POOL = ["sun", "cancer", "skin", "risk", "cause", "causes", "melanoma", "tan", "ray", "rays",
            "good", "bad", "the", "is", "zebra", "studies", "studying", "Sun", "SKIN"]

    texts = st.lists(st.sampled_from(POOL), max_size=10).map(" ".join)
    corpora = st.lists(texts, min_size=1, max_size=4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(texts, min_size=2, max_size=2), st.lists(texts, min_size=1, max_size=6), corpora, corpora)
    @example(["sun cancer sun skin", "risk risk"], ["", "melanoma tan sun sun", "zebra"], ["sun skin"], ["zebra"])
    def test_task1_batch(self, queries, sentences, corpus_a, corpus_b):
        vocabs = [fit_vocabulary([tokenize(t) for t in corpus]) for corpus in (corpus_a, corpus_b)]
        tokens = {q: tokenize(q) for q in queries}  # one token list per query, fresh ones per sentence
        keys = [(q, s, v) for v in vocabs for q in queries for s in sentences]
        got = task1_of([(tokens[q], tokenize(s), v) for q, s, v in keys], self.GLOSS, self.NOUNS).to_dense()
        expected = [task1_features_reference(q, s, v, self.GLOSS, self.NOUNS) for q, s, v in keys]
        assert np.array_equal(got, np.array(expected).reshape(len(keys), 5))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(texts, max_size=6), corpora, corpora)
    @example(["", "good good bad zebra", "risk sun Sun"], ["good risk"], ["the"])
    def test_task2_batch(self, sentences, corpus_a, corpus_b):
        flags = [i % 3 == 0 for i in range(len(sentences))]
        for corpus in (corpus_a, corpus_b):
            vocab = fit_vocabulary([tokenize(t) for t in corpus])
            got = task2_of([tokenize(s) for s in sentences], flags, vocab, self.SENTIMENT).to_dense()
            expected = [task2_features_reference(s, f, vocab, self.SENTIMENT) for s, f in zip(sentences, flags)]
            assert np.array_equal(got, np.array(expected).reshape(len(sentences), vocab.size + 4))


class TestBatchPathEqualsStringOracles:
    """``pipeline.task1_rows`` and chunked task-2 prediction give the rows
    that the string oracles and one whole-batch call give."""

    POOL = TestCountPathEqualsStringOracles.POOL
    GLOSS = TestCountPathEqualsStringOracles.GLOSS
    NOUNS = TestCountPathEqualsStringOracles.NOUNS
    # q1 has a model vocabulary; q2 and q3 are fitted over their rows of the batch
    QUERIES = {"q1": "sun cancer Sun skin", "q2": "risk of the tan", "q3": ""}
    MODEL = {"q1": fit_vocabulary([tokenize(t) for t in ("sun risk", "cancer cancer skin", "melanoma")])}

    sentences = st.lists(st.sampled_from(POOL), max_size=6).map(" ".join)
    batches = st.lists(st.tuples(st.sampled_from(sorted(QUERIES)), st.sampled_from(["", "sun tan tan"]) | sentences),
                       max_size=10)

    @settings(max_examples=80, deadline=None)
    @given(batches)
    @example([])
    @example([("q2", "")])
    @example([("q1", "melanoma ray rays"), ("q2", "sun tan tan"), ("q1", "melanoma ray rays"), ("q3", "sun")])
    def test_task1_rows(self, rows):
        records = [SentenceRecord(qid, self.QUERIES[qid], text) for qid, text in rows]
        lexicons = pipeline.LexiconSet(gloss=self.GLOSS, sentiment=SentimentLexicon(), nouns=self.NOUNS)
        fitted = {}
        batch = pipeline.task1_rows(records, self.MODEL, lexicons, fitted=fitted)
        assert sorted(fitted) == sorted({qid for qid, _ in rows} - set(self.MODEL))
        for qid, vocab in fitted.items():
            df = Counter(w for r in records if r.query_id == qid for w in set(tokenize_reference(r.sentence_text)))
            assert (vocab.terms, vocab.df) == (tuple(sorted(df)), tuple(df[t] for t in sorted(df)))
        vocabularies = {**self.MODEL, **fitted}
        expected = [task1_features_reference(r.query_text, r.sentence_text, vocabularies[r.query_id],
                                             self.GLOSS, self.NOUNS) for r in records]
        assert np.array_equal(batch.to_dense(), np.array(expected).reshape(len(records), 5))

    def test_predict_task2_chunks_equal_one_batch(self, synthetic_lexicons, monkeypatch):
        """``predict_task2`` asks the model once, with the rows of all 300 records (the
        SVM reads them 128 at a time), and those rows are ``task2_features``'s."""
        records = make_records(seed=4, per_query=60)
        relevance = [r.relevance for r in records]
        trained = pipeline.train_task2(records[:100], relevance[:100], synthetic_lexicons, pipeline.PipelineConfig())
        calls = []
        monkeypatch.setattr(pipeline, "predict_batch", lambda model, batch: calls.append(batch.to_dense()) or
                            predict_batch(model, batch))
        pipeline.predict_task2(trained, records, relevance)
        whole = task2_of([tokenize(r.sentence_text) for r in records], [flag == "relevant" for flag in relevance],
                         trained.task2.vocabulary, synthetic_lexicons.sentiment)
        assert len(calls) == 1
        assert np.array_equal(calls[0], whole.to_dense())


class TestPerBatchMemos:
    """Glosses are looked up at most once per word type of a batch, within one
    batch call and not across calls; polarities come from a map that each
    sentiment lexicon builds once."""

    GLOSS = TestCountPathEqualsStringOracles.GLOSS
    NOUNS = TestCountPathEqualsStringOracles.NOUNS
    SENTIMENT = TestCountPathEqualsStringOracles.SENTIMENT

    def _counting(self, monkeypatch, name):
        import querystance.features as features

        calls = []
        original = getattr(features, name)
        monkeypatch.setattr(features, name, lambda lexicon, word, *rest: calls.append(word) or original(lexicon, word, *rest))
        return calls

    def test_one_gloss_lookup_per_sentence_word_type(self, monkeypatch):
        calls = self._counting(monkeypatch, "gloss_first_k_sentences")
        vocab = fit_vocabulary([["sun", "skin"], ["risk"]])
        queries = [tokenize("sun cancer skin"), tokenize("risk of skin")]
        sentences = ["melanoma tan melanoma sun", "sun sun zebra", "", "tan risk"]
        triples = [(q, tokenize(s), vocab) for q in queries for s in sentences * 2]
        task1_of(triples, self.GLOSS, self.NOUNS)
        # of the sentence words melanoma, tan, sun, zebra and risk, the two the dictionary glosses
        assert sorted(calls) == ["melanoma", "tan"]
        task1_of(triples, self.GLOSS, self.NOUNS)  # a second call starts afresh
        assert sorted(calls) == ["melanoma", "melanoma", "tan", "tan"]

    def test_rows_group_by_query_words(self, monkeypatch):
        """A query tokenized afresh for each row joins the group of its words and
        vocabulary, and the values are those of one shared list per query. The word
        table is read, not changed, though it lacks query words, and no other table
        is built."""
        import querystance.features as features

        vocabs = [fit_vocabulary([["sun", "cancer"], ["skin", "risk"]]), fit_vocabulary([["sun", "risk", "tan"]])]
        queries = ["sun cancer Sun skin", "risk of the tan"]
        sentences = ["melanoma tan sun sun", "", "risk risk cancer", "zebra skin"]
        # the first query comes back with the first vocabulary after the other groups' rows
        keys = [(q, s, v) for v in vocabs for q in queries for s in sentences] + [
            (queries[0], s, vocabs[0]) for s in sentences]
        shared = {q: tokenize(q) for q in queries}
        table = WordTable.of([tokenize(s) for _, s, _ in keys])
        types, index = list(table.types), dict(table.index)
        assert not {"of", "the"} & set(types)  # query words that no sentence holds
        expected = task1_features([(shared[q], v) for q, _, v in keys], table, self.GLOSS, self.NOUNS).to_dense()
        tables = []
        of = features.WordTable.of
        monkeypatch.setattr(features.WordTable, "of", lambda texts: tables.append(texts) or of(texts))
        got = task1_features([(tokenize(q), v) for q, _, v in keys], table, self.GLOSS, self.NOUNS).to_dense()
        assert np.array_equal(got, expected)
        assert np.array_equal(got, task1_of([(shared[q], tokenize(s), v) for q, s, v in keys], self.GLOSS,
                                            self.NOUNS).to_dense())
        assert len(tables) == 1  # task1_of's own table
        assert (table.types, table.index) == (types, index)

    def test_polarity_map_built_once_per_lexicon(self, monkeypatch):
        calls = []
        original = lexicons_module._polarity_of
        monkeypatch.setattr(lexicons_module, "_polarity_of", lambda pos, neg: calls.append((pos, neg)) or original(pos, neg))
        sentiment = SentimentLexicon(entries=dict(self.SENTIMENT.entries))
        assert sorted(calls) == sorted(self.SENTIMENT.entries.values())  # once per entry, at construction
        vocab = fit_vocabulary([["good", "sun"]])
        sentences = [tokenize(s) for s in ("good good bad", "bad zebra good", "", "risk sun Sun")]
        first = task2_of(sentences, [True] * 4, vocab, sentiment)
        second = task2_of(sentences, [True] * 4, vocab, sentiment)
        assert len(calls) == len(self.SENTIMENT.entries)  # and never per call
        assert np.array_equal(first.to_dense(), second.to_dense())
        assert first.to_dense()[:, -4:-1].tolist() == [[2, 1, 0], [1, 1, 1], [0, 0, 0], [0, 1, 2]]

    # lexicon lines: terms that repeat (one line per sense) and differ in case, scores that tie
    lines = st.lists(st.tuples(st.sampled_from(["good", "Good", "bad", "meh", "sun", "SUN", "risk"]),
                               st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)), max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(lines)
    @example([("meh", 0.0, 0.0), ("good", 0.75, 0.25), ("Good", 0.25, 0.5), ("sun", 0.5, 0.5)])
    def test_polarity_map_agrees_with_polarity(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("sentiment") / "sentiment.tsv"
        path.write_text("".join(f"{term}\t{pos!r}\t{neg!r}\n" for term, pos, neg in lines), encoding="utf-8")
        sentiment = load_sentiment_lexicon(path)
        columns = {term: TASK2_TAIL_NAMES.index(f"{polarity_reference(sentiment, term).value}_count")
                   for term in sentiment.entries}
        assert sentiment._place == columns
        words = [*sentiment.entries, "zebra", *(term.upper() for term in sentiment.entries), "Zebra"]
        tails = task2_of([[w] for w in words], [False] * len(words), fit_vocabulary([["zebra"]]),
                         sentiment).to_dense()[:, -4:-1]
        expected = [TASK2_TAIL_NAMES.index(f"{polarity_reference(sentiment, w).value}_count") for w in words]
        assert tails.tolist() == [[float(j == column) for j in range(3)] for column in expected]
