import pytest
from hypothesis import given, strategies as st

from querystance.errors import MalformedLine, ScoreOutOfRange
from querystance.features import TASK2_TAIL_NAMES, WordTable, feature_noun, fit_vocabulary, task2_features
from querystance.lexicons import (
    GlossDictionary,
    Polarity,
    SentimentLexicon,
    gloss_first_k_sentences,
    load_gloss_dictionary,
    load_noun_lexicon,
    load_sentiment_lexicon,
)

MELANOMA_GLOSS = (
    "Melanoma is a type of skin cancer. It develops from melanocytes. "
    "It is dangerous. Early detection matters."
)


def polarity(lexicon: SentimentLexicon, word: str) -> Polarity:
    """The polarity whose count a one-word task-2 row raises, read from the row's tail columns."""
    counts = task2_features(WordTable.of([[word]]), [0], [False], fit_vocabulary([[word]]), lexicon).to_dense()[0, -4:-1]
    assert sorted(counts.tolist()) == [0.0, 0.0, 1.0]
    return Polarity(TASK2_TAIL_NAMES[int(counts.argmax())].removesuffix("_count"))


@pytest.fixture
def gloss_file(tmp_path):
    path = tmp_path / "gloss.tsv"
    path.write_text(f"melanoma\t{MELANOMA_GLOSS}\nespresso\tA strong coffee.\n", encoding="utf-8")
    return path


class TestGlossDictionary:
    def test_load_single_entry(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(f"melanoma\t{MELANOMA_GLOSS}\n", encoding="utf-8")
        d = load_gloss_dictionary(path)
        assert len(d) == 1
        assert "skin cancer" in d.entries.get("melanoma")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("", encoding="utf-8")
        d = load_gloss_dictionary(path)
        assert len(d) == 0
        assert d.entries.get("anything") is None

    def test_line_without_tab(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("melanoma no tab here\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_gloss_dictionary(path)

    def test_later_duplicate_wins(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("t\tfirst gloss.\nt\tsecond gloss.\n", encoding="utf-8")
        assert load_gloss_dictionary(path).entries.get("t") == "second gloss."

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# a comment line\nt\tgloss.\n", encoding="utf-8")
        assert len(load_gloss_dictionary(path)) == 1


class TestGlossFirstK:
    def test_first_three_sentences(self, gloss_file):
        d = load_gloss_dictionary(gloss_file)
        tokens = gloss_first_k_sentences(d, "melanoma")
        assert "skin" in tokens and "cancer" in tokens
        assert "detection" not in tokens  # fourth sentence excluded

    def test_unknown_term(self, gloss_file):
        d = load_gloss_dictionary(gloss_file)
        assert gloss_first_k_sentences(d, "unknown") == ()

    def test_short_gloss_clamped(self, gloss_file):
        d = load_gloss_dictionary(gloss_file)
        assert gloss_first_k_sentences(d, "espresso") == ("a", "strong", "coffee")

    def test_memo_holds_only_hits(self, gloss_file):
        d = load_gloss_dictionary(gloss_file)
        for i in range(10_000):
            assert gloss_first_k_sentences(d, f"absent{i}") == ()
        assert d._tokens == {}
        for _ in range(3):
            for term in ("melanoma", "Espresso", "espresso", "unknown"):
                gloss_first_k_sentences(d, term)
        assert len(d._tokens) == len(d.entries) == 2

    def test_memo_serves_what_a_fresh_split_gives(self, gloss_file):
        d = load_gloss_dictionary(gloss_file)
        first = gloss_first_k_sentences(d, "Melanoma")
        assert gloss_first_k_sentences(d, "melanoma") is first
        assert first == gloss_first_k_sentences(load_gloss_dictionary(gloss_file), "melanoma")
        assert d._tokens == {"melanoma": first}  # keyed by the lowercased term alone

    def test_equality_and_repr_ignore_memo(self, gloss_file):
        used, fresh = load_gloss_dictionary(gloss_file), load_gloss_dictionary(gloss_file)
        gloss_first_k_sentences(used, "melanoma")
        assert used._tokens and not fresh._tokens
        assert used == fresh
        assert repr(used) == repr(fresh) == f"GlossDictionary(entries={used.entries!r})"
        assert GlossDictionary() == GlossDictionary(entries={})


class TestSentimentLexicon:
    def test_basic_entry(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("good\t0.75\t0.0\n", encoding="utf-8")
        lex = load_sentiment_lexicon(path)
        assert lex.entries["good"] == (0.75, 0.0)

    def test_duplicates_averaged(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("cold\t0.0\t0.25\ncold\t0.0\t0.75\n", encoding="utf-8")
        lex = load_sentiment_lexicon(path)
        assert lex.entries["cold"] == (0.0, 0.5)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("bad\t1.5\t0.0\n", encoding="utf-8")
        with pytest.raises(ScoreOutOfRange):
            load_sentiment_lexicon(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("bad\t0.5\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_sentiment_lexicon(path)

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("bad\thigh\t0.0\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_sentiment_lexicon(path)


class TestPolarity:
    def test_positive(self):
        lex = SentimentLexicon(entries={"good": (0.75, 0.0)})
        assert polarity(lex, "good") is Polarity.POSITIVE

    def test_negative(self):
        lex = SentimentLexicon(entries={"bad": (0.1, 0.6)})
        assert polarity(lex, "bad") is Polarity.NEGATIVE

    def test_miss_is_neutral(self):
        assert polarity(SentimentLexicon(), "anything") is Polarity.NEUTRAL

    def test_tie_is_neutral(self):
        lex = SentimentLexicon(entries={"meh": (0.5, 0.5), "void": (0.0, 0.0)})
        assert polarity(lex, "meh") is Polarity.NEUTRAL
        assert polarity(lex, "void") is Polarity.NEUTRAL

    @given(st.text(max_size=20))
    def test_total_function(self, word):
        lex = SentimentLexicon(entries={"good": (0.9, 0.0)})
        assert polarity(lex, word) in (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)

    def test_partition_counts(self):
        lex = SentimentLexicon(
            entries={"a": (0.9, 0.0), "b": (0.0, 0.9), "c": (0.2, 0.2), "d": (0.8, 0.1)}
        )
        kinds = [polarity(lex, w) for w in lex.entries]
        assert kinds.count(Polarity.POSITIVE) + kinds.count(Polarity.NEGATIVE) + kinds.count(
            Polarity.NEUTRAL
        ) == len(lex.entries)


class TestNounLexicon:
    def test_membership(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("cancer\nsun\n# comment\n", encoding="utf-8")
        nouns = load_noun_lexicon(path)
        assert "cancer" in nouns
        assert "is" not in nouns

    def test_lowercasing(self):
        assert feature_noun(["Cancer"], ["Cancer"], frozenset({"cancer"})) == 1.0

    def test_no_stem_fallback(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("cancer\n", encoding="utf-8")
        nouns = load_noun_lexicon(path)
        assert "cancers" not in nouns

    def test_roundtrip_every_loaded_term(self, tmp_path):
        path = tmp_path / "n.txt"
        words = ["alpha", "beta", "gamma"]
        path.write_text("\n".join(words) + "\n", encoding="utf-8")
        nouns = load_noun_lexicon(path)
        assert nouns == frozenset(words)
        assert "delta" not in nouns
