import string
import sys

from hypothesis import example, given, strategies as st

from querystance import textproc
from querystance.textproc import TABLE_CHARS, split_sentences, stem_tokens, tokenize, tokenize_batch

from oracles import tokenize_reference


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("Ram is a good boy") == ["ram", "is", "a", "good", "boy"]

    def test_punctuation_and_hyphen(self):
        assert tokenize("e-cigarettes, safer?") == ["e-cigarettes", "safer"]

    def test_empty(self):
        assert tokenize("") == []

    def test_edge_apostrophes_stripped(self):
        assert tokenize("'quoted' don't --dash--") == ["quoted", "don't", "dash"]

    def test_duplicates_and_order_kept(self):
        assert tokenize("b a b") == ["b", "a", "b"]

    def test_digits_kept(self):
        assert tokenize("vitamin C12 daily") == ["vitamin", "c12", "daily"]

    @given(st.text())
    @example("İstanbul")  # lowercases to i + combining dot above, which ends a token
    @example("Straße")
    @example("cafe\u0301 na\u0308ive")  # combining marks are not alphanumeric
    @example("½ cup")
    @example("x² + y²")
    @example("snake_case __init__")
    @example("--x--")
    @example("'a'")
    def test_equals_character_loop(self, text):
        assert tokenize(text) == tokenize_reference(text)

    def test_every_code_point_equals_character_loop(self):
        # each code point but the surrogates, between two letters: one that cannot be in a
        # token splits them, and one that lowercases to several characters is read as those
        points = [chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]
        for start in range(0, len(points), 1 << 12):
            text = "a".join(points[start:start + (1 << 12)])
            assert tokenize(text) == tokenize_reference(text), f"code points from U+{ord(points[start]):04X}"

    def test_table_stays_within_its_bound(self):
        # more distinct characters than the table keeps: CJK ideographs, each a token
        text = " ".join(map(chr, range(0x4E00, 0x4E00 + TABLE_CHARS + 100)))
        assert len(set(text)) > TABLE_CHARS
        assert tokenize(text) == tokenize_reference(text)
        assert len(textproc._SPACES) <= TABLE_CHARS
        assert tokenize("Ram is a good boy") == ["ram", "is", "a", "good", "boy"]

    @given(st.lists(st.text()))
    @example([])
    @example(["", ""])
    @example(["a'", "'b", "-", "c-"])  # edge apostrophes and hyphens on both sides of a text boundary
    @example(["\u0130", "x\u0130y", "Stra\u00dfe"])  # lowercasing changes the length of the first two
    @example(["a\x00b", "tab\tand\rcr", "\n"])
    def test_batch_equals_character_loop_per_text(self, texts):
        assert tokenize_batch(texts) == [tokenize_reference(text) for text in texts]

    @given(st.text(max_size=200))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(alphabet=string.ascii_letters + " .,!?-'0123456789", max_size=200))
    def test_tokens_well_formed(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert token.strip("'-") == token


class TestStemTokens:
    def test_elementwise(self):
        assert stem_tokens(["mangoes", "is"]) == ["mango", "is"]

    def test_empty(self):
        assert stem_tokens([]) == []

    def test_length_preserved(self):
        tokens = tokenize("studies show running helps dramatically")
        assert len(stem_tokens(tokens)) == len(tokens)


class TestSplitSentences:
    def test_four_sentences(self):
        assert split_sentences("A is B. C is D. E. F.") == ["A is B", "C is D", "E", "F"]

    def test_no_terminator(self):
        assert split_sentences("no terminator") == ["no terminator"]

    def test_abbreviation_limitation(self):
        # documented naive behaviour: "Dr." ends a sentence
        assert split_sentences("Dr. Smith agrees.") == ["Dr", "Smith agrees"]

    def test_decimal_not_split(self):
        assert split_sentences("pi is 3.14 roughly. yes.") == ["pi is 3.14 roughly", "yes"]

    def test_empty(self):
        assert split_sentences("") == []

    @given(st.text(max_size=300))
    def test_character_preservation(self, text):
        # dropping delimiters and whitespace, nothing else is lost
        def keep(c):
            return c not in ".!?" and not c.isspace()

        joined = "".join(split_sentences(text))
        assert [c for c in joined if keep(c)] == [c for c in text if keep(c)]
