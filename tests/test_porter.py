import random

import pytest
from hypothesis import given, strategies as st

from querystance.porter import porter_stem

from _porter_reference import stem_word as reference_stem


class TestKnownStems:
    def test_plural_strip(self):
        assert porter_stem("mangoes") == "mango"

    @pytest.mark.parametrize(
        "word,stem",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("rational", "ration"),
            ("generalization", "gener"),
            ("oscillators", "oscil"),
            ("highly", "highli"),
            ("adoption", "adopt"),
            ("replacement", "replac"),
        ],
    )
    def test_reference_values(self, word, stem):
        # frozen from the vendored reference implementation
        assert porter_stem(word) == stem

    def test_short_words_fixed(self):
        for word in ("a", "i", "is", "be", "by"):
            assert porter_stem(word) == word

    def test_non_alpha_unchanged(self):
        for word in ("e-cigarettes", "don't", "c12", "naïve", "Mixed"):
            assert porter_stem(word) == word


class TestVocabularyAgreement:
    def test_agreement_at_least_99_9_percent(self, porter_pairs):
        assert len(porter_pairs) >= 20000
        mismatches = [
            (word, expected, porter_stem(word))
            for word, expected in porter_pairs
            if porter_stem(word) != expected
        ]
        agreement = 1.0 - len(mismatches) / len(porter_pairs)
        assert agreement >= 0.999, f"agreement {agreement:.5f}, first: {mismatches[:10]}"


class TestProperties:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
    def test_never_lengthens_never_empty(self, word):
        stem = porter_stem(word)
        assert stem
        assert len(stem) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
    def test_matches_reference(self, word):
        assert porter_stem(word) == reference_stem(word)

    def test_idempotence_spot_check(self, porter_pairs):
        # stemming a stem is usually a no-op; exceptions exist (e.g.
        # -ion words whose stem re-enters a rule) but stay rare
        rng = random.Random(42)
        sample = rng.sample(porter_pairs, 100)
        exceptions = []
        for word, _ in sample:
            once = porter_stem(word)
            twice = porter_stem(once)
            if twice != once:
                exceptions.append((word, once, twice))
            # the reference oracle must behave identically on both forms
            assert once == reference_stem(word)
            assert twice == reference_stem(once)
        assert len(exceptions) <= 5, exceptions


class TestMemo:
    def test_bounded(self):
        info = porter_stem.cache_info()
        assert info.maxsize is not None and 0 < info.maxsize < 1 << 20
        assert info.currsize <= info.maxsize

    def test_memoised_equals_unmemoised(self, porter_pairs):
        for word, _ in porter_pairs[:2000]:
            assert porter_stem(word) == porter_stem(word) == porter_stem.__wrapped__(word)
