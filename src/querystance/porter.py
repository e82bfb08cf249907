"""Porter suffix-stripping stemmer.

Five-step rule cascade over a consonant/vowel skeleton, as used by
classic IR systems. The rule set follows the widely deployed reference
behaviour (including its departures from the 1980 journal text: the
``bli`` and ``logi`` rules in step 2, and the fixed point for words of
length one or two).

Only lowercase ASCII-alphabetic words are stemmed; anything else
(hyphenated tokens, digits, non-ASCII) is returned unchanged.
"""

from __future__ import annotations

import functools

# distinct words the stem memo keeps, least recently used first out; a
# corpus's working vocabulary is a few thousand words
STEM_CACHE_WORDS = 1 << 15

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y acts as a vowel when it follows a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions: the m of [C](VC)^m[V]."""
    shape = "".join("c" if _is_consonant(stem, i) else "v" for i in range(len(stem)))
    return shape.count("vc")


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending, final consonant not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if not word.endswith("s"):
        return word
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word

    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word

    # suffix removed: repair the stem ending
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs, applied when the remaining stem has m > 0.
# The first suffix that matches ends the search whether or not its
# measure condition passes.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

# step 4 strips the suffix outright when the stem has m > 1; longer
# variants of a family must come before their shorter tails.
_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ou", "ism", "ate",
    "iti", "ous", "ive", "ize",
)


def _apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


def _step2(word: str) -> str:
    return _apply_rules(word, _STEP2_RULES, 0)


def _step3(word: str) -> str:
    return _apply_rules(word, _STEP3_RULES, 0)


def _step4(word: str) -> str:
    if word.endswith("ion"):
        stem = word[:-3]
        if stem and stem[-1] in "st":
            if _measure(stem) > 1:
                return stem
            return word
        # -ion without s/t falls through to the plain suffix table
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        m = _measure(word)
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


@functools.lru_cache(maxsize=STEM_CACHE_WORDS)
def porter_stem(word: str) -> str:
    """Stem one lowercase word.

    Words of length <= 2 and words containing anything other than the
    letters a-z are fixed points. A stem depends on the word alone, so
    results are memoised, for at most STEM_CACHE_WORDS words.
    """
    if len(word) <= 2 or not all("a" <= ch <= "z" for ch in word):
        return word
    for step in (_step1a, _step1b, _step1c, _step2, _step3, _step4, _step5):
        word = step(word)
    return word
