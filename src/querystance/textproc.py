"""Tokenization, stemming, sentence splitting and per-text analysis.

Normalization layer for every similarity feature: lowercase word
tokens, Porter stems, and a deliberately naive sentence splitter used
only on short dictionary glosses. ``analyse`` gives one text's tokens
in the form the per-row ``feature_*`` functions take.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .porter import porter_stem

__all__ = ["Analysis", "analyse", "tokenize", "porter_stem", "stem_tokens", "split_sentences"]

# a run of word characters, apostrophes and hyphens; '_' is replaced by a
# space first, since \w matches it but it does not belong in a token
_TOKEN = re.compile(r"[\w'-]+")
# sentence ends at . ! or ? followed by whitespace or end of text
_SENTENCE_BREAK = re.compile(r"[.!?](?=\s|$)")


class Analysis(NamedTuple):
    """One text, analysed once: its tokens."""

    tokens: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, in order, duplicates kept.

    Splits on any character that is not a letter, digit, apostrophe or
    hyphen (``str.isalnum()`` is ``\\w`` without ``_``), then strips
    apostrophes and hyphens from token edges. Empty input gives an
    empty list.
    """
    return [t for raw in _TOKEN.findall(text.lower().replace("_", " ")) if (t := raw.strip("'-"))]


def stem_tokens(tokens: list[str]) -> list[str]:
    """Elementwise Porter stem; length and order preserved."""
    return [porter_stem(t) for t in tokens]


def analyse(text: str) -> Analysis:
    """The tokens of ``text``, interned: a word repeated across texts is one string."""
    return Analysis(tuple(map(sys.intern, tokenize(text))))


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation; drops the delimiters.

    No abbreviation handling: "Dr. Smith" splits after "Dr". Good
    enough for dictionary glosses, which is all this is used for.
    """
    parts = _SENTENCE_BREAK.split(text)
    return [s for part in parts if (s := part.strip())]
