"""Tokenization, stemming and sentence splitting.

Normalization layer for every similarity feature: lowercase word
tokens, Porter stems, and a deliberately naive sentence splitter used
only on short dictionary glosses. A text's token list, as ``tokenize``
returns it, is the one form every feature function takes.
"""

from __future__ import annotations

import re

from .porter import porter_stem

__all__ = ["tokenize", "porter_stem", "stem_tokens", "split_sentences"]

# a run of word characters, apostrophes and hyphens; '_' is replaced by a
# space first, since \w matches it but it does not belong in a token
_TOKEN = re.compile(r"[\w'-]+")
# sentence ends at . ! or ? followed by whitespace or end of text
_SENTENCE_BREAK = re.compile(r"[.!?](?=\s|$)")


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


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation; drops the delimiters.

    No abbreviation handling: "Dr. Smith" splits after "Dr". Good
    enough for dictionary glosses, which is all this is used for.
    """
    parts = _SENTENCE_BREAK.split(text)
    return [s for part in parts if (s := part.strip())]
