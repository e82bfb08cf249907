"""Tokenization, stemming and sentence splitting.

Normalization layer for every similarity feature: lowercase word
tokens, Porter stems, and a deliberately naive sentence splitter used
only on short dictionary glosses. A text's token list, as ``tokenize``
returns it, is how the feature functions read a query, and what a
batch's word table of its sentences (``features.WordTable``) counts.

``tokenize`` splits through one translation table, which maps each
character that cannot be in a token to a space. The table fills itself
as characters are met and holds at most TABLE_CHARS of them (one more
per thread that adds a character at the same moment): once full, it is
emptied and fills again. Each entry depends on its character alone, so
two threads filling it at once, or one emptying it while another reads
it, store or recompute equal values, and tokenizing stays thread-safe.
"""

from __future__ import annotations

import re

from .porter import porter_stem

__all__ = ["tokenize", "porter_stem", "stem_tokens", "split_sentences"]

# distinct characters the translation table keeps; ASCII, Latin-1 and the
# scripts of a few languages fit many times over
TABLE_CHARS = 1 << 12

# sentence ends at . ! or ? followed by whitespace or end of text
_SENTENCE_BREAK = re.compile(r"[.!?](?=\s|$)")


class _SpaceTable(dict):
    """``str.translate`` table: a code point -> 32 (a space) for a character that
    cannot be in a token, -> itself for a letter, digit, apostrophe or hyphen."""

    def __missing__(self, code: int) -> int:
        char = chr(code)
        mapped = code if char.isalnum() or char in "'-" else 32
        if len(self) >= TABLE_CHARS:
            self.clear()
        self[code] = mapped
        return mapped


_SPACES = _SpaceTable()


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, in order, duplicates kept.

    Splits on any character that is not a letter, digit, apostrophe or
    hyphen (``str.isalnum()``, so ``_`` splits too), then strips
    apostrophes and hyphens from token edges. Empty input gives an
    empty list.
    """
    words = text.lower().translate(_SPACES).split()
    return [t for raw in words if (t := raw.strip("'-"))]


def stem_tokens(tokens: list[str]) -> list[str]:
    """Elementwise Porter stem; length and order preserved."""
    return list(map(porter_stem, tokens))


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation; drops the delimiters.

    No abbreviation handling: "Dr. Smith" splits after "Dr". Good
    enough for dictionary glosses, which is all this is used for.
    """
    parts = _SENTENCE_BREAK.split(text)
    return [s for part in parts if (s := part.strip())]
