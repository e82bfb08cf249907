"""Tokenization, stemming and sentence splitting.

Normalization layer for every similarity feature: lowercase word
tokens, Porter stems, and a deliberately naive sentence splitter used
only on short dictionary glosses. A text's token list, as ``tokenize``
returns it, is how the feature functions read a query, and what a
batch's word table of its sentences (``features.WordTable``) counts.

``tokenize_batch`` is the one tokenizer; ``tokenize`` is a batch of one.
It splits through one translation table, which maps each character that
cannot be in a token to a space, and it translates a batch's texts in
one ``str.translate`` call over the texts joined by spaces: each call
looks every distinct character of its input up in the table again, so
one call per batch pays that once, where one call per text paid it for
every text. The table fills itself as characters are met and holds at
most TABLE_CHARS of them (one more per thread that adds a character at
the same moment): once full, it is emptied and fills again. Each entry
depends on its character alone, so two threads filling it at once, or
one emptying it while another reads it, store or recompute equal
values, and tokenizing stays thread-safe.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import repeat

from .porter import porter_stem

__all__ = ["tokenize", "tokenize_batch", "porter_stem", "stem_tokens", "split_sentences"]

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

# str.strip's argument for each token: the characters stripped from its edges
_EDGES = repeat("'-")


def tokenize_batch(texts: Sequence[str]) -> list[list[str]]:
    """Each text's lowercase word tokens, in order, duplicates kept.

    Splits on any character that is not a letter, digit, apostrophe or
    hyphen (``str.isalnum()``, so ``_`` splits too), then strips
    apostrophes and hyphens from token edges. An empty text gives an
    empty list. The lowered texts are translated as one string, joined by
    spaces, and each is sliced back out of it by its lowered length, which
    the translation keeps.
    """
    lowered = [text.lower() for text in texts]
    spaced = " ".join(lowered).translate(_SPACES)
    tokens, start = [], 0
    for text in lowered:
        end = start + len(text)
        tokens.append(list(filter(None, map(str.strip, spaced[start:end].split(), _EDGES))))
        start = end + 1
    return tokens


def tokenize(text: str) -> list[str]:
    """The tokens of one text: ``tokenize_batch([text])[0]``."""
    return tokenize_batch([text])[0]


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
