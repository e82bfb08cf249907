"""Word resources: gloss dictionary, sentiment lexicon, noun list.

All three load from plain UTF-8 text files ('#' lines are comments),
and their entries do not change after loading. The noun list is a
frozenset of lowercase words; the sentiment lexicon builds its
word -> polarity map from its entries when it is made. The one thing that
grows is the gloss dictionary's token memo, filled lazily by
``memoise_glosses``, which tokenizes all the glosses a batch meets in
one ``tokenize_batch`` call, and read by ``gloss_first_k_sentences``:
keyed by term, it holds only dictionary hits, so it never has more
entries than the dictionary has terms. Two threads filling it at once
store equal values, so lookups stay thread-safe.
"""

from __future__ import annotations

import enum
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedLine, ScoreOutOfRange, reading_utf8
from .textproc import split_sentences, tokenize_batch

# the first gloss sentences that stand for a term in the neighborhood feature
GLOSS_SENTENCES = 3


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


# each polarity's place in the member order
_PLACE = {p: i for i, p in enumerate(Polarity)}


def data_lines(path: str | Path):
    """Yield (line_no, line) of a UTF-8 lexicon or config file, skipping a BOM, blank and '#' lines."""
    with open(path, encoding="utf-8-sig") as handle, reading_utf8(path):
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def _entries(path: str | Path, layout: str):
    """Yield (line_no, fields) of each line of a lexicon of ``layout`` (``term<TAB>gloss``, say):
    its tab-separated fields, the first, the term, trimmed, lowercased and not empty."""
    for line_no, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) != layout.count("<TAB>") + 1:
            raise MalformedLine(f"expected {layout}, got {len(fields)} fields", path, line=line_no)
        fields[0] = fields[0].strip().lower()
        if not fields[0]:
            raise MalformedLine("empty term", path, line=line_no)
        yield line_no, fields


@dataclass(frozen=True)
class GlossDictionary:
    """term -> gloss text; terms lowercase and unique.

    ``_tokens`` memoises ``gloss_first_k_sentences``: term -> the tokens
    of its first GLOSS_SENTENCES gloss sentences, for terms in ``entries``
    only. Equality and repr ignore it.
    """

    entries: dict[str, str] = field(default_factory=dict)
    _tokens: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SentimentLexicon:
    """term -> (pos_score, neg_score), both in [0, 1].

    ``_place`` maps each term to the place of its polarity in ``Polarity``'s
    member order. It is built once, from the entries, so a word's polarity
    costs one dict lookup; a word outside it is neutral.
    """

    entries: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_place", {
            term: _PLACE[_polarity_of(pos, neg)] for term, (pos, neg) in self.entries.items()})

    def __len__(self) -> int:
        return len(self.entries)


def load_gloss_dictionary(path: str | Path) -> GlossDictionary:
    """Load `term<TAB>gloss` lines; later duplicates win."""
    entries = {term: gloss.strip() for _, (term, gloss) in _entries(path, "term<TAB>gloss")}
    return GlossDictionary(entries=entries)


def memoise_glosses(gloss_dict: GlossDictionary, terms: Iterable[str]) -> None:
    """Put the tokens of the first GLOSS_SENTENCES sentences of the gloss of each
    of ``terms`` that the dictionary holds and its memo lacks into the memo, all
    tokenized in one ``tokenize_batch`` call. The memo stores interned tokens,
    so glosses that share words share their strings."""
    memo, entries = gloss_dict._tokens, gloss_dict.entries
    cold = [key for key in dict.fromkeys(map(str.lower, terms)) if key in entries and key not in memo]
    texts = [" ".join(split_sentences(entries[key])[:GLOSS_SENTENCES]) for key in cold]
    for key, tokens in zip(cold, tokenize_batch(texts)):
        memo[key] = tuple(map(sys.intern, tokens))


def gloss_first_k_sentences(gloss_dict: GlossDictionary, term: str) -> tuple[str, ...]:
    """Tokens of the first GLOSS_SENTENCES sentences of a term's gloss; () on a miss.

    A hit is split and tokenized once per dictionary (``memoise_glosses``),
    then served from the dictionary's memo.
    """
    key = term.lower()
    if key not in gloss_dict._tokens:
        memoise_glosses(gloss_dict, [key])
    return gloss_dict._tokens.get(key, ())


def load_sentiment_lexicon(path: str | Path) -> SentimentLexicon:
    """Load `term<TAB>pos<TAB>neg` lines.

    A term listed on several lines (one per word sense) ends up with
    the mean of its per-line scores.
    """
    sums: dict[str, tuple[float, float, int]] = {}
    for line_no, (term, pos, neg) in _entries(path, "term<TAB>pos<TAB>neg"):
        try:
            pos, neg = float(pos), float(neg)
        except ValueError as exc:
            raise MalformedLine(f"non-numeric score: {exc}", path, line=line_no) from exc
        for score in (pos, neg):
            if not 0.0 <= score <= 1.0:
                raise ScoreOutOfRange(f"score out of range: {score}", path, line=line_no)
        old_pos, old_neg, n = sums.get(term, (0.0, 0.0, 0))
        sums[term] = (old_pos + pos, old_neg + neg, n + 1)
    entries = {term: (p / n, m / n) for term, (p, m, n) in sums.items()}
    return SentimentLexicon(entries=entries)


def load_noun_lexicon(path: str | Path) -> frozenset[str]:
    """Load one word per line, lowercased; a line holds no tab."""
    return frozenset(word for _, (word,) in _entries(path, "word"))


def _polarity_of(pos: float, neg: float) -> Polarity:
    """Positive/negative by score comparison; a tie is neutral."""
    if pos > neg:
        return Polarity.POSITIVE
    if neg > pos:
        return Polarity.NEGATIVE
    return Polarity.NEUTRAL
