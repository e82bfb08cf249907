"""Exception hierarchy shared across the package.

Every data or modelling error raised by this package derives from
:class:`QueryStanceError`, so callers (and the CLI) can catch one type.
Its constructor, the only one here, builds every message from the
parts given: ``BadLabel(problem, path, row=3)`` reads
``<path>: row 3: <problem>``, ``line=`` names a line instead, and
``field=`` a config key or model field path after either. Without a
path the message is the problem alone. The subclasses only name the
kind of error.
"""

from __future__ import annotations

import contextlib


class QueryStanceError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, problem: str, path=None, *, row: int | None = None,
                 line: int | None = None, field: str | None = None):
        where = [] if path is None else [path, row and f"row {row}", line and f"line {line}", field]
        super().__init__(": ".join(str(part) for part in (*where, problem) if part))
        self.path, self.row, self.line, self.field = path, row, line, field


class NotUtf8(QueryStanceError):
    """A dataset, lexicon, prediction or config file is not UTF-8 text."""


@contextlib.contextmanager
def reading_utf8(path):
    """Raise NotUtf8 naming ``path`` for a decoding error inside the block."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"not UTF-8 text: {exc}", path) from exc


# --- corpus ---------------------------------------------------------------

class MissingColumn(QueryStanceError):
    """Dataset header does not match the required column set."""


class MalformedCsv(QueryStanceError):
    """A dataset or prediction CSV row, the header included, could not be parsed."""


class BadLabel(QueryStanceError):
    """A label cell holds a value outside its allowed domain."""


class EmptyText(QueryStanceError):
    """A query or sentence cell is empty after trimming."""


class ConflictingQueryText(QueryStanceError):
    """One query id maps to two different query texts."""


class UnlabeledRecord(QueryStanceError):
    """A record without a relevance label reached a labeled-only operation."""


class MissingStanceLabel(QueryStanceError):
    """A stance-training record has no stance label."""


# --- lexicons -------------------------------------------------------------

class MalformedLine(QueryStanceError):
    """A lexicon line does not have the expected field count."""


class ScoreOutOfRange(QueryStanceError):
    """A sentiment score falls outside [0, 1]."""


# --- features -------------------------------------------------------------

class EmptyCorpus(QueryStanceError):
    """Vocabulary fitting was attempted on zero sentences."""


class VocabNotFitted(QueryStanceError):
    """A vocabulary-dependent feature was requested without a fitted model."""


# --- svm ------------------------------------------------------------------

class DimensionMismatch(QueryStanceError):
    """Two vectors (or a model and an input) disagree on dimensionality."""


class SingleClassInput(QueryStanceError):
    """Training data contains fewer than two classes."""


class NonFinite(QueryStanceError):
    """Rows given to the SVM, to train on or to predict, contain NaN or infinity."""


class CorruptModel(QueryStanceError):
    """A model file is truncated or structurally invalid."""


class VersionMismatch(CorruptModel):
    """A model file declares an unsupported format version."""


# --- pipeline -------------------------------------------------------------

class AlignmentError(QueryStanceError):
    """Two row-aligned inputs differ in length or keys."""


class LengthMismatch(QueryStanceError):
    """Gold and predicted label lists differ in length."""


class EmptyInput(QueryStanceError):
    """A training file, an evaluation, or the train side of a train/dev split holds zero rows."""
