"""Exception hierarchy shared across the package.

Every data or modelling error raised by this package derives from
:class:`QueryStanceError`, so callers (and the CLI) can catch one type.
An error in an input file starts its message with the file's path;
one that points at a specific row or line also carries its 1-based
number.
"""

from __future__ import annotations

import contextlib


class QueryStanceError(Exception):
    """Base class for all errors raised by this package."""


class NotUtf8(QueryStanceError):
    """A dataset, lexicon, prediction or config file is not UTF-8 text."""

    def __init__(self, path, exc: UnicodeDecodeError):
        super().__init__(f"{path}: not UTF-8 text: {exc}")
        self.path = path


@contextlib.contextmanager
def reading_utf8(path):
    """Raise NotUtf8 naming ``path`` for a decoding error inside the block."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise NotUtf8(path, exc) from exc


# --- corpus ---------------------------------------------------------------

class MissingColumn(QueryStanceError):
    """Dataset header does not match the required column set."""


class MalformedCsv(QueryStanceError):
    """A CSV data row could not be parsed."""

    def __init__(self, path, row: int, message: str):
        super().__init__(f"{path}: row {row}: {message}")
        self.path = path
        self.row = row


class BadLabel(QueryStanceError):
    """A label cell holds a value outside its allowed domain."""

    def __init__(self, path, row: int, value: str, message: str = ""):
        detail = message or "bad label"
        super().__init__(f"{path}: row {row}: {detail}: {value!r}")
        self.path = path
        self.row = row
        self.value = value


class EmptyText(QueryStanceError):
    """A query or sentence cell is empty after trimming."""

    def __init__(self, path, row: int, column: str):
        super().__init__(f"{path}: row {row}: empty {column}")
        self.path = path
        self.row = row
        self.column = column


class ConflictingQueryText(QueryStanceError):
    """One query id maps to two different query texts."""


class UnlabeledRecord(QueryStanceError):
    """A record without a relevance label reached a labeled-only operation."""


class MissingStanceLabel(QueryStanceError):
    """A stance-training record has no stance label."""


# --- lexicons -------------------------------------------------------------

class MalformedLine(QueryStanceError):
    """A lexicon line does not have the expected field count."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ScoreOutOfRange(QueryStanceError):
    """A sentiment score falls outside [0, 1]."""

    def __init__(self, path, line_no: int, value: float):
        super().__init__(f"{path}: line {line_no}: score out of range: {value}")
        self.path = path
        self.line_no = line_no
        self.value = value


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
    """Training input contains NaN or infinity."""


class NoSupportVectors(QueryStanceError):
    """Training ended with no alpha above the support-vector floor."""


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
    """An evaluation was requested over zero rows."""
