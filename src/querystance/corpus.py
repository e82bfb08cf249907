"""Dataset loading, grouping and splitting, and the one CSV row reader and writer.

The on-disk format is a UTF-8 CSV (RFC-4180 quoting) with the header

    query_id,query_text,sentence_text,relevance,stance

Every CSV file the package writes goes through ``write_csv_rows``, whose
quoting rule is its own, so a file's bytes are the same on every Python.

An empty string in a label column means the label is absent. Label
strings are matched case-insensitively after trimming.
"""

from __future__ import annotations

import csv
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    BadLabel,
    ConflictingQueryText,
    EmptyText,
    MalformedCsv,
    MissingColumn,
    MissingStanceLabel,
    UnlabeledRecord,
    reading_utf8,
)

EXPECTED_HEADER = ["query_id", "query_text", "sentence_text", "relevance", "stance"]

RELEVANCE_LABELS = ("relevant", "irrelevant")
STANCE_LABELS = ("support", "oppose", "neutral")


@dataclass(frozen=True)
class SentenceRecord:
    """One corpus row: a sentence paired with its query, and the file row it
    was read from (the header is row 1; None for a record built in code)."""

    query_id: str
    query_text: str
    sentence_text: str
    relevance: str | None = None
    stance: str | None = None
    row: int | None = field(default=None, compare=False, repr=False)


def parse_label(raw: str, allowed: tuple[str, ...], path, row: int, column: str) -> str | None:
    """A label cell read as one of ``allowed`` (case and spaces ignored), None if blank."""
    value = raw.strip().lower()
    if not value:
        return None
    if value not in allowed:
        raise BadLabel(f"{column} must be one of {allowed}: {raw!r}", path, row=row)
    return value


def read_csv_rows(path: str | Path):
    """Yield each row of a UTF-8 CSV file, the header (row 1) first and a BOM skipped; NotUtf8,
    and MalformedCsv for a row the csv module cannot read, name the file."""
    row_no = 1
    with open(path, encoding="utf-8-sig", newline="") as handle, reading_utf8(path):
        try:
            for row in csv.reader(handle):
                yield row
                row_no += 1
        except csv.Error as exc:
            raise MalformedCsv(str(exc), path, row=row_no) from exc


def _csv_record(fields: Sequence[str]) -> str:
    """One CSV record, without its line end, by the QUOTE_MINIMAL rule of Python
    3.13's csv module: a field holding a comma, a double quote, CR or LF is quoted
    and its double quotes doubled, and a record of one empty field is ``""``."""
    line = ",".join(fields)
    if line.count(",") == len(fields) - 1 and not ('"' in line or "\r" in line or "\n" in line):
        return line if line or len(fields) != 1 else '""'
    return ",".join('"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f for f in fields)


def write_csv_rows(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Write each row as one CSV record ended by "\n" to a new UTF-8 file at ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_csv_record(row) + "\n" for row in rows)


def load_dataset(path: str | Path, labeled: bool = False) -> list[SentenceRecord]:
    """Read a dataset CSV into records, preserving file order.

    With ``labeled=True`` every row must carry a valid relevance label.
    Duplicate sentences are kept as distinct records.
    """
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise MissingColumn(f"empty file, expected header {','.join(EXPECTED_HEADER)}", path)
    if header != EXPECTED_HEADER:
        missing = [c for c in EXPECTED_HEADER if c not in header]
        detail = f"missing columns {missing}" if missing else f"unexpected header {header}"
        raise MissingColumn(detail, path)
    records: list[SentenceRecord] = []
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(EXPECTED_HEADER):
            problem = f"expected {len(EXPECTED_HEADER)} fields, got {len(row)}"
            raise MalformedCsv(problem, path, row=row_no)
        query_id, query_text, sentence_text, relevance_raw, stance_raw = row
        query_id = query_id.strip()
        query_text = query_text.strip()
        sentence_text = sentence_text.strip()
        if not query_text:
            raise EmptyText("empty query_text", path, row=row_no)
        if not sentence_text:
            raise EmptyText("empty sentence_text", path, row=row_no)
        relevance = parse_label(relevance_raw, RELEVANCE_LABELS, path, row_no, "relevance")
        stance = parse_label(stance_raw, STANCE_LABELS, path, row_no, "stance")
        if labeled and relevance is None:
            problem = f"labeled dataset requires a relevance label: {relevance_raw!r}"
            raise BadLabel(problem, path, row=row_no)
        if stance is not None and relevance is None:
            problem = f"stance label present without a relevance label: {stance_raw!r}"
            raise BadLabel(problem, path, row=row_no)
        records.append(SentenceRecord(query_id, query_text, sentence_text, relevance, stance, row_no))
    return records


def required_labels(
    records: Sequence[SentenceRecord], column: str, purpose: str, path: str | Path | None = None
) -> list[str]:
    """Each record's ``column`` label, "relevance" or "stance".

    The first record without one raises UnlabeledRecord (relevance) or
    MissingStanceLabel (stance), naming ``path`` and the record's row when
    the records were read from that file, else its index and query id.
    """
    labels = [getattr(r, column) for r in records]
    if None in labels:
        i = labels.index(None)
        error = UnlabeledRecord if column == "relevance" else MissingStanceLabel
        problem = f"no {column} label, needed for {purpose}"
        if path:
            raise error(problem, path, row=records[i].row)
        raise error(f"record {i} (query {records[i].query_id!r}): {problem}")
    return labels


def group_by_query(records: list[SentenceRecord]) -> dict[str, list[SentenceRecord]]:
    """Each distinct query_id -> its records, in order of first appearance.

    A record whose query text differs from that of its query's first record
    raises ConflictingQueryText naming both texts and, for records read from
    a file, both rows.
    """
    by_id: dict[str, list[SentenceRecord]] = {}
    for record in records:
        group = by_id.setdefault(record.query_id, [])
        if group and group[0].query_text != record.query_text:
            both = " and ".join(
                f"{r.query_text!r}" + (f" at row {r.row}" if r.row else "") for r in (group[0], record)
            )
            raise ConflictingQueryText(f"query_id {record.query_id!r} maps to both {both}")
        group.append(record)
    return by_id


def split_train_dev(
    records: list[SentenceRecord], train_fraction: float, seed: int
) -> tuple[list[SentenceRecord], list[SentenceRecord]]:
    """Seeded, per-query stratified split into (train, dev).

    Each query group contributes round(train_fraction * group size)
    records to the train side. Deterministic for a fixed seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    required_labels(records, "relevance", "the train/dev split")
    rng = random.Random(seed)
    train: list[SentenceRecord] = []
    dev: list[SentenceRecord] = []
    for group in group_by_query(records).values():
        indices = list(range(len(group)))
        rng.shuffle(indices)
        n_train = round(train_fraction * len(group))
        chosen = set(indices[:n_train])
        for i, record in enumerate(group):
            (train if i in chosen else dev).append(record)
    return train, dev
