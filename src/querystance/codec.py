"""The JSON document format of every config and model file.

``to_doc`` writes a frozen dataclass field by field, with tuples and
float64 arrays as lists. ``from_doc`` rebuilds it from the field type
hints, checks every value on the way and lets the dataclass check its
own invariants, so a malformed file fails at load time with the file
and the field path in the message. A document holds the dataclass's
fields and nothing else; a model file's header is written and checked
by ``pipeline.save_task_model`` and ``load_task_model``. A field declared
with ``init=False`` is derived: the dataclass computes it in
``__post_init__`` from the others, and the document leaves it out.
A field declared ``Annotated[T, Form]`` is stored in the form ``Form``, a
dataclass of its own stored fields: ``Form.of(value)`` gives the stored
form of a ``T``, and a stored form's ``value`` is the ``T`` it stores,
checked as it is rebuilt. ``to_doc`` writes ``Form.of(value)``, and
``from_doc`` reads the form and returns its ``value``.
A number takes its type from the declared field: a float field takes a
JSON integer or float, an integer field an integer, and ``true`` or
``false`` is never a number, also as a leaf of an array field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from .errors import CorruptModel

_SCALARS = {float: "a finite number", int: "an integer", str: "a string"}


class FieldError(ValueError):
    """A dataclass invariant broken by one field; ``from_doc`` adds ``field``
    (a path below the dataclass, such as ``machines[0].sv_index``) to the
    field path of the error it raises."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}")
        self.field, self.problem = field, problem


def to_doc(obj):
    """Plain JSON value of a dataclass, tuple, dict, array or scalar."""
    if dataclasses.is_dataclass(obj):
        return {name: to_doc(getattr(obj, name) if form is None else form.of(getattr(obj, name)))
                for name, form in _forms(type(obj)).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        if all(type(value) in _SCALARS for value in obj):
            return list(obj)  # word lists, term ids and df: skip a call per item
        return [to_doc(value) for value in obj]
    if isinstance(obj, dict):
        return {key: to_doc(value) for key, value in obj.items()}
    return obj


def from_doc(cls, doc, where, field: str = ""):
    """Rebuild a ``cls`` value from ``to_doc`` output.

    ``cls`` is a dataclass, ``Annotated[X, Form]`` (read as the form's
    ``value``), ``tuple[X, ...]``, ``dict[str, X]``, ``X | None``, a union of
    dataclasses (read as the one whose fields name the most of the
    document's keys), ``float``, ``int``, ``str``, ``np.ndarray`` (float64) or
    ``npt.NDArray[np.int64]``: each leaf of its nested lists must have a type
    that the dtype's scalar field takes (a list leaf is a ragged row), and is
    then converted to the dtype. Raises CorruptModel naming ``where`` and the
    field path for a missing, unknown or mistyped field, a non-finite number
    or an integer beyond its dtype, and a ValueError from a dataclass's or a
    form's checks.
    """
    if cls in _SCALARS:  # first, as most values in a document are scalars
        if cls is float and type(doc) in (int, float):
            try:
                if math.isfinite(doc):
                    return float(doc)
            except OverflowError:  # an integer beyond the float range
                pass
        elif type(doc) is cls:  # so a JSON true is not an int
            return doc
        raise CorruptModel(f"expected {_SCALARS[cls]}, got {doc!r:.40}", where, field=field)
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is typing.Annotated:  # a value stored in a form of its own
        stored = from_doc(args[1], doc, where, field)
        return _built(lambda: stored.value, where, field)
    if origin in (typing.Union, types.UnionType):  # X | None, or dataclasses X | Y
        if doc is None and type(None) in args:
            return None
        kinds = [kind for kind in args if kind is not type(None)]
        if len(kinds) > 1:  # the dataclass that names the most of the document's keys, the first on a tie
            keys = doc.keys() if isinstance(doc, dict) else set()
            kinds.sort(key=lambda kind: -len(keys & _field_types(kind).keys()))
        return from_doc(kinds[0], doc, where, field)
    container = list if origin is tuple or np.ndarray in (cls, origin) else dict
    if not isinstance(doc, container):
        kind = "a list" if container is list else "an object"
        raise CorruptModel(f"expected {kind}, got {doc!r:.40}", where, field=field)
    if origin is tuple:
        if args[0] in (int, str) and all(type(value) is args[0] for value in doc):
            return tuple(doc)  # word lists, term ids and df: skip a call per item
        return tuple(from_doc(args[0], value, where, f"{field}[{i}]") for i, value in enumerate(doc))
    if origin is dict:
        return {key: from_doc(args[1], value, where, f"{field}[{key!r}]") for key, value in doc.items()}
    if np.ndarray in (cls, origin):
        dtype = np.dtype(typing.get_args(args[-1])[0] if args else np.float64)
        leaf, what, bound = (float, "numbers", "a finite number") if dtype.kind == "f" else (
            int, "integers", f"integers within the {dtype} range")
        array = np.array(doc, dtype=object)  # the leaves as they are: a list leaf is a ragged row
        if not set(map(type, array.flat)) <= {int, leaf}:  # so a JSON true is not a number
            raise CorruptModel(f"expected a rectangular array of {what}", where, field=field)
        try:
            return array.astype(dtype)
        except OverflowError:  # an integer beyond the dtype's range
            raise CorruptModel(f"expected {bound}", where, field=field) from None
    hints = _field_types(cls)
    prefix = f"{field}." if field else ""
    missing = [name for name in hints if name not in doc]
    if missing:
        raise CorruptModel("missing", where, field=prefix + missing[0])
    unknown = sorted(doc.keys() - hints.keys())
    if unknown:
        raise CorruptModel(f"unknown field {unknown[0]!r}", where, field=field)
    values = {name: from_doc(hint, doc[name], where, prefix + name) for name, hint in hints.items()}
    return _built(lambda: cls(**values), where, field)


def _built(make, where, field: str):
    """``make()``, its FieldError or ValueError raised as CorruptModel naming the
    field path: ``field``, and below it the FieldError's own field."""
    try:
        return make()
    except FieldError as exc:
        raise CorruptModel(exc.problem, where, field=f"{field}.{exc.field}" if field else exc.field) from exc
    except ValueError as exc:
        raise CorruptModel(str(exc), where, field=field) from exc


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> type of each stored (not derived) field of a dataclass,
    ``Annotated`` forms kept, evaluated once (it is slow)."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


@functools.cache
def _forms(cls) -> dict:
    """Field name -> the form of each stored field of a dataclass declared
    ``Annotated[T, Form]``, None for every other stored field."""
    return {name: typing.get_args(hint)[1] if typing.get_origin(hint) is typing.Annotated else None
            for name, hint in _field_types(cls).items()}


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as compact JSON: sorted keys, no space between tokens and a
    final newline. It is encoded by ``json.dumps`` and written at once, as only
    ``json.dumps`` uses the C encoder (``json.dump`` never does)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; CorruptModel if the file holds none.

    NaN and Infinity parse as floats here; ``from_doc`` rejects them with
    the path of the field that holds them.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise CorruptModel(f"invalid JSON: {exc}", path) from exc
    if not isinstance(doc, dict):
        raise CorruptModel(f"expected a JSON object, got {type(doc).__name__}", path)
    return doc
