"""The one kind table, ``KINDS``, that every config, config file, record,
manifest and semantic-score check reads, and the limits (ranges, [0, 1]
``SCORE`` bounds, choices) declared beside kinds and refused in one form;
the one walker of a config file or manifest object against them, and the
one JSON file reader; ``json_lines``, the JSON lines of dataclass records,
formatted column by column through one template per record class and
yielded line by line; and atomic artefact writes, of text or bytes: a
reader finds the old file or the whole new one at a path, never a
half-written one."""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from dataclasses import MISSING, Field, field, fields
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

# A kind, which is a dataclass field's annotation string or "real" (what a
# semantic scorer returns), -> (what a value must be, the value types
# accepted). A bool is accepted only as a "bool".
KINDS = {
    "bool": ("true or false", (bool,)),
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "real": ("a real number", (int, float, np.integer, np.floating)),
    "str": ("a string", (str,)),
    "float | None": ("a number or null", (int, float, type(None))),
    "str | None": ("a string or null", (str, type(None))),
    "list": ("an array", (list,)),
    "dict": ("an object", (dict,)),
}


def kind_problem(kind: str, value: object) -> str | None:
    """Why ``value`` is not of ``kind`` (another type, or not finite); None when it is."""
    what, accepted = KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind != "bool"):
        return "must be %s, got %r" % (what, value)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "must be finite, got %r" % (value,)
    return None


# A limit, (op, bound), holds a value of its kind to ``value <op> bound``:
# a number to a range, a string to one of a tuple of choices. None, which
# only a nullable kind accepts, passes every limit.
_LIMIT_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le, "one of": lambda value, choices: value in choices}

# The limits of an Actuality score, and of every other score in [0, 1].
SCORE = ((">=", 0), ("<=", 1))


def _limits_problem(limits: Iterable[tuple[str, Any]], value: Any) -> str | None:
    """Why ``value``, of its kind already, breaks the first of ``limits`` it breaks; None when it keeps them all."""
    if value is not None:
        for op, bound in limits:
            if not _LIMIT_OPS[op](value, bound):
                return "must be %s %s, got %r" % (op, bound, value)
    return None


def limited(*limits: tuple[str, Any], default: object = MISSING) -> Any:
    """A dataclass field, with ``default`` if one is given, whose value ``check_kinds`` holds to ``limits``."""
    return field(default=default, metadata={"limits": limits})


def check_value(
    name: str, kind: str, value: object, *limits: tuple[str, Any], error: type[Exception] = ValueError, prefix: str = ""
) -> None:
    """``error`` naming ``prefix`` and the argument ``name`` unless ``value``
    is of ``kind`` and keeps ``limits``, in ``check_kinds``' words for a field."""
    problem = kind_problem(kind, value) or _limits_problem(limits, value)
    if problem:
        raise error("%s%s %s" % (prefix, name, problem))


def check_seed(seed: object) -> None:
    """ValueError naming the seed unless it is an integer >= 0; a bool is not one."""
    check_value("seed", "int", seed, (">=", 0))


@functools.cache
def _kinded_fields(cls: type) -> tuple[tuple[tuple[str, str, frozenset], ...], tuple[tuple[str, tuple], ...]]:
    """(name, kind, types all of whose values are of the kind) per kinded
    field of ``cls``, and (name, limits) per field that declares limits."""
    kinded = tuple((f.name, f.type, frozenset(KINDS[f.type][1]) - {float}) for f in fields(cls) if f.type in KINDS)
    return kinded, tuple((f.name, f.metadata["limits"]) for f in fields(cls) if "limits" in f.metadata)


def check_kinds(part: object, error: type[Exception] = ValueError, prefix: str = "") -> None:
    """``error`` naming ``prefix`` and the field for the first field of the
    dataclass ``part``'s own class whose value has a ``kind_problem``, then
    for the first that breaks its declared limits; a field without limits costs no more."""
    kinded, limited_fields = _kinded_fields(type(part))
    for name, kind, plain in kinded:
        value = getattr(part, name)
        if type(value) not in plain:
            problem = kind_problem(kind, value)
            if problem:
                raise error("%s%s %s" % (prefix, name, problem))
    for name, limits in limited_fields:
        problem = _limits_problem(limits, getattr(part, name))
        if problem:
            raise error("%s%s %s" % (prefix, name, problem))


def check_object(value: object, kinds: dict, where: str, error: type[Exception], required: bool = False) -> None:
    """``error`` naming ``where`` unless ``value`` is an object whose keys
    have values of their ``kinds`` (finite, though ``json`` reads NaN and
    Infinity); a dataclass field in ``kinds`` gives its kind and limits, and
    a dict is a nested object, checked in turn as
    ``<where> section <key>``. A file a person writes may omit keys but
    hold no other; with ``required``, as for a file hindpo wrote, it must
    hold every key of ``kinds`` and may hold others."""
    problem = kind_problem("dict", value)
    if problem:
        raise error("%s %s" % (where, problem))
    unknown = not required and sorted(set(value) - set(kinds))
    if unknown:
        raise error("unknown keys in %s: %s" % (where, unknown))
    for key, kind in kinds.items():
        if key not in value:
            if required:
                raise error("%s has no key %r" % (where, key))
        elif isinstance(kind, dict):
            check_object(value[key], kind, "%s section %r" % (where, key), error, required)
        else:
            kind, limits = (kind.type, kind.metadata.get("limits", ())) if isinstance(kind, Field) else (kind, ())
            problem = kind_problem(kind, value[key]) or _limits_problem(limits, value[key])
            if problem:
                raise error("%s key %r %s" % (where, key, problem))


def read_json(path: str | Path, error: type[Exception], where: str) -> Any:
    """The JSON value in the file at ``path``, its bytes decoded as UTF-8
    before they are parsed; ``error`` naming ``where`` if they are not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error("%s: not UTF-8: %s" % (where, exc)) from exc
    except ValueError as exc:  # json.JSONDecodeError, or a number too long to read
        raise error("%s: invalid JSON: %s" % (where, exc)) from exc


# The JSON text json.dumps(..., ensure_ascii=False) writes for a value of
# exactly each of these types; a float's text is checked to be finite.
_JSON_TEXT = {str: encode_basestring, int: int.__repr__, float: float.__repr__, type(None): lambda _: "null"}
_NON_FINITE = frozenset({"nan", "inf", "-inf"})
# Rows json_lines formats at once: the texts it holds stay bounded however
# many records it writes.
_ROWS = 64


@functools.cache
def _line_template(cls: type) -> tuple[tuple[str, ...], str]:
    """The field names of the dataclass ``cls`` and its JSON line template, one ``%s`` per field."""
    names = tuple(f.name for f in fields(cls))
    return names, "{%s}\n" % ", ".join('"%s": %%s' % name for name in names)


def _text(value: object) -> str | None:
    """The JSON text of one value, or None when the template cannot write
    it: a value of another type, or an int too long for ``int.__repr__``."""
    write = _JSON_TEXT.get(type(value))
    try:
        return None if write is None else write(value)
    except ValueError:
        return None


def _column_texts(values: list) -> tuple[list, set[int]]:
    """The JSON texts of one column's values, and the positions of the
    values the template cannot write, whose texts are None or not finite.
    A column of one type in ``_JSON_TEXT`` takes that type's one
    formatter; only a mixed column, or one with an int too long to write,
    writes each value on its own."""
    kinds = set(map(type, values))
    write = _JSON_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    try:
        texts = list(map(write or _text, values))
    except ValueError:  # an int too long for int.__repr__
        write, texts = None, list(map(_text, values))
    if write is None or write is float.__repr__:
        if None in texts or not _NON_FINITE.isdisjoint(texts):
            return texts, {i for i, text in enumerate(texts) if text is None or text in _NON_FINITE}
    return texts, set()


def json_lines(records: Iterable[object]) -> Iterator[str]:
    """``json.dumps(vars(record), ensure_ascii=False) + "\n"`` of each
    record, in order, byte for byte, yielded one line at a time.

    The records are read as instances of the first one's dataclass and
    formatted column by column, ``_ROWS`` records at a time, each column's
    values at once: strings
    escaped by ``json.encoder.encode_basestring``, the escaper json.dumps
    uses without ensure_ascii, numbers written by ``int.__repr__`` and
    ``float.__repr__``, None as null. A row whose attributes are its
    class's fields, in order, and whose values are each a ``str``,
    ``int``, finite ``float`` or None of exactly that type goes through the
    class's one line template. Any other row (a bool, NaN or infinity, a
    numpy or subclass value, an added or moved attribute, another class)
    goes through ``json.dumps`` itself at its turn, so it writes, or fails,
    as json.dumps does, after every line before it has been yielded.
    """
    records = list(records)
    if not records:
        return
    cls = type(records[0])
    names, template = _line_template(cls)
    for start in range(0, len(records), _ROWS):
        chunk = records[start : start + _ROWS]
        rows = list(map(vars, chunk))
        unwritable = set()
        if set(map(type, chunk)) != {cls} or set(map(tuple, rows)) != {names}:
            unwritable = {i for i, (record, row) in enumerate(zip(chunk, rows)) if type(record) is not cls or tuple(row) != names}
        columns = []
        for name in names:
            texts, bad = _column_texts(list(map(dict.get, rows, repeat(name))))
            columns.append(texts)
            unwritable |= bad
        for i, (row, texts) in enumerate(zip(rows, zip(*columns))):
            yield json.dumps(row, ensure_ascii=False) + "\n" if i in unwritable else template % texts


def write_atomic(path: str | Path, chunks: str | bytes | Iterable[str]) -> Path:
    """Write UTF-8 text, or ``bytes`` as they are, to ``path`` through a
    temp file in its directory.

    The chunks go to ``.<name>.<pid>.tmp`` next to the target, which
    ``os.replace`` then moves over ``path`` in one step. If producing or
    writing a chunk raises, the temp file is removed and an earlier file
    at ``path`` is left as it was.
    """
    path = Path(path)
    binary = isinstance(chunks, bytes)
    if binary or isinstance(chunks, str):
        chunks = (chunks,)
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
