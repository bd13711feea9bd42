"""JSON-lines files and the one JSON form of every record.

A record is a dataclass, and its JSON form is the object of its fields:
nested dataclasses are objects too, tuples and lists are arrays, a frozenset
is an array sorted by its items' own order, and an Enum is its value. Each
line of a `.jsonl` file is one record, compact and key-sorted.

Reading derives a decoder per class from the field type hints. It checks
str, int and float exactly (an int is accepted for a float and widened, a
bool is never a number), fills absent fields from their defaults, raises
KeyError on an absent field without one, and raises TypeError or ValueError
naming the field on a value of the wrong type.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import InputError
from .graphio import xml_safe

T = TypeVar("T")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _default(obj):
    """The JSON form of what json cannot encode itself; the `default=` hook."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, frozenset):
        return sorted(obj)
    if dataclasses.is_dataclass(obj):
        return {name: getattr(obj, name) for name in _field_names(type(obj))}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(record) -> str:
    """The record's JSON form as one compact, key-sorted line, without newline."""
    return json.dumps(record, default=_default, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))


_JSON_NAMES = {str: "str", int: "int", float: "float", list: "a list", dict: "an object"}


def _expect(value, cls: type, name: str):
    """The value if its type is exactly cls; else TypeError naming the field."""
    if type(value) is not cls:
        raise TypeError(f"{name} must be {_JSON_NAMES[cls]}, got {value!r}")
    return value


def _required(f: dataclasses.Field) -> bool:
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


@functools.cache
def _decoder(hint) -> Callable[[Any, str, dict], Any]:
    """decode(value, name, seen) for one type hint; name is the field the errors name, and
    seen the leaf records (frozen, every field a required str) already read from one file."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        item = _decoder(next(a for a in args if a is not type(None)))
        return lambda v, name, seen: None if v is None else item(v, name, seen)
    if origin in (list, tuple, frozenset):  # list[X], tuple[X, ...], frozenset[X]
        item = _decoder(args[0])
        return lambda v, name, seen: origin([item(x, name, seen) for x in _expect(v, list, name)])
    if origin is dict:  # dict[str, X]
        item = _decoder(args[1])
        return lambda v, name, seen: {k: item(x, f"{name}[{k!r}]", seen)
                                      for k, x in _expect(v, dict, name).items()}
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = [(f.name, _decoder(hints[f.name]), None if _required(f)
                   else f.default_factory if f.default is dataclasses.MISSING
                   else lambda d=f.default: d) for f in dataclasses.fields(hint)]

        def record(value, name, seen):
            _expect(value, dict, name)
            # value[field] raises KeyError(field) for an absent required field
            return hint(*[item(value[field], field, seen) if default is None or field in value
                          else default() for field, item, default in fields])
        if not (hint.__dataclass_params__.frozen and all(
                hints[field] is str and default is None for field, _, default in fields)):
            return record
        # a leaf, shared in seen by raw value: only a str equals a str, so a hit skips no
        # check; a miss raises nothing, as a file without repeats misses on every leaf
        key = operator.itemgetter(*(field for field, *_ in fields))

        def leaf(value, name, seen):
            try:
                k = hint, key(value)
                found = seen.get(k)
            except (KeyError, TypeError):  # not of its form: decoded in full, to raise
                return record(value, name, seen)
            if found is None:
                found = seen[k] = record(value, name, seen)
            return found
        return leaf
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}

        def enum_member(value, name, seen):
            try:
                return members[value]
            except (KeyError, TypeError):
                raise ValueError(
                    f"{name} must be one of {sorted(members)}, got {value!r}") from None
        return enum_member
    if hint is float:  # an int is widened; a bool is not a number
        return lambda v, name, seen: float(v) if type(v) is int else _expect(v, float, name)
    if hint in (str, int):
        return lambda v, name, seen: v if type(v) is hint else _expect(v, hint, name)
    raise TypeError(f"no JSON form for {hint!r}")


def decode(cls: type[T], data) -> T:
    """The cls record whose JSON form is data.

    KeyError names an absent field; TypeError or ValueError a wrong value.
    """
    return _decoder(cls)(data, cls.__name__, {})


def write_jsonl(path: str | Path, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps(record) + "\n")


def check_encodable(data, prefix: str = "") -> None:
    """Raise ValueError, prefix first, if a string of the JSON value holds a lone surrogate.

    An unpaired \\uD800-\\uDFFF escape decodes to one; no UTF-8 file can hold
    it, so a record carrying it could not be written back.
    """
    try:
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{prefix}lone surrogate {exc.object[exc.start]!r} in a string") from None


def iter_jsonl(path: str | Path, cls: type[T]) -> Iterator[tuple[int, T]]:
    """(line number, cls record) of each non-blank line, in file order.

    A file that cannot be opened raises InputError naming the path. A line
    that is not UTF-8 JSON (nesting too deep and lone surrogates included), or
    is not the JSON form of a cls record, raises InputError naming path:line.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    seen: dict = {}  # the leaf records of this file only
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                text = line.decode("utf-8")
                data = json.loads(text)
                if "\\u" in text:  # only a \u escape can make a lone surrogate
                    check_encodable(data)
                record = _decoder(cls)(data, cls.__name__, seen)
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing key {exc}") from None
            except (ValueError, TypeError, RecursionError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            yield lineno, record


def check_xml_id(value: str, what: str, path: str | Path, lineno: int) -> None:
    """InputError naming path:line if graphio.xml_safe would change value, an id graphs hold."""
    if xml_safe(value) != value:
        raise InputError(f"{path}:{lineno}: {what} {value!r} holds a character XML 1.0 forbids")


def iter_unique(path: str | Path, cls: type[T], equal_repeats: bool = False
                ) -> Iterator[tuple[int, T]]:
    """iter_jsonl's pairs; a doc_id that check_xml_id refuses, or a line repeating an earlier
    line's doc_id unless equal_repeats and the records are equal, raises InputError."""
    first: dict[str, tuple[int, T]] = {}
    for lineno, record in iter_jsonl(path, cls):
        check_xml_id(record.doc_id, "doc_id", path, lineno)
        earlier = first.setdefault(record.doc_id, (lineno, record))
        if earlier[0] != lineno and not (equal_repeats and earlier[1] == record):
            raise InputError(
                f"{path}:{lineno}: doc_id {record.doc_id!r} repeats line {earlier[0]}")
        yield lineno, record
