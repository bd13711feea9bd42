"""The record decoder of jsonl against its recursive reference."""

import dataclasses
import json
import tempfile
import types
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from courtnet.cli import PipelineConfig
from courtnet.corpus import Document
from courtnet.errors import InputError
from courtnet.extract import ExtractionRecord, Outcome
from courtnet.jsonl import decode, dumps, iter_jsonl
from courtnet.segmenter import PROFILES, KeywordProfile, SegmentedJudgment

from oracles import decode_reference

CLASSES = [ExtractionRecord, SegmentedJudgment, Document, KeywordProfile, PipelineConfig]

# few distinct strings, so that leaf records repeat and differ in one field
_TEXTS = st.sampled_from(["", "a", "b", "é", "conclusion", "PAR CES MOTIFS"])


def json_form(hint):
    """The JSON values that hint's type maps to (not all of them valid records)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(st.none(), json_form(next(a for a in args if a is not type(None))))
    if origin in (list, tuple, frozenset):
        return st.lists(json_form(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(_TEXTS, json_form(args[1]), max_size=2)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        required, optional = {}, {}
        for f in dataclasses.fields(hint):
            has_default = not (f.default is f.default_factory is dataclasses.MISSING)
            (optional if has_default else required)[f.name] = json_form(hints[f.name])
        return st.fixed_dictionaries(required, optional=optional)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from([m.value for m in hint])
    if hint is float:
        return st.one_of(st.integers(-2, 2), st.floats(-2, 2, allow_nan=False))
    if hint is int:
        return st.integers(-2, 2)
    return _TEXTS


# a valid value of each class, so that broken fields also sit in valid records
_VALID = {
    ExtractionRecord: st.just(json.loads(dumps(ExtractionRecord(
        "d1", (), (), frozenset(), Outcome.UNDETERMINED, 0, 0)))),
    SegmentedJudgment: st.just({"doc_id": "d1", "segments": [
        {"name": "conclusion", "start": 0, "end": 1}]}),
    Document: st.just({"doc_id": "d1", "jurisdiction": "douai", "text": "a"}),
    KeywordProfile: st.sampled_from([json.loads(dumps(p)) for p in PROFILES.values()]),
    PipelineConfig: st.just(json.loads(dumps(PipelineConfig()))),
}

# one field broken: a wrong type, a bool for an int, an int for a float, null
# for an optional field, a bad enum value or a non-object item
_BROKEN = [5, 1.5, True, None, "bogus", "", [], [5], {}, {"zz": 1}]


def _nodes(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _broken(data, value):
    """value with one node replaced, one key dropped or one extra key added."""
    path = data.draw(st.sampled_from(list(_nodes(value))[1:] or [()]))
    if not path:
        return data.draw(st.sampled_from(_BROKEN))
    edit = data.draw(st.sampled_from(["replace", "replace", "drop", "extra"]))
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if edit == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif edit == "extra" and isinstance(parent[path[-1]], dict):
        parent[path[-1]]["zz"] = 1
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_BROKEN))
    return value


def _values(data, cls):
    base = data.draw(st.one_of(_VALID[cls], json_form(cls)))
    return _broken(data, base) if data.draw(st.booleans()) else base


def _outcome(decode_fn, cls, value):
    """The record, or the exception's type and message."""
    try:
        return decode_fn(cls, value)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=150)
@given(data=st.data())
def test_decode_equals_the_recursive_reference(cls, data):
    value = _values(data, cls)
    assert _outcome(decode, cls, value) == _outcome(decode_reference, cls, value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=60)
@given(data=st.data())
def test_read_jsonl_equals_the_reference_line_by_line(cls, data):
    # the lines of one file share their leaf records: equal ones, not near ones,
    # so later lines are often the first one with one field broken
    values = [_values(data, cls)]
    for _ in range(data.draw(st.integers(0, 5))):
        values.append(_broken(data, values[0]) if data.draw(st.booleans())
                      else _values(data, cls))
    expected = []
    for lineno, value in enumerate(values, 1):
        try:
            expected.append(decode_reference(cls, value))
        except KeyError as exc:
            expected = f":{lineno}: missing key {exc}"
            break
        except (TypeError, ValueError) as exc:
            expected = f":{lineno}: {exc}"
            break
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text("".join(json.dumps(v, ensure_ascii=False) + "\n" for v in values),
                        encoding="utf-8")
        if isinstance(expected, str):
            with pytest.raises(InputError) as info:
                list(iter_jsonl(path, cls))
            assert str(info.value) == f"{path}{expected}"
        else:
            assert [record for _, record in iter_jsonl(path, cls)] == expected


@pytest.mark.parametrize("value", [{}, ""])
def test_an_empty_non_list_is_not_an_empty_tuple(value):
    # an empty object or string has no items either, yet it is no list
    data = json.loads(dumps(ExtractionRecord("d1", (), (), frozenset(), Outcome.UNDETERMINED,
                                             0, 0)))
    data["appellee_lawyers"] = value
    assert _outcome(decode, ExtractionRecord, data) == (
        TypeError, f"appellee_lawyers must be a list, got {value!r}")
    assert _outcome(decode_reference, ExtractionRecord, data) == _outcome(
        decode, ExtractionRecord, data)
