"""JSON-lines files: one compact, key-sorted JSON object per line."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .errors import CorruptInput

T = TypeVar("T")


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")) + "\n")


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """parse() of each non-blank line's object, in file order.

    A line that is not UTF-8 JSON, or that parse() rejects with a KeyError,
    ValueError or TypeError, raises CorruptInput naming path:line.
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(parse(json.loads(line.decode("utf-8"))))
            except KeyError as exc:
                raise CorruptInput(f"{path}:{lineno}: missing key {exc}") from None
            except (ValueError, TypeError) as exc:
                raise CorruptInput(f"{path}:{lineno}: {exc}") from None
    return rows
