"""Document ingestion and corpus files.

A corpus is a list of Documents with stable content-addressed ids. Sources
are plain UTF-8 text or RTF exports; RTF handling is a minimal stripper, not
a general reader. The synthetic generator lives in `courtnet.synth`.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import InputError
from .jsonl import iter_unique, write_jsonl

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    doc_id: str
    jurisdiction: str
    text: str
    source_path: str = ""


def text_doc_id(text: str) -> str:
    """Content-addressed id: first 16 hex chars of the text's sha256."""
    import hashlib  # it maps OpenSSL's libcrypto, which only a command that hashes needs

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# RTF stripping

# One RTF token per match, one group per kind: a hex escape (\' and up to two
# characters), a control word and its parameter, another control symbol or a
# lone backslash, a brace, a run of plain text. A raw newline sets no group.
_RTF_TOKEN_RE = re.compile(
    r"\\('.{0,2})|\\([a-zA-Z]+)(-?\d+)? ?|(\\.?)|([{}])|([^\\{}\r\n]+)|[\r\n]", re.DOTALL)


@functools.cache  # ingest strips latin-1 text, so 65,536 keys at most
def _cp1252(hh: str) -> str:
    """The character of a \\'hh escape; "" if hh is not one byte in hex."""
    try:
        return bytes([int(hh, 16)]).decode("cp1252")
    except (ValueError, UnicodeDecodeError):
        return ""


def _rtf_int(param: str) -> int:
    """A control-word parameter as an int, exact up to 20 digits.

    A longer one, which int() may refuse, becomes 10**20 plus its last 20
    digits, with its sign: equal modulo 65536, which is all \\uN reads, and
    beyond any count of fallback units, which is all \\ucN reads.
    """
    digits = param.lstrip("-").lstrip("0")
    if len(digits) > 20:
        digits = "1" + digits[-20:]
    return -int(digits or 0) if param[0] == "-" else int(digits or 0)


# destination groups whose content is formatting, not text
_RTF_DESTINATIONS = {
    "fonttbl", "colortbl", "stylesheet", "info", "pict",
    "header", "footer", "footnote",
}


def strip_rtf(source: str) -> str:
    """Extract plain text from RTF markup.

    Handles group nesting, \\par and \\line as newlines, \\tab as a space,
    hex escapes as cp1252 bytes, and drops font/color/style/info destinations
    along with \\* groups. Raw newlines in the source are formatting and are
    ignored. A \\uN escape gives the UTF-16 unit N (negative N counts from
    65536), and the fallback after it is skipped: \\ucN units, 1 unless the
    group says otherwise, where a character, an escape or a control word is one
    unit and a group boundary ends the fallback.
    """
    out: list[str] = []
    depth = 0
    skip_depth: int | None = None
    uc = 1                    # fallback units after each \uN
    outer_uc: list[int] = []  # uc of each enclosing group
    fallback = 0              # fallback units still to skip
    for hexa, word, param, symbol, brace, text in _RTF_TOKEN_RE.findall(source):
        if text:
            if fallback:  # each skipped character is one unit
                skipped = min(fallback, len(text))
                fallback -= skipped
                text = text[skipped:]
            if skip_depth is None:
                out.append(text)
        elif brace == "{":
            depth += 1
            outer_uc.append(uc)
            fallback = 0
        elif brace:
            depth -= 1
            if outer_uc:
                uc = outer_uc.pop()
            fallback = 0
            if skip_depth is not None and depth < skip_depth:
                skip_depth = None
        elif fallback and (hexa or word or symbol):  # an escape or a control word is one unit
            fallback -= 1
        elif word == "u" and param:
            if skip_depth is None:
                out.append(chr(_rtf_int(param) % 65536))
            fallback = uc
        elif word == "uc" and param:
            uc = max(_rtf_int(param), 0)
        elif skip_depth is None:
            if word in ("par", "line"):
                out.append("\n")
            elif word == "tab" or symbol == "\\~":
                out.append(" ")
            elif word in _RTF_DESTINATIONS or symbol == "\\*":
                skip_depth = depth
            elif len(hexa) == 3:
                out.append(_cp1252(hexa[1:]))
            elif symbol[1:] not in "\r\n":  # \\, \{, \}, or a character after a lone backslash
                out.append(symbol[1:])
    # \uN pairs make the characters past U+FFFF; a lone surrogate becomes U+FFFD
    return "".join(out).encode("utf-16-le", "surrogatepass").decode("utf-16-le", "replace")


def ingest(path: str | Path, jurisdiction: str) -> Document:
    """Read one source file into a Document with normalized text."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if raw.startswith(b"{\\rtf") or p.suffix.lower() == ".rtf":
        text = strip_rtf(raw.decode("latin-1"))
    else:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8") from exc
    text = normalize_newlines(text)
    if not text.strip():
        raise InputError(f"{path}: no text content")
    return Document(
        doc_id=text_doc_id(text),
        jurisdiction=jurisdiction,
        text=text,
        source_path=str(path),
    )


def dedupe_documents(docs: Iterable[Document]) -> tuple[list[Document], int]:
    """The documents in doc_id order, less those whose text a smaller id has
    (a corpus file may carry one text under two ids), and the count dropped."""
    docs = sorted(docs, key=lambda d: d.doc_id)
    first: dict[str, Document] = {}  # each text's first document
    for doc in docs:
        if first.setdefault(doc.text, doc) is not doc:
            logger.info("duplicate text dropped: %s (%s)", doc.doc_id, doc.source_path)
    return list(first.values()), len(docs) - len(first)


# ---------------------------------------------------------------------------
# Corpus files


def write_corpus(path: str | Path, docs: Iterable[Document]) -> None:
    write_jsonl(path, sorted(docs, key=lambda d: d.doc_id))


def read_corpus(path: str | Path) -> list[Document]:
    """The documents of a corpus file; a malformed line, or one repeating an earlier
    line's doc_id with another document, raises InputError."""
    return [doc for _, doc in iter_unique(path, Document, equal_repeats=True)]
