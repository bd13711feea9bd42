"""Entity and outcome extraction from segmented judgments.

Covers the three record-level extractions: counsel names (anchored on
honorifics), cited statute articles, and the appeal outcome read off the
operative part of the decision.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .graphio import xml_safe
from .jsonl import check_xml_id, iter_unique
from .segmenter import SegmentedJudgment, split_sentences
from .textmetrics import fold, fold_aligned

if TYPE_CHECKING:
    from .corpus import Document


@dataclass(frozen=True)
class LawyerName:
    canonical: str
    display: str


@dataclass(frozen=True, order=True)  # ordered, so a set of refs is written sorted
class ArticleRef:
    code: str
    number: str


class Outcome(Enum):
    APPELLANT_WINS = "appellant_wins"
    APPELLEE_WINS = "appellee_wins"
    UNDETERMINED = "undetermined"


# Name captures anchor on an honorific or on the "represented by" formula.
# Matching runs on a length-preserving folded shadow of the sentence so the
# match end is a valid index into the original text.
_ANCHOR_RE = re.compile(r"\bme\b|\bmaitre\b|\brepresentee?\s+par\b")
_HONORIFICS = {"me", "maitre"}

# lowercase particles tolerated inside a name run
_PARTICLES = {"de", "du", "le", "la"}

_MAX_NAME_TOKENS = 4

_LEADING_PUNCT = "(\"'«„“‘"
_TRAILING_PUNCT = ",;:!?)»”\""


def _capture_after(sentence: str, start: int) -> str | None:
    """Read a name run starting at `start`: up to 4 capitalized tokens with
    optional particles between them. Returns the display form or None."""
    tokens: list[str] = []  # collected run, particles included
    caps = 0
    for raw in re.finditer(r"\S+", sentence[start:]):
        token = raw.group().lstrip(_LEADING_PUNCT)
        stop_after = False
        while token and token[-1] in _TRAILING_PUNCT:
            token = token[:-1]
            stop_after = True
        if token.endswith("."):
            core = token[:-1]
            if len(core) == 1 and core.isalpha():
                pass  # an initial keeps its period and the run continues
            else:
                token = core
                stop_after = True
        if not token:
            break
        folded = fold(token)
        if folded in _HONORIFICS:
            break  # next honorific anchors its own capture
        if token[0].isalpha() and token[0].isupper():
            caps += 1
            tokens.append(token)
            if caps == _MAX_NAME_TOKENS or stop_after:
                break
        elif folded in _PARTICLES and caps:
            if stop_after:
                break
            tokens.append(token)
        else:
            break
    while tokens and fold(tokens[-1]) in _PARTICLES:
        tokens.pop()
    return " ".join(tokens) if tokens else None


def canonical_name(display: str) -> str:
    """Folded, xml_safe, whitespace-collapsed name without a leading Me or Maître."""
    words = fold(xml_safe(display)).split()
    while words and words[0] in _HONORIFICS:
        words = words[1:]
    return " ".join(words)


def _names_in(text: str) -> list[LawyerName]:
    found: dict[str, LawyerName] = {}
    for sentence in split_sentences(text):
        shadow = fold_aligned(sentence)
        for m in _ANCHOR_RE.finditer(shadow):
            display = _capture_after(sentence, m.end())
            if not display:
                continue
            canonical = canonical_name(display)
            if canonical and canonical not in found:
                found[canonical] = LawyerName(canonical=canonical, display=display)
    return list(found.values())


def extract_lawyers(
    seg: SegmentedJudgment, doc: "Document"
) -> tuple[list[LawyerName], list[LawyerName]]:
    """Counsel names per side, order of first appearance, deduplicated by
    canonical form.

    When a side has a counsel segment, only that segment is searched; the
    party segment is the fallback used only when the counsel segment is
    absent altogether.
    """
    sides = []
    for counsel, party in (
        ("appellant_counsel", "appellant"),
        ("appellee_counsel", "appellee"),
    ):
        name = counsel if seg.get(counsel) is not None else party
        sides.append(_names_in(seg.slice(doc.text, name)))
    return sides[0], sides[1]


# "article(s) N [et N]* [du <code>]" over folded text; letter-prefixed numbers
# (L. 145-41) keep their prefix as part of the number.
_NUM = r"(?:[lrd]\.?\s*)?\d+(?:[-.]\d+)*"
_ARTICLE_RE = re.compile(
    rf"\barticles?\s+({_NUM}(?:\s+et\s+{_NUM})*)"
    rf"(?:\s+(?:du|de\s+la|de\s+l')\s+([^\n.,;:()]+))?"
)
_NUM_SPLIT_RE = re.compile(r"\s+et\s+")
_PREFIX_RE = re.compile(r"^([lrd])\.?\s*(\d.*)$")

UNKNOWN_CODE = "unknown"


@functools.cache
def default_code_table() -> dict[str, str]:
    """The packaged code canonicalization table: folded spelling -> canonical."""
    data = resources.files("courtnet.data").joinpath("article_codes.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _norm_number(raw: str) -> str:
    m = _PREFIX_RE.match(raw.strip())
    if m:
        return f"{m.group(1).upper()}. {m.group(2)}"
    return raw.strip()


def extract_articles(text: str) -> set[ArticleRef]:
    """Cited articles as a set of (code, number) references.

    Citations without a code name get code "unknown". Code names are folded,
    whitespace-collapsed and passed through the packaged canonicalization
    table; unlisted codes are kept as folded.
    """
    folded = fold(text)
    refs: set[ArticleRef] = set()
    # _ARTICLE_RE starts with \b, so re would try it at every position; try it
    # only where "article" starts. \b there still sees the character before.
    pos = folded.find("article")
    while pos >= 0:
        m = _ARTICLE_RE.match(folded, pos)
        if m is None:
            pos = folded.find("article", pos + 1)
            continue
        pos = folded.find("article", m.end())
        numbers, code_raw = m.group(1), m.group(2)
        if code_raw is None:
            code = UNKNOWN_CODE
        else:
            code = " ".join(code_raw.split())
            code = default_code_table().get(code, code)
        for number in _NUM_SPLIT_RE.split(numbers):
            refs.add(ArticleRef(code=code, number=_norm_number(number)))
    return refs


# Token stems deciding the outcome of the appeal. Confirmation of the first
# ruling is a win for the appellee; reversal a win for the appellant.
CONFIRM_STEMS = ("confirme", "rejete", "irrecevable")
REVERSE_STEMS = ("infirme", "rectifi", "reform")

_STEM_RE = re.compile(rf"(?<![a-z0-9])(?:({'|'.join(CONFIRM_STEMS)})|{'|'.join(REVERSE_STEMS)})")


def classify_outcome(text: str) -> tuple[Outcome, int, int]:
    """Majority vote over outcome keyword stems in the operative part.

    Each [a-z0-9] token of the folded text that starts with a stem counts
    once: a stem matches only where no [a-z0-9] precedes it, and no two
    stems match at one position. Returns (outcome, confirm_count,
    reverse_count); ties, including zero counts, are Undetermined.
    """
    confirm = 0
    reverse = 0
    for stem in _STEM_RE.finditer(fold(text)):
        if stem[1]:
            confirm += 1
        else:
            reverse += 1
    return majority(confirm, reverse), confirm, reverse


def majority(confirm: int, reverse: int) -> Outcome:
    """More confirm stems, the appellee wins; more reverse stems, the appellant; else neither."""
    if confirm > reverse:
        return Outcome.APPELLEE_WINS
    if reverse > confirm:
        return Outcome.APPELLANT_WINS
    return Outcome.UNDETERMINED


def rejection_rate(outcomes: Iterable[Outcome]) -> float | None:
    """Share of determined outcomes that went to the appellee; None without one."""
    outcomes = list(outcomes)
    confirmed = outcomes.count(Outcome.APPELLEE_WINS)
    determined = confirmed + outcomes.count(Outcome.APPELLANT_WINS)
    return confirmed / determined if determined else None


@dataclass(frozen=True)
class ExtractionRecord:
    """Per-document extraction result, the pipeline's working record."""
    doc_id: str
    appellant_lawyers: tuple[LawyerName, ...]
    appellee_lawyers: tuple[LawyerName, ...]
    articles: frozenset[ArticleRef]
    outcome: Outcome
    confirm_count: int
    reverse_count: int


def extract_record(doc: "Document", seg: SegmentedJudgment) -> ExtractionRecord:
    """Counsel per side, cited articles and outcome of one segmented document."""
    appellant, appellee = extract_lawyers(seg, doc)
    articles = extract_articles(doc.text)
    outcome, confirm, reverse = classify_outcome(seg.slice(doc.text, "conclusion"))
    return ExtractionRecord(
        doc_id=doc.doc_id,
        appellant_lawyers=tuple(appellant),
        appellee_lawyers=tuple(appellee),
        articles=frozenset(articles),
        outcome=outcome,
        confirm_count=confirm,
        reverse_count=reverse,
    )


def read_extracted(path: str | Path) -> list[ExtractionRecord]:
    """The records of an extracted.jsonl file; a malformed line, one repeating an earlier
    line's doc_id, or a lawyer id that check_xml_id refuses raises InputError."""
    records = []
    for lineno, rec in iter_unique(path, ExtractionRecord):
        for name in rec.appellant_lawyers + rec.appellee_lawyers:
            check_xml_id(name.canonical, "lawyer", path, lineno)
        records.append(rec)
    return records
