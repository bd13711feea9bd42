"""Keyword-driven segmentation of judgment texts and sentence-level flow graphs.

French appellate decisions follow a quasi-standard layout whose section
headings vary in spelling across courts. A KeywordProfile lists, in document
order, the heading variants for each segment; matching is fuzzy (Jaro above
the profile threshold) or by prefix, so INTIMÉE, INTIMEE and "INTIMEE :" all
hit the same marker.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import os
import re
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import graphio
from .errors import InputError, MissingConclusion, OutOfOrderMarkers
from .jsonl import decode
from .textmetrics import (
    DEFAULT_THRESHOLD, _ceiling, _char_counts, _jaro, _positions, _shared, check_threshold, fold,
    jaro,
)

if TYPE_CHECKING:
    from .corpus import Document

logger = logging.getLogger(__name__)

CONCLUSION_HEADING = "PAR CES MOTIFS"

# Segment names, in canonical document order. "header" is implicit: it is
# whatever precedes the first matched marker and has no marker of its own.
SEGMENT_NAMES = (
    "header",
    "appellant",
    "appellant_counsel",
    "appellee",
    "appellee_counsel",
    "court_entities",
    "debate",
    "conclusion",
)


@dataclass(frozen=True)
class Marker:
    segment: str
    variants: tuple[str, ...]


@dataclass(frozen=True)
class KeywordProfile:
    jurisdiction: str
    markers: tuple[Marker, ...]
    jaro_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        names = [m.segment for m in self.markers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate segment names in profile")
        unknown = set(names) - set(SEGMENT_NAMES)
        if unknown or "header" in names:
            raise ValueError(f"invalid segment names: {sorted(unknown | ({'header'} & set(names)))}")
        if not names or names[-1] != "conclusion":
            raise ValueError("profile must end with a conclusion marker")
        for m in self.markers:
            if not m.variants:
                raise ValueError(f"marker {m.segment!r} has no variants")
            if not all(map(fold, m.variants)):
                raise ValueError(f"marker {m.segment!r} has a variant that folds to ''")
        conclusion = self.markers[-1]
        if CONCLUSION_HEADING not in conclusion.variants:
            raise ValueError(f"conclusion variants must include {CONCLUSION_HEADING!r}")
        check_threshold(self.jaro_threshold)


def _profile(jurisdiction: str, markers: list[tuple[str, list[str]]]) -> KeywordProfile:
    return KeywordProfile(
        jurisdiction=jurisdiction,
        markers=tuple(Marker(seg, tuple(variants)) for seg, variants in markers),
    )


# Built-in profiles. Douai-style decisions head the parties with
# APPELANT/INTIMEE and have no separate counsel blocks; Agen-style ones use
# ENTRE/ET with an AYANT POUR AVOCAT block per side. The generic profile
# accepts either convention.
PROFILES: dict[str, KeywordProfile] = {
    "douai": _profile("douai", [
        ("appellant", ["APPELANT", "APPELANTE", "APPELANTS"]),
        ("appellee", ["INTIME", "INTIMEE", "INTIMES"]),
        ("court_entities", ["COMPOSITION DE LA COUR"]),
        ("debate", ["DEBATS"]),
        ("conclusion", [CONCLUSION_HEADING]),
    ]),
    "agen": _profile("agen", [
        ("appellant", ["ENTRE"]),
        ("appellant_counsel", ["AYANT POUR AVOCAT"]),
        ("appellee", ["ET"]),
        ("appellee_counsel", ["AYANT POUR AVOCAT"]),
        ("court_entities", ["COMPOSITION DE LA COUR"]),
        ("debate", ["FAITS ET PROCEDURE", "DEBATS"]),
        ("conclusion", [CONCLUSION_HEADING]),
    ]),
    "generic": _profile("generic", [
        ("appellant", ["APPELANT", "APPELANTE", "ENTRE"]),
        ("appellant_counsel", ["AYANT POUR AVOCAT"]),
        ("appellee", ["INTIME", "INTIMEE", "ET"]),
        ("appellee_counsel", ["AYANT POUR AVOCAT"]),
        ("court_entities", ["COMPOSITION DE LA COUR"]),
        ("debate", ["DEBATS", "FAITS ET PROCEDURE", "MOTIFS DE LA DECISION"]),
        ("conclusion", [CONCLUSION_HEADING]),
    ]),
}


def get_profile(name: str) -> KeywordProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; built-ins: {sorted(PROFILES)}") from None


def load_profile(path: str | Path) -> KeywordProfile:
    """Load a keyword profile from its JSON form; errors name the path."""
    try:
        return decode(KeywordProfile, json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise InputError(f"profile file {path}: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"profile file {path}: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"profile file {path}: {exc}") from None


@dataclass(frozen=True)
class Segment:
    name: str
    start: int
    end: int


@dataclass
class SegmentedJudgment:
    doc_id: str
    segments: list[Segment]

    def get(self, name: str) -> Segment | None:
        for seg in self.segments:
            if seg.name == name:
                return seg
        return None

    def slice(self, text: str, name: str) -> str:
        """Text of the named segment, empty string when absent."""
        seg = self.get(name)
        return text[seg.start:seg.end] if seg else ""

    def check_offsets(self, text: str) -> None:
        """Raise ValueError unless every segment lies within the text."""
        for seg in self.segments:
            if not 0 <= seg.start <= seg.end <= len(text):
                raise ValueError(
                    f"segment {seg.name} has start {seg.start} and end {seg.end}; "
                    f"needs 0 <= start <= end <= {len(text)}")


# A gender or number ending, if any, that ends a folded word: no letter or digit follows.
_WORD_END = re.compile(r"(?:e|s|es)?(?![^\W_])")

# A verdict memo this full is emptied before it grows further: some megabytes
# at most for each set of variants, on a corpus where no line repeats.
_VERDICTS_KEPT = 1 << 14


@functools.lru_cache(maxsize=32)  # a few sets of variants per profile
def _matcher(variants: tuple[str, ...], threshold: float) -> tuple[dict[str, bool], dict, tuple]:
    """The verdict memo, alphabet and folded variants of one set of variants.

    The memo maps a raw line to its _marker_hits verdict, a function of the
    line and of these two values alone, so markers equal in variants share
    one memo, and so do documents. The alphabet holds every character of the
    folded variants, and each folded variant comes with its character counts
    over it, for the shared-character bound.
    """
    folded = [fold(v) for v in variants]
    alphabet = {ch: c for c, ch in enumerate(sorted(set().union(*folded)))}
    return {}, alphabet, tuple((fv, _char_counts(fv, alphabet)) for fv in folded)


def _marker_hits(line: str | None, alphabet: dict, folded: tuple, threshold: float) -> bool:
    """Whether a folded stripped line (None when blank) is one of the marker's headings.

    A line hits when it starts with a folded variant whose word ends there or
    after a gender or number ending (ET heads no "ETABLISSEMENTS" line, but
    APPELANT heads "APPELANTES ET ..."), or scores above the threshold against
    one. The length and shared-character bounds skip only variants the line
    cannot score above the threshold against; jaro scores one passing both.
    """
    if line is None:
        return False
    n1 = len(line)
    counts = None
    for fv, fv_counts in folded:
        n2 = len(fv)  # not 0: KeywordProfile refuses a variant that folds to ''
        if line.startswith(fv) and _WORD_END.match(line, n2):
            return True
        if n1 == 0 or _ceiling(min(n1, n2), n1, n2) <= threshold:
            continue
        if counts is None:
            counts = _char_counts(line, alphabet)
            total = sum(counts)  # the variant's own count is n2: the alphabet is its characters
        if (_ceiling(_shared(counts, fv_counts, total + n2), n1, n2) > threshold
                and jaro(line, fv) > threshold):
            return True
    return False


def _first_hit(lines: list[str], lo: int, hi: int, marker: Marker, threshold: float,
               folded: dict[str, str | None]) -> int | None:
    """Index of the first of lines[lo:hi] that hits the marker, None if none does.

    folded holds the document's lines already folded (stripped; None when
    blank), so each line is folded at most once, and only on a memo miss.
    """
    verdicts, alphabet, variants = _matcher(marker.variants, threshold)
    for li in range(lo, hi):
        line = lines[li]
        hit = verdicts.get(line)
        if hit is None:
            try:
                folded_line = folded[line]
            except KeyError:
                stripped = line.strip()
                folded_line = folded[line] = fold(stripped) if stripped else None
            if len(verdicts) >= _VERDICTS_KEPT:
                verdicts.clear()
            hit = verdicts[line] = _marker_hits(folded_line, alphabet, variants, threshold)
        if hit:
            return li
    return None


def cut(marks: Sequence[tuple[str, int, int]], end: int) -> list[Segment]:
    """The segments of a text of length `end` whose marker lines are marks.

    marks holds (segment name, line start, line end) for each marker line, in
    document order, the conclusion last. The header is everything before the
    first marker line, and is left out when that is nothing. Every other
    segment runs from the end of its marker line to the start of the next
    marker line; the conclusion keeps its marker line and runs to the end.
    """
    first_start = marks[0][1]
    segments = [Segment("header", 0, first_start)] if first_start > 0 else []
    for idx, (name, line_start, line_end) in enumerate(marks):
        if name == "conclusion":
            segments.append(Segment(name, line_start, end))
        else:
            segments.append(Segment(name, line_end, marks[idx + 1][1]))
    return segments


def segment(doc: "Document", profile: KeywordProfile) -> SegmentedJudgment:
    """Locate profile markers in order and cut the text into segments (see cut).

    Markers are matched line by line, each searched only after the previous
    match. Unmatched optional markers are simply omitted. A mandatory marker
    found only before the current position raises OutOfOrderMarkers; an absent
    conclusion raises MissingConclusion.
    """
    text = doc.text
    lines = text.splitlines(keepends=True)
    folded: dict[str, str | None] = {}
    threshold = profile.jaro_threshold

    matched: list[tuple[str, int]] = []  # (segment name, line index)
    pos = 0
    for marker in profile.markers:
        hit = _first_hit(lines, pos, len(lines), marker, threshold, folded)
        if hit is not None:
            matched.append((marker.segment, hit))
            pos = hit + 1
            continue
        # not found ahead; decide between omission and a hard error
        if _first_hit(lines, 0, pos, marker, threshold, folded) is not None:
            raise OutOfOrderMarkers(
                f"{doc.doc_id}: {marker.segment} marker appears before an earlier segment"
            )
        if marker.segment == "conclusion":
            raise MissingConclusion(f"{doc.doc_id}: no conclusion marker found")

    starts = [0, *itertools.accumulate(map(len, lines))]  # line li ends at starts[li + 1]
    marks = [(name, starts[li], starts[li + 1]) for name, li in matched]
    return SegmentedJudgment(doc_id=doc.doc_id, segments=cut(marks, len(text)))


# Tokens that block a sentence split at a following period: honorifics and
# the abbreviation for "article".
_NO_SPLIT_BEFORE_PERIOD = {"me", "mme", "art"}
_TERMINATOR_RE = re.compile(r"[.!?;]")


def _is_caps_line(line: str) -> bool:
    has_alpha = False
    for ch in line:
        if ch.isalpha():
            has_alpha = True
            if ch.islower():
                return False
    return has_alpha


def _word_before(text: str, index: int) -> str:
    # apostrophes separate words so that elided forms like "l'art" expose
    # the abbreviation itself
    j = index
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "-"):
        j -= 1
    return text[j:index]


def split_sentences(text: str) -> list[str]:
    """Cut text into sentences.

    Splits after . ! ? ; when followed by whitespace and an uppercase letter
    or digit, except after single-letter initials and the abbreviations
    me/mme/art. Lines written entirely in capitals end a sentence at their
    line break even without punctuation.
    """
    if not text:
        return []
    breaks = set()
    for m in _TERMINATOR_RE.finditer(text):
        i, ch = m.start(), m.group()
        j = i + 1
        while j < len(text) and text[j].isspace():
            j += 1
        if j == i + 1 or j >= len(text):
            continue  # needs at least one whitespace before the next sentence
        nxt = text[j]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if ch == ".":
            word = _word_before(text, i)
            if len(word) == 1 and word.isalpha():
                continue
            if fold(word) in _NO_SPLIT_BEFORE_PERIOD:
                continue
        breaks.add(i + 1)
    start = 0
    for line in text.splitlines(keepends=True):
        content = line.rstrip("\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029")
        if _is_caps_line(content):
            breaks.add(start + len(content))
        start += len(line)
    breaks.add(len(text))

    sentences = []
    start = 0
    for b in sorted(breaks):
        piece = text[start:b].strip()
        if piece:
            sentences.append(piece)
        start = b
    return sentences


LONG_SENTENCE_WORDS = 6  # sentences this long get positional names


@dataclass
class FlowGraph:
    """Sentence-transition graph over a corpus.

    nodes maps node label to its occurrence count; edges maps (source label,
    target label) to the number of consecutive-sentence traversals.
    """
    nodes: dict[str, int]
    edges: dict[tuple[str, str], int]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller index as root so labels stay first-seen
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


# Rows of the length-sorted scan a shard needs to pay for its fork (about 4 ms).
# On the first rows of the seed-7 80-document classes, two shards of 32 rows
# each ran at 0.8-1.3x the speed of one shard, two of 64 rows at 1.1-1.6x.
_ROWS_PER_SHARD = 64


def _shard_count(rows: int) -> int:
    """One shard per CPU this process may run on, each of at least _ROWS_PER_SHARD rows.

    1 where the platform has no fork or cannot say which CPUs the process may use.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _ROWS_PER_SHARD))


def _scan_rows(shard: int, shards: int, by_length: list[int], codes: list[list[int]],
               counts: list[list[int]], positions: list[list[tuple]], threshold: float) -> array:
    """The pairs that rows x = shard (mod shards) of the length-sorted scan join, flat.

    Row x compares text by_length[x] with each longer text after it, up to
    its end: the first length that bounds the score at or below the
    threshold. That bound, _ceiling(li, li, lj), does not decrease in li,
    nor li along the scan, so each row takes up its end from this shard's
    previous row. A pair is skipped when this shard has already joined its
    texts, or when their shared characters bound the score; the rest are
    scored by Jaro. Each joined pair is appended as (lo, hi), lo < hi.
    """
    uf = _UnionFind(len(codes))
    joined = array("i")
    lengths = [len(codes[i]) for i in by_length]
    end = 0
    for x in range(shard, len(by_length), shards):
        i = by_length[x]
        li = lengths[x]
        end = max(end, x + 1)
        while end < len(lengths) and _ceiling(li, li, lengths[end]) > threshold:
            end += 1
        root = uf.find(i)
        for j in by_length[x + 1:end]:
            if uf.find(j) == root:
                continue
            lo, hi = min(i, j), max(i, j)
            lj = len(codes[j])
            # the alphabet holds every character, so each text's count sums to its length
            if (_ceiling(_shared(counts[lo], counts[hi], li + lj), li, lj) > threshold
                    and _jaro(codes[lo], codes[hi], positions[hi]) > threshold):
                uf.union(lo, hi)
                joined.extend((lo, hi))
                root = uf.find(i)
    return joined


def _joined_pairs(shards: int, scan_args: tuple) -> list[array]:
    """Every shard's joined pairs: shard 0 scanned here, the others in forked children.

    Each child inherits the scan's inputs, writes its pairs to its pipe as raw
    array('i') bytes and leaves through os._exit, 0 only when every byte was
    written. The process must run no other thread: a fork copies only the
    calling one. A child that fails or is killed raises ChildProcessError.
    Whatever ends this call, an interrupt or a failed fork included, no pipe
    end is left open and no child running or unreaped.
    """
    pids: dict[int, int] = {}
    ends: list[int] = []  # the pipe ends open here; past the forks, each child's read end
    try:
        for shard in range(1, shards):
            read_end, write_end = os.pipe()
            ends += read_end, write_end
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        pipe.write(_scan_rows(shard, *scan_args))
                    status = 0
                finally:
                    os._exit(status)
            pids[shard] = pid
            os.close(ends.pop())  # the child's write end
        joined = [_scan_rows(0, *scan_args)]
        for shard in range(1, shards):
            with open(ends[0], "rb", closefd=False) as pipe:
                data = pipe.read()  # before waiting: a full pipe would block the child
            os.close(ends.pop(0))
            status = os.waitpid(pids[shard], 0)[1]
            del pids[shard]
            code = os.waitstatus_to_exitcode(status)
            if code:
                ended = f"exited {code}" if code > 0 else f"was killed by signal {-code}"
                raise ChildProcessError(f"flow-graph contraction: shard {shard} of {shards} {ended}")
            joined.append(array("i", data))
        return joined
    finally:
        for end in ends:
            os.close(end)
        if pids:
            import signal  # only a failed or interrupted scan has children left to kill
        for pid in pids.values():
            # an interrupt can land between a child's reaping and its removal above
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _contract(texts: list[str], threshold: float, name: str = "texts") -> list[int]:
    """Single-linkage grouping of texts by pairwise Jaro above the threshold; returns roots.

    Texts i < j join when neither folds to the empty string and the Jaro
    similarity of their folded forms exceeds the threshold; each root is
    the smallest index of its group. Pairs are visited by ascending folded
    length, and skipped only when their lengths or shared characters bound
    the score at or below the threshold (see _scan_rows).

    The rows of that scan are dealt to _shard_count shards, one per CPU the
    process may run on; each shard but the first runs in a forked child.
    The groups are the connected components of the pairs the shards join,
    which do not depend on which shard found a pair or when, so the roots
    are the same at any shard count. Logs name, texts, shards and seconds.
    """
    start = time.perf_counter()
    folded = [fold(t) for t in texts]
    by_length = sorted((i for i, f in enumerate(folded) if f), key=lambda i: len(folded[i]))
    alphabet = {ch: c for c, ch in enumerate(sorted(set().union(*folded)))}
    counts = [_char_counts(f, alphabet) for f in folded]
    codes = [list(map(alphabet.__getitem__, f)) for f in folded]
    positions = [_positions(c, len(alphabet)) for c in codes]
    shards = _shard_count(len(by_length))
    uf = _UnionFind(len(texts))
    for pairs in _joined_pairs(shards, (shards, by_length, codes, counts, positions, threshold)):
        for lo, hi in zip(pairs[::2], pairs[1::2]):
            uf.union(lo, hi)
    logger.info("contraction %s: %d texts, %d shards, %.3f s",
                name, len(texts), shards, time.perf_counter() - start)
    return [uf.find(i) for i in range(len(texts))]


def build_flow_graph(corpus: Sequence["Document"], threshold: float = DEFAULT_THRESHOLD) -> FlowGraph:
    """Build the sentence flow graph of a corpus.

    Sentences of LONG_SENTENCE_WORDS or more words are renamed Long_Text_i_j
    (document index in `corpus`, which the CLI passes in doc_id order, and
    sentence index) before contraction, so boilerplate keeps its text as
    label while long free text does not. Contraction then merges
    nodes whose folded sentences have a Jaro similarity strictly above the
    threshold (see _contract), long and short sentences never merging with
    each other. The first-seen node of each group provides the surviving label.
    """
    # str.split takes \v, \f and \x1c-\x1f for spaces: count words before xml_safe
    doc_keys = [[(len(s.split()) >= LONG_SENTENCE_WORDS, graphio.xml_safe(s))
                 for s in split_sentences(doc.text)] for doc in corpus]

    # each distinct (is_long, sentence) to its first-seen label, in first-seen order
    labels: dict[tuple[bool, str], str] = {}
    for i, keys in enumerate(doc_keys):
        for j, (is_long, sentence) in enumerate(keys):
            labels.setdefault((is_long, sentence), f"Long_Text_{i}_{j}" if is_long else sentence)

    # contract each class separately over distinct texts; a group takes its root's label
    jurisdictions = ",".join(sorted({doc.jurisdiction for doc in corpus}))
    for long_class in (False, True):
        members = [key for key in labels if key[0] == long_class]
        roots = _contract([sentence for _, sentence in members], threshold,
                          f"{jurisdictions} {'long' if long_class else 'short'}")
        for key, root in zip(members, roots):
            labels[key] = labels[members[root]]

    nodes: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    for keys in doc_keys:
        path = [labels[key] for key in keys]
        for label in path:
            nodes[label] = nodes.get(label, 0) + 1
        for a, b in zip(path, path[1:]):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    return FlowGraph(nodes=nodes, edges=edges)


def write_flow(stem: str | Path, graph: FlowGraph) -> None:
    """`<stem>.graphml` and `<stem>.dot`, both with every attribute."""
    graphio.write_graph(
        stem, directed=True, node_attrs=[("occurrences", "long")], edge_attrs=[("count", "long")],
        nodes=[(label, {"occurrences": n}) for label, n in sorted(graph.nodes.items())],
        edges=[(a, b, {"count": c}) for (a, b), c in sorted(graph.edges.items())],
    )
