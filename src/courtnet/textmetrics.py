"""String similarity primitives for fuzzy marker matching and node contraction.

Everything here operates on folded text: case-folded with diacritics stripped,
so that INTIMÉE, Intimee and intimée all compare equal.

Jaro has one kernel, _jaro, over texts coded as lists of integers (each
character's place in an alphabet the caller chooses); a text scored many
times is coded, and its positions listed by _positions, once.
"""

from __future__ import annotations

import operator
import unicodedata


DEFAULT_THRESHOLD = 0.8


def _fold_char(ch: str) -> str:
    decomposed = unicodedata.normalize("NFKD", ch)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).casefold()


def _fold_aligned_char(ch: str) -> str:
    decomposed = unicodedata.normalize("NFKD", ch)
    base = next((c for c in decomposed if not unicodedata.combining(c)), ch)
    folded = base.casefold()
    return folded[0] if folded else base


class _FoldTable(dict):
    """A str.translate table that folds each code point on first use and keeps it.

    Folding a string character by character gives the same result as folding
    it whole: NFKD decomposes each character on its own and only reorders
    combining marks, which folding drops, and casefold has no context.
    """

    def __init__(self, fold_char):
        super().__init__()
        self._fold_char = fold_char

    def __missing__(self, code: int) -> str:
        folded = self[code] = self._fold_char(chr(code))
        return folded


_FOLD = _FoldTable(_fold_char)
_FOLD_ALIGNED = _FoldTable(_fold_aligned_char)

_ASCII = bytes(range(128))
_LOWER_ASCII = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", b"abcdefghijklmnopqrstuvwxyz")
_MAX_PASSES = 16  # distinct non-ASCII characters, one str.replace pass each


def _fold_with(text: str, table: _FoldTable) -> str:
    """text.translate(table), with C-level passes in place of the per-character lookup.

    ASCII folds to lower(). Otherwise the ASCII bytes of the UTF-8 form are
    lowered (every byte of a multi-byte character is >= 0x80, so none changes)
    and each distinct non-ASCII character is replaced by its fold in one pass.
    That is exact because every character of a fold folds to itself (tests
    check each code point), so no pass changes what an earlier one wrote, and
    linear because the passes are at most _MAX_PASSES. Other texts go through
    the table. Lone surrogates pass through unchanged.
    """
    if text.isascii():
        return text.lower()
    data = text.encode("utf-8", "surrogatepass")
    others = set(data.translate(None, _ASCII).decode("utf-8", "surrogatepass"))
    if len(others) > _MAX_PASSES:
        return text.translate(table)
    out = data.translate(_LOWER_ASCII).decode("utf-8", "surrogatepass")
    for ch in others:
        out = out.replace(ch, table[ord(ch)])
    return out


def fold(text: str) -> str:
    """Strip diacritics and case-fold."""
    return _fold_with(text, _FOLD)


def fold_aligned(text: str) -> str:
    """Like fold(), but guaranteed to preserve length.

    Each character maps to exactly one folded character (first base character
    of its decomposition), so match positions found in the folded shadow are
    valid indices into the original string.
    """
    return _fold_with(text, _FOLD_ALIGNED)


_END = float("inf")  # closes each position tuple: no position reaches it


def _positions(codes: list[int], size: int) -> list[tuple]:
    """For each code below size, its positions in codes ascending, closed by _END."""
    found: dict[int, list[int]] = {}
    for i, c in enumerate(codes):
        found.setdefault(c, []).append(i)
    positions = [(_END,)] * size  # one tuple, shared by every absent code
    for c, at in found.items():
        positions[c] = (*at, _END)
    return positions


def _char_counts(text: str, alphabet: dict[str, int]) -> list[int]:
    """How often each character of the alphabet (its keys, in order) occurs in the text."""
    return [text.count(ch) for ch in alphabet]


def _shared(counts_a: list[int], counts_b: list[int], total: int) -> int:
    """Characters two texts share, counted with multiplicity.

    Both counts are over one alphabet that holds every character of at least
    one of the texts, and total is sum(counts_a) + sum(counts_b). No Jaro
    assignment can match more characters than this. It is the sum of
    min(a, b) over the alphabet, summed in C as (a + b - |a - b|) / 2: the
    differences have the parity of the total, so the halving is exact.
    """
    return (total - sum(map(abs, map(operator.sub, counts_a, counts_b)))) >> 1


def _ceiling(matches: int, n1: int, n2: int) -> float:
    """The highest Jaro score that at most `matches` matches can give.

    It is the score's own formula with no transpositions, so in floating
    point too no score with that many matches or fewer exceeds it.
    """
    return (matches / n1 + matches / n2 + 1.0) / 3.0


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1] of two strings, compared as given (fold them first).

    Characters match when equal and at most max(len)//2 - 1 positions apart,
    assigned greedily left to right (first unmatched equal character within
    the window). The transposition count is half the number of matched
    characters appearing in a different order, rounded down. Equal strings
    give 1.0; otherwise no matches at all, including either string being
    empty, gives 0.0. Both strings are coded over the characters they hold.
    """
    code = {ch: c for c, ch in enumerate(set(a).union(b))}
    codes_b = list(map(code.__getitem__, b))
    return _jaro(list(map(code.__getitem__, a)), codes_b, _positions(codes_b, len(code)))


def _jaro(a: list[int], b: list[int], positions_b: list[tuple]) -> float:
    """jaro() of texts coded one to one over one alphabet; positions_b is _positions(b, size).

    Every code of a is below size. For one code, the greedy assignment
    picks positions of b that only increase: each pick is the first
    unmatched equal position at or after i - window, and the lower end of
    the window only rises. So one pointer per code into its positions in b
    finds the same matches as a scan of the window. _END stops every
    pointer, so none needs a bounds check.
    """
    n1, n2 = len(a), len(b)
    if a == b:
        return 1.0
    if n1 == 0 or n2 == 0:
        return 0.0
    window = max(max(n1, n2) // 2 - 1, 0)
    span = 2 * window
    pointer = [0] * len(positions_b)
    matched = []  # the matched positions of b, in the order of a
    for lo, c in enumerate(a, -window):  # lo = i - window
        positions = positions_b[c]
        k = pointer[c]
        p = positions[k]
        while p < lo:
            k += 1
            p = positions[k]
        if p <= lo + span:
            matched.append(p)
            k += 1
        pointer[c] = k
    m = len(matched)
    if m == 0:
        return 0.0

    # A matched position of b holds the code it matched, so b read at the
    # matched positions gives the matched codes of a in the order of a, and
    # at the sorted ones those of b in the order of b. Each positional
    # mismatch is half a transposition, floored at the end.
    code_at = b.__getitem__
    t = sum(map(operator.ne, map(code_at, matched), map(code_at, sorted(matched)))) // 2
    return (m / n1 + m / n2 + (m - t) / m) / 3.0


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless 0 <= threshold <= 1."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
