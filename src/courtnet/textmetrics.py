"""String similarity primitives for fuzzy marker matching and node contraction.

Everything here operates on folded text: case-folded with diacritics stripped,
so that INTIMÉE, Intimee and intimée all compare equal.
"""

from __future__ import annotations

import unicodedata

from .errors import InvalidThreshold

DEFAULT_THRESHOLD = 0.8


def fold(text: str) -> str:
    """Strip diacritics and case-fold."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).casefold()


def fold_aligned(text: str) -> str:
    """Like fold(), but guaranteed to preserve length.

    Each character maps to exactly one folded character (first base character
    of its decomposition), so match positions found in the folded shadow are
    valid indices into the original string.
    """
    out = []
    for ch in text:
        decomposed = unicodedata.normalize("NFKD", ch)
        base = next((c for c in decomposed if not unicodedata.combining(c)), ch)
        folded = base.casefold()
        out.append(folded[0] if folded else base)
    return "".join(out)


def jaro_similarity(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1], computed on folded input.

    Characters match when equal and at most max(len)//2 - 1 positions apart,
    assigned greedily left to right (first unmatched equal character within
    the window). The transposition count is half the number of matched
    characters appearing in a different order, rounded down. Equal folded
    strings give 1.0; otherwise no matches at all, including either string
    being empty, gives 0.0.
    """
    a, b = fold(s1), fold(s2)
    n1, n2 = len(a), len(b)
    if a == b:
        return 1.0
    if n1 == 0 or n2 == 0:
        return 0.0
    window = max(max(n1, n2) // 2 - 1, 0)

    matched1 = [False] * n1
    matched2 = [False] * n2
    m = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(n2, i + window + 1)
        for j in range(lo, hi):
            if not matched2[j] and b[j] == ch:
                matched1[i] = True
                matched2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0

    # Walk both matched sequences in order; each positional mismatch is half
    # a transposition, floored at the end.
    k = 0
    diff = 0
    for i in range(n1):
        if not matched1[i]:
            continue
        while not matched2[k]:
            k += 1
        if a[i] != b[k]:
            diff += 1
        k += 1
    t = diff // 2
    return (m / n1 + m / n2 + (m - t) / m) / 3.0


def check_threshold(threshold: float) -> None:
    """Raise InvalidThreshold unless 0 <= threshold <= 1."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThreshold(f"threshold must be in [0, 1], got {threshold!r}")


def same_node(s1: str, s2: str, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True when the two strings are similar enough to be one node.

    Strictly greater than the threshold: jaro("entre", "et") is exactly 0.8
    and must not merge at the default.
    """
    check_threshold(threshold)
    return jaro_similarity(s1, s2) > threshold
