"""Size and jurisdiction mix of a synthetic corpus, checked without the generator."""

from typing import Mapping

GENERATOR_LAYOUTS = ("douai", "agen")
DEFAULT_MIX = {"douai": 0.5, "agen": 0.5}  # each layout's share of a corpus


def jurisdiction_counts(n_docs: int, mix: Mapping[str, float]) -> dict[str, int]:
    """Documents per jurisdiction layout; raises on a bad corpus size or mix."""
    if n_docs <= 0:
        raise ValueError(f"n_docs must be positive, got {n_docs}")
    if not mix:
        raise ValueError("mix is empty")
    for jur, w in mix.items():
        if jur not in GENERATOR_LAYOUTS:
            raise ValueError(f"unknown jurisdiction layout {jur!r}")
        if not (w > 0):
            raise ValueError(f"weight for {jur!r} must be positive, got {w!r}")
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mix weights must sum to 1, got {total!r}")
    keys = sorted(mix)
    counts = {k: int(n_docs * mix[k]) for k in keys}
    rest = n_docs - sum(counts.values())
    by_frac = sorted(keys, key=lambda k: (-(n_docs * mix[k] - counts[k]), k))
    for k in by_frac[:rest]:
        counts[k] += 1
    return counts
