"""Lawyer performance metrics and the final ranking table.

Three views of the same population: raw experience (cases pleaded), win rate
over determined cases, and PageRank centrality on the opposing network,
where incoming weight flows from the lawyers one has beaten.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .networks import OpposingNetwork

logger = logging.getLogger(__name__)

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000


def check_pagerank_params(damping: float, tol: float, max_iter: int) -> None:
    """Raise ValueError unless 0 < damping < 1, tol > 0 and max_iter >= 1."""
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def pagerank(
    network: OpposingNetwork,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    """Weighted PageRank over the opposing network.

    Power iteration on out-probabilities proportional to edge weights; the
    rank mass of dangling nodes is spread uniformly over all nodes. Stops
    when the L1 change drops below tol; hitting max_iter first logs a
    warning and returns the last iterate. A network without nodes has no scores.
    An out-weight that overflows raises ValueError: w / inf would lose rank mass.
    Every sum runs in the order the network holds its nodes and edges, which
    build_opposing_network sets: name order, and (source, target) order.
    """
    check_pagerank_params(damping, tol, max_iter)
    if not network.nodes:
        return {}

    nodes = list(network.nodes)
    out_weight = {v: 0.0 for v in nodes}
    in_edges: dict[str, list[tuple[str, float]]] = {v: [] for v in nodes}
    for e in network.edges:
        out_weight[e.source] += e.weight
        in_edges[e.target].append((e.source, e.weight))
    heavy = [v for v in nodes if out_weight[v] == float("inf")]
    if heavy:
        raise ValueError(f"lawyer {heavy[0]!r}: opposing edge weights sum past the largest "
                         "float; win weights a or b too large")

    n = len(nodes)
    rank = {v: 1.0 / n for v in nodes}
    base = (1.0 - damping) / n
    delta = None
    for _ in range(max_iter):
        dangling = sum(rank[v] for v in nodes if out_weight[v] == 0.0)
        spread = dangling / n
        new = {}
        for v in nodes:
            acc = 0.0
            for u, w in in_edges[v]:
                acc += rank[u] * (w / out_weight[u])
            new[v] = base + damping * (acc + spread)
        delta = sum(abs(new[v] - rank[v]) for v in nodes)
        rank = new
        if delta < tol:
            break
    else:
        logger.warning(
            "pagerank stopped after %d iterations without converging "
            "(residual %.3e)", max_iter, delta,
        )
    return rank


@dataclass(frozen=True)
class RankRow:
    lawyer_canonical: str
    lawyer_display: str
    experience: int
    wins: int
    losses: int
    win_rate: float | None
    pagerank: float


def rank_table(
    network: OpposingNetwork,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[RankRow]:
    """One row per network node, sorted by PageRank then name.

    Each row prints the node's lawyer facts (networks.lawyer_tallies):
    experience counts undetermined cases too, and the win rate is over the
    cases won or lost, None where there are none.
    """
    scores = pagerank(network, damping=damping, tol=tol, max_iter=max_iter)
    rows = []
    for lawyer, facts in network.nodes.items():
        decided = facts.wins + facts.losses
        rows.append(RankRow(
            lawyer_canonical=lawyer,
            lawyer_display=facts.display,
            experience=facts.experience,
            wins=facts.wins,
            losses=facts.losses,
            win_rate=facts.wins / decided if decided else None,
            pagerank=scores[lawyer],
        ))
    rows.sort(key=lambda r: (-r.pagerank, r.lawyer_canonical))
    return rows


def write_rankings_csv(path: str | Path, rows: Iterable[RankRow]) -> None:
    """One column per RankRow field, in field order; no win rate is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in dataclasses.fields(RankRow))
        writer.writerows(map(dataclasses.astuple, rows))
