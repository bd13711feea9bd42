"""Lawyer and case networks derived from the extraction records.

Three structures: a directed opposing network whose edges point from the
less to the more successful of two opposing lawyers, an undirected
collaboration network over same-side pairs, and an undirected case graph
linking decisions that cite enough common articles; `_sides` says who won each
determined case. Community detection runs on the unweighted skeleton of the
case graph, read from its per-set rows.

Each graph has one writer that streams `<stem>.graphml` and `<stem>.dot` from
the same node and edge rows, in one `graphio.write_graph` call. The DOT file
gets a subset of the GraphML schema, since the writers ignore row keys outside
the schema. The case graph holds no edge list and is written without edge rows:
an edge line's tail depends only on the target and the shared count, both held
in the source's set row, so each file formats every distinct tail once, lists
each set's tails once, and writes a source's edges as one join of its set's
tails under its head.
"""

from __future__ import annotations

import functools
import logging
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import graphio
from .extract import ArticleRef, ExtractionRecord, Outcome

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NetworkParams:
    a: float = 2.0         # value of a win obtained for the appellant
    b: float = 1.0         # value of a win obtained for the appellee
    min_cases: int = 2     # node survival threshold in the opposing network
    collab_min: int = 2    # minimum shared cases for a collaboration edge
    k: int = 3             # minimum shared articles for a case-graph edge

    def __post_init__(self):
        if not all(w > 0 and math.isfinite(w) for w in (self.a, self.b)):
            raise ValueError(
                f"win weights must be positive and finite, got a={self.a}, b={self.b}")
        if self.min_cases < 0 or self.collab_min < 0:
            raise ValueError("thresholds must be non-negative")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


def _sides(records: Iterable[ExtractionRecord]) -> Iterator[tuple[ExtractionRecord, list, list]]:
    """(record, winners, losers) for each determined record, in record order.

    Each side is the record's canonical counsel names, in order and without
    repeats; the appellants win an appellant win, the appellees the others.
    """
    for r in records:
        if r.outcome is not Outcome.UNDETERMINED:
            app = list(dict.fromkeys(n.canonical for n in r.appellant_lawyers))
            ape = list(dict.fromkeys(n.canonical for n in r.appellee_lawyers))
            yield (r, app, ape) if r.outcome is Outcome.APPELLANT_WINS else (r, ape, app)


@dataclass(frozen=True)
class LawyerFacts:
    """One lawyer's facts, each named for the column it fills."""
    display: str      # the first spelling the records give
    experience: int   # every case, undetermined ones included
    total_cases: int  # determined cases
    wins: int
    losses: int


def lawyer_tallies(records: Sequence[ExtractionRecord]) -> dict[str, LawyerFacts]:
    """Per canonical lawyer name: the lawyer's facts, counted here only.

    The display is the first spelling in record order; experience counts
    undetermined cases too. Determined cases, wins and losses come from
    `_sides`: a lawyer on both sides of a case gets neither win nor loss.
    """
    facts: dict[str, list] = {}  # [display, experience, determined cases, wins, losses]
    for r in records:
        # each canonical name once, with its first spelling in the record
        names = {n.canonical: n.display for n in reversed(r.appellant_lawyers + r.appellee_lawyers)}
        for lawyer, display in names.items():
            facts.setdefault(lawyer, [display, 0, 0, 0, 0])[1] += 1
    for _, winners, losers in _sides(records):
        for lawyer in set(winners).union(losers):
            facts[lawyer][2] += 1
        for lawyer in set(winners).symmetric_difference(losers):
            facts[lawyer][3 if lawyer in winners else 4] += 1
    return {lawyer: LawyerFacts(*f) for lawyer, f in facts.items()}


def pair_wins(
    records: Sequence[ExtractionRecord], params: NetworkParams = NetworkParams()
) -> dict[tuple[str, str], float]:
    """Directed win mass between opposing lawyers, over the determined records.

    wins[(i, j)] accumulates params.a for every case i won over j from the
    appellant side and params.b for every case won from the appellee side.
    A lawyer on both sides of a case is warned about and skipped.
    """
    wins: dict[tuple[str, str], float] = {}
    for r, winners, losers in _sides(records):
        mass = params.a if r.outcome is Outcome.APPELLANT_WINS else params.b
        for i in winners:
            for j in losers:
                if i == j:
                    logger.warning(
                        "%s: %s appears on both sides, pair skipped", r.doc_id, i
                    )
                    continue
                wins[(i, j)] = wins.get((i, j), 0.0) + mass
    return wins


@dataclass(frozen=True)
class OpposingEdge:
    source: str     # the lawyer with fewer wins in the pair
    target: str     # the lawyer with more wins
    weight: float
    wins_fw: float  # target's win mass over source
    wins_bw: float  # source's win mass over target


@dataclass
class OpposingNetwork:
    nodes: dict[str, LawyerFacts]
    edges: list[OpposingEdge]


def collapse(wins: Mapping[tuple[str, str], float]) -> list[OpposingEdge]:
    """Fold the two directions of each pair into one weighted edge.

    Weight is |delta| * ln(total + 1) where delta is the difference of the
    two win masses and total their sum; the edge points at the pair's
    winner. Balanced pairs produce no edge; the others come sorted by (source,
    target). A weight that is 0 or not finite raises ValueError naming the
    pair: a or b is too small or too large.
    """
    edges: list[OpposingEdge] = []
    unordered = sorted({(min(i, j), max(i, j)) for i, j in wins})
    for x, y in unordered:
        wxy = wins.get((x, y), 0.0)
        wyx = wins.get((y, x), 0.0)
        if wxy == wyx and math.isfinite(wxy):  # inf on both sides is an overflow, not a balance
            continue
        weight = abs(wxy - wyx) * math.log(wxy + wyx + 1.0)
        if not 0.0 < weight < math.inf:
            raise ValueError(f"opposing pair {x!r}, {y!r}: win masses {wxy!r} and {wyx!r} give"
                             f" the weight {weight!r}; win weights a or b too small or too large")
        if wxy > wyx:
            edges.append(OpposingEdge(y, x, weight, wxy, wyx))
        else:
            edges.append(OpposingEdge(x, y, weight, wyx, wxy))
    return sorted(edges, key=lambda e: (e.source, e.target))


def build_opposing_network(
    records: Sequence[ExtractionRecord], lawyers: Mapping[str, LawyerFacts],
    params: NetworkParams = NetworkParams(),
) -> OpposingNetwork:
    """Collapsed opposing network over the determined records, with
    low-volume lawyers pruned; `lawyers` is lawyer_tallies(records).

    Lawyers with fewer than params.min_cases determined cases are removed
    after edge weighting, together with their incident edges; a lawyer
    without a determined case is never a node. Isolated survivors stay, and
    each node, in name order, holds the lawyer's facts.
    """
    edges = collapse(pair_wins(records, params))
    nodes = {l: f for l, f in sorted(lawyers.items()) if f.total_cases >= max(params.min_cases, 1)}
    edges = [e for e in edges if e.source in nodes and e.target in nodes]
    return OpposingNetwork(nodes=nodes, edges=edges)


@dataclass(frozen=True)
class CollabEdge:
    u: str
    v: str
    weight: int          # wins minus losses over shared cases
    wins: int
    losses: int
    collaborations: int


@dataclass
class CollaborationGraph:
    nodes: list[str]
    edges: list[CollabEdge]


def build_collaboration_network(
    records: Sequence[ExtractionRecord], params: NetworkParams = NetworkParams()
) -> CollaborationGraph:
    """Same-side pairs weighted by shared wins minus shared losses, over the
    determined records.

    Pairs below params.collab_min shared cases are dropped; only lawyers
    incident to a surviving edge appear as nodes. Both come sorted.
    """
    stats: dict[tuple[str, str], list[int]] = {}  # per pair: [wins, losses]
    for _, winners, losers in _sides(records):
        for lost, side in enumerate((winners, losers)):
            for u, v in combinations(sorted(side), 2):
                s = stats.setdefault((u, v), [0, 0])
                s[lost] += 1
    edges: list[CollabEdge] = []
    for u, v in sorted(stats):
        wins_, losses = stats[(u, v)]
        if wins_ + losses < params.collab_min:
            continue
        edges.append(CollabEdge(u, v, wins_ - losses, wins_, losses, wins_ + losses))
    nodes = sorted({e.u for e in edges} | {e.v for e in edges})
    return CollaborationGraph(nodes=nodes, edges=edges)


@dataclass(frozen=True, eq=False)
class CaseGraph:
    """Cases as nodes with their outcome; edges link cases sharing at least k articles.

    `nodes` maps each document id to its outcome, in sorted id order, and a
    document's index is its place there. Documents citing the same article
    set have the same neighbours, so the edges are held per distinct set, as
    the sorted indices of its neighbouring documents and the articles shared
    with each. Document u's neighbours are its set's row without u, and its
    edges the entries of that row past u.
    """
    nodes: dict[str, Outcome]
    set_of_doc: array                 # each document's set number
    rows: list[tuple[array, array]]   # per set: neighbouring documents, shared counts
    edge_count: int


def build_case_graph(
    records: Iterable[ExtractionRecord], params: NetworkParams = NetworkParams()
) -> CaseGraph:
    """Link cases sharing at least params.k cited articles.

    Nodes cover every record, isolated ones included, in doc_id order. Cases are
    bucketed by their article set, and the articles shared between two
    distinct sets are counted through an inverted index over the sets. No
    state is kept per case pair: each set holds at most one entry per case,
    and no edge list is stored (see CaseGraph).
    """
    records = sorted(records, key=lambda r: r.doc_id)
    set_index: dict[frozenset, int] = {}
    set_of_doc = array("i")
    for r in records:
        set_of_doc.append(set_index.setdefault(r.articles, len(set_index)))
    sets = list(set_index)
    members = [array("i") for _ in sets]
    for i, s in enumerate(set_of_doc):
        members[s].append(i)
    by_ref: dict[ArticleRef, list[int]] = {}
    for s, refs in enumerate(sets):
        for ref in refs:
            by_ref.setdefault(ref, []).append(s)
    rows = []
    twice_edges = 0
    for s, refs in enumerate(sets):
        shared = {s: len(refs)}
        for ref in refs:
            for t in by_ref[ref]:
                if t != s:
                    shared[t] = shared.get(t, 0) + 1
        near = (members[t] for t, count in shared.items() if count >= params.k)
        nbrs = array("i", sorted(chain.from_iterable(near)))
        counts = array("i", map(shared.__getitem__, map(set_of_doc.__getitem__, nbrs)))
        rows.append((nbrs, counts))
        # a set of at least k articles neighbours itself, so holds its own documents
        twice_edges += len(members[s]) * (len(nbrs) - (len(refs) >= params.k))
    nodes = {r.doc_id: r.outcome for r in records}
    return CaseGraph(nodes, set_of_doc, rows, twice_edges // 2)


# ---------------------------------------------------------------------------
# Community detection: Louvain with fixed tie-breaking so results are
# reproducible. Operates on the unweighted skeleton of the case graph.

_GAIN_EPS = 1e-9


def _louvain_level(
    rows: list[dict[int, int]], row_of: Sequence[int], own: list[int], loops: list[int]
) -> tuple[list[int], bool]:
    """One local-move phase.

    Node v's neighbours are the keys of rows[row_of[v]] other than v, each
    with its edge weight. Nodes may share a row, and own[v] is the weight
    under which v's row lists v itself (0 when it does not). loops[v] is v's
    self-loop weight, stored pre-doubled. Every weight is an exact integer.
    The graph is undirected, so the rows listing v are the rows of v's
    neighbours, and of v itself when own[v] is set.

    The level starts from singletons, so each row is already a map from
    community to weight. It is kept one as nodes move: a move updates the
    rows listing the node, and a community whose weight falls to 0 leaves
    the row. A visited node's weight to each community is then its row,
    less own[v] on its own community.

    Nodes sharing a row have the same weight in every row, hence the same k
    (they must have the same self-loop too). So while they are alone, each
    in the community named after it that nobody has joined or left, their
    gains are equal and only the smallest can win the ascending strict-`>`
    scan. A node's candidates are therefore, per row group listed in its
    row, the group's smallest alone member other than itself, and the formed
    communities its row lists, kept per row in `formed`.
    """
    n = len(row_of)
    row_sum = [sum(row.values()) for row in rows]
    k = [loop + row_sum[r] - o for r, o, loop in zip(row_of, own, loops)]
    two_m = sum(k)
    comm = list(range(n))
    if two_m == 0:
        return comm, False
    listing = [list({row_of[u]: w for u, w in row.items()}.items()) for row in rows]
    groups = [[g for g, _ in pairs] for pairs in listing]
    members: list[list[int]] = [[] for _ in rows]
    for v, r in enumerate(row_of):
        members[r].append(v)
    alone = [True] * n

    def next_alone(v: int) -> int:
        """The smallest alone member of v's group after v, or -1."""
        group = members[row_of[v]]
        return next(filter(alone.__getitem__, islice(group, bisect_right(group, v), None)), -1)

    first = [group[0] if group else -1 for group in members]  # smallest alone member
    formed: list[set[int]] = [set() for _ in rows]
    sum_tot = k[:]
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in range(n):
            cv = comm[v]
            kv = k[v]
            r = row_of[v]
            weight_to = rows[r]
            base = (
                2.0 * (weight_to.get(cv, 0) - own[v]) / two_m
                - 2.0 * (sum_tot[cv] - kv) * kv / (two_m * two_m)
            )
            candidates = formed[r].union(map(first.__getitem__, groups[r]))
            if own[v] and first[r] == v:
                candidates.add(next_alone(v))
            candidates.discard(-1)
            best_gain = _GAIN_EPS
            best_c = cv
            for c in sorted(candidates):
                if c == cv:
                    continue
                gain = (
                    2.0 * weight_to[c] / two_m
                    - 2.0 * sum_tot[c] * kv / (two_m * two_m)
                    - base
                )
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            if best_c != cv:
                for g, w in listing[r]:
                    row = rows[g]
                    left = row[cv] - w
                    if left:
                        row[cv] = left
                    else:
                        del row[cv]
                        formed[g].discard(cv)
                    row[best_c] = row.get(best_c, 0) + w
                    formed[g].add(best_c)
                if alone[best_c]:  # joined: every row listing it now lists a formed community
                    for g, _ in listing[row_of[best_c]]:
                        formed[g].add(best_c)
                for u in (v, best_c):
                    if alone[u]:
                        alone[u] = False
                        if first[row_of[u]] == u:
                            first[row_of[u]] = next_alone(u)
                sum_tot[cv] -= kv
                sum_tot[best_c] += kv
                comm[v] = best_c
                improved = True
                moved_any = True
    return comm, moved_any


def _dense_renumber(values: list[int]) -> list[int]:
    mapping: dict[int, int] = {}
    out = []
    for v in values:
        if v not in mapping:
            mapping[v] = len(mapping)
        out.append(mapping[v])
    return out


def _aggregate(
    rows: list[dict[int, int]], row_of: Sequence[int], own: list[int],
    loops: list[int], comm: list[int], labels: list[int],
) -> tuple[list[dict[int, int]], list[int]]:
    """The graph of the communities, numbered by `labels`, in _louvain_level's form.

    `rows` are the per-row community weights _louvain_level leaves, keyed by
    raw community ids, so each community's row adds up the rows of its
    members, once per distinct row with the count of members using it. The
    weight inside the community, less the members' own entries, joins its
    self-loop: each internal edge counts once from each end.
    """
    label_of = dict(zip(comm, labels))
    size = len(label_of)
    new_loops = [0] * size
    uses: list[dict[int, int]] = [{} for _ in range(size)]
    for c, r, o, loop in zip(labels, row_of, own, loops):
        uses[c][r] = uses[c].get(r, 0) + 1
        new_loops[c] += loop - o
    new_rows = []
    for c, used in enumerate(uses):
        row: dict[int, int] = {}
        for r, members in used.items():
            for d, w in rows[r].items():
                d = label_of[d]
                row[d] = row.get(d, 0) + members * w
        new_loops[c] += row.pop(c, 0)
        new_rows.append(row)
    return new_rows, new_loops


def _louvain(rows: list[dict[int, int]], row_of: Sequence[int]) -> list[int]:
    """Each node's community; node v's neighbours are rows[row_of[v]] as in _louvain_level.

    Each level numbers its communities by first appearance, and the next level's
    nodes are those communities in that order, so the ids are dense and ordered by
    each community's smallest member.
    """
    node_comm = list(range(len(row_of)))
    loops = [0] * len(row_of)
    while True:
        own = [rows[r].get(v, 0) for v, r in enumerate(row_of)]
        comm, moved = _louvain_level(rows, row_of, own, loops)
        labels = _dense_renumber(comm)
        node_comm = [labels[c] for c in node_comm]
        if not moved:
            return node_comm
        rows, loops = _aggregate(rows, row_of, own, loops, comm, labels)
        row_of = range(len(rows))


@dataclass
class CommunityPartition:
    assignment: dict[str, int]

    @property
    def sizes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for cid in self.assignment.values():
            out[cid] = out.get(cid, 0) + 1
        return out


def detect_communities(graph: CaseGraph) -> CommunityPartition:
    """Louvain communities of the case graph's unweighted skeleton.

    Deterministic: nodes are swept in ascending id order, ties go to the
    smallest community id, moves need a gain above 1e-9, and the ids, as
    _louvain numbers them, are dense and ordered by each community's smallest
    member. Each document shares its set's row, which holds no repeated edge.
    """
    rows = [dict.fromkeys(nbrs, 1) for nbrs, _ in graph.rows]
    return CommunityPartition(dict(zip(graph.nodes, _louvain(rows, graph.set_of_doc))))


def community_win_rate(
    partition: CommunityPartition, outcomes: Mapping[str, Outcome]
) -> dict[int, float]:
    """Appellant win rate per community over its determined members.

    Communities without any determined member are absent from the result.
    """
    won: dict[int, int] = {}
    determined: dict[int, int] = {}
    for node, cid in partition.assignment.items():
        outcome = outcomes.get(node, Outcome.UNDETERMINED)
        if outcome is Outcome.UNDETERMINED:
            continue
        determined[cid] = determined.get(cid, 0) + 1
        if outcome is Outcome.APPELLANT_WINS:
            won[cid] = won.get(cid, 0) + 1
    return {cid: won.get(cid, 0) / total for cid, total in determined.items()}


def write_communities_csv(
    path: str | Path,
    partition: CommunityPartition,
    outcomes: Mapping[str, Outcome],
) -> None:
    rates = community_win_rate(partition, outcomes)
    sizes = partition.sizes
    lines = ["community_id,size,appellant_win_rate"]
    for cid in sorted(sizes):
        rate = repr(rates[cid]) if cid in rates else ""
        lines.append(f"{cid},{sizes[cid]},{rate}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# GraphML / DOT export of the pipeline artifacts

def write_opposing(stem: str | Path, net: OpposingNetwork) -> None:
    """`<stem>.graphml` and `<stem>.dot`; DOT edges show only the weight."""
    graphio.write_graph(
        stem, directed=True,
        node_attrs=[("total_cases", "long"), ("wins", "long"), ("losses", "long")],
        edge_attrs=[("weight", "double"), ("wins_fw", "double"), ("wins_bw", "double")],
        nodes=[(l, vars(s)) for l, s in net.nodes.items()],
        edges=[(e.source, e.target, vars(e)) for e in net.edges],
        dot_omits={"wins_fw", "wins_bw"},
    )


def write_collaboration(stem: str | Path, graph: CollaborationGraph) -> None:
    """`<stem>.graphml` and `<stem>.dot`; DOT edges show weight and collaborations."""
    graphio.write_graph(
        stem, directed=False, node_attrs=[],
        edge_attrs=[("weight", "long"), ("wins", "long"),
                    ("losses", "long"), ("collaborations", "long")],
        nodes=[(n, {}) for n in graph.nodes],
        edges=[(e.u, e.v, vars(e)) for e in graph.edges],
        dot_omits={"wins", "losses"},
    )


def write_case(stem: str | Path, graph: CaseGraph, communities: Mapping[str, int]) -> None:
    """`<stem>.graphml` and `<stem>.dot`; only GraphML nodes carry the community."""
    ids = list(graph.nodes)

    def edges(head, tail):
        """Each source's edge lines as one string, in sorted order.

        A set's tails are listed the first time one of its documents is a
        source, and each distinct (target, shared) tail is formatted once;
        document u's edges are the tails past u in its set's row.
        """
        @functools.cache
        def tail_of(v: int, count: int) -> str:
            return tail(ids[v], {"shared_articles": count})
        tails: dict[int, list[str]] = {}
        for u, s in enumerate(graph.set_of_doc):
            nbrs, shared = graph.rows[s]
            start = bisect_right(nbrs, u)
            if start == len(nbrs):
                continue
            if s not in tails:
                tails[s] = list(map(tail_of, nbrs, shared))
            h = head(ids[u])
            yield h + h.join(tails[s][start:])
    graphio.write_graph(
        stem, directed=False, node_attrs=[("outcome", "string"), ("community", "long")],
        edge_attrs=[("shared_articles", "long")],
        nodes=[(d, {"outcome": o.value, "community": communities[d]})
               for d, o in graph.nodes.items()],
        edges=edges, dot_omits={"community"},
    )
