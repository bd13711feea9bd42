"""Opposing and collaboration networks, case graph, communities."""

import logging
import math
import random
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from courtnet.synth import generate_synthetic_corpus
from courtnet.extract import ArticleRef, ExtractionRecord, LawyerName, Outcome, extract_record
from courtnet import networks
from courtnet.graphio import write_dot, write_graphml
from courtnet.segmenter import get_profile, segment
from courtnet.networks import (
    CollabEdge,
    LawyerFacts,
    NetworkParams,
    OpposingEdge,
    _dense_renumber,
    _louvain_level,
    build_case_graph,
    build_collaboration_network,
    build_opposing_network,
    collapse,
    community_win_rate,
    detect_communities,
    lawyer_tallies,
    pair_wins,
    write_case,
    write_collaboration,
    write_communities_csv,
    write_opposing,
)

from oracles import (
    best_partition_reference,
    case_edges_reference,
    communities_reference,
    lawyer_half_reference,
    louvain_level_reference,
    modularity_reference,
    parse_graphml,
)


def _names(names):
    """Each name as given if a LawyerName, else spelled as its canonical form."""
    return tuple(n if isinstance(n, LawyerName) else LawyerName(n, n) for n in names)


def _case(doc_id, appellants, appellees, outcome):
    """A record citing nothing."""
    return ExtractionRecord(
        doc_id=doc_id,
        appellant_lawyers=_names(appellants),
        appellee_lawyers=_names(appellees),
        articles=frozenset(),
        outcome=outcome,
        confirm_count=0,
        reverse_count=0,
    )


def _opposing(records, params=NetworkParams()):
    """The opposing network of the records, over their lawyer tallies."""
    return build_opposing_network(records, lawyer_tallies(records), params)


def _decided(network):
    """Each node's determined cases, wins and losses."""
    return {l: (s.total_cases, s.wins, s.losses) for l, s in network.nodes.items()}


def _case_records(articles, outcomes):
    """One record per document of `articles`, in its order, citing its articles,
    with its outcome from `outcomes`, Undetermined if absent, and no counsel."""
    return [ExtractionRecord(doc_id, (), (), frozenset(refs),
                             outcomes.get(doc_id, Outcome.UNDETERMINED), 0, 0)
            for doc_id, refs in articles.items()]


def _case_graph(articles, outcomes, k):
    """The case graph of `articles` and `outcomes`, as _case_records reads them."""
    return build_case_graph(_case_records(articles, outcomes), k)


def _case_graph_of(nodes, edges):
    """The k=1 case graph of a simple graph, which is that graph: each node
    cites one article per distinct edge at it, so two nodes share an article
    exactly when an edge joins them. Self-loops cite nothing."""
    articles = {node: set() for node in nodes}
    for u, v in edges:
        if u != v:
            ref = ArticleRef("edge", repr(sorted((u, v))))
            articles[u].add(ref)
            articles[v].add(ref)
    return _case_graph(articles, {}, 1)


def _edges(graph):
    """(u, v, shared articles) of each case-graph edge in sorted order: for
    each document u, the entries of its set's row past u."""
    ids = list(graph.nodes)
    for u, s in enumerate(graph.set_of_doc):
        nbrs, shared = graph.rows[s]
        for v, count in zip(nbrs, shared):
            if v > u:
                yield ids[u], ids[v], count


def _groups(partition):
    """Each community id mapped to its members, in ascending order."""
    out = {}
    for node in sorted(partition.assignment):
        out.setdefault(partition.assignment[node], []).append(node)
    return out


def test_network_params_validation():
    NetworkParams()
    with pytest.raises(ValueError):
        NetworkParams(a=0.0)
    with pytest.raises(ValueError):
        NetworkParams(b=-1.0)
    with pytest.raises(ValueError):
        NetworkParams(a=math.inf)
    with pytest.raises(ValueError):
        NetworkParams(b=math.inf)
    with pytest.raises(ValueError):
        NetworkParams(a=math.nan)
    with pytest.raises(ValueError):
        NetworkParams(min_cases=-1)
    with pytest.raises(ValueError):
        NetworkParams(collab_min=-2)


def test_lawyer_tallies():
    results = [
        _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["z"], Outcome.APPELLEE_WINS),
        _case("c3", ["y"], [LawyerName("x", "Me X")], Outcome.UNDETERMINED),
    ]
    # undetermined cases count toward experience but not determined cases,
    # wins or losses; the display is the first spelling met
    assert lawyer_tallies(results) == {
        "x": LawyerFacts("x", experience=3, total_cases=2, wins=1, losses=1),
        "y": LawyerFacts("y", experience=2, total_cases=1, wins=0, losses=1),
        "z": LawyerFacts("z", experience=1, total_cases=1, wins=1, losses=0),
    }


def test_lawyer_tallies_both_sides_is_neutral():
    results = [_case("c1", ["x", "y"], ["x"], Outcome.APPELLANT_WINS)]
    tallies = lawyer_tallies(results)
    assert tallies["x"] == LawyerFacts("x", 1, 1, 0, 0)
    assert tallies["y"] == LawyerFacts("y", 1, 1, 1, 0)


def test_pair_wins_weights():
    params = NetworkParams(a=2.0, b=1.0)
    results = [
        _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c3", ["y"], ["x"], Outcome.APPELLANT_WINS),
        _case("c4", ["x"], ["y"], Outcome.APPELLEE_WINS),
    ]
    wins = pair_wins(results, params)
    # x beat y twice as appellant; y beat x once as appellant and once
    # as appellee
    assert wins == {("x", "y"): 4.0, ("y", "x"): 3.0}


def test_pair_wins_ignores_undetermined():
    assert pair_wins([_case("c1", ["x"], ["y"], Outcome.UNDETERMINED)]) == {}


def test_pair_wins_skips_lawyer_on_both_sides(caplog):
    results = [_case("c1", ["x", "y"], ["x"], Outcome.APPELLANT_WINS)]
    with caplog.at_level(logging.WARNING, logger="courtnet.networks"):
        wins = pair_wins(results)
    assert wins == {("y", "x"): 2.0}
    assert any("both sides" in r.message for r in caplog.records)


def test_collapse_direction_and_weight():
    edges = collapse({("x", "y"): 4.0, ("y", "x"): 2.0})
    assert edges == [
        OpposingEdge("y", "x", 2.0 * math.log(7.0), 4.0, 2.0)
    ]
    # one-sided records still collapse
    edges = collapse({("a", "b"): 2.0})
    assert edges == [OpposingEdge("b", "a", 2.0 * math.log(3.0), 2.0, 0.0)]
    # balanced pairs vanish
    assert collapse({("a", "b"): 3.0, ("b", "a"): 3.0}) == []


@pytest.mark.parametrize("wins, weight", [
    # balanced, but only because both masses overflowed
    ({("x", "y"): math.inf, ("y", "x"): math.inf}, "nan"),
    ({("x", "y"): 1e308, ("y", "x"): 0.0}, "inf"),
    # masses summing below 1.1e-16 give ln(total + 1) = 0
    ({("x", "y"): 6e-17, ("y", "x"): 4e-17}, "0.0"),
    ({("x", "y"): 2e-17}, "0.0"),
])
def test_collapse_refuses_an_edge_weight_that_is_0_or_not_finite(wins, weight):
    with pytest.raises(ValueError, match=rf"^opposing pair 'x', 'y': win masses .* give the "
                                         rf"weight {weight}; win weights a or b too small"):
        collapse(wins)


def test_build_opposing_network_prunes_thin_nodes():
    results = [
        _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c3", ["x"], ["z"], Outcome.APPELLEE_WINS),
    ]
    network = _opposing(results, NetworkParams(min_cases=2))
    # z only has one case and is dropped, together with its edge
    assert set(network.nodes) == {"x", "y"}
    assert network.nodes["x"] == LawyerFacts("x", experience=3, total_cases=3, wins=2, losses=1)
    assert [(e.source, e.target) for e in network.edges] == [("y", "x")]
    assert network.edges[0].weight == pytest.approx(4.0 * math.log(5.0))


def test_build_opposing_network_keeps_isolated_survivors():
    results = [
        # x takes 2.0 as winning appellant, y takes 1.0 twice as winning
        # appellee, so the pair balances and no edge survives
        _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["y"], Outcome.APPELLEE_WINS),
        _case("c3", ["x"], ["y"], Outcome.APPELLEE_WINS),
    ]
    network = _opposing(results, NetworkParams(min_cases=2))
    assert set(network.nodes) == {"x", "y"}
    assert network.edges == []


def test_collaboration_network():
    results = [
        _case("c1", ["x", "y"], ["z"], Outcome.APPELLANT_WINS),
        _case("c2", ["x", "y"], ["z"], Outcome.APPELLEE_WINS),
        _case("c3", ["z"], ["x", "y"], Outcome.APPELLANT_WINS),
        _case("c4", ["a", "b"], ["z"], Outcome.APPELLANT_WINS),
    ]
    graph = build_collaboration_network(results, NetworkParams(collab_min=2))
    # x and y collaborated three times: one win, two losses
    assert graph.edges == [CollabEdge("x", "y", -1, 1, 2, 3)]
    # a-b collaborated once, below the cutoff; nodes are edge-incident only
    assert graph.nodes == ["x", "y"]


def test_collaboration_ignores_undetermined_outcomes():
    graph = build_collaboration_network(
        [_case("c1", ["x", "y"], ["z"], Outcome.UNDETERMINED)], NetworkParams(collab_min=1)
    )
    assert graph.nodes == [] and graph.edges == []


def test_lawyer_networks_leave_undetermined_records_out():
    # the seed-7 1k records as `run` extracts them, undetermined cases and
    # records without counsel included
    docs, _ = generate_synthetic_corpus(seed=7, n_docs=1000)
    profile = get_profile("generic")
    records = [extract_record(doc, segment(doc, profile)) for doc in docs]
    determined = [r for r in records if r.outcome is not Outcome.UNDETERMINED]
    assert len(determined) < len(records)
    opposing = _opposing(records)
    from_determined = _opposing(determined)
    assert opposing.edges == from_determined.edges
    assert _decided(opposing) == _decided(from_determined)
    assert opposing.nodes and opposing.edges
    # node totals count determined cases only; experience counts them all
    assert sum(s.total_cases for s in opposing.nodes.values()) < sum(
        s.experience for s in opposing.nodes.values())
    collaboration = build_collaboration_network(records)
    assert collaboration == build_collaboration_network(determined)
    assert collaboration.edges


# repeats, empty sides, and up to three spellings of each canonical name
_SIDE = st.lists(st.sampled_from([LawyerName(name, spelling) for name in "xyzw"
                                  for spelling in (name, name.upper(), f"Me {name.upper()}")]),
                 max_size=3)


@settings(max_examples=150)
@example(records=[_case("c0", ["x", "y", LawyerName("x", "X")], ["x", "z"],
                        Outcome.APPELLANT_WINS),
                  _case("c1", ["z"], ["y", "y"], Outcome.APPELLEE_WINS),
                  _case("c2", ["x"], ["z"], Outcome.UNDETERMINED),
                  _case("c3", [], [], Outcome.APPELLEE_WINS)],
         a=0.3, b=0.7, min_cases=1, collab_min=1)
@given(records=st.lists(st.tuples(_SIDE, _SIDE, st.sampled_from(Outcome)), max_size=40).map(
           lambda drawn: [_case(f"c{i:02d}", *r) for i, r in enumerate(drawn)]),
       a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
       min_cases=st.integers(0, 3), collab_min=st.integers(0, 3))
def test_lawyer_half_equals_the_per_side_reference(records, a, b, min_cases, collab_min):
    params = NetworkParams(a=a, b=b, min_cases=min_cases, collab_min=collab_min)
    want = lawyer_half_reference(records, a, b, min_cases, collab_min)
    lawyers = lawyer_tallies(records)
    assert {l: tuple(vars(f).values()) for l, f in lawyers.items()} == want["tallies"]
    assert pair_wins(records, params) == want["wins"]
    opposing = build_opposing_network(records, lawyers, params)
    assert ({l: tuple(vars(f).values()) for l, f in opposing.nodes.items()},
            [(e.source, e.target, e.weight, e.wins_fw, e.wins_bw) for e in opposing.edges]
            ) == want["opposing"]
    assert list(opposing.nodes) == list(want["opposing"][0])
    collaboration = build_collaboration_network(records, params)
    assert (collaboration.nodes, [tuple(vars(e).values()) for e in collaboration.edges]
            ) == want["collaboration"]


def test_graph_rows_come_back_in_written_order(tmp_path):
    # each builder sets its rows' order once: the lawyer graphs hold sorted rows
    # and are written in that order, and the case graph is the same whatever
    # the order of its records
    docs, _ = generate_synthetic_corpus(seed=7, n_docs=300)
    profile = get_profile("generic")
    records = [extract_record(doc, segment(doc, profile)) for doc in docs]
    params = NetworkParams(min_cases=1, collab_min=1)
    opposing = _opposing(records, params)
    collaboration = build_collaboration_network(records, params)
    for graph, stem, nodes, pairs in (
            (opposing, "opposing", list(opposing.nodes),
             [(e.source, e.target) for e in opposing.edges]),
            (collaboration, "collaboration", collaboration.nodes,
             [(e.u, e.v) for e in collaboration.edges])):
        assert nodes and pairs
        assert nodes == sorted(nodes) and pairs == sorted(pairs), stem
        (write_opposing if graph is opposing else write_collaboration)(tmp_path / stem, graph)
        _, written_nodes, written_edges = parse_graphml(tmp_path / f"{stem}.graphml")
        assert [n for n, _ in written_nodes] == nodes, stem
        assert [(u, v) for u, v, _ in written_edges] == pairs, stem
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    ordered = sorted(records, key=lambda r: r.doc_id)
    assert shuffled != ordered
    for k in (1, 3):
        got, want = build_case_graph(shuffled, k), build_case_graph(ordered, k)
        assert list(got.nodes.items()) == list(want.nodes.items())
        assert (got.set_of_doc, got.rows, got.edge_count) == (
            want.set_of_doc, want.rows, want.edge_count)


def _random_articles(rng, n_cases):
    themes = [ArticleRef("code", str(num)) for num in range(12)]
    return {
        f"case{idx:03d}": frozenset(rng.sample(themes, rng.randrange(0, 6)))
        for idx in range(n_cases)
    }


def test_case_graph_matches_brute_force():
    rng = random.Random(97)
    for trial in range(10):
        articles = _random_articles(rng, 40)
        outcomes = {doc: Outcome.UNDETERMINED for doc in articles}
        for k in (1, 2, 3):
            graph = _case_graph(articles, outcomes, k)
            got = {(u, v): shared for u, v, shared in _edges(graph)}
            assert got == case_edges_reference(articles, k)
            assert set(graph.nodes) == set(articles)


def test_case_graph_edges_shrink_as_k_grows():
    rng = random.Random(31)
    articles = _random_articles(rng, 60)
    outcomes = {doc: Outcome.APPELLANT_WINS for doc in articles}
    sizes = [_case_graph(articles, outcomes, k).edge_count for k in (1, 2, 3, 4)]
    assert sizes == sorted(sizes, reverse=True)


def test_case_graph_rejects_bad_k():
    with pytest.raises(ValueError):
        _case_graph({}, {}, 0)


_REFS = [ArticleRef("code", str(num)) for num in range(8)]


@st.composite
def _article_maps(draw, ids=st.text(max_size=3)):
    """Documents drawn from a few article sets, so most sets have many documents."""
    sets = draw(st.lists(st.frozensets(st.sampled_from(_REFS)), min_size=1, max_size=6))
    return draw(st.dictionaries(ids, st.sampled_from(sets), max_size=40))


@given(_article_maps(), st.integers(1, 5))
def test_case_graph_edges_equal_quadratic_scan_in_order(articles, k):
    graph = _case_graph(articles, {}, k)
    want = [(u, v, shared) for (u, v), shared in sorted(case_edges_reference(articles, k).items())]
    got = list(_edges(graph))
    assert got == want
    assert graph.edge_count == len(want)
    assert list(_edges(graph)) == got
    assert [(u, v) for u, v, _ in got] == list(case_edges_reference(articles, k))


@given(_article_maps(), st.integers(1, 5))
def test_case_adjacency_equals_rows_built_from_the_edges(articles, k):
    # isolated documents, empty sets and sets of fewer than k articles, which
    # hold none of their own documents, all occur in the drawn maps
    graph = _case_graph(articles, {}, k)
    index = {doc_id: i for i, doc_id in enumerate(graph.nodes)}
    want = [[] for _ in index]
    for u, v in case_edges_reference(articles, k):
        want[index[u]].append(index[v])
        want[index[v]].append(index[u])
    got = [[v for v in graph.rows[s][0] if v != u] for u, s in enumerate(graph.set_of_doc)]
    assert got == [sorted(row) for row in want]


@given(_article_maps(), st.integers(1, 5))
def test_case_communities_equal_dict_based_reference(articles, k):
    graph = _case_graph(articles, {}, k)
    want = communities_reference(sorted(articles), case_edges_reference(articles, k))
    assert detect_communities(graph).assignment == want


@given(_article_maps(st.text('a&<>"\\\n\r\t', max_size=3)), st.integers(1, 4))
def test_case_files_equal_the_generic_writers_on_plain_rows(articles, k):
    outcomes = list(Outcome)
    graph = _case_graph(
        articles, {d: outcomes[i % 3] for i, d in enumerate(sorted(articles))}, k
    )
    communities = detect_communities(graph).assignment
    nodes = [(d, {"outcome": o.value, "community": communities[d]})
             for d, o in sorted(graph.nodes.items())]
    rows = [(u, v, {"shared_articles": shared})
            for (u, v), shared in sorted(case_edges_reference(articles, k).items())]
    edge_attrs = [("shared_articles", "long")]
    with tempfile.TemporaryDirectory() as tmp:
        write_case(Path(tmp, "cases"), graph, communities)
        write_graphml(Path(tmp, "rows.graphml"), directed=False,
                      node_attrs=[("outcome", "string"), ("community", "long")],
                      edge_attrs=edge_attrs, nodes=nodes, edges=rows)
        write_dot(Path(tmp, "rows.dot"), directed=False, node_attrs=[("outcome", "string")],
                  edge_attrs=edge_attrs, nodes=nodes, edges=rows)
        for ext in ("graphml", "dot"):
            assert Path(tmp, f"cases.{ext}").read_bytes() == Path(tmp, f"rows.{ext}").read_bytes()


def test_case_communities_on_the_seed_7_1k_graph_equal_dict_based_reference():
    # many documents share each set row and nodes move thousands of times,
    # which the small drawn maps only sample
    _, truth = generate_synthetic_corpus(seed=7, n_docs=1000)
    articles = {d: t.articles for d, t in truth.entries.items()}
    graph = _case_graph(articles, {}, 3)
    assert graph.edge_count == 47_862
    want = communities_reference(sorted(articles), case_edges_reference(articles, 3))
    assert detect_communities(graph).assignment == want


def test_case_communities_equal_dict_based_reference_where_the_second_level_moves():
    # larger sets over more articles than the drawn maps, so that the
    # communities of the first level, which hold their documents' own set
    # entries, still have neighbours and move at the second level
    refs = [ArticleRef("code", str(num)) for num in range(12)]
    for seed in range(40):
        rng = random.Random(seed)
        sets = [frozenset(rng.sample(refs, rng.randrange(2, 7)))
                for _ in range(rng.randrange(3, 10))]
        articles = {f"d{i:02d}": rng.choice(sets) for i in range(rng.randrange(10, 60))}
        for k in (2, 3):
            graph = _case_graph(articles, {}, k)
            want = communities_reference(sorted(articles), case_edges_reference(articles, k))
            assert detect_communities(graph).assignment == want, (seed, k)


def _assert_level_equals_reference(rows, row_of, loops):
    """_louvain_level returns what the per-candidate reference returns and
    leaves the rows in the same state, on copies of the same input."""
    own = [rows[r].get(v, 0) for v, r in enumerate(row_of)]
    got_rows = [dict(row) for row in rows]
    want_rows = [dict(row) for row in rows]
    got = _louvain_level(got_rows, row_of, own, loops)
    assert got == louvain_level_reference(want_rows, row_of, own, loops)
    assert [list(row.items()) for row in got_rows] == [list(row.items()) for row in want_rows]


@st.composite
def _crowded_article_maps(draw):
    """10 to 80 documents over a few sets, so that a set row is shared by many."""
    sets = draw(st.lists(st.frozensets(st.sampled_from(_REFS), min_size=2, max_size=6),
                         min_size=2, max_size=8))
    cited = draw(st.lists(st.sampled_from(sets), min_size=10, max_size=80))
    return {f"d{i:02d}": refs for i, refs in enumerate(cited)}


@settings(max_examples=300)
@given(_crowded_article_maps(), st.integers(1, 4))
def test_level_on_shared_set_rows_equals_per_candidate_reference(articles, k):
    # sets of fewer than k articles leave their documents out of their own
    # row (own 0); larger sets list them (own 1)
    graph = _case_graph(articles, {}, k)
    rows = [dict.fromkeys(nbrs, 1) for nbrs, _ in graph.rows]
    _assert_level_equals_reference(rows, graph.set_of_doc, [0] * len(graph.set_of_doc))


@st.composite
def _weighted_rows(draw):
    """One row per node, as generic graphs and aggregated levels have: a
    symmetric integer weight per edge and a pre-doubled self-loop per node."""
    n = draw(st.integers(0, 30))
    rows = [{} for _ in range(n)]
    if n:
        end = st.integers(0, n - 1)
        for u, v, w in draw(st.lists(st.tuples(end, end, st.integers(1, 3)), max_size=90)):
            if u != v:
                rows[u][v] = rows[v][u] = w
    loops = draw(st.lists(st.integers(0, 3).map(lambda w: 2 * w), min_size=n, max_size=n))
    return rows, loops


@given(_weighted_rows())
def test_level_on_one_row_per_node_equals_per_candidate_reference(graph):
    rows, loops = graph
    _assert_level_equals_reference(rows, range(len(rows)), loops)


def test_case_graph_memory_does_not_grow_with_the_pair_count():
    _, truth = generate_synthetic_corpus(seed=7, n_docs=1000)
    articles = {doc_id: t.articles for doc_id, t in truth.entries.items()}
    outcomes = {doc_id: t.outcome for doc_id, t in truth.entries.items()}
    records = _case_records(articles, outcomes)
    tracemalloc.start()
    try:
        graph = build_case_graph(records, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count > 40_000
    assert peak < 5 * 2**20


def test_communities_split_joined_cliques():
    nodes = [f"n{i}" for i in range(8)]
    edges = [(f"n{i}", f"n{j}") for i in range(4) for j in range(i + 1, 4)]
    edges += [(f"n{i}", f"n{j}") for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append(("n0", "n4"))
    partition = detect_communities(_case_graph_of(nodes, edges))
    groups = _groups(partition)
    assert len(groups) == 2
    assert sorted(map(tuple, groups.values())) == [
        ("n0", "n1", "n2", "n3"), ("n4", "n5", "n6", "n7"),
    ]


def test_communities_pair_up_a_ring_of_cliques_at_the_second_level():
    # the first level finds the 16 cliques; only the weighted graph of the
    # second level can join them, into 8 pairs of neighbouring cliques
    cliques = [[f"c{c:02d}n{i}" for i in range(4)] for c in range(16)]
    edges = [(u, v) for clique in cliques for u, v in combinations(clique, 2)]
    edges += [(clique[-1], cliques[(c + 1) % 16][0]) for c, clique in enumerate(cliques)]
    nodes = [n for clique in cliques for n in clique]
    partition = detect_communities(_case_graph_of(nodes, edges))
    assert partition.assignment == communities_reference(nodes, edges)
    clique_of = {n: c for c, clique in enumerate(cliques) for n in clique}
    groups = _groups(partition).values()
    assert len(groups) == 8
    for group in groups:
        a, b = sorted({clique_of[n] for n in group})
        assert len(group) == 8 and (b - a) % 16 in (1, 15)


def test_communities_on_edgeless_graph_are_singletons():
    partition = detect_communities(_case_graph_of(["a", "b", "c"], []))
    assert partition.assignment == {"a": 0, "b": 1, "c": 2}
    assert detect_communities(_case_graph_of([], [])).assignment == {}


def test_community_ids_are_dense_and_ordered_by_smallest_member(monkeypatch):
    nodes = ["a", "b", "c", "d"]
    edges = [("c", "d"), ("a", "b")]
    partition = detect_communities(_case_graph_of(nodes, edges))
    assert partition.assignment == {"a": 0, "b": 0, "c": 1, "d": 1}
    assert partition.sizes == {0: 2, 1: 2}
    # a ring of 12 triangles, each tied to the next, under names that interleave
    # the triangles: the first level finds the triangles, and the second, on the
    # aggregated graph, joins some of them, so ids pass through two numberings
    moved, aggregated = [], []
    level, aggregate = networks._louvain_level, networks._aggregate

    def recording_level(*args):
        comm, moved_any = level(*args)
        moved.append(moved_any)
        return comm, moved_any

    def recording_aggregate(*args):
        rows, loops = aggregate(*args)
        aggregated.append(len(rows))
        return rows, loops

    monkeypatch.setattr(networks, "_louvain_level", recording_level)
    monkeypatch.setattr(networks, "_aggregate", recording_aggregate)
    names = [f"n{7 * i % 36:02d}" for i in range(36)]
    edges = [(names[3 * t + i], names[3 * t + j])
             for t in range(12) for i, j in ((0, 1), (0, 2), (1, 2))]
    edges += [(names[3 * t], names[(3 * t + 4) % 36]) for t in range(12)]
    partition = detect_communities(_case_graph_of(names, edges))
    assert moved == [True, True, False] and aggregated == [12, 7]
    ids = [partition.assignment[name] for name in sorted(names)]
    assert ids == _dense_renumber(ids)
    assert sorted(partition.sizes.items()) == [(0, 6), (1, 6), (2, 6), (3, 6), (4, 6), (5, 3), (6, 3)]


def test_communities_ignore_insertion_order():
    rng = random.Random(5)
    nodes = [f"n{i}" for i in range(10)]
    edges = [(f"n{i}", f"n{j}") for i in range(10) for j in range(i + 1, 10)
             if rng.random() < 0.4]
    baseline = detect_communities(_case_graph_of(nodes, edges)).assignment
    for _ in range(5):
        shuffled_nodes = nodes[:]
        shuffled_edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
        rng.shuffle(shuffled_nodes)
        rng.shuffle(shuffled_edges)
        assert detect_communities(_case_graph_of(shuffled_nodes, shuffled_edges)).assignment == baseline


@st.composite
def _edge_lists(draw):
    """Node ids and an edge list over them, self-loops and duplicates included."""
    n = draw(st.integers(0, 24))
    nodes = [f"n{i:02d}" for i in range(n)]
    if not nodes:
        return nodes, []
    end = st.sampled_from(nodes)
    return nodes, draw(st.lists(st.tuples(end, end), max_size=80))


@given(_edge_lists())
def test_case_graph_of_an_edge_list_has_its_distinct_edges(graph):
    # so the Louvain tests stated as edge lists run on the graphs they name
    nodes, edges = graph
    case_graph = _case_graph_of(nodes, edges)
    assert list(case_graph.nodes) == sorted(nodes)
    walked = list(_edges(case_graph))
    assert walked == sorted({(min(u, v), max(u, v), 1) for u, v in edges if u != v})
    assert case_graph.edge_count == len(walked)


@given(_edge_lists())
def test_communities_equal_dict_based_reference(graph):
    nodes, edges = graph
    got = detect_communities(_case_graph_of(nodes, edges)).assignment
    assert got == communities_reference(nodes, edges)


def test_detected_partition_is_near_exhaustive_optimum():
    rng = random.Random(271)
    for trial in range(12):
        n = rng.randrange(4, 8)
        nodes = list(range(n))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        partition = detect_communities(_case_graph_of(nodes, edges))
        best_q, _ = best_partition_reference(n, edges)
        got_q = modularity_reference(n, edges, [partition.assignment[v] for v in nodes])
        assert got_q >= best_q - 0.05


def test_community_win_rate():
    partition = detect_communities(_case_graph_of(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    outcomes = {
        "a": Outcome.APPELLANT_WINS,
        "b": Outcome.APPELLEE_WINS,
        "c": Outcome.UNDETERMINED,
        "d": Outcome.UNDETERMINED,
    }
    rates = community_win_rate(partition, outcomes)
    # the all-undetermined community has no rate at all
    assert rates == {0: 0.5}


def test_communities_csv(tmp_path):
    partition = detect_communities(_case_graph_of(["a", "b", "c"], [("a", "b")]))
    outcomes = {
        "a": Outcome.APPELLANT_WINS,
        "b": Outcome.APPELLANT_WINS,
        "c": Outcome.UNDETERMINED,
    }
    path = tmp_path / "communities.csv"
    write_communities_csv(path, partition, outcomes)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "community_id,size,appellant_win_rate"
    assert lines[1] == "0,2,1.0"
    assert lines[2] == "1,1,"


def test_opposing_graphml_round_trip(tmp_path):
    results = [
        _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c3", ["y"], ["z"], Outcome.APPELLEE_WINS),
        _case("c4", ["z"], ["y"], Outcome.APPELLEE_WINS),
    ]
    network = _opposing(results, NetworkParams(min_cases=1))
    write_opposing(tmp_path / "opposing", network)
    directed, nodes, edges = parse_graphml(tmp_path / "opposing.graphml")
    assert directed is True
    assert {nid: (a["total_cases"], a["wins"], a["losses"]) for nid, a in nodes} == _decided(network)
    assert [OpposingEdge(u, v, a["weight"], a["wins_fw"], a["wins_bw"])
            for u, v, a in edges] == network.edges


def test_collaboration_graphml_round_trip(tmp_path):
    results = [
        _case("c1", ["x", "y"], ["z", "w"], Outcome.APPELLANT_WINS),
        _case("c2", ["x", "y"], ["z", "w"], Outcome.APPELLEE_WINS),
    ]
    graph = build_collaboration_network(results, NetworkParams(collab_min=1))
    write_collaboration(tmp_path / "collab", graph)
    directed, nodes, edges = parse_graphml(tmp_path / "collab.graphml")
    assert directed is False
    assert [nid for nid, _ in nodes] == graph.nodes
    assert [CollabEdge(u, v, a["weight"], a["wins"], a["losses"], a["collaborations"])
            for u, v, a in edges] == graph.edges


def test_case_graphml_round_trip_with_communities(tmp_path):
    articles = {
        "c1": frozenset({ArticleRef("code civil", "1240"), ArticleRef("code civil", "1103")}),
        "c2": frozenset({ArticleRef("code civil", "1240"), ArticleRef("code civil", "1103")}),
        "c3": frozenset(),
    }
    outcomes = {
        "c1": Outcome.APPELLANT_WINS,
        "c2": Outcome.APPELLEE_WINS,
        "c3": Outcome.UNDETERMINED,
    }
    graph = _case_graph(articles, outcomes, 2)
    partition = detect_communities(graph)
    write_case(tmp_path / "cases", graph, partition.assignment)
    directed, nodes, edges = parse_graphml(tmp_path / "cases.graphml")
    assert directed is False
    assert {nid: Outcome(a["outcome"]) for nid, a in nodes} == graph.nodes
    assert {nid: a["community"] for nid, a in nodes} == partition.assignment
    assert [(u, v, a["shared_articles"]) for u, v, a in edges] == list(_edges(graph))
