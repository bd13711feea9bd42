"""Experience, win rates, PageRank and the ranking table."""

import logging
import random

import pytest

from courtnet.extract import ExtractionRecord, LawyerName, Outcome
from courtnet.networks import (
    LawyerFacts,
    NetworkParams,
    OpposingEdge,
    OpposingNetwork,
    build_opposing_network,
    lawyer_tallies,
)
from courtnet.ranking import PageRankParams, RankRow, pagerank, rank_table, write_rankings_csv

from oracles import pagerank_reference


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


RESULTS = [
    _case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS),
    _case("c2", ["x"], ["z"], Outcome.APPELLEE_WINS),
    _case("c3", ["y"], ["x"], Outcome.UNDETERMINED),
    _case("c4", ["w"], ["v"], Outcome.UNDETERMINED),
]


def test_experience_counts_all_cases():
    rows = _rows_by_name()
    assert rows["x"].experience == 3
    assert rows["w"].experience == 1
    # a network node that appears in no case result has no experience
    assert rows["nobody"].experience == 0



def test_win_rate_uses_determined_cases_only():
    rows = _rows_by_name()
    assert rows["x"].win_rate == pytest.approx(0.5)
    assert (rows["x"].wins, rows["x"].losses) == (1, 1)
    assert rows["z"].win_rate == 1.0
    # no determined case, or no case at all: no rate
    assert rows["w"].win_rate is None
    assert rows["nobody"].win_rate is None


def _network(nodes, edges):
    return OpposingNetwork(
        nodes={n: LawyerFacts(n, 0, 0, 0, 0) for n in nodes},
        edges=[OpposingEdge(s, t, w, w, 0.0) for s, t, w in edges],
    )


def _rows_by_name():
    """rank_table rows over a network of RESULTS' lawyers and "nobody", a lawyer in no case."""
    nobody = LawyerFacts("nobody", experience=0, total_cases=0, wins=0, losses=0)
    network = OpposingNetwork(nodes={**lawyer_tallies(RESULTS), "nobody": nobody}, edges=[])
    return {r.lawyer_canonical: r for r in rank_table(network, pagerank(network))}


def test_pagerank_validation():
    assert pagerank(_network([], [])) == {}
    with pytest.raises(ValueError, match=r"^damping must be in \(0, 1\), got 0.0$"):
        PageRankParams(damping=0.0)
    with pytest.raises(ValueError, match=r"^damping must be in \(0, 1\), got 1.0$"):
        PageRankParams(damping=1.0)
    with pytest.raises(ValueError, match="^tol must be positive, got 0.0$"):
        PageRankParams(tol=0.0)
    with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
        PageRankParams(max_iter=0)
    # checked in field order: damping, then tol, then max_iter
    with pytest.raises(ValueError, match="^damping"):
        PageRankParams(damping=2.0, tol=0.0, max_iter=0)
    with pytest.raises(ValueError, match="^tol"):
        PageRankParams(tol=-1.0, max_iter=0)


def test_pagerank_refuses_an_out_weight_that_overflows():
    # each weight is finite, but "a"'s out-weight sums past the largest float
    network = _network(["a", "b", "c"], [("a", "b", 1e308), ("a", "c", 1e308), ("b", "c", 1.0)])
    with pytest.raises(ValueError, match="lawyer 'a': opposing edge weights sum past"):
        pagerank(network)


def test_pagerank_uniform_on_a_cycle():
    ranks = pagerank(_network(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]))
    for value in ranks.values():
        assert value == pytest.approx(1 / 3, abs=1e-12)


def test_pagerank_two_node_chain():
    # closed form with a dangling sink spreading uniformly
    ranks = pagerank(_network(["a", "b"], [("a", "b", 1.0)]), PageRankParams(damping=0.85))
    assert ranks["b"] == pytest.approx(0.6491228070175438, abs=1e-9)
    assert ranks["a"] == pytest.approx(0.3508771929824561, abs=1e-9)


def test_pagerank_hub_collects_mass():
    edges = [(f"s{i}", "hub", 1.0) for i in range(5)]
    ranks = pagerank(_network(["hub"] + [f"s{i}" for i in range(5)], edges))
    assert ranks["hub"] == max(ranks.values())
    assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_is_scale_invariant():
    edges = [("a", "b", 1.0), ("b", "c", 2.0), ("b", "a", 1.0), ("c", "a", 0.5)]
    base = pagerank(_network(["a", "b", "c"], edges))
    scaled = pagerank(_network(["a", "b", "c"], [(s, t, w * 7.0) for s, t, w in edges]))
    for node in base:
        assert scaled[node] == pytest.approx(base[node], abs=1e-12)


def test_pagerank_matches_dense_reference():
    rng = random.Random(1009)
    for trial in range(30):
        n = rng.randrange(2, 9)
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.35:
                    edges.append((u, v, rng.uniform(0.1, 4.0)))
        ranks = pagerank(_network(nodes, edges), PageRankParams(tol=1e-14))
        want = pagerank_reference(nodes, edges, 0.85)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
        for node in nodes:
            assert ranks[node] == pytest.approx(want[node], abs=1e-9)


def test_pagerank_warns_when_not_converged(caplog):
    network = _network(["a", "b"], [("a", "b", 1.0)])
    with caplog.at_level(logging.WARNING, logger="courtnet.ranking"):
        ranks = pagerank(network, PageRankParams(max_iter=1))
    assert len(ranks) == 2
    assert any("converging" in r.getMessage() for r in caplog.records)


def test_rank_table_orders_and_annotates():
    results = [
        _case("c1", [LawyerName("x", "Me X")], ["y"], Outcome.APPELLANT_WINS),
        _case("c2", ["x"], ["y"], Outcome.APPELLANT_WINS),
        _case("c3", ["y"], ["x"], Outcome.APPELLANT_WINS),
        _case("c4", ["x"], ["y"], Outcome.UNDETERMINED),
    ]
    network = build_opposing_network(results, lawyer_tallies(results), NetworkParams(min_cases=1))
    rows = rank_table(network, pagerank(network))
    assert [r.lawyer_canonical for r in rows] == ["x", "y"]
    # the loser of the collapsed edge feeds the winner, who ranks higher
    assert rows[0].pagerank > rows[1].pagerank
    assert rows[0].lawyer_display == "Me X"
    assert rows[1].lawyer_display == "y"
    assert rows[0].experience == 4
    assert (rows[0].wins, rows[0].losses) == (2, 1)
    assert rows[0].win_rate == pytest.approx(2 / 3)


def test_rank_table_win_rate_none_without_determined_cases():
    network = OpposingNetwork(
        nodes={"x": LawyerFacts("x", 1, 1, 1, 0), "q": LawyerFacts("q", 0, 0, 0, 0)},
        edges=[],
    )
    rows = rank_table(network, pagerank(network))
    by_name = {r.lawyer_canonical: r for r in rows}
    # q sits in the network but has no recorded case, so no rate
    assert by_name["q"].win_rate is None
    assert by_name["q"].experience == 0


def test_rank_table_prints_the_scores_it_is_given():
    # hand-made scores that PageRank would not give: the edge feeds b, but a
    # ranks first, and c and d tie, so they come in canonical name order
    network = _network(["d", "b", "c", "a"], [("a", "b", 1.0)])
    scores = {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2}
    rows = rank_table(network, scores)
    assert [(r.lawyer_canonical, r.pagerank) for r in rows] == [
        ("a", 0.5), ("c", 0.2), ("d", 0.2), ("b", 0.1)]
    assert pagerank(network)["b"] > pagerank(network)["a"]


def test_rankings_csv(tmp_path):
    results = [_case("c1", ["x"], ["y"], Outcome.APPELLANT_WINS)]
    network = build_opposing_network(results, lawyer_tallies(results), NetworkParams(min_cases=1))
    # a lawyer without a determined case has no win rate: an empty cell
    rows = rank_table(network, pagerank(network))
    rows.append(RankRow("zoe", "Zoé, fils", 2, 0, 0, None, 0.0))
    path = tmp_path / "rankings.csv"
    write_rankings_csv(path, rows)
    assert path.read_bytes() == (
        "lawyer_canonical,lawyer_display,experience,wins,losses,win_rate,pagerank\r\n"
        "x,x,1,1,0,1.0,0.6491228070313493\r\n"
        "y,y,1,0,1,0.0,0.35087719296865094\r\n"
        'zoe,"Zoé, fils",2,0,0,,0.0\r\n'
    ).encode("utf-8")