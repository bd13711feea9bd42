"""GraphML and DOT serialization, read back by an independent parser."""

import re

import pytest

from courtnet.cli import main
from courtnet.corpus import Document, write_corpus
from courtnet.extract import ArticleRef, ExtractionRecord, LawyerName, Outcome
from courtnet.graphio import write_graphml, write_dot
from courtnet.jsonl import write_jsonl

from oracles import parse_graphml


def _sample(path, directed=True):
    write_graphml(
        path,
        directed=directed,
        node_attrs=[("label", "string"), ("count", "long")],
        edge_attrs=[("weight", "double")],
        nodes=[
            ("a", {"label": "maître & <co>", "count": 3}),
            ('b "x"\r\n\ty', {"label": "café \"noir\"", "count": -2}),
        ],
        edges=[("a", 'b "x"\r\n\ty', {"weight": 2.1972245773362196})],
    )


def test_graphml_round_trip(tmp_path):
    path = tmp_path / "g.graphml"
    _sample(path)
    text = path.read_text(encoding="utf-8")
    assert "maître &amp; &lt;co&gt;" in text
    assert 'attr.type="long"' in text and 'attr.type="double"' in text
    assert 'edgedefault="directed"' in text
    directed, nodes, edges = parse_graphml(path)
    assert directed is True
    assert nodes == [
        ("a", {"label": "maître & <co>", "count": 3}),
        ('b "x"\r\n\ty', {"label": "café \"noir\"", "count": -2}),
    ]
    assert len(edges) == 1
    src, tgt, attrs = edges[0]
    assert (src, tgt) == ("a", 'b "x"\r\n\ty')
    assert attrs["weight"] == 2.1972245773362196
    assert isinstance(nodes[0][1]["count"], int)
    assert isinstance(attrs["weight"], float)


def test_graphml_undirected_flag(tmp_path):
    path = tmp_path / "g.graphml"
    _sample(path, directed=False)
    directed, _, _ = parse_graphml(path)
    assert directed is False
    assert 'edgedefault="undirected"' in path.read_text(encoding="utf-8")


def test_graphml_output_is_stable(tmp_path):
    p1 = tmp_path / "one.graphml"
    p2 = tmp_path / "two.graphml"
    _sample(p1)
    _sample(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dot_quoting(tmp_path):
    path = tmp_path / "g.dot"
    write_dot(
        path,
        directed=True,
        node_attrs=[("label", "string")],
        edge_attrs=[("weight", "double")],
        nodes=[("n\"1", {"label": 'say "hi"'}), ("n2", {"label": "plain"})],
        edges=[("n\"1", "n2", {"weight": 1.5})],
    )
    text = path.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert '"n\\"1"' in text
    assert 'label="say \\"hi\\""' in text
    # numeric attribute values stay unquoted
    assert "weight=1.5" in text
    assert "->" in text


def test_dot_undirected_uses_edge_op(tmp_path):
    path = tmp_path / "g.dot"
    write_dot(path, directed=False, node_attrs=[], edge_attrs=[],
              nodes=[("a", {}), ("b", {})], edges=[("a", "b", {})])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("graph")
    assert "--" in text
    assert "->" not in text


def test_undeclared_attribute_type_is_rejected(tmp_path):
    for write in (write_graphml, write_dot):
        with pytest.raises(ValueError, match="unsupported attribute type 'bool'"):
            write(tmp_path / "g", directed=True, node_attrs=[("flag", "bool")],
                  edge_attrs=[], nodes=[("a", {"flag": True})], edges=[])


# The eight graph files of a small hand-built input, byte for byte. The
# inputs go through the pipeline stages, so the test does not depend on how
# the per-graph writers are named or split.
PINNED_GRAPH_FILES = {
    "opposing.graphml": """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="total_cases" attr.type="long"/>
  <key id="d1" for="node" attr.name="wins" attr.type="long"/>
  <key id="d2" for="node" attr.name="losses" attr.type="long"/>
  <key id="d3" for="edge" attr.name="weight" attr.type="double"/>
  <key id="d4" for="edge" attr.name="wins_fw" attr.type="double"/>
  <key id="d5" for="edge" attr.name="wins_bw" attr.type="double"/>
  <graph edgedefault="directed">
    <node id="alpha"><data key="d0">1</data><data key="d1">1</data><data key="d2">0</data></node>
    <node id="beta"><data key="d0">1</data><data key="d1">1</data><data key="d2">0</data></node>
    <node id="delta"><data key="d0">1</data><data key="d1">1</data><data key="d2">0</data></node>
    <node id="gamma"><data key="d0">1</data><data key="d1">0</data><data key="d2">1</data></node>
    <edge source="gamma" target="delta"><data key="d3">0.6931471805599453</data><data key="d4">1.0</data><data key="d5">0.0</data></edge>
  </graph>
</graphml>
""",
    "opposing.dot": """\
digraph G {
  "alpha" [total_cases=1, wins=1, losses=0];
  "beta" [total_cases=1, wins=1, losses=0];
  "delta" [total_cases=1, wins=1, losses=0];
  "gamma" [total_cases=1, wins=0, losses=1];
  "gamma" -> "delta" [weight=0.6931471805599453];
}
""",
    "collaboration.graphml": """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="edge" attr.name="weight" attr.type="long"/>
  <key id="d1" for="edge" attr.name="wins" attr.type="long"/>
  <key id="d2" for="edge" attr.name="losses" attr.type="long"/>
  <key id="d3" for="edge" attr.name="collaborations" attr.type="long"/>
  <graph edgedefault="undirected">
    <node id="alpha"/>
    <node id="beta"/>
    <edge source="alpha" target="beta"><data key="d0">1</data><data key="d1">1</data><data key="d2">0</data><data key="d3">1</data></edge>
  </graph>
</graphml>
""",
    "collaboration.dot": """\
graph G {
  "alpha";
  "beta";
  "alpha" -- "beta" [weight=1, collaborations=1];
}
""",
    "cases_k3.graphml": """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="outcome" attr.type="string"/>
  <key id="d1" for="node" attr.name="community" attr.type="long"/>
  <key id="d2" for="edge" attr.name="shared_articles" attr.type="long"/>
  <graph edgedefault="undirected">
    <node id="c1"><data key="d0">appellant_wins</data><data key="d1">0</data></node>
    <node id="c2"><data key="d0">appellee_wins</data><data key="d1">0</data></node>
    <node id="c3"><data key="d0">undetermined</data><data key="d1">1</data></node>
    <edge source="c1" target="c2"><data key="d2">3</data></edge>
  </graph>
</graphml>
""",
    "cases_k3.dot": """\
graph G {
  "c1" [outcome="appellant_wins"];
  "c2" [outcome="appellee_wins"];
  "c3" [outcome="undetermined"];
  "c1" -- "c2" [shared_articles=3];
}
""",
    "flow_x.graphml": """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="occurrences" attr.type="long"/>
  <key id="d1" for="edge" attr.name="count" attr.type="long"/>
  <graph edgedefault="directed">
    <node id="Rejette."><data key="d0">1</data></node>
    <node id="Vu A &amp; B &lt;appel&gt;."><data key="d0">1</data></node>
    <edge source="Vu A &amp; B &lt;appel&gt;." target="Rejette."><data key="d1">1</data></edge>
  </graph>
</graphml>
""",
    "flow_x.dot": """\
digraph G {
  "Rejette." [occurrences=1];
  "Vu A & B <appel>." [occurrences=1];
  "Vu A & B <appel>." -> "Rejette." [count=1];
}
""",
}


def test_pipeline_graph_files_are_pinned(tmp_path):
    def record(doc_id, appellants, appellees, outcome, articles):
        return ExtractionRecord(
            doc_id=doc_id,
            appellant_lawyers=tuple(LawyerName(n, n.upper()) for n in appellants),
            appellee_lawyers=tuple(LawyerName(n, n.upper()) for n in appellees),
            articles=frozenset(ArticleRef("code civil", a) for a in articles),
            outcome=outcome,
            confirm_count=0,
            reverse_count=0,
        )

    # a collaborating pair, two opposing lawyers, and three cases of which
    # c1 and c2 share three articles and c3 shares one with c2
    records = [
        record("c1", ["alpha", "beta"], [], Outcome.APPELLANT_WINS,
               ["1103", "1240", "1353"]),
        record("c2", ["gamma"], ["delta"], Outcome.APPELLEE_WINS,
               ["1103", "1240", "1353", "700"]),
        record("c3", [], [], Outcome.UNDETERMINED, ["700"]),
    ]
    write_jsonl(tmp_path / "extracted.jsonl", records)
    assert main(["networks", "--min-cases", "1", "--collab-min", "1",
                 "--output-dir", str(tmp_path)]) == 0
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, [Document("f1", "x", "Vu A & B <appel>. Rejette.")])
    assert main(["flowgraph", "--corpus-file", str(corpus),
                 "--output-dir", str(tmp_path)]) == 0
    for name, want in PINNED_GRAPH_FILES.items():
        assert (tmp_path / name).read_bytes() == want.encode("utf-8"), name


def _dot_node_ids(path):
    """The node ids of a DOT file as the writer quotes them: one per node line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    quoted = (re.match(r'  "((?:[^"\\]|\\.)*)"(?: \[|;)', line) for line in lines)
    return [re.sub(r"\\(.)", r"\1", m[1]) for m in quoted if m]


def test_characters_xml_forbids_become_u_fffd_and_every_graphml_parses(tmp_path):
    # Word writes \v for a manual line break; \x01 and \x02 stand for any
    # other C0 control. XML 1.0 allows neither, not even as a character
    # reference. The two spellings of one counsel, and the two short
    # sentences A\x01. and A\x02. (Jaro 0.78, so not contracted), are each
    # one id in both formats.
    sources = tmp_path / "sources"
    sources.mkdir()
    for i, (appellant, appellee, c) in enumerate((("Paul HENRY", "Claire DUPONT", "\x01"),
                                                  ("Jean RENAUD", "Anne PETIT", "\x02"))):
        (sources / f"{i}.txt").write_text(
            f"APPELANT\nMonsieur {appellant}\nreprésenté par Me Anne MAR{c}TIN\n\n"
            f"INTIMÉ\nMadame {appellee}\nreprésentée par Me Hugo TOUR\n\n"
            f"PAR CES MOTIFS\nConfirme\vle jugement.\nA{c}.\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--input-dir", str(sources), "--output-dir", str(out)]) == 0
    assert main(["flowgraph", "--output-dir", str(out)]) == 0
    written = sorted(p.name for p in out.glob("*.graphml"))
    assert written == ["cases_k3.graphml", "collaboration.graphml", "flow_generic.graphml",
                       "opposing.graphml"]
    ids = {}
    for name in written:
        ids[name] = [node_id for node_id, _ in parse_graphml(out / name)[1]]
        assert len(set(ids[name])) == len(ids[name]), name
        assert ids[name] == _dot_node_ids(out / name.replace(".graphml", ".dot")), name
    assert "Confirme�le jugement." in ids["flow_generic.graphml"]
    assert ids["flow_generic.graphml"].count("A�.") == 1
    assert ids["opposing.graphml"] == ["anne mar�tin", "hugo tour"]
    rows = (out / "rankings.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[2] for row in rows if row.startswith("anne mar")] == ["2"]
    # DOT holds the U+FFFD of the ids too
    assert "Confirme�le jugement." in (out / "flow_generic.dot").read_text(encoding="utf-8")
