"""GraphML and DOT serialization, read back by an independent parser."""

from courtnet.graphio import write_graphml, write_dot

from oracles import parse_graphml


def _sample(path, directed=True):
    write_graphml(
        path,
        directed=directed,
        node_attrs=[("label", "string"), ("count", "long")],
        edge_attrs=[("weight", "double")],
        nodes=[
            ("a", {"label": "maître & <co>", "count": 3}),
            ("b", {"label": "café \"noir\"", "count": -2}),
        ],
        edges=[("a", "b", {"weight": 2.1972245773362196})],
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
        ("b", {"label": "café \"noir\"", "count": -2}),
    ]
    assert len(edges) == 1
    src, tgt, attrs = edges[0]
    assert (src, tgt) == ("a", "b")
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
        nodes=[("n\"1", [("label", 'say "hi"')]), ("n2", [])],
        edges=[("n\"1", "n2", [("weight", 1.5)])],
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
    write_dot(path, directed=False, nodes=[("a", []), ("b", [])], edges=[("a", "b", [])])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("graph")
    assert "--" in text
    assert "->" not in text
