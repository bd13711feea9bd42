"""Deterministic GraphML and DOT serialization.

Writers emit nodes, edges and attributes exactly in the order given, with a
fixed layout and no timestamps, so identical graphs serialize to identical
bytes. The files are outputs for viewers and other tools: no pipeline stage
reads them back, so there is no reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable
from xml.sax.saxutils import escape

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

# attr.type values accepted in key declarations
_TYPES = {"string", "long", "double"}


def _format_value(value, attr_type: str) -> str:
    if attr_type == "long":
        return str(int(value))
    if attr_type == "double":
        return repr(float(value))
    return str(value)


def write_graphml(
    path: str | Path,
    *,
    directed: bool,
    node_attrs: list[tuple[str, str]],
    edge_attrs: list[tuple[str, str]],
    nodes: Iterable[tuple[str, dict]],
    edges: Iterable[tuple[str, str, dict]],
) -> None:
    """Write a graph as GraphML.

    node_attrs and edge_attrs are (name, type) pairs with type one of
    "string", "long", "double". Every node and edge must carry values for
    all declared attributes.
    """
    for name, attr_type in list(node_attrs) + list(edge_attrs):
        if attr_type not in _TYPES:
            raise ValueError(f"unsupported attribute type {attr_type!r} for {name!r}")

    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(f'<graphml xmlns="{GRAPHML_NS}">')
    key_ids: dict[tuple[str, str], str] = {}
    node_types: dict[str, str] = dict(node_attrs)
    edge_types: dict[str, str] = dict(edge_attrs)
    counter = 0
    for domain, attrs in (("node", node_attrs), ("edge", edge_attrs)):
        for name, attr_type in attrs:
            key_id = f"d{counter}"
            counter += 1
            key_ids[(domain, name)] = key_id
            lines.append(
                f'  <key id="{key_id}" for="{domain}" '
                f'attr.name="{escape(name)}" attr.type="{attr_type}"/>'
            )
    edgedefault = "directed" if directed else "undirected"
    lines.append(f'  <graph edgedefault="{edgedefault}">')

    for node_id, attrs in nodes:
        data = "".join(
            f'<data key="{key_ids[("node", name)]}">'
            f"{escape(_format_value(attrs[name], node_types[name]))}</data>"
            for name, _ in node_attrs
        )
        if data:
            lines.append(f'    <node id="{escape(str(node_id))}">{data}</node>')
        else:
            lines.append(f'    <node id="{escape(str(node_id))}"/>')

    for source, target, attrs in edges:
        data = "".join(
            f'<data key="{key_ids[("edge", name)]}">'
            f"{escape(_format_value(attrs[name], edge_types[name]))}</data>"
            for name, _ in edge_attrs
        )
        head = f'    <edge source="{escape(str(source))}" target="{escape(str(target))}"'
        lines.append(f"{head}>{data}</edge>" if data else f"{head}/>")

    lines.append("  </graph>")
    lines.append("</graphml>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dot_quote(value) -> str:
    text = str(value)
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _dot_attrs(attrs: list[tuple[str, object]]) -> str:
    if not attrs:
        return ""
    parts = []
    for name, value in attrs:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            parts.append(f"{name}={_format_value(value, 'double' if isinstance(value, float) else 'long')}")
        else:
            parts.append(f"{name}={_dot_quote(value)}")
    return " [" + ", ".join(parts) + "]"


def write_dot(
    path: str | Path,
    *,
    directed: bool,
    name: str = "G",
    nodes: Iterable[tuple[str, list[tuple[str, object]]]],
    edges: Iterable[tuple[str, str, list[tuple[str, object]]]],
) -> None:
    """Write a graph in DOT form; attribute order is preserved as given."""
    kind = "digraph" if directed else "graph"
    arrow = "->" if directed else "--"
    lines = [f"{kind} {name} {{"]
    for node_id, attrs in nodes:
        lines.append(f"  {_dot_quote(node_id)}{_dot_attrs(attrs)};")
    for source, target, attrs in edges:
        lines.append(
            f"  {_dot_quote(source)} {arrow} {_dot_quote(target)}{_dot_attrs(attrs)};"
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
