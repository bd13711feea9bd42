"""Deterministic GraphML and DOT serialization.

Both writers take the same inputs: (name, type) schemas for node and edge
attributes, type one of "string", "long", "double", and rows of (id, attrs)
and (source, target, attrs). Each row's attrs holds a value for every schema
name; other keys are ignored, so one row list serves both writers, DOT often
with a shorter schema. Values are formatted from their declared type. Each
writer streams its lines to the file in the order given, with a fixed layout
and no timestamps, so identical graphs serialize to identical bytes. No
pipeline stage reads these files back, so there is no reader.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterable
from xml.sax.saxutils import escape

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def _attr(value) -> str:
    """The value escaped for a double-quoted XML attribute, '"' included.

    Newline, carriage return and tab become character references, because a
    parser reads them raw in an attribute as spaces. escape() leaves '"'
    alone, and with an entity map it is three times slower.
    """
    return (str(value).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))


def _format_value(value, attr_type: str) -> str:
    """The value's text for its declared type, the one place that knows the types."""
    if attr_type == "long":
        return str(int(value))
    if attr_type == "double":
        return repr(float(value))
    if attr_type == "string":
        return str(value)
    raise ValueError(f"unsupported attribute type {attr_type!r}")


def _element_text(value, attr_type: str) -> str:
    """The value's text inside a GraphML element; only strings can hold markup."""
    text = _format_value(value, attr_type)
    return escape(text) if attr_type == "string" else text


def write_graphml(
    path: str | Path,
    *,
    directed: bool,
    node_attrs: list[tuple[str, str]],
    edge_attrs: list[tuple[str, str]],
    nodes: Iterable[tuple[str, dict]],
    edges: Iterable[tuple[str, str, dict]],
) -> None:
    """Write a graph as GraphML, declaring every schema attribute as a key."""
    attr = functools.cache(_attr)  # each id is escaped once, not once per edge end
    node_keys = [(f"d{i}", name, t) for i, (name, t) in enumerate(node_attrs)]
    edge_keys = [(f"d{i}", name, t) for i, (name, t) in enumerate(edge_attrs, len(node_attrs))]

    def data(keys, attrs: dict) -> str:
        return "".join(
            f'<data key="{key}">{_element_text(attrs[name], t)}</data>'
            for key, name, t in keys
        )

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write(f'<graphml xmlns="{GRAPHML_NS}">\n')
        for domain, keys in (("node", node_keys), ("edge", edge_keys)):
            for key, name, t in keys:
                fh.write(f'  <key id="{key}" for="{domain}" '
                         f'attr.name="{_attr(name)}" attr.type="{t}"/>\n')
        edgedefault = "directed" if directed else "undirected"
        fh.write(f'  <graph edgedefault="{edgedefault}">\n')
        for node_id, attrs in nodes:
            head = f'    <node id="{attr(node_id)}"'
            body = data(node_keys, attrs)
            fh.write(f"{head}>{body}</node>\n" if body else f"{head}/>\n")
        for source, target, attrs in edges:
            head = f'    <edge source="{attr(source)}" target="{attr(target)}"'
            body = data(edge_keys, attrs)
            fh.write(f"{head}>{body}</edge>\n" if body else f"{head}/>\n")
        fh.write("  </graph>\n</graphml>\n")


def _dot_quote(value) -> str:
    text = str(value)
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _dot_attrs(schema: list[tuple[str, str]], attrs: dict) -> str:
    """` [name=value, ...]` in schema order, strings quoted; empty without a schema."""
    parts = []
    for name, t in schema:
        text = _format_value(attrs[name], t)
        parts.append(f"{name}={_dot_quote(text) if t == 'string' else text}")
    return f" [{', '.join(parts)}]" if parts else ""


def write_dot(
    path: str | Path,
    *,
    directed: bool,
    node_attrs: list[tuple[str, str]],
    edge_attrs: list[tuple[str, str]],
    nodes: Iterable[tuple[str, dict]],
    edges: Iterable[tuple[str, str, dict]],
) -> None:
    """Write a graph in DOT form, with each row's schema attributes in schema order."""
    arrow = "->" if directed else "--"
    quote = functools.cache(_dot_quote)  # each id is quoted once, not once per edge end
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{'digraph' if directed else 'graph'} G {{\n")
        for node_id, attrs in nodes:
            fh.write(f"  {quote(node_id)}{_dot_attrs(node_attrs, attrs)};\n")
        for source, target, attrs in edges:
            fh.write(f"  {quote(source)} {arrow} {quote(target)}"
                     f"{_dot_attrs(edge_attrs, attrs)};\n")
        fh.write("}\n")
