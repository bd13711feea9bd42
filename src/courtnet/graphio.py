"""Deterministic GraphML and DOT serialization.

Both writers take the same inputs: (name, type) schemas for node and edge
attributes, type one of "string", "long", "double", and rows of (id, attrs)
and (source, target, attrs). Each row's attrs holds a value for every schema
name; other keys are ignored, so one row list serves both writers, and
`write_graph` writes a graph's two files from one call, DOT with a subset of
the schema.

Each writer builds its formatters once per file, from its format and the
schemas: every attribute's text comes from its declared type. In both formats
an edge line is head(source) + tail(target, attrs), so instead of rows a
writer also takes a function of (head, tail) that returns the edge section's
text. A caller whose sources share their tails can then format each tail once
and join it under many heads (see networks.write_case). Lines are streamed to
the file in the order given, with a fixed layout and no timestamps, so
identical graphs serialize to identical bytes. No pipeline stage reads these
files back, so there is no reader.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import AbstractSet, Callable, Iterable

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

# (source, target, attrs) rows, or a function of (head, tail) giving the edge text
Edges = Iterable[tuple[str, str, dict]] | Callable[[Callable, Callable], Iterable[str]]


# Characters XML 1.0 allows in no form, not even as a character reference:
# the C0 controls but tab, newline and carriage return, and U+FFFE, U+FFFF.
# None is printable.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def xml_safe(text: str) -> str:
    """The text with each character XML 1.0 forbids as U+FFFD: how a free-text id is made."""
    return text if text.isprintable() else _NOT_XML.sub("\ufffd", text)


def _text(value) -> str:
    """The value escaped for XML element text: '&', '<' and '>'; xml_safe first."""
    return xml_safe(str(value)).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _attr(value) -> str:
    """The value escaped for a double-quoted XML attribute, '"' included.

    Newline, carriage return and tab become character references, because a
    parser reads them raw in an attribute as spaces.
    """
    return (_text(value).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))


_NUMBER_TEXT = {"long": lambda v: str(int(v)), "double": lambda v: repr(float(v))}


def _value_formats(schema: list[tuple[str, str]], string: Callable) -> list[tuple[str, Callable]]:
    """(name, value -> text) per attribute, the one place that knows the types.

    `string` gives a string's text in the file's format; numbers hold no
    markup, so they are never escaped or quoted.
    """
    try:
        return [(name, string if t == "string" else _NUMBER_TEXT[t]) for name, t in schema]
    except KeyError as exc:
        raise ValueError(f"unsupported attribute type {exc.args[0]!r}") from None


def _graphml_end(tag: str, schema: list[tuple[str, str]], first_key: int) -> Callable[[dict], str]:
    """attrs -> the rest of a <tag> element after its attributes.

    That is its <data> children, keyed d<first_key>, d<first_key + 1>, ...,
    or "/>" without a schema.
    """
    parts = [(f'<data key="d{i}">', name, fmt) for i, (name, fmt)
             in enumerate(_value_formats(schema, _text), first_key)]
    if not parts:
        return lambda attrs: "/>\n"
    return lambda attrs: ">" + "".join(
        [f"{key}{fmt(attrs[name])}</data>" for key, name, fmt in parts]) + f"</{tag}>\n"


def _edge_text(edges: Edges, head: Callable, tail: Callable) -> Iterable[str]:
    if callable(edges):
        return edges(head, tail)
    return (head(source) + tail(target, attrs) for source, target, attrs in edges)


def write_graphml(
    path: str | Path,
    *,
    directed: bool,
    node_attrs: list[tuple[str, str]],
    edge_attrs: list[tuple[str, str]],
    nodes: Iterable[tuple[str, dict]],
    edges: Edges,
) -> None:
    """Write a graph as GraphML, declaring every schema attribute as a key."""
    node_end = _graphml_end("node", node_attrs, 0)
    edge_end = _graphml_end("edge", edge_attrs, len(node_attrs))

    def head(source: str) -> str:
        return f'    <edge source="{_attr(source)}" target="'

    def tail(target: str, attrs: dict) -> str:
        return f'{_attr(target)}"{edge_end(attrs)}'

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write(f'<graphml xmlns="{GRAPHML_NS}">\n')
        keys = [("node", a) for a in node_attrs] + [("edge", a) for a in edge_attrs]
        for i, (domain, (name, attr_type)) in enumerate(keys):
            fh.write(f'  <key id="d{i}" for="{domain}" '
                     f'attr.name="{_attr(name)}" attr.type="{attr_type}"/>\n')
        edgedefault = "directed" if directed else "undirected"
        fh.write(f'  <graph edgedefault="{edgedefault}">\n')
        for node_id, attrs in nodes:
            fh.write(f'    <node id="{_attr(node_id)}"{node_end(attrs)}')
        fh.writelines(_edge_text(edges, head, tail))
        fh.write("  </graph>\n</graphml>\n")


def _dot_quote(value) -> str:
    text = str(value)
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _dot_list(schema: list[tuple[str, str]]) -> Callable[[dict], str]:
    """attrs -> ` [name=value, ...]` in schema order, strings quoted; '' without a schema."""
    parts = [(f"{name}=", name, fmt) for name, fmt in _value_formats(schema, _dot_quote)]
    if not parts:
        return lambda attrs: ""
    return lambda attrs: f" [{', '.join([f'{eq}{fmt(attrs[name])}' for eq, name, fmt in parts])}]"


def write_dot(
    path: str | Path,
    *,
    directed: bool,
    node_attrs: list[tuple[str, str]],
    edge_attrs: list[tuple[str, str]],
    nodes: Iterable[tuple[str, dict]],
    edges: Edges,
) -> None:
    """Write a graph in DOT form, with each row's schema attributes in schema order."""
    node_list = _dot_list(node_attrs)
    edge_list = _dot_list(edge_attrs)
    arrow = "->" if directed else "--"

    def head(source: str) -> str:
        return f"  {_dot_quote(source)} {arrow} "

    def tail(target: str, attrs: dict) -> str:
        return f"{_dot_quote(target)}{edge_list(attrs)};\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{'digraph' if directed else 'graph'} G {{\n")
        for node_id, attrs in nodes:
            fh.write(f"  {_dot_quote(node_id)}{node_list(attrs)};\n")
        fh.writelines(_edge_text(edges, head, tail))
        fh.write("}\n")


def write_graph(stem: str | Path, *, node_attrs: list[tuple[str, str]],
                edge_attrs: list[tuple[str, str]], dot_omits: AbstractSet[str] = frozenset(),
                **graph) -> None:
    """`<stem>.graphml` with every schema attribute and `<stem>.dot` without those named
    in dot_omits; graph holds the writers' other arguments, whose rows both read."""
    write_graphml(f"{stem}.graphml", node_attrs=node_attrs, edge_attrs=edge_attrs, **graph)
    write_dot(f"{stem}.dot", node_attrs=[a for a in node_attrs if a[0] not in dot_omits],
              edge_attrs=[a for a in edge_attrs if a[0] not in dot_omits], **graph)
