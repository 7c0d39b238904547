"""Serialisation of attributed graphs.

Two formats are supported:

* JSON — explicit ``{"edges": [...], "attributes": {...}}`` documents,
  round-trip safe for string/int vertex ids and string values.
* An adjacency text format — one ``vertex | neighbours | values`` line
  per vertex, convenient for eyeballing small graphs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import GraphError
from repro.graphs.attributed_graph import AttributedGraph

PathLike = Union[str, Path]


def to_json_dict(graph: AttributedGraph) -> dict:
    """A JSON-serialisable dict representation of ``graph``."""
    return {
        "vertices": sorted(graph.vertices(), key=repr),
        "edges": sorted(
            ([min(u, v, key=repr), max(u, v, key=repr)] for u, v in graph.edges()),
            key=repr,
        ),
        "attributes": {
            str(vertex): sorted(graph.attributes_of(vertex), key=repr)
            for vertex in graph.vertices()
        },
    }


def from_json_dict(document: dict, int_vertices: bool = True) -> AttributedGraph:
    """Rebuild a graph from :func:`to_json_dict` output.

    JSON object keys are strings, so a key of the ``attributes`` mapping
    resolves to the vertex that ``vertices``/``edges`` name with that
    string form (``"1"`` is the vertex ``1`` when the edges say ``1``,
    and the vertex ``"1"`` when they say ``"1"``).  A document naming
    two vertices with one string form (``1`` and ``"1"``) is ambiguous
    and rejected.  A key naming no such vertex adds one; when
    ``int_vertices`` is true it is parsed to an int when possible.

    Malformed input raises :class:`GraphError` naming the JSON path of
    the first offending entry (``vertices[0]``, ``edges[3]``,
    ``attributes["7"]``) instead of a raw ``TypeError``/``ValueError``
    or a silent reinterpretation (a string of values is not a list of
    one-character values).  Attribute values must all be strings or
    all be numbers across the document: ``null``, booleans (``true``
    would merge with ``1``) and a mixture of strings with numbers
    (which cannot be ranked against each other) are rejected.
    """
    if not isinstance(document, dict):
        raise GraphError(
            f"graph JSON must be an object, got {type(document).__name__}"
        )
    vertices = _member(document, "vertices", list, [])
    edges = _member(document, "edges", list, [])
    attributes = _member(document, "attributes", dict, {})
    graph = AttributedGraph()
    for index, vertex in enumerate(vertices):
        try:
            graph.add_vertex(vertex)
        except TypeError:
            raise GraphError(
                f"vertices[{index}]: a vertex id must be a string or a "
                f"number, got {vertex!r}"
            ) from None
    # The edge list is the bulk of a large document, so the loop keeps
    # no index: the first failing entry is located only on failure.
    add_edge = graph.add_edge
    try:
        for edge in edges:
            if type(edge) is not list:
                raise TypeError
            u, v = edge
            add_edge(u, v)
    except (TypeError, ValueError, GraphError):
        raise _edge_error(edges) from None
    resolve = _key_resolver(graph, int_vertices)
    for key, values in attributes.items():
        if type(values) is not list:
            raise GraphError(
                f"attributes[{json.dumps(key)}]: values must be a list, "
                f"got {values!r}"
            )
        vertex = resolve(key)
        if vertex not in graph:
            graph.add_vertex(vertex)
        try:
            graph.set_attributes(vertex, values)
        except TypeError:
            raise GraphError(
                f"attributes[{json.dumps(key)}]: values must be strings "
                f"or numbers, got {values!r}"
            ) from None
    # The kinds of the distinct values, gathered in one call: the
    # offending key is located only on failure.
    kinds = set(map(type, set().union(*attributes.values())))
    if not (kinds <= {str} or kinds <= {int, float}):
        raise _value_error(attributes)
    return graph


def _edge_error(edges: list) -> GraphError:
    """The error for the first entry of ``edges`` that is not a pair of
    distinct, hashable vertex ids (the entry ``from_json_dict`` failed on)."""
    for index, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 2:
            problem = "an edge must be a [u, v] pair"
        elif any(isinstance(vertex, (list, dict)) for vertex in edge):
            problem = "vertex ids must be strings or numbers"
        elif edge[0] == edge[1]:
            problem = "self-loops are not allowed"
        else:
            continue
        return GraphError(f"edges[{index}]: {problem}, got {edge!r}")
    return GraphError("edges: malformed edge list")


def _key_resolver(graph: AttributedGraph, int_vertices: bool):
    """The function mapping an ``attributes`` key to the vertex it names.

    A key names the vertex of ``graph`` whose string form it is.  Int
    ids, the bulk of a large document, are found by parsing the key;
    the other ids (strings, floats) through a table of their string
    forms.  Two ids with one string form (``1`` and ``"1"``) raise
    :class:`GraphError`.  A key naming no vertex is parsed to an int
    when ``int_vertices`` is true and possible.
    """
    others = [vertex for vertex in graph if type(vertex) is not int]
    named = dict(zip(map(str, others), others))
    if len(named) < len(others) or (
        0 < len(others) < graph.num_vertices
        and not named.keys().isdisjoint(
            str(vertex) for vertex in graph if type(vertex) is int
        )
    ):
        raise _ambiguous_error(graph)

    def resolve(key: str):
        if key in named:
            return named[key]
        try:
            number = int(key)
        except ValueError:
            return key
        return number if int_vertices or number in graph else key

    return resolve


def _ambiguous_error(graph: AttributedGraph) -> GraphError:
    """The error for the first two vertices of ``graph`` that share a
    string form, and hence an ``attributes`` key."""
    seen = {}
    for vertex in graph:
        other = seen.setdefault(str(vertex), vertex)
        if other is not vertex:
            return GraphError(
                f"vertices {other!r} and {vertex!r} share the attributes "
                f"key {json.dumps(str(vertex))}; vertex ids must differ "
                f"as strings"
            )
    return GraphError("vertices: ids must differ as strings")


def _value_error(attributes: dict) -> GraphError:
    """The error for the first value of ``attributes`` that is null, a
    boolean, or of another kind (string or number) than the values
    before it (the check ``from_json_dict`` failed on)."""
    first = None
    for key, values in attributes.items():
        for value in values:
            if value is None or type(value) is bool:
                problem = "values must be strings or numbers"
            else:
                kind = "string" if type(value) is str else "number"
                if first is None:
                    first = kind
                    continue
                if kind == first:
                    continue
                problem = (
                    f"values must be all strings or all numbers, and an "
                    f"earlier value is a {first}"
                )
            return GraphError(
                f"attributes[{json.dumps(key)}]: {problem}, got {value!r}"
            )
    return GraphError("attributes: malformed values")


def _member(document: dict, key: str, kind: type, default):
    """``document[key]`` (or ``default``), required to be a ``kind``."""
    value = document.get(key, default)
    if not isinstance(value, kind):
        raise GraphError(
            f"{key}: must be a JSON {'array' if kind is list else 'object'}, "
            f"got {type(value).__name__}"
        )
    return value


def save_json(graph: AttributedGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as a JSON document."""
    Path(path).write_text(json.dumps(to_json_dict(graph), indent=2))


def load_json(path: PathLike, int_vertices: bool = True) -> AttributedGraph:
    """Load a graph previously written by :func:`save_json`."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"cannot load graph from {path}: {exc}") from exc
    return from_json_dict(document, int_vertices=int_vertices)


def to_adjacency_text(graph: AttributedGraph) -> str:
    """Human-readable ``vertex | neighbours | values`` listing."""
    lines = []
    for vertex in sorted(graph.vertices(), key=repr):
        neighbours = ",".join(str(n) for n in sorted(graph.neighbors(vertex), key=repr))
        values = ",".join(str(v) for v in sorted(graph.attributes_of(vertex), key=repr))
        lines.append(f"{vertex} | {neighbours} | {values}")
    return "\n".join(lines)
