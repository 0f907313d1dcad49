"""Immutable in-memory property graph with a strict JSON load format.

A graph is a directed, labeled multigraph.  Every vertex and every edge
carries exactly one label; vertex labels and edge labels are disjoint sets.
Properties are partial maps from (element, key) to scalar values; a lookup
on an absent key returns None rather than a default.

Identifiers are strings in the file format.  At load time they are mapped
to dense internal integer indexes (file order) that fix edge iteration
order; all public accessors speak original string ids.

The evaluator reads a graph through ``Graph.tables()``: lookup tables built
once, on first use, and kept on the graph (see ``GraphTables``).
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass
from importlib import resources
from typing import IO, Union

from .errors import GraphFormatError

# Scalar property value: string, 64-bit int, float, or boolean.
PropertyValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class VertexRef:
    """Reference to a graph vertex by its original id."""

    id: str

    def __repr__(self) -> str:
        return f"v[{self.id}]"


@dataclass(frozen=True)
class EdgeRef:
    """Reference to a graph edge by its original id."""

    id: str

    def __repr__(self) -> str:
        return f"e[{self.id}]"


@dataclass(frozen=True)
class EdgeRecord:
    """A directed edge: out_v --label--> in_v."""

    id: str
    out_v: str
    label: str
    in_v: str


def is_numeric(v: object) -> bool:
    """True for int/float values, excluding bool (bool is type-strict)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def values_equal(a: object, b: object) -> bool:
    """Type-strict value equality.

    int and float compare numerically with each other; bool only equals
    bool; strings only equal strings; element refs compare by kind and id.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if is_numeric(a) and is_numeric(b):
        return a == b
    if type(a) is not type(b):
        return False
    return a == b


def value_key(v: object) -> tuple:
    """Hashable identity key used for dedup and grouping.

    Floats are keyed by their exact bit pattern, so 1.0 and 1 stay distinct
    and -0.0 differs from 0.0.
    """
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, float):
        return ("f", struct.pack(">d", v))
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, VertexRef):
        return ("v", v.id)
    if isinstance(v, EdgeRef):
        return ("e", v.id)
    raise TypeError(f"not a graph value: {v!r}")


_TYPE_RANK = {"b": 0, "n": 1, "s": 2, "v": 3, "e": 4}


def sort_key(v: object) -> tuple:
    """Deterministic total-order key across value types.

    Numbers sort numerically (int/float mixed), strings lexicographically,
    element refs by id; distinct type families never interleave.
    """
    if isinstance(v, bool):
        return (0, v)
    if is_numeric(v):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, VertexRef):
        return (3, v.id)
    if isinstance(v, EdgeRef):
        return (4, v.id)
    raise TypeError(f"not a graph value: {v!r}")


class GraphTables:
    """Read-only lookup tables over one graph, for the evaluator.

    Inside the evaluator a vertex is a token: the 1-tuple ``(rank,)`` of its
    rank in ascending lexicographic id order.  There is one token per
    vertex, so identity, equality, ordering, dedup and join keys are the
    token itself.  A tuple that holds only scalars and such tokens is not
    something CPython's cyclic garbage collector must follow, and the
    collector stops tracking it at its first collection: tokens, neighbour
    entries and the evaluator's rows then cost full collections nothing.
    ``VertexRef`` appears only where ``evaluate`` hands rows back.

    * ``vertex_tokens``: the tokens, by rank;
    * ``vertex_refs``: one interned ``VertexRef`` per vertex, by rank (the
      ref a result holds for a token);
    * ``vertex_labels`` / ``vertex_props``: by rank;
    * ``adjacent(direction, label, rank)``: the tokens adjacent to a vertex
      along edges of that label (None: any label), one per edge, in file
      order; ``neighbours(direction, label)`` is the list of these entries
      by rank, filled on first use;
    * ``edge_index``: edge id -> edge index (file order), and edge labels
      and properties by edge index; ``edges_sorted()``: interned
      ``EdgeRef``s in ascending id order.

    The tables hold the graph's own lists, never the graph itself.  The
    parts every query needs are built together; edge refs and each vertex's
    neighbours are built on first use.  Each part is built completely
    before it is published with a single assignment, so concurrent readers
    never see a partial table.
    """

    __slots__ = (
        "vertex_tokens",
        "vertex_refs",
        "vertex_labels",
        "vertex_props",
        "edge_index",
        "edge_labels",
        "edge_props",
        "_order",
        "_rank",
        "_edge_ids",
        "_edge_ends",
        "_adjacency",
        "_memo",
    )

    def __init__(self, g: "Graph"):
        ids = g._v_ids
        order = sorted(range(len(ids)), key=ids.__getitem__)  # rank -> vertex index
        rank = [0] * len(order)
        for r, vx in enumerate(order):
            rank[vx] = r
        self.vertex_tokens = tuple([(r,) for r in range(len(order))])
        self.vertex_refs = tuple([VertexRef(ids[vx]) for vx in order])
        self.vertex_labels = [g._v_labels[vx] for vx in order]
        self.vertex_props = [g._v_props[vx] for vx in order]
        self.edge_index = g._e_index
        self.edge_labels = g._e_labels
        self.edge_props = g._e_props
        self._order = order
        self._rank = rank
        self._edge_ids = g._e_ids
        self._edge_ends = {"out": g._e_in, "in": g._e_out}
        self._adjacency = {"out": g._out_edges, "in": g._in_edges}
        self._memo: dict = {}

    def edges_sorted(self) -> tuple[EdgeRef, ...]:
        ordered = self._memo.get("edges_sorted")
        if ordered is None:
            ids = self._edge_ids
            ordered = tuple(EdgeRef(ids[i]) for i in sorted(range(len(ids)), key=ids.__getitem__))
            self._memo["edges_sorted"] = ordered
        return ordered

    def neighbours(self, direction: str, label: str | None) -> list:
        """Per rank, its entry of adjacent(direction, label, rank), or None
        while that entry has not been built."""
        key = (direction, label)
        lists = self._memo.get(key)
        if lists is None:
            lists = [None] * len(self.vertex_tokens)
            self._memo[key] = lists
        return lists

    def adjacent(self, direction: str, label: str | None, rank: int) -> tuple[tuple[int], ...]:
        """The tokens adjacent to the vertex of that rank along edges of
        label (None: any label), one per edge, in file order.  Built on
        first use, so a query that touches a few vertices builds only their
        entries."""
        lists = self.neighbours(direction, label)
        found = lists[rank]
        if found is None:
            tokens, ranks, ends = self.vertex_tokens, self._rank, self._edge_ends[direction]
            exs = self._adjacency[direction][self._order[rank]]
            if label is not None:
                labels = self.edge_labels
                exs = [ex for ex in exs if labels[ex] == label]
            found = tuple([tokens[ranks[ends[ex]]] for ex in exs])
            lists[rank] = found
        return found


class Graph:
    """Immutable property graph.  Construct via load_graph()."""

    def __init__(
        self,
        vertices: list[tuple[str, str, dict[str, PropertyValue]]],
        edges: list[tuple[str, str, str, str, dict[str, PropertyValue]]],
    ):
        """vertices: (id, label, props); edges: (id, label, outV, inV, props)."""
        self._v_ids: list[str] = []
        self._v_index: dict[str, int] = {}
        self._v_labels: list[str] = []
        self._v_props: list[dict[str, PropertyValue]] = []
        for vid, label, props in vertices:
            if vid in self._v_index:
                raise GraphFormatError(f"duplicate vertex id {vid!r}")
            self._v_index[vid] = len(self._v_ids)
            self._v_ids.append(vid)
            self._v_labels.append(label)
            self._v_props.append(dict(props))

        self._e_ids: list[str] = []
        self._e_index: dict[str, int] = {}
        self._e_labels: list[str] = []
        self._e_out: list[int] = []
        self._e_in: list[int] = []
        self._e_props: list[dict[str, PropertyValue]] = []
        # edge indexes leaving / entering each vertex, in file order
        out_edges: list[list[int]] = [[] for _ in self._v_ids]
        in_edges: list[list[int]] = [[] for _ in self._v_ids]

        for eid, label, out_v, in_v, props in edges:
            if eid in self._e_index:
                raise GraphFormatError(f"duplicate edge id {eid!r}")
            if eid in self._v_index:
                raise GraphFormatError(f"edge id {eid!r} already used by a vertex")
            if out_v not in self._v_index:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex {out_v!r}")
            if in_v not in self._v_index:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex {in_v!r}")
            ex = len(self._e_ids)
            self._e_index[eid] = ex
            self._e_ids.append(eid)
            self._e_labels.append(label)
            src = self._v_index[out_v]
            dst = self._v_index[in_v]
            self._e_out.append(src)
            self._e_in.append(dst)
            self._e_props.append(dict(props))
            out_edges[src].append(ex)
            in_edges[dst].append(ex)
        # tuples of ints, which the garbage collector stops tracking
        self._out_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, out_edges))
        self._in_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, in_edges))

        vertex_labels = set(self._v_labels)
        edge_labels = set(self._e_labels)
        clash = vertex_labels & edge_labels
        if clash:
            raise GraphFormatError(
                f"label(s) used for both vertices and edges: {sorted(clash)}"
            )
        self._tables: GraphTables | None = None

    def tables(self) -> GraphTables:
        """The evaluator's lookup tables, built on first use."""
        tables = self._tables
        if tables is None:
            tables = GraphTables(self)
            self._tables = tables
        return tables

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._v_ids)

    @property
    def edge_count(self) -> int:
        return len(self._e_ids)

    def vertex_ids(self) -> list[str]:
        """All vertex ids in ascending lexicographic order."""
        return [ref.id for ref in self.tables().vertex_refs]

    def edge_ids(self) -> list[str]:
        """All edge ids in ascending lexicographic order."""
        return sorted(self._e_ids)

    def has_vertex(self, vid: str) -> bool:
        return vid in self._v_index

    def has_edge(self, eid: str) -> bool:
        return eid in self._e_index

    def vertex_label(self, vid: str) -> str:
        return self._v_labels[self._require_vertex(vid)]

    def edge_label(self, eid: str) -> str:
        return self._e_labels[self._require_edge(eid)]

    def edge_record(self, eid: str) -> EdgeRecord:
        ex = self._require_edge(eid)
        return EdgeRecord(
            id=eid,
            out_v=self._v_ids[self._e_out[ex]],
            label=self._e_labels[ex],
            in_v=self._v_ids[self._e_in[ex]],
        )

    def edges(self) -> list[EdgeRecord]:
        return [self.edge_record(eid) for eid in self._e_ids]

    def element_label(self, ref: VertexRef | EdgeRef) -> str:
        if isinstance(ref, VertexRef):
            return self.vertex_label(ref.id)
        return self.edge_label(ref.id)

    # -- adjacency -------------------------------------------------------

    def out_adjacent(self, vid: str, label: str | None = None) -> list[tuple[str, str]]:
        """(edge id, target vertex id) pairs for edges leaving vid.

        Filtered to the edge label when given; multiplicity is one pair per
        matching edge, in file order.
        """
        return self._adjacent(self._out_edges, self._e_in, vid, label)

    def in_adjacent(self, vid: str, label: str | None = None) -> list[tuple[str, str]]:
        """(edge id, source vertex id) pairs for edges arriving at vid."""
        return self._adjacent(self._in_edges, self._e_out, vid, label)

    def _adjacent(self, edges, ends: list[int], vid: str, label: str | None) -> list[tuple[str, str]]:
        labels = self._e_labels
        return [
            (self._e_ids[ex], self._v_ids[ends[ex]])
            for ex in edges[self._require_vertex(vid)]
            if label is None or labels[ex] == label
        ]

    # -- properties ------------------------------------------------------

    def element_property(self, elem: str, key: str) -> PropertyValue | None:
        """μ(elem, key), or None when the key is absent.

        elem may be a vertex id or an edge id (ids never collide).
        """
        if elem in self._v_index:
            return self._v_props[self._v_index[elem]].get(key)
        if elem in self._e_index:
            return self._e_props[self._e_index[elem]].get(key)
        raise GraphFormatError(f"unknown element id {elem!r}")

    def ref_property(self, ref: VertexRef | EdgeRef, key: str) -> PropertyValue | None:
        if isinstance(ref, VertexRef):
            return self._v_props[self._require_vertex(ref.id)].get(key)
        return self._e_props[self._require_edge(ref.id)].get(key)

    def vertex_properties(self, vid: str) -> dict[str, PropertyValue]:
        return dict(self._v_props[self._require_vertex(vid)])

    def edge_properties(self, eid: str) -> dict[str, PropertyValue]:
        return dict(self._e_props[self._require_edge(eid)])

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._v_ids == other._v_ids
            and self._v_labels == other._v_labels
            and self._v_props == other._v_props
            and self._e_ids == other._e_ids
            and self._e_labels == other._e_labels
            and self._e_out == other._e_out
            and self._e_in == other._e_in
            and self._e_props == other._e_props
        )

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"

    def _require_vertex(self, vid: str) -> int:
        try:
            return self._v_index[vid]
        except KeyError:
            raise GraphFormatError(f"unknown vertex id {vid!r}") from None

    def _require_edge(self, eid: str) -> int:
        try:
            return self._e_index[eid]
        except KeyError:
            raise GraphFormatError(f"unknown edge id {eid!r}") from None


# -- loader ----------------------------------------------------------------

_VERTEX_KEYS = {"id", "label", "properties"}
_EDGE_KEYS = {"id", "label", "outV", "inV", "properties"}


def _check_properties(raw: object, where: str) -> dict[str, PropertyValue]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise GraphFormatError(f"{where}: 'properties' must be an object")
    props: dict[str, PropertyValue] = {}
    for key, val in raw.items():
        if not isinstance(key, str):
            raise GraphFormatError(f"{where}: property key {key!r} is not a string")
        kind = type(val)  # json.loads builds exact types
        if kind is float:
            if not math.isfinite(val):
                raise GraphFormatError(
                    f"{where}: property {key!r} has non-finite value {val!r}"
                )
        elif kind is not str and kind is not int and kind is not bool:
            raise GraphFormatError(
                f"{where}: property {key!r} has non-scalar value {val!r}"
            )
        props[key] = val
    return props


def _required_string(entry: dict, field: str, where: str) -> str:
    if field not in entry:
        raise GraphFormatError(f"{where}: missing required field {field!r}")
    val = entry[field]
    if not isinstance(val, str):
        raise GraphFormatError(f"{where}: field {field!r} must be a string")
    return val


def load_graph(source: Union[str, bytes, IO]) -> Graph:
    """Load a Graph from JSON text, bytes, or a readable stream.

    Format: {"vertices": [{"id","label","properties"?}...],
             "edges": [{"id","label","outV","inV","properties"?}...]}.
    Unknown keys are rejected; every vertex and edge must carry a label;
    non-finite numbers (NaN, Infinity) are rejected.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None

    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be a JSON object")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown top-level key(s): {sorted(unknown)}")
    for section in ("vertices", "edges"):
        if section not in doc:
            raise GraphFormatError(f"missing top-level key {section!r}")
        if not isinstance(doc[section], list):
            raise GraphFormatError(f"{section!r} must be an array")

    vertices = []
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where}: must be an object")
        unknown = set(entry) - _VERTEX_KEYS
        if unknown:
            raise GraphFormatError(f"{where}: unknown key(s): {sorted(unknown)}")
        vid = _required_string(entry, "id", where)
        label = _required_string(entry, "label", where)
        vertices.append((vid, label, _check_properties(entry.get("properties"), where)))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where}: must be an object")
        unknown = set(entry) - _EDGE_KEYS
        if unknown:
            raise GraphFormatError(f"{where}: unknown key(s): {sorted(unknown)}")
        eid = _required_string(entry, "id", where)
        label = _required_string(entry, "label", where)
        out_v = _required_string(entry, "outV", where)
        in_v = _required_string(entry, "inV", where)
        edges.append((eid, label, out_v, in_v, _check_properties(entry.get("properties"), where)))

    return Graph(vertices, edges)


def load_graph_file(path: str) -> Graph:
    with open(path, "rb") as fh:
        return load_graph(fh)


def modern_graph() -> Graph:
    """The bundled 6-vertex / 6-edge collaboration-network fixture."""
    data = resources.files(__package__).joinpath("data/modern.json").read_bytes()
    return load_graph(io.BytesIO(data))


def modern_graph_path() -> str:
    """Filesystem path of the bundled fixture (for CLI tests)."""
    return str(resources.files(__package__).joinpath("data/modern.json"))
