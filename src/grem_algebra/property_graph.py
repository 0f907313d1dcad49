"""Immutable in-memory property graph with a strict JSON load format.

A graph is a directed, labeled multigraph.  Every vertex and every edge
carries exactly one label; vertex labels and edge labels are disjoint sets.
Properties are partial maps from (element, key) to scalar values; a lookup
on an absent key returns None rather than a default.

Identifiers are strings in the file format.  At load a vertex gets its
rank in ascending lexicographic id order and an edge its index in file
order, which fixes the order of adjacency and of edges().  The accessors
that take ids speak original string ids; the evaluator reads the graph's
rank-ordered layout directly (see ``Graph``).
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


# A scalar's join key is its type's tag and itself (see join_key).
_JOIN_TAGS = {int: "n", float: "n", bool: "b", str: "s"}


def join_key(v: object) -> object:
    """Hashable key under which two values are equal as values_equal has
    it: int and float meet numerically (-0.0 meets 0.0) while bool, str and
    elements stay type-strict.  A vertex token (see Graph) is its own key;
    every other value is keyed by a tagged tuple."""
    t = type(v)
    if t is tuple:
        return v
    tag = _JOIN_TAGS.get(t)
    if tag is not None:
        return (tag, v)
    if t is EdgeRef:
        return ("e", v.id)  # type: ignore[union-attr]
    raise TypeError(f"not a graph value: {v!r}")


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


class Graph:
    """Immutable property graph.  Construct via load_graph().

    The graph is laid out at load in the order the evaluator reads it.
    Vertices are stored by rank, their position in ascending lexicographic
    id order; edges by index, their position in the file.  Inside the
    evaluator a vertex is its token, the 1-tuple ``(rank,)``.  There is one
    token per vertex, so identity, equality, ordering, dedup and join keys
    are the token itself.  A tuple that holds only scalars and such tokens
    is not something CPython's cyclic garbage collector must follow, and
    the collector stops tracking it at its first collection: tokens,
    neighbour entries and the evaluator's rows then cost full collections
    nothing.  ``VertexRef`` appears only where ``evaluate`` hands rows back.

    * ``vertex_tokens``: the tokens, by rank;
    * ``vertex_refs``: one interned ``VertexRef`` per vertex, by rank (the
      ref a result holds for a token);
    * ``vertex_labels`` / ``vertex_props``: by rank;
    * ``property_column(key)``: every vertex's value for key by rank (None
      where it has none), built whole on the first use of key, so a query
      reads a property for a whole column of tokens with one gather;
    * ``ranks_labelled(label)``: the ranks of the vertices carrying label,
      ascending, from a table of every vertex label built whole on first
      use; ``ranks_with(key, value)``: the ranks of the vertices whose
      value for key equals value under ``values_equal``, ascending, from a
      per-key table keyed by ``join_key`` built whole on the first use of
      key.  A filter straight over all vertices reads these instead of a
      mask over every vertex;
    * ``adjacent(direction, label, rank)``: the tokens adjacent to a vertex
      along edges of that label (None: any label), one per edge, in file
      order; ``neighbours(direction, label)`` is the list of these entries
      by rank, filled on first use;
    * ``edge_index``: edge id -> edge index, and ``edge_labels`` /
      ``edge_props`` by edge index; ``edges_sorted()``: interned
      ``EdgeRef``s in ascending id order, built on first use.

    Each part built on first use is complete before it is published with a
    single assignment, so concurrent readers never see a partial one.
    """

    def __init__(
        self,
        vertices: list[tuple[str, str, dict[str, PropertyValue]]],
        edges: list[tuple[str, str, str, str, dict[str, PropertyValue]]],
    ):
        """vertices: (id, label, props); edges: (id, label, outV, inV, props)."""
        by_id: dict[str, tuple] = {}
        for vertex in vertices:
            if vertex[0] in by_id:
                raise GraphFormatError(f"duplicate vertex id {vertex[0]!r}")
            by_id[vertex[0]] = vertex
        self._v_ids: list[str] = sorted(by_id)  # rank -> id
        ranked = [by_id[vid] for vid in self._v_ids]
        self._v_index: dict[str, int] = {vid: r for r, vid in enumerate(self._v_ids)}
        self.vertex_labels: list[str] = [label for _, label, _ in ranked]
        self.vertex_props: list[dict[str, PropertyValue]] = [dict(p) for _, _, p in ranked]

        self._e_ids: list[str] = []
        self.edge_index: dict[str, int] = {}
        self.edge_labels: list[str] = []
        self._e_out: list[int] = []  # rank of each edge's source
        self._e_in: list[int] = []  # rank of each edge's target
        self.edge_props: list[dict[str, PropertyValue]] = []
        # edge indexes leaving / entering each vertex, in file order
        out_edges: list[list[int]] = [[] for _ in self._v_ids]
        in_edges: list[list[int]] = [[] for _ in self._v_ids]

        for eid, label, out_v, in_v, props in edges:
            if eid in self.edge_index:
                raise GraphFormatError(f"duplicate edge id {eid!r}")
            if eid in self._v_index:
                raise GraphFormatError(f"edge id {eid!r} already used by a vertex")
            if out_v not in self._v_index:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex {out_v!r}")
            if in_v not in self._v_index:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex {in_v!r}")
            ex = len(self._e_ids)
            self.edge_index[eid] = ex
            self._e_ids.append(eid)
            self.edge_labels.append(label)
            src = self._v_index[out_v]
            dst = self._v_index[in_v]
            self._e_out.append(src)
            self._e_in.append(dst)
            self.edge_props.append(dict(props))
            out_edges[src].append(ex)
            in_edges[dst].append(ex)
        # tuples of ints, which the garbage collector stops tracking
        self._out_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, out_edges))
        self._in_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, in_edges))

        clash = set(self.vertex_labels) & set(self.edge_labels)
        if clash:
            raise GraphFormatError(
                f"label(s) used for both vertices and edges: {sorted(clash)}"
            )
        # made last: the collections the loops above trigger need not scan them
        self.vertex_tokens: tuple[tuple[int], ...] = tuple([(r,) for r in range(len(self._v_ids))])
        self.vertex_refs: tuple[VertexRef, ...] = tuple(map(VertexRef, self._v_ids))
        self._neighbours: dict[tuple[str, str | None], list] = {}
        self._property_columns: dict[str, list] = {}
        self._label_ranks: dict[str, tuple[int, ...]] | None = None
        self._value_ranks: dict[str, dict[object, tuple[int, ...]]] = {}
        self._edge_refs: tuple[EdgeRef, ...] | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._v_ids)

    @property
    def edge_count(self) -> int:
        return len(self._e_ids)

    def vertex_ids(self) -> list[str]:
        """All vertex ids in ascending lexicographic order."""
        return list(self._v_ids)

    def edge_ids(self) -> list[str]:
        """All edge ids in ascending lexicographic order."""
        return [ref.id for ref in self.edges_sorted()]

    def edges_sorted(self) -> tuple[EdgeRef, ...]:
        """One interned EdgeRef per edge, in ascending id order."""
        refs = self._edge_refs
        if refs is None:
            refs = tuple(map(EdgeRef, sorted(self._e_ids)))
            self._edge_refs = refs
        return refs

    def vertex_label(self, vid: str) -> str:
        return self.vertex_labels[self._require_vertex(vid)]

    def edge_label(self, eid: str) -> str:
        return self.edge_labels[self._require_edge(eid)]

    def edge_record(self, eid: str) -> EdgeRecord:
        ex = self._require_edge(eid)
        return EdgeRecord(
            id=eid,
            out_v=self._v_ids[self._e_out[ex]],
            label=self.edge_labels[ex],
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
        labels = self.edge_labels
        return [
            (self._e_ids[ex], self._v_ids[ends[ex]])
            for ex in edges[self._require_vertex(vid)]
            if label is None or labels[ex] == label
        ]

    def neighbours(self, direction: str, label: str | None) -> list:
        """Per rank, its entry of adjacent(direction, label, rank), or None
        while that entry has not been built."""
        key = (direction, label)
        lists = self._neighbours.get(key)
        if lists is None:
            lists = [None] * len(self._v_ids)
            self._neighbours[key] = lists
        return lists

    def adjacent(self, direction: str, label: str | None, rank: int) -> tuple[tuple[int], ...]:
        """The tokens adjacent to the vertex of that rank along edges of
        label (None: any label), one per edge, in file order.  Built on
        first use, so a query that touches a few vertices builds only their
        entries."""
        lists = self.neighbours(direction, label)
        found = lists[rank]
        if found is None:
            if direction == "out":
                exs, ends = self._out_edges[rank], self._e_in
            else:
                exs, ends = self._in_edges[rank], self._e_out
            if label is not None:
                labels = self.edge_labels
                exs = [ex for ex in exs if labels[ex] == label]
            tokens = self.vertex_tokens
            found = tuple([tokens[ends[ex]] for ex in exs])
            lists[rank] = found
        return found

    # -- labels and properties -------------------------------------------

    def ranks_labelled(self, label: str) -> tuple[int, ...]:
        """The ranks of the vertices carrying label, ascending.  The table of
        every vertex label is built whole on first use."""
        table = self._label_ranks
        if table is None:
            table = _ranks_by(self.vertex_labels)
            self._label_ranks = table
        return table.get(label, ())

    def property_column(self, key: str) -> list:
        """Per rank, the vertex's value for key, or None where it has none.
        Built whole on the first use of key."""
        column = self._property_columns.get(key)
        if column is None:
            column = [props.get(key) for props in self.vertex_props]
            self._property_columns[key] = column
        return column

    def ranks_with(self, key: str, value: PropertyValue) -> tuple[int, ...]:
        """The ranks of the vertices whose value for key equals value under
        values_equal, ascending; a vertex without key never matches.  The
        table for key is built whole on its first use."""
        table = self._value_ranks.get(key)
        if table is None:
            column = self.property_column(key)
            # each value's join_key by C-level maps, (None, None) where absent
            table = _ranks_by(zip(map(_JOIN_TAGS.get, map(type, column)), column))
            table.pop((None, None), None)
            self._value_ranks[key] = table
        return table.get(join_key(value), ())

    def element_property(self, elem: str, key: str) -> PropertyValue | None:
        """μ(elem, key), or None when the key is absent.

        elem may be a vertex id or an edge id (ids never collide).
        """
        if elem in self._v_index:
            return self.vertex_props[self._v_index[elem]].get(key)
        if elem in self.edge_index:
            return self.edge_props[self.edge_index[elem]].get(key)
        raise GraphFormatError(f"unknown element id {elem!r}")

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._v_ids == other._v_ids
            and self.vertex_labels == other.vertex_labels
            and self.vertex_props == other.vertex_props
            and self._e_ids == other._e_ids
            and self.edge_labels == other.edge_labels
            and self._e_out == other._e_out
            and self._e_in == other._e_in
            and self.edge_props == other.edge_props
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
            return self.edge_index[eid]
        except KeyError:
            raise GraphFormatError(f"unknown edge id {eid!r}") from None


def _ranks_by(keys) -> dict:
    """Per distinct key, the ranks (positions in keys) holding it, ascending."""
    ranks: dict = {}
    for rank, k in enumerate(keys):
        ranks.setdefault(k, []).append(rank)
    return dict(zip(ranks, map(tuple, ranks.values())))


# -- loader ----------------------------------------------------------------

_JSON_TYPES = {list: "array", dict: "object", type(None): "null"}
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
            # the JSON type only: the value itself may be arbitrarily large
            raise GraphFormatError(
                f"{where}: property {key!r} has non-scalar value of type {_JSON_TYPES[kind]}"
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
    non-finite numbers (NaN, Infinity) are rejected.  Bytes must be UTF-8.
    """
    try:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past the interpreter's int digit limit
        raise GraphFormatError("invalid JSON: integer has too many digits") from None

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
