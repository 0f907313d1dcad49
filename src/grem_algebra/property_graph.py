"""Immutable in-memory property graph with a strict JSON load format.

A graph is a directed, labeled multigraph.  Every vertex and every edge
carries exactly one label; vertex labels and edge labels are disjoint sets.
Properties are partial maps from (element, key) to scalar values; a lookup
on an absent key returns None rather than a default.

Identifiers are strings in the file format.  At load a vertex gets its
rank in ascending lexicographic id order and an edge its index in file
order, which fixes the order of adjacency.  The evaluator reads the
graph's rank-ordered layout directly (see ``Graph``).
"""

from __future__ import annotations

import io
import json
import re
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite
from operator import is_, itemgetter
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


def vertex_json(vid: str) -> str:
    """The JSON text of a reference to the vertex vid, {"vertex":"<id>"},
    as json.dumps writes it."""
    return '{"vertex":' + _json_string(vid) + "}"


def is_numeric(v: object) -> bool:
    """True for int/float values, excluding bool (bool is type-strict)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def values_equal(a: object, b: object) -> bool:
    """Type-strict value equality, as join_key defines it."""
    return join_key(a) == join_key(b)


# Per value type (a vertex token's is tuple), the tag of its key under each rule.
_JOIN_TAGS = {int: "n", float: "n", bool: "b", str: "s"}
_VALUE_TAGS = {int: "i", bool: "b", str: "s"}
_SORT_TAGS = {bool: 0, int: 1, float: 1, str: 2, tuple: 3}


def join_key(v: object) -> object:
    """Hashable key that defines value equality, for joins, bindings and
    has() values: int and float meet numerically (-0.0 meets 0.0) while
    bool, str and elements stay type-strict.  A vertex token (see Graph)
    and None are their own keys; every other value is keyed by a tagged
    tuple."""
    t = type(v)
    if t is tuple or v is None:
        return v
    tag = _JOIN_TAGS.get(t)
    if tag is not None:
        return (tag, v)
    if t is EdgeRef:
        return ("e", v.id)  # type: ignore[union-attr]
    if t is VertexRef:
        return ("v", v.id)  # type: ignore[union-attr]
    raise TypeError(f"not a graph value: {v!r}")


def value_key(v: object) -> tuple:
    """Hashable key that defines value identity, for dedup() and
    canonical rows.  Floats are keyed by their exact bit pattern, so 1.0
    and 1 stay distinct and -0.0 differs from 0.0.  A vertex token (see
    Graph) is its own key, and None (absent) is keyed ("missing",)."""
    t = type(v)
    if t is tuple:
        return v
    tag = _VALUE_TAGS.get(t)
    if tag is not None:
        return (tag, v)
    if t is float:
        return ("f", struct.pack(">d", v))
    if v is None:
        return ("missing",)
    if t is EdgeRef:
        return ("e", v.id)  # type: ignore[union-attr]
    if t is VertexRef:
        return ("v", v.id)  # type: ignore[union-attr]
    raise TypeError(f"not a graph value: {v!r}")


def sort_key(v: object) -> tuple:
    """Key that defines the total order across value types, for order()
    and group(): None (absent) first, then bools, numbers numerically
    (int/float mixed), strings, vertices (a token by rank, which is id
    order; a ref by id) and edges by id; type families never interleave."""
    t = type(v)
    tag = _SORT_TAGS.get(t)
    if tag is not None:
        return (tag, v)
    if v is None:
        return (-1,)
    if t is EdgeRef:
        return (4, v.id)  # type: ignore[union-attr]
    if t is VertexRef:
        return (3, v.id)  # type: ignore[union-attr]
    raise TypeError(f"not a graph value: {v!r}")


class Graph:
    """Immutable property graph.  Construct via load_graph().

    ``Graph(vertices, edges)`` takes the entries of a graph document as
    ``json.loads`` builds them: vertex objects ``{"id", "label",
    "properties"?}`` and edge objects ``{"id", "label", "outV", "inV",
    "properties"?}``.  It checks them in whole-column passes and, when a
    pass fails, one entry at a time to raise the first fault in the order
    load_graph documents, save the lone-surrogate rule: only load_graph's
    scan of the text applies it.  The properties objects are kept uncopied.

    The graph is laid out in the order the evaluator reads it.  Vertices
    are stored by rank, their position in ascending lexicographic id
    order; edges by index, their position in the file.  Inside the
    evaluator a column of vertices is a list of ranks, and every rank the
    graph hands out (``vertex_ranks``, neighbour entries, seeks) is the
    same int object of one per-graph tuple, so no column allocates ints.
    A vertex among other values is its token, the 1-tuple ``(rank,)``.
    Ints, and tuples that hold only ints, are not something CPython's
    cyclic garbage collector must follow: neighbour entries and the
    evaluator's rows cost full collections nothing.  ``VertexRef``
    appears only where ``evaluate`` hands rows back.

    * ``vertex_ranks``: the ranks, ``0 .. vertex_count - 1``;
    * ``vertex_tokens``: the tokens, by rank, built whole on first use;
    * ``vertex_refs``: one interned ``VertexRef`` per vertex, by rank (the
      ref a result holds for a token);
    * ``vertex_labels`` / ``vertex_props``: by rank;
    * ``property_column(key)``: every vertex's value for key by rank (None
      where it has none), built whole on the first use of key, so a query
      reads a property for a whole column of ranks with one gather;
    * ``ranks_labelled(label)``: the ranks of the vertices carrying label,
      ascending, from a table of every vertex label built whole on first
      use; ``ranks_with(key, value)``: the ranks of the vertices whose
      value for key equals value under ``values_equal``, ascending, from a
      per-key table keyed by ``join_key`` built whole on the first use of
      key.  A filter straight over all vertices reads these instead of a
      mask over every vertex;
    * ``neighbours(direction, label, ranks)``: per rank, the ranks
      adjacent to its vertex along edges of that label (None: any label),
      one per edge, in file order, read from the direction's edge indexes
      sorted by endpoint rank, built whole on first use; each entry is
      built on the first read of its rank and kept;
    * ``vertex_texts(ranks)``: per rank, the vertex's JSON text
      ``{"vertex":"<id>"}``, from a table by rank filled only for the ranks
      a render asks for, so a render of a few rows makes only their texts;
    * ``edge_index``: edge id -> edge index, and ``edge_labels`` /
      ``edge_props`` by edge index; ``edges_sorted()``: interned
      ``EdgeRef``s in ascending id order, built on first use.

    Each part built on first use is complete before it is published with a
    single assignment, so concurrent readers never see a partial one.
    """

    def __init__(self, vertices: list, edges: list):
        columns = _columns(vertices, edges)
        if columns is None:
            _check_entries(vertices, edges)  # raises the first fault
            # reached only by entries of types json.loads never builds
            raise GraphFormatError("graph entries hold values json.loads never builds")
        (
            self._v_ids, self._v_index, self.vertex_labels, self.vertex_props,
            self._e_ids, self.edge_index, self.edge_labels, self._e_out, self._e_in,
            self.edge_props,
        ) = columns
        # the rank ints the edge ends already hold, 0 .. n - 1 in insertion order
        self.vertex_ranks: tuple[int, ...] = tuple(self._v_index.values())
        self.vertex_refs: tuple[VertexRef, ...] = tuple(map(VertexRef, self._v_ids))
        self._incidences: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._neighbours: dict[tuple[str, str | None], list] = {}
        self._vertex_texts: list[str | None] = [None] * len(self._v_ids)
        self._property_columns: dict[str, list] = {}
        self._value_ranks: dict[str, dict[object, tuple[int, ...]]] = {}

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

    @cached_property
    def vertex_tokens(self) -> tuple[tuple[int], ...]:
        """One token (rank,) per vertex, by rank.  Built whole on first use."""
        # tuples of ints, which the garbage collector stops tracking
        return tuple(zip(self.vertex_ranks))

    @cached_property
    def _edge_refs(self) -> tuple[EdgeRef, ...]:
        return tuple(map(EdgeRef, sorted(self._e_ids)))

    def edges_sorted(self) -> tuple[EdgeRef, ...]:
        """One interned EdgeRef per edge, in ascending id order."""
        return self._edge_refs

    # -- adjacency -------------------------------------------------------

    def _incidence(self, direction: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The edge indexes sorted by the rank of the vertex they leave
        ("out") or enter ("in"), in file order within a vertex, and that
        rank of each.  Built whole on first use."""
        found = self._incidences.get(direction)
        if found is None:
            ends = self._e_out if direction == "out" else self._e_in
            order = sorted(range(len(ends)), key=ends.__getitem__)
            # tuples of ints, which the garbage collector stops tracking
            found = (tuple(order), tuple(map(ends.__getitem__, order)))
            self._incidences[direction] = found
        return found

    def neighbours(self, direction: str, label: str | None, ranks) -> list[tuple[int, ...]]:
        """Per rank, the ranks adjacent to its vertex along edges of label
        (None: any label), one per edge, in file order.  Each entry is built
        on its first use and kept, so a query that touches a few vertices
        builds only their entries."""
        lists = self._neighbours.get((direction, label))
        if lists is None:
            lists = [None] * len(self._v_ids)  # None marks an entry not built yet
            self._neighbours[(direction, label)] = lists
        found = list(map(lists.__getitem__, ranks))
        if None in found:
            order, sorted_ends = self._incidence(direction)
            ends = self._e_in if direction == "out" else self._e_out
            labels = self.edge_labels
            for rank in set(compress(ranks, map(is_, found, repeat(None)))):
                start = bisect_left(sorted_ends, rank)
                exs = order[start : bisect_left(sorted_ends, rank + 1, start)]
                if label is not None:
                    exs = [ex for ex in exs if labels[ex] == label]
                lists[rank] = tuple(map(ends.__getitem__, exs))
            found = list(map(lists.__getitem__, ranks))
        return found

    # -- rendering ---------------------------------------------------------

    def vertex_texts(self, ranks: list[int]) -> list[str]:
        """Per rank, its vertex's vertex_json text.  Built where missing:
        each text is made once, on the first render that needs it."""
        table = self._vertex_texts
        texts = list(map(table.__getitem__, ranks))
        if not all(texts):  # a text is never empty; None marks one not made yet
            ids = self._v_ids
            for rank in set(compress(ranks, map(is_, texts, repeat(None)))):
                table[rank] = vertex_json(ids[rank])
            texts = list(map(table.__getitem__, ranks))
        return texts

    # -- labels and properties -------------------------------------------

    @cached_property
    def _label_ranks(self) -> dict[str, tuple[int, ...]]:
        return _ranks_by(self.vertex_ranks, self.vertex_labels)

    def ranks_labelled(self, label: str) -> tuple[int, ...]:
        """The ranks of the vertices carrying label, ascending.  The table of
        every vertex label is built whole on first use."""
        return self._label_ranks.get(label, ())

    def property_column(self, key: str) -> list:
        """Per rank, the vertex's value for key, or None where it has none.
        Built whole on the first use of key."""
        column = self._property_columns.get(key)
        if column is None:
            column = list(map(dict.get, self.vertex_props, repeat(key)))
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
            keys = zip(map(_JOIN_TAGS.get, map(type, column)), column)
            table = _ranks_by(self.vertex_ranks, keys)
            table.pop((None, None), None)
            self._value_ranks[key] = table
        return table.get(join_key(value), ())

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


def _ranks_by(ranks: tuple[int, ...], keys) -> dict:
    """Per distinct key, the ranks (positions in keys) holding it, ascending."""
    found: dict = {}
    for rank, k in zip(ranks, keys):
        found.setdefault(k, []).append(rank)
    return dict(zip(found, map(tuple, found.values())))


# -- loader ----------------------------------------------------------------

_JSON_TYPES = {list: "array", dict: "object", type(None): "null"}
_VERTEX_KEYS = {"id", "label", "properties"}
_EDGE_KEYS = {"id", "label", "outV", "inV", "properties"}
_SCALAR_TYPES = {str, int, float, bool}
# a lone surrogate, the only kind a decoded string holds (json.loads joins a pair)
_lone_surrogate = re.compile("[\ud800-\udfff]").search
# a JSON escape of a surrogate, lone or in a pair
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search


def _columns(vertices: list, edges: list) -> tuple | None:
    """The checked columns of a graph document's entries, by rank for
    vertices and by index for edges, or None when some entry breaks a
    rule.  Each rule is checked over all entries at once; which entry
    breaks it, and how, is for _check_entries to say."""
    if not (set(map(type, vertices)) <= {dict} and set(map(type, edges)) <= {dict}):
        return None
    if not (_VERTEX_KEYS >= set().union(*vertices) and _EDGE_KEYS >= set().union(*edges)):
        return None
    try:
        ids = list(map(itemgetter("id"), vertices))
        labels = list(map(itemgetter("label"), vertices))
        e_ids = list(map(itemgetter("id"), edges))
        e_labels = list(map(itemgetter("label"), edges))
        outs = list(map(itemgetter("outV"), edges))
        ins = list(map(itemgetter("inV"), edges))
    except KeyError:
        return None
    if not set(map(type, chain(ids, labels, e_ids, e_labels, outs, ins))) <= {str}:
        return None

    props = list(map(dict.get, vertices, repeat("properties")))
    e_props = list(map(dict.get, edges, repeat("properties")))
    kinds = set(map(type, chain(props, e_props)))
    if type(None) in kinds:  # absent or null: no properties
        kinds.discard(type(None))
        props = [{} if p is None else p for p in props]
        e_props = [{} if p is None else p for p in e_props]
    if not kinds <= {dict}:
        return None
    present = list(filter(None, chain(props, e_props)))
    values = list(chain.from_iterable(map(dict.values, present)))
    types = list(map(type, values))
    kinds = set(types)
    if not kinds <= _SCALAR_TYPES or not set(map(type, set().union(*present))) <= {str}:
        return None
    if float in kinds and not all(map(isfinite, compress(values, map(is_, types, repeat(float))))):
        return None

    order = sorted(range(len(ids)), key=ids.__getitem__)  # rank -> file position
    v_ids = list(map(ids.__getitem__, order))
    v_index = dict(zip(v_ids, range(len(v_ids))))
    e_index = dict(zip(e_ids, range(len(e_ids))))
    if len(v_index) < len(ids) or len(e_index) < len(e_ids) or not v_index.keys().isdisjoint(e_ids):
        return None
    try:
        e_out = list(map(v_index.__getitem__, outs))
        e_in = list(map(v_index.__getitem__, ins))
    except KeyError:
        return None
    if not set(labels).isdisjoint(e_labels):
        return None
    v_labels = list(map(labels.__getitem__, order))
    v_props = list(map(props.__getitem__, order))
    return v_ids, v_index, v_labels, v_props, e_ids, e_index, e_labels, e_out, e_in, e_props


def _check_entries(vertices: list, edges: list) -> None:
    """Raise the first fault of a graph document's entries, checking one
    entry at a time in the order load_graph documents; return when there
    is none."""
    for section, entries, allowed, fields in (
        ("vertices", vertices, _VERTEX_KEYS, ("id", "label")),
        ("edges", edges, _EDGE_KEYS, ("id", "label", "outV", "inV")),
    ):
        for i, entry in enumerate(entries):
            where = f"{section}[{i}]"
            if not isinstance(entry, dict):
                raise GraphFormatError(f"{where}: must be an object")
            unknown = set(entry) - allowed
            if unknown:
                raise GraphFormatError(f"{where}: unknown key(s): {sorted(unknown)}")
            for field in fields:
                _check_string(entry, field, where)
            _check_properties(entry.get("properties"), where)

    ids = set()
    for vertex in vertices:
        if vertex["id"] in ids:
            raise GraphFormatError(f"duplicate vertex id {vertex['id']!r}")
        ids.add(vertex["id"])
    e_ids = set()
    for edge in edges:
        eid = edge["id"]
        if eid in e_ids:
            raise GraphFormatError(f"duplicate edge id {eid!r}")
        if eid in ids:
            raise GraphFormatError(f"edge id {eid!r} already used by a vertex")
        for end in (edge["outV"], edge["inV"]):
            if end not in ids:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex {end!r}")
        e_ids.add(eid)
    clash = {v["label"] for v in vertices} & {e["label"] for e in edges}
    if clash:
        raise GraphFormatError(f"label(s) used for both vertices and edges: {sorted(clash)}")


def _check_properties(raw: object, where: str) -> None:
    if raw is None:
        return
    if not isinstance(raw, dict):
        raise GraphFormatError(f"{where}: 'properties' must be an object")
    for key, val in raw.items():
        if not isinstance(key, str):
            raise GraphFormatError(f"{where}: property key {key!r} is not a string")
        if _lone_surrogate(key):
            raise GraphFormatError(f"{where}: property key {key!r} holds a lone surrogate")
        kind = type(val)  # json.loads builds exact types
        if kind is float:
            if not isfinite(val):
                raise GraphFormatError(
                    f"{where}: property {key!r} has non-finite value {val!r}"
                )
        elif kind is str:
            if _lone_surrogate(val):
                raise GraphFormatError(f"{where}: property {key!r} holds a lone surrogate")
        elif kind is not int and kind is not bool:
            # the JSON type only: the value itself may be arbitrarily large
            raise GraphFormatError(
                f"{where}: property {key!r} has non-scalar value of type {_JSON_TYPES[kind]}"
            )


def _check_string(entry: dict, field: str, where: str) -> None:
    if field not in entry:
        raise GraphFormatError(f"{where}: missing required field {field!r}")
    val = entry[field]
    if not isinstance(val, str):
        raise GraphFormatError(f"{where}: field {field!r} must be a string")
    if _lone_surrogate(val):
        raise GraphFormatError(f"{where}: field {field!r} holds a lone surrogate")


def load_graph(source: Union[str, bytes, IO]) -> Graph:
    """Load a Graph from JSON text, bytes, or a readable stream.

    Format: {"vertices": [{"id","label","properties"?}...],
             "edges": [{"id","label","outV","inV","properties"?}...]}.
    Bytes must be UTF-8.  The checks run in this order, and the first
    fault found is the one raised as a GraphFormatError:

    1. the text is JSON, its top level an object with no key but
       "vertices" and "edges", and each of the two an array;
    2. each vertex in file order, then each edge in file order: it is an
       object with no unknown key; each of id, label (and outV, inV for
       an edge) is present and a string; properties is absent, null or an
       object of scalar values, with no NaN or infinity;
    3. no vertex id repeats, then for each edge in file order: its id is
       new among edges and unused by a vertex, and outV, then inV, names
       a vertex;
    4. no label is used for both vertices and edges.

    No id, label, property key or string value may hold a lone surrogate
    (a \\ud800-\\udfff code point not in a pair), which no UTF-8 output
    can print: this is checked in step 2, field by field.
    """
    try:
        data = source.read() if hasattr(source, "read") else source
        decoded = isinstance(data, bytes)
        if decoded:
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

    # A surrogate is spelled as a \uD800-\uDFFF escape or, in a str source,
    # raw (UTF-8 decoding never yields one).  Only a text that may hold one
    # pays for checking its entries one at a time.
    if ("\\" in data and _surrogate_escape(data)) or (
        not decoded and not data.isascii() and _lone_surrogate(data)
    ):
        _check_entries(doc["vertices"], doc["edges"])
    return Graph(doc["vertices"], doc["edges"])


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
