"""Executes algebra expressions over a property graph with bag semantics.

Results are binding sets: multisets of rows mapping variable names to
values (vertex/edge references or scalars).  Every row additionally tracks
the traversal's current position under the reserved column "@"; it is
never part of the visible schema.

Row order is deterministic: the vertex/edge sources emit elements in
ascending lexicographic id order, and every operator except sorting and
grouping preserves its input order.

Inside the engine a relation is stored column by column: one list per
visible column, in the order of the column rule in ``algebra.program``,
and one list of current positions.  A list is never changed once built,
so relations share lists freely (``traverse(a->b)`` keeps one list as
both ``b`` and the position).  Each list has one of two kinds, fixed
where the list is built and carried next to it, never read off its
contents:

* a rank column holds vertices and nothing else, each as its bare rank in
  id order, the graph's own int object (see ``Graph``);
* a value column holds anything: a vertex as the graph's token, the
  1-tuple ``(rank,)``, an edge as the graph's interned ``EdgeRef``, a
  scalar as itself, and None for an absent binding.

A token is the only tuple a value column can be, so it never equals an
int; it orders, dedups and joins as itself.  A rank column becomes a value
column only where the two kinds meet (union, join, a binding that is
tested or filled in, a column one union side lacks), through
``_as_values``.  The operators are passes over whole columns: a traverse
expands each column by the sizes of its anchors' neighbour entries (one
read of ``Graph.neighbours``, which builds the missing ones), a filter
compresses every column by a mask read from the graph's labels or
property columns by rank (see ``Graph``) or, over ``V()``, takes the
ranks its rank index holds as its rows, one list that every column
shares, and over such a seek intersects them with the rows' (see
``_filter``), dedup, limit, sort, group and join
gather by an index list and union concatenates.  A rank column takes
these passes through C-level ``map``s; a value column takes a per-value
path in the same function.  Ints and tuples of ints hold
nothing CPython's cyclic garbage collector must follow, so the objects it
tracks per relation are its few lists, not its rows.

Every operator that reads an element (an argument, traverse, filter or
values()) finds it one way, ``_element``: its anchor variable's binding,
else the position; the anchor is bound to it where absent, and it becomes
the position.  Every step binds its output one way, ``_bind``: a new
variable is appended, one already bound keeps the rows that agree with
it.  Group keys the position by a property of it, the position is the
member, and max() reduces it.

``evaluate`` flattens the plan once into the post-order program of
``algebra.program``, each operator with its output columns, raises on any
diagnostic that walk gathers, and hands the final columns, their kinds and
the graph to a ``BindingSet``; a rank or a token becomes the graph's
interned ``VertexRef`` wherever a value leaves the set, and ``to_jsonl``
prints a rank column from the graph's table of vertex texts.  ``_run``,
one loop over a program, hands each operator the relations its input
slots name and keeps the one it returns; one that several read runs
once, and no operator may change a relation it is handed.

where()/not() run their predicate's program once, from the selection (two
frames per nesting level), over all input rows, each tagged with its row's
index; predicate leaves are all the row under test (Argument) and other
leaves sources, so inside a predicate every relation is tagged and outside
one none is.  Dedup, join, limit and aggregate key on the tag, and sort
and group are stable, so the batch answers exactly what one run per row
would.  A predicate that is a chain ending in a seekable filter may
instead be answered backward from that end, a semi-join reduction chosen
per selection from exact counts (see ``_selection``); either way the rows
under test keep their order.

This is the package's only evaluation engine.  The reference semantics it
is tested against (the path algebra, the traverser-level match route and
the brute-force oracle) live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import add, eq, is_not, itemgetter, mul, not_

from . import algebra as alg
from .algebra import AlgebraExpr
from .errors import EvaluationError
from .property_graph import (
    EdgeRef,
    Graph,
    VertexRef,
    is_numeric,
    join_key,
    sort_key,
    value_key,
    values_equal,
    vertex_json,
)

CUR = "@"

Value = object  # VertexRef (in the engine: its rank or token) | EdgeRef | PropertyValue
Row = dict

# The two kinds of an engine column (see the module docstring).
RANKS = True  # vertices only, each its bare rank
VALUES = False  # anything: a vertex as its token, None where absent


class BindingSet:
    """A bag of rows with an ordered visible schema.

    Rows are read-only dicts from column name to value, an absent binding
    left out; the reserved "@" key carries the current position and is not
    part of `columns`.  Multiplicity is represented by repeated rows.

    Underneath are the engine's columns: one list per name in `columns`
    (a repeated name reads its first list) and one of positions, each with
    its kind; a set ``evaluate`` returns holds its graph, whose refs and
    texts name the ranks and tokens.  A set built from dict rows holds
    value columns only.  Every reading but ``rows`` works on the columns.
    ``rows`` is built on its first read and published whole, once.
    """

    __slots__ = ("columns", "_dicts", "_data", "_kinds", "_pos", "_pos_kind", "_graph")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, columns: tuple[str, ...], rows: list[Row] | None = None):
        self.columns, self._graph = columns, None
        self._dicts: list[Row] | None = [] if rows is None else rows
        self._data = [[r.get(c) for r in self._dicts] for c in columns]
        self._kinds = [VALUES] * len(columns)
        self._pos, self._pos_kind = [r.get(CUR) for r in self._dicts], VALUES

    @property
    def rows(self) -> list[Row]:
        """The dict rows; a set ``evaluate`` returns builds them here, once."""
        if self._dicts is None:
            built = _dict_rows(self)
            with _PUBLISH:
                if self._dicts is None:
                    self._dicts = built
        return self._dicts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BindingSet):
            return NotImplemented
        return (self.columns, self.rows) == (other.columns, other.rows)

    def __repr__(self) -> str:
        return f"BindingSet(columns={self.columns!r}, {len(self)} rows)"

    def __len__(self) -> int:
        return len(self._pos)

    def _column(self, slot: int) -> list:
        """One column (-1: the positions), each vertex as its VertexRef."""
        if slot == -1:
            values, kind = self._pos, self._pos_kind
        else:
            values, kind = self._data[slot], self._kinds[slot]
        if kind is RANKS:
            return list(map(self._graph.vertex_refs.__getitem__, values))  # type: ignore[union-attr]
        if self._graph is None or tuple not in set(map(type, values)):
            return values
        refs = self._graph.vertex_refs
        return [refs[v[0]] if type(v) is tuple else v for v in values]

    def canonical(self) -> list[tuple]:
        """Rows as order-insensitive canonical tuples (for multiset tests)."""
        if not self.columns:
            return [() if v is None else (value_key(v),) for v in self._column(-1)]
        index = self.columns.index
        keyed = [
            [(c, ("missing",) if v is None else value_key(v)) for v in self._column(index(c))]
            for c in sorted(set(self.columns))
        ]
        return list(zip(*keyed))

    def values(self) -> list[Value]:
        """The single value per row: sole visible column, else the position."""
        columns = [self._column(i) for i in map(self.columns.index, self.columns)]
        return list(map(_natural, zip(*columns, self._column(-1))))


_PUBLISH = threading.Lock()  # held only to publish a set's dict rows


def _dict_rows(bs: BindingSet) -> list[Row]:
    """The dict rows of a set's columns, absent bindings left out."""
    names = tuple(dict.fromkeys(bs.columns)) + (CUR,)
    columns = [bs._column(bs.columns.index(c)) for c in names[:-1]] + [bs._column(-1)]
    if any(None in c for c in columns):
        return [{k: v for k, v in zip(names, r) if v is not None} for r in zip(*columns)]
    return list(map(dict, map(zip, repeat(names), zip(*columns))))


def _natural(row: tuple) -> Value:
    """A row's natural value, row holding its visible values and then its
    position: the sole present value, else the position, else the last
    present value."""
    *values, position = row
    present = [v for v in values if v is not None]
    if len(present) == 1:
        return present[0]
    if position is not None:
        return position
    return present[-1] if present else None


# -- keys ---------------------------------------------------------------------------
#
# A rank column keys, orders and joins by its ranks.  In a value column a
# vertex is its token (rank,) and an edge the graph's interned EdgeRef (see
# Graph); a token is a 1-tuple of an int, so it never equals an int or a
# tagged key such as ("s", "x") or ("missing",).  A key built from several
# columns holds each column's key at that column's place, so keys of the
# two kinds never meet.


def _identity_keys(values: list, kind: bool) -> list:
    """Keys under which values of one column are the same row value
    (dedup): value_key's identity, a rank or a vertex token its own, with
    None (absent) as its own key.  A rank column, or a value column of a
    single type whose values are their own identity, keeps them."""
    if kind is RANKS:
        return values
    types = set(map(type, values))
    if types == {tuple} or types == {str} or types == {int} or types == {bool}:
        return values
    return [
        ("missing",) if v is None else v if type(v) is tuple else value_key(v) for v in values
    ]


def _order_keys(values: list, kind: bool) -> list:
    """Keys ordering one column's values as sort_key does, an absent value
    first; ranks and vertex tokens (rank order is id order), numbers,
    strings or bools alone order as they are."""
    if kind is RANKS:
        return values
    types = set(map(type, values))
    if types == {tuple} or types <= {int, float} or types == {str} or types == {bool}:
        return values
    return [
        (-1,) if v is None else (3, v) if type(v) is tuple else sort_key(v) for v in values
    ]


def _keys(parts: list[list], tags: list | None) -> list:
    """Per row, the key of the given key columns: one column's key alone,
    else a tuple of keys, the tag first when tags are given."""
    if tags is not None:
        parts = [tags] + parts
    if len(parts) == 1:
        return parts[0]
    return list(zip(*parts))


def _join_keys(columns: list[list], kinds: list[bool], tags: list | None) -> list:
    """Join key per row, None for a row with an absent join column; the
    tag first when tags are given."""
    parts = [
        c if k is RANKS else [None if v is None else join_key(v) for v in c]
        for c, k in zip(columns, kinds)
    ]
    keys = _keys(parts, tags)
    holes = any(k is VALUES and None in p for p, k in zip(parts, kinds))
    if holes and len(parts) + (tags is not None) > 1:
        return [None if None in k else k for k in keys]
    return keys


def _rank_keys(columns: list[list], tags: list | None, base: int) -> list[int]:
    """Per row, one int key of rank columns: their ranks are its digits in
    base (the vertex count), the first column's the most significant, and
    the tag, when tags are given, is the top digit."""
    keys = tags
    for ranks in columns:
        keys = ranks if keys is None else list(map(add, map(mul, keys, repeat(base)), ranks))
    return keys  # type: ignore[return-value]


def _first_rows(keys: list) -> list[int]:
    """The index of each distinct key's first row, in row order."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return sorted(first.values())


# -- the engine ----------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _Rel:
    """A relation inside the engine, stored column by column.

    cols are the visible columns (a name may repeat after a projection
    such as select('a','a'); it then reads its first list).  data holds
    one list per visible column and pos the current position of each row;
    kinds holds the kind of each list in data, pos_kind that of pos.
    Inside a selection predicate tags holds, per row, the index of the row
    under test it derives from (see _selection); outside one it is None.
    None marks an absent binding, in a value column only.  Lists are
    never changed once built, so relations share them; data and kinds
    belong to their relation.
    """

    cols: tuple[str, ...]
    data: list[list]
    kinds: list[bool]
    pos: list
    pos_kind: bool
    tags: list | None = None

    def get(self, name: str) -> tuple[list, bool]:
        """A column's values and kind."""
        i = self.cols.index(name)
        return self.data[i], self.kinds[i]

    def columns(self, names) -> tuple[list[list], list[bool]]:
        """The values and the kinds of the named columns."""
        slots = list(map(self.cols.index, names))
        return list(map(self.data.__getitem__, slots)), list(map(self.kinds.__getitem__, slots))


def _slot(cols: tuple[str, ...], name: str | None) -> int | None:
    """Index of a column's list, or None when it is not a column."""
    return cols.index(name) if name is not None and name in cols else None


def _as_values(g: Graph, values: list, kind: bool) -> list:
    """A column as a value column: a rank column's ranks become the
    graph's tokens.  The one place a rank column changes its kind."""
    return list(map(g.vertex_tokens.__getitem__, values)) if kind is RANKS else values


def _meet(g: Graph, left: list, left_kind: bool, right: list, right_kind: bool):
    """Two columns that meet in one (a union or a join column), as one
    kind: rank columns both, else value columns both."""
    if left_kind is RANKS and right_kind is RANKS:
        return left, right, RANKS
    return _as_values(g, left, left_kind), _as_values(g, right, right_kind), VALUES


def _coalesce(g: Graph, values: list, kind: bool, fallback: list, fallback_kind: bool):
    """values, each None replaced by fallback's value in that row, and the
    kind of the result."""
    if kind is RANKS or None not in values:
        return values, kind
    fallback = _as_values(g, fallback, fallback_kind)
    return [f if v is None else v for v, f in zip(values, fallback)], VALUES


def _once(fn):
    """fn applied at most once per list object, so that lists shared
    between columns stay shared in the result."""
    done: dict[int, list] = {}

    def apply(values: list) -> list:
        got = done.get(id(values))
        if got is None:
            got = done[id(values)] = fn(values)
        return got

    return apply


def _each(rel: _Rel, fn) -> _Rel:
    """rel with fn applied to every list: the columns, positions and tags."""
    apply = _once(fn)
    tags = None if rel.tags is None else apply(rel.tags)
    data = list(map(apply, rel.data))
    return _Rel(rel.cols, data, list(rel.kinds), apply(rel.pos), rel.pos_kind, tags)


def _keep(rel: _Rel, mask: list) -> _Rel:
    """The rows whose mask entry is true."""
    if False not in mask:
        return _Rel(rel.cols, list(rel.data), list(rel.kinds), rel.pos, rel.pos_kind, rel.tags)
    return _each(rel, lambda values: list(compress(values, mask)))


def _gather(rel: _Rel, index: list[int]) -> _Rel:
    """The rows at index, in its order."""
    return _each(rel, lambda values: list(map(values.__getitem__, index)))


def _present(columns: list[list], kinds: list[bool]) -> list | None:
    """Per row, whether every column binds it; None when every row does."""
    masks = [
        list(map(is_not, c, repeat(None))) for c, k in zip(columns, kinds)
        if k is VALUES and None in c
    ]
    if not masks:
        return None
    return masks[0] if len(masks) == 1 else list(map(all, zip(*masks)))


def _labels(g: Graph, elems: list, kind: bool) -> list:
    """Per value, its element's label; None for a value that is not an element."""
    if kind is RANKS:
        return list(map(g.vertex_labels.__getitem__, elems))
    vlabels, eindex, elabels = g.vertex_labels, g.edge_index, g.edge_labels
    return [
        vlabels[e[0]] if type(e) is tuple else elabels[eindex[e.id]] if type(e) is EdgeRef else None
        for e in elems
    ]


def _properties(g: Graph, key: str, elems: list, kind: bool) -> list:
    """Per value, its element's property value for key; None where the key
    is absent or the value is not an element.  A value column."""
    if kind is RANKS:
        return list(map(g.property_column(key).__getitem__, elems))
    vprops, eindex, eprops = g.vertex_props, g.edge_index, g.edge_props
    return [
        vprops[e[0]].get(key) if type(e) is tuple
        else eprops[eindex[e.id]].get(key) if type(e) is EdgeRef else None
        for e in elems
    ]


def _matches(values: list, const: object) -> list:
    """Per property value, whether it is present and, given a const, equals
    it as values_equal does."""
    if const is None:
        return list(map(is_not, values, repeat(None)))
    kinds = set(map(type, values))
    kinds.add(type(const))
    if bool in kinds and (int in kinds or float in kinds):  # == would take True for 1
        return [v is not None and values_equal(v, const) for v in values]
    return list(map(eq, values, repeat(const)))


def _run(steps: list[tuple], g: Graph, arg: _Rel | None) -> _Rel:
    """Run a program of algebra.program: per entry, call its operator
    with the relations of the entries its input slots name and keep the
    one it returns at the entry's index; arg holds the rows under test
    inside a selection predicate."""
    rels: list[_Rel] = []
    for expr, cols, sub, at in steps:
        rels.append(_OPERATORS[type(expr)](expr, cols, sub, g, arg, *map(rels.__getitem__, at)))
    return rels[-1]


def _source(expr: alg.GetVertices | alg.GetEdges, cols, sub, g: Graph, arg) -> _Rel:
    if type(expr) is alg.GetVertices:
        return _bind(g, _Rel(cols, [], [], list(g.vertex_ranks), RANKS), expr.var)
    return _bind(g, _Rel(cols, [], [], list(g.edges_sorted()), VALUES), expr.var)


def _argument(expr: alg.Argument, cols, sub, g: Graph, arg: _Rel) -> _Rel:
    """The rows under test; with a var, re-anchored at its binding (bound
    to the position where absent), rows with neither dropped."""
    rel = _element(g, arg, expr.var, cols)
    if expr.var and rel.pos_kind is VALUES and None in rel.pos:
        return _keep(rel, list(map(is_not, rel.pos, repeat(None))))
    return rel


def _vertex_ranks(values: list) -> list[int]:
    """The ranks of a value column's vertex tokens; the first value that
    is not a vertex raises."""
    for a in values:
        if a is None:
            raise EvaluationError("traverse from an unbound position")
        if type(a) is not tuple:
            raise EvaluationError(f"traverse requires a vertex, got {a!r}")
    return [a[0] for a in values]


def _traverse(expr: alg.Traverse, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """Each row once per edge from its anchor, the neighbour as position."""
    rel = _element(g, src, expr.anchor, cols)
    ranks = rel.pos if rel.pos_kind is RANKS else _vertex_ranks(rel.pos)
    found = g.neighbours(expr.direction, expr.edge_label, ranks)
    counts = list(map(len, found))
    dest = list(chain.from_iterable(found))
    # each value once per neighbour: a 1-tuple times the count, chained
    expand = _once(lambda values: list(chain.from_iterable(map(mul, zip(values), counts))))
    tags = None if src.tags is None else expand(src.tags)
    data = list(map(expand, rel.data))
    return _bind(g, _Rel(rel.cols, data, rel.kinds, dest, RANKS, tags), expr.var)


def _element(g: Graph, src: _Rel, var: str | None, cols: tuple[str, ...]) -> _Rel:
    """src over cols positioned at the element an operator anchored at var
    reads, the one way an operator finds it: var's binding, else the
    position, which var is then bound to."""
    p = _slot(src.cols, var)
    if p is None:
        elems, kind = src.pos, src.pos_kind
    else:
        elems, kind = _coalesce(g, src.data[p], src.kinds[p], src.pos, src.pos_kind)
    rel = _Rel(cols, list(src.data), list(src.kinds), elems, kind, src.tags)
    return _bind(g, rel, var)


def _bind(g: Graph, rel: _Rel, var: str | None) -> _Rel:
    """rel with its positions bound to var, the one way a step binds a
    variable.  A var with no list in rel.data yet is appended; a bound one
    keeps the rows whose binding is absent, and takes the position there,
    or equals the position (values_equal)."""
    p = _slot(rel.cols[:len(rel.data)], var)
    if p is None:
        if var:
            rel.data.append(rel.pos)
            rel.kinds.append(rel.pos_kind)
        return rel
    bound, kind, pos = rel.data[p], rel.kinds[p], rel.pos
    if bound is pos:  # an anchor every row binds, read by _element
        return rel
    if kind is RANKS and rel.pos_kind is RANKS:
        return _keep(rel, list(map(eq, bound, pos)))
    rel.data[p], rel.kinds[p] = _coalesce(g, bound, kind, pos, rel.pos_kind)
    bound, pos = _as_values(g, bound, kind), _as_values(g, pos, rel.pos_kind)
    return _keep(rel, [b is None or values_equal(b, v) for b, v in zip(bound, pos)])


def _seekable(expr: AlgebraExpr) -> bool:
    """Whether expr is a filter a rank index answers: hasLabel, or has with a
    value (validate admits a value only on an equality filter)."""
    kind = type(expr)
    return kind is alg.LabelFilter or (kind is alg.PropertyFilter and expr.value is not None)


def _seek(g: Graph, expr: alg.LabelFilter | alg.PropertyFilter) -> tuple[int, ...]:
    """The ranks of the vertices a seekable filter keeps, ascending."""
    if type(expr) is alg.LabelFilter:
        return g.ranks_labelled(expr.label)
    return g.ranks_with(expr.key, expr.value)  # type: ignore[arg-type]


def _seeks(expr: AlgebraExpr) -> bool:
    """Whether expr's rows are distinct vertices in ascending rank, a rank
    position: V() under seekable filters only."""
    while _seekable(expr):
        expr = expr.input  # type: ignore[union-attr]
    return type(expr) is alg.GetVertices


def _intersect(have: list[int], ranks: tuple[int, ...]) -> list[int]:
    """The indexes into have of the ranks ranks holds too; both are
    ascending and distinct.  Each rank of the shorter one is looked up in
    the longer."""
    if len(ranks) < len(have):
        at = map(bisect_left, repeat(have), ranks)
        return [i for i, r in zip(at, ranks) if i < len(have) and have[i] == r]
    at = map(bisect_left, repeat(ranks), have)
    return [i for i, (j, r) in enumerate(zip(at, have)) if j < len(ranks) and ranks[j] == r]


def _passes(g: Graph, expr: alg.LabelFilter | alg.PropertyFilter, elems: list, kind: bool) -> list:
    """Per element, whether the label or value filter expr keeps it."""
    if type(expr) is alg.LabelFilter:
        return list(map(eq, _labels(g, elems, kind), repeat(expr.label)))
    return _matches(_properties(g, expr.key, elems, kind), expr.value)


def _filter(expr: alg.LabelFilter | alg.PropertyFilter, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """The rows whose anchor's element passes a label, value or key filter,
    each positioned at its element, or for values() at its key property,
    rows without it dropped; the position is bound to var.  Over a seek,
    whose rows are distinct vertices in ascending rank, a seekable filter
    reads no per-vertex data: straight over V(), where every list holds
    rank i at row i, its rows are the index's ranks, one list that every
    column and the position share; over seeking filters, it intersects
    its ranks with the rows'."""
    rel = _element(g, src, expr.anchor, cols)
    if _seekable(expr) and _seeks(expr.input):
        ranks = _seek(g, expr)
        if type(expr.input) is alg.GetVertices:
            rows = list(ranks)
            rel = _Rel(cols, [rows] * len(rel.data), rel.kinds, rows, RANKS, rel.tags)
        else:
            rel = _gather(rel, _intersect(rel.pos, ranks))  # type: ignore[arg-type]
    elif type(expr) is alg.PropertyFilter and expr.bind_value:
        rel.pos, rel.pos_kind = _properties(g, expr.key, rel.pos, rel.pos_kind), VALUES
        rel = _keep(rel, list(map(is_not, rel.pos, repeat(None))))
    else:
        rel = _keep(rel, _passes(g, expr, rel.pos, rel.pos_kind))
    return _bind(g, rel, expr.var)


def _selection(expr: alg.Selection, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """Semi-join (where) or anti-join (not): a row survives when the
    predicate has a witness for it (negated: none).  Either way the input
    rows keep their order and tags; two physical runs answer the test.

    Forward, the predicate's program, sub, runs once over all input rows,
    each tagged with its index; a row has a witness when some predicate
    row carries its tag.

    Backward (see _backward), a predicate that is a chain from its anchor
    through traverses and label or value filters, none of which binds or
    reads a variable, ending in a seekable filter, is answered from that end: seek the
    filter's vertices, then walk the chain down against each traverse's
    direction to the set of anchors that have a witness.  It needs every
    anchor (arg[var]'s binding, else the position) to be a vertex: forward
    alone raises on, or skips, any other value.

    The choice is made at run time from exact counts, with no statistics
    gathered at load.  Forward's first hop reads F rows: the input rows
    plus their anchors' degrees along the traverse nearest them.  Backward
    runs only when F is at least the number of vertices, since its seek
    may build a rank table over all of them, and only while it has touched
    at most F rows: the seek's vertices, then each reverse hop's
    neighbours.  Past F it stops, and forward runs.  F is summed only as
    far as these tests need."""
    n = len(src.pos)
    if not n:
        return src
    kept = _backward(expr.predicate, src, g)
    if kept is None:
        # inside an enclosing predicate the rows are re-tagged
        try:
            hits = _run(sub, g, replace(src, tags=list(range(n))))
        except EvaluationError:
            # raise what one run per row raises first, in input order
            for i in range(n):
                row = [[values[i]] for values in src.data]
                alone = _Rel(src.cols, row, src.kinds, [src.pos[i]], src.pos_kind, [0])
                _run(sub, g, alone)
            raise
        kept = list(map(set(hits.tags).__contains__, range(n)))  # type: ignore[arg-type]
    return _keep(src, list(map(not_, kept)) if expr.negated else kept)


_REVERSE = {alg.OUT: alg.IN, alg.IN: alg.OUT}


def _backward(predicate: AlgebraExpr, src: _Rel, g: Graph) -> list[bool] | None:
    """Per row under test, whether the predicate has a witness for it,
    answered from its selective end; None when the predicate or its
    anchors do not qualify, or when forward is the cheaper run (see
    _selection)."""
    if not _seekable(predicate):
        return None
    steps = []  # the chain top-down, the seekable filter first
    node = predicate
    while type(node) is not alg.Argument:
        if not (type(node) is alg.Traverse or _seekable(node)) or node.anchor or node.var:  # type: ignore[union-attr]
            return None
        steps.append(node)
        node = node.input  # type: ignore[union-attr]
    anchors = _element(g, src, node.var, src.cols)  # type: ignore[union-attr]
    ranks = anchors.pos
    if anchors.pos_kind is VALUES:
        if set(map(type, ranks)) != {tuple}:  # forward raises or skips as it always has
            return None
        ranks = [a[0] for a in ranks]
    affords = _forward_rows(steps, ranks, g)
    if not affords(g.vertex_count):
        return None
    found = _witnesses(steps, g, affords)
    return None if found is None else list(map(found.__contains__, ranks))


_CHUNK = 512  # anchors whose degrees _forward_rows sums at a time


def _forward_rows(steps: list, ranks: list[int], g: Graph):
    """A test of whether F, the rows a forward run reads in its first hop
    from anchors of these ranks, is at least n: one row per anchor, plus
    its degree along the traverse nearest the anchors, if there is one.
    The degrees are summed a chunk of anchors at a time, only as far as
    the tests asked so far need."""
    first = next((s for s in reversed(steps) if type(s) is alg.Traverse), None)
    if first is None:
        return len(ranks).__ge__
    starts = iter(range(0, len(ranks), _CHUNK))
    summed = len(ranks)

    def at_least(n: int) -> bool:
        nonlocal summed
        while summed < n:
            i = next(starts, None)
            if i is None:
                return False
            summed += sum(map(len, g.neighbours(first.direction, first.edge_label, ranks[i:i + _CHUNK])))
        return True

    return at_least


def _witnesses(steps: list, g: Graph, affords) -> set[int] | None:
    """The ranks of the vertices from which steps (top-down) reach their
    seekable filter's vertices, or None once the walk has touched more
    rows than affords (see _forward_rows) admits."""
    top, *below = steps
    found = _seek(g, top)
    touched = len(found)
    for step in below:
        if not affords(touched):
            return None
        if type(step) is alg.Traverse:
            direction = _REVERSE[step.direction]
            ends = g.neighbours(direction, step.edge_label, found)
            touched += sum(map(len, ends))
            found = list(set(chain.from_iterable(ends)))
        else:
            found = list(compress(found, _passes(g, step, found, RANKS)))
    return set(found) if affords(touched) else None


def _projection(expr: alg.Projection, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    picked, kinds = src.columns(expr.vars)
    if expr.value_key is not None:
        picked = [_properties(g, expr.value_key, c, k) for c, k in zip(picked, kinds)]
        kinds = [VALUES] * len(picked)
    # select() of one variable moves the position onto its value
    if len(picked) == 1:
        pos, pos_kind = picked[0], kinds[0]
    else:
        pos, pos_kind = src.pos, src.pos_kind
    rel = _Rel(cols, picked, kinds, pos, pos_kind, src.tags)
    mask = _present(picked, kinds)
    return rel if mask is None else _keep(rel, mask)


def _dedup(expr: alg.Dedup, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """First occurrence per key; inside a predicate, per row under test.
    Key columns that are all rank columns key a row by one int of their
    ranks (see _rank_keys); otherwise each column keeps its identity keys
    at its own place in a tuple key, so a token never meets an int."""
    names = expr.vars or src.cols
    keyed, kinds = src.columns(names) if names else ([src.pos], [src.pos_kind])
    if all(kinds):
        keys = _rank_keys(keyed, src.tags, g.vertex_count)
    else:
        keys = _keys(list(map(_identity_keys, keyed, kinds)), src.tags)
    first = _first_rows(keys)
    return src if len(first) == len(src.pos) else _gather(src, first)


def _restriction(expr: alg.Restriction, cols, sub, g, arg, src: _Rel) -> _Rel:
    """skip/take in row order; inside a predicate, counted per row under test."""
    lo, hi = expr.skip, expr.skip + expr.take
    if src.tags is None:
        return _each(src, itemgetter(slice(lo, hi)))
    counts: dict[int, int] = {}
    index = []
    for i, tag in enumerate(src.tags):
        seen = counts.get(tag, 0)
        counts[tag] = seen + 1
        if lo <= seen < hi:
            index.append(i)
    return _gather(src, index)


def _sort(expr: alg.Sort, cols, sub, g, arg, src: _Rel) -> _Rel:
    """A stable sort on the key columns in turn, the last first, so that
    the first key column decides and each later one breaks its ties.  No
    tag is needed inside a predicate: a stable sort of all rows orders
    each tag's rows as sorting them alone would."""
    columns, kinds = src.columns(expr.vars) if expr.vars else ([src.pos], [src.pos_kind])
    descending = expr.direction != alg.ASCENDING
    index = list(range(len(src.pos)))
    for keys in map(_order_keys, reversed(columns), reversed(kinds)):
        index.sort(key=keys.__getitem__, reverse=descending)
    return _gather(src, index)


def _group(expr: alg.Group, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """Flattened (key, member) rows in a stable sort by key.  A row's
    member is its position and its key the key property of its position
    (no key: the member); a row with no key is dropped.  Inside a
    predicate each row keeps its tag; as for _sort, sorting all rows at
    once orders each tag's rows as grouping them alone would."""
    members, kind = src.pos, src.pos_kind
    if expr.key is None:
        keys, key_kind = members, kind
    else:
        keys, key_kind = _properties(g, expr.key, members, kind), VALUES
    rel = _Rel(cols, [keys, members], [key_kind, kind], keys, key_kind, src.tags)
    if key_kind is VALUES and None in keys:
        rel = _keep(rel, list(map(is_not, keys, repeat(None))))
    keys = rel.data[0]
    rel = _gather(rel, sorted(range(len(keys)), key=_order_keys(keys, key_kind).__getitem__))
    rel.pos, rel.pos_kind = [None] * len(rel.pos), VALUES
    return rel


def _join(expr: alg.Join, cols, sub, g: Graph, arg, left: _Rel, right: _Rel) -> _Rel:
    """Hash join on the shared columns (values_equal), rows in left-major
    order; a shared column takes the right side's value, as does the
    position unless the right row has none.  Inside a predicate the tag is
    a join column too: both sides are tagged there."""
    shared = [c for c in dict.fromkeys(left.cols) if c in right.cols]
    nl, nr = len(left.pos), len(right.pos)
    if shared or left.tags is not None:
        met = [_meet(g, *left.get(c), *right.get(c)) for c in shared]
        kinds = [k for _, _, k in met]
        table: dict = {}
        for i, k in enumerate(_join_keys([r for _, r, _ in met], kinds, right.tags)):
            if k is not None:
                table.setdefault(k, []).append(i)
        lkeys = _join_keys([lv for lv, _, _ in met], kinds, left.tags)
        matches = list(map(table.get, lkeys, repeat(())))
        right_index = list(chain.from_iterable(matches))
        left_index = list(chain.from_iterable(map(repeat, range(nl), map(len, matches))))
    else:  # cartesian product
        right_index = list(range(nr)) * nl
        left_index = list(chain.from_iterable(map(repeat, range(nl), repeat(nr, nl))))
    take_left = _once(lambda values: list(map(values.__getitem__, left_index)))
    take_right = _once(lambda values: list(map(values.__getitem__, right_index)))
    data, kinds = [], []
    for c in cols:
        from_right = c in shared or c not in left.cols
        values, kind = (right if from_right else left).get(c)
        data.append((take_right if from_right else take_left)(values))
        kinds.append(kind)
    pos, pos_kind = take_right(right.pos), right.pos_kind
    if pos_kind is VALUES and None in pos:  # a right row without a position keeps the left one
        pos, pos_kind = _coalesce(g, pos, pos_kind, take_left(left.pos), left.pos_kind)
    tags = None if left.tags is None else take_left(left.tags)
    return _Rel(cols, data, kinds, pos, pos_kind, tags)  # type: ignore[arg-type]


def _union(expr: alg.Union, cols, sub, g: Graph, arg, left: _Rel, right: _Rel) -> _Rel:
    """Bag union: left rows then right rows, multiplicities add.  A column
    one side lacks is absent in its rows.
    A column is a rank column where both sides' are.  Inside a predicate
    both sides are tagged and each row keeps its tag."""
    def column(rel: _Rel, c: str) -> tuple[list, bool]:
        if c not in rel.cols:
            return [None] * len(rel.pos), VALUES
        return rel.get(c)

    data, kinds = [], []
    for c in cols:
        lv, rv, kind = _meet(g, *column(left, c), *column(right, c))
        data.append(lv + rv)
        kinds.append(kind)
    lp, rp, pos_kind = _meet(g, left.pos, left.pos_kind, right.pos, right.pos_kind)
    tags = None if left.tags is None else left.tags + right.tags  # type: ignore[operator]
    return _Rel(cols, data, kinds, lp + rp, pos_kind, tags)


def _aggregate(expr: alg.Aggregate, cols, sub, g: Graph, arg, src: _Rel) -> _Rel:
    """max of the positions of an input of at most one column; inside a
    predicate, one per row under test that has input."""
    if len(src.cols) > 1:
        raise EvaluationError("max() needs a single-column input")
    values = _as_values(g, src.pos, src.pos_kind)
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if not is_numeric(v))
        shown = g.vertex_refs[bad[0]] if type(bad) is tuple else bad  # type: ignore[index]
        raise EvaluationError(f"max() over non-numeric value {shown!r}")
    groups: dict[int, list] = {}
    if src.tags is None:
        if values:
            groups[0] = values
    else:
        for tag, v in zip(src.tags, values):
            groups.setdefault(tag, []).append(v)
    results = []
    for bag in groups.values():
        result = max(bag)
        results.append(float(result) if len(set(map(type, bag))) > 1 else result)
    return _Rel(cols, [], [], results, VALUES, None if src.tags is None else list(groups))


# Each takes a program entry's operator, output columns and predicate's
# program, then g, the rows under test and its inputs' relations, as _run hands them.
_OPERATORS = {
    alg.GetVertices: _source,
    alg.GetEdges: _source,
    alg.Argument: _argument,
    alg.Traverse: _traverse,
    alg.LabelFilter: _filter,
    alg.PropertyFilter: _filter,
    alg.Selection: _selection,
    alg.Projection: _projection,
    alg.Dedup: _dedup,
    alg.Restriction: _restriction,
    alg.Sort: _sort,
    alg.Group: _group,
    alg.Join: _join,
    alg.Union: _union,
    alg.Aggregate: _aggregate,
}


# -- the public boundary ---------------------------------------------------------------


def evaluate(expr: AlgebraExpr, g: Graph) -> BindingSet:
    """Evaluate a well-scoped expression over a graph.  The result holds
    the final relation's columns and g, which names their vertices."""
    diags: list[str] = []
    steps = alg.program(expr, None, diags)
    if diags:
        raise EvaluationError("invalid plan: " + "; ".join(diags))
    rel = _run(steps, g, None)
    bs = BindingSet(rel.cols)
    bs._dicts, bs._data, bs._kinds, bs._graph = None, rel.data, rel.kinds, g
    bs._pos, bs._pos_kind = rel.pos, rel.pos_kind
    return bs


# -- result serialization -------------------------------------------------------------
#
# to_jsonl reads a set's columns.  A rank column is written by a gather of
# texts by rank, a value column of one scalar type by a C-level text
# function, and any other value column makes each distinct object's text
# once per call.  It writes no string per row: it fills one flat list of
# pieces a column at a time, a key prefix and the column's texts in every
# row's slots, and joins that list once.  to_table formats each value of
# BindingSet._column on its own.


_dump = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(v: Value) -> str:
    """JSON text of one value as json.dumps writes it, an element
    reference as {"vertex": id} / {"edge": id}."""
    tp = type(v)
    if tp is VertexRef:
        return vertex_json(v.id)  # type: ignore[union-attr]
    if tp is EdgeRef:
        return '{"edge":' + _json_string(v.id) + "}"  # type: ignore[union-attr]
    return _json_string(v) if tp is str else _dump(v)


def _format_cell(v: Value) -> str:
    if isinstance(v, (VertexRef, EdgeRef)):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# Per scalar type, the C-level function that writes a value of exactly that
# type as _json_value does (a finite float's JSON text is its repr).
_JSON_TEXTS = {str: _json_string, int: int.__repr__, float: float.__repr__}


def _types(values: list, kind: bool) -> set:
    """The types a value column holds; none are read off a rank column."""
    return set() if kind is RANKS else set(map(type, values))


def _texts(values: list, kind: bool, types: set, g: Graph | None, cache: dict[int, str]) -> list[str]:
    """The JSON texts of a column's values.  A rank column is written from
    g's vertex texts.  A value column whose values are all of one type
    (types) in _JSON_TEXTS is written by its function; otherwise
    _json_value runs once per distinct object, a vertex token read as its
    vertex of g, and cache maps id(object) to its text while the objects
    are alive."""
    if kind is RANKS:
        return g.vertex_texts(values)  # type: ignore[union-attr]
    if len(types) == 1:
        (tp,) = types
        if tp in _JSON_TEXTS:
            return list(map(_JSON_TEXTS[tp], values))
    ids = list(map(id, values))
    for i, v in dict(zip(ids, values)).items():
        if i not in cache:
            cache[i] = _json_value(g.vertex_refs[v[0]] if type(v) is tuple else v)  # type: ignore[union-attr]
    return list(map(cache.__getitem__, ids))


def _lines(prefixes: list[str], texts: list[list[str]]) -> str:
    """JSON lines, one per row: each column's prefix and text in turn, then
    "}".  One join over a flat list of pieces, filled a column at a time by
    strided slice assignment; every row's end slot holds "}\n", the last
    row's "}"."""
    n = len(texts[0])
    if not n:
        return ""
    stride = 2 * len(prefixes) + 1
    pieces = ["}\n"] * (n * stride)
    for j, (prefix, column) in enumerate(zip(prefixes, texts)):
        pieces[2 * j::stride] = [prefix] * n
        pieces[2 * j + 1::stride] = column
    pieces[-1] = "}"
    return "".join(pieces)


def to_jsonl(result: BindingSet) -> str:
    """One JSON object per row; element references as {"vertex": id} /
    {"edge": id}; schema-less rows as {"value": ...}."""
    g = result._graph
    cache: dict[int, str] = {}  # the set keeps every value alive meanwhile
    if not result.columns:
        pos, kind = result._pos, result._pos_kind
        return _lines(['{"value":'], [_texts(pos, kind, _types(pos, kind), g, cache)])
    slots = list(map(result.columns.index, dict.fromkeys(result.columns)))
    keys = [_json_string(result.columns[i]) + ":" for i in slots]
    columns = list(map(result._data.__getitem__, slots))
    kinds = list(map(result._kinds.__getitem__, slots))
    types = list(map(_types, columns, kinds))
    texts = list(map(_texts, columns, kinds, types, repeat(g), repeat(cache)))
    if any(type(None) in t for t in types):
        # each row writes the columns it has
        texts = [
            [None if v is None else k + t for v, t in zip(vs, ts)]
            for k, vs, ts in zip(keys, columns, texts)
        ]
        return "\n".join(["{" + ",".join(filter(None, r)) + "}" for r in zip(*texts)])
    return _lines([("," if i else "{") + k for i, k in enumerate(keys)], texts)


def to_table(result: BindingSet) -> str:
    """Aligned text table; schema-less results print one bare value per row.
    Empty results render as the empty string."""
    if not len(result):
        return ""
    if not result.columns:
        return "\n".join(map(_format_cell, result._column(-1)))
    padded = []
    for c in result.columns:
        texts = ["" if v is None else _format_cell(v) for v in result._column(result.columns.index(c))]
        width = max(len(c), *map(len, texts))
        padded.append((c.ljust(width), "-" * width, [t.ljust(width) for t in texts]))
    headers, rules, cells = zip(*padded)
    lines = ["  ".join(headers), "  ".join(rules)] + list(map("  ".join, zip(*cells)))
    return "\n".join([line.rstrip() for line in lines])
