"""Executes algebra expressions over a property graph with bag semantics.

Results are binding sets: multisets of rows mapping variable names to
values (vertex/edge references or scalars).  Every row additionally tracks
the traversal's current position under the reserved column "@"; it is
never part of the visible schema.

Row order is deterministic: the vertex/edge sources emit elements in
ascending lexicographic id order, and every operator except sorting and
grouping preserves its input order.

Inside the engine a relation is stored column by column: one list per
visible column, in the order of the column rules of
``algebra.output_columns``, and one list of current positions; None marks
an absent binding.  A list is never changed once built, so relations
share lists freely (``traverse(a->b)`` keeps one list as both ``b`` and
the position).  A vertex is its token, the 1-tuple ``(rank,)`` of its rank
in id order.  The operators are passes over whole columns: a traverse
expands each column by the neighbour counts of its anchors, a filter
compresses every column by a mask read from the graph's labels or
property columns by rank (see ``Graph``), dedup, limit, sort, group and
join gather by an index list and union concatenates.  A label or value
filter straight over ``V()``, whose row i is the vertex of rank i, reads
no per-vertex data: it gathers the ranks the graph's rank index holds for
its label or value.  A column of vertex tokens takes these passes through
C-level ``map``s over ranks; a column holding edges, scalars or None takes
a per-value path in the same function, chosen by the types the column
holds.  A token is interned and is the only tuple a column value can be;
it orders, dedups and joins as itself.  Tokens and scalars hold nothing
CPython's cyclic garbage collector must follow, so the objects it tracks
per relation are its few lists, not its rows.  An edge is the graph's
interned ``EdgeRef``.

where()/not() run their predicate once over all input rows, each tagged
with its row's index in a tag list.  Inside the predicate, dedup, join,
limit and aggregate key on that tag, and sort and group are stable, so
the batch answers exactly what one run per row would.  ``algebra.validate``
admits only plans whose predicate leaves are all the row under test
(Argument) and whose other leaves are all sources, so inside a predicate
every relation is tagged and outside one none is.  ``evaluate`` hands the
final columns to a ``BindingSet``; a token becomes the graph's interned
``VertexRef`` wherever a value leaves the set.

This is the package's only evaluation engine.  The reference semantics it
is tested against (the path algebra, the traverser-level match route and
the brute-force oracle) live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import json
import threading
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import eq, is_, is_not, itemgetter, mul, not_, or_

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
)

CUR = "@"

Value = object  # VertexRef (in the engine: its token) | EdgeRef | PropertyValue
Row = dict

_RANK = itemgetter(0)  # a vertex token's rank


class BindingSet:
    """A bag of rows with an ordered visible schema.

    Rows are read-only dicts from column name to value, an absent binding
    left out; the reserved "@" key carries the current position and is not
    part of `columns`.  Multiplicity is represented by repeated rows.

    Underneath are the engine's columns: one list per name in `columns`
    (a repeated name reads its first list) and one of positions; in a set
    ``evaluate`` returns, the graph's refs name the vertex tokens.  Every
    reading but ``rows`` works on those.  ``rows`` is built on its first
    read and published whole, once.
    """

    __slots__ = ("columns", "_dicts", "_data", "_pos", "_refs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, columns: tuple[str, ...], rows: list[Row] | None = None):
        self.columns, self._refs = columns, None
        self._dicts: list[Row] | None = [] if rows is None else rows
        self._data = [[r.get(c) for r in self._dicts] for c in columns]
        self._pos = [r.get(CUR) for r in self._dicts]

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
        """One column (-1: the positions), each vertex token as its VertexRef."""
        values = self._pos if slot == -1 else self._data[slot]
        if self._refs is None or tuple not in set(map(type, values)):
            return values
        return [self._refs[v[0]] if type(v) is tuple else v for v in values]  # type: ignore[index]

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
        return list(_naturals(columns, self._column(-1)))


_PUBLISH = threading.Lock()  # held only to publish a set's dict rows


def _result(rel: _Rel, refs: tuple[VertexRef, ...] | None) -> BindingSet:
    """A set over an untagged relation's columns; refs name their vertex tokens."""
    bs = BindingSet(rel.cols)
    bs._dicts, bs._data, bs._pos, bs._refs = None, rel.data, rel.pos, refs
    return bs


def _dict_rows(bs: BindingSet) -> list[Row]:
    """The dict rows of a set's columns, absent bindings left out."""
    names = tuple(dict.fromkeys(bs.columns)) + (CUR,)
    columns = [bs._column(bs.columns.index(c)) for c in names[:-1]] + [bs._column(-1)]
    if any(None in c for c in columns):
        return [{k: v for k, v in zip(names, r) if v is not None} for r in zip(*columns)]
    return list(map(dict, map(zip, repeat(names), zip(*columns))))


# -- keys ---------------------------------------------------------------------------
#
# A vertex in an engine column is its interned token (rank,) and an edge the
# graph's interned EdgeRef (see Graph).  A token is a 1-tuple of an int:
# it never equals a tagged key such as ("s", "x") or ("missing",).


def _only_tokens(values: list) -> bool:
    """Whether a column holds vertex tokens and nothing else."""
    return set(map(type, values)) == {tuple}


def _identity_keys(values: list) -> list:
    """Keys under which values of one column are the same row value
    (dedup): value_key's identity, a vertex token its own, with None
    (absent) as its own key.  A column of a single type whose values are
    their own identity keeps them."""
    types = set(map(type, values))
    if types == {tuple} or types == {str} or types == {int} or types == {bool}:
        return values
    return [
        ("missing",) if v is None else v if type(v) is tuple else value_key(v) for v in values
    ]


def _order_keys(values: list) -> list:
    """Keys ordering one column's values as sort_key does, an absent value
    first; vertex tokens (rank order is id order), numbers, strings or
    bools alone order as they are."""
    types = set(map(type, values))
    if types == {tuple} or types <= {int, float} or types == {str} or types == {bool}:
        return values
    return [
        (-1,) if v is None else (3, v) if type(v) is tuple else sort_key(v) for v in values
    ]


def _keys(parts: list[list], tags: list | None, n: int) -> list:
    """Per row, the key of the given key columns: one column's key alone,
    else a tuple of keys, the tag first when tags are given.  No column
    and no tag: one key for all n rows."""
    if tags is not None:
        parts = [tags] + parts
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return [()] * n
    return list(zip(*parts))


def _join_keys(columns: list[list], tags: list | None) -> list:
    """Join key per row, None for a row with an absent join column; the
    tag first when tags are given."""
    parts = [
        c if _only_tokens(c) else [None if v is None else join_key(v) for v in c]
        for c in columns
    ]
    keys = _keys(parts, tags, 0)
    if len(parts) + (tags is not None) > 1 and any(None in p for p in parts):
        return [None if None in k else k for k in keys]
    return keys


def _first_rows(keys: list) -> list[int]:
    """The index of each distinct key's first row, in row order."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return sorted(first.values())


# -- the engine ----------------------------------------------------------------------


class _Rel:
    """A relation inside the engine, stored column by column.

    cols are the visible columns (a name may repeat after a projection
    such as select('a','a'); it then reads its first list).  data holds
    one list per visible column and pos the current position of each row.
    Inside a selection predicate tags holds, per row, the index of the row
    under test it derives from (see _selection); outside one it is None.
    None marks an absent binding; holes says whether any column may hold
    one.  Lists are never changed once built, so relations share them.
    """

    __slots__ = ("cols", "data", "pos", "tags", "holes")

    def __init__(self, cols: tuple[str, ...], data: list[list], pos: list,
                 tags: list | None = None, holes: bool = False):
        self.cols = cols
        self.data = data
        self.pos = pos
        self.tags = tags
        self.holes = holes

    def column(self, name: str | None) -> list | None:
        """A column's values, or None when it is not a column."""
        i = _slot(self.cols, name)
        return None if i is None else self.data[i]


def _slot(cols: tuple[str, ...], name: str | None) -> int | None:
    """Index of a column's list, or None when it is not a column."""
    return cols.index(name) if name is not None and name in cols else None


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
    return _Rel(rel.cols, list(map(apply, rel.data)), apply(rel.pos), tags, rel.holes)


def _keep(rel: _Rel, mask: list) -> _Rel:
    """The rows whose mask entry is true."""
    if False not in mask:
        return _Rel(rel.cols, list(rel.data), rel.pos, rel.tags, rel.holes)
    return _each(rel, lambda values: list(compress(values, mask)))


def _gather(rel: _Rel, index: list[int]) -> _Rel:
    """The rows at index, in its order."""
    return _each(rel, lambda values: list(map(values.__getitem__, index)))


def _coalesce(values: list, fallback: list) -> list:
    """values, each None replaced by fallback's value in that row."""
    if None not in values:
        return values
    return [f if v is None else v for v, f in zip(values, fallback)]


def _present(columns: list[list]) -> list | None:
    """Per row, whether every column binds it; None when every row does."""
    masks = [list(map(is_not, c, repeat(None))) for c in columns if None in c]
    if not masks:
        return None
    return masks[0] if len(masks) == 1 else list(map(all, zip(*masks)))


def _naturals(columns: list[list], pos: list) -> list:
    """Per row, its natural value: the sole present value among columns,
    else the position, else the last present value."""
    if any(None in c for c in columns):
        return [_natural(vals, p) for vals, p in zip(zip(*columns), pos)]
    if len(columns) == 1:
        return columns[0]
    if not columns:
        return pos
    return _coalesce(pos, columns[-1])


def _natural(values: tuple, position: Value) -> Value:
    present = [v for v in values if v is not None]
    if len(present) == 1:
        return present[0]
    if position is not None:
        return position
    return present[-1] if present else None


def _labels(g: Graph, elems: list) -> list:
    """Per value, its element's label; None for a value that is not an element."""
    if _only_tokens(elems):
        return list(map(g.vertex_labels.__getitem__, map(_RANK, elems)))
    vlabels, eindex, elabels = g.vertex_labels, g.edge_index, g.edge_labels
    return [
        vlabels[e[0]] if type(e) is tuple else elabels[eindex[e.id]] if type(e) is EdgeRef else None
        for e in elems
    ]


def _properties(g: Graph, key: str, elems: list) -> list:
    """Per value, its element's property value for key; None where the key
    is absent or the value is not an element."""
    if _only_tokens(elems):
        return list(map(g.property_column(key).__getitem__, map(_RANK, elems)))
    vprops, eindex, eprops = g.vertex_props, g.edge_index, g.edge_props
    return [
        vprops[e[0]].get(key) if type(e) is tuple
        else eprops[eindex[e.id]].get(key) if type(e) is EdgeRef else None
        for e in elems
    ]


def _matches(values: list, predicate: tuple[str, object] | None) -> list:
    """Per property value, whether it is present and, given ("=", const),
    equals const as values_equal does."""
    if predicate is None:
        return list(map(is_not, values, repeat(None)))
    const = predicate[1]
    kinds = set(map(type, values))
    kinds.add(type(const))
    if bool in kinds and (int in kinds or float in kinds):  # == would take True for 1
        return [v is not None and values_equal(v, const) for v in values]
    return list(map(eq, values, repeat(const)))


def _run(expr: AlgebraExpr, g: Graph, arg: _Rel | None) -> _Rel:
    """Evaluate expr; its inputs first, one stack frame per plan level.
    expr has passed algebra.validate, so every node is an operator."""
    op = _OPERATORS[type(expr)]
    inputs = []
    for e in alg.inputs(expr):  # a loop: a comprehension would add a frame per level
        inputs.append(_run(e, g, arg))
    return op(expr, inputs, g, arg)


def _source(expr: alg.GetVertices | alg.GetEdges, inputs, g: Graph, arg) -> _Rel:
    elems = list(g.vertex_tokens if type(expr) is alg.GetVertices else g.edges_sorted())
    if expr.var:
        return _Rel((expr.var,), [elems], elems)
    return _Rel((), [], elems)


def _argument(expr: alg.Argument, inputs, g, arg: _Rel) -> _Rel:
    """The rows under test; with a var, re-anchored at its binding (bound
    to the position where absent), rows with neither dropped."""
    rel, anchors = _element(arg, expr.var, alg.output_columns(expr, (), arg.cols))
    rel.pos = anchors
    if expr.var and None in anchors:
        return _keep(rel, list(map(is_not, anchors, repeat(None))))
    return rel


def _traverse(expr: alg.Traverse, inputs, g: Graph, arg) -> _Rel:
    """Each row once per edge from its anchor, the neighbour as position."""
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    rel, anchors = _element(src, expr.from_var, cols)
    if not _only_tokens(anchors):
        for a in anchors:  # the first row that cannot move raises
            if a is None:
                raise EvaluationError("traverse from an unbound position")
            if type(a) is not tuple:
                raise EvaluationError(f"traverse requires a vertex, got {a!r}")
    direction, label = expr.direction, expr.edge_label
    ranks = list(map(_RANK, anchors))
    found = list(map(g.neighbours(direction, label).__getitem__, ranks))
    if None in found:  # entries not built yet
        found = [
            g.adjacent(direction, label, r) if ns is None else ns for ns, r in zip(found, ranks)
        ]
    counts = list(map(len, found))
    dest = list(chain.from_iterable(found))
    # each value once per neighbour: a 1-tuple times the count, chained
    expand = _once(lambda values: list(chain.from_iterable(map(mul, zip(values), counts))))
    data = list(map(expand, rel.data))
    tags = None if src.tags is None else expand(src.tags)
    to = expr.to_var
    pt = _slot(cols[:len(data)], to)
    if pt is None:
        if to:
            data.append(dest)
        return _Rel(cols, data, dest, tags, src.holes)
    # a bound destination keeps the rows that reach it; an absent one binds
    bound = data[pt]
    if None in bound:
        mask = list(map(or_, map(is_, bound, dest), map(is_, bound, repeat(None))))
    else:
        mask = list(map(is_, bound, dest))
    data[pt] = dest
    return _keep(_Rel(cols, data, dest, tags, src.holes), mask)


def _element(src: _Rel, var: str | None, cols: tuple[str, ...]) -> tuple[_Rel, list]:
    """src over cols with var bound to the element where it is not bound
    yet, and per row the element: var's binding, else the position."""
    data = list(src.data)
    p = _slot(src.cols, var)
    if p is None:
        elems = src.pos
        if var:
            data.append(elems)
    else:
        elems = data[p] = _coalesce(data[p], src.pos)
    return _Rel(cols, data, src.pos, src.tags, src.holes), elems


def _label_filter(expr: alg.LabelFilter, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    rel, elems = _element(src, expr.var, alg.output_columns(expr, (src.cols,)))
    if type(expr.input) is alg.GetVertices:  # row i is the vertex of rank i
        return _gather(rel, g.ranks_labelled(expr.label))
    return _keep(rel, list(map(eq, _labels(g, elems), repeat(expr.label))))


def _property_filter(expr: alg.PropertyFilter, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    key = expr.key
    if not expr.bind_value:
        predicate = expr.predicate
        rel, elems = _element(src, expr.var, cols)
        if predicate is not None and type(expr.input) is alg.GetVertices:  # row i: rank i
            return _gather(rel, g.ranks_with(key, predicate[1]))
        return _keep(rel, _matches(_properties(g, key, elems), predicate))
    pa = _slot(src.cols, expr.anchor)
    values = _properties(g, key, src.pos if pa is None else _coalesce(src.data[pa], src.pos))
    data = list(src.data)
    var = expr.var
    pv = _slot(src.cols, var)
    if pv is None:
        mask = list(map(is_not, values, repeat(None)))
        if var:
            data.append(values)
    else:  # a bound var keeps the rows whose value equals it
        bound = data[pv]
        mask = [v is not None and (b is None or values_equal(b, v)) for b, v in zip(bound, values)]
        data[pv] = _coalesce(bound, values)
    return _keep(_Rel(cols, data, values, src.tags, src.holes), mask)


def _selection(expr: alg.Selection, inputs, g: Graph, arg) -> _Rel:
    """Semi-join (where) or anti-join (not): the predicate runs once over
    all input rows, each tagged with its index; a row survives when some
    predicate row carries its tag (negated: none does)."""
    (src,) = inputs
    n = len(src.pos)
    if not n:
        return src
    # inside an enclosing predicate the rows are re-tagged
    under_test = _Rel(src.cols, src.data, src.pos, list(range(n)), src.holes)
    try:
        hits = _run(expr.predicate, g, under_test)
    except EvaluationError:
        # raise what one run per row raises first, in input order
        for i in range(n):
            row = [[values[i]] for values in src.data]
            _run(expr.predicate, g, _Rel(src.cols, row, [src.pos[i]], [0], src.holes))
        raise
    found = set(hits.tags)  # type: ignore[arg-type]
    kept = map(found.__contains__, range(n))
    return _keep(src, list(map(not_, kept) if expr.negated else kept))


def _projection(expr: alg.Projection, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    picked = list(map(src.column, expr.vars))
    if any(c is None for c in picked):  # a column no input row binds
        empty = [[] for _ in expr.vars]
        return _Rel(expr.vars, empty, [], None if src.tags is None else [], src.holes)
    if expr.value_key is not None:
        picked = [_properties(g, expr.value_key, c) for c in picked]
    rel = _Rel(expr.vars, picked, src.pos, src.tags, src.holes)
    mask = _present(picked) if src.holes or expr.value_key is not None else None
    return rel if mask is None else _keep(rel, mask)


def _dedup(expr: alg.Dedup, inputs, g, arg) -> _Rel:
    """First occurrence per key; inside a predicate, per row under test."""
    (src,) = inputs
    names = expr.vars or src.cols
    # a var never bound is a constant key part
    keyed = [c for c in map(src.column, names) if c is not None] if names else [src.pos]
    n = len(src.pos)
    first = _first_rows(_keys(list(map(_identity_keys, keyed)), src.tags, n))
    return src if len(first) == n else _gather(src, first)


def _restriction(expr: alg.Restriction, inputs, g, arg) -> _Rel:
    """skip/take in row order; inside a predicate, counted per row under test."""
    (src,) = inputs
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


def _sort(expr: alg.Sort, inputs, g, arg) -> _Rel:
    """One stable sort on all keys, which share a direction (validate
    checks it).  No tag is needed inside a predicate: a stable sort of all
    rows orders each tag's rows as sorting them alone would."""
    (src,) = inputs
    columns = [src.column(var) if var is not None else src.pos for var, _ in expr.keys]
    columns = [c for c in columns if c is not None]  # never bound: every row ties
    if not columns:
        return src
    n = len(src.pos)
    keys = _keys(list(map(_order_keys, columns)), None, n)
    descending = expr.keys[0][1] != alg.ASCENDING
    return _gather(src, sorted(range(n), key=keys.__getitem__, reverse=descending))


def _group(expr: alg.Group, inputs, g: Graph, arg) -> _Rel:
    """Flattened (key, member) rows in a stable sort by key.  A row's key
    is its key column's binding, else its element's key property (no key:
    its natural value); a row with no key is dropped.  Inside a predicate
    each row keeps its tag; as for _sort, sorting all rows at once orders
    each tag's rows as grouping them alone would."""
    (src,) = inputs
    key, pos = expr.key, src.pos
    own = src.column(key)
    if own is not None:
        members = _naturals([src.column(c) for c in src.cols if c != key], pos)
    if own is None or None in own:  # a row without its key column reads the position's
        fallback = _naturals(list(map(src.column, src.cols)), pos)
        by_position = fallback if key is None else _properties(g, key, pos)
        if own is None:
            keys, members = by_position, fallback
        else:
            members = [m if k is not None else f for k, m, f in zip(own, members, fallback)]
            keys = _coalesce(own, by_position)
    else:
        keys = own
    rel = _Rel(("key", "member"), [keys, members], keys, src.tags, True)
    if None in keys:
        rel = _keep(rel, list(map(is_not, keys, repeat(None))))
    keys = rel.data[0]
    rel.data[1] = _coalesce(rel.data[1], keys)
    rel = _gather(rel, sorted(range(len(keys)), key=_order_keys(keys).__getitem__))
    rel.pos = [None] * len(rel.pos)
    return rel


def _join(expr: alg.Join, inputs, g, arg) -> _Rel:
    """Hash join on the shared columns (values_equal), rows in left-major
    order; a shared column takes the right side's value, as does the
    position unless the right row has none.  Inside a predicate the tag is
    a join column too: both sides are tagged there."""
    left, right = inputs
    cols = alg.output_columns(expr, (left.cols, right.cols))
    shared = [c for c in dict.fromkeys(left.cols) if c in right.cols]
    nl, nr = len(left.pos), len(right.pos)
    if shared or left.tags is not None:
        table: dict = {}
        for i, k in enumerate(_join_keys(list(map(right.column, shared)), right.tags)):
            if k is not None:
                table.setdefault(k, []).append(i)
        lkeys = _join_keys(list(map(left.column, shared)), left.tags)
        matches = list(map(table.get, lkeys, repeat(())))
        right_index = list(chain.from_iterable(matches))
        left_index = list(chain.from_iterable(map(repeat, range(nl), map(len, matches))))
    else:  # cartesian product
        right_index = list(range(nr)) * nl
        left_index = list(chain.from_iterable(map(repeat, range(nl), repeat(nr, nl))))
    take_left = _once(lambda values: list(map(values.__getitem__, left_index)))
    take_right = _once(lambda values: list(map(values.__getitem__, right_index)))
    data = [
        take_right(right.column(c)) if c in shared else take_left(left.column(c))
        for c in left.cols
    ] + [take_right(right.column(c)) for c in cols[len(left.cols):]]
    holes = left.holes or right.holes
    pos = take_right(right.pos)
    if holes:  # a right row without a position keeps the left one
        pos = _coalesce(pos, take_left(left.pos))
    tags = None if left.tags is None else take_left(left.tags)
    return _Rel(cols, data, pos, tags, holes)  # type: ignore[arg-type]


def _union(expr: alg.Union, inputs, g, arg) -> _Rel:
    left, right = inputs
    return _union_rels(left, right)


def _union_rels(left: _Rel, right: _Rel) -> _Rel:
    """Bag union: left rows then right rows, multiplicities add.  The
    schema is merge_columns; a column one side lacks is absent in its rows.
    Inside a predicate both sides are tagged and each row keeps its tag."""
    cols = alg.merge_columns(left.cols, right.cols)
    holes = left.holes or right.holes or set(left.cols) != set(right.cols)

    def column(rel: _Rel, c: str) -> list:
        values = rel.column(c)
        return [None] * len(rel.pos) if values is None else values

    data = [column(left, c) + column(right, c) for c in cols]
    tags = None if left.tags is None else left.tags + right.tags  # type: ignore[operator]
    return _Rel(cols, data, left.pos + right.pos, tags, holes)


def _aggregate(expr: alg.Aggregate, inputs, g, arg: _Rel | None) -> _Rel:
    """max of a single-column bag; inside a predicate, one per row under
    test that has input."""
    (src,) = inputs
    if len(src.cols) > 1:
        raise EvaluationError("max() needs a single-column input")
    values = _naturals(src.data, src.pos)
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
    return _Rel((), [], results, None if src.tags is None else list(groups))


_OPERATORS = {
    alg.GetVertices: _source,
    alg.GetEdges: _source,
    alg.Argument: _argument,
    alg.Traverse: _traverse,
    alg.LabelFilter: _label_filter,
    alg.PropertyFilter: _property_filter,
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
    """Evaluate a well-scoped expression over a graph."""
    diags = alg.validate(expr)
    if diags:
        raise EvaluationError("invalid plan: " + "; ".join(diags))
    return _result(_run(expr, g, None), g.vertex_refs)


def multiset_union(a: BindingSet, b: BindingSet) -> BindingSet:
    """Bag union: concatenates rows, adding multiplicities.

    The two schemas must contain the same columns; otherwise this raises,
    since rows with absent columns are not representable.  The rows are
    combined by the evaluator's own union.
    """
    if set(a.columns) != set(b.columns):
        raise EvaluationError(
            f"union schema mismatch: {list(a.columns)} vs {list(b.columns)}"
        )
    refs = a._refs or b._refs
    sides = [  # a token of another graph's result is resolved to its ref
        _Rel(tuple(s.columns), s._data, s._pos) if s._refs in (None, refs)
        else _Rel(tuple(s.columns), [s._column(i) for i in range(len(s.columns))], s._column(-1))
        for s in (a, b)
    ]
    return _result(_union_rels(*sides), refs)


# -- result serialization -------------------------------------------------------------
#
# The renderers read a set's columns.  A column of one scalar type is
# written by a C-level text function, a column of vertex tokens through a
# table of its distinct ranks, and any other column makes each distinct
# object's text once per call.  A row's texts and the JSON punctuation
# between them are joined in one pass per row.


_dump = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(v: Value) -> str:
    """JSON text of one value as json.dumps writes it, an element
    reference as {"vertex": id} / {"edge": id}."""
    tp = type(v)
    if tp is VertexRef:
        return '{"vertex":' + _json_string(v.id) + "}"  # type: ignore[union-attr]
    if tp is EdgeRef:
        return '{"edge":' + _json_string(v.id) + "}"  # type: ignore[union-attr]
    return _json_string(v) if tp is str else _dump(v)


def _format_cell(v: Value) -> str:
    if isinstance(v, (VertexRef, EdgeRef)):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# Per scalar type, the C-level function that writes what _json_value or
# _format_cell writes for a value of exactly that type (a finite float's
# JSON text is its repr).
_JSON_TEXT = {str: _json_string, int: int.__repr__, float: float.__repr__}
_CELL_TEXT = {str: str, int: int.__repr__, float: float.__repr__}


def _texts(values: list, text, direct: dict, refs, cache: dict[int, str]) -> list[str]:
    """text(value) for each value, a vertex token read as its ref in refs.
    A column of one type that direct maps to a text function is written by
    it; a column of vertex tokens through a table of its distinct ranks.
    Otherwise text runs once per distinct object, and cache maps
    id(object) to its text while the objects are alive."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is tuple:
            ranks = list(map(_RANK, values))
            distinct = list(set(ranks))
            table = dict(zip(distinct, map(text, map(refs.__getitem__, distinct))))
            return list(map(table.__getitem__, ranks))
        if kind in direct:
            return list(map(direct[kind], values))
    ids = list(map(id, values))
    for i, v in dict(zip(ids, values)).items():
        if i not in cache:
            cache[i] = text(refs[v[0]] if type(v) is tuple else v)
    return list(map(cache.__getitem__, ids))


def to_jsonl(result: BindingSet) -> str:
    """One JSON object per row; element references as {"vertex": id} /
    {"edge": id}; schema-less rows as {"value": ...}."""
    refs = result._refs
    cache: dict[int, str] = {}  # the set keeps every value alive meanwhile
    if not result.columns:
        texts = _texts(result._pos, _json_value, _JSON_TEXT, refs, cache)
        return "\n".join(map("".join, zip(repeat('{"value":'), texts, repeat("}"))))
    names = dict.fromkeys(result.columns)
    keys = [_json_string(c) + ":" for c in names]
    columns = [result._data[result.columns.index(c)] for c in names]
    if any(None in vs for vs in columns):
        # each row writes the columns it has
        texts = [
            [None if v is None else k + t
             for v, t in zip(vs, _texts(vs, _json_value, _JSON_TEXT, refs, cache))]
            for k, vs in zip(keys, columns)
        ]
        return "\n".join(["{" + ",".join(filter(None, r)) + "}" for r in zip(*texts)])
    parts: list = []
    for i, (k, vs) in enumerate(zip(keys, columns)):
        parts += [repeat(("," if i else "{") + k), _texts(vs, _json_value, _JSON_TEXT, refs, cache)]
    return "\n".join(map("".join, zip(*parts, repeat("}"))))


def to_table(result: BindingSet) -> str:
    """Aligned text table; schema-less results print one bare value per row.
    Empty results render as the empty string."""
    refs = result._refs
    cache: dict[int, str] = {}  # the set keeps every value alive meanwhile
    if not len(result):
        return ""
    if not result.columns:
        return "\n".join(_texts(result._pos, _format_cell, _CELL_TEXT, refs, cache))
    padded = []
    for c in result.columns:
        values = result._data[result.columns.index(c)]
        texts = _texts(values, _format_cell, _CELL_TEXT, refs, cache)
        texts = ["" if v is None else t for v, t in zip(values, texts)]
        width = max(len(c), *map(len, texts))
        padded.append((c.ljust(width), "-" * width, [t.ljust(width) for t in texts]))
    headers, rules, cells = zip(*padded)
    lines = ["  ".join(headers), "  ".join(rules)] + list(map("  ".join, zip(*cells)))
    return "\n".join([line.rstrip() for line in lines])
