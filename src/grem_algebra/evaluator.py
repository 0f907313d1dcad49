"""Executes algebra expressions over a property graph with bag semantics.

Results are binding sets: multisets of rows mapping variable names to
values (vertex/edge references or scalars).  Every row additionally tracks
the traversal's current position under the reserved column "@"; it is
never part of the visible schema.

Row order is deterministic: the vertex/edge sources emit elements in
ascending lexicographic id order, and every operator except sorting and
grouping preserves its input order.

Inside the engine a row is a tuple, not a dict: one slot per column, in
the order of the column rules of ``algebra.output_columns``, then a final
slot for the current position; None marks an absent binding.  A vertex is
its token, the 1-tuple ``(rank,)`` of its rank in id order.  The operators
read the graph's own layout, which it builds at load (see ``Graph``):
tokens, labels and properties by rank, and neighbour tokens per direction
and label, built on first use.  A token is interned and is the only tuple
a row value can be; it orders, dedups and joins as itself.  Rows of tokens
and scalars hold nothing CPython's cyclic garbage collector must follow,
so it stops tracking them at their first collection.  An edge is the
graph's interned ``EdgeRef``.  where()/not() run their predicate once over all input rows,
each tagged with its row's index in a hidden first slot.  Inside the
predicate, dedup, join, limit and aggregate key on that tag, and sort and
group are stable, so the batch answers exactly what one run per row would.
``algebra.validate`` admits only plans whose predicate leaves are all the
row under test (Argument) and whose other leaves are all sources, so inside
a predicate every relation is tagged and outside one none is.
Join is a hash join, sorting uses stable key passes.  ``evaluate`` hands
the final tuple rows to a ``BindingSet``; a token becomes the graph's
interned ``VertexRef`` wherever a value leaves the set.

This is the package's only evaluation engine.  The reference semantics it
is tested against (the path algebra, the traverser-level match route and
the brute-force oracle) live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
import json
import threading
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter

from . import algebra as alg
from .algebra import AlgebraExpr
from .errors import EvaluationError
from .property_graph import (
    EdgeRef,
    Graph,
    PropertyValue,
    VertexRef,
    is_numeric,
    sort_key,
    value_key,
    values_equal,
)

CUR = "@"
_NONE = type(None)

Value = object  # VertexRef (in the engine: its token) | EdgeRef | PropertyValue
Row = dict


class BindingSet:
    """A bag of rows with an ordered visible schema.

    Rows are read-only dicts from column name to value, an absent binding
    left out; the reserved "@" key carries the current position and is not
    part of `columns`.  Multiplicity is represented by repeated rows.

    Underneath are tuple rows as in the engine (a repeated column name
    reads its first slot; in a set ``evaluate`` returns, the graph's refs
    name the vertex tokens).  Every reading but ``rows`` works on those.
    ``rows`` is built on its first read and published whole, once.
    """

    __slots__ = ("columns", "_dicts", "_tuples", "_refs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, columns: tuple[str, ...], rows: list[Row] | None = None):
        self.columns, self._refs = columns, None
        self._dicts: list[Row] | None = [] if rows is None else rows
        self._tuples = [tuple([r.get(c) for c in columns]) + (r.get(CUR),) for r in self._dicts]

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
        return len(self._tuples)

    def _column(self, slot: int) -> list:
        """One slot of every row, each vertex token as its VertexRef."""
        values = list(map(itemgetter(slot), self._tuples))
        if self._refs is None or tuple not in set(map(type, values)):
            return values
        return [self._refs[v[0]] if type(v) is tuple else v for v in values]  # type: ignore[index]

    def _ref_rows(self) -> list[tuple]:
        """The tuple rows, each vertex token as its VertexRef."""
        return list(zip(*map(self._column, range(len(self.columns) + 1))))

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
        slots = list(map(self.columns.index, self.columns))
        return [_natural(row, slots) for row in self._ref_rows()]


_PUBLISH = threading.Lock()  # held only to publish a set's dict rows


def _result(rel: _Rel, refs: tuple[VertexRef, ...] | None) -> BindingSet:
    """A set over an untagged relation's rows; refs name their vertex tokens."""
    bs = BindingSet(rel.cols)
    bs._dicts, bs._tuples, bs._refs = None, rel.rows, refs
    return bs


def _dict_rows(bs: BindingSet) -> list[Row]:
    """The dict rows of a set's tuple rows, absent bindings left out."""
    names = tuple(dict.fromkeys(bs.columns)) + (CUR,)
    columns = [bs._column(bs.columns.index(c)) for c in names[:-1]] + [bs._column(-1)]
    if any(_NONE in set(map(type, c)) for c in columns):
        return [{k: v for k, v in zip(names, r) if v is not None} for r in zip(*columns)]
    return list(map(dict, map(zip, itertools.repeat(names), zip(*columns))))


# -- predicate helpers ------------------------------------------------------------


def _compare(value: Value, cmp: str, const: PropertyValue) -> bool:
    """Total predicate: rows with incomparable values simply fail the test."""
    if cmp == "=":
        return values_equal(value, const)
    if cmp == "!=":
        return not values_equal(value, const)
    if not (is_numeric(value) and is_numeric(const)):
        return False
    if cmp == "<":
        return value < const  # type: ignore[operator]
    if cmp == "<=":
        return value <= const  # type: ignore[operator]
    if cmp == ">":
        return value > const  # type: ignore[operator]
    if cmp == ">=":
        return value >= const  # type: ignore[operator]
    raise EvaluationError(f"unknown comparator {cmp!r}")


# -- keys ---------------------------------------------------------------------------
#
# A vertex in an engine row is its interned token (rank,) and an edge the
# graph's interned EdgeRef (see Graph).  A token is a 1-tuple of an int:
# it never equals a tagged key such as ("s", "x") or ("missing",).


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


def _join_key(v: object) -> object:
    """Key under which two values join: values_equal, so int and float
    meet numerically while bool, str and elements stay type-strict.  A
    vertex is keyed by its token; every other value by a tagged tuple."""
    t = type(v)
    if t is tuple:
        return v
    if t is int or t is float:
        return ("n", v)
    if t is bool:
        return ("b", v)
    if t is str:
        return ("s", v)
    if t is EdgeRef:
        return ("e", v.id)  # type: ignore[union-attr]
    raise TypeError(f"not a graph value: {v!r}")


def _column_keys(rows: list[tuple], slots: list[int], keys_of) -> list:
    """Per row, the key of the given slots: one key for one slot, else a
    tuple of keys; keys_of maps one column's values to their keys."""
    columns = [keys_of(list(map(itemgetter(s), rows))) for s in slots]
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns))


def _picker(slots: list[int]):
    """itemgetter over slots that always returns a tuple."""
    if len(slots) == 1:
        only = slots[0]
        return lambda row: (row[only],)
    return itemgetter(*slots)


# -- the engine ----------------------------------------------------------------------


class _Rel:
    """A relation inside the engine.

    cols are the visible columns (a name may repeat after a projection
    such as select('a','a'); it then reads from its first slot).  A row is
    a tuple: when the relation is tagged, slot 0 holds the index of the
    row under test it derives from (see _selection); then one slot per
    visible column; the last slot is the current position.  None marks an
    absent binding; holes says whether any row may hold one.
    """

    __slots__ = ("cols", "rows", "tagged", "holes")

    def __init__(self, cols: tuple[str, ...], rows: list[tuple], tagged: bool = False,
                 holes: bool = False):
        self.cols = cols
        self.rows = rows
        self.tagged = tagged
        self.holes = holes

    def slot(self, name: str | None) -> int | None:
        """Row slot of a column, or None when it is not a column."""
        if name is None or name not in self.cols:
            return None
        return self.cols.index(name) + self.tagged


def _natural(row: tuple, slots: list) -> Value:
    """A row's natural value: the sole present column among slots, else
    the current position, else the last present column."""
    present = [s for s in slots if s is not None and row[s] is not None]
    if len(present) == 1:
        return row[present[0]]
    if row[-1] is not None:
        return row[-1]
    if present:
        return row[present[-1]]
    return None


def _element_reader(g: Graph, key: str):
    """elem -> its property value, or None (absent key or not an element)."""
    vprops = g.vertex_props
    eindex, eprops = g.edge_index, g.edge_props

    def read(elem: object) -> PropertyValue | None:
        tp = type(elem)
        if tp is tuple:
            return vprops[elem[0]].get(key)  # type: ignore[index]
        if tp is EdgeRef:
            return eprops[eindex[elem.id]].get(key)  # type: ignore[union-attr]
        return None

    return read


def _property_test(g: Graph, key: str, predicate: tuple[str, PropertyValue] | None):
    """elem -> whether it has the key (and its value passes the predicate).
    has(key, value)'s equality with a string or a number is inlined."""
    vprops = g.vertex_props
    read = _element_reader(g, key)
    if predicate is None:
        return lambda e: read(e) is not None
    cmp, const = predicate
    if cmp == "=" and type(const) in (str, int, float):
        kinds = (str,) if type(const) is str else (int, float)

        def accept(e: object) -> bool:
            if type(e) is tuple:
                value = vprops[e[0]].get(key)  # type: ignore[index]
            else:
                value = read(e)
            return value == const and type(value) in kinds

        return accept

    def accept(e: object) -> bool:
        value = read(e)
        return value is not None and _compare(value, cmp, const)

    return accept


def _label_test(g: Graph, label: str):
    """elem -> whether it is an element carrying label."""
    vlabels = g.vertex_labels
    eindex, elabels = g.edge_index, g.edge_labels

    def accept(elem: object) -> bool:
        tp = type(elem)
        if tp is tuple:
            return vlabels[elem[0]] == label  # type: ignore[index]
        if tp is EdgeRef:
            return elabels[eindex[elem.id]] == label  # type: ignore[union-attr]
        return False

    return accept


def _run(expr: AlgebraExpr, g: Graph, arg: _Rel | None) -> _Rel:
    """Evaluate expr; its inputs first, one stack frame per plan level.
    expr has passed algebra.validate, so every node is an operator."""
    op = _OPERATORS[type(expr)]
    inputs = []
    for e in alg.inputs(expr):  # a loop: a comprehension would add a frame per level
        inputs.append(_run(e, g, arg))
    return op(expr, inputs, g, arg)


def _source(expr: alg.GetVertices | alg.GetEdges, inputs, g: Graph, arg) -> _Rel:
    elems = g.vertex_tokens if type(expr) is alg.GetVertices else g.edges_sorted()
    if expr.var:
        return _Rel((expr.var,), [(e, e) for e in elems])
    return _Rel((), [(e,) for e in elems])


def _argument(expr: alg.Argument, inputs, g, arg: _Rel) -> _Rel:
    cols = alg.output_columns(expr, (), arg.cols)
    var = expr.var
    if not var:
        return _Rel(cols, arg.rows, True, arg.holes)
    p = arg.slot(var)
    rows = []
    if p is None:
        for r in arg.rows:
            if r[-1] is not None:
                rows.append(r[:-1] + (r[-1], r[-1]))
    else:
        for r in arg.rows:
            if r[p] is not None:
                rows.append(r[:-1] + (r[p],))
            elif r[-1] is not None:
                rows.append(r[:p] + (r[-1],) + r[p + 1:])
    return _Rel(cols, rows, True, arg.holes)


def _traverse(expr: alg.Traverse, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    direction, label = expr.direction, expr.edge_label
    nbrs = g.neighbours(direction, label)
    pa = src.slot(expr.from_var)
    bind_from = bool(expr.from_var) and pa is None
    # the destination against the row without its position (the base)
    base_cols = src.cols + ((expr.from_var,) if bind_from else ())
    to = expr.to_var
    pt = base_cols.index(to) + src.tagged if to and to in base_cols else None
    new_to = bool(to) and pt is None
    out: list[tuple] = []
    extend = out.extend
    for row in src.rows:
        anchor = row[pa] if pa is not None else None
        base = row[:-1]
        if anchor is None:
            anchor = row[-1]
            if anchor is None:
                raise EvaluationError("traverse from an unbound position")
            if bind_from:
                base += (anchor,)
            elif pa is not None:
                base = base[:pa] + (anchor,) + base[pa + 1:]
        if type(anchor) is not tuple:
            raise EvaluationError(f"traverse requires a vertex, got {anchor!r}")
        ns = nbrs[anchor[0]]
        if ns is None:
            ns = g.adjacent(direction, label, anchor[0])
        if not ns:
            continue
        if new_to:
            extend([base + (n, n) for n in ns])
        elif pt is None:
            extend([base + (n,) for n in ns])
        else:
            bound = base[pt]
            if bound is None:
                extend([base[:pt] + (n,) + base[pt + 1:] + (n,) for n in ns])
            else:
                extend([base + (n,) for n in ns if n is bound])
    return _Rel(cols, out, src.tagged, src.holes)


def _element_filter(src: _Rel, var: str | None, accept, cols: tuple[str, ...]) -> _Rel:
    """Keep rows whose element (var's binding, else the position) passes
    accept; a var that is not bound yet is bound to the element."""
    p = src.slot(var)
    bind = bool(var) and p is None
    out = []
    append = out.append
    for row in src.rows:
        elem = row[p] if p is not None else None
        if elem is not None:
            if accept(elem):
                append(row)
            continue
        elem = row[-1]
        if elem is None or not accept(elem):
            continue
        if bind:
            append(row[:-1] + (elem, elem))
        elif p is not None:
            append(row[:p] + (elem,) + row[p + 1:])
        else:
            append(row)
    return _Rel(cols, out, src.tagged, src.holes)


def _label_filter(expr: alg.LabelFilter, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    return _element_filter(src, expr.var, _label_test(g, expr.label), cols)


def _property_filter(expr: alg.PropertyFilter, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    if not expr.bind_value:
        return _element_filter(src, expr.var, _property_test(g, expr.key, expr.predicate), cols)
    read = _element_reader(g, expr.key)
    pa = src.slot(expr.anchor)
    var = expr.var
    pv = src.slot(var)
    out = []
    append = out.append
    for row in src.rows:
        elem = row[pa] if pa is not None else None
        if elem is None:
            elem = row[-1]
        value = read(elem)
        if value is None:
            continue
        if not var:
            append(row[:-1] + (value,))
        elif pv is None:
            append(row[:-1] + (value, value))
        elif row[pv] is None:
            append(row[:pv] + (value,) + row[pv + 1:-1] + (value,))
        elif values_equal(row[pv], value):
            append(row[:-1] + (value,))
    return _Rel(cols, out, src.tagged, src.holes)


def _selection(expr: alg.Selection, inputs, g: Graph, arg) -> _Rel:
    """Semi-join (where) or anti-join (not): the predicate runs once over
    all input rows, each tagged with its index; a row survives when some
    predicate row carries its tag (negated: none does)."""
    (src,) = inputs
    if not src.rows:
        return src
    # inside an enclosing predicate the rows are re-tagged
    under_test = [(i,) + r[src.tagged:] for i, r in enumerate(src.rows)]
    try:
        hits = _run(expr.predicate, g, _Rel(src.cols, under_test, True, src.holes))
    except EvaluationError:
        # raise what one run per row raises first, in input order
        for row in under_test:
            _run(expr.predicate, g, _Rel(src.cols, [(0,) + row[1:]], True, src.holes))
        raise
    found = set(map(itemgetter(0), hits.rows))
    rows = [r for i, r in enumerate(src.rows) if (i in found) != expr.negated]
    return _Rel(src.cols, rows, src.tagged, src.holes)


def _projection(expr: alg.Projection, inputs, g: Graph, arg) -> _Rel:
    (src,) = inputs
    slots = [src.slot(v) for v in expr.vars]
    if None in slots:  # a column no input row binds
        return _Rel(expr.vars, [], src.tagged, src.holes)
    head = [0] if src.tagged else []
    if expr.value_key is None:
        pick = _picker(head + slots + [-1])
        if src.holes:
            rows = [pick(r) for r in src.rows if all(r[s] is not None for s in slots)]
        else:
            rows = list(map(pick, src.rows))
        return _Rel(expr.vars, rows, src.tagged, src.holes)
    read = _element_reader(g, expr.value_key)
    rows = []
    for r in src.rows:
        values = [read(r[s]) for s in slots]
        if None not in values:
            rows.append(tuple(r[h] for h in head) + tuple(values) + (r[-1],))
    return _Rel(expr.vars, rows, src.tagged, src.holes)


def _dedup(expr: alg.Dedup, inputs, g, arg) -> _Rel:
    """First occurrence per key; inside a predicate, per row under test."""
    (src,) = inputs
    names = expr.vars or src.cols
    slots = [src.slot(c) for c in names] if names else [-1]
    slots = [s for s in slots if s is not None]  # never bound: a constant key part
    keys = _column_keys(src.rows, slots, _identity_keys) if slots else [()] * len(src.rows)
    if src.tagged:
        keys = list(zip(map(itemgetter(0), src.rows), keys))
    seen: set = set()
    add = seen.add
    rows = [r for r, k in zip(src.rows, keys) if not (k in seen or add(k))]
    return _Rel(src.cols, rows, src.tagged, src.holes)


def _restriction(expr: alg.Restriction, inputs, g, arg) -> _Rel:
    """skip/take in row order; inside a predicate, counted per row under test."""
    (src,) = inputs
    lo, hi = expr.skip, expr.skip + expr.take
    if not src.tagged:
        return _Rel(src.cols, src.rows[lo:hi], False, src.holes)
    counts: dict[int, int] = {}
    rows = []
    for r in src.rows:
        n = counts.get(r[0], 0)
        counts[r[0]] = n + 1
        if lo <= n < hi:
            rows.append(r)
    return _Rel(src.cols, rows, True, src.holes)


def _sort(expr: alg.Sort, inputs, g, arg) -> _Rel:
    """Stable sort: one stable pass per run of keys sharing a direction,
    last run first.  No tag is needed inside a predicate: a stable sort of
    all rows orders each tag's rows as sorting them alone would."""
    (src,) = inputs
    runs: list[tuple[str, list]] = []
    for var, direction in expr.keys:
        slot = src.slot(var) if var is not None else -1
        if not runs or runs[-1][0] != direction:
            runs.append((direction, []))
        if slot is not None:  # never bound: every row ties
            runs[-1][1].append(slot)
    rows = src.rows
    for direction, slots in reversed(runs):
        if not slots:
            continue
        keys = _column_keys(rows, slots, _order_keys)
        order = sorted(range(len(rows)), key=keys.__getitem__, reverse=direction != alg.ASCENDING)
        rows = [rows[i] for i in order]
    return _Rel(src.cols, rows, src.tagged, src.holes)


def _group(expr: alg.Group, inputs, g: Graph, arg) -> _Rel:
    """Flattened (key, member) rows in a stable sort by key.  Inside a
    predicate each row keeps its tag; as for _sort, sorting all rows at
    once orders each tag's rows as grouping them alone would."""
    (src,) = inputs
    key = expr.key
    pk = src.slot(key)
    all_slots = [src.slot(c) for c in src.cols]
    member_slots = [src.slot(c) for c in src.cols if c != key]
    read = _element_reader(g, key) if key is not None else None
    tagged = src.tagged
    keys, members, tags = [], [], []
    for r in src.rows:
        if pk is not None and r[pk] is not None:
            key_val = r[pk]
            member = _natural(r, member_slots)
        else:
            key_val = read(r[-1]) if read is not None else _natural(r, all_slots)
            if key_val is None:
                continue
            member = _natural(r, all_slots) if all_slots else r[-1]
        keys.append(key_val)
        members.append(key_val if member is None else member)
        if tagged:
            tags.append(r[0])
    ranked = sorted(range(len(keys)), key=_order_keys(keys).__getitem__)
    if tagged:
        rows = [(tags[i], keys[i], members[i], None) for i in ranked]
    else:
        rows = [(keys[i], members[i], None) for i in ranked]
    return _Rel(("key", "member"), rows, tagged, True)


def _join(expr: alg.Join, inputs, g, arg) -> _Rel:
    """Hash join on the shared columns (values_equal), rows in left-major
    order; a shared column takes the right side's value, as does the
    position unless the right row has none.  Inside a predicate the tag is
    a join column too: both sides are tagged there."""
    left, right = inputs
    cols = alg.output_columns(expr, (left.cols, right.cols))
    tagged = left.tagged
    shared = [c for c in dict.fromkeys(left.cols) if c in right.cols]
    width = len(left.cols) + tagged + 1  # right slots follow in l + r
    picks = [0] if tagged else []
    for c in left.cols:
        picks.append(width + right.slot(c) if c in shared else left.slot(c))
    for c in cols[len(left.cols):]:
        picks.append(width + right.slot(c))
    pick = _picker(picks + [width + len(right.cols) + right.tagged])
    holes = left.holes or right.holes

    lslots = [left.slot(c) for c in shared]
    rslots = [right.slot(c) for c in shared]
    if lslots or tagged:
        table: dict = {}
        for r, k in zip(right.rows, _join_keys(right.rows, rslots, tagged)):
            if k is not None:
                table.setdefault(k, []).append(r)
        pairs = [
            (l, table.get(k, ())) for l, k in zip(left.rows, _join_keys(left.rows, lslots, tagged))
        ]
    else:  # cartesian product
        pairs = [(l, right.rows) for l in left.rows]
    out: list[tuple] = []
    for l, matches in pairs:
        if holes:  # a right row without a position keeps the left one
            out.extend([_keep_position(pick(l + r), l) for r in matches])
        else:
            out.extend([pick(l + r) for r in matches])
    return _Rel(cols, out, tagged, holes)


def _keep_position(row: tuple, left: tuple) -> tuple:
    return row if row[-1] is not None else row[:-1] + (left[-1],)


def _join_keys(rows: list[tuple], slots: list[int], by_tag: bool) -> list:
    """Join key per row, None for a row with an absent join column; by_tag
    puts the tag (slot 0) first."""
    columns = [
        [None if v is None else _join_key(v) for v in map(itemgetter(s), rows)] for s in slots
    ]
    if by_tag:
        columns.insert(0, list(map(itemgetter(0), rows)))
    if len(columns) == 1:
        return columns[0]
    return [None if None in k else k for k in zip(*columns)]


def _union(expr: alg.Union, inputs, g, arg) -> _Rel:
    left, right = inputs
    return _union_rels(left, right)


def _union_rels(left: _Rel, right: _Rel) -> _Rel:
    """Bag union: left rows then right rows, multiplicities add.  The
    schema is merge_columns; a column one side lacks is absent in its rows.
    Inside a predicate both sides are tagged and each row keeps its tag."""
    cols = alg.merge_columns(left.cols, right.cols)
    holes = left.holes or right.holes or set(left.cols) != set(right.cols)
    return _Rel(cols, _conform(left, cols) + _conform(right, cols), left.tagged, holes)


def _conform(rel: _Rel, cols: tuple[str, ...]) -> list[tuple]:
    """rel's rows laid out for cols (absent columns None)."""
    if rel.cols == cols:
        return rel.rows
    width = len(rel.cols) + rel.tagged + 1  # slot of the None appended below
    slots = [rel.slot(c) for c in cols]
    pick = _picker(
        ([0] if rel.tagged else []) + [width if s is None else s for s in slots] + [width - 1]
    )
    return [pick(r + (None,)) for r in rel.rows]


def _aggregate(expr: alg.Aggregate, inputs, g, arg: _Rel | None) -> _Rel:
    """max of a single-column bag; inside a predicate, one per row under
    test that has input."""
    (src,) = inputs
    if len(src.cols) > 1:
        raise EvaluationError("max() needs a single-column input")
    slots = [src.slot(c) for c in src.cols]
    values = [_natural(r, slots) for r in src.rows]
    tags = list(map(itemgetter(0), src.rows)) if src.tagged else [0] * len(values)
    for v in values:
        if not is_numeric(v):
            shown = g.vertex_refs[v[0]] if type(v) is tuple else v  # type: ignore[index]
            raise EvaluationError(f"max() over non-numeric value {shown!r}")
    groups: dict[int, list] = {}
    for tag, v in zip(tags, values):
        groups.setdefault(tag, []).append(v)
    rows = []
    for tag, bag in groups.items():
        mixed = any(isinstance(v, float) for v in bag) and any(isinstance(v, int) for v in bag)
        result = max(bag)
        if mixed:
            result = float(result)
        rows.append((tag, result) if src.tagged else (result,))
    return _Rel((), rows, src.tagged)


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
        _Rel(tuple(s.columns), s._tuples if s._refs in (None, refs) else s._ref_rows())
        for s in (a, b)
    ]
    return _result(_union_rels(*sides), refs)


# -- result serialization -------------------------------------------------------------
#
# The renderers read a set's tuple rows column by column.  A value's text
# is made once per distinct object in a call, a vertex token's from its ref.


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


def _texts(values: list, text, refs, cache: dict[int, str], prefix="", suffix="") -> list[str]:
    """prefix + text(value) + suffix for each value, a vertex token read
    as its ref in refs; text runs once per distinct object, and cache maps
    id(object) to its text while the objects are alive."""
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    for i, v in distinct.items():
        if i not in cache:
            cache[i] = text(refs[v[0]] if type(v) is tuple else v)
    if prefix or suffix:
        cache = {i: prefix + cache[i] + suffix for i in distinct}
    return list(map(cache.__getitem__, ids))


def to_jsonl(result: BindingSet) -> str:
    """One JSON object per row; element references as {"vertex": id} /
    {"edge": id}; schema-less rows as {"value": ...}."""
    rows, refs = result._tuples, result._refs
    cache: dict[int, str] = {}  # the rows keep every value alive meanwhile
    if not result.columns:
        values = list(map(itemgetter(-1), rows))
        return "\n".join(_texts(values, _json_value, refs, cache, '{"value":', "}"))
    names = dict.fromkeys(result.columns)
    keys = [_json_string(c) + ":" for c in names]
    columns = [list(map(itemgetter(result.columns.index(c)), rows)) for c in names]
    if any(_NONE in set(map(type, vs)) for vs in columns):
        # each row writes the columns it has
        texts = [
            [None if v is None else t for v, t in zip(vs, _texts(vs, _json_value, refs, cache, k))]
            for k, vs in zip(keys, columns)
        ]
        return "\n".join(["{" + ",".join(filter(None, r)) + "}" for r in zip(*texts)])
    last = len(names) - 1
    texts = [
        _texts(vs, _json_value, refs, cache, ("," if i else "{") + k, "}" if i == last else "")
        for i, (k, vs) in enumerate(zip(keys, columns))
    ]
    return "\n".join(map("".join, zip(*texts)) if last else texts[0])


def to_table(result: BindingSet) -> str:
    """Aligned text table; schema-less results print one bare value per row.
    Empty results render as the empty string."""
    rows, refs = result._tuples, result._refs
    cache: dict[int, str] = {}  # the rows keep every value alive meanwhile
    if not rows:
        return ""
    if not result.columns:
        return "\n".join(_texts(list(map(itemgetter(-1), rows)), _format_cell, refs, cache))
    padded = []
    for c in result.columns:
        values = list(map(itemgetter(result.columns.index(c)), rows))
        texts = _texts(values, _format_cell, refs, cache)
        texts = ["" if v is None else t for v, t in zip(values, texts)]
        width = max(len(c), *map(len, texts))
        padded.append((c.ljust(width), "-" * width, [t.ljust(width) for t in texts]))
    headers, rules, cells = zip(*padded)
    lines = ["  ".join(headers), "  ".join(rules)] + list(map("  ".join, zip(*cells)))
    return "\n".join([line.rstrip() for line in lines])
