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
its token, the 1-tuple ``(rank,)`` of its rank in id order, read through
lookup tables the graph builds once, on first use (``Graph.tables()``):
tokens, labels and properties by rank, and neighbour tokens per direction
and label.  A token is interned and is the only tuple a row value can be;
it orders, dedups and joins as itself.  Rows of tokens and scalars hold
nothing CPython's cyclic garbage collector must follow, so it stops
tracking them at their first collection.  An edge is the graph's interned
``EdgeRef``.  where()/not() run their predicate once over all input rows,
each tagged with its row's index in a hidden first slot.  Inside the
predicate, dedup, join, limit and aggregate key on that tag, and sort and
group are stable, so the batch answers exactly what one run per row would.
Join is a hash join, sorting uses stable key passes.  ``evaluate`` converts
the final rows to dicts and each token to the graph's interned
``VertexRef``: results never hold a token.

The module also houses the path algebra (concatenation and concatenative
join over edge sequences), the traverser-level match/bind semantics that
mirror the compiled route, and a brute-force pattern-matching oracle used
to cross-check the engine.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Iterable

from . import algebra as alg
from .algebra import AlgebraExpr
from .compiler import (
    ChainHas,
    ChainLabel,
    ChainTraverse,
    ChainValues,
    PatternChain,
)
from .errors import EvaluationError, UnboundPatternError
from .property_graph import (
    EdgeRef,
    Graph,
    GraphTables,
    PropertyValue,
    VertexRef,
    is_numeric,
    sort_key,
    value_key,
    values_equal,
)

CUR = "@"

Value = object  # VertexRef (in the engine: its token) | EdgeRef | PropertyValue
Row = dict


@dataclass
class BindingSet:
    """A bag of rows with an ordered visible schema.

    Rows are dicts from column name to value; the reserved "@" key carries
    the current position and is not part of `columns`.  Multiplicity is
    represented by repeated rows.
    """

    columns: tuple[str, ...]
    rows: list[Row] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def canonical(self) -> list[tuple]:
        """Rows as order-insensitive canonical tuples (for multiset tests)."""
        out = []
        for row in self.rows:
            if self.columns:
                out.append(
                    tuple(
                        (c, value_key(row[c]) if c in row else ("missing",))
                        for c in sorted(set(self.columns))
                    )
                )
            elif CUR in row:
                out.append((value_key(row[CUR]),))
            else:
                out.append(())
        return out

    def values(self) -> list[Value]:
        """The single value per row: sole visible column, else the position."""
        return [_natural_value(row, self.columns) for row in self.rows]


def _natural_value(row: Row, columns: tuple[str, ...]) -> Value:
    visible = [c for c in columns if c in row]
    if len(visible) == 1:
        return row[visible[0]]
    if CUR in row:
        return row[CUR]
    if visible:
        return row[visible[-1]]
    return None


# -- paths ---------------------------------------------------------------------

Edge = tuple  # (source, edge label, target)


@dataclass(frozen=True)
class Path:
    """A path as a sequence of edges (source, label, target).

    Consecutive edges must be incident: each edge's target is the next
    edge's source.  The empty path is the identity of concatenation.
    """

    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.edges, self.edges[1:]):
            if a[2] != b[0]:
                raise EvaluationError(f"non-incident path edges {a!r} and {b!r}")

    @property
    def is_empty(self) -> bool:
        return not self.edges

    @property
    def length(self) -> int:
        """Number of edges in the path."""
        return len(self.edges)

    def first(self) -> object:
        """γ⁻: the path's first vertex (non-empty paths only)."""
        if self.is_empty:
            raise EvaluationError("empty path has no first element")
        return self.edges[0][0]

    def last(self) -> object:
        """γ⁺: the path's last vertex (non-empty paths only)."""
        if self.is_empty:
            raise EvaluationError("empty path has no last element")
        return self.edges[-1][2]

    def flatten(self) -> tuple:
        """All edge triples spliced end to end, e.g. (v1,e1,v2,v2,e2,v3)."""
        out: list = []
        for e in self.edges:
            out.extend(e)
        return tuple(out)

    def spliced(self) -> tuple:
        """Vertex/label alternation with shared vertices merged,
        e.g. (v1,e1,v2,e2,v3)."""
        if self.is_empty:
            return ()
        out: list = [self.edges[0][0]]
        for src, label, dst in self.edges:
            out.extend((label, dst))
        return tuple(out)


EMPTY_PATH = Path()


def path_concat(p: Path, r: Path) -> Path:
    """p ∘ r; defined when either side is empty or p ends where r starts."""
    if p.is_empty:
        return r
    if r.is_empty:
        return p
    if p.last() != r.first():
        raise EvaluationError(
            f"path endpoint mismatch: {p.last()!r} does not meet {r.first()!r}"
        )
    return Path(p.edges + r.edges)


def path_join(paths: Iterable[Path], others: Iterable[Path]) -> list[Path]:
    """Concatenative join ⋈∘ of two path multisets.

    Pairs join when either side is empty or the endpoints meet; the empty
    path acts as identity.
    """
    others = list(others)
    out: list[Path] = []
    for p in paths:
        for r in others:
            if p.is_empty or r.is_empty or p.last() == r.first():
                out.append(path_concat(p, r))
    return out


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


def _is_ref(v: object) -> bool:
    return isinstance(v, (VertexRef, EdgeRef))


# -- keys ---------------------------------------------------------------------------
#
# A vertex in an engine row is its interned token (rank,) and an edge the
# graph's interned EdgeRef (GraphTables).  A token is a 1-tuple of an int:
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
    """_natural_value over a row: the sole present column among slots,
    else the current position, else the last present column."""
    present = [s for s in slots if s is not None and row[s] is not None]
    if len(present) == 1:
        return row[present[0]]
    if row[-1] is not None:
        return row[-1]
    if present:
        return row[present[-1]]
    return None


def _element_reader(t: GraphTables, key: str):
    """elem -> its property value, or None (absent key or not an element)."""
    vprops = t.vertex_props
    eindex, eprops = t.edge_index, t.edge_props

    def read(elem: object) -> PropertyValue | None:
        tp = type(elem)
        if tp is tuple:
            return vprops[elem[0]].get(key)  # type: ignore[index]
        if tp is EdgeRef:
            return eprops[eindex[elem.id]].get(key)  # type: ignore[union-attr]
        return None

    return read


def _property_test(t: GraphTables, key: str, predicate: tuple[str, PropertyValue] | None):
    """elem -> whether it has the key (and its value passes the predicate).
    has(key, value)'s equality with a string or a number is inlined."""
    vprops = t.vertex_props
    read = _element_reader(t, key)
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


def _label_test(t: GraphTables, label: str):
    """elem -> whether it is an element carrying label."""
    vlabels = t.vertex_labels
    eindex, elabels = t.edge_index, t.edge_labels

    def accept(elem: object) -> bool:
        tp = type(elem)
        if tp is tuple:
            return vlabels[elem[0]] == label  # type: ignore[index]
        if tp is EdgeRef:
            return elabels[eindex[elem.id]] == label  # type: ignore[union-attr]
        return False

    return accept


def _run(expr: AlgebraExpr, t: GraphTables, arg: _Rel | None) -> _Rel:
    """Evaluate expr; its inputs first, one stack frame per plan level."""
    tp = type(expr)
    op = _OPERATORS.get(tp)
    if op is None:
        raise EvaluationError(f"cannot evaluate {expr!r}")
    if tp is alg.Join or tp is alg.Union:
        inputs = (_run(expr.left, t, arg), _run(expr.right, t, arg))  # type: ignore[union-attr]
    elif tp is alg.GetVertices or tp is alg.GetEdges or tp is alg.Argument:
        inputs = ()
    else:
        inputs = (_run(expr.input, t, arg),)  # type: ignore[union-attr]
    return op(expr, inputs, t, arg)


def _source(expr: alg.GetVertices | alg.GetEdges, inputs, t: GraphTables, arg) -> _Rel:
    elems = t.vertex_tokens if type(expr) is alg.GetVertices else t.edges_sorted()
    if expr.var:
        return _Rel((expr.var,), [(e, e) for e in elems])
    return _Rel((), [(e,) for e in elems])


def _argument(expr: alg.Argument, inputs, t, arg: _Rel | None) -> _Rel:
    if arg is None:
        raise EvaluationError("predicate argument used outside a selection")
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


def _traverse(expr: alg.Traverse, inputs, t: GraphTables, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    direction, label = expr.direction, expr.edge_label
    nbrs = t.neighbours(direction, label)
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
            ns = t.adjacent(direction, label, anchor[0])
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


def _label_filter(expr: alg.LabelFilter, inputs, t: GraphTables, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    return _element_filter(src, expr.var, _label_test(t, expr.label), cols)


def _property_filter(expr: alg.PropertyFilter, inputs, t: GraphTables, arg) -> _Rel:
    (src,) = inputs
    cols = alg.output_columns(expr, (src.cols,))
    if not expr.bind_value:
        return _element_filter(src, expr.var, _property_test(t, expr.key, expr.predicate), cols)
    read = _element_reader(t, expr.key)
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


def _selection(expr: alg.Selection, inputs, t: GraphTables, arg) -> _Rel:
    """Semi-join (where) or anti-join (not): the predicate runs once over
    all input rows, each tagged with its index; a row survives when some
    predicate row carries its tag (negated: none does)."""
    (src,) = inputs
    if not src.rows:
        return src
    # inside an enclosing predicate the rows are re-tagged
    under_test = [(i,) + r[src.tagged:] for i, r in enumerate(src.rows)]
    try:
        hits = _run(expr.predicate, t, _Rel(src.cols, under_test, True, src.holes))
    except EvaluationError:
        # raise what one run per row raises first, in input order
        for row in under_test:
            _run(expr.predicate, t, _Rel(src.cols, [(0,) + row[1:]], True, src.holes))
        raise
    negated = expr.negated
    if hits.tagged:
        found = set(map(itemgetter(0), hits.rows))
        rows = [r for i, r in enumerate(src.rows) if (i in found) != negated]
    else:  # a predicate that never reads the row under test
        rows = src.rows if bool(hits.rows) != negated else []
    return _Rel(src.cols, rows, src.tagged, src.holes)


def _projection(expr: alg.Projection, inputs, t: GraphTables, arg) -> _Rel:
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
    read = _element_reader(t, expr.value_key)
    rows = []
    for r in src.rows:
        values = [read(r[s]) for s in slots]
        if None not in values:
            rows.append(tuple(r[h] for h in head) + tuple(values) + (r[-1],))
    return _Rel(expr.vars, rows, src.tagged, src.holes)


def _dedup(expr: alg.Dedup, inputs, t, arg) -> _Rel:
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


def _restriction(expr: alg.Restriction, inputs, t, arg) -> _Rel:
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


def _sort(expr: alg.Sort, inputs, t, arg) -> _Rel:
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


def _group(expr: alg.Group, inputs, t: GraphTables, arg) -> _Rel:
    """Flattened (key, member) rows in a stable sort by key.  Inside a
    predicate each row keeps its tag; as for _sort, sorting all rows at
    once orders each tag's rows as grouping them alone would."""
    (src,) = inputs
    key = expr.key
    pk = src.slot(key)
    all_slots = [src.slot(c) for c in src.cols]
    member_slots = [src.slot(c) for c in src.cols if c != key]
    read = _element_reader(t, key) if key is not None else None
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


def _join(expr: alg.Join, inputs, t, arg) -> _Rel:
    """Hash join on the shared columns (values_equal), rows in left-major
    order; a shared column takes the right side's value, as does the
    position unless the right row has none.  Inside a predicate the tag is
    a join column too."""
    left, right = inputs
    cols = alg.output_columns(expr, (left.cols, right.cols))
    tagged = left.tagged or right.tagged
    shared = [c for c in dict.fromkeys(left.cols) if c in right.cols]
    width = len(left.cols) + left.tagged + 1  # right slots follow in l + r
    picks = [0 if left.tagged else width] if tagged else []
    for c in left.cols:
        picks.append(width + right.slot(c) if c in shared else left.slot(c))
    for c in cols[len(left.cols):]:
        picks.append(width + right.slot(c))
    pick = _picker(picks + [width + len(right.cols) + right.tagged])
    holes = left.holes or right.holes

    lslots = [left.slot(c) for c in shared]
    rslots = [right.slot(c) for c in shared]
    both = left.tagged and right.tagged
    if lslots or both:
        table: dict = {}
        for r, k in zip(right.rows, _join_keys(right.rows, rslots, both)):
            if k is not None:
                table.setdefault(k, []).append(r)
        pairs = [
            (l, table.get(k, ())) for l, k in zip(left.rows, _join_keys(left.rows, lslots, both))
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


def _union(expr: alg.Union, inputs, t, arg: _Rel | None) -> _Rel:
    left, right = inputs
    return _union_rels(left, right, len(arg.rows) if arg is not None else 0)


def _union_rels(left: _Rel, right: _Rel, ntags: int) -> _Rel:
    """Bag union: left rows then right rows, multiplicities add.  The
    schema is merge_columns; a column one side lacks is absent in its rows.
    Inside a predicate, a side that never reads the row under test holds
    for every row under test, so its rows are repeated once per tag."""
    cols = alg.merge_columns(left.cols, right.cols)
    tagged = left.tagged or right.tagged
    holes = left.holes or right.holes or set(left.cols) != set(right.cols)
    return _Rel(cols, _conform(left, cols, tagged, ntags) + _conform(right, cols, tagged, ntags),
                tagged, holes)


def _conform(rel: _Rel, cols: tuple[str, ...], tagged: bool, ntags: int) -> list[tuple]:
    """rel's rows laid out for cols (absent columns None), tagged if asked."""
    rows = rel.rows
    if rel.cols != cols:
        width = len(rel.cols) + rel.tagged + 1  # slot of the None appended below
        slots = [rel.slot(c) for c in cols]
        pick = _picker(
            ([0] if rel.tagged else []) + [width if s is None else s for s in slots] + [width - 1]
        )
        rows = [pick(r + (None,)) for r in rows]
    if tagged and not rel.tagged:
        rows = [(i,) + r for i in range(ntags) for r in rows]
    return rows


def _aggregate(expr: alg.Aggregate, inputs, t, arg: _Rel | None) -> _Rel:
    """max/min/count of a single-column bag; inside a predicate, one per
    row under test (count: also for rows under test with no input)."""
    (src,) = inputs
    if len(src.cols) > 1:
        raise EvaluationError(f"{expr.fn}() needs a single-column input")
    slots = [src.slot(c) for c in src.cols]
    values = [_natural(r, slots) for r in src.rows]
    tags = list(map(itemgetter(0), src.rows)) if src.tagged else [0] * len(values)
    if expr.fn == "count":
        counts = Counter(tags)
        if not src.tagged:
            return _Rel((), [(counts[0],)])
        return _Rel((), [(i, counts[i]) for i in range(len(arg.rows))], True)  # type: ignore[union-attr]
    for v in values:
        if not is_numeric(v):
            shown = t.vertex_refs[v[0]] if type(v) is tuple else v  # type: ignore[index]
            raise EvaluationError(f"{expr.fn}() over non-numeric value {shown!r}")
    groups: dict[int, list] = {}
    for tag, v in zip(tags, values):
        groups.setdefault(tag, []).append(v)
    rows = []
    for tag, bag in groups.items():
        mixed = any(isinstance(v, float) for v in bag) and any(isinstance(v, int) for v in bag)
        result = max(bag) if expr.fn == "max" else min(bag)
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


def _with_refs(values: list, refs: tuple[VertexRef, ...]) -> list:
    """One column's values with each vertex token replaced by its ref."""
    types = set(map(type, values))
    if tuple not in types:
        return values
    if len(types) == 1:
        return [refs[v[0]] for v in values]
    return [refs[v[0]] if type(v) is tuple else v for v in values]


def _to_bindings(rel: _Rel, refs: tuple[VertexRef, ...] | None) -> BindingSet:
    """Engine rows as dict rows; absent bindings are left out.  refs (by
    rank) replace vertex tokens; None: the rows hold no tokens."""
    keys = rel.cols + (CUR,)
    rows = rel.rows
    if refs is not None:
        columns = [list(map(itemgetter(s), rows)) for s in range(len(keys))]
        converted = [_with_refs(c, refs) for c in columns]
        if any(c is not d for c, d in zip(columns, converted)):
            rows = zip(*converted)
    if rel.holes:
        rows = [{k: v for k, v in zip(keys, r) if v is not None} for r in rows]
    else:
        rows = list(map(dict, map(zip, itertools.repeat(keys), rows)))
    return BindingSet(rel.cols, rows)


def _from_bindings(bs: BindingSet) -> _Rel:
    cols = tuple(bs.columns)
    rows = [tuple(row.get(c) for c in cols) + (row.get(CUR),) for row in bs.rows]
    return _Rel(cols, rows, False, True)


def evaluate(expr: AlgebraExpr, g: Graph) -> BindingSet:
    """Evaluate a well-scoped expression over a graph."""
    diags = alg.validate(expr)
    if diags:
        raise EvaluationError("invalid plan: " + "; ".join(diags))
    t = g.tables()
    return _to_bindings(_run(expr, t, None), t.vertex_refs)


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
    return _to_bindings(_union_rels(_from_bindings(a), _from_bindings(b), 0), None)


# -- traverser-level match semantics ---------------------------------------------


@dataclass(frozen=True)
class Traverser:
    """Execution token: current location, labeled path, hidden markers."""

    location: Value
    labeled_path: dict = field(default_factory=dict)
    hidden_labels: frozenset[str] = frozenset()


def bind(t: Traverser, var: str) -> Traverser | None:
    """Bind the traverser's location to a path label.

    Unbound label: record the location.  Already bound to the current
    location: unchanged.  Bound to something else: the traverser dies
    (None).
    """
    bound = t.labeled_path.get(var)
    if bound is None:
        return replace(t, labeled_path={**t.labeled_path, var: t.location})
    if values_equal(bound, t.location):
        return t
    return None


def _run_chain(chain: PatternChain, g: Graph, t: Traverser) -> list[Traverser]:
    """Execute one pattern for one traverser; may fork or die."""
    start = t.labeled_path[chain.start_var]
    current = [replace(t, location=start)]
    for op in chain.ops:
        next_gen: list[Traverser] = []
        for tr in current:
            loc = tr.location
            if isinstance(op, ChainTraverse):
                if not isinstance(loc, VertexRef):
                    raise EvaluationError(f"traverse requires a vertex, got {loc!r}")
                if op.direction == alg.OUT:
                    pairs = g.out_adjacent(loc.id, op.edge_label)
                else:
                    pairs = g.in_adjacent(loc.id, op.edge_label)
                next_gen.extend(replace(tr, location=VertexRef(v)) for _, v in pairs)
            elif isinstance(op, ChainLabel):
                if _is_ref(loc) and g.element_label(loc) == op.label:
                    next_gen.append(tr)
            elif isinstance(op, ChainHas):
                if not _is_ref(loc):
                    continue
                value = g.ref_property(loc, op.key)
                if value is None:
                    continue
                if op.value is None or values_equal(value, op.value):
                    next_gen.append(tr)
            elif isinstance(op, ChainValues):
                if not _is_ref(loc):
                    continue
                value = g.ref_property(loc, op.key)
                if value is not None:
                    next_gen.append(replace(tr, location=value))
            else:  # pragma: no cover
                raise EvaluationError(f"unknown chain operator {op!r}")
        current = next_gen
    if chain.end_var is not None:
        bound = (bind(tr, chain.end_var) for tr in current)
        current = [tr for tr in bound if tr is not None]
    return current


def eval_match(chains: list[PatternChain], g: Graph, t: Traverser) -> BindingSet:
    """Run match() for a single seeded traverser.

    Repeatedly executes the first pattern (in list order) whose start
    variable is bound and whose hidden marker is unset, appending the
    marker afterwards so each pattern runs exactly once per traverser.
    A traverser with unexecuted patterns and none runnable means a pattern
    whose start can never bind: an error.
    """
    markers = [f"m{i + 1}" for i in range(len(chains))]
    columns: list[str] = []
    for chain in chains:
        for v in chain.vars:
            if v not in columns:
                columns.append(v)

    finished: list[Traverser] = []
    work = [t]
    while work:
        tr = work.pop()
        runnable = next(
            (
                i
                for i, chain in enumerate(chains)
                if markers[i] not in tr.hidden_labels
                and chain.start_var in tr.labeled_path
            ),
            None,
        )
        if runnable is None:
            if len(tr.hidden_labels) == len(chains):
                finished.append(tr)
                continue
            missing = [
                chains[i].start_var
                for i in range(len(chains))
                if markers[i] not in tr.hidden_labels
            ]
            raise UnboundPatternError(
                f"pattern(s) starting at {missing} can never run: start variable unbound"
            )
        produced = _run_chain(chains[runnable], g, tr)
        marker = markers[runnable]
        work.extend(
            replace(p, hidden_labels=p.hidden_labels | {marker}) for p in produced
        )

    rows = [{v: tr.labeled_path[v] for v in columns} for tr in finished]
    return BindingSet(tuple(columns), rows)


def match_entry_var(chains: list[PatternChain]) -> str:
    """First start variable from which every pattern becomes runnable."""
    candidates = []
    for chain in chains:
        if chain.start_var not in candidates:
            candidates.append(chain.start_var)
    for candidate in candidates:
        bound = {candidate}
        done: set[int] = set()
        progressed = True
        while progressed:
            progressed = False
            for i, chain in enumerate(chains):
                if i in done or chain.start_var not in bound:
                    continue
                done.add(i)
                bound.update(chain.vars)
                progressed = True
        if len(done) == len(chains):
            return candidate
    raise UnboundPatternError(
        "no entry variable reaches every pattern; the match is disconnected"
    )


def match_all(chains: list[PatternChain], g: Graph) -> BindingSet:
    """Run match() seeded at every vertex (the g.V().match(...) shape)."""
    entry = match_entry_var(chains)
    merged: BindingSet | None = None
    for vid in g.vertex_ids():
        ref = VertexRef(vid)
        t = Traverser(location=ref, labeled_path={entry: ref})
        result = eval_match(chains, g, t)
        merged = result if merged is None else multiset_union(merged, result)
    return merged if merged is not None else BindingSet((), [])


# -- brute-force oracle -------------------------------------------------------------

MAX_ORACLE_VARS = 6


@dataclass(frozen=True)
class PatternVertex:
    """A pattern variable with optional label/property constraints."""

    var: str
    label: str | None = None
    props: tuple[tuple[str, str, PropertyValue], ...] = ()
    has_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class PatternEdge:
    src: str
    dst: str
    label: str | None = None


@dataclass(frozen=True)
class OracleGraphPattern:
    vertices: tuple[PatternVertex, ...]
    edges: tuple[PatternEdge, ...] = ()
    # value extractions: (vertex var, property key, value var)
    values: tuple[tuple[str, str, str], ...] = ()


def oracle_match(pattern: OracleGraphPattern, g: Graph) -> BindingSet:
    """Enumerate every assignment of pattern variables to graph vertices.

    An assignment survives when all vertex constraints hold; its
    multiplicity is the product over pattern edges of the number of graph
    edges realizing them (label included).  Value extractions append the
    property values of assigned vertices, dropping assignments where the
    key is absent.
    """
    if len(pattern.vertices) > MAX_ORACLE_VARS:
        raise EvaluationError(
            f"oracle pattern has {len(pattern.vertices)} variables; limit is {MAX_ORACLE_VARS}"
        )
    declared = {pv.var for pv in pattern.vertices}
    for edge in pattern.edges:
        if edge.src not in declared or edge.dst not in declared:
            raise EvaluationError(f"pattern edge {edge} references an undeclared variable")
    for vvar, _key, _tvar in pattern.values:
        if vvar not in declared:
            raise EvaluationError(f"value extraction references undeclared variable {vvar!r}")

    columns = [pv.var for pv in pattern.vertices] + [tv for _, _, tv in pattern.values]
    rows: list[Row] = []
    vertex_ids = g.vertex_ids()
    for combo in itertools.product(vertex_ids, repeat=len(pattern.vertices)):
        assignment = {pv.var: vid for pv, vid in zip(pattern.vertices, combo)}
        ok = True
        for pv, vid in zip(pattern.vertices, combo):
            if pv.label is not None and g.vertex_label(vid) != pv.label:
                ok = False
                break
            for key, cmp, const in pv.props:
                val = g.element_property(vid, key)
                if val is None or not _compare(val, cmp, const):
                    ok = False
                    break
            if not ok:
                break
            for key in pv.has_keys:
                if g.element_property(vid, key) is None:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue

        multiplicity = 1
        for edge in pattern.edges:
            src = assignment[edge.src]
            dst = assignment[edge.dst]
            count = sum(
                1 for _eid, target in g.out_adjacent(src, edge.label) if target == dst
            )
            multiplicity *= count
            if multiplicity == 0:
                break
        if multiplicity == 0:
            continue

        row: Row = {v: VertexRef(vid) for v, vid in assignment.items()}
        dead = False
        for vvar, key, tvar in pattern.values:
            val = g.element_property(assignment[vvar], key)
            if val is None:
                dead = True
                break
            row[tvar] = val
        if dead:
            continue
        rows.extend(dict(row) for _ in range(multiplicity))
    return BindingSet(tuple(columns), rows)


# -- result serialization -------------------------------------------------------------


def _encode_value(v: Value) -> object:
    if isinstance(v, VertexRef):
        return {"vertex": v.id}
    if isinstance(v, EdgeRef):
        return {"edge": v.id}
    return v


_dump = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(v: Value) -> str:
    """JSON text of one value, as json.dumps writes _encode_value(v)."""
    tp = type(v)
    if tp is VertexRef:
        return '{"vertex":' + _json_string(v.id) + "}"  # type: ignore[union-attr]
    if tp is EdgeRef:
        return '{"edge":' + _json_string(v.id) + "}"  # type: ignore[union-attr]
    if tp is str:
        return _json_string(v)
    if tp is int:
        return int.__repr__(v)
    if tp is float and math.isfinite(v):
        return float.__repr__(v)
    return _dump(v)


def _json_texts(values: list, cache: dict[int, str]) -> list[str]:
    """JSON text of each value, encoded once per distinct object; cache maps
    id(object) to its text, and stays valid while the objects are alive."""
    ids = list(map(id, values))
    for i, v in dict(zip(ids, values)).items():
        if i not in cache:
            cache[i] = _json_value(v)
    return list(map(cache.__getitem__, ids))


def to_jsonl(result: BindingSet) -> str:
    """One JSON object per row; element references as {"vertex": id} /
    {"edge": id}; schema-less rows as {"value": ...}."""
    cache: dict[int, str] = {}  # the rows keep every value alive meanwhile
    if not result.columns:
        texts = _json_texts([row.get(CUR) for row in result.rows], cache)
        return "\n".join(['{"value":' + text + "}" for text in texts])
    cols = tuple(dict.fromkeys(result.columns))
    try:
        columns = [list(map(itemgetter(c), result.rows)) for c in cols]
    except KeyError:  # some row lacks a column: each row writes the ones it has
        return "\n".join(
            _dump({c: _encode_value(row[c]) for c in cols if c in row}) for row in result.rows
        )
    parts = []
    for i, (c, values) in enumerate(zip(cols, columns)):
        parts.append(itertools.repeat(("{" if i == 0 else ",") + _json_string(c) + ":"))
        parts.append(_json_texts(values, cache))
    parts.append(itertools.repeat("}"))
    return "\n".join(map("".join, zip(*parts)))


def _format_cell(v: Value) -> str:
    if isinstance(v, (VertexRef, EdgeRef)):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def to_table(result: BindingSet) -> str:
    """Aligned text table; schema-less results print one bare value per row.
    Empty results render as the empty string."""
    if not result.rows:
        return ""
    if not result.columns:
        return "\n".join(_format_cell(row.get(CUR)) for row in result.rows)
    headers = list(result.columns)
    cells = [
        [_format_cell(row[c]) if c in row else "" for c in headers]
        for row in result.rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths).rstrip(),
    ]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
