"""Graph-algebra expression tree and its plan renderers.

Operator inventory (arity in parentheses): get-vertices/get-edges (0),
traverse, property filter, label filter, selection, projection, dedup,
restriction, sort, group, aggregate (1), join and union (2).  Expressions
are immutable value trees; structural equality is plain dataclass equality.

Three deterministic renderings are provided:

* ``paper``   - Unicode operator glyphs, e.g. ``Π_{a,c}( σ^c_{age=30} ... (V_g) )``
* ``ascii``   - one operator per line, two-space indent; injective over
  well-formed trees, suitable for golden-file tests
* ``curried`` - nested single-step application, e.g.
  ``max(values_age(out_knows(has_name=marko(V_g))))``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .property_graph import PropertyValue

OUT = "out"
IN = "in"

ASCENDING = "asc"
DESCENDING = "desc"

AlgebraExpr = Union[
    "GetVertices",
    "GetEdges",
    "Traverse",
    "PropertyFilter",
    "LabelFilter",
    "Selection",
    "Projection",
    "Dedup",
    "Restriction",
    "Sort",
    "Group",
    "Join",
    "Union",
    "Aggregate",
    "Argument",
]


@dataclass(frozen=True)
class GetVertices:
    """All vertices of the graph; optionally binds them to a variable."""

    var: str | None = None


@dataclass(frozen=True)
class GetEdges:
    """All edges of the graph; optionally binds them to a variable."""

    var: str | None = None


@dataclass(frozen=True)
class Traverse:
    """Move from a vertex to adjacent vertices along labeled edges.

    direction 'out' follows edge direction, 'in' goes against it.
    from_var names the anchor (None = current position), to_var names the
    destination; a destination variable that is already bound acts as an
    equality filter.
    """

    direction: str
    edge_label: str | None
    from_var: str | None
    to_var: str | None
    input: AlgebraExpr


@dataclass(frozen=True)
class PropertyFilter:
    """has()/values() as an operator.

    With a (comparator, value) predicate it keeps rows whose element
    satisfies it; with no predicate and bind_value=False it keeps rows
    where the key exists; with bind_value=True it extracts the property
    value, binds it to var, and moves the current position onto it.
    anchor names the element to read when it differs from the current
    position (only used in bind_value mode).
    """

    var: str | None
    key: str
    predicate: tuple[str, PropertyValue] | None
    bind_value: bool
    input: AlgebraExpr
    anchor: str | None = None


@dataclass(frozen=True)
class LabelFilter:
    """Keeps rows whose element carries the given label."""

    var: str | None
    label: str
    input: AlgebraExpr


@dataclass(frozen=True)
class Selection:
    """Existential filter: a row survives iff the predicate subtree
    (rooted at Argument) yields at least one result for it; negated flips
    the test."""

    predicate: AlgebraExpr
    input: AlgebraExpr
    negated: bool = False


@dataclass(frozen=True)
class Projection:
    """Keeps the listed columns; value_key additionally replaces each
    element by that property's value."""

    vars: tuple[str, ...]
    value_key: str | None
    input: AlgebraExpr


@dataclass(frozen=True)
class Dedup:
    """Removes duplicate rows (first occurrence kept); empty vars means
    the whole visible row."""

    vars: tuple[str, ...]
    input: AlgebraExpr


@dataclass(frozen=True)
class Restriction:
    """Skip `skip` rows, then take `take` rows, in current row order."""

    skip: int
    take: int
    input: AlgebraExpr


@dataclass(frozen=True)
class Sort:
    """Stable sort by (variable, direction) keys; a None variable sorts by
    the current position's value."""

    keys: tuple[tuple[str | None, str], ...]
    input: AlgebraExpr


@dataclass(frozen=True)
class Group:
    """Groups rows by a key column (or a property of the current element)
    into a flattened two-column (key, member) result."""

    key: str | None
    input: AlgebraExpr


@dataclass(frozen=True)
class Join:
    """Concatenative join: rows combine when their shared columns agree;
    with no shared columns this is the cartesian product."""

    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True)
class Union:
    """Multiset (bag) union of two inputs; multiplicities add."""

    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True)
class Aggregate:
    """Reduces a single-column bag of numbers to its maximum."""

    input: AlgebraExpr


@dataclass(frozen=True)
class Argument:
    """Leaf of a selection predicate: the row under test.

    With a variable the predicate re-anchors there: evaluation continues
    from the row's binding of var (binding it to the current position when
    absent), the way a pattern chain starts at its anchor.
    """

    var: str | None = None


# -- static variable analysis -------------------------------------------------


_UNARY = frozenset([
    Traverse, PropertyFilter, LabelFilter, Selection, Projection, Dedup, Restriction, Sort,
    Group, Aggregate,
])


def inputs(expr: AlgebraExpr) -> tuple[AlgebraExpr, ...]:
    """The operator's inputs: left and right for Join/Union, none for a
    leaf, else its single input.  A Selection's predicate is not an input."""
    tp = type(expr)
    if tp in _UNARY:
        return (expr.input,)  # type: ignore[union-attr]
    if tp is Join or tp is Union:
        return (expr.left, expr.right)  # type: ignore[union-attr]
    if tp is GetVertices or tp is GetEdges or tp is Argument:
        return ()
    raise TypeError(f"not an algebra expression: {expr!r}")


def _binds(expr: AlgebraExpr) -> tuple[str | None, ...]:
    """The variables the operator itself binds (None: no variable)."""
    if type(expr) is Traverse:
        return (expr.from_var, expr.to_var)  # type: ignore[union-attr]
    if type(expr) in (GetVertices, GetEdges, Argument, PropertyFilter, LabelFilter):
        return (expr.var,)  # type: ignore[union-attr]
    if type(expr) is Group:
        return ("key", "member")
    return ()


def _introduced(expr: AlgebraExpr, memo: dict[int, frozenset[str]]) -> frozenset[str]:
    """introduced_vars, computed once per node (memo is keyed by node id)."""
    found = memo.get(id(expr))
    if found is None:
        below = inputs(expr)
        if len(below) == 1:
            found = _introduced(below[0], memo)
        elif below:
            found = _introduced(below[0], memo) | _introduced(below[1], memo)
        else:
            found = frozenset()
        for v in _binds(expr):
            if v and v not in found:
                found = found | {v}
        memo[id(expr)] = found
    return found


def introduced_vars(expr: AlgebraExpr) -> set[str]:
    """Variables bound somewhere inside expr, outside selection predicates."""
    return set(_introduced(expr, {}))


def merge_columns(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Schema of a join or union: the left columns, then the right ones the
    left lacks."""
    return left + tuple(c for c in right if c not in left)


def _with_vars(columns: tuple[str, ...], *names: str | None) -> tuple[str, ...]:
    for v in names:
        if v and v not in columns:
            columns = columns + (v,)
    return columns


def output_columns(
    expr: AlgebraExpr,
    inputs: tuple[tuple[str, ...], ...],
    arg_columns: tuple[str, ...] = (),
) -> tuple[str, ...]:
    """The column rule of one operator: its visible schema, given the
    schemas of its inputs (left and right for Join/Union, else the single
    input; a Selection's predicate is not an input) and, for Argument, the
    schema of the rows under test."""
    if isinstance(expr, (GetVertices, GetEdges)):
        return (expr.var,) if expr.var else ()
    if isinstance(expr, Argument):
        return _with_vars(arg_columns, expr.var)
    if isinstance(expr, Traverse):
        return _with_vars(inputs[0], expr.from_var, expr.to_var)
    if isinstance(expr, (PropertyFilter, LabelFilter)):
        return _with_vars(inputs[0], expr.var)
    if isinstance(expr, (Selection, Dedup, Restriction, Sort)):
        return inputs[0]
    if isinstance(expr, Projection):
        return expr.vars
    if isinstance(expr, Group):
        return ("key", "member")
    if isinstance(expr, (Join, Union)):
        return merge_columns(inputs[0], inputs[1])
    if isinstance(expr, Aggregate):
        return ()
    raise TypeError(f"not an algebra expression: {expr!r}")


def static_columns(expr: AlgebraExpr) -> tuple[str, ...]:
    """Visible column schema of the binding set an expression produces.

    Inside a selection predicate, Argument leaves start from no columns:
    the schema of the rows under test is not known before evaluation."""
    schemas = tuple([static_columns(e) for e in inputs(expr)])
    return output_columns(expr, schemas)


_REFERRERS = {
    Projection: "projection", Dedup: "dedup", Sort: "sort", PropertyFilter: "property filter",
}


def _referenced(expr: AlgebraExpr) -> tuple[str, ...]:
    """The variables an operator reads that an input must bind."""
    tp = type(expr)
    if tp is Projection or tp is Dedup:
        return expr.vars  # type: ignore[union-attr]
    if tp is Sort:
        return tuple(v for v, _ in expr.keys if v is not None)  # type: ignore[union-attr]
    if tp is PropertyFilter and expr.anchor is not None:  # type: ignore[union-attr]
        return (expr.anchor,)  # type: ignore[union-attr]
    return ()


def validate(expr: AlgebraExpr) -> list[str]:
    """Static check of a plan's shape and variable scoping.

    Returns one diagnostic per variable referenced by an operator without
    being introduced beneath it (or inherited from an enclosing selection
    predicate's outer row), per get-vertices/get-edges leaf inside a
    selection predicate, per Argument leaf outside one, and per property
    filter whose comparator is not "=" (no query builds one).  An empty list
    means the plan is well-scoped and well-shaped, as the evaluator needs.
    """
    diags: list[str] = []
    memo: dict[int, frozenset[str]] = {}

    def visit(node: AlgebraExpr, scope: frozenset[str] | None) -> None:
        # scope: the variables of the rows under test; None outside every predicate
        tp = type(node)
        if scope is None and tp is Argument:
            diags.append(f"{_ascii_label(node)} outside a selection predicate")
        elif scope is not None and (tp is GetVertices or tp is GetEdges):
            diags.append(f"{_ascii_label(node)} inside a selection predicate")
        if tp is PropertyFilter and node.predicate is not None and node.predicate[0] != "=":
            diags.append(f"comparator {node.predicate[0]!r} in {_ascii_label(node)}")
        if tp is Sort and len({d for _, d in node.keys}) > 1:
            diags.append(f"mixed directions in {_ascii_label(node)}")
        refs = _referenced(node)
        if refs or tp is Selection:
            below = _introduced(node.input, memo).union(scope or ())  # type: ignore[union-attr]
            diags.extend(f"unbound {v} in {_REFERRERS[tp]}" for v in refs if v not in below)
            if tp is Selection:
                visit(node.predicate, below)  # type: ignore[union-attr]
        for e in inputs(node):
            visit(e, scope)

    visit(expr, None)
    return diags


# -- value rendering ----------------------------------------------------------


def render_value(v: PropertyValue) -> str:
    """Bare literal form used inside operator annotations: lop, 30, 0.5, true."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# -- ascii style ---------------------------------------------------------------


def _var(v: str | None) -> str:
    return v if v is not None else "_"


def _ascii_label(expr: AlgebraExpr) -> str:
    if isinstance(expr, GetVertices):
        return "V" if expr.var is None else f"V[{expr.var}]"
    if isinstance(expr, GetEdges):
        return "E" if expr.var is None else f"E[{expr.var}]"
    if isinstance(expr, Traverse):
        label = f"[{expr.edge_label}]" if expr.edge_label is not None else ""
        return f"traverse-{expr.direction}{label}({_var(expr.from_var)}->{_var(expr.to_var)})"
    if isinstance(expr, PropertyFilter):
        if expr.bind_value:
            anchor = f"{expr.anchor}." if expr.anchor is not None else ""
            return f"filter[{_var(expr.var)}=values {anchor}{expr.key}]"
        if expr.predicate is None:
            return f"filter[{_var(expr.var)}.{expr.key}]"
        cmp, val = expr.predicate
        return f"filter[{_var(expr.var)}.{expr.key}{cmp}{render_value(val)}]"
    if isinstance(expr, LabelFilter):
        return f"filter[{_var(expr.var)}.label={expr.label}]"
    if isinstance(expr, Selection):
        return "select-where[not]" if expr.negated else "select-where"
    if isinstance(expr, Projection):
        head = f"project[{','.join(expr.vars)}]"
        if expr.value_key is not None:
            head += f"/values[{expr.value_key}]"
        return head
    if isinstance(expr, Dedup):
        return f"dedup[{','.join(expr.vars)}]" if expr.vars else "dedup"
    if isinstance(expr, Restriction):
        return f"limit[skip={expr.skip},take={expr.take}]"
    if isinstance(expr, Sort):
        keys = ",".join(f"{_var(v)} {d}" for v, d in expr.keys)
        return f"order[{keys}]"
    if isinstance(expr, Group):
        return f"group[{expr.key}]" if expr.key is not None else "group"
    if isinstance(expr, Join):
        return "join"
    if isinstance(expr, Union):
        return "union"
    if isinstance(expr, Aggregate):
        return "agg[max]"
    if isinstance(expr, Argument):
        return "arg" if expr.var is None else f"arg[{expr.var}]"
    raise TypeError(f"not an algebra expression: {expr!r}")


def _children(expr: AlgebraExpr) -> tuple[AlgebraExpr, ...]:
    if isinstance(expr, Selection):
        return (expr.predicate, expr.input)
    return inputs(expr)


def _render_ascii(expr: AlgebraExpr) -> str:
    lines: list[str] = []

    def walk(node: AlgebraExpr, depth: int) -> None:
        lines.append("  " * depth + _ascii_label(node))
        for child in _children(node):
            walk(child, depth + 1)

    walk(expr, 0)
    return "\n".join(lines)


# -- paper style ---------------------------------------------------------------

_CHAIN_OPS = (Traverse, PropertyFilter, LabelFilter)


def _paper_atom(expr: AlgebraExpr) -> str:
    """One chain element (traverse or filter) as a glyph with annotations."""
    if isinstance(expr, Traverse):
        arrow = "↑" if expr.direction == OUT else "↓"
        sub = f"_{expr.from_var}" if expr.from_var else ""
        sup = f"^{expr.to_var}" if expr.to_var else ""
        label = f"[{expr.edge_label}]" if expr.edge_label is not None else ""
        return f"{arrow}{sub}{sup}{label}"
    if isinstance(expr, PropertyFilter):
        sup = f"^{expr.var}" if expr.var else ""
        if expr.predicate is None:
            return f"σ{sup}_{{{expr.key}}}"
        cmp, val = expr.predicate
        return f"σ{sup}_{{{expr.key}{cmp}{render_value(val)}}}"
    if isinstance(expr, LabelFilter):
        sup = f"^{expr.var}" if expr.var else ""
        return f"σ{sup}_{{label={expr.label}}}"
    raise TypeError(f"not a chain operator: {expr!r}")


def _render_paper(expr: AlgebraExpr) -> str:
    def wrap(head: str, inner: str) -> str:
        if " " in inner:
            return f"{head}( {inner} )"
        return f"{head}({inner})"

    def walk(node: AlgebraExpr) -> str:
        if isinstance(node, GetVertices):
            return "V_g"
        if isinstance(node, GetEdges):
            return "E_g"
        if isinstance(node, Argument):
            return "•" if node.var is None else f"•_{node.var}"
        if isinstance(node, _CHAIN_OPS):
            atoms = []
            cur: AlgebraExpr = node
            while isinstance(cur, _CHAIN_OPS):
                atoms.append(_paper_atom(cur))
                cur = cur.input
            source = f"({walk(cur)})"
            return " ".join(atoms[:-1] + [atoms[-1] + source])
        if isinstance(node, Selection):
            head = "¬∃" if node.negated else "∃"
            return wrap(f"{head}{{{walk(node.predicate)}}}", walk(node.input))
        if isinstance(node, Projection):
            return wrap(f"Π_{{{','.join(node.vars)}}}", walk(node.input))
        if isinstance(node, Dedup):
            head = f"δ_{{{','.join(node.vars)}}}" if node.vars else "δ"
            return wrap(head, walk(node.input))
        if isinstance(node, Restriction):
            return wrap(f"λ_{{{node.skip}}}^{{{node.take}}}", walk(node.input))
        if isinstance(node, Sort):
            keys = ",".join(("⇑" if d == ASCENDING else "⇓") + (v or "") for v, d in node.keys)
            return wrap(f"ℜ_{{{keys}}}", walk(node.input))
        if isinstance(node, Group):
            head = f"†_{{{node.key}}}" if node.key is not None else "†"
            return wrap(head, walk(node.input))
        if isinstance(node, Join):
            return f"{walk(node.left)} ⋈∘ {walk(node.right)}"
        if isinstance(node, Union):
            return f"{walk(node.left)} ⊎ {walk(node.right)}"
        if isinstance(node, Aggregate):
            return wrap("max", walk(node.input))
        raise TypeError(f"not an algebra expression: {node!r}")

    return walk(expr)


# -- curried style ---------------------------------------------------------------


def _render_curried(expr: AlgebraExpr) -> str:
    def walk(node: AlgebraExpr) -> str:
        if isinstance(node, GetVertices):
            return "V_g"
        if isinstance(node, GetEdges):
            return "E_g"
        if isinstance(node, Argument):
            return "__" if node.var is None else f"__[{node.var}]"
        if isinstance(node, Traverse):
            label = f"_{node.edge_label}" if node.edge_label is not None else ""
            return f"{node.direction}{label}({walk(node.input)})"
        if isinstance(node, PropertyFilter):
            if node.bind_value:
                return f"values_{node.key}({walk(node.input)})"
            if node.predicate is None:
                return f"has_{node.key}({walk(node.input)})"
            cmp, val = node.predicate
            return f"has_{node.key}{cmp}{render_value(val)}({walk(node.input)})"
        if isinstance(node, LabelFilter):
            return f"hasLabel_{node.label}({walk(node.input)})"
        if isinstance(node, Selection):
            head = "not" if node.negated else "where"
            return f"{head}({walk(node.predicate)},{walk(node.input)})"
        if isinstance(node, Projection):
            inner = f"select_{','.join(node.vars)}({walk(node.input)})"
            if node.value_key is not None:
                return f"by_{node.value_key}({inner})"
            return inner
        if isinstance(node, Dedup):
            head = f"dedup_{','.join(node.vars)}" if node.vars else "dedup"
            return f"{head}({walk(node.input)})"
        if isinstance(node, Restriction):
            return f"limit_{node.skip},{node.take}({walk(node.input)})"
        if isinstance(node, Sort):
            keys = ",".join(f"{v}:{d}" if v is not None else d for v, d in node.keys)
            return f"order_{keys}({walk(node.input)})"
        if isinstance(node, Group):
            head = f"group_{node.key}" if node.key is not None else "group"
            return f"{head}({walk(node.input)})"
        if isinstance(node, Join):
            return f"join({walk(node.left)},{walk(node.right)})"
        if isinstance(node, Union):
            return f"union({walk(node.left)},{walk(node.right)})"
        if isinstance(node, Aggregate):
            return f"max({walk(node.input)})"
        raise TypeError(f"not an algebra expression: {node!r}")

    return walk(expr)


PLAN_STYLES = ("paper", "ascii", "curried")


def render_plan(expr: AlgebraExpr, style: str = "ascii") -> str:
    """Render a plan in one of the three notations (no trailing newline)."""
    if style == "ascii":
        return _render_ascii(expr)
    if style == "paper":
        return _render_paper(expr)
    if style == "curried":
        return _render_curried(expr)
    raise ValueError(f"unknown plan style {style!r}; expected one of {PLAN_STYLES}")
