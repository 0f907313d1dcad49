"""Graph-algebra expression tree, its operator table and plan renderers.

Operator inventory (arity in parentheses): get-vertices/get-edges (0),
traverse, property filter, label filter, selection, projection, dedup,
restriction, sort, group, aggregate (1), join and union (2), and the
argument leaf of a selection predicate (0).  Expressions are immutable
value trees; structural equality is plain dataclass equality.

Everything the algebra knows of an operator class is its row in
OPERATORS: the fields holding its inputs and predicates, the variables it
binds and reads, its column rule, the field as() fills, whether it may
stand inside a selection predicate, and its three renderings.  inputs,
static_columns, validate and render_plan are walks over that table, each
one stack frame per plan level.  One column rule, output_columns, gives
every schema: a plan's, the columns an operator may read (validate) and
each relation's in the evaluator, which keeps its own table of physical
operators.

Three deterministic renderings are provided:

* ``paper``   - Unicode operator glyphs, e.g. ``Π_{a,c}( σ^c_{age=30} ... (V_g) )``
* ``ascii``   - one operator per line, two-space indent; injective over
  well-formed trees, suitable for golden-file tests
* ``curried`` - nested single-step application, e.g.
  ``max(values_age(out_knows(has_name=marko(V_g))))``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Union

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

    With a value it keeps rows whose element's key property equals it;
    with no value and bind_value=False it keeps rows where the key exists.
    Its element, var's binding (else the position, bound to var), becomes
    the position.  With bind_value=True (and no value) it reads anchor's
    element alike, moves the position onto its key property and binds that
    to var as a traverse binds to_var; validate admits an anchor only there.
    """

    var: str | None
    key: str
    value: PropertyValue | None
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
    """Stable sort by the listed columns, all in one direction; empty vars
    sorts by the current position's value."""

    vars: tuple[str, ...]
    direction: str
    input: AlgebraExpr


@dataclass(frozen=True)
class Group:
    """Groups rows by their position's key property (no key: by the member,
    the row's position) into flattened two-column (key, member) rows."""

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


# -- the operator table --------------------------------------------------------


def _nothing(expr: Any) -> tuple[str, ...]:
    return ()


def _its_var(expr: Any) -> tuple[str | None]:
    return (expr.var,)


class Operator(NamedTuple):
    """One operator class's row.  Each function takes the operator; a
    rendering also takes the texts of its subtrees, predicates first."""

    inputs: tuple[str, ...]  # the fields holding its inputs, in order
    ascii: Callable[[Any], str]  # its line in an ascii plan
    paper: Callable[[Any, list[str]], str]
    curried: Callable[[Any, list[str]], str]
    binds: Callable[[Any], tuple[str | None, ...]] = _nothing  # None binds nothing
    named: str | None = None  # the field as() fills
    reads: Callable[[Any], tuple[str, ...]] = _nothing  # variables an input must bind
    noun: str = ""  # names the operator in a diagnostic of what it reads
    schema: Callable[[Any], tuple[str, ...]] | None = None  # columns replacing its inputs'
    predicates: tuple[str, ...] = ()  # the fields holding selection predicates
    chained: bool = False  # paper: a glyph written before the chain below it
    inside: bool | None = None  # a leaf only inside (True) or outside (False) a predicate


def _var(v: str | None) -> str:
    return v if v is not None else "_"


def _sup(v: str | None) -> str:
    return f"^{v}" if v else ""


def _label(label: str | None) -> str:
    return f"[{label}]" if label is not None else ""


def _equals(value: PropertyValue | None) -> str:
    """A filter's "=value" annotation, the value bare: =lop, =30, =0.5, =true."""
    if value is None:
        return ""
    return "=" + (str(value).lower() if isinstance(value, bool) else str(value))


def _wrap(head: str, inner: str) -> str:
    """A paper operator applied to its input."""
    return f"{head}( {inner} )" if " " in inner else f"{head}({inner})"


def _chain(atom: str, e: Any, t: list[str]) -> str:
    """The paper text of a traverse or filter: its glyph, then the chain of
    glyphs below it, or its input in parentheses."""
    return f"{atom} {t[0]}" if OPERATORS[type(e.input)].chained else f"{atom}({t[0]})"


def _property_label(e: PropertyFilter) -> str:
    if e.bind_value:
        anchor = f"{e.anchor}." if e.anchor is not None else ""
        return f"filter[{_var(e.var)}=values {anchor}{e.key}]"
    return f"filter[{_var(e.var)}.{e.key}{_equals(e.value)}]"


OPERATORS: dict[type, Operator] = {
    GetVertices: Operator(
        (), lambda e: "V" if e.var is None else f"V[{e.var}]",
        lambda e, t: "V_g", lambda e, t: "V_g",
        binds=_its_var, named="var", inside=False,
    ),
    GetEdges: Operator(
        (), lambda e: "E" if e.var is None else f"E[{e.var}]",
        lambda e, t: "E_g", lambda e, t: "E_g",
        binds=_its_var, named="var", inside=False,
    ),
    Argument: Operator(
        (),
        lambda e: "arg" if e.var is None else f"arg[{e.var}]",
        lambda e, t: "•" if e.var is None else f"•_{e.var}",
        lambda e, t: "__" if e.var is None else f"__[{e.var}]",
        binds=_its_var, named="var", inside=True,
    ),
    Traverse: Operator(
        ("input",),
        lambda e: f"traverse-{e.direction}{_label(e.edge_label)}"
        f"({_var(e.from_var)}->{_var(e.to_var)})",
        lambda e, t: _chain(("↑" if e.direction == OUT else "↓")
                            + (f"_{e.from_var}" if e.from_var else "") + _sup(e.to_var)
                            + _label(e.edge_label), e, t),
        lambda e, t: f"{e.direction}{'' if e.edge_label is None else '_' + e.edge_label}({t[0]})",
        binds=lambda e: (e.from_var, e.to_var), named="to_var", chained=True,
    ),
    PropertyFilter: Operator(
        ("input",),
        _property_label,
        lambda e, t: _chain(f"σ{_sup(e.var)}_{{{e.key}{_equals(e.value)}}}", e, t),
        lambda e, t: (f"values_{e.key}" if e.bind_value else f"has_{e.key}{_equals(e.value)}")
        + f"({t[0]})",
        binds=lambda e: (e.anchor, e.var), named="var", chained=True,
    ),
    LabelFilter: Operator(
        ("input",),
        lambda e: f"filter[{_var(e.var)}.label={e.label}]",
        lambda e, t: _chain(f"σ{_sup(e.var)}_{{label={e.label}}}", e, t),
        lambda e, t: f"hasLabel_{e.label}({t[0]})",
        binds=_its_var, named="var", chained=True,
    ),
    Selection: Operator(
        ("input",),
        lambda e: "select-where[not]" if e.negated else "select-where",
        lambda e, t: _wrap(("¬∃" if e.negated else "∃") + f"{{{t[0]}}}", t[1]),
        lambda e, t: ("not" if e.negated else "where") + f"({t[0]},{t[1]})",
        predicates=("predicate",),
    ),
    Projection: Operator(
        ("input",),
        lambda e: f"project[{','.join(e.vars)}]"
        + ("" if e.value_key is None else f"/values[{e.value_key}]"),
        lambda e, t: _wrap(f"Π_{{{','.join(e.vars)}}}", t[0]),
        lambda e, t: f"select_{','.join(e.vars)}({t[0]})" if e.value_key is None
        else f"by_{e.value_key}(select_{','.join(e.vars)}({t[0]}))",
        reads=lambda e: e.vars, noun="projection", schema=lambda e: e.vars,
    ),
    Dedup: Operator(
        ("input",),
        lambda e: f"dedup[{','.join(e.vars)}]" if e.vars else "dedup",
        lambda e, t: _wrap(f"δ_{{{','.join(e.vars)}}}" if e.vars else "δ", t[0]),
        lambda e, t: (f"dedup_{','.join(e.vars)}" if e.vars else "dedup") + f"({t[0]})",
        reads=lambda e: e.vars, noun="dedup",
    ),
    Restriction: Operator(
        ("input",),
        lambda e: f"limit[skip={e.skip},take={e.take}]",
        lambda e, t: _wrap(f"λ_{{{e.skip}}}^{{{e.take}}}", t[0]),
        lambda e, t: f"limit_{e.skip},{e.take}({t[0]})",
    ),
    Sort: Operator(
        ("input",),
        lambda e: "order[" + ",".join(f"{v} {e.direction}" for v in e.vars or ("_",)) + "]",
        lambda e, t: _wrap("ℜ_{" + ",".join(
            ("⇑" if e.direction == ASCENDING else "⇓") + v for v in e.vars or ("",)) + "}", t[0]),
        lambda e, t: "order_" + (",".join(f"{v}:{e.direction}" for v in e.vars) or e.direction)
        + f"({t[0]})",
        reads=lambda e: e.vars, noun="sort",
    ),
    Group: Operator(
        ("input",),
        lambda e: "group" if e.key is None else f"group[{e.key}]",
        lambda e, t: _wrap("†" if e.key is None else f"†_{{{e.key}}}", t[0]),
        lambda e, t: ("group" if e.key is None else f"group_{e.key}") + f"({t[0]})",
        binds=lambda e: ("key", "member"), schema=_nothing,
    ),
    Join: Operator(
        ("left", "right"),
        lambda e: "join", lambda e, t: f"{t[0]} ⋈∘ {t[1]}", lambda e, t: f"join({t[0]},{t[1]})",
    ),
    Union: Operator(
        ("left", "right"),
        lambda e: "union", lambda e, t: f"{t[0]} ⊎ {t[1]}", lambda e, t: f"union({t[0]},{t[1]})",
    ),
    Aggregate: Operator(
        ("input",),
        lambda e: "agg[max]", lambda e, t: _wrap("max", t[0]), lambda e, t: f"max({t[0]})",
        schema=_nothing,
    ),
}


# -- static analysis: walks over the table ------------------------------------------


def inputs(expr: AlgebraExpr) -> list[AlgebraExpr]:
    """The operator's inputs, in order; a Selection's predicate is not one."""
    found = []
    for field in OPERATORS[type(expr)].inputs:  # a loop: a comprehension is a call of its own
        found.append(getattr(expr, field))
    return found


def _subtrees(expr: AlgebraExpr) -> list[AlgebraExpr]:
    """The operator's predicates, then its inputs."""
    op = OPERATORS[type(expr)]
    return [getattr(expr, f) for f in op.predicates + op.inputs]


def merge_columns(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Schema of a join or union: the left columns, then the right ones the
    left lacks."""
    return left + tuple(c for c in right if c not in left)


def output_columns(
    expr: AlgebraExpr,
    inputs: tuple[tuple[str, ...], ...],
    arg_columns: tuple[str, ...] = (),
) -> tuple[str, ...]:
    """The column rule of one operator: its visible schema, given the
    schemas of its inputs and, for Argument, of the rows under test.  It
    is the operator's own schema if it has one, else its inputs' merged
    schemas (a leaf: arg_columns), then each variable it binds that is
    not a column yet."""
    op = OPERATORS[type(expr)]
    if op.schema is not None:
        columns = op.schema(expr)
    elif len(inputs) == 1:
        columns = inputs[0]
    else:
        columns = merge_columns(*inputs) if inputs else arg_columns
    for v in op.binds(expr):
        if v and v not in columns:
            columns = columns + (v,)
    return columns


def _schema(
    expr: AlgebraExpr, memo: dict[int, tuple[str, ...]], arg_columns: tuple[str, ...] = ()
) -> tuple[str, ...]:
    """output_columns over a whole plan, once per node (memo is keyed by
    node id); an Argument leaf takes arg_columns, the columns of the rows
    under test."""
    found = memo.get(id(expr))
    if found is None:
        schemas = []
        for e in inputs(expr):  # a loop: a comprehension would add a frame per level
            schemas.append(_schema(e, memo, arg_columns))
        found = memo[id(expr)] = output_columns(expr, tuple(schemas), arg_columns)
    return found


def static_columns(expr: AlgebraExpr, arg_columns: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Visible column schema of the binding set an expression produces.

    Inside a selection predicate, Argument leaves start from arg_columns,
    the columns of the rows under test (by default none)."""
    return _schema(expr, {}, arg_columns)


def validate(expr: AlgebraExpr) -> list[str]:
    """Static check of a plan's shape and variable scoping.

    Returns one diagnostic per variable an operator reads that is not a
    column of its input (inside a selection predicate, an Argument leaf
    carries the columns of the rows under test), per get-vertices/get-edges
    leaf inside a selection predicate, per Argument leaf outside one, per
    property filter that extracts a value and also holds one to test, and
    per property filter that holds an anchor but extracts no value.
    An empty list means the plan is well-scoped and well-shaped, as the
    evaluator needs.
    """
    diags: list[str] = []

    def visit(node: AlgebraExpr, scope: tuple[str, ...] | None, memo: dict) -> None:
        # scope: the columns of the rows under test; None outside every predicate
        op = OPERATORS[type(node)]
        if op.inside is not None and op.inside == (scope is None):
            where = "outside" if op.inside else "inside"
            diags.append(f"{op.ascii(node)} {where} a selection predicate")
        if type(node) is PropertyFilter and node.bind_value and node.value is not None:
            diags.append(f"{op.ascii(node)} cannot also test {node.key}{_equals(node.value)}")
        if type(node) is PropertyFilter and not node.bind_value and node.anchor is not None:
            diags.append(f"{op.ascii(node)} cannot read anchor {node.anchor}: it extracts no value")
        below = inputs(node)
        refs = op.reads(node)
        if refs or op.predicates:
            columns: tuple[str, ...] = ()
            for e in below:
                columns = merge_columns(columns, _schema(e, memo, scope or ()))
            diags.extend(f"unbound {v} in {op.noun}" for v in refs if v not in columns)
            for field in op.predicates:
                visit(getattr(node, field), columns, {})
        for e in below:
            visit(e, scope, memo)

    visit(expr, None, {})
    return diags


# -- rendering ------------------------------------------------------------------------


def _render_ascii(expr: AlgebraExpr) -> str:
    lines: list[str] = []

    def walk(node: AlgebraExpr, depth: int) -> None:
        lines.append("  " * depth + OPERATORS[type(node)].ascii(node))
        for child in _subtrees(node):
            walk(child, depth + 1)

    walk(expr, 0)
    return "\n".join(lines)


def _render(expr: AlgebraExpr, style: str) -> str:
    """The paper or curried text of expr, from those of its subtrees."""
    texts = []
    for child in _subtrees(expr):  # a loop: a comprehension would add a frame per level
        texts.append(_render(child, style))
    return getattr(OPERATORS[type(expr)], style)(expr, texts)


PLAN_STYLES = ("paper", "ascii", "curried")


def render_plan(expr: AlgebraExpr, style: str = "ascii") -> str:
    """Render a plan in one of the three notations (no trailing newline)."""
    if style not in PLAN_STYLES:
        raise ValueError(f"unknown plan style {style!r}; expected one of {PLAN_STYLES}")
    return _render_ascii(expr) if style == "ascii" else _render(expr, style)
