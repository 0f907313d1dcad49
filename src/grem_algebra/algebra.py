"""Graph-algebra expression tree, its operator table and plan renderers.

Operator inventory (arity in parentheses): get-vertices/get-edges (0),
traverse, property filter, label filter, selection, projection, dedup,
restriction, sort, group, aggregate (1), join and union (2), and the
argument leaf of a selection predicate (0).  Expressions are immutable
value trees; structural equality is plain dataclass equality.

Everything the algebra knows of an operator class is its row in
OPERATORS: the fields holding its inputs and predicate, the variables it
binds and reads, its column rule, whether it may stand inside a selection
predicate, and its three renderings; as() fills its field var.  program
flattens a plan into a post-order list, one entry per operator object
(a union's shared input once) with its output columns and its inputs'
entry indexes; validate, static_columns, the paper and curried renderers
and the evaluator each loop over it, and only a selection predicate, a
program of its own, takes a frame per nesting level.  program holds the
one column rule, which gives every schema: a plan's, the columns an
operator may read (validate) and each relation's in the evaluator, which
keeps its own table of physical operators.

Three deterministic renderings are provided; only ascii is injective (the
source paper's notation writes has('age') and values('age') both ``σ_{age}(V_g)``):

* ``paper``   - Unicode operator glyphs, e.g. ``Π_{a,c}( σ^c_{age=30} ... (V_g) )``
* ``ascii``   - one operator per line, two-space indent; injective over
  well-formed trees, suitable for golden-file tests
* ``curried`` - nested single-step application, e.g.
  ``max(values_age(out_knows(has_name=marko(V_g))))``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Union

from .errors import CompileError
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
    anchor names the vertex it reads (None = current position), var the
    destination; a destination variable that is already bound acts as an
    equality filter.
    """

    direction: str
    edge_label: str | None
    anchor: str | None
    var: str | None
    input: AlgebraExpr


@dataclass(frozen=True)
class PropertyFilter:
    """has()/values() as an operator.

    It reads an element as a traverse does: anchor's binding (None = the
    current position, and an absent anchor is bound to it), which becomes
    the position.  With a value it keeps rows whose element's key property
    equals it; with no value and bind_value=False it keeps rows where the
    key exists; with bind_value=True (and no value) it moves the position
    onto the element's key property, dropping rows without it.  var names
    its output, the position, as a traverse's var does: a var that is
    already bound acts as an equality filter.
    """

    var: str | None
    key: str
    value: PropertyValue | None
    bind_value: bool
    input: AlgebraExpr
    anchor: str | None = None


@dataclass(frozen=True)
class LabelFilter:
    """Keeps rows whose element carries the given label; it reads anchor's
    element and binds var as a PropertyFilter does."""

    var: str | None
    label: str
    input: AlgebraExpr
    anchor: str | None = None


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


def _anchor_and_var(expr: Any) -> tuple[str | None, str | None]:
    return (expr.anchor, expr.var)


class Operator(NamedTuple):
    """One operator class's row.  Each function takes the operator; a
    rendering also takes the texts of its subtrees, its predicate first."""

    inputs: tuple[str, ...]  # the fields holding its inputs, in order
    ascii: Callable[[Any], str]  # its line in an ascii plan
    paper: Callable[[Any, list[str]], str]
    curried: Callable[[Any, list[str]], str]
    binds: Callable[[Any], tuple[str | None, ...]] = _nothing  # None binds nothing
    reads: Callable[[Any], tuple[str, ...]] | None = None  # variables its one input must bind
    noun: str = ""  # names the operator in a diagnostic of what it reads
    schema: Callable[[Any], tuple[str, ...]] | None = None  # columns replacing its inputs'
    predicate: str | None = None  # the field holding a selection predicate over its one input
    chained: bool = False  # paper: a glyph written before the chain below it
    inside: bool | None = None  # a leaf only inside (True) or outside (False) a predicate


def _var(v: str | None) -> str:
    return v if v is not None else "_"


def _sup(v: str | None) -> str:
    return f"^{v}" if v else ""


def _label(label: str | None) -> str:
    return f"[{label}]" if label is not None else ""


def _written(text: str, *reserved: str) -> str:
    """A key or string value as a plan writes it: bare, or quoted (repr)
    where bare it would read as something else: a reserved word, a number,
    a quoted text, or text holding "=", "." or "]"."""
    try:
        float(text)
    except ValueError:
        if text not in reserved and not text.startswith(("'", '"')) and not set("=.]") & set(text):
            return text
    return repr(text)


def _equals(value: PropertyValue | None) -> str:
    """A filter's "=value" annotation: =lop, =30, =0.5, =true, and ='29' or
    ='true' for a string that would read as another value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "=" + str(value).lower()
    return "=" + (_written(value, "true", "false") if isinstance(value, str) else str(value))


def _wrap(head: str, inner: str) -> str:
    """A paper operator applied to its input."""
    return f"{head}( {inner} )" if " " in inner else f"{head}({inner})"


def _chain(atom: str, e: Any, t: list[str]) -> str:
    """The paper text of a traverse or filter: its glyph, then the chain of
    glyphs below it, or its input in parentheses."""
    return f"{atom} {t[0]}" if OPERATORS[type(e.input)].chained else f"{atom}({t[0]})"


def _filter_label(e: PropertyFilter | LabelFilter) -> str:
    """A filter's ascii line: the element it reads, its test and, when set,
    the variable it binds; an extraction names its output first.  A key
    that would read as something else, such as a has() key "label", is
    quoted."""
    if type(e) is PropertyFilter and e.bind_value:
        anchor = f"{e.anchor}." if e.anchor is not None else ""
        return f"filter[{_var(e.var)}=values {anchor}{_written(e.key)}]"
    test = (f"label={e.label}" if type(e) is LabelFilter
            else _written(e.key, "label") + _equals(e.value))
    return f"filter[{_var(e.anchor)}.{test}]" + ("" if e.var is None else f"->{e.var}")


OPERATORS: dict[type, Operator] = {
    GetVertices: Operator(
        (), lambda e: "V" if e.var is None else f"V[{e.var}]",
        lambda e, t: "V_g", lambda e, t: "V_g",
        binds=_its_var, inside=False,
    ),
    GetEdges: Operator(
        (), lambda e: "E" if e.var is None else f"E[{e.var}]",
        lambda e, t: "E_g", lambda e, t: "E_g",
        binds=_its_var, inside=False,
    ),
    Argument: Operator(
        (),
        lambda e: "arg" if e.var is None else f"arg[{e.var}]",
        lambda e, t: "•" if e.var is None else f"•_{e.var}",
        lambda e, t: "__" if e.var is None else f"__[{e.var}]",
        binds=_its_var, inside=True,
    ),
    Traverse: Operator(
        ("input",),
        lambda e: f"traverse-{e.direction}{_label(e.edge_label)}"
        f"({_var(e.anchor)}->{_var(e.var)})",
        lambda e, t: _chain(("↑" if e.direction == OUT else "↓")
                            + (f"_{e.anchor}" if e.anchor else "") + _sup(e.var)
                            + _label(e.edge_label), e, t),
        lambda e, t: f"{e.direction}{'' if e.edge_label is None else '_' + e.edge_label}({t[0]})",
        binds=_anchor_and_var, chained=True,
    ),
    PropertyFilter: Operator(
        ("input",),
        _filter_label,
        lambda e, t: _chain(f"σ{_sup(e.var or e.anchor)}_{{{e.key}{_equals(e.value)}}}", e, t),
        lambda e, t: (f"values_{_written(e.key)}" if e.bind_value
                      else f"has_{_written(e.key, 'label')}{_equals(e.value)}")
        + f"({t[0]})",
        binds=_anchor_and_var, chained=True,
    ),
    LabelFilter: Operator(
        ("input",),
        _filter_label,
        lambda e, t: _chain(f"σ{_sup(e.var or e.anchor)}_{{label={e.label}}}", e, t),
        lambda e, t: f"hasLabel_{e.label}({t[0]})",
        binds=_anchor_and_var, chained=True,
    ),
    Selection: Operator(
        ("input",),
        lambda e: "select-where[not]" if e.negated else "select-where",
        lambda e, t: _wrap(("¬∃" if e.negated else "∃") + f"{{{t[0]}}}", t[1]),
        lambda e, t: ("not" if e.negated else "where") + f"({t[0]},{t[1]})",
        predicate="predicate",
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


# -- the plan program: one walk over the table ----------------------------------------


def program(
    expr: AlgebraExpr, scope: tuple[str, ...] | None = None, diags: list[str] | None = None
) -> list[tuple]:
    """The plan as a post-order program: per operator object, however
    many read it, one entry (the operator, its output columns, its
    predicate's program or None, its inputs' entry indexes), its inputs
    listed before it, first to last.  A Selection's predicate is a
    program of its own, its scope the Selection's input columns.  scope is
    the columns of the rows under test inside a predicate, where Argument
    leaves start from them; None outside every predicate.  diags, given a
    list, receives validate's diagnostics in program order.

    This is the one column rule: an operator's output columns are its own
    schema if it has one, else its input's (a join or union: the left
    columns, then the right ones the left lacks; a leaf: scope's), then
    each variable it binds that is not a column yet."""
    steps: list[tuple] = []
    slots: dict[int, int] = {}  # id of each listed operator -> its entry's index
    todo = [expr]
    while todo:
        node = todo.pop()
        op = OPERATORS[type(node)]
        at = ()
        for field in op.inputs:
            slot = slots.get(id(getattr(node, field)))
            if slot is None:  # list its inputs first, then come back to it
                todo.append(node)
                for f in reversed(op.inputs):
                    todo.append(getattr(node, f))
                break
            at += (slot,)
        if len(at) < len(op.inputs) or id(node) in slots:
            continue
        below = steps[at[0]][1] if at else scope or ()  # its (first) input's columns
        if diags is not None:
            if op.inside == (scope is None):  # never when inside is None
                where = "outside" if op.inside else "inside"
                diags.append(f"{op.ascii(node)} {where} a selection predicate")
            if type(node) is PropertyFilter and node.bind_value and node.value is not None:
                diags.append(f"{op.ascii(node)} cannot also test {node.key}{_equals(node.value)}")
            if op.reads is not None:
                for v in op.reads(node):
                    if v not in below:
                        diags.append(f"unbound {v} in {op.noun}")
        sub = None if op.predicate is None else program(getattr(node, op.predicate), below, diags)
        columns = below if op.schema is None else op.schema(node)
        if len(at) == 2:
            for c in steps[at[1]][1]:
                if c not in below:
                    columns += (c,)
        for v in op.binds(node):
            if v and v not in columns:
                columns += (v,)
        slots[id(node)] = len(steps)
        steps.append((node, columns, sub, at))
    return steps


def static_columns(expr: AlgebraExpr, arg_columns: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Visible column schema of the binding set an expression produces.

    Inside a selection predicate, Argument leaves start from arg_columns,
    the columns of the rows under test (by default none)."""
    return program(expr, arg_columns)[-1][1]


def validate(expr: AlgebraExpr) -> list[str]:
    """Static check of a plan's shape and variable scoping.

    Returns one diagnostic per variable an operator reads that is not a
    column of its input (inside a selection predicate, an Argument leaf
    carries the columns of the rows under test), per get-vertices/get-edges
    leaf inside a selection predicate, per Argument leaf outside one and
    per property filter that extracts a value and also holds one to test.
    An empty list means the plan is well-scoped and well-shaped, as the
    evaluator needs.

    They come in program order: an operator's inputs' first, the first
    input's before the second's, then its own; a predicate's at its
    Selection, after its input's; a shared operator's once (Union(x, x)).
    """
    diags: list[str] = []
    program(expr, None, diags)
    return diags


# -- rendering ------------------------------------------------------------------------


def _render_ascii(expr: AlgebraExpr) -> str:
    """One line per operator in pre-order, indented by its depth: its
    predicate, then its inputs, each below it."""
    lines: list[str] = []
    todo = [(expr, 0)]
    while todo:
        node, depth = todo.pop()
        op = OPERATORS[type(node)]
        lines.append("  " * depth + op.ascii(node))
        fields = op.inputs if op.predicate is None else (op.predicate,) + op.inputs
        for field in reversed(fields):
            todo.append((getattr(node, field), depth + 1))
    return "\n".join(lines)


def _fold(steps: list[tuple], write: Callable[[Any, list], Any]) -> Any:
    """The root's value of write(operator, its predicate's and inputs'
    values) over a program: its paper or curried text, or its operator count."""
    values: list = []
    for node, _, sub, at in steps:
        below = [values[i] for i in at]
        if sub is not None:
            below.insert(0, _fold(sub, write))
        values.append(write(node, below))
    return values[-1]


PLAN_STYLES = ("paper", "ascii", "curried")
MAX_PLAN_OPERATORS = 10_000  # the most operators render_plan writes


def render_plan(expr: AlgebraExpr, style: str = "ascii") -> str:
    """Render a plan in one of the three notations (no trailing newline);
    one writing over MAX_PLAN_OPERATORS operators raises CompileError."""
    if style not in PLAN_STYLES:
        raise ValueError(f"unknown plan style {style!r}; expected one of {PLAN_STYLES}")
    steps = program(expr)
    if _fold(steps, lambda node, counts: 1 + sum(counts)) > MAX_PLAN_OPERATORS:
        raise CompileError(f"plan text would write more than {MAX_PLAN_OPERATORS} operators")
    if style == "ascii":
        return _render_ascii(expr)
    return _fold(steps, lambda node, texts: getattr(OPERATORS[type(node)], style)(node, texts))
