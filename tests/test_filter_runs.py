"""Runs of pure filters: the compiled plan against the unrewritten one.

A run is a stack of has()/hasLabel() filters that read no anchor, bind no
variable and extract nothing.  The compiler drops a filter whose test the
run already makes.  Here every generated run is placed in a query and
compiled, and the same filters are stacked by hand, in source order and
none dropped, with the algebra's constructors: the plan the rule would
have built without it.  Both must give equal binding sets
(columns, rows, row order and the position "@") or raise the same error.

The runs draw look-alike values (1, true, 1.0, '1', 29, 29.0, '29') that
``==`` or ``values_equal`` confuse, and the graphs include ones that hold
each of them, so a rule that took has('age',1) and has('age',true) for
one test would answer differently.
"""

from __future__ import annotations

import json
import random

import pytest

from grem_algebra import (
    GremAlgebraError,
    compile_traversal,
    evaluate,
    load_graph,
    modern_graph,
    parse_traversal,
)
from grem_algebra.algebra import (
    ASCENDING,
    IN,
    OUT,
    Aggregate,
    Argument,
    Dedup,
    GetEdges,
    GetVertices,
    Group,
    LabelFilter,
    Projection,
    PropertyFilter,
    Selection,
    Sort,
    Traverse,
    Union,
    render_plan,
    static_columns,
    validate,
)

from corpus import random_graph

LOOKALIKES = [1, True, 1.0, "1", 29, 29.0, "29"]
LABELS = ["person", "software", "knows"]


def _lookalike_graph(seed: int):
    """A small random graph whose ages (on vertices and edges) and names are
    look-alike values, so that tests on them that ``==`` confuses keep
    different rows."""
    rng = random.Random(seed)
    nv = rng.randint(3, 8)
    vertices = []
    for i in range(nv):
        props = {}
        if rng.random() < 0.8:
            props["age"] = rng.choice(LOOKALIKES)
        if rng.random() < 0.5:
            props["name"] = rng.choice(["1", "29", "marko"])
        label = rng.choice(["person", "software"])
        vertices.append({"id": f"v{i}", "label": label, "properties": props})
    edges = []
    for j in range(rng.randint(0, 12)):
        props = {"age": rng.choice(LOOKALIKES)} if rng.random() < 0.6 else {}
        edges.append({
            "id": f"e{j}", "label": rng.choice(["knows", "created"]),
            "outV": f"v{rng.randrange(nv)}", "inV": f"v{rng.randrange(nv)}", "properties": props,
        })
    return load_graph(json.dumps({"vertices": vertices, "edges": edges}))


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


# A test: ("hasLabel", label), ("has", key) or ("has", key, value).
def _text(run) -> str:
    return "".join(
        f".hasLabel('{t[1]}')" if t[0] == "hasLabel"
        else f".has('{t[1]}')" if len(t) == 2
        else f".has('{t[1]}',{_literal(t[2])})"
        for t in run
    )


def _stacked(run, expr, anchor=None, var=None):
    """The run's filters on top of expr in source order, none dropped or
    moved: the first reads anchor, the last binds var."""
    last = len(run) - 1
    for i, t in enumerate(run):
        a, v = (anchor if i == 0 else None), (var if i == last else None)
        if t[0] == "hasLabel":
            expr = LabelFilter(v, t[1], expr, a)
        else:
            expr = PropertyFilter(v, t[1], t[2] if len(t) == 3 else None, False, expr, a)
    return expr


def _out(expr, anchor=None, var=None):
    return Traverse(OUT, None, anchor, var, expr)


def _max(expr):
    return Aggregate(PropertyFilter(None, "age", None, True, expr))


V, E, VX = GetVertices(), GetEdges(), GetVertices("x")

# (query with {run} where the run goes, the unrewritten plan of a run)
CONTEXTS = [
    ("g.V(){run}", lambda r: _stacked(r, V)),
    ("g.E(){run}", lambda r: _stacked(r, E)),
    ("g.E(){run}.out()", lambda r: _out(_stacked(r, E))),
    ("g.V().out(){run}", lambda r: _stacked(r, _out(V))),
    ("g.V().values('age'){run}", lambda r: _stacked(r, PropertyFilter(None, "age", None, True, V))),
    ("g.V(){run}.values('age').max()", lambda r: _max(_stacked(r, V))),
    ("g.V().where(__{run})", lambda r: Selection(_stacked(r, Argument()), V)),
    ("g.V().out().not(__{run})", lambda r: Selection(_stacked(r, Argument()), _out(V), negated=True)),
    (
        "g.V().where(__.out(){run}.in())",
        lambda r: Selection(Traverse(IN, None, None, None, _stacked(r, _out(Argument()))), V),
    ),
    (
        "g.V().as('x').not(__.in(){run}.as('x'))",
        lambda r: Selection(_stacked(r, Traverse(IN, None, None, None, Argument()), var="x"), VX, negated=True),
    ),
    (
        "g.V().match(__.as('a').out(){run}.as('b')).select('a','b')",
        lambda r: Projection(("a", "b"), None, _stacked(r, _out(V, "a"), var="b")),
    ),
    (
        "g.V().match(__.as('a'){run}, __.as('a').out().as('b'))",
        lambda r: _out(_stacked(r, V, anchor="a"), "a", "b"),
    ),
    (
        "g.V(){run}.as('x').out().as('y').select('x','y')",
        lambda r: Projection(("x", "y"), None, _out(_stacked(r, V, var="x"), var="y")),
    ),
    (
        "g.V(){run}.as('x'){run}.as('y').select('x','y')",
        lambda r: Projection(("x", "y"), None, _stacked(r, _stacked(r, V, var="x"), var="y")),
    ),
    ("g.V().as('x').out(){run}.as('x')", lambda r: _stacked(r, _out(VX), var="x")),
    ("g.V().out(){run}.dedup()", lambda r: Dedup((), _stacked(r, _out(V)))),
    (
        "g.V().as('x').out(){run}.as('y').dedup('x')",
        lambda r: Dedup(("x",), _stacked(r, _out(VX), var="y")),
    ),
    ("g.V().in(){run}.order()", lambda r: Sort((), ASCENDING, _stacked(r, Traverse(IN, None, None, None, V)))),
    (
        "g.V().as('x').out(){run}.order()",
        lambda r: Sort(("x",), ASCENDING, _stacked(r, _out(VX))),
    ),
    ("g.V().out(){run}.group()", lambda r: Group(None, _stacked(r, _out(V)))),
    ("g.V(){run}.group().by('age')", lambda r: Group("age", _stacked(r, V))),
    (
        "g.V(){run}.union(__{run}, __.out())",
        lambda r: Union(_stacked(r, _stacked(r, V)), _out(_stacked(r, V))),
    ),
]


# Runs the random ones may miss: each pair of look-alikes, a label test
# beside a has('label', ...), and a repeat behind other tests.
FIXED_RUNS = [
    [("has", "age", 1), ("has", "age", True)],
    [("has", "age", True), ("has", "age", 1)],
    [("has", "age", 1), ("has", "age", 1.0), ("has", "age", "1")],
    [("has", "age", 29), ("has", "age", "29"), ("has", "age", 29.0)],
    [("hasLabel", "person"), ("has", "label", "person"), ("hasLabel", "person")],
    [("has", "age"), ("hasLabel", "person"), ("has", "age"), ("has", "age", 29)],
    [("has", "name"), ("has", "age"), ("has", "name", "1"), ("has", "age", "1")],
]


def _random_run(rng: random.Random) -> list[tuple]:
    """2-7 tests drawn from a pool of three, so that repeats are common."""
    pool = []
    for _ in range(3):
        pick = rng.random()
        if pick < 0.3:
            pool.append(("hasLabel", rng.choice(LABELS)))
        elif pick < 0.5:
            pool.append(("has", rng.choice(["age", "name", "weight", "label"])))
        else:
            key = rng.choice(["age", "age", "name", "label"])
            pool.append(("has", key, rng.choice(LOOKALIKES + ["person", "marko"])))
    return [rng.choice(pool) for _ in range(rng.randint(2, 7))]


def _outcome(expr, g):
    try:
        bs = evaluate(expr, g)
    except GremAlgebraError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("rows", bs.columns, bs.rows)


def _graphs():
    return (
        [modern_graph()]
        + [random_graph(seed) for seed in range(0, 60, 12)]
        + [_lookalike_graph(seed) for seed in range(5)]
    )


def _filters(expr) -> int:
    """The filter operators of a plan, its predicates' included."""
    return render_plan(expr).count("filter[")


@pytest.mark.parametrize("template, unrewritten", CONTEXTS, ids=[t for t, _ in CONTEXTS])
def test_a_compiled_run_answers_as_the_filters_stacked_in_source_order(template, unrewritten):
    rng = random.Random(template)
    runs = FIXED_RUNS + [_random_run(rng) for _ in range(40)]
    graphs = _graphs()
    shortened = 0
    for run in runs:
        query = template.format(run=_text(run))
        compiled = compile_traversal(parse_traversal(query))
        by_hand = unrewritten(run)
        assert validate(compiled) == validate(by_hand) == [], query
        assert static_columns(compiled) == static_columns(by_hand), query
        shortened += _filters(compiled) < _filters(by_hand)
        for g in graphs:
            assert _outcome(compiled, g) == _outcome(by_hand, g), query
    assert shortened  # the rule dropped a repeated test somewhere


def test_look_alike_values_keep_different_rows():
    """Each pair of look-alike tests, taken for one, would answer
    differently on these graphs: the runs above can tell them apart."""
    graphs = _graphs()
    for a, b in [(1, True), (1, "1"), (29, "29"), (True, "1")]:
        both = _stacked([("has", "age", a), ("has", "age", b)], V)
        one = _stacked([("has", "age", a)], V)
        assert any(_outcome(both, g) != _outcome(one, g) for g in graphs), (a, b)
