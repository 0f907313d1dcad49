"""where()/not() over a chain from the row under test through traverses and
label or value filters, ending in a seekable filter, may be answered
backward: from that filter's vertices, against each traverse's direction.
Forward, backward and the row-at-a-time reference must give the same rows
in the same order, or raise the same error."""

import contextlib
import json
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import (
    EvaluationError,
    compile_traversal,
    evaluate,
    load_graph,
    modern_graph,
    parse_traversal,
)
from grem_algebra import algebra as alg
from grem_algebra import evaluator

from reference import linear_rows
from test_rank_index import EDGE_LABELS, VALUES, VERTEX_LABELS, _literal, _typed, graphs

# name: (query text, reference source and steps, whether every anchor is a vertex)
HEADS = {
    "V": ("g.V()", "V", [], True),
    "as": ("g.V().as('x')", "V", [("as", "x")], True),
    "out": ("g.V().as('x').out()", "V", [("as", "x"), ("out",)], True),
    # x is absent in the rows of the second branch
    "union": (
        "g.V().union(__.as('x').out(), __.in())",
        "V", [("union", [("as", "x"), ("out",)], [("in",)])], True,
    ),
    "values": ("g.V().values('k')", "V", [("values", "k")], False),
    "edges": ("g.E()", "E", [], False),
}

hops = st.tuples(st.sampled_from(["out", "in"]), st.sampled_from([None] + EDGE_LABELS))
filters = st.one_of(
    st.tuples(st.just("has"), st.sampled_from(["k", "j", "absent"]), st.sampled_from(VALUES)),
    st.tuples(st.just("hasLabel"), st.sampled_from(VERTEX_LABELS + ["knows", "nobody"])),
)


@st.composite
def chains(draw):
    """0-3 hops, each followed by an optional filter, then a seekable filter."""
    steps = []
    for hop in draw(st.lists(hops, max_size=3)):
        steps.append(hop if hop[1] is not None else hop[:1])
        steps += draw(st.lists(filters, max_size=1))
    return steps + [draw(filters)]


def _steps_text(steps) -> str:
    return "".join(f".{kind}({','.join(map(_literal, args))})" for kind, *args in steps)


def _outcome(run):
    try:
        return _typed(run())
    except EvaluationError as exc:
        return str(exc)


def _walks(returned: list):
    """_witnesses patched to append what each backward walk returns."""
    real = evaluator._witnesses

    def walk(*args):
        returned.append(real(*args))
        return returned[-1]

    return mock.patch.object(evaluator, "_witnesses", walk)


def _forward_rows_of(budget):
    """Every selection reads its forward cost as budget: -1 forces forward,
    a huge one backward wherever the predicate and its anchors qualify."""
    return mock.patch.object(evaluator, "_forward_rows", lambda steps, ranks, g: budget.__ge__)


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(),
    head=st.sampled_from(sorted(HEADS)),
    var=st.sampled_from([None, "x"]),
    chain=chains(),
    form=st.sampled_from(["where", "not", "not-where", "where-not"]),
)
def test_forward_backward_and_reference_agree(g, head, var, chain, form):
    text, source, head_steps, tokens = HEADS[head]
    predicate = "__" + (f".as('{var}')" if var else "") + _steps_text(chain)
    outer, _, inner = form.partition("-")
    steps = [(outer, var, chain)]
    if inner:  # the inner selection tests tagged rows
        predicate = f"__.{inner}({predicate})"
        steps = [(outer, None, [(inner, var, chain)])]
    text += f".{outer}({predicate})"
    expected = _outcome(lambda: linear_rows(g, head_steps + steps, source))
    plan = compile_traversal(parse_traversal(text))
    for budget in (None, -1, sys.maxsize):
        walks: list = []
        with _walks(walks):
            if budget is None:
                got = _outcome(lambda: evaluate(plan, g).rows)
            else:
                with _forward_rows_of(budget):
                    got = _outcome(lambda: evaluate(plan, g).rows)
        assert got == expected, (text, budget)
        if budget == -1:
            assert not walks, text
        if budget == sys.maxsize:  # backward runs when there are rows and they are vertices
            assert bool(walks) == (tokens and bool(linear_rows(g, head_steps, source))), text


def _rows(text, g):
    return evaluate(compile_traversal(parse_traversal(text)), g).rows


def _ids(rows):
    return [r["@"].id for r in rows]


def test_the_rule_walks_backward_and_stops_past_the_forward_rows():
    g = modern_graph()
    walks: list = []
    with _walks(walks):
        # forward reads 6 rows and 4 created edges; the walk reads 2 software
        # vertices and their 4 creators
        rows = _rows("g.V().not(__.out('created').has('lang','java'))", g)
        assert _ids(rows) == ["2", "3", "5"]
        assert walks == [{0, 3, 5}]
        # forward reads 2 software vertices and their 4 creators; the walk
        # reads 4 persons and their 6 edges out, passes 6 and stops
        rows = _rows("g.V().hasLabel('software').where(__.in().hasLabel('person'))", g)
        assert _ids(rows) == ["3", "5"]
        assert walks == [{0, 3, 5}, None]


def test_a_filter_that_binds_or_reads_a_variable_runs_forward():
    """A backward walk tests the position alone: here it would keep no row
    of the first query and only the rows at vadas and josh of the second."""
    g = modern_graph()
    walks: list = []
    with _walks(walks), _forward_rows_of(sys.maxsize):
        # the filter binds x, which the rows under test bind: an equality test
        rows = _rows("g.V().as('x').out().out().not(__.in().hasLabel('person').as('x'))", g)
        assert _ids(rows) == ["5"]
        # the filter reads x's element, not the position
        rows = _rows("g.V().as('x').out().where(__.match(__.as('x').hasLabel('person')))", g)
        assert _ids(rows) == ["2", "4", "3", "5", "3", "3"]
    assert walks == []


def test_a_walk_past_the_forward_rows_stops_between_hops():
    """Forward reads 6 rows and 1 x edge; the walk seeks z, and its first
    reverse hop reads z's 8 y edges in: 9 rows, past 7, so it stops before
    the second hop and forward answers."""
    vertices = [{"id": "a", "label": "n", "properties": {}},
                {"id": "z", "label": "n", "properties": {"name": "z"}}]
    edges = [{"id": "x0", "label": "x", "outV": "a", "inV": "s0"}]
    for i in range(4):
        vertices.append({"id": f"s{i}", "label": "n", "properties": {}})
        edges += [{"id": f"y{i}{j}", "label": "y", "outV": f"s{i}", "inV": "z"} for j in range(2)]
    g = load_graph(json.dumps({"vertices": vertices, "edges": edges}))
    chain = [("out", "x"), ("out", "y"), ("has", "name", "z")]
    walks: list = []
    with _walks(walks):
        rows = _rows("g.V().where(__.out('x').out('y').has('name','z'))", g)
    assert walks == [None]
    assert rows == linear_rows(g, [("where", None, chain)]) != []


def test_a_handful_of_rows_builds_no_table_and_no_reverse_entry():
    """The has-where shape on a fresh graph: 3 persons of one name, each
    with one created edge, test their software's lang forward."""
    vertices, edges = [], []
    for i in range(12):
        vertices.append({"id": f"p{i:02}", "label": "person",
                         "properties": {"name": f"n{i % 4}", "age": 20 + i}})
        vertices.append({"id": f"s{i:02}", "label": "software",
                         "properties": {"lang": ["java", "go"][i % 2]}})
        edges.append({"id": f"e{i:02}", "label": "created", "outV": f"p{i:02}", "inV": f"s{i:02}"})
    g = load_graph(json.dumps({"vertices": vertices, "edges": edges}))
    text = "g.V().has('name','n1').where(__.out('created').has('lang','go')).values('age')"
    assert [r["@"] for r in _rows(text, g)] == [21, 25, 29]
    assert "lang" not in g._value_ranks
    assert ("in", "created") not in g._neighbours


def _whole_sum(steps, ranks, g):
    """The rule as it was before the degrees were summed in chunks: F is
    every anchor's degree along the nearest traverse, summed whole."""
    first = next((s for s in reversed(steps) if type(s) is alg.Traverse), None)
    degrees = 0 if first is None else sum(
        map(len, g.neighbours(first.direction, first.edge_label, ranks))
    )
    return (len(ranks) + degrees).__ge__


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(),
    head=st.sampled_from(sorted(HEADS)),
    var=st.sampled_from([None, "x"]),
    chain=chains(),
    form=st.sampled_from(["where", "not", "not-where", "where-not"]),
    chunk=st.integers(1, 3),
)
def test_the_chunked_sum_picks_the_branch_the_whole_sum_picks(g, head, var, chain, form, chunk):
    """Each selection takes the same branch, backward or forward, whether F
    is summed whole or a few anchors at a time, and answers the same."""
    predicate = "__" + (f".as('{var}')" if var else "") + _steps_text(chain)
    outer, _, inner = form.partition("-")
    if inner:
        predicate = f"__.{inner}({predicate})"
    plan = compile_traversal(parse_traversal(HEADS[head][0] + f".{outer}({predicate})"))
    real = evaluator._backward
    runs = {}
    for rule in ("whole", "chunked"):
        branches: list = []

        def backward(*args):
            kept = real(*args)
            branches.append("forward" if kept is None else "backward")
            return kept

        with contextlib.ExitStack() as patches:
            patches.enter_context(mock.patch.object(evaluator, "_backward", backward))
            patches.enter_context(mock.patch.object(evaluator, "_CHUNK", chunk))
            if rule == "whole":
                patches.enter_context(mock.patch.object(evaluator, "_forward_rows", _whole_sum))
            runs[rule] = (branches, _outcome(lambda: evaluate(plan, g).rows))
    assert runs["chunked"] == runs["whole"]
