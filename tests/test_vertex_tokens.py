"""Vertex tokens inside the engine, interned VertexRefs at its boundary.

Inside the evaluator a vertex is the token (rank,), its rank in
lexicographic id order; evaluate() hands back the graph's interned
VertexRefs.  The graph below has ids whose file order (b, 10, 9, a),
lexicographic order (10, 9, a, b) and numeric order differ, so any
operator that ordered, deduplicated, grouped or joined by the wrong one
would show here.  The expected rows were produced by the evaluator that
kept VertexRefs in its rows throughout.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random

import pytest

from grem_algebra import (
    BindingSet,
    compile_traversal,
    evaluate,
    load_graph,
    multiset_union,
    parse_traversal,
)
from grem_algebra import evaluator
from grem_algebra.property_graph import EdgeRef, VertexRef

ID_ORDER_GRAPH = {
    "vertices": [
        {"id": "b", "label": "person", "properties": {"name": "bob", "age": 30}},
        {"id": "10", "label": "person", "properties": {"name": "ten", "age": 10.5}},
        {"id": "9", "label": "person", "properties": {"name": "nine", "age": "nine"}},
        {"id": "a", "label": "software", "properties": {"name": "app", "age": True}},
    ],
    "edges": [
        {"id": "e3", "label": "knows", "outV": "b", "inV": "9"},
        {"id": "e1", "label": "knows", "outV": "b", "inV": "10"},
        {"id": "e2", "label": "knows", "outV": "10", "inV": "9"},
        {"id": "e10", "label": "knows", "outV": "9", "inV": "b"},
        {"id": "e4", "label": "created", "outV": "9", "inV": "a"},
        {"id": "e5", "label": "created", "outV": "b", "inV": "a"},
        {"id": "e6", "label": "knows", "outV": "b", "inV": "10"},
    ],
}

QUERIES = {
    "g.V()": ["v[10]", "v[9]", "v[a]", "v[b]"],
    "g.V().order().by(desc)": ["v[b]", "v[a]", "v[9]", "v[10]"],
    "g.V().out().order().by(asc)": ["v[10]", "v[10]", "v[9]", "v[9]", "v[a]", "v[a]", "v[b]"],
    "g.V().union(__.out('knows'), __.values('age')).order().by(asc)":
        ["true", "10.5", "30", '"nine"', "v[10]", "v[10]", "v[9]", "v[9]", "v[b]"],
    "g.V().union(__.out('knows'), __.values('age')).order().by(desc)":
        ["v[b]", "v[9]", "v[9]", "v[10]", "v[10]", '"nine"', "30", "10.5", "true"],
    "g.V().union(__.out('knows'), __.values('age'), __.in()).dedup()":
        ["v[9]", "v[b]", "v[10]", "10.5", '"nine"', "true", "30"],
    "g.V().union(__.out(), __.values('age')).group()":
        [
            "true true", "10.5 10.5", "30 30", '"nine" "nine"', "v[10] v[10]", "v[10] v[10]",
            "v[9] v[9]", "v[9] v[9]", "v[a] v[a]", "v[a] v[a]", "v[b] v[b]",
        ],
    "g.V().out().group().by('name')":
        [
            '"app" v[a]', '"app" v[a]', '"bob" v[b]', '"nine" v[9]', '"nine" v[9]', '"ten" v[10]',
            '"ten" v[10]',
        ],
    "g.V().match(__.as('a').values('age').as('x')).select('x').order().by(desc)":
        ['"nine"', "30", "10.5", "true"],
    "g.V().match(__.as('a').out('knows').as('b'), __.as('b').out().as('c')).select('a','b','c')":
        [
            "v[10] v[9] v[b]", "v[10] v[9] v[a]", "v[9] v[b] v[9]", "v[9] v[b] v[10]",
            "v[9] v[b] v[a]", "v[9] v[b] v[10]", "v[b] v[9] v[b]", "v[b] v[9] v[a]",
            "v[b] v[10] v[9]", "v[b] v[10] v[9]",
        ],
    (
        "g.V().match(__.as('a').out('knows').as('b')).match(__.as('b').in('knows').as('c'))"
        ".select('a','b','c')"
    ):
        [
            "v[10] v[9] v[b]", "v[10] v[9] v[10]", "v[9] v[b] v[9]", "v[b] v[9] v[b]",
            "v[b] v[9] v[10]", "v[b] v[10] v[b]", "v[b] v[10] v[b]", "v[b] v[10] v[b]",
            "v[b] v[10] v[b]",
        ],
    (
        "g.V().match(__.as('a').out('knows').as('b'), __.as('c').in('created').as('d'))"
        ".select('a','d')"
    ):
        [
            "v[10] v[9]", "v[10] v[b]", "v[9] v[9]", "v[9] v[b]", "v[b] v[9]", "v[b] v[b]",
            "v[b] v[9]", "v[b] v[b]", "v[b] v[9]", "v[b] v[b]",
        ],
    "g.V().union(__.as('a').out('knows').as('b'), __.as('a').in('knows').as('b')).select('a','b')":
        [
            "v[10] v[9]", "v[9] v[b]", "v[b] v[9]", "v[b] v[10]", "v[b] v[10]", "v[10] v[b]",
            "v[10] v[b]", "v[9] v[b]", "v[9] v[10]", "v[b] v[9]",
        ],
    "g.V().as('a').out().as('b').select('a','b').dedup()":
        ["v[10] v[9]", "v[9] v[b]", "v[9] v[a]", "v[b] v[9]", "v[b] v[10]", "v[b] v[a]"],
    "g.V().not(__.out('knows')).values('name')": ['"app"'],
    "g.E().order().by(desc)": ["e[e6]", "e[e5]", "e[e4]", "e[e3]", "e[e2]", "e[e10]", "e[e1]"],
}

UNION_ROWS = [
    "v[9] v[b]",
    "v[10] 7",
    "v[10] v[9]",
    "v[9] v[b]",
    "v[b] v[9]",
    "v[b] v[10]",
    "v[b] v[10]",
]


@pytest.fixture(scope="module")
def graph():
    return load_graph(json.dumps(ID_ORDER_GRAPH))


def _cell(v) -> str:
    return repr(v) if isinstance(v, (VertexRef, EdgeRef)) else json.dumps(v)


def _rows(result: BindingSet) -> list[str]:
    cols = result.columns or ("@",)
    return [" ".join(_cell(row[c]) if c in row else "-" for c in cols) for row in result.rows]


def _run(text, g) -> BindingSet:
    return evaluate(compile_traversal(parse_traversal(text)), g)


def _assert_interned(result: BindingSet, g) -> None:
    refs = {r.id: r for r in g.tables().vertex_refs}
    for row in result.rows:
        for v in row.values():
            assert type(v) is not tuple  # no token leaves the engine
            if type(v) is VertexRef:
                assert v is refs[v.id]


@pytest.mark.parametrize("text", list(QUERIES))
def test_id_order_graph_answers_as_before(graph, text):
    result = _run(text, graph)
    assert _rows(result) == QUERIES[text]
    _assert_interned(result, graph)


def test_multiset_union_of_caller_built_rows(graph):
    mine = BindingSet(
        ("a", "b"),
        [
            {"a": VertexRef("9"), "b": VertexRef("b")},
            {"b": 7, "a": VertexRef("10"), "@": VertexRef("a")},
        ],
    )
    engine = _run("g.V().as('a').out('knows').as('b').select('a','b')", graph)
    assert _rows(multiset_union(mine, engine)) == UNION_ROWS
    assert _rows(multiset_union(engine, mine)) == UNION_ROWS[2:] + UNION_ROWS[:2]
    both = multiset_union(mine, engine)
    assert both.rows[1]["@"] == VertexRef("a")
    assert both.rows[0]["a"] is mine.rows[0]["a"]  # the caller's own objects
    assert both.rows[2]["a"] is engine.rows[0]["a"]


def test_engine_rows_and_graph_tables_are_not_gc_tracked():
    rng = random.Random(11)
    vertices = [{"id": f"v{i}", "label": "person"} for i in range(300)]
    edges = [
        {"id": f"e{j}", "label": rng.choice(["knows", "likes"]),
         "outV": f"v{rng.randrange(300)}", "inV": f"v{rng.randrange(300)}"}
        for j in range(1500)
    ]
    g = load_graph(json.dumps({"vertices": vertices, "edges": edges}))
    expr = compile_traversal(parse_traversal(
        "g.V().match(__.as('a').out('knows').as('b'), __.as('b').out().as('c'))"
        ".select('a','c')"
    ))
    t = g.tables()
    rel = evaluator._run(expr, t, None)
    entries = [e for label in (None, "knows") for e in t.neighbours("out", label) if e is not None]
    control = (t.vertex_refs[0],)  # a tuple holding a ref stays tracked
    gc.collect()
    assert len(rel.rows) > 1000 and len(entries) > 100
    assert not any(map(gc.is_tracked, rel.rows))
    assert not any(map(gc.is_tracked, entries))
    assert not any(map(gc.is_tracked, t.vertex_tokens))
    for adjacency in (g._out_edges, g._in_edges):
        assert not gc.is_tracked(adjacency)
        assert not any(map(gc.is_tracked, adjacency))
    assert gc.is_tracked(control)
    # and the result rows hold interned refs, never tokens
    _assert_interned(evaluator._to_bindings(rel, t.vertex_refs), g)


def test_package_leaves_the_collector_settings_alone():
    package = pathlib.Path(evaluator.__file__).parent
    for path in package.glob("*.py"):
        assert "gc." not in path.read_text(encoding="utf-8"), path.name
