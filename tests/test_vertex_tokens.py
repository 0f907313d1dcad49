"""Vertex ranks and tokens inside the engine, interned VertexRefs at its
boundary.

Inside the evaluator a vertex is its rank in lexicographic id order: a
bare int in a column of vertices only, the token (rank,) in a column of
other values too; evaluate() hands back the graph's interned VertexRefs.
The graph below has ids whose file order (b, 10, 9, a), lexicographic
order (10, 9, a, b) and numeric order differ, so any operator that
ordered, deduplicated, grouped or joined by the wrong one would show
here.  The expected rows were produced by the evaluator that
kept VertexRefs in its rows throughout.
"""

from __future__ import annotations

import gc
import json
import operator
import pathlib
import random

import pytest

from grem_algebra import (
    BindingSet,
    EvaluationError,
    compile_traversal,
    evaluate,
    load_graph,
    parse_traversal,
    to_jsonl,
)
from grem_algebra import evaluator
from grem_algebra.algebra import program
from grem_algebra.property_graph import EdgeRef, VertexRef

import corpus
from reference import multiset_union

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
    refs = {r.id: r for r in g.vertex_refs}
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


def _random_person_graph(n: int):
    rng = random.Random(11)
    vertices = [{"id": f"v{i}", "label": "person"} for i in range(n)]
    edges = [
        {"id": f"e{j}", "label": rng.choice(["knows", "likes"]),
         "outV": f"v{rng.randrange(n)}", "inV": f"v{rng.randrange(n)}"}
        for j in range(5 * n)
    ]
    return load_graph(json.dumps({"vertices": vertices, "edges": edges}))


def test_engine_rows_and_graph_tables_are_not_gc_tracked():
    expr = compile_traversal(parse_traversal(
        "g.V().match(__.as('a').out('knows').as('b'), __.as('b').out().as('c'))"
        ".select('a','c')"
    ))
    steps = program(expr)
    leftovers = {}
    for n in (300, 600):
        g = _random_person_graph(n)
        evaluator._run(steps, g, None)  # builds the graph's neighbour entries
        rel = None
        gc.collect()
        gc.collect()  # untracks tuples whose items the first pass untracked
        before = len(gc.get_objects())
        rel = evaluator._run(steps, g, None)
        gc.collect()
        # what the collector tracks is the relation's few lists, not its rows
        leftovers[n] = len(gc.get_objects()) - before
        assert len(rel.pos) > 3 * n
        for values, kind in zip(rel.data + [rel.pos], rel.kinds + [rel.pos_kind]):
            assert kind is evaluator.RANKS
            assert not any(map(gc.is_tracked, values))
            # the graph's own rank ints: no column allocates one
            assert all(map(operator.is_, values, map(g.vertex_ranks.__getitem__, values)))
    assert leftovers[600] <= leftovers[300] <= 10, leftovers
    entries = [e for label in (None, "knows") for e in g._neighbours[("out", label)] if e is not None]
    assert "vertex_tokens" not in vars(g)  # no column of this query met a value column
    tokens = g.vertex_tokens
    control = (g.vertex_refs[0],)  # a tuple holding a ref stays tracked
    gc.collect()
    gc.collect()
    assert len(entries) > 100
    assert not any(map(gc.is_tracked, entries))
    assert all(r is g.vertex_ranks[r] for e in entries for r in e)
    assert not gc.is_tracked(g.vertex_ranks)
    assert not gc.is_tracked(tokens)
    assert not any(map(gc.is_tracked, tokens))
    assert list(g._incidences) == ["out"]  # built whole by the out() steps
    for incidence in g._incidences.values():
        assert not gc.is_tracked(incidence)
        assert not any(map(gc.is_tracked, incidence))
    assert gc.is_tracked(control)
    # and the result rows hold interned refs, never tokens
    _assert_interned(evaluate(expr, g), g)


def test_package_leaves_the_collector_settings_alone():
    package = pathlib.Path(evaluator.__file__).parent
    for path in package.glob("*.py"):
        assert "gc." not in path.read_text(encoding="utf-8"), path.name


DEDUP_QUERIES = [
    "g.V().as('a').out().as('b').out().as('c').select('a','c').dedup()",
    "g.V().as('a').out().as('b').select('b','a','b').dedup()",
    "g.V().as('a').out().as('b').select('a','b').dedup('b')",
    "g.V().as('a').out().as('b').select('a','b').dedup('b','a')",
    "g.V().out().out().dedup()",
    # inside a predicate the tag is the top digit of the key
    "g.V().where(__.as('a').out().as('b').select('a','b').dedup('b').limit(1).has('lang')).values('name')",
    "g.V().where(__.out().out().dedup().limit(1)).values('name')",
    # mixed columns keep their identity keys
    "g.V().union(__.out(), __.values('age')).dedup()",
    "g.V().union(__.as('a').out(), __.as('b')).dedup('a')",
]


def _identity_keyed(columns, tags, base):
    """Dedup keys as they were before rank columns were keyed by one int:
    a tuple of the ranks, the tag first."""
    return evaluator._keys(list(columns), tags, len(columns[0]))


@pytest.mark.parametrize("seed", range(40))
def test_rank_keyed_dedup_keeps_the_rows_identity_keys_keep(seed, monkeypatch):
    g = corpus.random_graph(seed)
    plans = [compile_traversal(parse_traversal(text)) for text in DEDUP_QUERIES]
    got = [evaluate(plan, g).rows for plan in plans]
    monkeypatch.setattr(evaluator, "_rank_keys", _identity_keyed)
    assert got == [evaluate(plan, g).rows for plan in plans]


def test_a_token_never_meets_an_int_in_dedup():
    # vertex 'a' has rank 3, and the integer 3 is a value in the same column
    doc = {
        "vertices": [{"id": v, "label": "n", "properties": {"k": 3}} for v in ("0", "1", "2", "a")],
        "edges": [{"id": "e", "label": "x", "outV": "0", "inV": "a"}],
    }
    g = load_graph(json.dumps(doc))
    rows = evaluate(compile_traversal(parse_traversal("g.V().union(__.out(), __.values('k')).dedup()")), g).rows
    assert [r["@"] for r in rows] == [VertexRef("a"), 3]


# The vertices' ranks (a 0, b 1, c 2, d 3) are also the values of k, so a
# rank read as an int, or an int read as a rank, would show.  The expected
# rows, and errors, were produced by the evaluator that kept every vertex
# as its token.
RANK_INT_GRAPH = {
    "vertices": [
        {"id": "b", "label": "n", "properties": {"k": 0}},
        {"id": "a", "label": "n", "properties": {"k": 3}},
        {"id": "c", "label": "n", "properties": {"k": 1}},
        {"id": "d", "label": "n", "properties": {"k": 2}},
    ],
    "edges": [
        {"id": "e1", "label": "x", "outV": "b", "inV": "c"},
        {"id": "e2", "label": "x", "outV": "c", "inV": "a"},
        {"id": "e3", "label": "x", "outV": "a", "inV": "d"},
        {"id": "e4", "label": "x", "outV": "d", "inV": "d"},
    ],
}

RANK_INT_QUERIES = {
    "g.V().union(__.out(), __.values('k'))":
        ['v[d]', 'v[c]', 'v[a]', 'v[d]', '3', '0', '1', '2'],
    "g.V().union(__.out(), __.values('k')).dedup()":
        ['v[d]', 'v[c]', 'v[a]', '3', '0', '1', '2'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).dedup('b')":
        ['v[a] v[d]', 'v[b] v[c]', 'v[c] v[a]', 'v[a] 3', 'v[b] 0', 'v[c] 1', 'v[d] 2'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).select('b','a').dedup()":
        ['v[d] v[a]', 'v[c] v[b]', 'v[a] v[c]', 'v[d] v[d]', '3 v[a]', '0 v[b]', '1 v[c]', '2 v[d]'],
    "g.V().union(__.out(), __.values('k')).order().by(asc)":
        ['0', '1', '2', '3', 'v[a]', 'v[c]', 'v[d]', 'v[d]'],
    "g.V().union(__.out(), __.values('k')).order().by(desc)":
        ['v[d]', 'v[d]', 'v[c]', 'v[a]', '3', '2', '1', '0'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).select('b','a').order().by(asc)":
        ['0 v[b]', '1 v[c]', '2 v[d]', '3 v[a]', 'v[a] v[c]', 'v[c] v[b]', 'v[d] v[a]', 'v[d] v[d]'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).select('b','a').order().by(desc)":
        ['v[d] v[d]', 'v[d] v[a]', 'v[c] v[b]', 'v[a] v[c]', '3 v[a]', '2 v[d]', '1 v[c]', '0 v[b]'],
    "g.V().union(__.out(), __.values('k')).group()":
        ['0 0', '1 1', '2 2', '3 3', 'v[a] v[a]', 'v[c] v[c]', 'v[d] v[d]', 'v[d] v[d]'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).select('b').group()":
        ['0 0', '1 1', '2 2', '3 3', 'v[a] v[a]', 'v[c] v[c]', 'v[d] v[d]', 'v[d] v[d]'],
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).group().by('k')":
        ['1 v[c]', '2 v[d]', '2 v[d]', '3 v[a]'],
    "g.V().match(__.as('a').values('k').as('x'), __.as('a').out().as('x'))":
        [],
    "g.V().match(__.as('a').values('k').as('x'), __.as('b').out().as('x')).select('a','b','x')":
        [],
    "g.V().match(__.as('a').out().as('b'), __.as('c').values('k').as('b'))":
        [],
    "g.V().as('a').values('k').as('a')":
        [],
    "g.V().as('a').out().values('k').as('a')":
        [],
    "g.V().as('x').out().as('x')":
        ['v[d]'],
    "g.V().values('k').max()":
        ['3'],
    "g.V().union(__.values('k'), __.out()).max()":
        'EvaluationError: max() over non-numeric value v[d]',
    "g.V().as('a').union(__.out().as('b'), __.values('k').as('b')).select('b').max()":
        'EvaluationError: max() over non-numeric value v[d]',
    "g.V().where(__.union(__.out(), __.values('k')).dedup().max())":
        'EvaluationError: max() over non-numeric value v[d]',
}


def _json_objects(result: BindingSet) -> list:
    """The result's dict rows as to_jsonl's objects, read back by json."""
    def obj(v):
        return {"vertex": v.id} if type(v) is VertexRef else {"edge": v.id} if type(v) is EdgeRef else v

    if not result.columns:
        return [{"value": obj(r["@"])} for r in result.rows]
    names = dict.fromkeys(result.columns)
    return [{c: obj(r[c]) for c in names if c in r} for r in result.rows]


@pytest.mark.parametrize("text", list(RANK_INT_QUERIES))
def test_a_vertex_never_meets_an_equal_int(text):
    g = load_graph(json.dumps(RANK_INT_GRAPH))
    expected = RANK_INT_QUERIES[text]
    if isinstance(expected, str):
        with pytest.raises(EvaluationError) as raised:
            _run(text, g)
        assert f"EvaluationError: {raised.value}" == expected
        return
    result = _run(text, g)
    assert _rows(result) == expected
    _assert_interned(result, g)
    assert [json.loads(line) for line in to_jsonl(result).splitlines()] == _json_objects(result)
