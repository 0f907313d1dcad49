"""The result boundary: evaluate() hands back the engine's tuple rows and
builds dict rows only when ``rows`` is first read.

Every reading of a result (to_jsonl, to_table, canonical, values and len)
must answer on an evaluated set what it answers on a caller-built
``BindingSet(columns, rows)`` holding the same rows, and must do so
without building the evaluated set's dict rows.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from grem_algebra import (
    BindingSet,
    GremAlgebraError,
    compile_traversal,
    evaluate,
    load_graph,
    modern_graph,
    parse_traversal,
    to_jsonl,
    to_table,
)
from grem_algebra import evaluator

from corpus import random_graph
from reference import multiset_union
from test_batched_predicates import QUERIES as BATCHED_QUERIES
from test_golden_eval import GRAPHS as GOLDEN_GRAPHS
from test_golden_eval import golden_queries
from test_vertex_tokens import ID_ORDER_GRAPH
from test_vertex_tokens import QUERIES as VERTEX_TOKEN_QUERIES

# ragged unions, schema-less rows, repeated columns, edges and group()
SHAPES = [
    "g.V().union(__.as('a').out('knows'), __.as('b').in('created'))",
    "g.V().union(__.as('a').out('knows').as('b'), __.values('age'))",
    "g.E().union(__.values('weight'), __.hasLabel('knows'))",
    "g.V().as('a').out('knows').select('a','a')",
    "g.V().as('a').out().as('b').select('a','b','a')",
    "g.V()",
    "g.E()",
    "g.V().values('age')",
    "g.V().out().values('age').max()",
    "g.V().group().by('lang')",
    "g.V().union(__.out(), __.values('age')).group().order().by(desc)",
]


def _cases() -> list[tuple[str, str, object]]:
    modern, random50 = modern_graph(), random_graph(50)
    cases = [(name, text, make) for name, make in GOLDEN_GRAPHS.items() for _, text in golden_queries()]
    cases += [("id-order", text, lambda: load_graph(json.dumps(ID_ORDER_GRAPH))) for text in VERTEX_TOKEN_QUERIES]
    cases += [(f"random{seed}", text, lambda seed=seed: random_graph(seed))
              for seed in (50, 0, 7) for text in BATCHED_QUERIES]
    cases += [(name, text, lambda g=g: g) for name, g in (("modern", modern), ("random50", random50))
              for text in SHAPES]
    return cases


def _readings(result: BindingSet) -> dict:
    return {
        "jsonl": to_jsonl(result),
        "table": to_table(result),
        "canonical": result.canonical(),
        "values": result.values(),
        "len": len(result),
    }


def _evaluate(text: str, graphs: dict, graph_name: str, make) -> BindingSet | None:
    if graph_name not in graphs:
        graphs[graph_name] = make()
    try:
        return evaluate(compile_traversal(parse_traversal(text)), graphs[graph_name])
    except GremAlgebraError:
        return None


def test_evaluated_and_caller_built_sets_read_alike():
    graphs: dict = {}
    answered = 0
    for graph_name, text, make in _cases():
        result = _evaluate(text, graphs, graph_name, make)
        if result is None:
            continue
        lazy = _readings(result)
        caller = BindingSet(result.columns, result.rows)
        assert caller.rows is result.rows  # a caller's rows are kept as given
        assert _readings(caller) == lazy, (graph_name, text)
        # the same objects: interned refs, and scalars straight from the rows
        assert all(a is b for a, b in zip(caller.values(), lazy["values"])), text
        answered += 1
    assert answered > 500  # most cases answer; errors alone would prove little


def test_union_of_results_from_two_graphs():
    text = "g.V().as('a').out().as('b').select('a','b')"
    expr = compile_traversal(parse_traversal(text))
    doc = json.loads(json.dumps(ID_ORDER_GRAPH))
    first = evaluate(expr, load_graph(json.dumps(doc)))
    doc["vertices"].pop()  # one vertex fewer: the same rank names another vertex
    doc["edges"] = [e for e in doc["edges"] if "a" not in (e["outV"], e["inV"])]
    second = evaluate(expr, load_graph(json.dumps(doc)))
    both = multiset_union(first, second)
    by_hand = multiset_union(BindingSet(first.columns, first.rows), BindingSet(second.columns, second.rows))
    assert to_jsonl(both) == to_jsonl(by_hand) == to_jsonl(first) + "\n" + to_jsonl(second)
    assert both.rows == by_hand.rows


def test_reading_a_result_builds_no_dict_rows(monkeypatch):
    g = random_graph(50)
    texts = SHAPES + [
        "g.V().match(__.as('a').out().as('b'), __.as('b').out().as('c')).select('a','c')",
        "g.E().values('weight')",
    ]
    results = [evaluate(compile_traversal(parse_traversal(text)), g) for text in texts]

    def refuse(result):
        raise AssertionError("dict rows built")

    monkeypatch.setattr(evaluator, "_dict_rows", refuse)
    for result in results:
        _readings(result)
        with pytest.raises(AssertionError, match="dict rows built"):
            result.rows
    monkeypatch.undo()
    assert all(isinstance(r.rows, list) for r in results)


def test_concurrent_first_reads_get_one_list():
    rng = random.Random(3)
    vertices = [{"id": f"v{i}", "label": "person", "properties": {"age": i % 7}} for i in range(200)]
    edges = [
        {"id": f"e{j}", "label": "knows", "outV": f"v{rng.randrange(200)}", "inV": f"v{rng.randrange(200)}"}
        for j in range(1000)
    ]
    g = load_graph(json.dumps({"vertices": vertices, "edges": edges}))
    expr = compile_traversal(parse_traversal(
        "g.V().union(__.as('a').out().as('b').out(), __.as('a').values('age'))"
    ))
    expected = evaluate(expr, g).rows
    assert len(expected) > 4000
    result = evaluate(expr, g)
    start = threading.Barrier(8)
    seen: list = []

    def reader():
        start.wait()
        seen.append(result.rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == 8
    assert all(rows is seen[0] for rows in seen)
    assert seen[0] is result.rows
    assert seen[0] == expected
