"""Every engine column has the kind it was built with.

A rank column holds vertices only, as bare ranks; a value column holds a
vertex as the graph's token.  A kind is never read off a column's
contents, so a mistake is silent: a rank column read as values prints
numbers where vertices belong.  Every operator's output is checked here
while every query of the plan goldens runs on the modern graph and on
random graphs.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from grem_algebra import GremAlgebraError, compile_traversal, evaluate, modern_graph, parse_traversal
from grem_algebra import evaluator

from corpus import random_graph

PLANS = pathlib.Path(__file__).resolve().parent / "golden" / "plans.jsonl"


def _plan_queries() -> list[tuple[str, bool]]:
    lines = PLANS.read_text(encoding="utf-8").splitlines()
    return list(dict.fromkeys((e["query"], e["eq7_grouping"]) for e in map(json.loads, lines)))


def _assert_kinds(rel, g) -> None:
    """rel's columns and positions hold what their kinds say."""
    assert len(rel.kinds) == len(rel.data) == len(rel.cols)
    for values, kind in zip(rel.data + [rel.pos], rel.kinds + [rel.pos_kind]):
        assert len(values) == len(rel.pos)
        if kind is evaluator.RANKS:
            assert set(map(type, values)) <= {int}
            assert all(0 <= r < g.vertex_count for r in values)
        else:
            assert kind is evaluator.VALUES
            tokens = [v for v in values if type(v) is tuple]
            if tokens:
                assert all(v is g.vertex_tokens[v[0]] for v in tokens)


@pytest.fixture
def checked(monkeypatch):
    """Every operator checks the kinds of the relation it returns."""
    ran = []

    def wrap(op):
        def checked_op(expr, cols, predicate, g, arg, *inputs):
            rel = op(expr, cols, predicate, g, arg, *inputs)
            _assert_kinds(rel, g)
            ran.append(type(expr))
            return rel

        return checked_op

    for kind, op in list(evaluator._OPERATORS.items()):
        monkeypatch.setitem(evaluator._OPERATORS, kind, wrap(op))
    return ran


@pytest.mark.parametrize("graph", ["modern", 0, 7, 50])
def test_every_column_holds_what_its_kind_says(checked, graph):
    g = modern_graph() if graph == "modern" else random_graph(graph)
    answered = 0
    for text, eq7 in _plan_queries():
        try:
            evaluate(compile_traversal(parse_traversal(text), eq7_grouping=eq7), g)
            answered += 1
        except GremAlgebraError:
            pass
    assert answered > len(_plan_queries()) // 2
    assert set(checked) == set(evaluator._OPERATORS)  # every operator ran
