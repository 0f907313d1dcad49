"""Shared inputs: a plan's program lists each operator object once.

The branches of a union() read one input object, and a disconnected
match() joins chains that start from one V() object.  algebra.program
lists such an operator once, its readers name it by slot, and the
evaluator runs it once and hands its relation to every reader.  That is
sound only while no operator changes a relation it is handed, which the
first test checks over the golden and batched-predicate queries.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter

import pytest

from grem_algebra import (
    CompileError,
    GremAlgebraError,
    compile_traversal,
    evaluate,
    modern_graph,
    parse_traversal,
    render_plan,
    validate,
)
from grem_algebra import algebra as alg
from grem_algebra import evaluator

from corpus import random_graph
from reference import linear_rows
from test_batched_predicates import QUERIES as BATCHED_QUERIES
from test_golden_eval import GRAPHS, golden_queries

UNION = ".union(__.out('knows'), __.in('knows'))"


def _plan(text):
    return compile_traversal(parse_traversal(text))


def _unions(k):
    return "g.V().has('name','marko')" + UNION * k


def _lists(rel):
    """Every list a relation holds."""
    return [rel.data, rel.kinds, *rel.data, rel.pos] + ([] if rel.tags is None else [rel.tags])


def _snapshot(rel):
    """rel with each of its lists and their contents at this moment."""
    return rel, rel.cols, rel.pos_kind, [(values, list(values)) for values in _lists(rel)]


def _unchanged(snapshot):
    rel, cols, pos_kind, lists = snapshot
    now = _lists(rel)
    return (
        rel.cols == cols and rel.pos_kind == pos_kind and len(now) == len(lists)
        and all(a is b and a == contents for a, (b, contents) in zip(now, lists))
    )


def test_no_operator_changes_a_relation_it_is_handed(monkeypatch):
    """Each relation an operator returns, snapshotted before any later
    entry runs, is the same objects with the same contents once the whole
    query has run: no later operator changed it, even where an operator
    hands back its own input (a selection on no rows, a dedup that finds
    no duplicate)."""
    returned: list = []

    def snapshotting(fn):
        def run(*args):
            rel = fn(*args)
            returned.append(_snapshot(rel))
            return rel
        return run

    for kind, fn in list(evaluator._OPERATORS.items()):
        monkeypatch.setitem(evaluator._OPERATORS, kind, snapshotting(fn))
    runs = [(text, make()) for make in GRAPHS.values() for _, text in golden_queries()]
    runs += [(text, random_graph(seed)) for seed in (50, 0, 7) for text in BATCHED_QUERIES]
    shared = 0
    for text, g in runs:
        returned.clear()
        try:
            evaluate(_plan(text), g)
        except GremAlgebraError:
            pass
        assert all(map(_unchanged, returned)), text
        shared += len({id(s[0]) for s in returned}) < len(returned)
    assert shared  # some operator did hand back a relation it was handed


def _counting(monkeypatch):
    """Per operator object, how many times the evaluator runs it."""
    runs: Counter = Counter()

    def counted(fn):
        def run(expr, *args):
            runs[id(expr)] += 1
            return fn(expr, *args)
        return run

    for kind, fn in list(evaluator._OPERATORS.items()):
        monkeypatch.setitem(evaluator._OPERATORS, kind, counted(fn))
    return runs


def _operators(steps):
    """Every entry of a program and of its predicates' programs."""
    found = []
    for node, _, sub, _ in steps:
        found.append(node)
        if sub is not None:
            found += _operators(sub)
    return found


@pytest.mark.parametrize("text,shared", [
    ("g.V().has('name','marko').union(__.out('knows'), __.out('created')).values('name')",
     alg.PropertyFilter),
    ("g.V().match(__.as('a').has('name','marko').out('knows').as('b'), "
     "__.as('c').has('name','josh').out('created').as('d')).select('a','b','c','d')",
     alg.GetVertices),
])
def test_an_input_several_operators_read_runs_once(monkeypatch, text, shared):
    plan = _plan(text)
    steps = alg.program(plan)
    readers = Counter(i for _, _, _, at in steps for i in at)
    (slot,) = [i for i, n in readers.items() if n == 2]
    assert type(steps[slot][0]) is shared
    runs = _counting(monkeypatch)
    rows = evaluate(plan, modern_graph()).rows
    assert rows
    operators = _operators(steps)
    assert len({id(node) for node in operators}) == len(operators)
    assert runs == Counter(map(id, operators))  # each once, and nothing else


@pytest.mark.parametrize("k", [1, 2, 16, 80])
def test_chained_unions_give_a_program_linear_in_their_number(k):
    plan = _plan(_unions(k))  # 80 unions: 242 steps, inside MAX_STEPS
    assert len(alg.program(plan)) <= 3 * k + 3
    assert validate(plan) == []


def test_sixteen_chained_unions_run_each_operator_once(monkeypatch):
    plan = _plan("g.V().has('name','marko').as('a')" + UNION * 16 + ".dedup().where(__.out()).order()")
    runs = _counting(monkeypatch)
    rows = evaluate(plan, modern_graph()).rows
    assert [row["a"].id for row in rows] == ["1"]
    # V, has(), three per union, dedup, where, its predicate's two, order
    assert sum(runs.values()) == len(_operators(alg.program(plan))) == 3 * 16 + 7


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("seed", [None, 0, 7])
def test_chained_unions_give_the_reference_rows(k, seed):
    g = modern_graph() if seed is None else random_graph(seed)
    head = "g.V().hasLabel('person').as('a')"
    expected = linear_rows(
        g, [("hasLabel", "person"), ("as", "a")] + [("union", [("out", "knows")], [("in", "knows")])] * k
    )
    assert evaluate(_plan(head + UNION * k), g).rows == expected


def test_a_shared_invalid_operator_is_diagnosed_once():
    x = alg.Projection(("z",), None, alg.GetVertices())
    assert validate(alg.Union(x, x)) == ["unbound z in projection"]
    assert validate(alg.Union(x, alg.Projection(("z",), None, alg.GetVertices()))) == [
        "unbound z in projection", "unbound z in projection"
    ]


@pytest.mark.parametrize("style", alg.PLAN_STYLES)
def test_a_plan_too_long_to_write_is_a_compile_error(style):
    plan = _plan(_unions(80))
    start = time.perf_counter()
    with pytest.raises(CompileError, match="more than 10000 operators"):
        render_plan(plan, style)
    assert time.perf_counter() - start < 5
    # six unions write 317 operators, four times the longest plan golden
    assert render_plan(_plan(_unions(6)), style)


def test_the_plan_command_exits_1_on_a_plan_too_long_to_write():
    proc = subprocess.run(
        [sys.executable, "-m", "grem_algebra.cli", "plan", "--query", _unions(80)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "more than 10000 operators" in proc.stderr
