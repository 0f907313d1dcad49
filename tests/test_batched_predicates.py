"""where()/not() evaluate their predicate once over all input rows; each
row is tagged with its index and every bag-level operator inside the
predicate keys on the tag.  These tests check that batch against the
plain reading: the predicate run on its own for each input row.
"""

from __future__ import annotations

import random

import pytest

from grem_algebra import (
    GremAlgebraError,
    compile_traversal,
    evaluate,
    modern_graph,
    parse_traversal,
    to_jsonl,
)
from grem_algebra import evaluator

from corpus import random_graph


def _selection_per_row(expr, cols, predicate, t, arg, src):
    """Reference Selection: one run of the predicate's program per input row."""
    kept = []
    for i in range(len(src.pos)):
        row = [[values[i]] for values in src.data]
        alone = evaluator._Rel(src.cols, row, src.kinds, [src.pos[i]], src.pos_kind, [0])
        hits = evaluator._run(predicate, t, alone)
        if bool(hits.pos) != expr.negated:
            kept.append(i)
    data = [[values[i] for i in kept] for values in src.data]
    pos = [src.pos[i] for i in kept]
    tags = None if src.tags is None else [src.tags[i] for i in kept]
    return evaluator._Rel(src.cols, data, list(src.kinds), pos, src.pos_kind, tags)


def _outcome(text, g):
    try:
        return to_jsonl(evaluate(compile_traversal(parse_traversal(text)), g))
    except GremAlgebraError as exc:
        return type(exc).__name__


def _hop(rng):
    return rng.choice(
        [
            "out()", "in()", "out('knows')", "in('created')", "out('created')",
            "has('age')", "has('name','lop')", "has('age',32)", "hasLabel('person')",
            "values('age')", "values('name')", "dedup()", "limit(1)", "limit(2)",
            "order().by(desc)", "order().by(asc)", "group().by('lang')", "group()",
        ]
    )


def _pattern(rng):
    a, b = rng.sample("abc", 2)
    hop = rng.choice(["out('knows')", "out('created')", "in('created')", "out()"])
    return f"__.as('{a}').{hop}.as('{b}')"


def _predicate(rng, depth):
    steps = []
    if rng.random() < 0.2:
        steps.append(f"as('{rng.choice('abx')}')")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(12)
        if depth < 2 and k == 0:
            steps.append(f"where({_predicate(rng, depth + 1)})")
        elif depth < 2 and k == 1:
            steps.append(f"not({_predicate(rng, depth + 1)})")
        elif depth < 2 and k == 2:
            steps.append(f"and({_predicate(rng, depth + 1)},{_predicate(rng, depth + 1)})")
        elif depth < 2 and k == 3:
            steps.append(f"union({_predicate(rng, depth + 1)},{_predicate(rng, depth + 1)})")
        elif k == 4:
            steps.append("match(" + ",".join(_pattern(rng) for _ in range(rng.randint(1, 2))) + ")")
        else:
            steps.append(_hop(rng))
    if rng.random() < 0.15:
        steps.append("values('age').max()")
    return "__." + ".".join(steps)


def _query(rng):
    head = rng.choice(["g.V()", "g.V().as('x')", "g.V().as('x').out().as('y')", "g.E()"])
    step = rng.choice(["where", "not", "and"])
    body = _predicate(rng, 0)
    if step == "and":
        body += "," + _predicate(rng, 0)
    return f"{head}.{step}({body})" + rng.choice(["", ".values('name')", ".dedup()"])


QUERIES = [_query(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("chunk", range(4))
def test_batched_selection_equals_per_row(monkeypatch, chunk):
    graphs = [random_graph(seed) for seed in (50, 0, 7)]
    batched = {}
    for text in QUERIES[chunk::4]:
        for i, g in enumerate(graphs):
            batched[text, i] = _outcome(text, g)
    monkeypatch.setitem(evaluator._OPERATORS, evaluator.alg.Selection, _selection_per_row)
    answered = 0
    for text in QUERIES[chunk::4]:
        for i, g in enumerate(graphs):
            reference = _outcome(text, g)
            assert batched[text, i] == reference, text
            answered += reference not in ("EvaluationError", "CompileError", "ParseError")
    assert answered > 60  # most queries answer; errors alone would prove little


def test_batched_error_names_the_row_a_per_row_run_fails_on_first():
    # in id order, vertex 1 has no in-edges and vertex 2 (vadas) is the
    # first whose predicate fails, on 'marko'; the batch sorts every row's
    # names together and would reach 'josh' (from vertex 3) first
    text = "g.V().where(__.in().values('name').order().max())"
    with pytest.raises(GremAlgebraError, match="non-numeric value 'marko'"):
        evaluate(compile_traversal(parse_traversal(text)), modern_graph())
