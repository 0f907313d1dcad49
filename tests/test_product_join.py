"""A join whose sides share no column is the cartesian product.

_join has one path: it keys every row by its join columns' values (and,
inside a selection predicate, its tag) and looks each left row's key up
in a table of the right rows.  With no join column and no tag every key
is (), so each left row meets every right row, in order.  These tests
record each join a plan runs on random graphs and check its rows and
their order against a nested loop over its two inputs: untagged (match()
patterns that share no variable) and tagged (and() of predicates that
share none).
"""

from __future__ import annotations

import pytest

from grem_algebra import compile_traversal, evaluate, parse_traversal
from grem_algebra import algebra as alg
from grem_algebra import evaluator

from corpus import random_graph

UNTAGGED = [
    "g.V().match(__.as('a').out('knows').as('b'), __.as('c').out('created').as('d'))",
    "g.V().match(__.as('a').has('name'), __.as('b').hasLabel('person'))",
    "g.V().match(__.as('a').out().as('b'), __.as('c').values('age').as('d'))",
    "g.V().match(__.as('a').in().as('b'), __.as('c').hasLabel('software'), __.as('d').out('knows'))",
]
TAGGED = [
    "g.V().and(__.out('knows'), __.out('created'))",
    "g.V().and(__.out().out(), __.in().values('name'))",
    "g.V().where(__.and(__.as('a').out().as('b'), __.as('c').in('created')))",
    "g.V().not(__.and(__.in(), __.out('knows').dedup(), __.out()))",
]


def _nested_loop(left, right):
    """The (left, right) row pairs of a product, left-major: each left row
    with each right row, inside a predicate only those of its tag."""
    return [
        (i, j) for i in range(len(left.pos)) for j in range(len(right.pos))
        if left.tags is None or left.tags[i] == right.tags[j]
    ]


def _check_product(g, left, right, out):
    pairs = _nested_loop(left, right)
    assert out.cols == left.cols + right.cols
    for c, values, kind in zip(out.cols, out.data, out.kinds):
        side, k = (left, 0) if c in left.cols else (right, 1)
        side_values, side_kind = side.get(c)
        assert kind is side_kind, c
        assert values == [side_values[p[k]] for p in pairs], c
    lpos = evaluator._as_values(g, left.pos, left.pos_kind)
    rpos = evaluator._as_values(g, right.pos, right.pos_kind)
    expected = [lpos[i] if rpos[j] is None else rpos[j] for i, j in pairs]
    assert evaluator._as_values(g, out.pos, out.pos_kind) == expected
    assert out.tags == (None if left.tags is None else [left.tags[i] for i, _ in pairs])


def _products(monkeypatch, text, g):
    """The (left, right, output) relations of each join the plan of text
    runs over g whose sides share no column."""
    seen = []

    def join(expr, cols, sub, g, arg, left, right):
        out = evaluator._join(expr, cols, sub, g, arg, left, right)
        if not set(left.cols) & set(right.cols):
            seen.append((left, right, out))
        return out

    monkeypatch.setitem(evaluator._OPERATORS, alg.Join, join)
    evaluate(compile_traversal(parse_traversal(text)), g)
    return seen


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("text", UNTAGGED)
def test_an_untagged_product_is_the_nested_loop(text, seed, monkeypatch):
    g = random_graph(seed)
    products = _products(monkeypatch, text, g)
    assert products
    for left, right, out in products:
        assert left.tags is None
        _check_product(g, left, right, out)


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("text", TAGGED)
def test_a_tagged_product_is_the_nested_loop_within_each_tag(text, seed, monkeypatch):
    g = random_graph(seed)
    products = _products(monkeypatch, text, g)
    assert products
    for left, right, out in products:
        assert left.tags is not None
        _check_product(g, left, right, out)
