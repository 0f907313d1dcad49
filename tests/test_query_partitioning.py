"""Query partitioning: for a query q and a predicate p, the bag of q is the
bag union of q.where(p) and q.not(p).

The property needs no reference answer (ternary-logic partitioning, Rigger
& Su, OOPSLA 2020).  It guards both runs of a selection, forward and
backward, over heads whose rows carry every column and position kind the
engine has, and predicates that nest not(), union(), select() and
dedup().limit().  A triple one of whose queries raises a GremAlgebraError
is skipped; any other exception fails the test.
"""

from __future__ import annotations

from collections import Counter

import pytest

from grem_algebra import GremAlgebraError, compile_traversal, evaluate, parse_traversal
from grem_algebra.property_graph import value_key

from corpus import random_graph

HEADS = [
    "g.V()",
    "g.V().match(__.as('a').out('created').as('b'), __.as('b').in('created').as('c'))",
    "g.V().union(__.out('knows'), __.in())",
    "g.V().out().dedup()",
    "g.V().as('a').out().as('b').select('a','b')",
    "g.V().as('a').out().order().by(desc).limit(4)",
    "g.V().as('a').in('knows').as('b').dedup('a')",
    "g.V().group().by('name')",
    "g.E()",
]

PREDICATES = [
    "__.out('knows')",
    "__.hasLabel('person')",
    "__.not(__.out('created'))",
    "__.union(__.out('knows'), __.in('created').has('age', 29))",
    "__.as('member').out().as('y').select('member','y')",
    "__.in().dedup().limit(1).has('name','marko')",
    "__.where(__.in().has('lang'))",
    "__.has('weight')",
]


def _bag(text, g) -> Counter:
    """The rows of a query, the position included, as a multiset."""
    rows = evaluate(compile_traversal(parse_traversal(text)), g).rows
    return Counter(tuple(sorted((k, value_key(v)) for k, v in r.items())) for r in rows)


@pytest.mark.parametrize("chunk", range(4))
def test_where_and_not_partition_the_rows(chunk):
    checked, split = 0, set()
    for seed in range(chunk, 40, 4):
        g = random_graph(seed)
        for head in HEADS:
            for p in PREDICATES:
                try:
                    whole = _bag(head, g)
                    kept = _bag(f"{head}.where({p})", g)
                    dropped = _bag(f"{head}.not({p})", g)
                except GremAlgebraError:
                    continue
                assert whole == kept + dropped, (seed, head, p)
                checked += 1
                if kept and dropped:
                    split.add(head)
    assert checked > len(HEADS) * len(PREDICATES) * 10 // 2
    assert split == set(HEADS)  # each head has rows that one predicate splits
