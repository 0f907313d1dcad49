"""to_jsonl: every row as json.dumps writes it, vertex texts from the
result's own graph, made only for the vertices a render prints.

A vertex's text comes from a table on its graph, by rank, filled where a
render finds it missing.  Results of two graphs rendered in turn, and of a
graph made after another was freed, must each print their own ids."""

from __future__ import annotations

import gc
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import (
    EdgeRef,
    VertexRef,
    compile_traversal,
    evaluate,
    modern_graph,
    parse_traversal,
    to_jsonl,
    to_table,
)
from grem_algebra.evaluator import CUR

from corpus import random_graph
from reference import multiset_union
from test_lazy_rows import SHAPES

# SHAPES covers ragged unions (absent bindings), schema-less rows,
# repeated columns, edges and group(); these add wide token results
QUERIES = SHAPES + [
    "g.V().as('a').out().as('b').select('a','b')",
    "g.V().as('a').out().as('b').select('b','a','b')",
    "g.V().match(__.as('a').out().as('b'), __.as('b').out().as('c')).select('a','c').dedup()",
    "g.V().values('name')",
    "g.V().out().out()",
]

# characters json.dumps escapes, or writes as \uXXXX escapes
DECORATIONS = st.text(
    st.sampled_from(['"', "\\", "/", "'", "é", "☃", "😀", "\u2028", "\x00", "\t", "a"]), max_size=3
)


def _plan(text: str):
    return compile_traversal(parse_traversal(text))


def _json_object(v):
    if isinstance(v, VertexRef):
        return {"vertex": v.id}
    if isinstance(v, EdgeRef):
        return {"edge": v.id}
    return v


def _dumped(result) -> str:
    """json.dumps of each of the result's dict rows, in row order."""
    if not result.columns:
        objects = [{"value": _json_object(r.get(CUR))} for r in result.rows]
    else:
        names = list(dict.fromkeys(result.columns))
        objects = [{c: _json_object(r[c]) for c in names if c in r} for r in result.rows]
    return "\n".join(json.dumps(o, separators=(",", ":")) for o in objects)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), head=DECORATIONS, tail=DECORATIONS, text=st.sampled_from(QUERIES))
def test_jsonl_is_json_dumps_of_every_row(seed, head, tail, text):
    g = random_graph(seed, lambda n: f"{head}{n}{tail}")
    result = evaluate(_plan(text), g)
    assert to_jsonl(result) == _dumped(result)
    both = multiset_union(result, result)
    assert to_jsonl(both) == _dumped(both)


def test_two_graphs_rendered_in_turn_keep_their_own_texts():
    text = "g.V().as('a').out().as('b').select('a','b')"
    # the same structure, so every rank and token is shared, under other ids
    graphs = [random_graph(7, lambda n, side=side: f"{side}{n}") for side in ("first-", "second-")]
    results = [evaluate(_plan(text), g) for g in graphs]
    expected = [_dumped(r) for r in results]
    assert expected[0] and expected[0] == expected[1].replace("second-", "first-")
    for _ in range(3):
        for result, dumped in zip(results, expected):
            assert to_jsonl(result) == dumped
    assert "second-" not in to_jsonl(results[0]) and "first-" not in to_jsonl(results[1])


def test_a_graph_made_after_another_is_freed_prints_its_own_ids():
    text = "g.V().as('a').out().as('b').select('a','b')"
    for i in range(20):
        g = random_graph(7, lambda n: f"g{i}-{n}")
        result = evaluate(_plan(text), g)
        assert to_jsonl(result) == _dumped(result)
        del g, result
        gc.collect()  # the next graph may take the freed one's addresses


def test_a_one_row_render_makes_only_that_rows_texts():
    g = modern_graph()
    result = evaluate(_plan("g.V().has('name','marko').as('a').out('created').as('b').select('a','b')"), g)
    to_table(result)
    len(result)
    assert g._vertex_texts == [None] * g.vertex_count  # only to_jsonl fills the table
    assert to_jsonl(result) == '{"a":{"vertex":"1"},"b":{"vertex":"3"}}'
    ids = g.vertex_ids()
    made = [ids[rank] for rank, text in enumerate(g._vertex_texts) if text is not None]
    assert made == ["1", "3"]
    assert to_jsonl(evaluate(_plan("g.V()"), g)).splitlines()[0] == '{"value":{"vertex":"1"}}'
    assert None not in g._vertex_texts
