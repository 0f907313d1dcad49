"""Golden ordered outputs: the evaluator's rendered rows, byte for byte.

Each file under tests/golden/ named eval_<graph>.jsonl holds one line per
query: its name, its text and the rendered ``to_jsonl`` lines in row
order.  Row order is part of the documented contract, so a change to any
operator's physical implementation must reproduce these files exactly.

The query set is every corpus query plus where()/not() predicates whose
bodies hold bag-level operators (dedup, limit, order, group, max, a
match(), and(), a nested not()); those are the predicates an evaluation
that batches all input rows must keep exact.  It also holds every query
shape of the benchmark, so the shapes the engine is tuned for are pinned
byte for byte too.

Regenerate (only for a deliberate, documented change of the contract):

    PYTHONPATH=src python3 tests/test_golden_eval.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from grem_algebra import (
    compile_traversal,
    evaluate,
    load_graph,
    modern_graph,
    modern_graph_path,
    parse_traversal,
    to_jsonl,
)

from corpus import CORPUS, random_graph

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

RANDOM_SEED = 50

PREDICATE_QUERIES = [
    ("where_dedup", "g.V().where(__.out('created').in('created').dedup()).values('name')"),
    (
        "where_dedup_limit",
        "g.V().where(__.out().in().dedup().limit(1).has('name','marko')).values('name')",
    ),
    ("where_limit", "g.V().where(__.out().limit(1).has('lang')).values('name')"),
    (
        "where_order_limit",
        "g.V().where(__.out().order().by(desc).limit(1).hasLabel('person')).values('name')",
    ),
    (
        "where_order_asc_limit",
        "g.V().where(__.out().order().by(asc).limit(1).has('name','lop')).values('name')",
    ),
    ("where_group", "g.V().where(__.out().group().by('lang')).values('name')"),
    (
        "where_group_limit_dedup",
        "g.V().where(__.out().group().by('lang').dedup().limit(1)).values('name')",
    ),
    ("where_max", "g.V().where(__.out('knows').values('age').max()).values('name')"),
    ("not_max", "g.V().not(__.out().values('age').max()).values('name')"),
    (
        "where_match",
        "g.V().where(__.match(__.as('a').out('created').as('b'), "
        "__.as('b').in('created').as('c'), __.as('c').has('age',35))).values('name')",
    ),
    (
        "where_match_disconnected",
        "g.V().where(__.match(__.as('a').out('knows').as('b'), "
        "__.as('c').out('created').as('d'))).values('name')",
    ),
    ("and", "g.V().and(__.out('knows'), __.out('created')).values('name')"),
    (
        "and_dedup_limit",
        "g.V().and(__.out().dedup(), __.in().limit(1)).values('name')",
    ),
    ("where_nested_not", "g.V().where(__.out().not(__.in('knows'))).values('name')"),
    (
        "not_nested_not",
        "g.V().not(__.out('created').not(__.has('lang','java'))).values('name')",
    ),
    (
        "not_where_limit",
        "g.V().hasLabel('person').not(__.out().where(__.in().dedup().limit(2).has('age')))",
    ),
    (
        "where_outer_columns_dedup_limit",
        "g.V().as('a').out('created').as('b').where(__.in('created').dedup().limit(2))"
        ".select('a','b')",
    ),
    (
        "where_reanchor",
        "g.V().match(__.as('a').out('knows').as('b')).where(__.as('b').out('created'))"
        ".select('a','b')",
    ),
    (
        "not_reanchor_dedup",
        "g.V().match(__.as('a').out().as('b')).not(__.as('a').in().dedup().limit(1))"
        ".select('a','b')",
    ),
    (
        "where_union_dedup_limit",
        "g.V().where(__.union(__.out('knows'), __.out('created')).dedup().limit(1)"
        ".has('lang')).values('name')",
    ),
    (
        "where_values_order_limit",
        "g.V().as('a').where(__.out().values('name').order().by(desc).limit(1))"
        ".select('a').by('name')",
    ),
]


_CHAIN_SEGMENT = ".has('age').hasLabel('person').has('name','marko')"

# The query shapes of the benchmark (bench/queries.py), one entry per
# lookup template and per analytic template and direction/key variant,
# with constants that select rows on the golden graphs.
BENCH_QUERIES = [
    (
        "bench_hop_values",
        "g.V().has('name','marko').hasLabel('person').out('knows').values('name')",
    ),
    (
        "bench_match_3",
        "g.V().match(__.as('a').has('name','marko'), __.as('a').out('knows').as('b'), "
        "__.as('b').out('created').as('c')).select('b','c').by('name')",
    ),
    (
        "bench_has_where",
        "g.V().has('name','josh').where(__.out('created').has('lang','java')).values('age')",
    ),
    ("bench_neighbour_max", "g.V().has('name','marko').out('knows').values('age').max()"),
    (
        "bench_filter_chain",
        "g.V().hasLabel('person').has('name','marko')" + _CHAIN_SEGMENT * 9
        + ".out('knows').values('age')",
    ),
    (
        "bench_co_follower_dedup",
        "g.V().has('name','marko').out('knows').in('knows').dedup().values('name')",
    ),
    (
        "bench_top2_ages",
        "g.V().has('name','marko').out('knows').values('age').order().by(desc).limit(2)",
    ),
    ("bench_created_group", "g.V().has('name','josh').out('created').group().by('lang')"),
    (
        "bench_out_union",
        "g.V().has('name','marko').union(__.out('knows'), __.out('created')).values('name')",
    ),
    (
        "bench_name_pair_join",
        "g.V().match(__.as('a').has('name','vadas'), __.as('b').has('name','peter'))"
        ".select('a','b')",
    ),
    (
        "bench_two_hop_dedup",
        "g.V().match(__.as('a').out('knows').as('b'), __.as('b').out('knows').as('c'))"
        ".select('a','c').dedup()",
    ),
    ("bench_group_by_out_age", "g.V().hasLabel('person').out('knows').group().by('age')"),
    ("bench_group_by_in_name", "g.V().hasLabel('person').in('knows').group().by('name')"),
    (
        "bench_union_out",
        "g.V().union(__.as('a').out('knows').as('b'), __.as('a').out('created').as('b'))"
        ".select('a','b')",
    ),
    (
        "bench_union_in",
        "g.V().union(__.as('a').in('knows').as('b'), __.as('a').in('created').as('b'))"
        ".select('a','b')",
    ),
    (
        "bench_not_anti_join",
        "g.V().hasLabel('person').not(__.out('knows').has('age',32)).values('age')",
    ),
    (
        "bench_sort_limit_asc",
        "g.V().match(__.as('a').hasLabel('person').values('age').as('b'))"
        ".select('b','a').order().by(asc).limit(3)",
    ),
    (
        "bench_sort_limit_desc",
        "g.V().match(__.as('a').hasLabel('person').values('age').as('b'))"
        ".select('b','a').order().by(desc).limit(3)",
    ),
    (
        "bench_where_semi_join",
        "g.V().hasLabel('person').where(__.out('created').has('lang','java')).values('name')",
    ),
    (
        "bench_disconnected_join",
        "g.V().match(__.as('a').has('name','marko').out('knows').as('b'), "
        "__.as('c').has('name','josh').out('created').as('d')).select('a','b','c','d')",
    ),
    (
        "bench_cocreator",
        "g.V().match(__.as('a').out('created').as('b'), __.as('b').has('name','lop'), "
        "__.as('b').in('created').as('c'), __.as('c').hasLabel('person'))"
        ".select('a','c').by('name')",
    ),
    (
        "bench_two_hop_max",
        "g.V().has('name','anna').out('knows').out('knows').values('age').max()",
    ),
]


def golden_queries() -> list[tuple[str, str]]:
    return [(q.name, q.text) for q in CORPUS] + PREDICATE_QUERIES + BENCH_QUERIES


GRAPHS = {
    "modern": modern_graph,
    f"random{RANDOM_SEED}": lambda: random_graph(RANDOM_SEED),
}


def rendered(text: str, graph) -> str:
    return to_jsonl(evaluate(compile_traversal(parse_traversal(text)), graph))


def golden_lines(graph) -> list[str]:
    return [
        json.dumps(
            {"name": name, "query": text, "rows": rendered(text, graph).splitlines()},
            separators=(",", ":"),
        )
        for name, text in golden_queries()
    ]


def _load(graph_name: str) -> dict[str, dict]:
    path = GOLDEN / f"eval_{graph_name}.jsonl"
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return {e["name"]: e for e in entries}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_golden_file_covers_query_set(graph_name):
    golden = _load(graph_name)
    assert [(n, golden[n]["query"]) for n, _ in golden_queries()] == golden_queries()


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("name,text", golden_queries(), ids=[n for n, _ in golden_queries()])
def test_golden_ordered_output(graph_name, name, text):
    expected = "\n".join(_load(graph_name)[name]["rows"])
    assert rendered(text, GRAPHS[graph_name]()) == expected


def test_golden_predicates_are_not_trivial():
    """Each predicate and benchmark-shape query returns rows on at least
    one graph, so no golden is vacuous."""
    for name, text in PREDICATE_QUERIES + BENCH_QUERIES:
        counts = [len(_load(g)[name]["rows"]) for g in GRAPHS]
        assert any(c > 0 for c in counts), name


def test_vertex_file_order_is_not_observable():
    """The graph is laid out by vertex id at load: listing the modern
    graph's vertices in reverse gives an equal graph and byte-identical
    output for every golden query.  Edge file order still counts."""
    doc = json.loads(pathlib.Path(modern_graph_path()).read_text(encoding="utf-8"))
    doc["vertices"].reverse()
    reversed_graph = load_graph(json.dumps(doc))
    assert reversed_graph == modern_graph()
    golden = _load("modern")
    for name, text in golden_queries():
        assert rendered(text, reversed_graph) == "\n".join(golden[name]["rows"]), name
    doc["edges"].reverse()
    assert load_graph(json.dumps(doc)) != modern_graph()


if __name__ == "__main__":
    for graph_name, make in GRAPHS.items():
        out = GOLDEN / f"eval_{graph_name}.jsonl"
        out.write_text("\n".join(golden_lines(make())) + "\n", encoding="utf-8")
        print(f"wrote {out}")
