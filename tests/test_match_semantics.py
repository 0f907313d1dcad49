"""Traverser-level match evaluation, bind, and the brute-force oracle."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import (
    EvaluationError,
    GremAlgebraError,
    compile_traversal,
    evaluate,
    extract_patterns,
    parse_traversal,
    stitch_patterns,
)
from grem_algebra.parser import StepKind
from grem_algebra.property_graph import VertexRef

from reference import (
    MAX_ORACLE_VARS,
    OracleGraphPattern,
    PatternEdge,
    PatternVertex,
    Traverser,
    UnboundPatternError,
    bind,
    eval_match,
    match_all,
    match_entry_var,
    oracle_match,
    out_adjacent,
)
from corpus import Q_COCREATOR_30, Q_COCREATOR_32, random_graph
from test_rank_index import _literal


def chains_of(text):
    ast = parse_traversal(text)
    step = next(s for s in ast.steps if s.kind is StepKind.MATCH)
    return extract_patterns(step)


# -- bind -----------------------------------------------------------------------


def test_bind_unbound_sets_label(modern):
    t = Traverser(location=VertexRef("3"))
    bound = bind(t, "b")
    assert bound is not None
    assert bound.labeled_path["b"] == VertexRef("3")


def test_bind_matching_location_is_noop(modern):
    t = Traverser(location=VertexRef("3"), labeled_path={"b": VertexRef("3")})
    assert bind(t, "b") is t


def test_bind_conflict_kills(modern):
    t = Traverser(location=VertexRef("5"), labeled_path={"b": VertexRef("3")})
    assert bind(t, "b") is None


# -- eval_match vs compiled route ------------------------------------------------


def test_single_chain_equals_direct_evaluation(modern):
    chains = chains_of('g.V().match(__.as("a").out("created").as("b"))')
    route1 = match_all(chains, modern)
    route2 = evaluate(stitch_patterns(chains), modern)
    assert Counter(route1.canonical()) == Counter(route2.canonical())


def test_cocreator_chains_match_compiled(modern):
    chains = chains_of(Q_COCREATOR_32)
    route1 = match_all(chains, modern)
    route2 = evaluate(stitch_patterns(chains), modern)
    assert Counter(route1.canonical()) == Counter(route2.canonical())
    assert len(route1.rows) == 3


def test_cocreator_30_empty_both_routes(modern):
    chains = chains_of(Q_COCREATOR_30)
    assert match_all(chains, modern).rows == []
    assert evaluate(stitch_patterns(chains), modern).rows == []


def test_eval_match_seeded_single_traverser(modern):
    chains = chains_of(Q_COCREATOR_32)
    seed = Traverser(location=VertexRef("1"), labeled_path={"a": VertexRef("1")})
    result = eval_match(chains, modern, seed)
    assert Counter((r["a"].id, r["b"].id, r["c"].id) for r in result.rows) == Counter(
        [("1", "3", "4")]
    )


def test_permuted_chain_order_same_multiset(modern):
    chains = chains_of(Q_COCREATOR_32)
    reference = Counter(match_all(chains, modern).canonical())
    compiled_ref = Counter(evaluate(stitch_patterns(chains), modern).canonical())
    rng = random.Random(9)
    for _ in range(10):
        perm = chains[:]
        rng.shuffle(perm)
        assert Counter(match_all(perm, modern).canonical()) == reference
        assert Counter(evaluate(stitch_patterns(perm), modern).canonical()) == compiled_ref


def test_unbound_pattern_error(modern):
    chains = chains_of('g.V().match(__.as("a").has("name"), __.as("z").has("age"))')
    with pytest.raises(UnboundPatternError):
        match_all(chains, modern)
    seed = Traverser(location=VertexRef("1"), labeled_path={"a": VertexRef("1")})
    with pytest.raises(UnboundPatternError, match="start variable unbound"):
        eval_match(chains, modern, seed)


def test_entry_var_reaches_all_chains(modern):
    chains = chains_of(Q_COCREATOR_30)
    assert match_entry_var(chains) == "a"
    # rotated order still needs 'a': the a->b chain can never run from b or c
    rotated = [chains[2], chains[3], chains[0], chains[1]]
    assert match_entry_var(rotated) == "a"


def test_each_pattern_runs_once(modern):
    # halting: traversers finish with exactly one hidden label per pattern
    chains = chains_of(Q_COCREATOR_32)
    seed = Traverser(location=VertexRef("1"), labeled_path={"a": VertexRef("1")})
    result = eval_match(chains, modern, seed)
    assert result.columns == ("a", "b", "c")


# -- oracle ----------------------------------------------------------------------


def test_oracle_created_lop(modern):
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"), PatternVertex("b", props=(("name", "=", "lop"),))),
        edges=(PatternEdge("a", "b", "created"),),
    )
    result = oracle_match(pattern, modern)
    assert Counter(r["a"].id for r in result.rows) == Counter(["1", "4", "6"])


def test_oracle_empty_pattern(modern):
    result = oracle_match(OracleGraphPattern(vertices=()), modern)
    assert result.columns == ()
    assert len(result.rows) == 1


def test_oracle_unsatisfiable_label(modern):
    pattern = OracleGraphPattern(vertices=(PatternVertex("a", label="robot"),))
    assert oracle_match(pattern, modern).rows == []


def test_oracle_size_bound(modern):
    vertices = tuple(PatternVertex(f"v{i}") for i in range(7))
    with pytest.raises(EvaluationError, match="limit is 6"):
        oracle_match(OracleGraphPattern(vertices=vertices), modern)


def test_oracle_undeclared_edge_var(modern):
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"),), edges=(PatternEdge("a", "zz", "knows"),)
    )
    with pytest.raises(EvaluationError, match="undeclared"):
        oracle_match(pattern, modern)


def test_oracle_multiplicity_counts_parallel_edges():
    import json

    from grem_algebra import load_graph

    g = load_graph(
        json.dumps(
            {
                "vertices": [
                    {"id": "1", "label": "person", "properties": {}},
                    {"id": "2", "label": "software", "properties": {}},
                ],
                "edges": [
                    {"id": "a", "label": "created", "outV": "1", "inV": "2"},
                    {"id": "b", "label": "created", "outV": "1", "inV": "2"},
                ],
            }
        )
    )
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("x"), PatternVertex("y")),
        edges=(PatternEdge("x", "y", "created"),),
    )
    assert len(oracle_match(pattern, g).rows) == 2
    # the engine agrees on the multiset
    engine = evaluate(
        compile_traversal(parse_traversal('g.V().match(__.as("x").out("created").as("y"))')),
        g,
    )
    assert Counter(engine.canonical()) == Counter(oracle_match(pattern, g).canonical())


def test_oracle_structure_preservation(modern):
    # substituting any result binding back into the pattern only uses real edges
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"), PatternVertex("b")),
        edges=(PatternEdge("a", "b", "knows"),),
    )
    for row in oracle_match(pattern, modern).rows:
        targets = [v for _, v in out_adjacent(modern, row["a"].id, "knows")]
        assert row["b"].id in targets


@pytest.mark.parametrize("seed", range(10))
def test_structure_preservation_engine_random(seed):
    # structure preservation: every reported (a, b) pair is a real edge
    g = random_graph(seed)
    result = evaluate(
        compile_traversal(parse_traversal('g.V().match(__.as("a").out("created").as("b"))')),
        g,
    )
    for row in result.rows:
        assert row["b"].id in [v for _, v in out_adjacent(g, row["a"].id, "created")]


@pytest.mark.parametrize("seed", range(25))
def test_cyclic_pattern_three_routes_agree(seed):
    # second chain's end re-binds 'a': the bind conflict must filter rows
    text = 'g.V().match(__.as("a").out("knows").as("b"), __.as("b").out("created").as("a"))'
    ast = parse_traversal(text)
    chains = chains_of(text)
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"), PatternVertex("b")),
        edges=(PatternEdge("a", "b", "knows"), PatternEdge("b", "a", "created")),
    )
    g = random_graph(seed)
    compiled = Counter(evaluate(compile_traversal(ast), g).canonical())
    traversers = Counter(match_all(chains, g).canonical())
    want = Counter(oracle_match(pattern, g).canonical())
    assert compiled == want
    assert traversers == want


# -- compiled route against the traverser route on generated patterns -------------

_VERTEX_VARS = ("a", "b", "c", "d", "e", "f")
_VALUE_VARS = ("x", "y")
_KEYS = ("name", "age", "lang", "weight")
_HOPS = st.tuples(st.sampled_from(["out", "in"]), st.sampled_from([None, "knows", "created"]))
_FILTERS = st.one_of(
    st.tuples(st.just("has"), st.sampled_from(_KEYS)),
    st.tuples(
        st.just("has"), st.sampled_from(["name", "age"]),
        st.sampled_from(["marko", "lop", 30, 32.0, True]),
    ),
    st.tuples(st.just("hasLabel"), st.sampled_from(["person", "software", "knows"])),
)


@st.composite
def patterns(draw):
    """1-4 connected match() patterns over at most MAX_ORACLE_VARS
    variables, in a drawn order: each starts at a vertex variable an
    earlier one bound, takes out/in/has/hasLabel steps and may end in
    values(), so a values() alone is anchored at the start variable.  A
    trailing as() names a vertex variable, bound or new, after a hop or a
    filter, or a value variable, which no pattern starts from, after
    values()."""
    vertex_vars, value_vars, chains = ["a"], [], []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.lists(st.one_of(_HOPS, _FILTERS), max_size=2))
        if draw(st.booleans()) or not steps:
            steps.append(("values", draw(st.sampled_from(_KEYS))))
        steps = [step[:1] if step[1] is None else step for step in steps]
        vertex = steps[-1][0] != "values"
        names, pool = (vertex_vars, _VERTEX_VARS) if vertex else (value_vars, _VALUE_VARS)
        ends = [None] + names
        if len(names) < len(pool) and len(vertex_vars) + len(value_vars) < MAX_ORACLE_VARS:
            ends.append(pool[len(names)])
        end = draw(st.sampled_from(ends))
        chains.append((draw(st.sampled_from(vertex_vars)), steps, end))
        if end is not None and end not in names:
            names.append(end)
    order = draw(st.permutations(range(len(chains))))
    return [chains[i] for i in order]


def _pattern_text(start, steps, end) -> str:
    body = "".join(f".{kind}({','.join(map(_literal, args))})" for kind, *args in steps)
    return f"__.as('{start}'){body}" + ("" if end is None else f".as('{end}')")


def test_a_filter_first_pattern_walks_on_from_its_anchor(modern):
    # the second pattern's has() reads a and becomes the position, so out()
    # walks on from a, not from b where the first pattern left the position
    text = (
        "g.V().match(__.as('a').out('knows').as('b'),"
        " __.as('a').has('name').out('created').as('c'))"
    )
    got = evaluate(compile_traversal(parse_traversal(text)), modern)
    assert [(r["a"].id, r["b"].id, r["c"].id) for r in got.rows] == [("1", "2", "3"), ("1", "4", "3")]
    assert Counter(got.canonical()) == Counter(match_all(chains_of(text), modern).canonical())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), patterns())
def test_generated_patterns_compiled_and_traverser_routes_agree(seed, chains):
    text = "g.V().match(" + ", ".join(_pattern_text(*c) for c in chains) + ")"
    g = random_graph(seed)
    compiled = evaluate(compile_traversal(parse_traversal(text)), g)
    assert Counter(compiled.canonical()) == Counter(match_all(chains_of(text), g).canonical()), text


def test_pattern_order_does_not_change_the_bag():
    """match() is a join of its patterns, so every order of 2-4 generated
    patterns gives one bag over the pattern variables (the position "@" is
    not compared).  A set where some order raises is skipped: an empty
    disconnected pattern raises in some orders only."""
    checked, skipped = [], []

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 200), patterns().filter(lambda chains: len(chains) > 1))
    def check(seed, chains):
        g = random_graph(seed)
        bags = []
        try:
            for order in itertools.permutations(chains):
                text = "g.V().match(" + ", ".join(_pattern_text(*c) for c in order) + ")"
                bags.append(Counter(evaluate(compile_traversal(parse_traversal(text)), g).canonical()))
        except GremAlgebraError:
            skipped.append(chains)
            return
        checked.append(chains)
        assert all(bag == bags[0] for bag in bags), chains

    check()
    assert len(checked) >= 3 * len(skipped) and len(checked) >= 100
