"""Traversal-to-algebra mapping: step clauses, pattern extraction, stitching."""

import json
from collections import Counter

import pytest

from grem_algebra import (
    CompileError,
    compile_traversal,
    evaluate,
    load_graph,
    modern_graph,
    parse_traversal,
    to_jsonl,
)
from grem_algebra.algebra import (
    Aggregate,
    Argument,
    GetEdges,
    GetVertices,
    Group,
    Join,
    LabelFilter,
    Projection,
    PropertyFilter,
    Restriction,
    Selection,
    Sort,
    Traverse,
    Union,
)
from grem_algebra.algebra import validate as alg_validate
from grem_algebra.compiler import PatternChain, extract_patterns, static_columns, stitch_patterns
from grem_algebra.parser import Literal, Step, StepKind

from corpus import Q_OLDEST_KNOWN_AGE, Q_COCREATOR_30, Q_AGES_ASC, Q_UNION_CREATORS


def compiled(text, **kw):
    return compile_traversal(parse_traversal(text), **kw)


def match_step(text):
    ast = parse_traversal(text)
    return next(s for s in ast.steps if s.kind.value == "match")


def test_oldest_known_age_tree():
    assert compiled(Q_OLDEST_KNOWN_AGE) == Aggregate(
        PropertyFilter(
            None,
            "age",
            None,
            True,
            Traverse(
                "out",
                "knows",
                None,
                None,
                PropertyFilter(None, "name", "marko", False, GetVertices()),
            ),
        ),
    )


def test_cocreator_tree_with_grouping():
    inner = Traverse("out", "created", "a", "b", GetVertices())
    inner = PropertyFilter(None, "name", "lop", False, inner, "b")
    inner = Traverse("in", "created", "b", "c", inner)
    inner = PropertyFilter(None, "age", 30, False, inner, "c")
    expected = Group("name", Projection(("a", "c"), None, inner))
    assert compiled(Q_COCREATOR_30, eq7_grouping=True) == expected


def test_cocreator_tree_default_projection():
    expr = compiled(Q_COCREATOR_30)
    assert isinstance(expr, Projection)
    assert expr.vars == ("a", "c")
    assert expr.value_key == "name"


def test_ages_asc_tree():
    inner = LabelFilter(None, "person", GetVertices(), "a")
    inner = PropertyFilter("b", "age", None, True, inner)
    expected = Sort(("b",), "asc", Projection(("b",), None, inner))
    assert compiled(Q_AGES_ASC) == expected


def test_union_creators_tree():
    branch_a = Traverse("out", "created", "a", "c", GetVertices())
    branch_b = Traverse("out", "created", "b", "c", GetVertices())
    assert compiled(Q_UNION_CREATORS) == Projection(("a", "c"), None, Union(branch_a, branch_b))


def test_source_edges():
    assert compiled("g.E()") == GetEdges()


def test_extract_patterns_cocreator():
    chains = extract_patterns(match_step(Q_COCREATOR_30))
    assert [(c.start_var, c.end_var) for c in chains] == [
        ("a", "b"),
        ("b", None),
        ("b", "c"),
        ("c", None),
    ]


def test_extract_patterns_keeps_the_pattern_steps():
    (chain,) = extract_patterns(
        match_step("g.V().match(__.as('a').out('knows').has('age',32).hasLabel('person')"
                   ".in().values('name').as('b'))")
    )
    assert (chain.start_var, chain.end_var) == ("a", "b")
    assert chain.ops == (
        Step(StepKind.OUT, (Literal("string", "knows"),)),
        Step(StepKind.HAS, (Literal("string", "age"), Literal("int", 32))),
        Step(StepKind.HAS_LABEL, (Literal("string", "person"),)),
        Step(StepKind.IN, ()),
        Step(StepKind.VALUES, (Literal("string", "name"),)),
    )


@pytest.mark.parametrize("step", ["dedup()", "order()", "limit(1)", "where(__.out())", "max()"])
def test_extract_rejects_a_step_no_pattern_holds(step):
    name = step[:step.index("(")]
    with pytest.raises(CompileError) as info:
        extract_patterns(match_step(f"g.V().match(__.as('a').out().{step}.as('b'))"))
    assert str(info.value) == f"step {name}() is not supported inside a match() pattern"


def test_extract_single_chain():
    chains = extract_patterns(match_step('g.V().match(__.as("a").out("knows"))'))
    assert len(chains) == 1
    assert chains[0].start_var == "a"
    assert chains[0].end_var is None


def test_extract_requires_anchor():
    with pytest.raises(CompileError, match="no leading as"):
        extract_patterns(match_step('g.V().match(__.out("knows"))'))


def test_extract_rejects_nested_match():
    with pytest.raises(CompileError, match="nested match"):
        extract_patterns(match_step('g.V().match(__.as("a").match(__.as("b").in()))'))


def test_extract_rejects_mid_anchor():
    with pytest.raises(CompileError, match="middle of a match"):
        extract_patterns(
            match_step('g.V().match(__.as("a").out().as("b").in().as("c"))')
        )


def test_a_pattern_ending_in_a_filter_binds_its_end(modern):
    expr = compiled('g.V().match(__.as("a").has("name","lop").as("b"))')
    assert expr == PropertyFilter("b", "name", "lop", False, GetVertices(), "a")
    assert [(r["a"].id, r["b"].id) for r in evaluate(expr, modern).rows] == [("3", "3")]


# q.F.as('x') and q.as('x').F for a has()/hasLabel() filter F, with {x} the
# prefix's own as('x') or nothing, and the rows each gives with x bound and not
COMMUTING = [
    ("g.V(){x}.out().hasLabel('person').as('x')", "g.V(){x}.out().as('x').hasLabel('person')", (0, 2)),
    ("g.V(){x}.out().has('age').as('x')", "g.V(){x}.out().as('x').has('age')", (0, 2)),
    (
        "g.V(){x}.out().where(__.out().hasLabel('person').as('x'))",
        "g.V(){x}.out().where(__.out().as('x').hasLabel('person'))",
        (0, 0),
    ),
    (
        "g.V(){x}.out().has('age').match(__.as('x'))",
        "g.V(){x}.out().match(__.as('x')).has('age')",
        (0, 2),
    ),
    (
        "g.V(){x}.out().where(__.out().has('age').match(__.as('x')))",
        "g.V(){x}.out().where(__.out().match(__.as('x')).has('age'))",
        (0, 0),
    ),
    (
        "g.V(){x}.out().where(__.in().hasLabel('person').as('x'))",
        "g.V(){x}.out().where(__.in().as('x').hasLabel('person'))",
        (6, 6),
    ),
    (
        "g.V(){x}.out().in().has('age').match(__.as('x'))",
        "g.V(){x}.out().in().match(__.as('x')).has('age')",
        (6, 12),
    ),
]


@pytest.mark.parametrize("bound", [True, False])
@pytest.mark.parametrize("filtered, named, sizes", COMMUTING)
def test_as_after_a_filter_commutes_with_it(modern, filtered, named, sizes, bound):
    """as('x') names a filter's output, the element it tested, as it names
    a traverse's: a bound x is an equality test (before the filter or after
    it, the same rows in the same order), an unbound one a new column."""
    x = ".as('x')" if bound else ""
    after = evaluate(compiled(filtered.format(x=x)), modern)
    before = evaluate(compiled(named.format(x=x)), modern)
    assert (after.columns, after.rows) == (before.columns, before.rows)
    assert len(after) == sizes[0 if bound else 1]


def test_as_after_a_filter_names_an_unbound_element():
    expr = compiled("g.V().as('y').out().hasLabel('person').as('x').select('x','y')")
    assert alg_validate(expr) == []
    rows = evaluate(expr, modern_graph()).rows
    assert sorted((r["x"].id, r["y"].id) for r in rows) == [("2", "1"), ("4", "1")]


def test_extract_rejects_empty_two_anchor_chain():
    with pytest.raises(CompileError, match="empty pattern"):
        extract_patterns(match_step('g.V().match(__.as("a").as("b"))'))


def test_stitch_single_chain_is_identity():
    chains = extract_patterns(match_step('g.V().match(__.as("a").out("knows").as("b"))'))
    assert stitch_patterns(chains) == Traverse("out", "knows", "a", "b", GetVertices())


def test_stitch_threads_cocreator_in_source_order():
    chains = extract_patterns(match_step(Q_COCREATOR_30))
    expr = stitch_patterns(chains)
    # bottom-up operator order: out-traverse, name filter, in-traverse, age filter
    assert isinstance(expr, PropertyFilter) and (expr.anchor, expr.var) == ("c", None)
    assert isinstance(expr.input, Traverse) and expr.input.anchor == "b"
    assert isinstance(expr.input.input, PropertyFilter) and expr.input.input.anchor == "b"
    bottom = expr.input.input.input
    assert isinstance(bottom, Traverse) and (bottom.anchor, bottom.var) == ("a", "b")


def test_stitch_disconnected_chains_join():
    chains = extract_patterns(
        match_step('g.V().match(__.as("a").has("name","x"), __.as("c").has("age"))')
    )
    expr = stitch_patterns(chains)
    assert isinstance(expr, Join)


def test_stitch_empty_disconnected_chain_rejected():
    chains = [
        PatternChain("a", None, (list(extract_patterns(match_step(Q_COCREATOR_30))[0].ops))[0:1]),
    ]
    bare = PatternChain("z", None, ())
    with pytest.raises(CompileError, match="disconnected and empty"):
        stitch_patterns([chains[0], bare])


def test_stitch_empty_first_chain_names_source():
    assert stitch_patterns([PatternChain("a", None, ())]) == GetVertices("a")


def test_disconnected_join_cartesian_cardinality():
    # two chains sharing no variables multiply row counts
    doc = {
        "vertices": [
            {"id": "1", "label": "person", "properties": {"name": "x"}},
            {"id": "2", "label": "person", "properties": {"name": "y"}},
        ],
        "edges": [],
    }
    g = load_graph(json.dumps(doc))
    expr = compiled('g.V().match(__.as("a").has("name"), __.as("b").hasLabel("person"))')
    result = evaluate(expr, g)
    m = len(evaluate(compiled('g.V().has("name")'), g).rows)
    n = len(evaluate(compiled('g.V().hasLabel("person")'), g).rows)
    assert len(result.rows) == m * n == 4


def test_select_undeclared_variable():
    with pytest.raises(CompileError, match="undeclared variable 'z'"):
        compiled('g.V().match(__.as("a").out("knows").as("b")).select("z")')


def test_dedup_undeclared_variable():
    with pytest.raises(CompileError, match="undeclared variable 'z'"):
        compiled('g.V().match(__.as("a").out().as("b")).select("b").dedup("z")')


@pytest.mark.parametrize("tail", ["select('b')", "dedup('b')"])
def test_a_variable_a_projection_dropped_is_undeclared(tail):
    # b is bound below select('a'), which drops its column
    text = f"g.V().as('a').out().as('b').select('a').{tail}"
    with pytest.raises(CompileError, match="undeclared variable 'b'"):
        compiled(text)


def test_select_inside_a_predicate_reads_the_rows_under_test(modern):
    text = "g.V().as('a').out('knows').where(__.select('a').has('name','marko'))"
    by_hand = Selection(
        PropertyFilter(None, "name", "marko", False, Projection(("a",), None, Argument())),
        Traverse("out", "knows", None, None, GetVertices("a")),
    )
    assert compiled(text) == by_hand
    assert to_jsonl(evaluate(by_hand, modern)).splitlines() == ['{"a":{"vertex":"1"}}'] * 2
    # a nested predicate's rows under test carry the enclosing one's columns
    compiled("g.V().as('a').where(__.out().as('b').where(__.select('a','b').dedup('a')))")
    for text in (
        "g.V().as('a').where(__.select('z'))",
        "g.V().as('a').where(__.dedup('z'))",
        "g.V().as('a').out().as('b').select('a').where(__.select('b'))",
        "g.V().as('a').where(__.out().as('b').select('b').where(__.select('a')))",
    ):
        with pytest.raises(CompileError, match="undeclared variable"):
            compiled(text)


def test_order_inside_a_predicate_sorts_by_what_the_predicate_binds():
    expr = compiled("g.V().as('a').where(__.out().as('b').order())")
    assert expr.predicate.vars == ("b",)
    assert compiled("g.V().as('a').where(__.out().order())").predicate.vars == ()


def test_order_by_property_key_rejected():
    with pytest.raises(CompileError, match="asc or desc"):
        compiled("g.V().as('a').select('a').order().by('name')")
    with pytest.raises(CompileError, match="asc or desc"):
        compiled("g.V().order().by('name')")


def test_select_by_direction_rejected():
    with pytest.raises(CompileError, match="by\\(\\) after select\\(\\) takes a property key"):
        compiled("g.V().as('a').select('a').by(asc)")


def test_group_by_direction_rejected():
    with pytest.raises(CompileError, match="property key"):
        compiled("g.V().group().by(asc)")


def test_double_by_after_select_rejected():
    # a second by() follows by(), not select(): the parser already rejects it
    from grem_algebra import ParseError

    with pytest.raises(ParseError, match="must directly follow"):
        compiled("g.V().as('a').select('a').by('name').by('age')")


def test_max_must_be_terminal():
    with pytest.raises(CompileError, match="final step"):
        compiled('g.V().values("age").max().limit(1)')


def test_compile_requires_root():
    with pytest.raises(CompileError, match="root traversals"):
        compile_traversal(parse_traversal("__.as('a')"))


def test_limit_compiles_to_restriction():
    expr = compiled('g.V().limit(3)')
    assert expr == Restriction(0, 3, GetVertices())


def test_where_compiles_to_selection(modern):
    expr = compiled('g.V().hasLabel("person").where(__.out("created"))')
    assert isinstance(expr, Selection) and not expr.negated
    names = {
        r["@"].id for r in evaluate(expr, modern).rows
    }
    assert names == {"1", "4", "6"}  # the three creators


def test_not_compiles_to_negated_selection(modern):
    expr = compiled('g.V().hasLabel("person").not(__.out("created"))')
    assert isinstance(expr, Selection) and expr.negated
    assert {r["@"].id for r in evaluate(expr, modern).rows} == {"2"}  # vadas


def test_and_compiles_to_selection_over_join(modern):
    expr = compiled('g.V().and(__.out("knows"), __.out("created"))')
    assert isinstance(expr, Selection)
    assert isinstance(expr.predicate, Join)
    assert {r["@"].id for r in evaluate(expr, modern).rows} == {"1"}  # marko


def test_multiple_match_steps_join(modern):
    text = (
        'g.V().match(__.as("a").out("created").as("b"))'
        '.match(__.as("b").in("created").as("c")).select("a","c")'
    )
    expr = compiled(text)
    assert isinstance(expr, Projection)
    assert isinstance(expr.input, Join)
    result = evaluate(expr, modern)
    # same answer as the single-match phrasing
    single = evaluate(
        compiled(
            'g.V().match(__.as("a").out("created").as("b"),'
            ' __.as("b").in("created").as("c")).select("a","c")'
        ),
        modern,
    )
    assert Counter(result.canonical()) == Counter(single.canonical())


def test_union_branches_share_source():
    expr = compiled('g.V().union(__.out("knows"), __.out("created"))')
    assert isinstance(expr, Union)
    assert expr.left == Traverse("out", "knows", None, None, GetVertices())
    assert expr.right == Traverse("out", "created", None, None, GetVertices())


def test_compile_deterministic():
    a = compiled(Q_COCREATOR_30, eq7_grouping=True)
    b = compiled(Q_COCREATOR_30, eq7_grouping=True)
    assert a == b


def test_static_columns():
    expr = compiled(Q_COCREATOR_30)
    assert static_columns(expr) == ("a", "c")
    assert static_columns(GetVertices("x")) == ("x",)
    assert static_columns(compiled(Q_OLDEST_KNOWN_AGE)) == ()


def test_validate_empty_for_every_corpus_query():
    from grem_algebra import validate
    from corpus import CORPUS

    for q in CORPUS:
        for flag in (False, True):
            expr = compile_traversal(parse_traversal(q.text), eq7_grouping=flag)
            assert validate(expr) == [], q.name


def test_all_styles_render_every_corpus_query():
    from grem_algebra import render_plan
    from corpus import CORPUS

    for q in CORPUS:
        expr = compiled(q.text)
        for style in ("paper", "ascii", "curried"):
            assert render_plan(expr, style)


def test_where_predicate_reanchors_at_variable(modern):
    q = 'g.V().match(__.as("a").out("knows").as("b")).where(__.as("b").out("created"))'
    result = evaluate(compiled(q), modern)
    assert [(r["a"].id, r["b"].id) for r in result.rows] == [("1", "4")]
    negated = 'g.V().match(__.as("a").out("knows").as("b")).not(__.as("b").out("created"))'
    result = evaluate(compiled(negated), modern)
    assert [(r["a"].id, r["b"].id) for r in result.rows] == [("1", "2")]


def test_where_predicate_binds_against_outer_var(modern):
    # trailing as() inside the predicate must agree with the outer binding
    q = (
        'g.V().match(__.as("a").out("created").as("b"),'
        ' __.as("a").out("knows").as("c"))'
        '.where(__.as("c").out("created").as("b")).select("a","b","c")'
    )
    result = evaluate(compiled(q), modern)
    # marko created lop, knows josh, and josh also created lop
    assert [(r["a"].id, r["b"].id, r["c"].id) for r in result.rows] == [("1", "3", "4")]


def test_values_first_pattern_binds_its_anchor(modern):
    values_first = "g.V().match(__.as('a').values('age').as('x')).select('a','x')"
    has_first = "g.V().match(__.as('a').has('age').values('age').as('x')).select('a','x')"
    got = evaluate(compiled(values_first), modern)
    want = evaluate(compiled(has_first), modern)
    assert got.columns == want.columns == ("a", "x")
    assert got.rows == want.rows
    assert [(r["a"].id, r["x"]) for r in got.rows] == [("1", 29), ("2", 27), ("4", 32), ("6", 35)]
    # without select(): a valid plan binding both variables
    bare = compiled("g.V().match(__.as('a').values('age').as('x'))")
    # one extraction, which binds its anchor itself
    assert bare == PropertyFilter("x", "age", None, True, GetVertices(), "a")
    assert alg_validate(bare) == []
    assert static_columns(bare) == ("a", "x")


def test_values_first_pattern_on_bound_anchor(modern):
    text = (
        "g.V().match(__.as('a').out('knows').as('b'), __.as('b').values('age').as('x'))"
        ".select('a','b','x')"
    )
    got = evaluate(compiled(text), modern)
    assert [(r["a"].id, r["b"].id, r["x"]) for r in got.rows] == [("1", "2", 27), ("1", "4", 32)]


def _by(key):
    return Step(StepKind.BY, (Literal("string", key),))


_V, _A = Step(StepKind.SOURCE_V, ()), (Literal("string", "a"),)


@pytest.mark.parametrize("steps,eq7,message", [
    ((_V, _by("name")), False, "by() must directly follow select(), order(), or group()"),
    ((_V, Step(StepKind.AS, _A), Step(StepKind.SELECT, _A), _by("name"), _by("age")), False,
     "only one by() is supported after select()"),
    ((_V, Step(StepKind.AS, _A), Step(StepKind.SELECT, _A), _by("name"), _by("age")), True,
     "only one by() is supported after group()"),
    ((_V, Step(StepKind.GROUP, ()), _by("name"), _by("age")), False,
     "only one by() is supported after group()"),
    ((_V, Step(StepKind.OUT, ()), _V), False, "V() may only start a root traversal"),
    ((_V, Step(StepKind.WHERE, _A)), False, "predicate must be an anonymous traversal"),
    ((_V, Step(StepKind.MATCH, ())), False, "match() needs at least one pattern"),
    ((_V, Step(StepKind.MATCH, _A)), False, "match() arguments must be anonymous traversals"),
    ((Step(StepKind.OUT, ()),), False, "root traversal must start with V() or E()"),
])
def test_checks_only_a_hand_built_traversal_reaches(steps, eq7, message):
    """The parser never builds these step lists; the compiler still
    rejects each with its own message."""
    from grem_algebra.parser import TraversalAST

    with pytest.raises(CompileError) as info:
        compile_traversal(TraversalAST(False, steps), eq7_grouping=eq7)
    assert str(info.value) == message


# -- runs of pure filters ------------------------------------------------------------
#
# A pure filter reads no anchor, binds no variable and extracts nothing; a
# run of them holds each test once, in source order.  Anything else is a
# barrier: a run stops below it and keeps its place.

_V = GetVertices()


def _has(key, input_, value=None, var=None, anchor=None):
    return PropertyFilter(var, key, value, False, input_, anchor)


@pytest.mark.parametrize("text, plan", [
    # a filter that as() named binds a variable
    (
        "g.V().has('age').as('x').hasLabel('person').has('age')",
        _has("age", LabelFilter(None, "person", _has("age", _V, var="x"))),
    ),
    # a pattern's first step reads its anchor
    (
        "g.V().match(__.as('a').out().has('age'), __.as('a').has('age'))",
        _has("age", _has("age", Traverse("out", None, "a", None, _V)), anchor="a"),
    ),
    # values() moves the position onto a value
    (
        "g.V().hasLabel('person').values('name').hasLabel('person')",
        LabelFilter(None, "person", PropertyFilter(None, "name", None, True, LabelFilter(None, "person", _V))),
    ),
    # a traverse moves it to another element
    (
        "g.V().has('age').out().has('age').hasLabel('person')",
        LabelFilter(None, "person", _has("age", Traverse("out", None, None, None, _has("age", _V)))),
    ),
])
def test_a_barrier_keeps_its_place_in_a_run(text, plan):
    assert compiled(text) == plan


def test_as_after_a_shortened_run_names_its_top_filter(modern):
    expr = compiled(
        "g.V().has('age').hasLabel('person').has('age').as('x').out().as('y').select('x','y')"
    )
    assert expr.input.input == LabelFilter("x", "person", _has("age", _V))
    by_hand = Projection(("x", "y"), None, Traverse("out", None, None, "y", _has(
        "age", LabelFilter(None, "person", _has("age", _V)), var="x",
    )))
    got, want = evaluate(expr, modern), evaluate(by_hand, modern)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert [(r["x"].id, r["y"].id) for r in got.rows] == [
        ("1", "2"), ("1", "4"), ("1", "3"), ("4", "5"), ("4", "3"), ("6", "3"),
    ]


def test_a_union_branch_that_repeats_its_inputs_filter(modern):
    expr = compiled("g.V().has('age').union(__.has('age'), __.out())")
    assert isinstance(expr, Union)
    assert expr.left is expr.right.input  # the branch adds nothing to its input
    by_hand = Union(_has("age", _has("age", _V)), Traverse("out", None, None, None, _has("age", _V)))
    got, want = evaluate(expr, modern), evaluate(by_hand, modern)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert len(got) == 4 + 6  # the four persons with an age, then their six out-edges


def test_the_benchmark_filter_chain_plans_as_six_lines():
    from grem_algebra import render_plan
    from test_golden_eval import BENCH_QUERIES

    text = dict(BENCH_QUERIES)["bench_filter_chain"]
    assert render_plan(compiled(text)) == "\n".join([
        "filter[_=values age]",
        "  traverse-out[knows](_->_)",
        "    filter[_.age]",
        "      filter[_.name=marko]",
        "        filter[_.label=person]",
        "          V",
    ])
