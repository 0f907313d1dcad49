"""Operator semantics, path algebra, and bag-level invariants."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import (
    BindingSet,
    EvaluationError,
    compile_traversal,
    evaluate,
    load_graph,
    parse_traversal,
    to_jsonl,
    to_table,
)
from grem_algebra.algebra import (
    Aggregate,
    Dedup,
    GetEdges,
    GetVertices,
    Group,
    Join,
    Projection,
    PropertyFilter,
    Restriction,
    Sort,
    Traverse,
    Union,
)
from grem_algebra import evaluator
from grem_algebra.evaluator import CUR
from grem_algebra.property_graph import EdgeRef, Graph, VertexRef, sort_key, values_equal

from reference import (
    EMPTY_PATH, Path, element_property, linear_rows, multiset_union, out_adjacent, path_concat,
    path_join,
)
from corpus import Q_OLDEST_KNOWN_AGE, Q_COCREATOR_30, Q_COCREATOR_32, Q_AGES_ASC, random_graph


def run(text, g, **kw):
    return evaluate(compile_traversal(parse_traversal(text), **kw), g)


# -- whole-query examples -----------------------------------------------------


def test_oldest_known_age_returns_32(modern):
    result = run(Q_OLDEST_KNOWN_AGE, modern)
    # brute force over the fixture: marko knows vadas (27) and josh (32)
    neighbors = [v for _, v in out_adjacent(modern, "1", "knows")]
    expected = max(element_property(modern, v, "age") for v in neighbors)
    assert expected == 32
    assert result.values() == [32]


def test_cocreator_30_is_empty(modern):
    assert run(Q_COCREATOR_30, modern).rows == []


def test_cocreator_32_names(modern):
    result = run(Q_COCREATOR_32, modern)
    got = Counter((r["a"], r["c"]) for r in result.rows)
    assert got == Counter([("marko", "josh"), ("josh", "josh"), ("peter", "josh")])


def test_ages_asc_sorted(modern):
    result = run(Q_AGES_ASC, modern)
    assert [r["b"] for r in result.rows] == [27, 29, 32, 35]


# -- path algebra ----------------------------------------------------------------


def test_path_concat_worked_example():
    p = Path((("i", "α", "j"),))
    r = Path((("j", "β", "k"),))
    joined = path_concat(p, r)
    assert joined.spliced() == ("i", "α", "j", "β", "k")
    assert joined.length == p.length + r.length == 2


def test_path_concat_identity():
    p = Path((("v1", "e1", "v2"),))
    assert path_concat(EMPTY_PATH, p) == p
    assert path_concat(p, EMPTY_PATH) == p


def test_path_concat_mismatch():
    with pytest.raises(EvaluationError, match="endpoint mismatch"):
        path_concat(Path((("i", "α", "j"),)), Path((("k", "β", "m"),)))


def test_path_join_worked_example():
    P = [Path((("v1", "e1", "v2"),)), Path((("v2", "e2", "v3"),))]
    R = [Path((("v2", "e2", "v3"),)), Path((("v2", "e2", "v1"),))]
    joined = path_join(P, R)
    assert sorted(p.flatten() for p in joined) == sorted(
        [
            ("v1", "e1", "v2", "v2", "e2", "v3"),
            ("v1", "e1", "v2", "v2", "e2", "v1"),
        ]
    )


def test_path_join_identities():
    P = [Path((("v1", "e1", "v2"),))]
    assert path_join(P, [EMPTY_PATH]) == P
    assert path_join([], P) == []


def test_path_length_additivity_and_associativity():
    rng = random.Random(5)
    for _ in range(100):
        # build three chainable segments over a small vertex universe
        cut1, cut2 = sorted(rng.sample(range(1, 7), 2))
        vertices = [f"v{i}" for i in range(8)]
        edges = [(vertices[i], f"e{i}", vertices[i + 1]) for i in range(7)]
        p = Path(tuple(edges[:cut1]))
        q = Path(tuple(edges[cut1:cut2]))
        r = Path(tuple(edges[cut2:]))
        assert path_concat(p, q).length == p.length + q.length
        assert path_concat(path_concat(p, q), r) == path_concat(p, path_concat(q, r))


# -- multiset union -----------------------------------------------------------------


def _pairs(rows):
    return BindingSet(("x", "y"), [{"x": a, "y": b} for a, b in rows])


def test_multiset_union_worked_example():
    a = _pairs([(1, 2), (3, 4), (3, 4), (4, 5)])
    b = _pairs([(1, 2), (3, 4)])
    out = multiset_union(a, b)
    counts = Counter((r["x"], r["y"]) for r in out.rows)
    assert counts == Counter({(1, 2): 2, (3, 4): 3, (4, 5): 1})
    assert len(out) == len(a) + len(b)


def test_multiset_union_identity_and_doubling():
    a = _pairs([(1, 2), (1, 2), (7, 8)])
    empty = BindingSet(("x", "y"), [])
    assert Counter(multiset_union(a, empty).canonical()) == Counter(a.canonical())
    doubled = multiset_union(a, a)
    assert Counter(doubled.canonical()) == Counter(
        {key: 2 * n for key, n in Counter(a.canonical()).items()}
    )


def test_multiset_union_schema_mismatch():
    with pytest.raises(EvaluationError, match="schema mismatch"):
        multiset_union(_pairs([(1, 2)]), BindingSet(("x",), [{"x": 1}]))


# -- operator semantics ----------------------------------------------------------


def test_get_vertices_order_and_multiplicity(modern):
    result = evaluate(GetVertices(), modern)
    assert [r[CUR].id for r in result.rows] == ["1", "2", "3", "4", "5", "6"]
    assert evaluate(GetEdges(), modern).rows[0][CUR].id == "10"  # lexicographic


def test_filter_absent_key_drops_row(modern):
    result = run('g.V().has("age",29)', modern)
    assert [r[CUR].id for r in result.rows] == ["1"]
    # softwares have no age: existence filter keeps only persons
    assert len(run('g.V().has("age")', modern).rows) == 4


def test_filter_cross_type_drops_row(modern):
    assert run('g.V().has("age","29")', modern).rows == []
    assert run('g.V().has("name",29)', modern).rows == []


def test_comparator_predicates(modern):
    """A property filter holds the value its key must equal: "=" is the one
    comparison the query language has."""
    base = GetVertices()
    equal = PropertyFilter(None, "age", 29, False, base)
    assert {r[CUR].id for r in evaluate(equal, modern).rows} == {"1"}


def test_traverse_multiset_per_edge(modern):
    result = run('g.V().out("created")', modern)
    assert Counter(r[CUR].id for r in result.rows) == Counter({"3": 3, "5": 1})


def test_traverse_from_non_vertex():
    g = random_graph(0)
    expr = Traverse("out", None, None, None, GetEdges())
    with pytest.raises(EvaluationError, match="requires a vertex"):
        evaluate(expr, g)


@pytest.mark.parametrize("query", [
    "g.V().group().out()",
    "g.V().group().where(__.out())",
    "g.V().group().by('lang').not(__.out())",
])
def test_traverse_from_group_rows_raises(modern, query):
    """group() rows have no position; a predicate's rows under test keep
    them, so a traversal inside where()/not() raises as one outside does."""
    with pytest.raises(EvaluationError, match="traverse from an unbound position"):
        run(query, modern)


def test_where_over_group_rows_drops_rows_without_an_anchor(modern):
    """group() rows bind no z and have no position: anchored at z, the
    predicate's Argument has no element for any of them and drops them."""
    assert len(run("g.V().group()", modern)) == 6
    assert run("g.V().group().where(__.as('z').out())", modern).rows == []


def test_and_joins_its_branches_on_an_edge_column(modern):
    """Both branches bind e to an edge: the join inside the predicate keys
    on that edge column."""
    plan = compile_traversal(
        parse_traversal("g.E().as('e').and(__.as('e').has('weight'), __.as('e').has('weight'))")
    )
    assert type(plan.predicate) is Join
    result = evaluate(plan, modern)
    assert [r["e"].id for r in result.rows] == ["10", "11", "12", "7", "8", "9"]
    assert all(r["e"] == r[CUR] for r in result.rows)


def test_traverse_bound_target_filters(modern):
    # a -created-> b and a -knows-> b simultaneously: no such pair in the fixture
    first = Traverse("out", "created", "a", "b", GetVertices())
    both = Traverse("out", "knows", "a", "b", first)
    assert evaluate(both, modern).rows == []
    # but a knows-edge whose target created something exists (marko -> josh)
    chained = Traverse("out", "created", "b", "c", Traverse("out", "knows", "a", "b", GetVertices()))
    assert len(evaluate(chained, modern).rows) == 2  # josh created lop and ripple


def test_projection_cardinality_preserved(modern):
    inner = Traverse("out", "created", "a", "b", GetVertices())
    projected = evaluate(Projection(("b",), None, inner), modern)
    assert len(projected.rows) == len(evaluate(inner, modern).rows) == 4
    assert projected.columns == ("b",)


def test_projection_value_key_absent_drops(modern):
    inner = Traverse("out", "created", "a", "b", GetVertices())
    aged = evaluate(Projection(("b",), "age", inner), modern)
    assert aged.rows == []  # software vertices carry no age
    named = evaluate(Projection(("b",), "name", inner), modern)
    assert Counter(r["b"] for r in named.rows) == Counter({"lop": 3, "ripple": 1})


@pytest.mark.parametrize(
    "text,expected",
    [
        # marko created lop, once; from marko again, knows reaches vadas and josh
        ("g.V().has('name','marko').as('a').out('created').select('a').out('knows')",
         ['{"a":{"vertex":"1"}}'] * 2),
        ("g.V().has('name','marko').as('a').out('created').select('a').has('name','marko')",
         ['{"a":{"vertex":"1"}}']),
        # josh created ripple and lop; from josh again, each row reaches lop
        ("g.V().has('name','josh').as('a').out('created').select('a')"
         ".where(__.out('created').has('name','lop'))",
         ['{"a":{"vertex":"4"}}'] * 2),
    ],
)
def test_select_of_one_variable_moves_the_position(modern, text, expected):
    assert to_jsonl(run(text, modern)).splitlines() == expected


def test_select_of_one_variable_by_key_moves_the_position_to_the_values(modern):
    result = run("g.V().has('name','josh').as('a').out('created').select('a').by('age')", modern)
    assert result.rows == [{"a": 32, CUR: 32}, {"a": 32, CUR: 32}]
    both = run("g.V().has('name','josh').as('a').out('created').as('b').select('a','b')", modern)
    assert [r[CUR].id for r in both.rows] == ["5", "3"]  # two columns keep the position


def test_dedup_first_occurrence(modern):
    inner = Traverse("out", "created", "a", "b", GetVertices())
    deduped = evaluate(Dedup(("b",), inner), modern)
    assert [r["b"].id for r in deduped.rows] == ["3", "5"]
    assert [r["a"].id for r in deduped.rows] == ["1", "4"]  # first occurrence kept


def test_dedup_whole_row(modern):
    result = run('g.V().out("created").in("created").dedup()', modern)
    assert len(result.rows) < len(run('g.V().out("created").in("created")', modern).rows)


def test_restriction_windows(modern):
    base = GetVertices()
    assert len(evaluate(Restriction(0, 2, base), modern).rows) == 2
    assert len(evaluate(Restriction(4, 10, base), modern).rows) == 2
    assert len(evaluate(Restriction(9, 5, base), modern).rows) == 0
    got = evaluate(Restriction(1, 2, base), modern)
    assert [r[CUR].id for r in got.rows] == ["2", "3"]


def test_sort_stable_and_directional(modern):
    asc = evaluate(Sort((), "asc", GetVertices()), modern)
    assert [r[CUR].id for r in asc.rows] == ["1", "2", "3", "4", "5", "6"]
    desc = evaluate(Sort((), "desc", GetVertices()), modern)
    assert [r[CUR].id for r in desc.rows] == ["6", "5", "4", "3", "2", "1"]
    # stability: equal keys keep input order
    inner = Traverse("out", "created", "a", "b", GetVertices())
    by_target = evaluate(Sort(("b",), "asc", inner), modern)
    assert [(r["a"].id, r["b"].id) for r in by_target.rows] == [
        ("1", "3"),
        ("4", "3"),
        ("6", "3"),
        ("4", "5"),
    ]


def test_sort_is_permutation(modern):
    inner = Traverse("out", "created", "a", "b", GetVertices())
    plain = evaluate(inner, modern)
    ordered = evaluate(Sort(("a",), "desc", inner), modern)
    assert Counter(plain.canonical()) == Counter(ordered.canonical())


def _tuple_sort(expr, cols, predicate, g, arg, src):
    """Reference Sort: one stable sort on a tuple of every key column's
    order keys."""
    columns, kinds = src.columns(expr.vars) if expr.vars else ([src.pos], [src.pos_kind])
    keys = evaluator._keys(list(map(evaluator._order_keys, columns, kinds)), None, len(src.pos))
    index = sorted(range(len(keys)), key=keys.__getitem__, reverse=expr.direction != "asc")
    return evaluator._gather(src, index)


# mixed types, absent values and few distinct values, so that ties are common
_MIXED = st.one_of(
    st.none(), st.integers(-2, 2), st.sampled_from([-0.0, 0.0, 1.0, 2.5]), st.booleans(),
    st.sampled_from(["", "a", "b"]), st.sampled_from([(0,), (1,), (2,)]),
    st.sampled_from([EdgeRef("e1"), EdgeRef("e2")]),
)
_VALUE_COLUMNS = [_MIXED, st.integers(0, 3), st.sampled_from(["a", "b"]), st.booleans()]


@st.composite
def _sort_inputs(draw):
    n = draw(st.integers(0, 25))
    data, kinds = [], []
    for _ in range(draw(st.integers(1, 3))):
        ranks = draw(st.booleans())
        values = st.integers(0, 4) if ranks else draw(st.sampled_from(_VALUE_COLUMNS))
        data.append(draw(st.lists(values, min_size=n, max_size=n)))
        kinds.append(evaluator.RANKS if ranks else evaluator.VALUES)
    return data, kinds, draw(st.sampled_from(["asc", "desc"]))


@settings(max_examples=500, deadline=None)
@given(_sort_inputs())
def test_sorting_key_by_key_orders_as_one_tuple_sort(case):
    data, kinds, direction = case
    cols = tuple(f"c{i}" for i in range(len(data)))
    rel = evaluator._Rel(cols, data, kinds, list(range(len(data[0]))), evaluator.VALUES)
    expr = Sort(cols, direction, GetVertices())
    got = evaluator._sort(expr, cols, None, None, None, rel)
    assert got.pos == _tuple_sort(expr, cols, None, None, None, rel).pos


ORDER_QUERIES = [
    "g.V().as('a').out().as('b').select('b','a').order().by(desc)",
    "g.V().match(__.as('a').values('age').as('b')).select('b','a').order().by(asc)",
    "g.V().as('a').union(__.out().as('b'), __.values('age').as('b')).select('b','a').order().by(desc)",
    "g.V().as('a').union(__.out().as('b'), __.in().as('c')).order().by(asc)",
    "g.V().out().group().by('name').order().by(desc)",
    # inside a predicate: no tag is a key
    "g.V().where(__.as('a').out().as('b').select('b','a').order().by(desc).limit(1).has('lang')).values('name')",
    "g.V().not(__.as('a').in().as('b').select('a','b').order().by(desc).limit(2).has('age', 29))",
    "g.V().where(__.as('a').union(__.out().as('b'), __.values('name').as('b')).select('b','a')"
    ".order().by(asc).limit(1).hasLabel('person'))",
]


@pytest.mark.parametrize("seed", range(20))
def test_key_by_key_sort_answers_as_the_tuple_sort(seed, monkeypatch):
    g = random_graph(seed)
    plans = [compile_traversal(parse_traversal(text)) for text in ORDER_QUERIES]
    got = [evaluate(plan, g).rows for plan in plans]
    monkeypatch.setitem(evaluator._OPERATORS, Sort, _tuple_sort)
    assert got == [evaluate(plan, g).rows for plan in plans]


def test_group_by_property(modern):
    grouped = evaluate(Group("lang", GetVertices()), modern)
    assert grouped.columns == ("key", "member")
    assert [(r["key"], r["member"].id) for r in grouped.rows] == [
        ("java", "3"),
        ("java", "5"),
    ]


def test_group_key_names_a_property_not_a_column(modern):
    # by('name') reads the position's name, not the vertex as('name') bound
    grouped = run("g.V().as('name').group().by('name')", modern)
    assert [(r["key"], r["member"].id) for r in grouped.rows] == [
        ("josh", "4"), ("lop", "3"), ("marko", "1"), ("peter", "6"), ("ripple", "5"),
        ("vadas", "2"),
    ]


def test_group_members_are_the_positions(modern):
    # group() holds the grouped elements, as Gremlin does: an as() before
    # the walk leaves the members alone
    expected = [("lop", "3"), ("lop", "3"), ("lop", "3"), ("ripple", "5")]
    for text in ("g.V().out('created').group().by('name')",
                 "g.V().as('a').out('created').group().by('name')"):
        grouped = run(text, modern)
        assert [(r["key"], r["member"].id) for r in grouped.rows] == expected, text
    grouped = run("g.V().as('a').out('created').group()", modern)
    assert [(r["key"].id, r["member"].id) for r in grouped.rows] == [
        ("3", "3"), ("3", "3"), ("3", "3"), ("5", "5"),
    ]


def test_max_reduces_the_position(modern):
    # the sole column a is not what max() reads
    assert run("g.V().as('a').out().values('age').max()", modern).values() == [32]
    kept = run("g.V().as('a').where(__.out().values('age').max())", modern)
    assert [r["a"].id for r in kept.rows] == ["1"]
    with pytest.raises(EvaluationError, match="single-column"):
        run("g.V().group().by('lang').max()", modern)
    with pytest.raises(EvaluationError, match=r"non-numeric value v\[1\]"):
        run("g.V().as('a').max()", modern)


def test_group_bare(modern):
    values = PropertyFilter(None, "age", None, True, GetVertices())
    grouped = evaluate(Group(None, values), modern)
    assert [r["key"] for r in grouped.rows] == [27, 29, 32, 35]


def test_group_then_order_sorts_by_key_then_member(modern):
    # group() binds key and member, so a later order() sorts on both
    text = "g.V().out().group().by('lang')"
    assert [(r["key"], r["member"].id) for r in run(text, modern).rows] == [
        ("java", "3"), ("java", "5"), ("java", "3"), ("java", "3"),
    ]
    assert [(r["key"], r["member"].id) for r in run(text + ".order()", modern).rows] == [
        ("java", "3"), ("java", "3"), ("java", "3"), ("java", "5"),
    ]
    for seed in (0, 7):
        g = random_graph(seed)
        for text in ("g.V().in().group().by('name')", "g.V().union(__.out(), __.values('age')).group()"):
            rows = [(r["key"], r["member"]) for r in run(text, g).rows]
            by_key = sorted(rows, key=lambda kv: (sort_key(kv[0]), sort_key(kv[1])))
            for direction, expected in (("asc", by_key), ("desc", by_key[::-1])):
                got = run(f"{text}.order().by({direction})", g)
                assert [(r["key"], r["member"]) for r in got.rows] == expected, text
                # and it only permutes the grouped rows
                assert Counter(got.canonical()) == Counter(run(text, g).canonical())


def test_join_on_shared_column(modern):
    left = Traverse("out", "created", "a", "b", GetVertices())
    right = Traverse("out", "knows", "x", "a", GetVertices())
    joined = evaluate(Join(left, right), modern)
    # creators known by someone: marko knows josh; josh created lop and ripple
    assert Counter((r["x"].id, r["a"].id, r["b"].id) for r in joined.rows) == Counter(
        [("1", "4", "3"), ("1", "4", "5")]
    )


def _reference_join(left: list[dict], right: list[dict], shared: list[str]) -> list[dict]:
    """A nested-loop join of dict rows in left-major order: rows meet where
    both bind every shared column to equal values (values_equal); the
    right row's bindings, its position among them, win."""
    return [
        {**lrow, **rrow} for lrow in left for rrow in right
        if all(c in lrow and c in rrow and values_equal(lrow[c], rrow[c]) for c in shared)
    ]


@pytest.mark.parametrize("seed", range(30))
def test_hash_join_on_a_value_column_with_absent_bindings(seed):
    """Each side's shared column a is a value column that is absent (None)
    in the rows of its second union branch; an absent binding meets
    nothing, not even another absent one."""
    g = random_graph(seed)
    left = Union(Traverse("out", None, "a", "b", GetVertices()), Traverse("out", None, "x", "b", GetVertices()))
    right = Union(Traverse("in", None, "a", "c", GetVertices()), Traverse("in", None, "y", "c", GetVertices()))
    joined = evaluate(Join(left, right), g)
    assert joined.rows == _reference_join(evaluate(left, g).rows, evaluate(right, g).rows, ["a"])


# The second as() of a variable meets its rank column with the traverse's
# rank position: a cycle, kept where the two are the same vertex.
CYCLIC_AS = {
    "g.V().as('a').out().as('a')": [("as", "a"), ("out",), ("as", "a")],
    "g.V().as('a').out().out().as('a')": [("as", "a"), ("out",), ("out",), ("as", "a")],
    "g.V().as('a').out('knows').as('b').in('created').as('a')":
        [("as", "a"), ("out", "knows"), ("as", "b"), ("in", "created"), ("as", "a")],
    "g.V().as('a').out().as('b').out().as('c').in().as('b')":
        [("as", "a"), ("out",), ("as", "b"), ("out",), ("as", "c"), ("in",), ("as", "b")],
}


@pytest.mark.parametrize("seed", range(30))
def test_cyclic_as_over_rank_columns_matches_the_reference(seed, monkeypatch):
    g = random_graph(seed)
    met = []
    bind = evaluator._bind

    def spy(g, rel, var):
        if var in rel.cols[:len(rel.data)]:
            i = rel.cols.index(var)
            met.append((rel.kinds[i], rel.pos_kind, rel.data[i] is rel.pos))
        return bind(g, rel, var)

    monkeypatch.setattr(evaluator, "_bind", spy)
    for text, steps in CYCLIC_AS.items():
        assert run(text, g).rows == linear_rows(g, steps), text
    assert (evaluator.RANKS, evaluator.RANKS, False) in met


def test_union_equal_schemas_adds(modern):
    knows = Traverse("out", "knows", "a", "b", GetVertices())
    created = Traverse("out", "created", "a", "b", GetVertices())
    merged = evaluate(Union(knows, created), modern)
    assert len(merged.rows) == 6


def test_union_ragged_then_projection(modern):
    knows = Traverse("out", "knows", "a", "b", GetVertices())
    created = Traverse("out", "created", "x", "y", GetVertices())
    merged = evaluate(Union(knows, created), modern)
    assert set(merged.columns) == {"a", "b", "x", "y"}
    assert len(merged.rows) == 6
    kept = evaluate(Projection(("a", "b"), None, Union(knows, created)), modern)
    assert len(kept.rows) == 2  # only the knows branch binds a/b


def test_aggregate_max(modern):
    ages = PropertyFilter(None, "age", None, True, GetVertices())
    assert evaluate(Aggregate(ages), modern).values() == [35]


def test_max_empty_is_empty(modern):
    expr = compile_traversal(parse_traversal('g.V().has("age",99).values("age").max()'))
    assert evaluate(expr, modern).rows == []


def test_max_over_strings_errors(modern):
    with pytest.raises(EvaluationError, match="non-numeric"):
        run('g.V().values("name").max()', modern)


def test_max_mixed_numeric_coerces(modern):
    ages = PropertyFilter(None, "age", None, True, GetVertices())
    weights = PropertyFilter(None, "weight", None, True, GetEdges())
    mixed = evaluate(Aggregate(Union(ages, weights)), modern)
    assert mixed.values() == [35.0]
    assert isinstance(mixed.values()[0], float)


# ages 1.5, 10**400 and -10**400; x reaches 1.5 and -10**400, y 1.5 and 10**400
PAST_FLOAT_RANGE = {
    "vertices": [
        {"id": "a", "label": "p", "properties": {"age": 1.5}},
        {"id": "b", "label": "p", "properties": {"age": 10**400}},
        {"id": "c", "label": "p", "properties": {"age": -10**400}},
        {"id": "x", "label": "p", "properties": {"name": "x"}},
        {"id": "y", "label": "p", "properties": {"name": "y"}},
    ],
    "edges": [
        {"id": "xa", "label": "k", "outV": "x", "inV": "a"},
        {"id": "xc", "label": "k", "outV": "x", "inV": "c"},
        {"id": "ya", "label": "k", "outV": "y", "inV": "a"},
        {"id": "yb", "label": "k", "outV": "y", "inV": "b"},
    ],
}


def test_max_over_floats_and_an_int_past_the_float_range_errors():
    """A maximum over ints and floats is a float; an int past the float
    range has none, so max() raises without printing the int, per row
    inside where() too.  Such an int below the maximum is compared exactly."""
    g = load_graph(json.dumps(PAST_FLOAT_RANGE))
    for text in (
        "g.V().values('age').max()",
        "g.V().has('name','y').out().values('age').max()",
        "g.V().where(__.out().values('age').max())",
    ):
        with pytest.raises(EvaluationError, match="^max\\(\\) over floats and an int past the float range$"):
            run(text, g)
    assert run("g.V().has('name','x').out().values('age').max()", g).values() == [1.5]
    kept = run("g.V().has('name','x').where(__.out().values('age').max())", g)
    assert [v.id for v in kept.values()] == ["x"]
    assert run(f"g.V().has('age',{10**400}).values('age').max()", g).values() == [10**400]


def test_validate_enforced(modern):
    with pytest.raises(EvaluationError, match="invalid plan"):
        evaluate(Projection(("z",), None, GetVertices()), modern)


# -- bag invariants over random inputs -----------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_dedup_idempotent_random(seed):
    g = random_graph(seed)
    inner = Traverse("out", None, "a", "b", GetVertices())
    once = evaluate(Dedup((), inner), g)
    twice = evaluate(Dedup((), Dedup((), inner)), g)
    assert Counter(once.canonical()) == Counter(twice.canonical())
    assert len(once.rows) <= len(evaluate(inner, g).rows)


@pytest.mark.parametrize("seed", range(15))
def test_restriction_cardinality_random(seed):
    rng = random.Random(seed + 100)
    g = random_graph(seed)
    inner = Traverse("out", None, "a", "b", GetVertices())
    n = len(evaluate(inner, g).rows)
    for _ in range(8):
        skip = rng.randint(0, 20)
        take = rng.randint(0, 20)
        got = len(evaluate(Restriction(skip, take, inner), g).rows)
        assert got == min(take, max(0, n - skip))


@pytest.mark.parametrize("seed", range(15))
def test_projection_cardinality_random(seed):
    g = random_graph(seed)
    inner = Traverse("out", None, "a", "b", GetVertices())
    n = len(evaluate(inner, g).rows)
    assert len(evaluate(Projection(("a", "b"), None, inner), g).rows) == n


# -- serialization ------------------------------------------------------------------


def test_jsonl_output(modern):
    result = run('g.V().match(__.as("a").out("created").as("b")).select("a","b")', modern)
    lines = to_jsonl(result).splitlines()
    assert lines[0] == '{"a":{"vertex":"1"},"b":{"vertex":"3"}}'
    assert len(lines) == 4


def test_jsonl_bare_value(modern):
    assert to_jsonl(run(Q_OLDEST_KNOWN_AGE, modern)) == '{"value":32}'


def test_table_output(modern):
    result = run(Q_AGES_ASC, modern)
    lines = to_table(result).splitlines()
    assert lines[0].strip() == "b"
    assert [l.strip() for l in lines[2:]] == ["27", "29", "32", "35"]


def test_table_bare_values(modern):
    assert to_table(run(Q_OLDEST_KNOWN_AGE, modern)) == "32"


def test_table_empty(modern):
    assert to_table(run(Q_COCREATOR_30, modern)) == ""


def test_join_equality_is_numeric_and_type_strict():
    """Join columns agree by values_equal: 1 joins 1.0, true joins only
    itself, and a shared column takes the right side's value."""
    g = load_graph(
        json.dumps(
            {
                "vertices": [
                    {"id": "1", "label": "n", "properties": {"x": 1}},
                    {"id": "2", "label": "n", "properties": {"x": 1.0}},
                    {"id": "3", "label": "n", "properties": {"x": True}},
                ],
                "edges": [],
            }
        )
    )
    text = (
        "g.V().match(__.as('a').has('x').values('x').as('v'), "
        "__.as('b').has('x').values('x').as('v')).select('a','b','v')"
    )
    assert to_jsonl(run(text, g)).splitlines() == [
        '{"a":{"vertex":"1"},"b":{"vertex":"1"},"v":1}',
        '{"a":{"vertex":"1"},"b":{"vertex":"2"},"v":1.0}',
        '{"a":{"vertex":"2"},"b":{"vertex":"1"},"v":1}',
        '{"a":{"vertex":"2"},"b":{"vertex":"2"},"v":1.0}',
        '{"a":{"vertex":"3"},"b":{"vertex":"3"},"v":true}',
    ]


def test_a_value_bound_twice_must_agree():
    """values(k).as(x) with x already bound keeps the rows whose value
    equals x's by values_equal: 29 equals 29.0, true is not 1, and a
    vertex without the key has no value to agree."""
    vertices = [
        {"id": "1", "label": "n", "properties": {"age": 29}},
        {"id": "2", "label": "n", "properties": {"age": 29.0}},
        {"id": "3", "label": "n", "properties": {"age": True}},
        {"id": "4", "label": "n", "properties": {"age": 1}},
        {"id": "5", "label": "n", "properties": {}},
    ]
    edges = [
        {"id": "e1", "label": "knows", "outV": "1", "inV": "2"},
        {"id": "e2", "label": "knows", "outV": "3", "inV": "4"},
        {"id": "e3", "label": "knows", "outV": "1", "inV": "5"},
    ]
    g = load_graph(json.dumps({"vertices": vertices, "edges": edges}))
    text = (
        "g.V().match(__.as('a').out('knows').as('b'), __.as('a').values('age').as('x'), "
        "__.as('b').values('age').as('x')).select('a','b')"
    )
    assert to_jsonl(run(text, g)).splitlines() == ['{"a":{"vertex":"1"},"b":{"vertex":"2"}}']


def _people_graph(n: int):
    rng = random.Random(n)
    vertices = [
        {"id": f"p{i}", "label": "person",
         "properties": {"name": f"n{rng.randrange(50)}", "age": rng.randrange(20, 60)}}
        for i in range(n)
    ]
    edges = [
        {"id": f"k{j}", "label": "knows", "outV": f"p{rng.randrange(n)}", "inV": f"p{rng.randrange(n)}"}
        for j in range(2 * n)
    ]
    return Graph(vertices, edges)


def test_concurrent_queries_on_one_fresh_graph():
    """Threads racing to build a graph's neighbour entries, edge refs,
    property columns, rank indexes and vertex texts all answer right."""
    import sys
    import threading

    from corpus import CORPUS

    reads = [
        "g.V().has('name','anna').values('age')",
        "g.V().has('age').hasLabel('person').values('name')",
        "g.V().has('lang','python').in('knows').values('name')",
        "g.V().as('a').out().as('b').select('a','b').by('name')",
        "g.V().hasLabel('person').group().by('age')",
    ]
    texts = [q.text for q in CORPUS] + [
        "g.V().where(__.out().dedup().limit(1).has('lang')).values('name')",
        "g.E().values('weight').max()",
    ] + reads
    # the small graph runs every query three times; on the larger one a
    # property column takes long enough to build that other threads reach it
    first_reads = [
        "g.V().values('age')",
        "g.V().has('name','n7').as('a').out('knows').as('b').select('a','b').by('age')",
        "g.V().hasLabel('person').values('age')",
        "g.V().has('age',41.0).values('name')",
        "g.V().has('name','n7').as('a').out('knows').as('b').select('a','b')",
    ]
    cases = [(lambda: random_graph(50), texts, 3), (lambda: _people_graph(20000), first_reads, 1)]
    for make, queries, reps in cases:
        expected = [to_jsonl(run(text, make())) for text in queries]
        g = make()  # no neighbour entry, edge ref, property column or rank index built yet
        assert set(g._vertex_texts) == {None}  # nor any vertex text
        results: list[list[str]] = []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=60)  # all threads reach the fresh graph together
            results.append([to_jsonl(run(text, g)) for _ in range(reps) for text in queries])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [expected * reps] * 8


def test_jsonl_encoding_matches_json_dumps():
    from grem_algebra import EdgeRef, VertexRef

    values = [
        VertexRef("1"), VertexRef('q"é'), EdgeRef("7"), "naïve ☃", 'quote"\\', "", 0, -3,
        2**70, 0.1, -0.0, 1e-7, 1e22, 2.5, True, False,
    ]
    rows = [{"a": v, "b": w, CUR: v} for v in values for w in values[::-1]]
    result = BindingSet(("a", "b", "a"), rows)
    expected = "\n".join(
        json.dumps({"a": _as_json_object(r["a"]), "b": _as_json_object(r["b"])}, separators=(",", ":")) for r in rows
    )
    assert to_jsonl(result) == expected
    ragged = BindingSet(("a", "b"), [{"a": 1}, {"b": VertexRef("2")}, {}])
    assert to_jsonl(ragged) == '{"a":1}\n{"b":{"vertex":"2"}}\n{}'
    # every value, in rows that each miss one column in turn
    cols = ("a", "b", "c")
    rows = [{c: v for c in cols if c != gone} for v in values for gone in cols]
    expected = "\n".join(
        json.dumps({c: _as_json_object(v) for c, v in r.items()}, separators=(",", ":"))
        for r in rows
    )
    assert to_jsonl(BindingSet(cols, rows)) == expected
    bare = BindingSet((), [{CUR: v} for v in values] + [{}])
    assert to_jsonl(bare).splitlines() == [
        json.dumps({"value": _as_json_object(v)}, separators=(",", ":")) for v in values
    ] + ['{"value":null}']
    # columns of a single scalar type each, written by their type's text function
    for kind in (str, int, float, bool):
        same = [v for v in values if type(v) is kind]
        rows = [{"a": v, "b": w} for v in same for w in same[::-1]]
        expected = "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)
        assert to_jsonl(BindingSet(("a", "b"), rows)) == expected
        expected = "\n".join(json.dumps({"value": v}, separators=(",", ":")) for v in same)
        assert to_jsonl(BindingSet((), [{CUR: v} for v in same])) == expected


def test_jsonl_of_value_columns_whose_objects_repeat():
    """Value columns that mix types are written value by value: one vertex
    token object, one edge object and equal strings that are distinct
    objects each repeat, next to 1, 1.0 and True, which are equal but
    write three texts."""
    doc = {
        "vertices": [
            {"id": "1", "label": "p", "properties": {"name": "same"}},
            {"id": "2", "label": "p", "properties": {"name": "same"}},
            {"id": "3", "label": "p", "properties": {"name": 1}},
            {"id": "4", "label": "p", "properties": {"name": 1.0}},
            {"id": "5", "label": "p", "properties": {"name": True}},
        ],
        "edges": [{"id": "e1", "label": "k", "outV": "1", "inV": "3"},
                  {"id": "e2", "label": "k", "outV": "2", "inV": "3"}],
    }
    g = load_graph(json.dumps(doc))

    def plan(*texts):
        exprs = [compile_traversal(parse_traversal(t)) for t in texts]
        while len(exprs) > 1:
            exprs[:2] = [Union(exprs[0], exprs[1])]
        return exprs[0]

    schemaless = plan("g.E()", "g.E()", "g.V().out()", "g.V().values('name')")
    named = plan("g.E().as('a')", "g.E().as('a')", "g.V().out().as('a')", "g.V().as('a').select('a').by('name')")
    for expr in (schemaless, named, Union(named, schemaless)):
        result = evaluate(expr, g)
        column = result._rel.get("a")[0] if result.columns else result._rel.pos
        tokens, edges = [v for v in column if type(v) is tuple], [v for v in column if type(v) is EdgeRef]
        strings = [v for v in column if v == "same"]
        assert tokens == [(2,), (2,)] and tokens[0] is tokens[1]
        assert len(edges) == 4 and len(set(map(id, edges))) == 2
        assert len(strings) == 2 and strings[0] is not strings[1]
        expected = [
            {c: _as_json_object(r[c]) for c in result.columns if c in r} if result.columns
            else {"value": _as_json_object(r[CUR])}
            for r in result.rows
        ]
        assert to_jsonl(result) == "\n".join(json.dumps(r, separators=(",", ":")) for r in expected)


def _as_json_object(v):
    from grem_algebra import EdgeRef, VertexRef

    if isinstance(v, VertexRef):
        return {"vertex": v.id}
    if isinstance(v, EdgeRef):
        return {"edge": v.id}
    return v


def test_binding_set_equality_and_repr(modern):
    """A set evaluate returns equals a caller-built set of the same rows,
    never a value that is not a set, and shows its schema and size."""
    got = run("g.V().as('a')", modern)
    refs = [VertexRef(str(i)) for i in range(1, 7)]
    assert got == BindingSet(("a",), [{"a": r, CUR: r} for r in refs])
    assert got != BindingSet(("a",), [{"a": r} for r in refs])
    assert (got == 1) is False
    assert repr(got) == "BindingSet(columns=('a',), 6 rows)"
