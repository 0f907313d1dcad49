"""Algebra tree rendering (three styles) and static validation."""

import random
import re

import pytest

from grem_algebra import (
    CompileError,
    EvaluationError,
    compile_traversal,
    evaluate,
    modern_graph,
    parse_traversal,
    render_plan,
    validate,
)
from grem_algebra.algebra import (
    Aggregate,
    Argument,
    Dedup,
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
    introduced_vars,
)

from corpus import Q_OLDEST_KNOWN_AGE, Q_COCREATOR_30, Q_AGES_ASC, Q_UNION_CREATORS


def compiled(text, **kw):
    return compile_traversal(parse_traversal(text), **kw)


def test_render_get_vertices_ascii():
    assert render_plan(GetVertices(), "ascii") == "V"
    assert render_plan(GetEdges(), "ascii") == "E"


def test_oldest_known_age_curried_form():
    expr = compiled(Q_OLDEST_KNOWN_AGE)
    assert render_plan(expr, "curried") == "max(values_age(out_knows(has_name=marko(V_g))))"


def test_cocreator_grouped_paper_rendering():
    expr = compiled(Q_COCREATOR_30, eq7_grouping=True)
    assert render_plan(expr, "paper") == (
        "†_{name}( Π_{a,c}( σ^c_{age=30} ↓_b^c[created] σ^b_{name=lop} "
        "↑_a^b[created](V_g) ) )"
    )


def test_ages_asc_paper_rendering():
    expr = compiled(Q_AGES_ASC)
    assert render_plan(expr, "paper") == "ℜ_{⇑b}( Π_{b}( σ^b_{age} σ^a_{label=person}(V_g) ) )"


def test_union_creators_paper_rendering():
    expr = compiled(Q_UNION_CREATORS)
    assert render_plan(expr, "paper") == (
        "Π_{a,c}( ↑_a^c[created](V_g) ⊎ ↑_b^c[created](V_g) )"
    )


def test_unknown_style_rejected():
    with pytest.raises(ValueError, match="unknown plan style"):
        render_plan(GetVertices(), "fancy")


# -- validation -------------------------------------------------------------------


def test_validate_reports_unbound_projection_var():
    expr = Projection(("a",), None, GetVertices(var="b"))
    assert validate(expr) == ["unbound a in projection"]


def test_validate_accepts_eq7_tree():
    assert validate(compiled(Q_COCREATOR_30, eq7_grouping=True)) == []
    assert validate(compiled(Q_COCREATOR_30)) == []


def test_validate_join_sharing_var():
    left = Traverse("out", "knows", "a", "b", GetVertices())
    right = Traverse("out", "created", "b", "c", GetVertices())
    assert validate(Join(left, right)) == []


def test_validate_sort_and_dedup():
    base = Traverse("out", None, "a", "b", GetVertices())
    assert validate(Sort((("z", "asc"),), base)) == ["unbound z in sort"]
    assert validate(Dedup(("q",), base)) == ["unbound q in dedup"]
    assert validate(Sort((("a", "asc"),), base)) == []


def test_validate_rejects_a_sort_of_mixed_directions():
    """by(asc|desc) sets the direction of every key, so no query builds a
    sort whose keys mix directions; the evaluator sorts in one pass."""
    base = Traverse("out", None, "a", "b", GetVertices())
    assert validate(Sort((("a", "desc"), ("b", "desc")), base)) == []
    expr = Sort((("a", "asc"), ("b", "desc")), base)
    assert validate(expr) == ["mixed directions in order[a asc,b desc]"]
    with pytest.raises(EvaluationError, match=re.escape("invalid plan: mixed directions")):
        evaluate(expr, modern_graph())


def _predicate_holders(leaf):
    """Plans that hold leaf inside a selection predicate: where, not and
    and (a join of predicates), under a union, and in a nested predicate."""
    arg = Argument()
    pred = Traverse("out", None, None, None, leaf)
    return [
        Selection(pred, GetVertices()),
        Selection(pred, GetVertices(), negated=True),
        Selection(Join(Traverse("out", None, None, None, arg), pred), GetVertices()),
        Selection(Union(arg, pred), GetVertices()),
        Selection(Selection(pred, arg, negated=True), GetVertices("x")),
        Projection(("x",), None, Selection(Union(Selection(arg, leaf), arg), GetVertices("x"))),
    ]


@pytest.mark.parametrize("leaf", [GetVertices(), GetVertices("x"), GetEdges()])
def test_validate_rejects_a_source_inside_a_predicate(leaf):
    label = render_plan(leaf, "ascii")
    for expr in _predicate_holders(leaf):
        assert validate(expr) == [f"{label} inside a selection predicate"], expr
        message = f"invalid plan: {label} inside a selection predicate"
        with pytest.raises(EvaluationError, match=re.escape(message)):
            evaluate(expr, modern_graph())


def test_validate_rejects_an_argument_outside_a_predicate():
    for leaf in (Argument(), Argument("a")):
        label = render_plan(leaf, "ascii")
        for expr in (leaf, Join(leaf, GetVertices("a")), Join(GetVertices(), leaf)):
            assert validate(expr) == [f"{label} outside a selection predicate"], expr
            message = f"invalid plan: {label} outside a selection predicate"
            with pytest.raises(EvaluationError, match=re.escape(message)):
                evaluate(expr, modern_graph())
    # inside a predicate an Argument is the row under test
    assert validate(Selection(Argument("a"), GetVertices())) == []


def test_compiled_plans_have_no_shape_diagnostics():
    from test_batched_predicates import QUERIES as BATCHED_QUERIES
    from test_golden_eval import golden_queries

    for _, text in golden_queries():  # the corpus and the golden predicate queries
        for flag in (False, True):
            assert validate(compiled(text, eq7_grouping=flag)) == [], text
    clean = 0
    for text in BATCHED_QUERIES:
        try:
            expr = compiled(text)
        except CompileError:
            continue
        # group() binds key and member, so an order() after it is well-scoped
        assert validate(expr) == [], text
        clean += 1
    assert clean > 250


def test_introduced_vars():
    expr = compiled(Q_COCREATOR_30)
    assert introduced_vars(expr) == {"a", "c"} or introduced_vars(expr) >= {"a", "c"}
    assert introduced_vars(GetVertices("x")) == {"x"}


def test_compile_is_structural_equality_friendly():
    assert compiled(Q_COCREATOR_30) == compiled(Q_COCREATOR_30)
    assert compiled(Q_COCREATOR_30) != compiled(Q_COCREATOR_30, eq7_grouping=True)


# -- ascii injectivity ---------------------------------------------------------------


def _random_expr(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice([GetVertices(), GetVertices("a"), GetEdges()])
    pick = rng.randrange(10)
    child = _random_expr(rng, depth + 1)
    if pick == 0:
        return Traverse(
            rng.choice(["out", "in"]),
            rng.choice([None, "knows", "created"]),
            rng.choice([None, "a", "b"]),
            rng.choice([None, "b", "c"]),
            child,
        )
    if pick == 1:
        return PropertyFilter(
            rng.choice([None, "a"]),
            rng.choice(["age", "name"]),
            rng.choice([None, ("=", 30), (">", 29), ("=", "lop")]),
            False,
            child,
        )
    if pick == 2:
        return PropertyFilter(rng.choice([None, "b"]), "age", None, True, child)
    if pick == 3:
        return LabelFilter(rng.choice([None, "a"]), rng.choice(["person", "software"]), child)
    if pick == 4:
        return Projection(
            tuple(rng.sample(["a", "b", "c"], rng.randint(1, 2))),
            rng.choice([None, "name"]),
            child,
        )
    if pick == 5:
        return Dedup(tuple(rng.sample(["a", "b"], rng.randint(0, 2))), child)
    if pick == 6:
        return Restriction(rng.randint(0, 3), rng.randint(0, 5), child)
    if pick == 7:
        return Sort(((rng.choice([None, "a", "b"]), rng.choice(["asc", "desc"])),), child)
    if pick == 8:
        return rng.choice(
            [
                Group(rng.choice([None, "name"]), child),
                Aggregate(child),
                Selection(_random_expr(rng, depth + 1), child),
            ]
        )
    return rng.choice([Join, Union])(child, _random_expr(rng, depth + 1))


def test_ascii_rendering_injective():
    rng = random.Random(3)
    seen = {}
    for _ in range(400):
        expr = _random_expr(rng)
        text = render_plan(expr, "ascii")
        if text in seen:
            assert seen[text] == expr, f"distinct trees share rendering:\n{text}"
        seen[text] = expr


def test_all_styles_total_over_random_trees():
    rng = random.Random(4)
    for _ in range(150):
        expr = _random_expr(rng)
        for style in ("paper", "ascii", "curried"):
            assert isinstance(render_plan(expr, style), str)
