"""Algebra tree rendering (three styles) and static validation."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    OPERATORS,
    PLAN_STYLES,
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
    static_columns,
)
from grem_algebra.parser import MAX_NESTING_DEPTH, MAX_STEPS

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
    assert validate(Sort(("z",), "asc", base)) == ["unbound z in sort"]
    assert validate(Dedup(("q",), base)) == ["unbound q in dedup"]
    assert validate(Sort(("a",), "asc", base)) == []


def test_validate_accepts_a_sort_of_several_keys():
    """by(asc|desc) sets the one direction of all the keys."""
    base = Traverse("out", None, "a", "b", GetVertices())
    assert validate(Sort(("a", "b"), "desc", base)) == []


def test_validate_rejects_a_value_on_a_value_extraction():
    """bind_value=True extracts a property; a value would be a test it never makes."""
    expr = PropertyFilter(None, "age", 30, True, GetVertices())
    assert validate(expr) == ["filter[_=values age] cannot also test age=30"]
    with pytest.raises(EvaluationError, match="invalid plan: filter"):
        evaluate(expr, modern_graph())
    assert validate(PropertyFilter(None, "age", None, True, GetVertices())) == []
    assert validate(PropertyFilter(None, "age", 30, False, GetVertices())) == []


@pytest.mark.parametrize(
    "make",
    [
        lambda walked, anchor: LabelFilter(None, "person", walked, anchor),
        lambda walked, anchor: PropertyFilter(None, "age", None, False, walked, anchor),
    ],
)
def test_an_anchored_filter_reads_its_anchors_element(make):
    """has()/hasLabel() anchored at a variable test its element, not the
    position, and move the position onto it, as a traverse's anchor does."""
    walked = Traverse("out", None, None, "b", GetVertices("a"))  # the position is b
    on_a, on_b = make(walked, "a"), make(walked, "b")
    assert validate(on_a) == [] and static_columns(on_a) == ("a", "b")
    assert render_plan(on_a).splitlines()[0].startswith("filter[a.")
    g = modern_graph()

    def names(expr):
        rows = evaluate(PropertyFilter(None, "name", None, True, expr), g)
        return [(r["a"].id, r["b"].id) for r in rows.rows], rows.values()

    # every a is a person with an age, of b only vadas and josh
    assert names(on_a) == (
        [("1", "2"), ("1", "4"), ("1", "3"), ("4", "5"), ("4", "3"), ("6", "3")],
        ["marko", "marko", "marko", "josh", "josh", "peter"],
    )
    assert names(on_b) == ([("1", "2"), ("1", "4")], ["vadas", "josh"])
    assert names(on_b) == names(make(walked, None))


def test_an_extraction_binds_its_absent_anchor():
    """An extraction anchored at a variable its input lacks binds it to the
    position and reads it there, as a traverse's anchor does."""
    only_a = Projection(("a",), None, Traverse("out", None, None, "b", GetVertices("a")))
    expr = PropertyFilter("x", "age", None, True, only_a, "b")
    assert validate(expr) == []
    assert static_columns(expr) == ("a", "b", "x")
    assert static_columns(Traverse("out", None, "b", None, only_a)) == ("a", "b")
    # select('a') moved the position onto a, so b is bound to a
    rows = evaluate(expr, modern_graph()).rows
    assert [(r["a"].id, r["b"].id, r["x"]) for r in rows] == [
        ("1", "1", 29), ("1", "1", 29), ("1", "1", 29), ("4", "4", 32), ("4", "4", 32),
        ("6", "6", 35),
    ]


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


def test_diagnostics_come_in_program_order():
    """An operator's inputs' faults before its own, the first input's
    before the second's, and a predicate's at its Selection, after the
    faults of the Selection's input."""
    expr = Sort(
        ("z",), "asc",
        Join(
            Selection(Traverse("out", None, None, None, GetVertices()), Argument()),
            PropertyFilter(None, "age", 30, True, GetVertices()),
        ),
    )
    diags = [
        "arg outside a selection predicate",
        "V inside a selection predicate",
        "filter[_=values age] cannot also test age=30",
        "unbound z in sort",
    ]
    assert validate(expr) == diags
    with pytest.raises(EvaluationError, match=re.escape("invalid plan: " + "; ".join(diags))):
        evaluate(expr, modern_graph())


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


def test_validate_reads_only_the_columns_the_input_carries():
    """A variable a projection or a group dropped is no column: reading it
    is unbound, though an operator below bound it."""
    hop = Traverse("out", None, None, "b", GetVertices("a"))
    only_a = Projection(("a",), None, hop)
    for expr, diag in [
        (Sort(("b",), "asc", only_a), "unbound b in sort"),
        (Dedup(("b",), only_a), "unbound b in dedup"),
        (Projection(("b",), None, only_a), "unbound b in projection"),
        (Projection(("a",), None, Group(None, GetVertices("a"))), "unbound a in projection"),
        (Selection(Projection(("b",), None, Argument()), only_a), "unbound b in projection"),
    ]:
        assert validate(expr) == [diag], expr
        with pytest.raises(EvaluationError, match=re.escape(f"invalid plan: {diag}")):
            evaluate(expr, modern_graph())
    # a predicate reads the columns of the rows under test, the outer ones too
    assert validate(Selection(Projection(("a",), None, Argument()), only_a)) == []
    assert validate(Selection(Dedup(("b",), Argument()), hop)) == []
    nested = Selection(
        Sort(("b",), "asc", Argument()), Traverse("out", None, None, None, Argument())
    )
    assert validate(Selection(nested, hop)) == []
    # a nested predicate's rows under test are its selection's input rows
    dropped = Selection(nested.predicate, Projection(("a",), None, Argument()))
    assert validate(Selection(dropped, hop)) == ["unbound b in sort"]


def test_evaluated_columns_are_the_static_columns():
    from test_batched_predicates import QUERIES as BATCHED_QUERIES
    from test_golden_eval import golden_queries

    g = modern_graph()
    checked = 0
    for text in [text for _, text in golden_queries()] + BATCHED_QUERIES:
        for flag in (False, True):
            try:
                expr = compiled(text, eq7_grouping=flag)
                columns = evaluate(expr, g).columns
            except (CompileError, EvaluationError):
                continue
            assert columns == static_columns(expr), text
            checked += 1
    assert checked > 400


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
        # keys and values that read as another filter's text unless quoted
        return PropertyFilter(
            rng.choice([None, "a"]),
            rng.choice(["age", "label", "a", "a=b", "a.age", "age]"]),
            rng.choice([None, 30, 29, True, "lop", "person", "b", "29", "true", "30.0"]),
            False,
            child,
            rng.choice([None, "a", "b"]),
        )
    if pick == 2:
        return PropertyFilter(rng.choice([None, "a", "b"]), rng.choice(["age", "a.age"]), None,
                              True, child, rng.choice([None, "a", "b"]))
    if pick == 3:
        return LabelFilter(rng.choice([None, "a"]), rng.choice(["person", "software"]), child,
                           rng.choice([None, "a", "b"]))
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
        return Sort(rng.choice([(), ("a",), ("b",)]), rng.choice(["asc", "desc"]), child)
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
    for _ in range(3000):
        expr = _random_expr(rng)
        text = render_plan(expr, "ascii")
        if text in seen:
            assert seen[text] == expr, f"distinct trees share rendering:\n{text}"
        seen[text] = expr


def _tree_walk_ascii(expr):
    """Reference ascii plan: one line per operator in pre-order, indented
    by its depth, its predicate and then its inputs below it, a shared
    input under each reader; a walk over the tree's fields."""
    lines = []
    todo = [(expr, 0)]
    while todo:
        node, depth = todo.pop()
        op = OPERATORS[type(node)]
        lines.append("  " * depth + op.ascii(node))
        fields = op.inputs if op.predicate is None else (op.predicate,) + op.inputs
        for field in reversed(fields):
            todo.append((getattr(node, field), depth + 1))
    return "\n".join(lines)


_STEPS = [
    ".out('knows')", ".in()", ".has('name','marko')", ".hasLabel('person')", ".has('age')",
    ".dedup()", ".limit(2)", ".order().by(desc)", ".out().as('a')",
]


def _traversals(depth):
    """Step chains, each step plain or one holding traversals of depth - 1:
    union() (its branches read one input object), where(), not() or
    and()."""
    plain = st.sampled_from(_STEPS)
    if not depth:
        return st.lists(plain, max_size=3).map("".join)
    inner = _traversals(depth - 1).map(lambda steps: "__" + (steps or ".out()"))
    nested = st.one_of(
        st.tuples(st.sampled_from(["union", "and"]), st.lists(inner, min_size=2, max_size=2)),
        st.tuples(st.sampled_from(["where", "not"]), st.lists(inner, min_size=1, max_size=1)),
    ).map(lambda step: f".{step[0]}({', '.join(step[1])})")
    return st.lists(st.one_of(plain, nested), max_size=4).map("".join)


_MATCH = st.sampled_from([
    "", ".match(__.as('a').out('knows').as('b'), __.as('c').in().as('d'))",
    ".match(__.as('a').out().as('b'), __.as('b').has('name').as('c'))",
])
_TAIL = st.sampled_from(["", ".values('name')", ".select('a')", ".values('age').max()", ".group().by('name')"])


@settings(max_examples=300, deadline=None)
@given(_traversals(2), _MATCH, _traversals(1), _TAIL)
def test_the_ascii_plan_is_the_tree_walk(head, match, steps, tail):
    """render_plan folds the ascii style over the plan's program; it writes
    what the tree walk writes, a union's shared input under each branch.
    A query that does not compile, or whose plan is too long to write, is
    skipped."""
    text = "g.V()" + head + match + steps + tail
    try:
        expr = compiled(text)
        rendered = render_plan(expr, "ascii")
    except CompileError:
        return
    assert rendered == _tree_walk_ascii(expr)


@pytest.mark.parametrize("one,other,lines", [
    (PropertyFilter(None, "label", "person", False, GetVertices()),
     LabelFilter(None, "person", GetVertices()),
     ("filter[_.'label'=person]", "filter[_.label=person]")),
    (PropertyFilter(None, "age", 29, False, GetVertices()),
     PropertyFilter(None, "age", "29", False, GetVertices()),
     ("filter[_.age=29]", "filter[_.age='29']")),
    (PropertyFilter(None, "a=b", None, False, GetVertices()),
     PropertyFilter(None, "a", "b", False, GetVertices()),
     ("filter[_.'a=b']", "filter[_.a=b]")),
    (PropertyFilter(None, "flag", True, False, GetVertices()),
     PropertyFilter(None, "flag", "true", False, GetVertices()),
     ("filter[_.flag=true]", "filter[_.flag='true']")),
    (PropertyFilter(None, "a]->x", None, False, GetVertices()),
     PropertyFilter("x]", "a", None, False, GetVertices()),
     ("filter[_.'a]->x']", "filter[_.a]->x]")),
    (PropertyFilter(None, "a.age", None, True, GetVertices()),
     PropertyFilter(None, "age", None, True, GetVertices("a"), "a"),
     ("filter[_=values 'a.age']", "filter[_=values a.age]")),
])
def test_filter_lines_quote_what_would_read_as_another_filter(one, other, lines):
    assert tuple(render_plan(e, "ascii").split("\n")[0] for e in (one, other)) == lines


def test_curried_plans_write_a_key_as_the_ascii_plan_does():
    """has('a=b') and has('a','b') differ in the curried plan as in the
    ascii one; the paper notation, the source paper's, keeps has('age')
    and values('age') alike by design."""
    one, other = compiled("g.V().has('a=b')"), compiled("g.V().has('a','b')")
    assert [render_plan(e, "curried") for e in (one, other)] == ["has_'a=b'(V_g)", "has_a=b(V_g)"]
    assert render_plan(compiled("g.V().values('a.b')"), "curried") == "values_'a.b'(V_g)"
    has, values = compiled("g.V().has('age')"), compiled("g.V().values('age')")
    assert render_plan(has, "paper") == render_plan(values, "paper") == "σ_{age}(V_g)"
    assert render_plan(has, "curried") != render_plan(values, "curried")


def test_all_styles_total_over_random_trees():
    rng = random.Random(4)
    for _ in range(150):
        expr = _random_expr(rng)
        for style in ("paper", "ascii", "curried"):
            assert isinstance(render_plan(expr, style), str)


# -- stack depth ----------------------------------------------------------------------


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_chain_takes_a_constant_stack_depth():
    """A chain of 5,000 traverses, built directly and so past MAX_STEPS,
    validates, gives its columns, renders in every style and evaluates
    within 40 frames of the caller: no walk over a plan takes a frame per
    plan level."""
    levels = 5000
    assert levels > MAX_STEPS
    expr = GetVertices()
    for _ in range(levels):
        expr = Traverse("out", None, None, None, expr)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        diags = validate(expr)
        columns = static_columns(expr)
        texts = [render_plan(expr, style) for style in PLAN_STYLES]
        rows = len(evaluate(expr, modern_graph()))
    finally:
        sys.setrecursionlimit(limit)
    assert (diags, columns, rows) == ([], (), 0)
    paper, ascii_, curried = texts
    assert paper == "↑ " * (levels - 1) + "↑(V_g)"
    assert ascii_.count("\n") == levels and ascii_.endswith("\n" + "  " * levels + "V")
    assert curried == "out(" * levels + "V_g" + ")" * levels


def _nested_where(levels):
    """levels where() steps, each predicate a where() followed by three
    out() steps: a predicate path of four plan levels per where()."""
    if not levels:
        return "__.out()"
    return f"__.where({_nested_where(levels - 1)}).out().out().out()"


def test_the_deepest_where_nesting_takes_a_few_frames_per_level():
    """About the deepest where() nesting the parser admits (63 levels,
    about 250 plan levels) parses, compiles, validates, renders in every
    style and evaluates within 40 frames of the caller plus 3 per nesting
    level: a predicate is the only plan part that takes stack frames."""
    levels = MAX_NESTING_DEPTH - 2
    text = f"g.V().where({_nested_where(levels)})"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40 + 3 * levels)
    try:
        expr = compiled(text)
        assert validate(expr) == []
        for style in PLAN_STYLES:
            assert render_plan(expr, style)
        assert static_columns(expr) == ()
        evaluate(expr, modern_graph())
    finally:
        sys.setrecursionlimit(limit)
