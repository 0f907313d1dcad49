"""Tokenizer and parser behavior, round-trips, and fuzz robustness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import ParseError, parse_traversal, render_traversal, tokenize
from grem_algebra.evaluator import CUR
from grem_algebra.parser import Literal, Step, StepKind, TokenKind, TraversalAST

from corpus import CORPUS, Q_OLDEST_KNOWN_AGE, Q_COCREATOR_30


def kinds(ast):
    return [s.kind for s in ast.steps]


def test_token_count_example():
    tokens = tokenize('g.V().has("name","marko")')
    assert len(tokens) == 13  # includes the EOF terminator
    assert tokens[-1].kind is TokenKind.EOF
    assert tokens[-2].kind is TokenKind.RPAREN


def test_anonymous_root_tokens():
    tokens = tokenize("__.as('a')")
    assert tokens[0].kind is TokenKind.NAME and tokens[0].value == "__"
    assert [t.kind for t in tokens[1:5]] == [
        TokenKind.DOT,
        TokenKind.NAME,
        TokenKind.LPAREN,
        TokenKind.STRING,
    ]


def test_unterminated_string():
    with pytest.raises(ParseError, match="unterminated string") as exc:
        tokenize("g.V().has('name)")
    assert exc.value.col == 11


def test_illegal_character():
    with pytest.raises(ParseError, match="illegal character") as exc:
        tokenize("g.V().has(#)")
    assert exc.value.line == 1


def test_number_tokens():
    tokens = tokenize("limit(10) has(0.5) has(-3) has(1e3)")
    values = [t.value for t in tokens if t.kind in (TokenKind.INT, TokenKind.FLOAT)]
    assert values == [10, 0.5, -3, 1000.0]


def test_integer_literal_past_the_digit_limit():
    """CPython converts integer strings of at most 4300 digits by default;
    a longer literal is a positioned ParseError, not a ValueError."""
    assert tokenize("limit(" + "9" * 4300 + ")")[2].value == int("9" * 4300)
    for literal in ("9" * 5000, "-" + "9" * 5000):
        with pytest.raises(ParseError, match="integer literal has too many digits") as exc:
            parse_traversal(f"g.V().limit({literal})")
        assert (exc.value.pos, exc.value.line, exc.value.col) == (12, 1, 13)


def test_float_literal_past_the_double_range():
    """A float literal that overflows to +-inf is a positioned ParseError:
    accepted, it would render as inf, which does not parse again.  One
    that underflows to 0.0 round-trips and stays accepted."""
    for literal in ("1e999", "-1e999", "2e308", "1.8e308"):
        with pytest.raises(ParseError, match="float literal out of range") as exc:
            parse_traversal(f"g.V().has('age',{literal})")
        assert (exc.value.pos, exc.value.line, exc.value.col) == (16, 1, 17)
    assert tokenize("has(1.5e308)")[2].value == 1.5e308
    assert tokenize("has(1e-999)")[2].value == 0.0


def test_oldest_known_age_ast():
    ast = parse_traversal(Q_OLDEST_KNOWN_AGE)
    assert not ast.anonymous
    assert kinds(ast) == [
        StepKind.SOURCE_V,
        StepKind.HAS,
        StepKind.OUT,
        StepKind.VALUES,
        StepKind.MAX,
    ]
    has = ast.steps[1]
    assert has.args == (Literal("string", "name"), Literal("string", "marko"))


def test_cocreator_ast():
    ast = parse_traversal(Q_COCREATOR_30)
    assert kinds(ast) == [StepKind.SOURCE_V, StepKind.MATCH, StepKind.SELECT, StepKind.BY]
    match = ast.steps[1]
    assert len(match.args) == 4
    for chain in match.args:
        assert isinstance(chain, TraversalAST)
        assert chain.anonymous
        assert chain.steps[0].kind is StepKind.AS


def test_by_placement():
    parse_traversal("g.V().select('a').order()")  # valid without by
    parse_traversal("g.V().as('a').select('a').by('name')")
    with pytest.raises(ParseError, match="by\\(\\) must directly follow"):
        parse_traversal("g.V().by('x')")
    with pytest.raises(ParseError, match="by\\(\\) must directly follow"):
        parse_traversal("g.V().out('knows').by('x')")


def test_unknown_step_named():
    with pytest.raises(ParseError, match="unknown step 'frobnicate'"):
        parse_traversal("g.V().frobnicate()")


@pytest.mark.parametrize(
    "text,message",
    [
        ("g.V().out('a','b')", "at most one edge label"),
        ("g.V().as()", "exactly one label"),
        ("g.V().has()", "key and an optional value"),
        ("g.V().has('k', __.out())", "has\\(\\) value must be a scalar literal"),
        ("g.V().hasLabel()", "exactly one label"),
        ("g.V().values('a','b')", "exactly one property key"),
        ("g.V().limit('x')", "one integer"),
        ("g.V().limit(-1)", "non-negative"),
        ("g.V().max(1)", "no arguments"),
        ("g.V().order(asc)", "no arguments"),
        ("g.V().select()", "at least one variable"),
        ("g.V().match()", "at least one pattern"),
        ("g.V().where('x')", "only nested traversals"),
        ("g.V().where()", "exactly one traversal"),
        ("g.V().match('x')", "only nested traversals"),
        ("g.V(1)", "no arguments"),
        ("g.V().V()", "only start a root traversal"),
        ("g.out('knows')", "must start with V"),
        ("g.V().match(g.V())", "anonymous"),
        ("__.V()", "only start a root traversal"),
        ("x.V()", "must start with 'g' or '__'"),
        ("g.V().has('a') extra", "trailing input"),
    ],
)
def test_rejections(text, message):
    with pytest.raises(ParseError, match=message):
        parse_traversal(text)


def test_errors_carry_position():
    try:
        parse_traversal("g.V().\n  frobnicate()")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col == 3
    else:
        pytest.fail("expected ParseError")


def test_string_quotes_and_escapes():
    ast = parse_traversal("g.V().has('na\\'me', \"va\\\\lue\")")
    has = ast.steps[1]
    assert has.args[0].value == "na'me"
    assert has.args[1].value == "va\\lue"


def test_directions_and_bools():
    ast = parse_traversal("g.V().select('a').order().by(desc).has('flag', true)")
    assert ast.steps[3].args[0] == Literal("direction", "desc")
    assert ast.steps[4].args[1] == Literal("bool", True)


def test_nesting_depth_cap():
    text = "g.V()" + ".where(__" * 80 + ".as('a')" + ")" * 80
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_traversal(text)


# -- round trips ------------------------------------------------------------------


@pytest.mark.parametrize("query", [q.text for q in CORPUS], ids=[q.name for q in CORPUS])
def test_corpus_round_trip(query):
    ast = parse_traversal(query)
    text = render_traversal(ast)
    assert parse_traversal(text) == ast
    # canonical form is a fixpoint
    assert render_traversal(parse_traversal(text)) == text


def _random_anonymous(rng, depth):
    steps = [Step(StepKind.AS, (Literal("string", rng.choice("abcd")),))]
    steps.extend(_random_steps(rng, depth, rng.randint(0, 3)))
    return TraversalAST(anonymous=True, steps=tuple(steps))


def _random_steps(rng, depth, count):
    steps = []
    for _ in range(count):
        choice = rng.randrange(8 if depth < 2 else 6)
        if choice == 0:
            steps.append(Step(StepKind.OUT, (Literal("string", rng.choice(["knows", "created"])),)))
        elif choice == 1:
            steps.append(Step(StepKind.IN, ()))
        elif choice == 2:
            steps.append(
                Step(
                    StepKind.HAS,
                    (
                        Literal("string", "age"),
                        rng.choice(
                            [
                                Literal("int", rng.randint(-5, 40)),
                                Literal("float", rng.random()),
                                Literal("string", 'tricky "quote\\'),
                                Literal("bool", True),
                            ]
                        ),
                    ),
                )
            )
        elif choice == 3:
            steps.append(Step(StepKind.AS, (Literal("string", rng.choice("abcd")),)))
        elif choice == 4:
            steps.append(Step(StepKind.SELECT, (Literal("string", "a"),)))
            steps.append(Step(StepKind.BY, (Literal("string", "name"),)))
        elif choice == 5:
            steps.append(Step(StepKind.ORDER, ()))
            steps.append(Step(StepKind.BY, (Literal("direction", rng.choice(["asc", "desc"])),)))
        elif choice == 6:
            chains = tuple(_random_anonymous(rng, depth + 1) for _ in range(rng.randint(1, 3)))
            steps.append(Step(StepKind.MATCH, chains))
        else:
            steps.append(Step(StepKind.WHERE, (_random_anonymous(rng, depth + 1),)))
    return steps


def test_random_ast_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        steps = [Step(StepKind.SOURCE_V, ())] + _random_steps(rng, 0, rng.randint(1, 5))
        ast = TraversalAST(anonymous=False, steps=tuple(steps))
        text = render_traversal(ast)
        assert parse_traversal(text) == ast, text


def test_parse_deterministic():
    assert parse_traversal(Q_COCREATOR_30) == parse_traversal(Q_COCREATOR_30)


def _fuzz_inputs(count, seed):
    rng = random.Random(seed)
    printable = "gV.()'\",_ab01 \t\n__ashelctordumx"
    for i in range(count):
        mode = i % 3
        if mode == 0:
            yield bytes(rng.randrange(256) for _ in range(rng.randint(0, 60))).decode(
                "latin-1"
            )
        elif mode == 1:
            yield "".join(rng.choice(printable) for _ in range(rng.randint(0, 80)))
        else:
            base = list("g.V().has('name','marko').out('knows')")
            for _ in range(rng.randint(1, 6)):
                pos = rng.randrange(len(base))
                base[pos] = chr(rng.randrange(32, 127))
            yield "".join(base)


def test_fuzz_smoke():
    numbers = [f"g.V().has('age',{n})" for n in ("1e999", "-1e999", "2e308", "1.5e308", "1e-999")]
    for text in [*_fuzz_inputs(500, seed=11), *numbers]:
        try:
            ast = parse_traversal(text)
        except ParseError as exc:
            assert exc.pos >= 0
            assert exc.line >= 1
        else:
            assert parse_traversal(render_traversal(ast)) == ast, text


def test_step_limit_counts_nested_steps():
    from grem_algebra.parser import MAX_STEPS

    # the source step and every nested step count toward the limit
    inner = ".out()" * (MAX_STEPS - 2)
    parse_traversal("g.V().where(__" + inner + ")")
    with pytest.raises(ParseError, match=f"more than {MAX_STEPS} steps") as info:
        parse_traversal("g.V().where(__" + inner + ".out())")
    assert info.value.col == len("g.V().where(__" + inner + ".") + 1


@pytest.mark.parametrize("label", ["", CUR])
def test_as_rejects_an_empty_or_reserved_label(label):
    # CUR names the position in result rows: a variable of that name would overwrite it
    for text, column in (
        (f"g.V().as('{label}').out().as('b').select('{label}','b')", 7),
        (f"g.V().match(__.as('a').out().as('{label}')).select('a')", 30),
    ):
        with pytest.raises(ParseError, match="is empty or reserved") as exc:
            parse_traversal(text)
        assert (exc.value.line, exc.value.col) == (1, column)


# -- positions and whitespace ------------------------------------------------------

# Valid queries whose tokens cover every token kind, the keywords and both quotes.
_VALID = [q.text for q in CORPUS] + [
    "g.V().has('age',-29.5e-1).as('a').out('knows').values('name').dedup().limit(3)",
    'g.V().hasLabel("person").has("flag",true).as("x").select("x").order().by(desc)',
    "g.E().union(__.as('a').in(), __.not(__.has('k', 'it\\'s'))).group().by('lang')",
]
_GAPS = ["", " ", "  ", "\t", "\n", "\r\n", " \n\t", "\r", "\n\n"]


def _lexemes(text):
    return [t.text for t in tokenize(text)[:-1]]


def _join(lexemes, gaps):
    return "".join(gap + lexeme for gap, lexeme in zip(gaps, lexemes)) + gaps[-1]


@st.composite
def _spaced(draw):
    """A valid query with a drawn whitespace run before, between and after its tokens."""
    lexemes = _lexemes(draw(st.sampled_from(_VALID)))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(lexemes) + 1, max_size=len(lexemes) + 1))
    return lexemes, _join(lexemes, gaps)


@st.composite
def _mutated(draw):
    """A spaced valid query with a few tokens inserted, replaced or deleted."""
    lexemes, _ = draw(_spaced())
    pieces = st.sampled_from(["g", "__", "V", "out", "frob", ".", "(", ")", ",", "'a'", "7", "-", "#", "'", "é", "²", "\\"])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lexemes)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or at == len(lexemes):
            lexemes.insert(at, draw(pieces))
        elif op == "replace":
            lexemes[at] = draw(pieces)
        else:
            del lexemes[at]
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(lexemes) + 1, max_size=len(lexemes) + 1))
    return _join(lexemes, gaps)


def _line_col(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_spaced().map(lambda spaced: spaced[1]), _mutated()))
def test_every_position_is_the_line_and_column_of_its_offset(text):
    """A token's and an error's (line, col) are the newlines before its
    offset plus one and its distance from the last of them."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        assert (exc.line, exc.col) == _line_col(text, exc.pos)
        return
    assert [(t.line, t.col) for t in tokens] == [_line_col(text, t.pos) for t in tokens]
    assert tokens[-1].pos == len(text)
    try:
        parse_traversal(text)
    except ParseError as exc:
        assert (exc.line, exc.col) == _line_col(text, exc.pos)


@settings(max_examples=300, deadline=None)
@given(_spaced())
def test_whitespace_between_tokens_changes_nothing(spaced):
    lexemes, text = spaced
    plain = parse_traversal("".join(lexemes))
    assert parse_traversal(text) == plain
    assert render_traversal(parse_traversal(text)) == render_traversal(plain)
    assert [(t.kind, t.text, t.value) for t in tokenize(text)] == [(t.kind, t.text, t.value) for t in tokenize("".join(lexemes))]


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # each text holds a syntax error before its lexical one
        ("g.X()#", "illegal character '#'", 1, 6),
        ("g.V().out(\n  'a'  #", "illegal character '#'", 2, 8),
        ("g.V()..out('a', 'b\nc')", "unterminated string", 1, 17),
        ("x.V(1).has(1e999)", "float literal out of range", 1, 12),
    ],
)
def test_a_lexical_error_wins_over_an_earlier_syntax_error(text, message, line, col):
    with pytest.raises(ParseError, match=message) as exc:
        parse_traversal(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_a_lone_surrogate_right_after_a_string_body_is_an_illegal_character():
    with pytest.raises(ParseError) as info:
        parse_traversal("g.V().has('name','ab\ud800c')")
    assert str(info.value) == "illegal character '\\ud800' at line 1, column 21"
