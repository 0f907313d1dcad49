"""Lexer and parser for the declarative (match-based) Gremlin subset.

The accepted grammar is a fluent method chain:

    g.V().match(__.as('a').out('created').as('b'), ...).select('a').by('name')

Root traversals start with ``g.V()`` or ``g.E()``; anonymous traversals
(arguments of match/union/where/not/and) start with ``__``.  Step names
outside the supported set are rejected with a positioned error, as is any
arity violation.  The parser is total: any input yields either an AST or a
ParseError carrying line/column.

The lexer, _lex, runs the lexical grammar _LEXICON with re.finditer over
the whole text before parsing, so the first lexical error anywhere wins
over an earlier syntax error.  It fills three flat lists, per token its
kind (a TokenKind value), value and start offset, ending with EOF.  The
parser, _Parser, walks them by index and looks each step up by its name in
one table, _STEPS.  An offset becomes a line and column only when a
ParseError is raised; tokenize is a view building Tokens from the lists.

Two size limits bound a query.  Nested traversals may be at most
MAX_NESTING_DEPTH levels deep: the parser, the compiler and every walk
over a selection predicate (validate, evaluate, render) recurse a few
frames per nesting level, and this keeps them inside Python's recursion
limit.  A query may hold at most MAX_STEPS steps, counting the steps of
nested traversals and the source step.  This bounds a plan's program,
which lists a shared input once, not its rows or its text (render_plan).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import ParseError

MAX_NESTING_DEPTH = 64
MAX_STEPS = 256


# -- tokens ------------------------------------------------------------------


class TokenKind(enum.Enum):
    NAME = "name"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    STRING = "string"
    INT = "int"
    FLOAT = "float"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object
    pos: int
    line: int
    col: int


_PUNCTUATION = {".": "dot", "(": "lparen", ")": "rparen", ",": "comma"}

# The lexical grammar, one named alternative per token class, tried in
# order.  Digits are ASCII only: int() rejects some that str.isdigit() takes
# ('¹').  \w also matches numerals such as '²', which a name may not hold;
# _lex checks non-ASCII names exactly.  A string holds no newline and no lone
# surrogate, which no output can encode, and escapes only a backslash or quote.
_BODY = {q: rf"[^{q}\\\n\ud800-\udfff]*(?:\\[\\'\"][^{q}\\\n\ud800-\udfff]*)*" for q in "'\""}
_LEXICON = re.compile(
    r"(?P<NAME>[^\W0-9]\w*)"
    r"|(?P<SPACE>[ \t\r\n]+)"
    r"|(?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    "|(?P<STRING>" + "|".join(q + body + q for q, body in _BODY.items()) + ")"
    r"|(?P<PUNCTUATION>[.(),])"
    r"|(?P<OTHER>.)"
    r"|(?P<EOF>\Z)",  # matched once, at the end of the text
    re.DOTALL,
)
_STRING_BODY = {q: re.compile(body) for q, body in _BODY.items()}
_ESCAPE = re.compile(r"\\(.)")


def _error(text: str, msg: str, pos: int) -> ParseError:
    """A ParseError at offset pos of text, its line and column worked out."""
    return ParseError(msg, pos, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _lex(text: str) -> tuple[list[str], list[object], list[int]]:
    """The kind, value and start offset of every token, ending with EOF."""
    kinds: list[str] = []
    values: list[object] = []
    starts: list[int] = []
    for m in _LEXICON.finditer(text):
        group, lexeme = m.lastgroup, m.group()
        if group == "PUNCTUATION":
            kind, value = _PUNCTUATION[lexeme], None
        elif group == "NAME":
            if not lexeme.isascii():
                for k, ch in enumerate(lexeme):
                    if not (ch.isalpha() or ch == "_" or (k and "0" <= ch <= "9")):
                        raise _error(text, f"illegal character {ch!r}", m.start() + k)
            kind, value = "name", lexeme
        elif group == "STRING":
            body = lexeme[1:-1]
            kind, value = "string", _ESCAPE.sub(r"\1", body) if "\\" in body else body
        elif group == "SPACE":
            continue
        elif group == "NUMBER":
            kind = "float" if "." in lexeme or "e" in lexeme or "E" in lexeme else "int"
            try:
                value = float(lexeme) if kind == "float" else int(lexeme)
            except ValueError:  # past the interpreter's int digit limit
                raise _error(text, "integer literal has too many digits", m.start()) from None
            if kind == "float" and math.isinf(value):  # rendered as inf, which does not parse again
                raise _error(text, "float literal out of range", m.start())
        elif group == "EOF":
            kind, value = "eof", None
        elif lexeme in _STRING_BODY:  # a quote opening no complete string
            j = _STRING_BODY[lexeme].match(text, m.start() + 1).end()
            if text.startswith("\\", j) and j + 1 < len(text):
                raise _error(text, f"unsupported escape '\\{text[j + 1]}'", j)
            if "\ud800" <= text[j:j + 1] <= "\udfff":
                raise _error(text, f"illegal character {text[j]!r}", j)
            raise _error(text, "unterminated string", m.start())
        else:
            raise _error(text, f"illegal character {lexeme!r}", m.start())
        kinds.append(kind)
        values.append(value)
        starts.append(m.start())
    return kinds, values, starts


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens, ending with EOF: a view over _lex's lists."""
    tokens: list[Token] = []
    line, line_start, seen = 1, 0, 0
    for kind, value, pos in zip(*_lex(text)):
        line += text.count("\n", seen, pos)
        line_start = max(line_start, text.rfind("\n", seen, pos) + 1)
        seen = pos
        lexeme = _LEXICON.match(text, pos).group()  # type: ignore[union-attr]
        tokens.append(Token(TokenKind(kind), lexeme, value, pos, line, pos - line_start + 1))
    return tokens


# -- AST ---------------------------------------------------------------------


class StepKind(enum.Enum):
    SOURCE_V = "V"
    SOURCE_E = "E"
    MATCH = "match"
    AS = "as"
    OUT = "out"
    IN = "in"
    HAS = "has"
    HAS_LABEL = "hasLabel"
    VALUES = "values"
    WHERE = "where"
    SELECT = "select"
    BY = "by"
    DEDUP = "dedup"
    ORDER = "order"
    GROUP = "group"
    LIMIT = "limit"
    UNION = "union"
    NOT = "not"
    AND = "and"
    MAX = "max"


@dataclass(frozen=True)
class Literal:
    """A scalar step argument.  kind: string|int|float|bool|direction."""

    kind: str
    value: object


StepArg = Union[Literal, "TraversalAST"]


@dataclass(frozen=True)
class Step:
    kind: StepKind
    args: tuple[StepArg, ...]


@dataclass(frozen=True)
class TraversalAST:
    anonymous: bool
    steps: tuple[Step, ...]


# -- step table and literal arguments -----------------------------------------

# A literal token's kind is its Literal's kind; a keyword reads as one Literal.
_KEYWORDS = {"true": Literal("bool", True), "false": Literal("bool", False),
             "asc": Literal("direction", "asc"), "desc": Literal("direction", "desc")}

_TRAVERSAL = frozenset({"traversal"})  # nested traversals only
_STRING = frozenset({"string"})

# Per step name: its kind, the fewest and the most arguments, the argument
# kinds allowed (Literal kinds, or "traversal"; None where the step's rule
# checks them or it takes none), its wrong-count message and its rule.
_STEPS: dict[str, tuple[StepKind, int, float, frozenset[str] | None, str, str | None]] = {
    row[0].value: row
    for row in (
        (StepKind.SOURCE_V, 0, 0, None, "V() takes no arguments", "source"),
        (StepKind.SOURCE_E, 0, 0, None, "E() takes no arguments", "source"),
        (StepKind.MATCH, 1, math.inf, _TRAVERSAL, "match() needs at least one pattern", None),
        (StepKind.AS, 1, 1, _STRING, "as() takes exactly one label", "as"),
        (StepKind.OUT, 0, 1, _STRING, "out() takes at most one edge label", None),
        (StepKind.IN, 0, 1, _STRING, "in() takes at most one edge label", None),
        (StepKind.HAS, 1, 2, None, "has() takes a key and an optional value", "has"),
        (StepKind.HAS_LABEL, 1, 1, _STRING, "hasLabel() takes exactly one label", None),
        (StepKind.VALUES, 1, 1, _STRING, "values() takes exactly one property key", None),
        (StepKind.WHERE, 1, 1, _TRAVERSAL, "where() takes exactly one traversal argument", None),
        (StepKind.SELECT, 1, math.inf, _STRING, "select() needs at least one variable", None),
        (StepKind.BY, 1, 1, frozenset({"string", "direction"}), "by() takes exactly one argument", "by"),
        (StepKind.DEDUP, 0, math.inf, _STRING, "", None),
        (StepKind.ORDER, 0, 0, None, "order() takes no arguments", None),
        (StepKind.GROUP, 0, 0, None, "group() takes no arguments", None),
        (StepKind.LIMIT, 1, 1, None, "limit() takes exactly one integer", "limit"),
        (StepKind.UNION, 1, math.inf, _TRAVERSAL, "union() needs at least one branch", None),
        (StepKind.NOT, 1, 1, _TRAVERSAL, "not() takes exactly one traversal argument", None),
        (StepKind.AND, 1, math.inf, _TRAVERSAL, "and() needs at least one traversal argument", None),
        (StepKind.MAX, 0, 0, None, "max() takes no arguments", None),
    )
}

_SOURCES = (StepKind.SOURCE_V, StepKind.SOURCE_E)
_BY_FOLLOWS = (StepKind.SELECT, StepKind.ORDER, StepKind.GROUP)


def _check_step(row: tuple, args: list[StepArg], starts_root: bool, prev: list[Step]) -> str | None:
    """The message for a step its table row or its rule rejects, else None."""
    kind, fewest, most, allowed, wrong_count, rule = row
    if rule == "source" and not starts_root:
        return f"{kind.value}() may only start a root traversal"
    if rule == "by" and (not prev or prev[-1].kind not in _BY_FOLLOWS):
        return "by() must directly follow select(), order(), or group()"
    if not fewest <= len(args) <= most:
        return wrong_count
    if allowed is not None:
        for a in args:
            if (a.kind if type(a) is Literal else "traversal") not in allowed:
                what = "nested traversals" if allowed is _TRAVERSAL else f"{'/'.join(sorted(allowed))} arguments"
                return f"{kind.value}() accepts only {what}"
    if rule == "as" and args[0].value in ("", "@"):  # type: ignore[union-attr]
        # "@" names the position column of result rows
        return f"as() label {args[0].value!r} is empty or reserved"  # type: ignore[union-attr]
    if rule == "has" and (type(args[0]) is not Literal or args[0].kind != "string"):
        return "has() key must be a string"
    if rule == "has" and len(args) == 2 and (type(args[1]) is not Literal or args[1].kind == "direction"):
        return "has() value must be a scalar literal"
    if rule == "limit" and (type(args[0]) is not Literal or args[0].kind != "int"):
        return wrong_count
    if rule == "limit" and args[0].value < 0:  # type: ignore[operator]
        return "limit() must be non-negative"
    return None


# -- parser ------------------------------------------------------------------


class _Parser:
    """The grammar over _lex's lists.  Each grammar function takes the index
    of its first token and returns what it read with the index after it."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values, self.starts = _lex(text)
        self.steps = 0

    def error(self, msg: str, i: int) -> ParseError:
        return _error(self.text, msg, self.starts[i])

    def found(self, i: int) -> str:
        return _LEXICON.match(self.text, self.starts[i]).group()  # type: ignore[union-attr]

    def expected(self, what: str, i: int) -> ParseError:
        found = self.found(i)
        return self.error(f"expected {what}, found {found!r}" if found else f"expected {what}, found end of input", i)

    def chain(self, i: int, anonymous: bool, depth: int) -> tuple[TraversalAST, int]:
        if depth > MAX_NESTING_DEPTH:
            raise self.error("traversal nesting too deep", i)
        kinds, values = self.kinds, self.values
        if kinds[i] != "dot":
            raise self.expected("'.'", i)
        steps: list[Step] = []
        while kinds[i] == "dot":
            name = i + 1
            if kinds[name] != "name":
                raise self.expected("step name", name)
            self.steps += 1
            if self.steps > MAX_STEPS:
                raise self.error(f"traversal has more than {MAX_STEPS} steps", name)
            row = _STEPS.get(values[name])  # type: ignore[arg-type]
            if row is None:
                raise self.error(f"unknown step {values[name]!r}", name)
            if kinds[name + 1] != "lparen":
                raise self.expected("'('", name + 1)
            i = name + 2
            args: list[StepArg] = []
            if kinds[i] != "rparen":
                while True:
                    kind = kinds[i]
                    arg = Literal(kind, values[i]) if kind in ("string", "int", "float") else _KEYWORDS.get(values[i])  # type: ignore[arg-type]
                    if arg is not None:
                        i += 1
                    elif kind == "name" and values[i] == "__":
                        arg, i = self.chain(i + 1, True, depth + 1)
                    else:
                        raise self.bad_argument(i, row[0])
                    args.append(arg)
                    if kinds[i] != "comma":
                        break
                    i += 1
                if kinds[i] != "rparen":
                    raise self.expected("')'", i)
            msg = _check_step(row, args, not steps and not anonymous, steps)
            if msg is not None:
                raise self.error(msg, name)
            steps.append(Step(row[0], tuple(args)))
            i += 1
        if not anonymous and steps[0].kind not in _SOURCES:
            raise self.error("root traversal must start with V() or E()", i)
        return TraversalAST(anonymous, tuple(steps)), i

    def bad_argument(self, i: int, kind: StepKind) -> ParseError:
        """The error for token i, read as an argument of a step of this kind."""
        value = self.values[i] if self.kinds[i] == "name" else None
        if value == "g" and kind is StepKind.MATCH:
            return self.error("match() patterns must be anonymous traversals (start with '__')", i)
        if value == "g":
            return self.error("nested traversals must be anonymous (start with '__')", i)
        what = f"identifier {value!r}" if value else f"token {self.found(i)!r}"
        return self.error(f"unexpected {what} in arguments", i)


def parse_traversal(text: str) -> TraversalAST:
    """Parse query text to a TraversalAST, or raise a positioned ParseError."""
    p = _Parser(text)
    head = p.values[0] if p.kinds[0] == "name" else None
    if head not in ("g", "__"):
        raise p.error("traversal must start with 'g' or '__'", 0)
    ast, i = p.chain(1, head == "__", 0)
    if p.kinds[i] != "eof":
        raise p.error(f"unexpected trailing input {p.found(i)!r}", i)
    return ast


# -- canonical rendering -----------------------------------------------------


def _render_literal(lit: Literal) -> str:
    if lit.kind == "string":
        escaped = str(lit.value).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if lit.kind == "bool":
        return "true" if lit.value else "false"
    if lit.kind == "direction":
        return str(lit.value)
    return repr(lit.value)


def render_traversal(ast: TraversalAST) -> str:
    """Canonical text form: double quotes, no whitespace.

    Re-parsing the output yields an AST equal to the input.
    """
    head = "__" if ast.anonymous else "g"
    parts = [head]
    for step in ast.steps:
        rendered_args = ",".join(
            render_traversal(a) if isinstance(a, TraversalAST) else _render_literal(a)
            for a in step.args
        )
        parts.append(f"{step.kind.value}({rendered_args})")
    return ".".join(parts)
