"""Tokenizer and parser for the declarative (match-based) Gremlin subset.

The accepted grammar is a fluent method chain:

    g.V().match(__.as('a').out('created').as('b'), ...).select('a').by('name')

Root traversals start with ``g.V()`` or ``g.E()``; anonymous traversals
(arguments of match/union/where/not/and) start with ``__``.  Step names
outside the supported set are rejected with a positioned error, as is any
arity violation.  The parser is total: any input yields either an AST or a
ParseError carrying line/column.

Two tables state the grammar; the code around them only reads them.

- The lexical grammar, _LEXICON: one regular expression with a named
  alternative per token class.  tokenize runs it with re.finditer and
  takes a token's column as its offset from the last newline.
- The step signatures, _SIGNATURES: per step, its fewest and most
  arguments, the argument kinds it allows (Literal kinds, or nested
  traversals only) and its wrong-count message.  check_step applies the
  row, then the five rules no row can state: V()/E() only as the first
  step of a root traversal, by() only after select()/order()/group(),
  the kinds of has()'s key and value, no empty or reserved as() label,
  and a non-negative limit().

Literal arguments and the keywords true/false/asc/desc are read from one
more table, _LITERALS.

Two size limits keep every later stage (compile, validate, evaluate,
render) inside Python's recursion limit: nested traversals may be at most
MAX_NESTING_DEPTH levels deep, and a query may hold at most MAX_STEPS
steps, counting the steps of nested traversals and the source step.
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


_PUNCTUATION = {".": TokenKind.DOT, "(": TokenKind.LPAREN, ")": TokenKind.RPAREN, ",": TokenKind.COMMA}

# The lexical grammar, one named alternative per token class, tried in
# order.  Digits are ASCII only: int() rejects some characters str.isdigit()
# accepts (e.g. '¹').  \w also matches Unicode numerals such as '²', which a
# name may not hold; tokenize checks non-ASCII names exactly.  A string
# holds no newline and no lone surrogate, which no output can encode, and
# escapes only a backslash or a quote.
_BODY = {q: rf"[^{q}\\\n\ud800-\udfff]*(?:\\[\\'\"][^{q}\\\n\ud800-\udfff]*)*" for q in "'\""}
_LEXICON = re.compile(
    r"(?P<NAME>[^\W0-9]\w*)"
    r"|(?P<SPACE>[ \t\r\n]+)"
    r"|(?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    "|(?P<STRING>" + "|".join(q + body + q for q, body in _BODY.items()) + ")"
    r"|(?P<PUNCTUATION>[.(),])"
    r"|(?P<OTHER>.)",
    re.DOTALL,
)
_STRING_BODY = {q: re.compile(body) for q, body in _BODY.items()}
_ESCAPE = re.compile(r"\\(.)")


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; the list always ends with an EOF token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _LEXICON.finditer(text):
        group, lexeme, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if group == "NAME":
            if not lexeme.isascii():
                for k, ch in enumerate(lexeme):
                    if not (ch.isalpha() or ch == "_" or (k and "0" <= ch <= "9")):
                        raise ParseError(f"illegal character {ch!r}", start + k, line, col + k)
            tokens.append(Token(TokenKind.NAME, lexeme, lexeme, start, line, col))
        elif group == "SPACE":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = start + lexeme.rindex("\n") + 1
        elif group == "PUNCTUATION":
            tokens.append(Token(_PUNCTUATION[lexeme], lexeme, None, start, line, col))
        elif group == "STRING":
            body = lexeme[1:-1]
            value = _ESCAPE.sub(r"\1", body) if "\\" in body else body
            tokens.append(Token(TokenKind.STRING, lexeme, value, start, line, col))
        elif group == "NUMBER":
            is_float = "." in lexeme or "e" in lexeme or "E" in lexeme
            try:
                value = float(lexeme) if is_float else int(lexeme)
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError("integer literal has too many digits", start, line, col) from None
            if is_float and math.isinf(value):  # rendered as inf, which does not parse again
                raise ParseError("float literal out of range", start, line, col)
            tokens.append(Token(TokenKind.FLOAT if is_float else TokenKind.INT, lexeme, value, start, line, col))
        elif lexeme in _STRING_BODY:  # a quote opening no complete string
            j = _STRING_BODY[lexeme].match(text, start + 1).end()
            if text.startswith("\\", j) and j + 1 < len(text):
                raise ParseError(f"unsupported escape '\\{text[j + 1]}'", j, line, col + j - start)
            if "\ud800" <= text[j:j + 1] <= "\udfff":
                raise ParseError(f"illegal character {text[j]!r}", j, line, col + j - start)
            raise ParseError("unterminated string", start, line, col)
        else:
            raise ParseError(f"illegal character {lexeme!r}", start, line, col)
    tokens.append(Token(TokenKind.EOF, "", None, len(text), line, len(text) - line_start + 1))
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


_STEP_NAMES = {k.value: k for k in StepKind}


# -- literal arguments and step signatures -----------------------------------

# Literal arguments: a literal token by its kind, a keyword by its text.
# A None value takes the token's own value.
_LITERALS: dict[object, tuple[str, object]] = {
    TokenKind.STRING: ("string", None),
    TokenKind.INT: ("int", None),
    TokenKind.FLOAT: ("float", None),
    "true": ("bool", True),
    "false": ("bool", False),
    "asc": ("direction", "asc"),
    "desc": ("direction", "desc"),
}

_TRAVERSAL = frozenset({"traversal"})  # nested traversals only
_STRING = frozenset({"string"})
_MANY = math.inf

# Per step: the fewest and the most arguments, the argument kinds allowed
# (Literal kinds, or "traversal"; None where check_step's own rules check
# them or no argument is allowed) and the message for a wrong count.
_SIGNATURES: dict[StepKind, tuple[int, float, frozenset[str] | None, str]] = {
    StepKind.SOURCE_V: (0, 0, None, "V() takes no arguments"),
    StepKind.SOURCE_E: (0, 0, None, "E() takes no arguments"),
    StepKind.MATCH: (1, _MANY, _TRAVERSAL, "match() needs at least one pattern"),
    StepKind.AS: (1, 1, _STRING, "as() takes exactly one label"),
    StepKind.OUT: (0, 1, _STRING, "out() takes at most one edge label"),
    StepKind.IN: (0, 1, _STRING, "in() takes at most one edge label"),
    StepKind.HAS: (1, 2, None, "has() takes a key and an optional value"),
    StepKind.HAS_LABEL: (1, 1, _STRING, "hasLabel() takes exactly one label"),
    StepKind.VALUES: (1, 1, _STRING, "values() takes exactly one property key"),
    StepKind.WHERE: (1, 1, _TRAVERSAL, "where() takes exactly one traversal argument"),
    StepKind.SELECT: (1, _MANY, _STRING, "select() needs at least one variable"),
    StepKind.BY: (1, 1, frozenset({"string", "direction"}), "by() takes exactly one argument"),
    StepKind.DEDUP: (0, _MANY, _STRING, ""),
    StepKind.ORDER: (0, 0, None, "order() takes no arguments"),
    StepKind.GROUP: (0, 0, None, "group() takes no arguments"),
    StepKind.LIMIT: (1, 1, None, "limit() takes exactly one integer"),
    StepKind.UNION: (1, _MANY, _TRAVERSAL, "union() needs at least one branch"),
    StepKind.NOT: (1, 1, _TRAVERSAL, "not() takes exactly one traversal argument"),
    StepKind.AND: (1, _MANY, _TRAVERSAL, "and() needs at least one traversal argument"),
    StepKind.MAX: (0, 0, None, "max() takes no arguments"),
}

_SOURCES = (StepKind.SOURCE_V, StepKind.SOURCE_E)
_BY_FOLLOWS = (StepKind.SELECT, StepKind.ORDER, StepKind.GROUP)


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.steps = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise self.error(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input", tok)
        return self.advance()

    def error(self, msg: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(msg, tok.pos, tok.line, tok.col)

    # grammar ---------------------------------------------------------------

    def parse_root(self) -> TraversalAST:
        tok = self.advance()
        if tok.kind is not TokenKind.NAME or tok.value not in ("g", "__"):
            raise self.error("traversal must start with 'g' or '__'", tok)
        ast = self.parse_chain(anonymous=tok.value == "__", depth=0)
        eof = self.peek()
        if eof.kind is not TokenKind.EOF:
            raise self.error(f"unexpected trailing input {eof.text!r}", eof)
        return ast

    def parse_chain(self, anonymous: bool, depth: int) -> TraversalAST:
        if depth > MAX_NESTING_DEPTH:
            raise self.error("traversal nesting too deep")
        steps: list[Step] = []
        while True:
            self.expect(TokenKind.DOT, "'.'")
            steps.append(self.parse_step(not steps and not anonymous, depth, prev=steps))
            if self.peek().kind is not TokenKind.DOT:
                break
        if not anonymous and steps[0].kind not in _SOURCES:
            raise self.error("root traversal must start with V() or E()")
        return TraversalAST(anonymous=anonymous, steps=tuple(steps))

    def parse_step(self, starts_root: bool, depth: int, prev: list[Step]) -> Step:
        name_tok = self.expect(TokenKind.NAME, "step name")
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise self.error(f"traversal has more than {MAX_STEPS} steps", name_tok)
        kind = _STEP_NAMES.get(name_tok.value)
        if kind is None:
            raise self.error(f"unknown step {name_tok.value!r}", name_tok)
        self.expect(TokenKind.LPAREN, "'('")
        args: list[StepArg] = []
        if self.peek().kind is not TokenKind.RPAREN:
            args.append(self.parse_arg(kind, depth))
            while self.peek().kind is TokenKind.COMMA:
                self.advance()
                args.append(self.parse_arg(kind, depth))
        self.expect(TokenKind.RPAREN, "')'")
        self.check_step(kind, args, name_tok, starts_root, prev)
        return Step(kind=kind, args=tuple(args))

    def parse_arg(self, kind: StepKind, depth: int) -> StepArg:
        tok = self.advance()
        literal = _LITERALS.get(tok.value if tok.kind is TokenKind.NAME else tok.kind)
        if literal is not None:
            return Literal(literal[0], tok.value if literal[1] is None else literal[1])
        if tok.kind is not TokenKind.NAME:
            raise self.error(f"unexpected token {tok.text!r} in arguments", tok)
        if tok.value == "__":
            return self.parse_chain(anonymous=True, depth=depth + 1)
        if tok.value == "g":
            if kind is StepKind.MATCH:
                raise self.error("match() patterns must be anonymous traversals (start with '__')", tok)
            raise self.error("nested traversals must be anonymous (start with '__')", tok)
        raise self.error(f"unexpected identifier {tok.value!r} in arguments", tok)

    def check_step(self, kind: StepKind, args: list[StepArg], tok: Token, starts_root: bool, prev: list[Step]) -> None:
        """The step's signature row, then the rules no row can state."""
        if kind in _SOURCES and not starts_root:
            raise self.error(f"{kind.value}() may only start a root traversal", tok)
        if kind is StepKind.BY and (not prev or prev[-1].kind not in _BY_FOLLOWS):
            raise self.error("by() must directly follow select(), order(), or group()", tok)
        fewest, most, kinds, wrong_count = _SIGNATURES[kind]
        if not fewest <= len(args) <= most:
            raise self.error(wrong_count, tok)
        if kinds is not None:
            for a in args:
                if (a.kind if type(a) is Literal else "traversal") not in kinds:
                    what = "nested traversals" if kinds is _TRAVERSAL else f"{'/'.join(sorted(kinds))} arguments"
                    raise self.error(f"{kind.value}() accepts only {what}", tok)
        if kind is StepKind.AS and args[0].value in ("", "@"):  # type: ignore[union-attr]
            # "@" names the position column of result rows
            raise self.error(f"as() label {args[0].value!r} is empty or reserved", tok)  # type: ignore[union-attr]
        if kind is StepKind.HAS:
            if type(args[0]) is not Literal or args[0].kind != "string":
                raise self.error("has() key must be a string", tok)
            if len(args) == 2 and (type(args[1]) is not Literal or args[1].kind == "direction"):
                raise self.error("has() value must be a scalar literal", tok)
        if kind is StepKind.LIMIT:
            if type(args[0]) is not Literal or args[0].kind != "int":
                raise self.error(wrong_count, tok)
            if args[0].value < 0:  # type: ignore[operator]
                raise self.error("limit() must be non-negative", tok)


def parse_traversal(text: str) -> TraversalAST:
    """Parse query text to a TraversalAST, or raise a positioned ParseError."""
    return _Parser(tokenize(text)).parse_root()


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
