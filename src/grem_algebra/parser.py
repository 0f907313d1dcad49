"""Tokenizer and parser for the declarative (match-based) Gremlin subset.

The accepted grammar is a fluent method chain:

    g.V().match(__.as('a').out('created').as('b'), ...).select('a').by('name')

Root traversals start with ``g.V()`` or ``g.E()``; anonymous traversals
(arguments of match/union/where/not/and) start with ``__``.  Step names
outside the supported set are rejected with a positioned error, as is any
arity violation.  The parser is total: any input yields either an AST or a
ParseError carrying line/column.

Two size limits keep every later stage (compile, validate, evaluate,
render) inside Python's recursion limit: nested traversals may be at most
MAX_NESTING_DEPTH levels deep, and a query may hold at most MAX_STEPS
steps, counting the steps of nested traversals and the source step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: object
    pos: int
    line: int
    col: int


_PUNCTUATION = {".": TokenKind.DOT, "(": TokenKind.LPAREN, ")": TokenKind.RPAREN, ",": TokenKind.COMMA}


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() accepts characters int() rejects (e.g. '¹')
    return "0" <= ch <= "9"


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalpha() or _is_digit(ch) or ch == "_"


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; the list always ends with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        start, sline, scol = i, line, col
        punctuation = _PUNCTUATION.get(ch)
        if punctuation is not None:
            tokens.append(Token(punctuation, ch, None, start, sline, scol))
            i += 1
            col += 1
        elif ch in "'\"":
            quote = ch
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        break
                    esc = text[i + 1]
                    if esc in ("\\", "'", '"'):
                        buf.append(esc)
                        i += 2
                        col += 2
                        continue
                    raise ParseError(f"unsupported escape '\\{esc}'", i, line, col)
                if c == quote:
                    closed = True
                    i += 1
                    col += 1
                    break
                if c == "\n":
                    break
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                raise ParseError("unterminated string", start, sline, scol)
            tokens.append(Token(TokenKind.STRING, text[start:i], "".join(buf), start, sline, scol))
        elif _is_digit(ch) or (ch == "-" and i + 1 < n and _is_digit(text[i + 1])):
            j = i + 1 if ch == "-" else i
            while j < n and _is_digit(text[j]):
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and _is_digit(text[j + 1]):
                is_float = True
                j += 1
                while j < n and _is_digit(text[j]):
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and _is_digit(text[k]):
                    is_float = True
                    j = k
                    while j < n and _is_digit(text[j]):
                        j += 1
            lexeme = text[i:j]
            try:
                value: object = float(lexeme) if is_float else int(lexeme)
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError("integer literal has too many digits", start, sline, scol) from None
            if is_float and math.isinf(value):  # rendered as inf, which does not parse again
                raise ParseError("float literal out of range", start, sline, scol)
            kind = TokenKind.FLOAT if is_float else TokenKind.INT
            tokens.append(Token(kind, lexeme, value, start, sline, scol))
            col += j - i
            i = j
        elif _is_name_start(ch):
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            name = text[i:j]
            tokens.append(Token(TokenKind.NAME, name, name, start, sline, scol))
            col += j - i
            i = j
        else:
            raise ParseError(f"illegal character {ch!r}", start, sline, scol)

    tokens.append(Token(TokenKind.EOF, "", None, n, line, col))
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


ASC = Literal("direction", "asc")
DESC = Literal("direction", "desc")

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
        tok = self.peek()
        if tok.kind is TokenKind.NAME and tok.value == "g":
            self.advance()
            ast = self.parse_chain(anonymous=False, depth=0)
        elif tok.kind is TokenKind.NAME and tok.value == "__":
            self.advance()
            ast = self.parse_chain(anonymous=True, depth=0)
        else:
            raise self.error("traversal must start with 'g' or '__'", tok)
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
            steps.append(self.parse_step(first=not steps, anonymous=anonymous, depth=depth, prev=steps))
            if self.peek().kind is not TokenKind.DOT:
                break
        if not anonymous and steps[0].kind not in (StepKind.SOURCE_V, StepKind.SOURCE_E):
            raise self.error("root traversal must start with V() or E()")
        return TraversalAST(anonymous=anonymous, steps=tuple(steps))

    def parse_step(self, first: bool, anonymous: bool, depth: int, prev: list[Step]) -> Step:
        name_tok = self.expect(TokenKind.NAME, "step name")
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise self.error(f"traversal has more than {MAX_STEPS} steps", name_tok)
        name = name_tok.value
        kind = _STEP_NAMES.get(name)
        if kind is None:
            raise self.error(f"unknown step {name!r}", name_tok)
        self.expect(TokenKind.LPAREN, "'('")
        args = self.parse_args(kind, depth)
        self.expect(TokenKind.RPAREN, "')'")
        self.check_step(kind, args, name_tok, first, anonymous, prev)
        return Step(kind=kind, args=tuple(args))

    def parse_args(self, kind: StepKind, depth: int) -> list[StepArg]:
        args: list[StepArg] = []
        if self.peek().kind is TokenKind.RPAREN:
            return args
        while True:
            args.append(self.parse_arg(kind, depth))
            if self.peek().kind is TokenKind.COMMA:
                self.advance()
                continue
            break
        return args

    def parse_arg(self, kind: StepKind, depth: int) -> StepArg:
        tok = self.peek()
        if tok.kind is TokenKind.STRING:
            self.advance()
            return Literal("string", tok.value)
        if tok.kind is TokenKind.INT:
            self.advance()
            return Literal("int", tok.value)
        if tok.kind is TokenKind.FLOAT:
            self.advance()
            return Literal("float", tok.value)
        if tok.kind is TokenKind.NAME:
            if tok.value in ("true", "false"):
                self.advance()
                return Literal("bool", tok.value == "true")
            if tok.value in ("asc", "desc"):
                self.advance()
                return Literal("direction", tok.value)
            if tok.value == "__":
                self.advance()
                return self.parse_chain(anonymous=True, depth=depth + 1)
            if tok.value == "g":
                if kind is StepKind.MATCH:
                    raise self.error("match() patterns must be anonymous traversals (start with '__')", tok)
                raise self.error("nested traversals must be anonymous (start with '__')", tok)
            raise self.error(f"unexpected identifier {tok.value!r} in arguments", tok)
        raise self.error(f"unexpected token {tok.text!r} in arguments", tok)

    def check_step(
        self,
        kind: StepKind,
        args: list[StepArg],
        tok: Token,
        first: bool,
        anonymous: bool,
        prev: list[Step],
    ) -> None:
        def fail(msg: str) -> ParseError:
            return ParseError(msg, tok.pos, tok.line, tok.col)

        def literals(kinds: set[str]) -> None:
            for a in args:
                if not isinstance(a, Literal) or a.kind not in kinds:
                    raise fail(f"{kind.value}() accepts only {'/'.join(sorted(kinds))} arguments")

        def traversals() -> None:
            for a in args:
                if not isinstance(a, TraversalAST):
                    raise fail(f"{kind.value}() accepts only nested traversals")

        if kind in (StepKind.SOURCE_V, StepKind.SOURCE_E):
            if anonymous or not first:
                raise fail(f"{kind.value}() may only start a root traversal")
            if args:
                raise fail(f"{kind.value}() takes no arguments")
            return
        if kind is StepKind.MATCH:
            if not args:
                raise fail("match() needs at least one pattern")
            traversals()
            return
        if kind is StepKind.UNION:
            if not args:
                raise fail("union() needs at least one branch")
            traversals()
            return
        if kind in (StepKind.WHERE, StepKind.NOT):
            if len(args) != 1:
                raise fail(f"{kind.value}() takes exactly one traversal argument")
            traversals()
            return
        if kind is StepKind.AND:
            if not args:
                raise fail("and() needs at least one traversal argument")
            traversals()
            return
        if kind is StepKind.AS:
            if len(args) != 1:
                raise fail("as() takes exactly one label")
            literals({"string"})
            label = args[0].value  # type: ignore[union-attr]
            if label in ("", "@"):  # "@": the position column of result rows
                raise fail(f"as() label {label!r} is empty or reserved")
            return
        if kind in (StepKind.OUT, StepKind.IN):
            if len(args) > 1:
                raise fail(f"{kind.value}() takes at most one edge label")
            literals({"string"})
            return
        if kind is StepKind.HAS:
            if len(args) not in (1, 2):
                raise fail("has() takes a key and an optional value")
            if not isinstance(args[0], Literal) or args[0].kind != "string":
                raise fail("has() key must be a string")
            if len(args) == 2:
                if not isinstance(args[1], Literal) or args[1].kind == "direction":
                    raise fail("has() value must be a scalar literal")
            return
        if kind is StepKind.HAS_LABEL:
            if len(args) != 1:
                raise fail("hasLabel() takes exactly one label")
            literals({"string"})
            return
        if kind is StepKind.VALUES:
            if len(args) != 1:
                raise fail("values() takes exactly one property key")
            literals({"string"})
            return
        if kind is StepKind.SELECT:
            if not args:
                raise fail("select() needs at least one variable")
            literals({"string"})
            return
        if kind is StepKind.BY:
            if not prev or prev[-1].kind not in (StepKind.SELECT, StepKind.ORDER, StepKind.GROUP):
                raise fail("by() must directly follow select(), order(), or group()")
            if len(args) != 1:
                raise fail("by() takes exactly one argument")
            literals({"string", "direction"})
            return
        if kind is StepKind.DEDUP:
            literals({"string"})
            return
        if kind in (StepKind.ORDER, StepKind.GROUP, StepKind.MAX):
            if args:
                raise fail(f"{kind.value}() takes no arguments")
            return
        if kind is StepKind.LIMIT:
            if len(args) != 1 or not isinstance(args[0], Literal) or args[0].kind != "int":
                raise fail("limit() takes exactly one integer")
            if args[0].value < 0:  # type: ignore[operator]
                raise fail("limit() must be non-negative")
            return
        raise fail(f"unhandled step {kind.value!r}")  # pragma: no cover


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
