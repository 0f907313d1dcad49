"""Golden parser outputs: tokens, canonical text and positioned errors.

tests/golden/parse_fuzz.jsonl holds one line per seeded input.  A line
carries the input and either its tokens (kind, text, repr of value, pos,
line, col) and the canonical ``render_traversal`` text of its AST, or the
``ParseError`` it raises (message, pos, line, col) after whatever tokens
the tokenizer produced.  The inputs mix random bytes, grammar-shaped
queries with random steps and arguments, and the lexical edge forms the
tokenizer must get exactly right: Unicode letters and numerals inside
names, each quote kind inside the other, a backslash before a newline,
``1.e5``, ``1e+``, ``-x`` and CR/LF line ends.

Regenerate (only for a deliberate, documented change of the contract):

    PYTHONPATH=src python3 tests/test_golden_parse.py
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from grem_algebra import ParseError, parse_traversal, render_traversal, tokenize
from grem_algebra.parser import StepKind

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "parse_fuzz.jsonl"

SEED = 10
COUNT = 3000

_STEP_NAMES = [k.value for k in StepKind] + ["count", "Out", "x_1", "g", "__", "true"]
_STEPS = [k.value for k in StepKind if k not in (StepKind.SOURCE_V, StepKind.SOURCE_E, StepKind.BY)]
_NAME_CHARS = "ab_Z9é²½٣ßΩ"
_EDGE_FORMS = [
    "1.e5", "1e+", "1e-", "1E5", "1.5e+3", "-x", "-1", "-0", "-0.0", "1.", ".5", "1..2",
    "007", "1e5x", "2e308", "-1e999", "1e-999", "\\\n", "'a\\\nb'", "'a\\", "'a\\'", "'\\q'",
    "\"it's\"", "'say \"hi\"'", "'\\\"'", "\"\\'\"", "'a\nb'", "\r\n", "\r", "\n\r",
    "²", "٣", "½", "é", "a²", "x٣", "é1", "_½", "¹", "\u00a0", "\t", "@", "#", "$",
]


def _string(rng: random.Random) -> str:
    """A well-formed string literal; the other quote kind appears bare."""
    quote = rng.choice("'\"")
    other = "'" if quote == '"' else '"'
    body = "".join(
        rng.choice(["a", "b", " ", other, "\\\\", "\\'", '\\"', "é", "@", ""])
        for _ in range(rng.randint(0, 4))
    )
    return quote + body + quote


def _number(rng: random.Random) -> str:
    text = rng.choice(["", "-"]) + str(rng.randint(0, 10 ** rng.randint(0, 12)))
    if rng.random() < 0.4:
        text += "." + str(rng.randint(0, 999))
    if rng.random() < 0.3:
        text += rng.choice("eE") + rng.choice(["", "+", "-"]) + str(rng.randint(0, 400))
    return text


def _space(rng: random.Random) -> str:
    return rng.choice(["", "", "", "", " ", "\n", "\r\n", "\t", "  \n "])


def _arg(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.45:
        return _string(rng)
    if roll < 0.65:
        return _number(rng)
    if roll < 0.8:
        return rng.choice(["true", "false", "asc", "desc", "g", "x", "__"])
    if depth < 3:
        return rng.choice(["__", "__", "g"]) + _chain(rng, depth + 1, rng.randint(0, 3))
    return rng.choice(_EDGE_FORMS)


_SHAPES = {
    "V": "", "E": "", "as": "s", "out": "s", "in": "s", "has": "sl", "hasLabel": "s",
    "values": "s", "select": "ss", "by": "d", "dedup": "", "order": "", "group": "",
    "limit": "n", "max": "", "match": "tt", "union": "tt", "where": "t", "not": "t", "and": "t",
}


def _typed_arg(rng: random.Random, shape: str, depth: int) -> str:
    if shape == "s":
        return rng.choice(["'a'", "'b'", '"name"', "'age'", "'knows'", _string(rng)])
    if shape == "l":
        return rng.choice([_string(rng), _number(rng), "true", "false"])
    if shape == "d":
        return rng.choice(["asc", "desc", "'name'", "'a'"])
    if shape == "n":
        return str(rng.randint(0, 20))
    return "__" + _chain(rng, depth + 1, rng.randint(1, 3))


def _chain(rng: random.Random, depth: int, steps: int) -> str:
    parts = []
    name = ""
    for _ in range(steps):
        if name in ("select", "order", "group") and rng.random() < 0.5:
            name = "by"
        else:
            name = rng.choice(_STEP_NAMES if rng.random() < 0.2 else _STEPS)
        shape = _SHAPES.get(name, "")
        if rng.random() < 0.85 and depth < 3:
            count = rng.randint(min(1, len(shape)), len(shape))
            args = [_typed_arg(rng, c, depth) for c in shape[:count]]
        else:
            args = [_arg(rng, depth) for _ in range(rng.choice([0, 0, 1, 1, 1, 2, 2, 3]))]
        sep = "," + _space(rng)
        parts.append(f".{_space(rng)}{name}({sep.join(args)})")
    return "".join(parts)


def _query(rng: random.Random) -> str:
    head = rng.choice(["g"] * 12 + ["__", "x", ""])
    first = rng.choice([".V()"] * 6 + [".E()", ""]) if head == "g" else ""
    return _space(rng) + head + first + _chain(rng, 0, rng.randint(0, 5)) + _space(rng)


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        piece = rng.choice(_EDGE_FORMS + list("().,'\"\\_-+e0 \n\r"))
        if op == 0 or not chars:
            chars[pos:pos] = piece
        elif op == 1:
            chars[pos : pos + 1] = piece
        else:
            del chars[pos : pos + 1]
    return "".join(chars)


def fuzz_inputs(count: int, seed: int):
    """Seeded parser inputs, cycling through five families."""
    rng = random.Random(seed)
    for i in range(count):
        family = i % 5
        if family == 0:
            yield bytes(rng.randrange(256) for _ in range(rng.randint(0, 40))).decode("latin-1")
        elif family == 1:
            yield _query(rng)
        elif family == 2:
            yield _mutate(rng, _query(rng))
        elif family == 3:
            name = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 4)))
            yield f"g.V().{rng.choice(['has', name])}({_string(rng)},{rng.choice(_EDGE_FORMS + [name])})"
        else:
            yield "".join(rng.choice(_EDGE_FORMS + ["g", ".", "(", ")", ",", "V", "'"]) for _ in range(rng.randint(1, 8)))


def record(text: str) -> dict:
    """What the parser makes of ``text``, in the golden file's form."""
    entry: dict = {"input": text}
    try:
        tokens = tokenize(text)
        entry["tokens"] = [[t.kind.value, t.text, repr(t.value), t.pos, t.line, t.col] for t in tokens]
        entry["render"] = render_traversal(parse_traversal(text))
    except ParseError as exc:
        entry["error"] = [str(exc), exc.pos, exc.line, exc.col]
    return entry


def golden_lines() -> list[str]:
    return [json.dumps(record(text), separators=(",", ":")) for text in fuzz_inputs(COUNT, SEED)]


def _load() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_golden_file_covers_the_inputs():
    assert [e["input"] for e in _load()] == list(fuzz_inputs(COUNT, SEED))


def test_golden_covers_accepted_and_rejected_inputs():
    entries = _load()
    accepted = sum("render" in e for e in entries)
    lexical = sum("error" in e and "tokens" not in e for e in entries)
    syntactic = sum("error" in e and "tokens" in e for e in entries)
    assert min(accepted, lexical, syntactic) >= 200, (accepted, lexical, syntactic)
    inputs = [e["input"] for e in entries]
    assert [f for f in _EDGE_FORMS if not any(f in text for text in inputs)] == []


@pytest.mark.parametrize("chunk", range(10))
def test_golden_parse(chunk):
    entries = _load()
    size = -(-len(entries) // 10)
    for expected in entries[chunk * size : (chunk + 1) * size]:
        assert record(expected["input"]) == expected, expected["input"]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
