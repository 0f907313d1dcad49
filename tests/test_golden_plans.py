"""Golden plan renderings: every compiled query's ascii, paper and curried
text, byte for byte.

tests/golden/plans.jsonl holds one line per compiled query: where the
query comes from, its name there, whether the compiler read
``select(...).by(key)`` as grouping (``eq7_grouping``), its text and its
three renderings.  The queries are the eval goldens' set, the corpus once
more with ``eq7_grouping=True``, the batched-predicate queries and the
parse-fuzz inputs that compile.  A change to how plans are built or
rendered must reproduce this file exactly.

Regenerate (only for a deliberate, documented change of the contract):

    PYTHONPATH=src python3 tests/test_golden_plans.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from grem_algebra import GremAlgebraError, compile_traversal, parse_traversal, render_plan
from grem_algebra.algebra import PLAN_STYLES

from corpus import CORPUS
from test_batched_predicates import QUERIES as BATCHED_QUERIES
from test_golden_eval import golden_queries
from test_golden_parse import GOLDEN as PARSE_GOLDEN

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "plans.jsonl"


def _parse_fuzz_inputs() -> list[tuple[str, str]]:
    lines = PARSE_GOLDEN.read_text(encoding="utf-8").splitlines()
    return [(str(i), json.loads(line)["input"]) for i, line in enumerate(lines)]


def plan_queries() -> list[tuple[str, str, str, bool]]:
    """(source, name, text, eq7_grouping) for every query the file covers,
    those that do not compile included."""
    return (
        [("eval", name, text, False) for name, text in golden_queries()]
        + [("corpus", q.name, q.text, True) for q in CORPUS]
        + [("batched", str(i), text, False) for i, text in enumerate(BATCHED_QUERIES)]
        + [("parse_fuzz", name, text, False) for name, text in _parse_fuzz_inputs()]
    )


def golden_lines() -> list[str]:
    lines = []
    for source, name, text, eq7 in plan_queries():
        try:
            expr = compile_traversal(parse_traversal(text), eq7_grouping=eq7)
        except GremAlgebraError:  # each line names its query: the file pins which compile
            continue
        entry = {"source": source, "name": name, "eq7_grouping": eq7, "query": text}
        entry.update((style, render_plan(expr, style)) for style in PLAN_STYLES)
        lines.append(json.dumps(entry, separators=(",", ":")))
    return lines


def _by_query(lines: list[str]) -> dict[tuple[str, str], str]:
    keyed = {}
    for line in lines:
        entry = json.loads(line)
        keyed[entry["source"], entry["name"]] = line
    return keyed


def _difference(expected: list[str], got: list[str]) -> str:
    """Which queries' lines were added, removed or changed, each named by
    its (source, name)."""
    want, have = _by_query(expected), _by_query(got)
    added = [k for k in have if k not in want]
    removed = [k for k in want if k not in have]
    changed = [k for k in have if k in want and have[k] != want[k]]
    if not (added or removed or changed):
        return "the same lines in another order"
    return f"added {added}, removed {removed}, changed {changed}"


def test_golden_plans():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert got == expected, _difference(expected, got)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
