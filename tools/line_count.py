#!/usr/bin/env python3
"""The tracked line counts of the package under src/grem_algebra, per commit.

    python3 tools/line_count.py                # HEAD
    python3 tools/line_count.py HEAD 146410a   # HEAD, then 146410a against it

For each REV (any name git accepts; default HEAD) it prints one line with
the counts of the .py files directly under src/grem_algebra as that commit
holds them, read with ``git show``, so uncommitted edits are not counted.
Every REV after the first also gets its differences from the first.

Raw lines count every line.  Code lines leave out blank lines,
comment-only lines and docstrings (module, class and function docstrings,
found with ``ast``), so deleting documentation does not lower them.  CI
runs this for HEAD and a pull request's base commit, so a pull request
can quote the same numbers from a local run.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def counts(rev: str) -> tuple[int, int]:
    """The raw and code line counts of the package at rev."""
    raw = code = 0
    for name in git("ls-tree", "--name-only", rev, "src/grem_algebra/").split():
        if not name.endswith(".py"):
            continue
        text = git("show", f"{rev}:{name}")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = text.splitlines()
        raw += len(lines)
        code += sum(
            1 for i, line in enumerate(lines, 1)
            if i not in docs and line.strip() and not line.lstrip().startswith("#")
        )
    return raw, code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", default=["HEAD"], metavar="REV")
    revs = parser.parse_args().revs
    first = None
    for rev in revs:
        short = git("rev-parse", "--short=7", rev).strip()
        raw, code = counts(rev)
        line = f"Lines under src at {short}: {raw} raw, {code} code"
        if first is None:
            first = short, raw, code
        else:
            line += f" ({first[0]} {first[1] - raw:+d} raw, {first[2] - code:+d} code)"
        print(line)


if __name__ == "__main__":
    main()
