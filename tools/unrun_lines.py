#!/usr/bin/env python3
"""The code lines under src/grem_algebra that no benchmark workload runs.

    python3 tools/unrun_lines.py                     # seed 1
    python3 tools/unrun_lines.py --seed 1 --seed 2   # run on either seed counts

A line trace (``sys.settrace``) over the package while each workload of
bench/run.py loads its graph and answers its queries as the benchmark
issues them: one analytic-9k pass, 400 lookup-2k queries through the
pipeline and 20 cli-oneshot queries through ``cli.main`` on a graph file.
The graphs, query streams and calls are bench/'s own, imported and left
unchanged.  A query that fails stops the run with its error; the answers
are not checked here (bench/run.py checks them).

For each function it prints the lines that have code (a line the
interpreter can stop on) and never ran, with their text; a function none
of whose lines ran is one line.  Module and class bodies run at import
and are not listed.  It measures no time: the trace slows the package
several-fold.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
import tempfile
from itertools import islice
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grem_algebra"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import queries  # noqa: E402
import run as bench  # noqa: E402
from graphgen import generate  # noqa: E402
from spans import NoTracer  # noqa: E402

from grem_algebra import load_graph  # noqa: E402

# Query batches per workload mode: an analytic batch is a whole pass, any
# other batch one query.
BATCHES = {"analytic": 1, "lookup": 400, "cli": 20}


def run_workloads(seed: int, ran: set[tuple[str, int]], scratch: Path) -> None:
    """Run every workload once for seed, adding each (file, line) of the
    package that ran to ran."""
    prefix = str(PACKAGE) + "/"

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    for w in bench.WORKLOADS.values():
        data = generate(w.shape, seed)
        text = data.to_json()
        ref = queries.RefGraph(data)
        path = scratch / f"{w.name}.graph.json"
        if w.mode == "cli":
            path.write_text(text, encoding="utf-8")
        sys.settrace(calls)
        try:
            graph = None if w.mode == "cli" else load_graph(text)
            for batch in islice(bench.query_batches(w, seed, ref), BATCHES[w.mode]):
                for q in batch:
                    if graph is None:
                        bench.run_cli(q.text, str(path), NoTracer)
                    else:
                        bench.run_pipeline(q.text, graph, NoTracer)
        finally:
            sys.settrace(None)


def _codes(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def code_lines(path: Path) -> set[int]:
    """The lines of a source file the interpreter can stop on inside a
    function: every line an instruction of a function (lambda and
    comprehension bodies included) is on, but its first, whose
    instruction raises no line event."""
    found: set[int] = set()
    for code in _codes(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            found |= {line for _, _, line in code.co_lines()} - {None, code.co_firstlineno}
    return found


def functions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of every function, a nested
    one after the one it is in."""
    found = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = (*names, child.name)
                if not isinstance(child, ast.ClassDef):
                    found.append((".".join(name), child.lineno, child.end_lineno))
                visit(child, name)
            else:
                visit(child, names)

    visit(tree, ())
    return found


def runs_of(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 3-5,9."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(ran: set[tuple[str, int]]) -> tuple[int, int, list[str]]:
    """The code lines in functions that never ran, their total, and per
    function the lines that never ran."""
    out, total, unrun = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        executable = code_lines(path)
        owner: dict[int, tuple[str, int, int]] = {}
        for fn in functions(ast.parse(source)):  # an inner function claims its lines last
            owner.update((n, fn) for n in range(fn[1], fn[2] + 1) if n in executable)
        total += len(owner)
        by_function: dict[tuple[str, int, int], tuple[list[int], list[int]]] = {}
        for n, fn in sorted(owner.items()):
            by_function.setdefault(fn, ([], []))[(str(path), n) in ran].append(n)
        for (name, first, last), (missed, hit) in sorted(by_function.items(), key=lambda f: f[0][1]):
            if not missed:
                continue
            unrun += len(missed)
            where = f"{path.name} {name}"
            if not hit:
                out.append(f"{where}  never ran ({first}-{last}, {len(missed)} lines)")
                continue
            out.append(f"{where}  {runs_of(missed)}")
            out.extend(f"  {n:>4}  {text[n - 1].strip()}" for n in missed)
    return unrun, total, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="graph and query seed; repeat it to run several (default 1)")
    args = parser.parse_args(argv)
    seeds = args.seed or [1]
    ran: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            run_workloads(seed, ran, Path(scratch))
    unrun, total, lines = report(ran)
    print(f"{unrun} of {total} code lines in functions never ran (seeds {', '.join(map(str, seeds))})")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
