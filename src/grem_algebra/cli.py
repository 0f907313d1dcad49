"""Command-line driver: parse, plan, or run a traversal.

Exit codes: 0 success, 1 parse/compile error, a usage error or an
unreadable query file, 2 graph-load error, 3 evaluation error (running
out of memory while evaluating or rendering is one), 141 (128 + SIGPIPE,
as shells report it) when the reader closes the output pipe early.
Errors go to stderr with positions when available; ``main`` takes each
engine error's message word and exit code from ``ERRORS``, keyed by its
class.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import PLAN_STYLES, render_plan
from .compiler import compile_traversal
from .errors import CompileError, EvaluationError, GraphFormatError, GremAlgebraError, ParseError
from .evaluator import evaluate, to_jsonl, to_table
from .parser import parse_traversal, render_traversal
from .property_graph import load_graph_file

EXIT_OK = 0
EXIT_QUERY_ERROR = 1
EXIT_GRAPH_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_PIPE_CLOSED = 141

# Per engine error class, the word its message starts with and its exit code.
ERRORS = {
    ParseError: ("parse", EXIT_QUERY_ERROR),
    CompileError: ("compile", EXIT_QUERY_ERROR),
    GraphFormatError: ("graph", EXIT_GRAPH_ERROR),
    EvaluationError: ("evaluation", EXIT_EVAL_ERROR),
}


def _add_query_args(sub: argparse.ArgumentParser, compiles: bool = True) -> None:
    sub.add_argument("--query", help="traversal text")
    sub.add_argument("--query-file", help="file containing the traversal text")
    if compiles:
        sub.add_argument(
            "--eq7-grouping",
            action="store_true",
            help="compile select().by(key) to grouping over the projection "
            "instead of value extraction",
        )


def _read_query(args: argparse.Namespace) -> str:
    if args.query is not None:
        return args.query
    with open(args.query_file, "r", encoding="utf-8") as fh:
        return fh.read()


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grem-algebra",
        description="Compile declarative Gremlin traversals to a graph algebra "
        "and evaluate them over property-graph JSON files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a traversal over a graph")
    run.add_argument("--graph", help="graph JSON file (required)")
    run.add_argument(
        "--format", choices=("table", "jsonl"), default="table", help="output format"
    )
    _add_query_args(run)

    plan = commands.add_parser("plan", help="print the compiled plan")
    plan.add_argument(
        "--style", choices=PLAN_STYLES, default="ascii", help="plan notation"
    )
    _add_query_args(plan)

    parse = commands.add_parser("parse", help="parse and echo the canonical form")
    _add_query_args(parse, compiles=False)

    return parser


def _output(args: argparse.Namespace, query: str) -> str:
    """The text a command prints: the canonical traversal, the plan or the
    result.  A graph file that cannot be read is a graph error; running
    out of memory while evaluating or rendering is an evaluation error."""
    ast = parse_traversal(query)
    if args.command == "parse":
        return render_traversal(ast)
    expr = compile_traversal(ast, eq7_grouping=args.eq7_grouping)
    if args.command == "plan":
        return render_plan(expr, args.style)
    if not args.graph:
        raise GraphFormatError("run mode requires --graph")
    try:
        graph = load_graph_file(args.graph)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {args.graph}: {exc}") from exc
    try:
        result = evaluate(expr, graph)
        return to_jsonl(result) if args.format == "jsonl" else to_table(result)
    except MemoryError:
        raise EvaluationError("out of memory") from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or its usage error
        return EXIT_OK if exc.code == 0 else EXIT_QUERY_ERROR
    if (args.query is None) == (args.query_file is None):
        print("error: exactly one of --query/--query-file is required", file=sys.stderr)
        return EXIT_QUERY_ERROR
    try:
        query = _read_query(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read query file: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR
    try:
        text = _output(args, query)
        if text:
            print(text, flush=True)
    except GremAlgebraError as exc:
        word, code = ERRORS[type(exc)]
        print(f"{word} error: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
