"""Declarative Gremlin pattern matching over in-memory property graphs.

Pipeline: parse_traversal -> compile_traversal -> evaluate, with
render_plan for inspecting compiled plans.
"""

from .algebra import AlgebraExpr, render_plan, validate
from .compiler import compile_traversal
from .errors import (
    CompileError,
    EvaluationError,
    GraphFormatError,
    GremAlgebraError,
    ParseError,
)
from .evaluator import BindingSet, evaluate, to_jsonl, to_table
from .parser import TraversalAST, parse_traversal, render_traversal, tokenize
from .property_graph import (
    EdgeRef,
    Graph,
    VertexRef,
    load_graph,
    load_graph_file,
    modern_graph,
    modern_graph_path,
)

__all__ = [
    "AlgebraExpr",
    "BindingSet",
    "CompileError",
    "EdgeRef",
    "EvaluationError",
    "Graph",
    "GraphFormatError",
    "GremAlgebraError",
    "ParseError",
    "TraversalAST",
    "VertexRef",
    "compile_traversal",
    "evaluate",
    "load_graph",
    "load_graph_file",
    "modern_graph",
    "modern_graph_path",
    "parse_traversal",
    "render_plan",
    "render_traversal",
    "to_jsonl",
    "to_table",
    "tokenize",
    "validate",
]

__version__ = "0.1.0"
