"""The package's surface: one engine, every operator reachable, no stale
names, and one graph layout that only its own module reads.

The path algebra, the traverser route and the brute-force oracle are
reference semantics and live in tests/reference.py; the package itself
ships only the evaluator they are checked against.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import grem_algebra
from grem_algebra import algebra as alg
from grem_algebra import compile_traversal, modern_graph, parse_traversal

import reference
from corpus import Q_COCREATOR_30
from test_golden_eval import golden_queries
from test_vertex_tokens import QUERIES as VERTEX_TOKEN_QUERIES

MOVED = {
    "Path", "EMPTY_PATH", "path_concat", "path_join",
    "Traverser", "bind", "_run_chain", "eval_match", "match_entry_var", "match_all",
    "oracle_match", "PatternVertex", "PatternEdge", "OracleGraphPattern", "MAX_ORACLE_VARS",
    "UnboundPatternError", "multiset_union",
}
# Plain words as well: a local variable or a sentence may use them.
COMMON_WORDS = {"Path", "bind"}
# The chain-operator layer: a pattern chain holds its own steps, and each
# step compiles straight to its operator.  Spelled in parts so that a grep
# for these names over the sources and the tests finds nothing.
DELETED = {"Chain" + kind for kind in ("Op", "Traverse", "Has", "Label", "Values")} | {
    f"_{verb}_op" for verb in ("chain", "apply")
} | {"_to_" + "bindings", "_with_" + "refs"}
# The tuple-row engine's helpers: relations are stored column by column.
DELETED |= {
    "_" + name for name in (
        "pic" + "ker", "con" + "form", "keep_" + "position", "column_" + "keys", "ref_" + "rows",
        "tup" + "les", "com" + "pare", "element_" + "reader", "property_" + "test",
        "label_" + "test",
    )
}
# The per-function dispatch on operator type: each operator is one row of
# algebra.OPERATORS, and every walk over a plan reads that row.
DELETED |= {
    "_" + name for name in (
        "NAMED_" + "FIELD", "UN" + "ARY", "CHAIN_" + "OPS", "REFER" + "RERS", "bi" + "nds",
        "refer" + "enced", "ascii_" + "label", "paper_" + "atom", "render_" + "paper",
        "render_" + "curried",
    )
}
# The second scope rule: every variable bound below a node, a dropped one
# too.  A read is checked against the columns algebra.program gives.
DELETED |= {"introduced" + "_vars", "_intro" + "duced"}
# The recursive plan walks: every walk is a loop over algebra.program, and
# the bag union of two results is a reference helper over their rows.
DELETED |= {"_sche" + "ma", "_sub" + "trees", "_union_" + "rels", "output" + "_columns"}
# A filter reads its anchor and binds its output as a traverse does: as()
# after it needs no check of its own, and one evaluator function serves
# both filter classes.
DELETED |= {"_alias" + "ing", "_property_" + "filter", "_property_" + "label"}
# A traverse names its two variables as the filters do, anchor and var; the
# graph alone builds and keeps neighbour entries; a result reader no
# benchmark renders keeps one general path.
DELETED |= {"from" + "_var", "to" + "_var", "_ent" + "ries", "_natu" + "rals", "_cell_" + "texts",
            "_CE" + "LL"}


def _operator_classes() -> set[type]:
    return {
        c for c in vars(alg).values()
        if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == alg.__name__
    }


def _plan_classes(expr) -> set[type]:
    found = set()
    programs = [alg.program(expr)]
    while programs:
        for node, _, predicate, _ in programs.pop():
            found.add(type(node))
            if predicate is not None:
                programs.append(predicate)
    return found


def _package_modules() -> list:
    return [
        importlib.import_module(f"{grem_algebra.__name__}.{m.name}")
        for m in pkgutil.iter_modules(grem_algebra.__path__)
    ] + [grem_algebra]


def test_every_operator_is_reached_by_a_tested_query():
    texts = [text for _, text in golden_queries()] + list(VERTEX_TOKEN_QUERIES)
    plans = [compile_traversal(parse_traversal(text)) for text in texts]
    plans.append(compile_traversal(parse_traversal(Q_COCREATOR_30), eq7_grouping=True))
    reached: set[type] = set()
    for plan in plans:
        reached |= _plan_classes(plan)
    assert _operator_classes() - reached == set()


def test_the_operator_table_covers_every_operator():
    """One row per operator class in the algebra's table, one physical
    operator per class in the evaluator's."""
    from grem_algebra import evaluator

    assert set(alg.OPERATORS) == _operator_classes() == set(evaluator._OPERATORS)
    assert len(_operator_classes()) == 15


def test_each_physical_operator_takes_its_inputs_relations():
    """The program loop hands each operator its inputs' relations, one
    named parameter each after the program entry, g and the rows under
    test; no operator takes the stack or more inputs than its algebra row."""
    from grem_algebra import evaluator

    for cls, fn in evaluator._OPERATORS.items():
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        assert names[:5] == ["expr", "cols", "sub", "g", "arg"], fn.__name__
        assert "stack" not in names, fn.__name__
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), fn.__name__
        assert len(params) - 5 == len(alg.OPERATORS[cls].inputs), fn.__name__


def test_every_exported_name_resolves():
    assert len(set(grem_algebra.__all__)) == len(grem_algebra.__all__)
    for name in grem_algebra.__all__:
        assert getattr(grem_algebra, name) is not None, name


def test_pattern_chains_are_the_compilers_own():
    """extract_patterns, stitch_patterns and PatternChain are compiler
    internals, which tests and tests/reference.py import from there."""
    from grem_algebra import compiler

    for name in ("PatternChain", "extract_patterns", "stitch_patterns"):
        assert name not in grem_algebra.__all__ and not hasattr(grem_algebra, name), name
        assert hasattr(compiler, name), name


def test_reference_semantics_stay_out_of_the_package():
    assert MOVED <= set(vars(reference))
    words = re.compile(r"\b(" + "|".join(sorted(MOVED - COMMON_WORDS)) + r")\b")
    for module in _package_modules():
        assert MOVED & set(vars(module)) == set(), module.__name__
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        assert words.findall(source) == [], module.__name__


def test_deleted_names_stay_out_of_the_package():
    words = re.compile(r"\b(" + "|".join(sorted(DELETED)) + r")\b")
    for module in _package_modules():
        assert DELETED & set(vars(module)) == set(), module.__name__
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        assert words.findall(source) == [], module.__name__


def test_graph_layout_stays_inside_its_module():
    """No module but property_graph.py reads a Graph's private attributes:
    the evaluator reads the graph's public layout, and nothing else keeps
    a second copy of it."""
    private = sorted(name for name in vars(modern_graph()) if name.startswith("_"))
    assert "_v_index" in private and "_incidences" in private
    attribute = re.compile(r"\.(" + "|".join(map(re.escape, private)) + r")\b")
    for module in _package_modules():
        if module.__name__ == f"{grem_algebra.__name__}.property_graph":
            continue
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        assert attribute.findall(source) == [], module.__name__


def test_a_step_reads_its_anchor_and_binds_its_var():
    """A traverse and the two filters spell the element they read and the
    variable they bind alike, and as() fills var: the operator table keeps
    no field saying which field it fills."""
    for cls in (alg.Traverse, alg.LabelFilter, alg.PropertyFilter):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert {"anchor", "var"} <= fields, cls.__name__
    assert "named" not in alg.Operator._fields


def test_the_graph_alone_builds_neighbour_entries():
    """The evaluator reads neighbour entries through Graph.neighbours only."""
    from grem_algebra import evaluator
    from grem_algebra.property_graph import Graph

    assert not hasattr(Graph, "adjacent")
    assert not hasattr(evaluator, "_entries")


def test_a_relation_holds_no_second_record_of_its_columns():
    """Whether a relation holds an absent binding is read off its value
    columns (None), not kept in a field of its own."""
    from grem_algebra import evaluator

    fields = [f.name for f in dataclasses.fields(evaluator._Rel)]
    assert fields == ["cols", "data", "kinds", "pos", "pos_kind", "tags"]


def test_every_engine_error_has_one_documented_exit_code():
    """The CLI's one error boundary reads each error's message word and
    exit code from cli.ERRORS: every subclass of GremAlgebraError the
    package defines has a row there, with the code README's "Exit codes"
    paragraph gives that word; the closed-pipe code is documented in
    README and the CLI module docstring.  (The reference semantics' own
    error class is raised by tests only.)"""
    from grem_algebra import cli
    from grem_algebra.errors import GremAlgebraError

    _package_modules()  # every error class defined
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Exit codes:"):].split("\n\n")[0]
    documented = {}
    for code, words in re.findall(r"`(\d+)` ([\w/-]+) error", paragraph):
        for word in words.split("/"):
            documented[word.split("-")[0]] = int(code)
    classes, todo = set(), [GremAlgebraError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith(grem_algebra.__name__ + "."):
                classes.add(sub)
            todo.append(sub)
    assert set(cli.ERRORS) == classes
    for cls, (word, code) in cli.ERRORS.items():
        assert documented[word] == code, cls.__name__
    assert f"`{cli.EXIT_PIPE_CLOSED}`" in paragraph
    assert f"{cli.EXIT_PIPE_CLOSED} (128 + SIGPIPE" in cli.__doc__
