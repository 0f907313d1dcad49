"""Maps a parsed traversal onto the graph algebra, bottom-up.

The mapping follows a fixed recipe: the g.V()/g.E() source becomes a
get-vertices/get-edges leaf; each out()/in()/has()/hasLabel()/values()
step becomes its traverse, property filter or label filter operator
through one function, ``_apply_step``; each reads the element its
anchor variable binds, else the position, and binds its output to its
target variable, if any; as() fills the target of the step before it, a new column
where the name is unbound and an equality test where it is bound; a
has()/hasLabel() filter that reads no anchor and binds no variable (a
pure filter) stacked onto such filters (a run) is dropped where the run
already makes its test (see ``_run_makes``);
match() patterns are extracted as anchored chains of those steps and
stitched into one connected expression (threading shared variables,
joining disconnected ones); where()/not()/and() become selections over
predicates rooted at the row under test (Argument); select() a
projection; dedup(), order().by(), group().by(), limit() their namesake
operators; union() builds a left-deep union tree; a terminal max() an
aggregate.

``select(...).by(key)`` is value extraction by default.  With
``eq7_grouping=True`` it instead emits a grouping operator above the
projection (the alternative reading of the by-modulator); the CLI exposes
this as --eq7-grouping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import reduce

from . import algebra as alg
from .algebra import AlgebraExpr, static_columns
from .errors import CompileError
from .parser import Literal, Step, StepKind, TraversalAST


# -- pattern chains -----------------------------------------------------------

# The steps a match() pattern may hold between its anchors.
_CHAIN_STEPS = (StepKind.OUT, StepKind.IN, StepKind.HAS, StepKind.HAS_LABEL, StepKind.VALUES)


@dataclass(frozen=True)
class PatternChain:
    """One anonymous traversal inside match(): a start anchor, an optional
    end anchor, and the out/in/has/hasLabel/values steps between them."""

    start_var: str
    end_var: str | None
    ops: tuple[Step, ...]

    @property
    def vars(self) -> tuple[str, ...]:
        if self.end_var is not None and self.end_var != self.start_var:
            return (self.start_var, self.end_var)
        return (self.start_var,)


def _literal(arg: object) -> Literal:
    assert isinstance(arg, Literal)
    return arg


def extract_patterns(match_step: Step) -> list[PatternChain]:
    """Split a match() step into its anchored pattern chains, in source order."""
    if not match_step.args:
        raise CompileError("match() needs at least one pattern")

    chains: list[PatternChain] = []
    for arg in match_step.args:
        if not isinstance(arg, TraversalAST):
            raise CompileError("match() arguments must be anonymous traversals")
        steps = arg.steps
        if not steps or steps[0].kind is not StepKind.AS:
            raise CompileError("match() pattern has no leading as() anchor")
        start_var = str(_literal(steps[0].args[0]).value)
        steps = steps[1:]
        end_var: str | None = None
        if steps and steps[-1].kind is StepKind.AS:
            end_var = str(_literal(steps[-1].args[0]).value)
            steps = steps[:-1]

        for step in steps:
            if step.kind is StepKind.MATCH:
                raise CompileError("nested match() inside a pattern is unsupported")
            if step.kind is StepKind.AS:
                raise CompileError(
                    "as() in the middle of a match() pattern is unsupported; "
                    "split the pattern at the anchor"
                )
            if step.kind not in _CHAIN_STEPS:
                raise CompileError(
                    f"step {step.kind.value}() is not supported inside a match() pattern"
                )

        if not steps and end_var is not None and end_var != start_var:
            raise CompileError("empty pattern between two as() anchors")
        chains.append(PatternChain(start_var=start_var, end_var=end_var, ops=steps))
    return chains


def _apply_step(
    step: Step, expr: AlgebraExpr, anchor: str | None, target: str | None
) -> AlgebraExpr:
    """The operator of an out/in/has/hasLabel/values step on top of expr.
    anchor names the variable it reads (None: the current position),
    target the variable it binds (None: none); name is the edge label,
    property key or vertex label the step names.  A pure filter, one that
    reads no anchor, binds no variable and extracts nothing, is dropped
    where the run below it already makes its test: a selection applied
    twice is applied once."""
    kind = step.kind
    name = str(_literal(step.args[0]).value) if step.args else None
    if kind is StepKind.OUT or kind is StepKind.IN:
        return alg.Traverse(alg.OUT if kind is StepKind.OUT else alg.IN, name, anchor, target, expr)
    value = _literal(step.args[1]).value if len(step.args) == 2 else None
    if anchor is None and target is None and kind is not StepKind.VALUES:
        if kind is StepKind.HAS_LABEL:
            test: tuple = (alg.LabelFilter, name)
        else:
            test = (alg.PropertyFilter, name, type(value), value)
        if _run_makes(test, expr):
            return expr
    if kind is StepKind.HAS_LABEL:
        return alg.LabelFilter(target, name, expr, anchor)  # type: ignore[arg-type]
    extract = kind is StepKind.VALUES
    return alg.PropertyFilter(target, name, value, extract, expr, anchor)  # type: ignore[arg-type]


def _test(expr: AlgebraExpr) -> tuple | None:
    """The test a pure filter makes, one that reads no anchor, binds no
    variable and extracts nothing: its class and label, or its class, key,
    value type and value, so that has('age',1), has('age',true),
    has('age',1.0) and has('age','1') differ; None for any other operator."""
    kind = type(expr)
    if kind is alg.LabelFilter:
        if expr.anchor is None and expr.var is None:
            return (kind, expr.label)
    elif kind is alg.PropertyFilter:
        if expr.anchor is None and expr.var is None and not expr.bind_value:
            return (kind, expr.key, type(expr.value), expr.value)
    return None


def _run_makes(test: tuple, run: AlgebraExpr) -> bool:
    """Whether one of the pure filters stacked at the top of run (its
    run) makes test."""
    node = run
    while (made := _test(node)) is not None:
        if made == test:
            return True
        node = node.input  # type: ignore[union-attr]
    return False


def _apply_chain(chain: PatternChain, expr: AlgebraExpr) -> AlgebraExpr:
    """Stack a chain's operators onto expr; the first operator anchors at the
    chain's start variable, the last binds its end variable."""
    last = len(chain.ops) - 1
    for i, step in enumerate(chain.ops):
        anchor = chain.start_var if i == 0 else None
        target = chain.end_var if i == last else None
        expr = _apply_step(step, expr, anchor, target)
    return expr


def _name_head(expr: AlgebraExpr, var: str) -> AlgebraExpr:
    """Attach a variable to the operator that produced the current position:
    its output, which a var that is already bound then tests for equality."""
    if getattr(expr, "var", var) is not None:  # no var field, or one already set
        raise CompileError(f"as({var!r}) cannot name the preceding step here")
    return dataclasses.replace(expr, var=var)


def stitch_patterns(chains: list[PatternChain], source: AlgebraExpr | None = None) -> AlgebraExpr:
    """Compose pattern chains into one connected expression.

    Chains whose start variable is already bound are threaded directly on
    top of the accumulated expression (the anchor re-positions evaluation
    at that variable).  A chain that shares no bound variable is evaluated
    as its own subtree over the source and combined with a concatenative
    join, which degenerates to a cartesian product when the subtrees share
    no variables at all.
    """
    if source is None:
        source = alg.GetVertices()

    first, *remaining = chains
    if first.ops:
        acc = _apply_chain(first, source)
    else:
        acc = _name_head(source, first.start_var)
    bound = set(first.vars)
    while remaining:
        idx = next((i for i, c in enumerate(remaining) if c.start_var in bound), None)
        if idx is not None:
            chain = remaining.pop(idx)
            acc = _apply_chain(chain, acc)
        else:
            # no chain can thread: evaluate the next one separately and join
            chain = remaining.pop(0)
            if not chain.ops:
                raise CompileError(
                    f"pattern anchored at {chain.start_var!r} is disconnected and empty"
                )
            acc = alg.Join(acc, _apply_chain(chain, source))
        bound.update(chain.vars)
    return acc


# -- whole-traversal compilation ----------------------------------------------


def _compile_by(expr: AlgebraExpr, step: Step, eq7_grouping: bool) -> AlgebraExpr:
    arg = _literal(step.args[0])
    if isinstance(expr, alg.Projection):
        if arg.kind != "string":
            raise CompileError("by() after select() takes a property key")
        if expr.value_key is not None:
            raise CompileError("only one by() is supported after select()")
        key = str(arg.value)
        if eq7_grouping:
            return alg.Group(key, expr)
        return dataclasses.replace(expr, value_key=key)
    if isinstance(expr, alg.Sort):
        if arg.kind != "direction":
            raise CompileError(
                "by() after order() takes asc or desc; sorting by a property key "
                "is unsupported (bind it with values(...).as(...) first)"
            )
        return dataclasses.replace(expr, direction=str(arg.value))
    if isinstance(expr, alg.Group):
        if arg.kind != "string":
            raise CompileError("by() after group() takes a property key")
        if expr.key is not None:
            raise CompileError("only one by() is supported after group()")
        return dataclasses.replace(expr, key=str(arg.value))
    raise CompileError("by() must directly follow select(), order(), or group()")


def _compile_steps(
    steps: tuple[Step, ...],
    expr: AlgebraExpr,
    source: AlgebraExpr,
    eq7_grouping: bool,
    scope: tuple[str, ...] = (),  # inside a predicate: the columns of the rows under test
) -> AlgebraExpr:
    seen_match = False
    for pos, step in enumerate(steps):
        kind = step.kind
        if kind in (StepKind.SOURCE_V, StepKind.SOURCE_E):
            raise CompileError(f"{kind.value}() may only start a root traversal")
        if kind is StepKind.AS:
            expr = _name_head(expr, str(_literal(step.args[0]).value))
        elif kind in _CHAIN_STEPS:
            expr = _apply_step(step, expr, None, None)
        elif kind is StepKind.MATCH:
            chains = extract_patterns(step)
            if seen_match:
                expr = alg.Join(expr, stitch_patterns(chains, source))
            else:
                expr = stitch_patterns(chains, expr)
                seen_match = True
        elif kind in (StepKind.WHERE, StepKind.NOT, StepKind.AND):
            # and() joins its predicates, left-deep; where() and not() hold one
            under_test = static_columns(expr, scope)
            preds = [_compile_predicate(a, eq7_grouping, under_test) for a in step.args]
            expr = alg.Selection(reduce(alg.Join, preds), expr, negated=kind is StepKind.NOT)
        elif kind is StepKind.SELECT or kind is StepKind.DEDUP:
            vars_ = tuple(str(_literal(a).value) for a in step.args)
            declared = static_columns(expr, scope) if vars_ else ()
            for v in vars_:
                if v not in declared:
                    raise CompileError(f"{kind.value}() references undeclared variable {v!r}")
            if kind is StepKind.SELECT:
                expr = alg.Projection(vars_, None, expr)
            else:
                expr = alg.Dedup(vars_, expr)
        elif kind is StepKind.BY:
            expr = _compile_by(expr, step, eq7_grouping)
        elif kind is StepKind.ORDER:
            # inside a predicate it sorts by the columns the predicate binds
            expr = alg.Sort(static_columns(expr), alg.ASCENDING, expr)
        elif kind is StepKind.GROUP:
            expr = alg.Group(None, expr)
        elif kind is StepKind.LIMIT:
            expr = alg.Restriction(0, int(_literal(step.args[0]).value), expr)  # type: ignore[arg-type]
        elif kind is StepKind.UNION:
            branches = [
                _compile_steps(a.steps, expr, expr, eq7_grouping, scope)  # type: ignore[union-attr]
                for a in step.args
            ]
            expr = reduce(alg.Union, branches)  # left-deep
        elif kind is StepKind.MAX:
            if pos != len(steps) - 1:
                raise CompileError("max() must be the final step of the traversal")
            expr = alg.Aggregate(expr)
        else:  # pragma: no cover
            raise CompileError(f"step {kind.value}() reached the compiler unsupported")
    return expr


def _compile_predicate(ast: object, eq7_grouping: bool, scope: tuple[str, ...]) -> AlgebraExpr:
    if not isinstance(ast, TraversalAST):
        raise CompileError("predicate must be an anonymous traversal")
    leaf = alg.Argument()
    return _compile_steps(ast.steps, leaf, leaf, eq7_grouping, scope)


def compile_traversal(ast: TraversalAST, eq7_grouping: bool = False) -> AlgebraExpr:
    """Compile a parsed root traversal to an algebra expression."""
    if ast.anonymous:
        raise CompileError("only root traversals (g.V()/g.E()) can be compiled")
    first = ast.steps[0]
    if first.kind is StepKind.SOURCE_V:
        source: AlgebraExpr = alg.GetVertices()
    elif first.kind is StepKind.SOURCE_E:
        source = alg.GetEdges()
    else:  # pragma: no cover - parser enforces this
        raise CompileError("root traversal must start with V() or E()")
    return _compile_steps(ast.steps[1:], source, source, eq7_grouping)
