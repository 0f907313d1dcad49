"""Spans around calls into grem_algebra, and the per-operator profile.

Nothing inside the package is instrumented.  The benchmark calls each
layer's public function through ``Tracer.call``; for ``cli.main``, which
calls the layers itself, ``patched`` swaps the module attributes it calls
for wrappers for the duration of one call.  Spans stay in memory and are
written with the result at the end of a run.

The per-operator profile uses the fact that ``evaluate`` is a pure
function of (plan, graph): it evaluates every subtree of a compiled plan
and takes an operator's self time as its subtree's time minus its child
subtrees' times.  Selection predicate subtrees are rooted at Argument and
cannot run alone, so their cost is part of the Selection's self time.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

from grem_algebra import algebra as alg
from grem_algebra import evaluate

OPERATORS = (
    "GetVertices",
    "Traverse",
    "PropertyFilter",
    "LabelFilter",
    "Selection",
    "Projection",
    "Dedup",
    "Restriction",
    "Sort",
    "Group",
    "Join",
    "Union",
    "Aggregate",
)


def _fresh_stack_function():
    """on_fresh_stack(fn, *args): fn(*args) at a fixed place on the stack.

    CPython 3.11 keeps frames in 16 KB data-stack chunks and frees a chunk
    as soon as its first frame returns, so a hot loop whose calls cross a
    chunk boundary maps and unmaps memory on every call and runs several
    times slower.  Whether that happens depends on the caller's depth.
    This function's frame has about 25 KB of local slots, more than any
    16 KB chunk holds, so it always gets a fresh 64 KB chunk to itself and
    fn starts at the same offset of it, with some 39 KB of room, whatever
    the depth of the benchmark code that called it.  The locals are never
    assigned; declaring them is enough to size the frame.
    """
    n_slots = 3100
    names = ", ".join(f"_{i}" for i in range(n_slots))
    source = (
        "def on_fresh_stack(fn, *args):\n"
        f"    if False:\n        {names} = range({n_slots})\n"
        "    return fn(*args)\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["on_fresh_stack"]


on_fresh_stack = _fresh_stack_function()

# Span record fields: [span id, parent id, name, start ns, end ns, query id]
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "qid")


class NoTracer:
    """Calls straight through; used for the untraced, measured runs."""

    qid = None

    @staticmethod
    def call(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through it, nesting by call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: str | None = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, 0, 0, self.qid]
        self.spans.append(record)
        self._stack.append(record[0])
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = perf_counter_ns()
            record[3] = start
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e6 for s in self.spans if s[2] == name]


@contextmanager
def patched(tracer: Tracer, targets):
    """Route calls to module attributes through the tracer.

    targets: (module, attribute, span name) triples; originals are restored
    on exit.
    """
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return tracer.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- plan walking -----------------------------------------------------------


def children(expr) -> tuple:
    """Input subtrees of an operator, without Selection predicates."""
    if isinstance(expr, (alg.Join, alg.Union)):
        return (expr.left, expr.right)
    inner = getattr(expr, "input", None)
    return (inner,) if inner is not None else ()


def plan_nodes(expr) -> int:
    """Operators in a plan, Selection predicates included."""
    count = 1 + sum(plan_nodes(c) for c in children(expr))
    if isinstance(expr, alg.Selection):
        count += plan_nodes(expr.predicate)
    return count


def post_order(expr) -> list:
    """Operator nodes, children before parents, without Selection
    predicates; a subtree shared by two parents appears once per parent."""
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children(node))
    return order[::-1]


def _timed_evaluate(expr, graph) -> tuple[int, float]:
    start = perf_counter()
    n_rows = len(evaluate(expr, graph))
    return n_rows, perf_counter() - start


def profile_plan(expr, graph, target_s: float = 0.3, max_rounds: int = 30) -> list[dict]:
    """Per-node self time, rows in and rows out for one compiled plan.

    Returns one dict per operator node (op, self_ms, rows_in, rows_out),
    the root last.  Each round evaluates every subtree once; rounds repeat
    until about target_s has been spent, at least three unless one round
    already takes that long.  A subtree's time is its fastest round, and
    interleaving the subtrees in rounds keeps a slow phase of the machine
    from landing on a parent and not on its children.  Self time is the
    subtree's time minus its child subtrees' times; for a cheap operator
    it can come out slightly negative, and is reported as measured.
    """
    # Objects that outlive the profile (graph, indexes) are moved out of
    # the collector's reach, so a full collection costs about the same in
    # every subtree evaluation instead of landing on whichever one trips it.
    gc.freeze()
    order = post_order(expr)
    distinct = list({id(node): node for node in order}.values())
    best = {id(node): float("inf") for node in distinct}
    rows: dict[int, int] = {}
    rounds, spent = 0, 0.0
    while rounds < max_rounds and (rounds < 3 or spent < target_s):
        for node in distinct:
            rows[id(node)], elapsed = on_fresh_stack(_timed_evaluate, node, graph)
            best[id(node)] = min(best[id(node)], elapsed * 1e3)
            spent += elapsed
        rounds += 1
        if rounds == 1 and spent >= target_s:
            break

    nodes = []
    for node in order:
        kids = children(node)
        if isinstance(node, alg.GetVertices):
            rows_in = graph.vertex_count
        elif isinstance(node, alg.GetEdges):
            rows_in = graph.edge_count
        else:
            rows_in = sum(rows[id(c)] for c in kids)
        nodes.append(
            {
                "op": type(node).__name__,
                "self_ms": best[id(node)] - sum(best[id(c)] for c in kids),
                "rows_in": rows_in,
                "rows_out": rows[id(node)],
            }
        )
    return nodes
