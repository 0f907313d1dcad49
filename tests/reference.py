"""Reference semantics the engine is tested against.

None of this is part of the package: it is a second and a third way to
answer the questions the evaluator answers, kept simple so that tests can
trust it.

* the path algebra: paths as edge sequences, concatenation and the
  concatenative join;
* the traverser route: match() run one traverser at a time, each pattern
  exactly once per traverser, with the three-case ``bind`` contract;
* the brute-force oracle: every assignment of pattern variables to
  vertices, with edge multiplicities;
* linear traversals: a chain of steps from every vertex or edge, one row
  at a time, filters decided by ``values_equal`` and the element's own
  label, a where()/not() predicate run from each row alone;
* the graph by id: labels, properties, edges and adjacency looked up by
  original string id, each a plain scan of the graph's rank layout, and
  a graph built from a document's entries in one plain loop;
* the bag union of two binding sets, over their dict rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable

from grem_algebra.compiler import PatternChain
from grem_algebra.errors import EvaluationError, GraphFormatError
from grem_algebra.evaluator import CUR, BindingSet, Value
from grem_algebra.parser import StepKind
from grem_algebra.property_graph import EdgeRef, Graph, PropertyValue, VertexRef, values_equal


class UnboundPatternError(EvaluationError):
    """A match pattern could not run because its start variable never binds."""


# -- the graph by id -------------------------------------------------------------
#
# The package's Graph is read by rank and edge index.  These functions read
# it by original string id, scanning its columns, so that they also check
# the adjacency the graph builds.


@dataclass(frozen=True)
class EdgeRecord:
    """A directed edge: out_v --label--> in_v."""

    id: str
    out_v: str
    label: str
    in_v: str


def _require_vertex(g: Graph, vid: str) -> int:
    try:
        return g._v_index[vid]
    except KeyError:
        raise GraphFormatError(f"unknown vertex id {vid!r}") from None


def _require_edge(g: Graph, eid: str) -> int:
    try:
        return g.edge_index[eid]
    except KeyError:
        raise GraphFormatError(f"unknown edge id {eid!r}") from None


def vertex_label(g: Graph, vid: str) -> str:
    return g.vertex_labels[_require_vertex(g, vid)]


def edge_label(g: Graph, eid: str) -> str:
    return g.edge_labels[_require_edge(g, eid)]


def element_label(g: Graph, ref: VertexRef | EdgeRef) -> str:
    if isinstance(ref, VertexRef):
        return vertex_label(g, ref.id)
    return edge_label(g, ref.id)


def element_property(g: Graph, elem: str, key: str) -> PropertyValue | None:
    """μ(elem, key), or None when the key is absent; elem is a vertex id or
    an edge id (ids never collide)."""
    if elem in g._v_index:
        return g.vertex_props[g._v_index[elem]].get(key)
    if elem in g.edge_index:
        return g.edge_props[g.edge_index[elem]].get(key)
    raise GraphFormatError(f"unknown element id {elem!r}")


def edge_record(g: Graph, eid: str) -> EdgeRecord:
    ex = _require_edge(g, eid)
    refs = g.vertex_refs
    return EdgeRecord(eid, refs[g._e_out[ex]].id, g.edge_labels[ex], refs[g._e_in[ex]].id)


def edges(g: Graph) -> list[EdgeRecord]:
    """Every edge, in file order."""
    return [edge_record(g, eid) for eid in g.edge_index]


def edge_ids(g: Graph) -> list[str]:
    """All edge ids in ascending lexicographic order."""
    return sorted(g.edge_index)


def out_adjacent(g: Graph, vid: str, label: str | None = None) -> list[tuple[str, str]]:
    """(edge id, target vertex id) pairs for the edges leaving vid, one per
    edge of that label (None: any label), in file order."""
    return _adjacent(g, g._e_out, g._e_in, vid, label)


def in_adjacent(g: Graph, vid: str, label: str | None = None) -> list[tuple[str, str]]:
    """(edge id, source vertex id) pairs for the edges arriving at vid."""
    return _adjacent(g, g._e_in, g._e_out, vid, label)


def _adjacent(g: Graph, here: list, there: list, vid: str, label: str | None) -> list:
    rank = _require_vertex(g, vid)
    refs, labels = g.vertex_refs, g.edge_labels
    return [
        (eid, refs[there[ex]].id)
        for eid, ex in g.edge_index.items()
        if here[ex] == rank and (label is None or labels[ex] == label)
    ]


def graph_from_entries(vertices: list[dict], edges: list[dict]) -> Graph:
    """The graph a valid document's entries make, built one entry at a time:
    vertices by rank (ascending id), edges in file order, each properties
    object as is (absent or null: empty)."""
    by_id = {}
    for vertex in vertices:
        by_id[vertex["id"]] = vertex
    g = Graph.__new__(Graph)
    g._v_ids = sorted(by_id)
    rank = {vid: r for r, vid in enumerate(g._v_ids)}
    g.vertex_labels, g.vertex_props = [], []
    for vid in g._v_ids:
        g.vertex_labels.append(by_id[vid]["label"])
        g.vertex_props.append(by_id[vid].get("properties") or {})
    g._e_ids, g.edge_labels, g._e_out, g._e_in, g.edge_props = [], [], [], [], []
    for edge in edges:
        g._e_ids.append(edge["id"])
        g.edge_labels.append(edge["label"])
        g._e_out.append(rank[edge["outV"]])
        g._e_in.append(rank[edge["inV"]])
        g.edge_props.append(edge.get("properties") or {})
    return g


# -- bag union -------------------------------------------------------------------


def multiset_union(a: BindingSet, b: BindingSet) -> BindingSet:
    """Bag union: a's rows then b's, multiplicities add.

    The two schemas must contain the same columns; otherwise this raises,
    since rows with absent columns are not representable.
    """
    if set(a.columns) != set(b.columns):
        raise EvaluationError(f"union schema mismatch: {list(a.columns)} vs {list(b.columns)}")
    return BindingSet(a.columns, a.rows + b.rows)


# -- paths ---------------------------------------------------------------------

Edge = tuple  # (source, edge label, target)


@dataclass(frozen=True)
class Path:
    """A path as a sequence of edges (source, label, target).

    Consecutive edges must be incident: each edge's target is the next
    edge's source.  The empty path is the identity of concatenation.
    """

    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.edges, self.edges[1:]):
            if a[2] != b[0]:
                raise EvaluationError(f"non-incident path edges {a!r} and {b!r}")

    @property
    def is_empty(self) -> bool:
        return not self.edges

    @property
    def length(self) -> int:
        """Number of edges in the path."""
        return len(self.edges)

    def first(self) -> object:
        """γ⁻: the path's first vertex (non-empty paths only)."""
        if self.is_empty:
            raise EvaluationError("empty path has no first element")
        return self.edges[0][0]

    def last(self) -> object:
        """γ⁺: the path's last vertex (non-empty paths only)."""
        if self.is_empty:
            raise EvaluationError("empty path has no last element")
        return self.edges[-1][2]

    def flatten(self) -> tuple:
        """All edge triples spliced end to end, e.g. (v1,e1,v2,v2,e2,v3)."""
        out: list = []
        for e in self.edges:
            out.extend(e)
        return tuple(out)

    def spliced(self) -> tuple:
        """Vertex/label alternation with shared vertices merged,
        e.g. (v1,e1,v2,e2,v3)."""
        if self.is_empty:
            return ()
        out: list = [self.edges[0][0]]
        for src, label, dst in self.edges:
            out.extend((label, dst))
        return tuple(out)


EMPTY_PATH = Path()


def path_concat(p: Path, r: Path) -> Path:
    """p ∘ r; defined when either side is empty or p ends where r starts."""
    if p.is_empty:
        return r
    if r.is_empty:
        return p
    if p.last() != r.first():
        raise EvaluationError(
            f"path endpoint mismatch: {p.last()!r} does not meet {r.first()!r}"
        )
    return Path(p.edges + r.edges)


def path_join(paths: Iterable[Path], others: Iterable[Path]) -> list[Path]:
    """Concatenative join ⋈∘ of two path multisets.

    Pairs join when either side is empty or the endpoints meet; the empty
    path acts as identity.
    """
    others = list(others)
    out: list[Path] = []
    for p in paths:
        for r in others:
            if p.is_empty or r.is_empty or p.last() == r.first():
                out.append(path_concat(p, r))
    return out


# -- traverser-level match semantics ---------------------------------------------


@dataclass(frozen=True)
class Traverser:
    """Execution token: current location, labeled path, hidden markers."""

    location: Value
    labeled_path: dict = field(default_factory=dict)
    hidden_labels: frozenset[str] = frozenset()


def bind(t: Traverser, var: str) -> Traverser | None:
    """Bind the traverser's location to a path label.

    Unbound label: record the location.  Already bound to the current
    location: unchanged.  Bound to something else: the traverser dies
    (None).
    """
    bound = t.labeled_path.get(var)
    if bound is None:
        return replace(t, labeled_path={**t.labeled_path, var: t.location})
    if values_equal(bound, t.location):
        return t
    return None


def _run_chain(chain: PatternChain, g: Graph, t: Traverser) -> list[Traverser]:
    """Execute one pattern for one traverser; may fork or die."""
    start = t.labeled_path[chain.start_var]
    current = [replace(t, location=start)]
    for step in chain.ops:
        kind = step.kind
        # the edge label, property key or vertex label the step names
        name = step.args[0].value if step.args else None
        next_gen: list[Traverser] = []
        for tr in current:
            loc = tr.location
            is_ref = isinstance(loc, (VertexRef, EdgeRef))
            if kind is StepKind.OUT or kind is StepKind.IN:
                if not isinstance(loc, VertexRef):
                    raise EvaluationError(f"traverse requires a vertex, got {loc!r}")
                if kind is StepKind.OUT:
                    pairs = out_adjacent(g, loc.id, name)
                else:
                    pairs = in_adjacent(g, loc.id, name)
                next_gen.extend(replace(tr, location=VertexRef(v)) for _, v in pairs)
            elif kind is StepKind.HAS_LABEL:
                if is_ref and element_label(g, loc) == name:
                    next_gen.append(tr)
            elif kind is StepKind.HAS:
                if not is_ref:
                    continue
                value = element_property(g, loc.id, name)
                if value is None:
                    continue
                if len(step.args) == 1 or values_equal(value, step.args[1].value):
                    next_gen.append(tr)
            elif kind is StepKind.VALUES:
                if not is_ref:
                    continue
                value = element_property(g, loc.id, name)
                if value is not None:
                    next_gen.append(replace(tr, location=value))
            else:  # pragma: no cover
                raise EvaluationError(f"unknown chain step {kind.value}()")
        current = next_gen
    if chain.end_var is not None:
        bound = (bind(tr, chain.end_var) for tr in current)
        current = [tr for tr in bound if tr is not None]
    return current


def eval_match(chains: list[PatternChain], g: Graph, t: Traverser) -> BindingSet:
    """Run match() for a single seeded traverser.

    Repeatedly executes the first pattern (in list order) whose start
    variable is bound and whose hidden marker is unset, appending the
    marker afterwards so each pattern runs exactly once per traverser.
    A traverser with unexecuted patterns and none runnable means a pattern
    whose start can never bind: an error.
    """
    markers = [f"m{i + 1}" for i in range(len(chains))]
    columns: list[str] = []
    for chain in chains:
        for v in chain.vars:
            if v not in columns:
                columns.append(v)

    finished: list[Traverser] = []
    work = [t]
    while work:
        tr = work.pop()
        runnable = next(
            (
                i
                for i, chain in enumerate(chains)
                if markers[i] not in tr.hidden_labels
                and chain.start_var in tr.labeled_path
            ),
            None,
        )
        if runnable is None:
            if len(tr.hidden_labels) == len(chains):
                finished.append(tr)
                continue
            missing = [
                chains[i].start_var
                for i in range(len(chains))
                if markers[i] not in tr.hidden_labels
            ]
            raise UnboundPatternError(
                f"pattern(s) starting at {missing} can never run: start variable unbound"
            )
        produced = _run_chain(chains[runnable], g, tr)
        marker = markers[runnable]
        work.extend(
            replace(p, hidden_labels=p.hidden_labels | {marker}) for p in produced
        )

    rows = [{v: tr.labeled_path[v] for v in columns} for tr in finished]
    return BindingSet(tuple(columns), rows)


def match_entry_var(chains: list[PatternChain]) -> str:
    """First start variable from which every pattern becomes runnable."""
    candidates = []
    for chain in chains:
        if chain.start_var not in candidates:
            candidates.append(chain.start_var)
    for candidate in candidates:
        bound = {candidate}
        done: set[int] = set()
        progressed = True
        while progressed:
            progressed = False
            for i, chain in enumerate(chains):
                if i in done or chain.start_var not in bound:
                    continue
                done.add(i)
                bound.update(chain.vars)
                progressed = True
        if len(done) == len(chains):
            return candidate
    raise UnboundPatternError(
        "no entry variable reaches every pattern; the match is disconnected"
    )


def match_all(chains: list[PatternChain], g: Graph) -> BindingSet:
    """Run match() seeded at every vertex (the g.V().match(...) shape)."""
    entry = match_entry_var(chains)
    merged: BindingSet | None = None
    for vid in g.vertex_ids():
        ref = VertexRef(vid)
        t = Traverser(location=ref, labeled_path={entry: ref})
        result = eval_match(chains, g, t)
        merged = result if merged is None else multiset_union(merged, result)
    return merged if merged is not None else BindingSet((), [])


# -- brute-force oracle -------------------------------------------------------------

MAX_ORACLE_VARS = 6


@dataclass(frozen=True)
class PatternVertex:
    """A pattern variable with optional label/property constraints."""

    var: str
    label: str | None = None
    props: tuple[tuple[str, str, PropertyValue], ...] = ()  # (key, "=", value)
    has_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class PatternEdge:
    src: str
    dst: str
    label: str | None = None


@dataclass(frozen=True)
class OracleGraphPattern:
    vertices: tuple[PatternVertex, ...]
    edges: tuple[PatternEdge, ...] = ()
    # value extractions: (vertex var, property key, value var)
    values: tuple[tuple[str, str, str], ...] = ()


def oracle_match(pattern: OracleGraphPattern, g: Graph) -> BindingSet:
    """Enumerate every assignment of pattern variables to graph vertices.

    An assignment survives when all vertex constraints hold; its
    multiplicity is the product over pattern edges of the number of graph
    edges realizing them (label included).  Value extractions append the
    property values of assigned vertices, dropping assignments where the
    key is absent.
    """
    if len(pattern.vertices) > MAX_ORACLE_VARS:
        raise EvaluationError(
            f"oracle pattern has {len(pattern.vertices)} variables; limit is {MAX_ORACLE_VARS}"
        )
    declared = {pv.var for pv in pattern.vertices}
    for edge in pattern.edges:
        if edge.src not in declared or edge.dst not in declared:
            raise EvaluationError(f"pattern edge {edge} references an undeclared variable")
    for vvar, _key, _tvar in pattern.values:
        if vvar not in declared:
            raise EvaluationError(f"value extraction references undeclared variable {vvar!r}")

    columns = [pv.var for pv in pattern.vertices] + [tv for _, _, tv in pattern.values]
    rows: list[dict] = []
    vertex_ids = g.vertex_ids()
    for combo in itertools.product(vertex_ids, repeat=len(pattern.vertices)):
        assignment = {pv.var: vid for pv, vid in zip(pattern.vertices, combo)}
        ok = True
        for pv, vid in zip(pattern.vertices, combo):
            if pv.label is not None and vertex_label(g, vid) != pv.label:
                ok = False
                break
            for key, cmp, const in pv.props:
                val = element_property(g, vid, key)
                if val is None or cmp != "=" or not values_equal(val, const):
                    ok = False
                    break
            if not ok:
                break
            for key in pv.has_keys:
                if element_property(g, vid, key) is None:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue

        multiplicity = 1
        for edge in pattern.edges:
            src = assignment[edge.src]
            dst = assignment[edge.dst]
            count = sum(
                1 for _eid, target in out_adjacent(g, src, edge.label) if target == dst
            )
            multiplicity *= count
            if multiplicity == 0:
                break
        if multiplicity == 0:
            continue

        row: dict = {v: VertexRef(vid) for v, vid in assignment.items()}
        dead = False
        for vvar, key, tvar in pattern.values:
            val = element_property(g, assignment[vvar], key)
            if val is None:
                dead = True
                break
            row[tvar] = val
        if dead:
            continue
        rows.extend(dict(row) for _ in range(multiplicity))
    return BindingSet(tuple(columns), rows)


# -- linear traversals --------------------------------------------------------------


def linear_rows(g: Graph, steps: Iterable[tuple], source: str = "V") -> list[dict]:
    """The rows, in order, of g.V() (source "E": g.E()) followed by steps,
    each a tuple: ("out", label?), ("in", label?), ("as", var),
    ("has", key, value), ("hasLabel", label), ("values", key),
    ("select", var), ("where", var, steps), ("not", var, steps) or
    ("union", steps, steps).  A row maps its variables and CUR (the
    position) to VertexRefs, EdgeRefs or property values.

    as binds var to the position; where var is bound, it keeps the rows
    whose binding equals the position (values_equal).  select keeps var's
    column alone and moves the position onto it.  where keeps a row when steps run from that row alone yield a row, not
    when they yield none; with a var they start at its binding, bound to
    the position where absent.  union gives the first branch's rows for all
    input rows, then the second's.  out and in raise from anything but a
    vertex, as the engine does; a filter or values() on a value that is
    not an element keeps nothing."""
    if source == "V":
        rows = [{CUR: VertexRef(vid)} for vid in g.vertex_ids()]
    else:
        rows = [{CUR: EdgeRef(eid)} for eid in edge_ids(g)]
    return _linear(g, rows, steps)


def _linear(g: Graph, rows: list[dict], steps: Iterable[tuple]) -> list[dict]:
    for kind, *args in steps:
        if kind == "union":
            rows = _linear(g, rows, args[0]) + _linear(g, rows, args[1])
            continue
        out = []
        for row in rows:
            here = row[CUR]
            element = isinstance(here, (VertexRef, EdgeRef))
            if kind in ("out", "in"):
                if not isinstance(here, VertexRef):
                    raise EvaluationError(f"traverse requires a vertex, got {here!r}")
                adjacent = out_adjacent if kind == "out" else in_adjacent
                out += [{**row, CUR: VertexRef(end)} for _, end in adjacent(g, here.id, *args)]
            elif kind == "as":
                bound = row.get(args[0])
                if bound is None:
                    out.append({**row, args[0]: here})
                elif values_equal(bound, here):
                    out.append(row)
            elif kind == "has":
                value = element_property(g, here.id, args[0]) if element else None
                if value is not None and values_equal(value, args[1]):
                    out.append(row)
            elif kind == "hasLabel":
                if element and element_label(g, here) == args[0]:
                    out.append(row)
            elif kind == "values":
                value = element_property(g, here.id, args[0]) if element else None
                if value is not None:
                    out.append({**row, CUR: value})
            elif kind == "select":
                out.append({args[0]: row[args[0]], CUR: row[args[0]]})
            elif kind in ("where", "not"):
                var, predicate = args
                start = row
                if var is not None:
                    anchor = row.get(var, here)
                    start = {**row, var: anchor, CUR: anchor}
                if bool(_linear(g, [start], predicate)) == (kind == "where"):
                    out.append(row)
            else:
                raise ValueError(f"unknown step {kind!r}")
        rows = out
    return rows
