"""has(key, value) and hasLabel(label) straight over V() read the graph's
rank indexes; the same filters anywhere else scan.  Both must answer what a
row-at-a-time reference answers, row for row and in order."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import compile_traversal, evaluate, load_graph, modern_graph, parse_traversal

from reference import linear_rows

# 1 and 1.0 are equal, True is not 1, -0.0 is 0.0 and "1" is no number
VALUES = [1, 1.0, True, False, -0.0, 0.0, 0, 2, "1", "a", ""]
VERTEX_LABELS = ["person", "software"]
EDGE_LABELS = ["knows", "created"]


@st.composite
def graphs(draw):
    """Up to 7 vertices whose ids do not sort in creation order, keys k and
    j each absent or holding a value of mixed type, up to 12 edges."""
    n = draw(st.integers(0, 7))
    vertices = []
    for i in range(n):
        props = {key: draw(st.sampled_from(VALUES)) for key in ("k", "j") if draw(st.booleans())}
        label = draw(st.sampled_from(VERTEX_LABELS))
        vertices.append({"id": f"v{i * 7 % 11}", "label": label, "properties": props})
    edges = []
    if n:
        ends = st.sampled_from([v["id"] for v in vertices])
        links = draw(st.lists(st.tuples(ends, st.sampled_from(EDGE_LABELS), ends), max_size=12))
        edges = [
            {"id": f"e{j}", "label": label, "outV": out_v, "inV": in_v}
            for j, (out_v, label, in_v) in enumerate(links)
        ]
    return load_graph(json.dumps({"vertices": vertices, "edges": edges}))


filters = st.one_of(
    st.tuples(st.just("has"), st.sampled_from(["k", "j", "absent"]), st.sampled_from(VALUES)),
    # an edge label and an unused one keep no vertex
    st.tuples(st.just("hasLabel"), st.sampled_from(VERTEX_LABELS + ["knows", "nobody"])),
)


def _literal(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return json.dumps(v) if isinstance(v, str) else repr(v)


def _text(steps) -> str:
    return "g.V()" + "".join(
        f".{kind}({','.join(map(_literal, args))})" for kind, *args in steps
    )


def _typed(rows: list[dict]) -> list[list[tuple]]:
    """Rows with each value's type and repr, so that 1, 1.0 and True and
    -0.0 and 0.0 differ."""
    return [sorted((k, type(v).__name__, repr(v)) for k, v in r.items()) for r in rows]


@settings(max_examples=300, deadline=None)
@given(
    g=graphs(),
    bind=st.booleans(),
    picked=st.lists(filters, min_size=1, max_size=2),
    named=st.sampled_from([0, 1, 2]),
    tail=st.sampled_from(["", "out", "values", "select"]),
)
def test_filters_over_v_and_after_out_agree_with_the_reference(g, bind, picked, named, tail):
    """bind names the position x before the hop, if any; named (if not 0)
    names x after the first named filters, a new column or, with bind, an
    equality test that after out() only a self-loop passes."""
    tails = {
        "": [], "out": [("out",)], "values": [("values", "k")],
        "select": [("select", "x")] if bind or named else [],
    }
    if named:
        picked = picked[:named] + [("as", "x")] + picked[named:]
    for hop in ([], [("out",)]):  # over V() the first filter seeks; after out() it scans
        steps = ([("as", "x")] if bind else []) + hop + picked + tails[tail]
        result = evaluate(compile_traversal(parse_traversal(_text(steps))), g)
        assert _typed(result.rows) == _typed(linear_rows(g, steps)), _text(steps)


class _ReadError(Exception):
    pass


class _Unreadable:
    """Stands for a per-vertex table: any read of it raises."""

    def __getattribute__(self, name):
        raise _ReadError(name)

    def __call__(self, *args):
        raise _ReadError("call")

    def __getitem__(self, index):
        raise _ReadError("item")

    def __iter__(self):
        raise _ReadError("iter")

    def __len__(self):
        raise _ReadError("len")


def test_a_filter_over_v_reads_no_per_vertex_data():
    seeks = [
        "g.V().has('name','marko')",
        "g.V().as('a').has('age',29.0).out('knows').as('b').select('a','b')",
        "g.V().has('lang','java').in('created')",
        "g.V().has('age',true)",
        "g.V().hasLabel('software').as('s').in().select('s')",
        "g.V().hasLabel('knows')",
        # a seekable filter over seeks intersects rank tuples
        "g.V().hasLabel('person').has('name','josh')",
        "g.V().as('a').has('lang','java').hasLabel('software').has('name','lop').select('a')",
        # filters that bind their element still seek and intersect
        "g.V().hasLabel('person').as('p').has('age',29).as('q').select('p','q')",
    ]
    scans = ["g.V().out().has('name','lop')", "g.V().out().hasLabel('software')"]
    g = modern_graph()

    def run(text):
        return evaluate(compile_traversal(parse_traversal(text)), g).rows

    first = list(map(run, seeks))
    assert [len(rows) for rows in first] == [1, 2, 4, 0, 4, 0, 1, 1, 1]
    assert all(map(run, scans))
    g.vertex_labels = _Unreadable()
    g.property_column = _Unreadable()
    assert list(map(run, seeks)) == first
    for text in scans:
        with pytest.raises(_ReadError):
            run(text)
