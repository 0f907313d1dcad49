"""Loader, adjacency, and property lookups of the property graph."""

import io
import json
import re
from collections import OrderedDict
from operator import is_, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import Graph, GraphFormatError, load_graph, modern_graph
from grem_algebra.property_graph import _check_entries, value_key, values_equal

from corpus import random_graph
from reference import (
    edge_ids,
    edge_label,
    edge_record,
    edges,
    element_property,
    graph_from_entries,
    in_adjacent,
    out_adjacent,
    vertex_label,
)
from test_golden_load import MUTATIONS, entry_objects

NAME_TO_ID = {"marko": "1", "vadas": "2", "lop": "3", "josh": "4", "ripple": "5", "peter": "6"}


def enumerate_out(g, vid, label):
    """Independent adjacency oracle: scan the full edge list."""
    return sorted(
        (e.id, e.in_v)
        for e in edges(g)
        if e.out_v == vid and (label is None or e.label == label)
    )


def enumerate_in(g, vid, label):
    return sorted(
        (e.id, e.out_v)
        for e in edges(g)
        if e.in_v == vid and (label is None or e.label == label)
    )


def test_modern_counts(modern):
    assert modern.vertex_count == 6
    assert modern.edge_count == 6
    assert set(modern.vertex_ids()) == set("123456")


def test_empty_graph():
    g = load_graph('{"vertices": [], "edges": []}')
    assert g.vertex_count == 0
    assert g.edge_count == 0


def test_out_adjacent_marko_knows(modern):
    got = out_adjacent(modern, NAME_TO_ID["marko"], "knows")
    assert sorted(got) == enumerate_out(modern, "1", "knows")
    assert sorted(got) == [("7", "2"), ("8", "4")]
    assert len(got) == 2


def test_out_adjacent_vadas_created_empty(modern):
    assert out_adjacent(modern, NAME_TO_ID["vadas"], "created") == []
    assert enumerate_out(modern, "2", "created") == []


def test_out_adjacent_unlabeled(modern):
    got = out_adjacent(modern, "1")
    assert sorted(got) == enumerate_out(modern, "1", None)
    assert len(got) == 3


def test_in_adjacent_lop_created(modern):
    got = in_adjacent(modern, NAME_TO_ID["lop"], "created")
    assert sorted(got) == enumerate_in(modern, "3", "created")
    assert sorted(v for _, v in got) == ["1", "4", "6"]


def test_in_adjacent_empty_cases(modern):
    assert in_adjacent(modern, "1") == []
    assert in_adjacent(modern, NAME_TO_ID["ripple"], "knows") == []


def test_unknown_vertex_rejected(modern):
    with pytest.raises(GraphFormatError):
        out_adjacent(modern, "99")
    with pytest.raises(GraphFormatError):
        in_adjacent(modern, "99", "knows")


def test_element_property(modern):
    assert element_property(modern, "1", "age") == 29
    assert element_property(modern, "3", "age") is None
    assert element_property(modern, "3", "lang") == "java"
    assert element_property(modern, "7", "weight") == 0.5
    with pytest.raises(GraphFormatError):
        element_property(modern, "99", "age")


def test_labels(modern):
    assert vertex_label(modern, "1") == "person"
    assert vertex_label(modern, "3") == "software"
    assert edge_label(modern, "7") == "knows"
    assert edge_label(modern, "9") == "created"


def test_edge_record(modern):
    rec = edge_record(modern, "8")
    assert (rec.out_v, rec.label, rec.in_v) == ("1", "knows", "4")


# -- format errors -------------------------------------------------------------


def _doc(vertices, edges):
    return json.dumps({"vertices": vertices, "edges": edges})


V1 = {"id": "1", "label": "person", "properties": {"name": "x"}}


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        load_graph(_doc([V1], [{"id": "2", "label": "knows", "outV": "1", "inV": "99"}]))


def test_duplicate_ids_rejected():
    with pytest.raises(GraphFormatError, match="duplicate vertex"):
        load_graph(_doc([V1, V1], []))
    e = {"id": "9", "label": "knows", "outV": "1", "inV": "1"}
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        load_graph(_doc([V1], [e, e]))
    clash = {"id": "1", "label": "knows", "outV": "1", "inV": "1"}
    with pytest.raises(GraphFormatError, match="already used"):
        load_graph(_doc([V1], [clash]))


def test_label_class_clash_rejected():
    with pytest.raises(GraphFormatError, match="both vertices and edges"):
        load_graph(
            _doc(
                [V1, {"id": "2", "label": "person", "properties": {}}],
                [{"id": "3", "label": "person", "outV": "1", "inV": "2"}],
            )
        )


def test_missing_label_rejected():
    with pytest.raises(GraphFormatError, match="label"):
        load_graph(_doc([{"id": "1"}], []))


def test_non_object_top_level_rejected():
    with pytest.raises(GraphFormatError, match="top level must be a JSON object"):
        load_graph("[]")


def test_unknown_keys_rejected():
    with pytest.raises(GraphFormatError, match="top-level"):
        load_graph('{"vertices": [], "edges": [], "meta": {}}')
    with pytest.raises(GraphFormatError, match="unknown key"):
        load_graph(_doc([{**V1, "color": "red"}], []))


def test_non_scalar_property_rejected():
    bad = {"id": "1", "label": "person", "properties": {"tags": ["a"]}}
    with pytest.raises(GraphFormatError, match="non-scalar"):
        load_graph(_doc([bad], []))


def test_non_scalar_property_error_stays_small():
    """The message names the JSON type, never the value, whatever its size."""
    for value, kind in (([0] * 200_000, "array"), ({"k": "v" * 200_000}, "object"), (None, "null")):
        bad = {"id": "1", "label": "person", "properties": {"tags": value}}
        with pytest.raises(GraphFormatError, match=f"non-scalar value of type {kind}$") as exc:
            load_graph(_doc([bad], []))
        assert len(str(exc.value)) < 200


def test_integer_past_the_digit_limit_rejected():
    """CPython converts integer strings of at most 4300 digits by default;
    a longer JSON integer is a GraphFormatError, not a ValueError."""
    doc = '{"vertices": [{"id": "1", "label": "p", "properties": {"n": %s}}], "edges": []}'
    assert element_property(load_graph(doc % ("9" * 4300)), "1", "n") == int("9" * 4300)
    for literal in ("9" * 5000, "-" + "9" * 5000):
        with pytest.raises(GraphFormatError, match="invalid JSON: integer has too many digits"):
            load_graph(doc % literal)

def test_json_error_carries_position():
    with pytest.raises(GraphFormatError) as exc:
        load_graph('{"vertices": [\n  {"id": }], "edges": []}')
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "data",
    [
        b'{"vertices": [{"id": "\xff", "label": "person"}], "edges": []}',
        '{"vertices": [], "edges": []}'.encode("utf-16"),
    ],
    ids=["invalid-byte", "utf-16"],
)
def test_non_utf8_bytes_rejected(data):
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        load_graph(data)
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        load_graph(io.BytesIO(data))


def _nested_value(depth):
    """A graph document whose vertex property k is depth nested arrays."""
    return ('{"vertices": [{"id": "1", "label": "person", "properties": {"k": '
            + "[" * depth + "]" * depth + '}}], "edges": []}')


def _decodes(text):
    """Whether json.loads decodes text."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


def _decoder_limit():
    """The most nested arrays the running json decoder takes as property
    k's value, here.  Up to 3.11 the recursion limit bounds it; 3.12 and
    3.13 count C-level recursion against a limit of their own, and take
    more (json.loads decodes 1,010 nested arrays on both)."""
    lo, hi = 0, 100_000  # decoded, not decoded
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _decodes(_nested_value(mid)) else (lo, mid)
    return lo


@pytest.mark.parametrize("past", [None, 10], ids=["100000", "limit+10"])
def test_json_nested_past_the_decoder_limit_rejected(past):
    """Nesting past what the decoder takes is an invalid-JSON fault, well
    past it (100,000 levels) and just past it (10 levels past the limit
    _decoder_limit finds, clear of the few frames by which its json.loads
    call and load_graph's may differ)."""
    depth = 100_000 if past is None else _decoder_limit() + past
    with pytest.raises(GraphFormatError, match="^invalid JSON: nested too deeply$"):
        load_graph(_nested_value(depth))


def test_json_nested_within_the_decoder_limit_is_a_non_scalar_value():
    """Nesting the decoder takes reaches the loader's next documented
    check: a property value must be a scalar."""
    depth = _decoder_limit() - 10
    assert _decodes(_nested_value(depth))
    message = "vertices[0]: property 'k' has non-scalar value of type array"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_graph(_nested_value(depth))


def test_missing_sections_rejected():
    with pytest.raises(GraphFormatError, match="missing top-level"):
        load_graph('{"vertices": []}')


def test_multigraph_allowed():
    g = load_graph(
        _doc(
            [V1, {"id": "2", "label": "person", "properties": {}}],
            [
                {"id": "e1", "label": "knows", "outV": "1", "inV": "2"},
                {"id": "e2", "label": "knows", "outV": "1", "inV": "2"},
            ],
        )
    )
    assert len(out_adjacent(g, "1", "knows")) == 2


def test_load_deterministic():
    with open(__import__("grem_algebra").modern_graph_path(), "rb") as f:
        data = f.read()
    assert load_graph(data) == load_graph(data)
    assert load_graph(data) == modern_graph()


# -- invariants ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_adjacency_invariants_random(seed):
    g = random_graph(seed)
    for rec in edges(g):
        assert (rec.id, rec.in_v) in out_adjacent(g, rec.out_v, rec.label)
        assert (rec.id, rec.out_v) in in_adjacent(g, rec.in_v, rec.label)
    total_out = sum(len(out_adjacent(g, v)) for v in g.vertex_ids())
    total_in = sum(len(in_adjacent(g, v)) for v in g.vertex_ids())
    assert total_out == g.edge_count == total_in


def test_value_equality_is_type_strict():
    assert not values_equal(29, "29")
    assert not values_equal(True, 1)
    assert values_equal(29, 29.0)
    assert values_equal("java", "java")


def test_value_key_float_bits():
    assert value_key(1.0) != value_key(1)
    assert value_key(0.0) != value_key(-0.0)
    assert value_key(float("nan")) == value_key(float("nan"))


def test_shared_property_key_between_vertex_and_edge_accepted():
    # vertex properties and edge properties may share key names
    g = load_graph(
        _doc(
            [{"id": "1", "label": "person", "properties": {"weight": 70}},
             {"id": "2", "label": "person", "properties": {}}],
            [{"id": "e", "label": "knows", "outV": "1", "inV": "2",
              "properties": {"weight": 0.5}}],
        )
    )
    assert element_property(g, "1", "weight") == 70
    assert element_property(g, "e", "weight") == 0.5


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e999"])
def test_non_finite_number_rejected(literal):
    text = (
        '{"vertices": [{"id": "1", "label": "person", "properties": {"age": '
        + literal
        + "}}], \"edges\": []}"
    )
    with pytest.raises(GraphFormatError, match="non-finite value"):
        load_graph(text)


def test_non_finite_edge_property_rejected():
    doc = {
        "vertices": [{"id": "1", "label": "person"}],
        "edges": [
            {"id": "2", "label": "knows", "outV": "1", "inV": "1", "properties": {"weight": 0.5}}
        ],
    }
    load_graph(json.dumps(doc))
    doc["edges"][0]["properties"]["weight"] = float("nan")
    with pytest.raises(GraphFormatError, match=r"edges\[0\]: property 'weight'"):
        load_graph(json.dumps(doc))


def test_tables_built_once_and_shared():
    """The graph's layout by rank, with neighbour entries built on first
    use and then kept."""
    modern = modern_graph()  # a graph no query has read yet
    assert [r.id for r in modern.vertex_refs] == modern.vertex_ids()
    # one rank int and one interned ref per vertex, by rank
    rank = {r.id: i for i, r in enumerate(modern.vertex_refs)}
    assert modern.vertex_ranks == tuple(range(len(rank)))
    assert "vertex_tokens" not in vars(modern)  # not built before first use
    assert modern.vertex_tokens == tuple((i,) for i in range(len(rank)))
    assert all(map(is_, map(itemgetter(0), modern.vertex_tokens), modern.vertex_ranks))
    assert modern.vertex_props[rank["1"]]["name"] == "marko"
    assert modern.vertex_labels[rank["3"]] == "software"
    marko = rank["1"]
    assert ("out", "knows") not in modern._neighbours  # not built before first use
    (found,) = modern.neighbours("out", "knows", [marko])
    assert [modern.vertex_refs[n].id for n in found] == ["2", "4"]
    knows = modern._neighbours[("out", "knows")]
    # built for the ranks asked for only, then kept
    assert [r for r, e in enumerate(knows) if e is not None] == [marko]
    assert modern.neighbours("out", "knows", [marko, marko]) == [found, found]
    assert modern._neighbours[("out", "knows")] is knows and knows[marko] is found
    for direction, adjacent in (("out", out_adjacent), ("in", in_adjacent)):
        for label in (None, "knows", "created"):
            entries = modern.neighbours(direction, label, list(rank.values()))
            for vid, found in zip(rank, entries):
                assert found == tuple(rank[v] for _, v in adjacent(modern, vid, label))
                # the graph's own rank ints, never one made per entry
                assert all(n is modern.vertex_ranks[n] for n in found)
    assert "_label_ranks" not in vars(modern)  # not built before first use
    people = modern.ranks_labelled("person")
    table = modern._label_ranks
    assert [modern.vertex_refs[r].id for r in people] == ["1", "2", "4", "6"]
    assert modern.ranks_labelled("person") is people and modern._label_ranks is table
    refs = modern.edges_sorted()
    assert modern.edges_sorted() is refs
    assert [r.id for r in refs] == edge_ids(modern) == sorted(e.id for e in edges(modern))


def test_tables_hold_no_reference_to_the_graph():
    """With its neighbour entries and edge refs built, the graph is still
    freed by reference counting alone: nothing it holds refers back to it."""
    import gc
    import weakref

    g = load_graph(json.dumps({
        "vertices": [{"id": "1", "label": "p"}, {"id": "0", "label": "p"}],
        "edges": [{"id": "e", "label": "k", "outV": "1", "inV": "0"}],
    }))
    g.neighbours("out", None, [1])
    g.neighbours("in", "k", [0])
    g.edges_sorted()
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None  # freed by reference counting alone, no cycle
    finally:
        gc.enable()


def test_vertex_ids_returns_a_fresh_list(modern):
    ids = modern.vertex_ids()
    ids.append("zzz")
    assert modern.vertex_ids() == ["1", "2", "3", "4", "5", "6"]


def test_graph_takes_only_what_json_loads_builds():
    """Graph() checks entries as json.loads builds them: a dict subclass is
    an object to the entry-by-entry checks but not to the column passes."""
    assert Graph([{"id": "1", "label": "p"}], []).vertex_ids() == ["1"]
    with pytest.raises(GraphFormatError, match="^vertices\\[0\\]: missing required field 'label'$"):
        Graph([{"id": "1"}], [])
    with pytest.raises(GraphFormatError, match="^graph entries hold values json.loads never builds$"):
        Graph([OrderedDict(id="1", label="p")], [])


@pytest.mark.parametrize("vertices,edges,where,key", [
    ([{"id": "a", "label": "p", "properties": {1: 2, None: "x"}}], [], "vertices[0]", "1"),
    (
        [{"id": "a", "label": "p", "properties": {"k": 1}}, {"id": "b", "label": "p"}],
        [{"id": "e", "label": "q", "outV": "a", "inV": "b", "properties": {"w": 1, None: 2}}],
        "edges[0]", "None",
    ),
], ids=["vertex", "edge"])
def test_graph_rejects_a_property_key_that_is_not_a_string(vertices, edges, where, key):
    """json.loads builds only string keys; Graph() applies that rule too,
    with the entry-by-entry check's message."""
    with pytest.raises(GraphFormatError, match=f"^{re.escape(where)}: property key {key} is not a string$"):
        Graph(vertices, edges)


# -- lone surrogates -------------------------------------------------------------


def _surrogate_doc(section: str, place: str, lone: str) -> dict:
    doc = {
        "vertices": [
            {"id": "1", "label": "person", "properties": {"name": "x"}},
            {"id": "2", "label": "person"},
        ],
        "edges": [{"id": "e", "label": "knows", "outV": "1", "inV": "2", "properties": {"name": "y"}}],
    }
    entry = doc[section][0]
    if place == "key":
        entry["properties"][lone] = 1
    elif place == "value":
        entry["properties"]["name"] = lone
    else:
        entry[place] = lone
    return doc


@pytest.mark.parametrize("lone", ["\ud800", "\udfff", "x\udc00y"], ids=["high", "low", "inside"])
@pytest.mark.parametrize(
    "section, place, message",
    [
        ("vertices", "id", "field 'id' holds a lone surrogate"),
        ("vertices", "label", "field 'label' holds a lone surrogate"),
        ("vertices", "key", "property key {!r} holds a lone surrogate"),
        ("vertices", "value", "property 'name' holds a lone surrogate"),
        ("edges", "id", "field 'id' holds a lone surrogate"),
        ("edges", "label", "field 'label' holds a lone surrogate"),
        ("edges", "outV", "field 'outV' holds a lone surrogate"),
        ("edges", "inV", "field 'inV' holds a lone surrogate"),
        ("edges", "key", "property key {!r} holds a lone surrogate"),
        ("edges", "value", "property 'name' holds a lone surrogate"),
    ],
)
def test_lone_surrogate_rejected_naming_entry_and_field(section, place, message, lone):
    """A lone surrogate is valid JSON, but no UTF-8 output can print it:
    escaped in text or bytes, or raw in a str, it is a load error."""
    doc = _surrogate_doc(section, place, lone)
    escaped = json.dumps(doc)
    for source in (escaped, escaped.encode("utf-8"), json.dumps(doc, ensure_ascii=False)):
        with pytest.raises(GraphFormatError) as exc:
            load_graph(source)
        assert str(exc.value) == f"{section}[0]: " + message.format(lone)


def test_surrogate_pairs_and_escaped_backslashes_load():
    text = (
        '{"vertices": [{"id": "\\ud83d\\ude00", "label": "p", "properties": {"k": "\\\\ud800"}}],'
        ' "edges": []}'
    )
    for source in (text, text.encode("utf-8"), json.dumps(json.loads(text), ensure_ascii=False)):
        g = load_graph(source)
        assert g.vertex_ids() == ["\U0001f600"]
        assert g.vertex_props == [{"k": "\\ud800"}]


def test_lone_surrogate_takes_its_place_in_the_check_order():
    """Entries are checked in file order, and every entry's own checks come
    before the checks across entries."""
    lone = {"id": "\ud800", "label": "p"}
    with pytest.raises(GraphFormatError, match=r"^vertices\[0\]: missing required field 'label'$"):
        load_graph(_doc([{"id": "0"}, lone], []))
    with pytest.raises(GraphFormatError, match=r"^vertices\[2\]: field 'id' holds a lone surrogate$"):
        load_graph(_doc([V1, V1, lone], []))
    with pytest.raises(GraphFormatError, match=r"^edges\[1\]: property 'w' holds a lone surrogate$"):
        load_graph(_doc([V1], [
            {"id": "e", "label": "person", "outV": "1", "inV": "9"},
            {"id": "f", "label": "k", "outV": "1", "inV": "1", "properties": {"w": "\udfff"}},
        ]))


# -- whole-column checks against the entry-by-entry ones ---------------------------

SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=3),
)


@st.composite
def _entry(draw, fields: dict) -> dict:
    how = draw(st.sampled_from(["absent", "null", "object"]))
    if how != "absent":
        keys = st.sampled_from(["name", "age", "w", ""])
        fields["properties"] = None if how == "null" else draw(st.dictionaries(keys, SCALARS, max_size=3))
    return fields


@st.composite
def documents(draw) -> dict:
    """A valid graph document of up to six vertices, their ids in random
    order, or one with the golden's faults or lone surrogates put in."""
    vids = draw(st.lists(st.text("ab1é\U0001f600", max_size=3), unique=True, max_size=6))
    vertices = [
        draw(_entry({"id": vid, "label": draw(st.sampled_from(["person", "p", ""]))})) for vid in vids
    ]
    edges = []
    for i in range(draw(st.integers(0, 8 if vids else 0))):
        fields = {"id": f"e{i}", "label": draw(st.sampled_from(["knows", "k"]))}
        fields["outV"], fields["inV"] = draw(st.sampled_from(vids)), draw(st.sampled_from(vids))
        edges.append(draw(_entry(fields)))
    doc = {"vertices": vertices, "edges": edges}
    rng = draw(st.randoms(use_true_random=False))
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS) + ["lone-surrogate"]), max_size=2)):
        if not entry_objects(doc, "vertices"):
            break
        if name == "lone-surrogate":
            entry = rng.choice(entry_objects(doc))
            field = rng.choice([k for k in entry if k != "properties"] or ["id"])
            entry[field] = rng.choice(["\ud800", "a\udfff", "\udc00\ud800"])
        else:
            MUTATIONS[name](rng, doc)
    return doc


@settings(max_examples=500, deadline=None)
@given(documents(), st.sampled_from(["text", "bytes", "raw"]))
def test_load_graph_agrees_with_the_entry_by_entry_checks(doc, form):
    """Where the entry-by-entry checks raise, load_graph raises the same
    message; everywhere else it builds the graph a plain loop builds, with
    the same adjacency."""
    text = json.dumps(doc, ensure_ascii=form != "raw")
    source = text.encode("utf-8") if form == "bytes" else text
    parsed = json.loads(text)
    vertices, edges_ = parsed["vertices"], parsed["edges"]
    try:
        _check_entries(vertices, edges_)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            load_graph(source)
        assert str(got.value) == str(exc)
        return
    g = load_graph(source)
    assert g == graph_from_entries(vertices, edges_)
    rank = {vid: r for r, vid in enumerate(g.vertex_ids())}
    for direction, adjacent in (("out", out_adjacent), ("in", in_adjacent)):
        for vid, r in rank.items():
            for label in (None, "k"):
                expected = tuple(rank[v] for _, v in adjacent(g, vid, label))
                assert g.neighbours(direction, label, [r]) == [expected]


def test_graph_repr_and_equality_with_other_values(modern):
    assert repr(modern) == "Graph(|V|=6, |E|=6)"
    assert (modern == 1) is False and modern != "Graph(|V|=6, |E|=6)"


def test_load_graph_file_reads_a_path(tmp_path):
    from grem_algebra import load_graph_file, modern_graph_path

    assert load_graph_file(modern_graph_path()) == modern_graph()
    with pytest.raises(OSError):
        load_graph_file(str(tmp_path / "missing.json"))
