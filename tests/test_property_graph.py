"""Loader, adjacency, and property lookups of the property graph."""

import io
import json
import sys

import pytest

from grem_algebra import GraphFormatError, load_graph, modern_graph
from grem_algebra.property_graph import value_key, values_equal

from corpus import random_graph

NAME_TO_ID = {"marko": "1", "vadas": "2", "lop": "3", "josh": "4", "ripple": "5", "peter": "6"}


def enumerate_out(g, vid, label):
    """Independent adjacency oracle: scan the full edge list."""
    return sorted(
        (e.id, e.in_v)
        for e in g.edges()
        if e.out_v == vid and (label is None or e.label == label)
    )


def enumerate_in(g, vid, label):
    return sorted(
        (e.id, e.out_v)
        for e in g.edges()
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
    got = modern.out_adjacent(NAME_TO_ID["marko"], "knows")
    assert sorted(got) == enumerate_out(modern, "1", "knows")
    assert sorted(got) == [("7", "2"), ("8", "4")]
    assert len(got) == 2


def test_out_adjacent_vadas_created_empty(modern):
    assert modern.out_adjacent(NAME_TO_ID["vadas"], "created") == []
    assert enumerate_out(modern, "2", "created") == []


def test_out_adjacent_unlabeled(modern):
    got = modern.out_adjacent("1")
    assert sorted(got) == enumerate_out(modern, "1", None)
    assert len(got) == 3


def test_in_adjacent_lop_created(modern):
    got = modern.in_adjacent(NAME_TO_ID["lop"], "created")
    assert sorted(got) == enumerate_in(modern, "3", "created")
    assert sorted(v for _, v in got) == ["1", "4", "6"]


def test_in_adjacent_empty_cases(modern):
    assert modern.in_adjacent("1") == []
    assert modern.in_adjacent(NAME_TO_ID["ripple"], "knows") == []


def test_unknown_vertex_rejected(modern):
    with pytest.raises(GraphFormatError):
        modern.out_adjacent("99")
    with pytest.raises(GraphFormatError):
        modern.in_adjacent("99", "knows")


def test_element_property(modern):
    assert modern.element_property("1", "age") == 29
    assert modern.element_property("3", "age") is None
    assert modern.element_property("3", "lang") == "java"
    assert modern.element_property("7", "weight") == 0.5
    with pytest.raises(GraphFormatError):
        modern.element_property("99", "age")


def test_labels(modern):
    assert modern.vertex_label("1") == "person"
    assert modern.vertex_label("3") == "software"
    assert modern.edge_label("7") == "knows"
    assert modern.edge_label("9") == "created"


def test_edge_record(modern):
    rec = modern.edge_record("8")
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
    assert load_graph(doc % ("9" * 4300)).element_property("1", "n") == int("9" * 4300)
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


@pytest.mark.parametrize("depth", [100_000, sys.getrecursionlimit() + 10])
def test_json_nested_past_the_decoder_limit_rejected(depth):
    text = '{"vertices": [{"id": "1", "label": "person", "properties": {"k": '
    text += "[" * depth + "]" * depth + "}}], \"edges\": []}"
    with pytest.raises(GraphFormatError, match="nested too deeply"):
        load_graph(text)


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
    assert len(g.out_adjacent("1", "knows")) == 2


def test_load_deterministic():
    with open(__import__("grem_algebra").modern_graph_path(), "rb") as f:
        data = f.read()
    assert load_graph(data) == load_graph(data)
    assert load_graph(data) == modern_graph()


# -- invariants ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_adjacency_invariants_random(seed):
    g = random_graph(seed)
    for rec in g.edges():
        assert (rec.id, rec.in_v) in g.out_adjacent(rec.out_v, rec.label)
        assert (rec.id, rec.out_v) in g.in_adjacent(rec.in_v, rec.label)
    total_out = sum(len(g.out_adjacent(v)) for v in g.vertex_ids())
    total_in = sum(len(g.in_adjacent(v)) for v in g.vertex_ids())
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
    assert g.element_property("1", "weight") == 70
    assert g.element_property("e", "weight") == 0.5


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
    # one interned token (rank,) and one interned ref per vertex, by rank
    rank = {r.id: i for i, r in enumerate(modern.vertex_refs)}
    assert modern.vertex_tokens == tuple((i,) for i in range(len(rank)))
    assert modern.vertex_props[rank["1"]]["name"] == "marko"
    assert modern.vertex_labels[rank["3"]] == "software"
    knows = modern.neighbours("out", "knows")
    assert modern.neighbours("out", "knows") is knows
    marko = rank["1"]
    assert knows[marko] is None  # not built before first use
    found = modern.adjacent("out", "knows", marko)
    assert [modern.vertex_refs[n[0]].id for n in found] == ["2", "4"]
    assert knows[marko] is modern.adjacent("out", "knows", marko)
    for direction, adjacent in (("out", modern.out_adjacent), ("in", modern.in_adjacent)):
        for label in (None, "knows", "created"):
            for vid in rank:
                found = modern.adjacent(direction, label, rank[vid])
                assert found == tuple((rank[v],) for _, v in adjacent(vid, label))
                assert all(n is modern.vertex_tokens[n[0]] for n in found)
    edges = modern.edges_sorted()
    assert modern.edges_sorted() is edges
    assert [r.id for r in edges] == modern.edge_ids() == sorted(e.id for e in modern.edges())


def test_tables_hold_no_reference_to_the_graph():
    """With its neighbour entries and edge refs built, the graph is still
    freed by reference counting alone: nothing it holds refers back to it."""
    import gc
    import weakref

    g = load_graph(json.dumps({
        "vertices": [{"id": "1", "label": "p"}, {"id": "0", "label": "p"}],
        "edges": [{"id": "e", "label": "k", "outV": "1", "inV": "0"}],
    }))
    g.adjacent("out", None, 1)
    g.adjacent("in", "k", 0)
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
