"""Golden loader outcomes: which GraphFormatError a malformed graph raises.

tests/golden/load_errors.jsonl holds one line per seeded graph.  A line
carries the graph's JSON text, the faults put into it and either ``ok``
(the graph loads) or the message of the ``GraphFormatError`` it raises.
Each graph is a small valid graph with none, one or several of these
faults: a missing or non-string field, an unknown key, an entry that is
not an object, a non-finite or non-scalar property value, a
``properties`` that is not an object or is null, a duplicate id, an edge
id that a vertex already uses, an unknown endpoint, a label used for
both vertices and edges, and a broken top level.  A graph with several
faults pins which error wins.

Regenerate (only for a deliberate, documented change of the contract):

    PYTHONPATH=src python3 tests/test_golden_load.py
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from grem_algebra import GraphFormatError, load_graph

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "load_errors.jsonl"

SEED = 11
COUNT = 1000

VERTEX_LABELS = ("person", "software")
EDGE_LABELS = ("knows", "created")
VERTEX_FIELDS = ("id", "label")
EDGE_FIELDS = ("id", "label", "outV", "inV")
NOT_STRINGS = (1, -2.5, True, None, [], ["a"], {}, {"id": "x"})
MESSAGE_FRAGMENTS = (
    "]: must be an object", "'properties' must be an object", "missing required field",
    "must be a string", "]: unknown key(s)", "non-finite value", "non-scalar value",
    "duplicate vertex id", "duplicate edge id", "already used by a vertex",
    "references unknown vertex", "both vertices and edges", "top-level", "must be an array",
)


def _scalar(rng: random.Random) -> object:
    return rng.choice([
        rng.choice(["", "a", "java", "x y", "é", "9"]),
        rng.randint(-10, 10 ** rng.randint(0, 20)),
        rng.choice([0.5, -0.0, 1e300, 2.25, -7.0]),
        rng.choice([True, False]),
    ])


def _entry(rng: random.Random, fields: dict) -> dict:
    """An entry with fields and, maybe, properties, its keys shuffled."""
    roll = rng.random()
    if roll < 0.6:
        keys = rng.sample(["name", "age", "lang", "weight", "w"], rng.randint(0, 3))
        fields = {**fields, "properties": {k: _scalar(rng) for k in keys}}
    elif roll < 0.7:
        fields = {**fields, "properties": {}}
    items = list(fields.items())
    rng.shuffle(items)
    return dict(items)


def valid_doc(rng: random.Random) -> dict:
    """A small valid graph; vertex ids are not in ascending order."""
    vids = [str(i) for i in rng.sample(range(40), rng.randint(1, 5))]
    vertices = [_entry(rng, {"id": vid, "label": rng.choice(VERTEX_LABELS)}) for vid in vids]
    edges = [
        _entry(rng, {
            "id": f"e{i}", "label": rng.choice(EDGE_LABELS),
            "outV": rng.choice(vids), "inV": rng.choice(vids),
        })
        for i in rng.sample(range(40), rng.randint(0, 5))
    ]
    return {"vertices": vertices, "edges": edges}


def entry_objects(doc: dict, section: str | None = None) -> list[dict]:
    """The entries that are still objects, in one section or in both."""
    sections = [section] if section else ["vertices", "edges"]
    return [
        e for s in sections if isinstance(doc.get(s), list) for e in doc[s] if isinstance(e, dict)
    ]


def _props(entry: dict) -> dict:
    if not isinstance(entry.get("properties"), dict):
        entry["properties"] = {}
    return entry["properties"]


def _missing_field(rng, doc):
    entry = rng.choice(entry_objects(doc))
    entry.pop(rng.choice(EDGE_FIELDS if "outV" in entry else VERTEX_FIELDS), None)


def _non_string_field(rng, doc):
    entry = rng.choice(entry_objects(doc))
    entry[rng.choice(EDGE_FIELDS if "outV" in entry else VERTEX_FIELDS)] = rng.choice(NOT_STRINGS)


def _unknown_key(rng, doc):
    rng.choice(entry_objects(doc))[rng.choice(["color", "ID", "props", "outV"])] = "x"


def _non_object_entry(rng, doc):
    section = doc[rng.choice([s for s in ("vertices", "edges") if doc[s]])]
    section[rng.randrange(len(section))] = rng.choice([1, "v", None, [], True, [{"id": "1"}]])


def _non_finite(rng, doc):
    _props(rng.choice(entry_objects(doc)))[rng.choice(["age", "w"])] = rng.choice(
        [float("nan"), float("inf"), float("-inf")]
    )


def _non_scalar(rng, doc):
    _props(rng.choice(entry_objects(doc)))[rng.choice(["name", "tags"])] = rng.choice(
        [None, [], [1], {}, {"k": "v"}]
    )


def _properties_not_object(rng, doc):
    rng.choice(entry_objects(doc))["properties"] = rng.choice([1, "x", [], [{}], True, 0.5])


def _properties_null(rng, doc):
    rng.choice(entry_objects(doc))["properties"] = None


def _duplicate_id(rng, doc):
    section = rng.choice([s for s in ("vertices", "edges") if entry_objects(doc, s)])
    entries = entry_objects(doc, section)
    if len(entries) == 1:
        doc[section].insert(rng.randint(0, len(doc[section])), dict(entries[0]))
    else:
        first, second = rng.sample(entries, 2)
        second["id"] = first.get("id")


def _id_clash(rng, doc):
    vertex = rng.choice(entry_objects(doc, "vertices"))
    edges = entry_objects(doc, "edges")
    if edges:
        rng.choice(edges)["id"] = vertex.get("id")
    else:
        vid = vertex.get("id")
        doc["edges"].append({"id": vid, "label": "knows", "outV": vid, "inV": vid})


def _dangling_endpoint(rng, doc):
    edges = entry_objects(doc, "edges")
    if edges:
        rng.choice(edges)[rng.choice(["outV", "inV"])] = rng.choice(["zz", "e0", "", "01"])


def _label_clash(rng, doc):
    vertices, edges = entry_objects(doc, "vertices"), entry_objects(doc, "edges")
    if edges and rng.random() < 0.5:
        # an earlier fault may have removed the vertex's label
        rng.choice(edges)["label"] = rng.choice(vertices).get("label") if vertices else "person"
    else:
        rng.choice(vertices)["label"] = rng.choice(EDGE_LABELS)


def _top_level(rng, doc):
    roll = rng.randrange(4)
    if roll == 0:
        del doc[rng.choice(["vertices", "edges"])]
    elif roll == 1:
        doc[rng.choice(["meta", "Vertices"])] = []
    elif roll == 2:
        doc[rng.choice(["vertices", "edges"])] = rng.choice([{}, "x", None, 3])
    else:
        doc["vertices"], doc["edges"] = doc["edges"], doc["vertices"]


MUTATIONS = {
    "missing-field": _missing_field,
    "non-string-field": _non_string_field,
    "unknown-key": _unknown_key,
    "non-object-entry": _non_object_entry,
    "non-finite-value": _non_finite,
    "non-scalar-value": _non_scalar,
    "properties-not-object": _properties_not_object,
    "properties-null": _properties_null,
    "duplicate-id": _duplicate_id,
    "id-clash": _id_clash,
    "dangling-endpoint": _dangling_endpoint,
    "label-clash": _label_clash,
}


def fuzz_graphs(count: int, seed: int):
    """Seeded (faults, JSON text) pairs; about one graph in seven is left
    valid and about half carry two or more faults."""
    rng = random.Random(seed)
    kinds = sorted(MUTATIONS)
    for _ in range(count):
        doc = valid_doc(rng)
        faults = rng.sample(kinds, rng.choice([0, 1, 1, 1, 2, 2, 2, 3]))
        if faults and rng.random() < 0.2:
            rng.shuffle(faults)
            faults = faults + faults[:1]  # the same fault twice
        for name in faults:
            if entry_objects(doc, "vertices") and isinstance(doc.get("edges"), list):
                MUTATIONS[name](rng, doc)
        if rng.random() < 0.03:
            faults = faults + ["top-level"]
            _top_level(rng, doc)
        yield faults, json.dumps(doc, indent=rng.choice([None, None, 1]))


def record(faults: list[str], text: str) -> dict:
    """What the loader makes of ``text``, in the golden file's form."""
    entry: dict = {"input": text, "faults": faults}
    try:
        load_graph(text)
        entry["ok"] = True
    except GraphFormatError as exc:
        entry["error"] = str(exc)
    return entry


def golden_lines() -> list[str]:
    return [json.dumps(record(*pair), separators=(",", ":")) for pair in fuzz_graphs(COUNT, SEED)]


def _load() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_golden_file_covers_the_graphs():
    assert [(e["faults"], e["input"]) for e in _load()] == list(fuzz_graphs(COUNT, SEED))


def test_golden_covers_every_fault_and_competing_faults():
    entries = _load()
    seen = {name for e in entries for name in e["faults"]}
    assert seen == set(MUTATIONS) | {"top-level"}
    ok = sum("ok" in e for e in entries)
    rejected = [e for e in entries if "error" in e]
    competing = sum(len(set(e["faults"]) - {"properties-null"}) >= 2 for e in rejected)
    assert ok >= 100 and competing >= 300, (ok, competing)
    # the messages come from every check the loader makes
    messages = [e["error"] for e in rejected]
    assert [f for f in MESSAGE_FRAGMENTS if not any(f in m for m in messages)] == []
    # the raw text holds no \ud800-\udfff escape: a lone surrogate is its own rule
    assert not any("\\ud" in e["input"].lower() for e in entries)


@pytest.mark.parametrize("chunk", range(10))
def test_golden_load(chunk):
    entries = _load()
    size = -(-len(entries) // 10)
    for expected in entries[chunk * size : (chunk + 1) * size]:
        assert record(expected["faults"], expected["input"]) == expected, expected["input"]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
