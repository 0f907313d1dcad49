"""Shared query corpus: each query carries an independent oracle.

The oracle route never touches the compiler or the plan evaluator: it
enumerates pattern assignments by brute force (oracle_match) and applies
the query's tail operations with plain Python (sorted/slice/set/max).
Results are compared as canonical multisets.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from grem_algebra import Graph, load_graph
from grem_algebra.property_graph import value_key

from reference import OracleGraphPattern, PatternEdge, PatternVertex, element_property, oracle_match

Q_OLDEST_KNOWN_AGE = 'g.V().has("name","marko").out("knows").values("age").max()'

Q_COCREATOR_30 = """g.V().match(
        __.as('a').out('created').as('b'),
        __.as('b').has('name', 'lop'),
        __.as('b').in('created').as('c'),
        __.as('c').has('age', 30)).select('a','c').by('name')"""

Q_COCREATOR_32 = Q_COCREATOR_30.replace("30", "32")

Q_AGES_ASC = (
    "g.V().match("
    "__.as('a').hasLabel('person').values('age').as('b')).select('b').order().by(asc)"
)

Q_UNION_CREATORS = """g.V().union(
 __.match( __.as('a').out('created').as('c')),
 __.match( __.as('b').out('created').as('c'))).select('a','c')"""

HAS_ONLY = 'g.V().hasLabel("person").has("age",29).values("name")'

DEDUP_QUERY = 'g.V().match(__.as("a").out("created").as("b")).select("b").dedup()'

LIMIT_QUERY = (
    'g.V().match(__.as("a").hasLabel("person").values("age").as("b"))'
    '.select("b").order().by(asc).limit(2)'
)

UNION_QUERY = (
    'g.V().union(__.as("a").out("knows").as("b"),'
    ' __.as("a").out("created").as("b")).select("a","b")'
)

DISCONNECTED_JOIN = (
    'g.V().match(__.as("a").has("name","lop"), __.as("c").hasLabel("person"))'
)


def canon_rows(rows: list[dict]) -> Counter:
    """Rows of var->value as the evaluator's canonical multiset form."""
    return Counter(
        tuple((k, value_key(row[k])) for k in sorted(row)) for row in rows
    )


def canon_values(values: list) -> Counter:
    """Schema-less results (one value per row)."""
    return Counter((value_key(v),) for v in values)


def _prop(g: Graph, ref, key: str):
    return element_property(g, ref.id, key)


def _oracle_oldest_known_age(g: Graph) -> Counter:
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a", props=(("name", "=", "marko"),)), PatternVertex("b")),
        edges=(PatternEdge("a", "b", "knows"),),
        values=(("b", "age", "x"),),
    )
    bag = [row["x"] for row in oracle_match(pattern, g).rows]
    if not bag:
        return Counter()
    result = max(bag)
    has_float = any(isinstance(v, float) for v in bag)
    has_int = any(isinstance(v, int) and not isinstance(v, bool) for v in bag)
    if has_float and has_int:
        result = float(result)
    return canon_values([result])


def _cocreator_pattern(age: int) -> OracleGraphPattern:
    return OracleGraphPattern(
        vertices=(
            PatternVertex("a"),
            PatternVertex("b", props=(("name", "=", "lop"),)),
            PatternVertex("c", props=(("age", "=", age),)),
        ),
        edges=(PatternEdge("a", "b", "created"), PatternEdge("c", "b", "created")),
    )


def _oracle_cocreator(g: Graph, age: int) -> Counter:
    out = []
    for row in oracle_match(_cocreator_pattern(age), g).rows:
        name_a = _prop(g, row["a"], "name")
        name_c = _prop(g, row["c"], "name")
        if name_a is None or name_c is None:
            continue
        out.append({"a": name_a, "c": name_c})
    return canon_rows(out)


_PERSON_AGE_PATTERN = OracleGraphPattern(
    vertices=(PatternVertex("a", label="person"),),
    values=(("a", "age", "b"),),
)


def _oracle_ages_asc(g: Graph) -> Counter:
    rows = oracle_match(_PERSON_AGE_PATTERN, g).rows
    return canon_rows([{"b": row["b"]} for row in rows])


def _oracle_union_creators(g: Graph) -> Counter:
    # only the first branch binds both projected variables; rows of the
    # second branch never survive select('a','c')
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"), PatternVertex("c")),
        edges=(PatternEdge("a", "c", "created"),),
    )
    rows = oracle_match(pattern, g).rows
    return canon_rows([{"a": row["a"], "c": row["c"]} for row in rows])


def _oracle_has_only(g: Graph) -> Counter:
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a", label="person", props=(("age", "=", 29),)),),
        values=(("a", "name", "n"),),
    )
    return canon_values([row["n"] for row in oracle_match(pattern, g).rows])


def _oracle_dedup(g: Graph) -> Counter:
    pattern = OracleGraphPattern(
        vertices=(PatternVertex("a"), PatternVertex("b")),
        edges=(PatternEdge("a", "b", "created"),),
    )
    seen = set()
    out = []
    for row in oracle_match(pattern, g).rows:
        key = value_key(row["b"])
        if key in seen:
            continue
        seen.add(key)
        out.append({"b": row["b"]})
    return canon_rows(out)


def _oracle_limit(g: Graph) -> Counter:
    rows = oracle_match(_PERSON_AGE_PATTERN, g).rows
    ages = sorted(row["b"] for row in rows)
    return canon_rows([{"b": v} for v in ages[:2]])


def _oracle_union(g: Graph) -> Counter:
    out = []
    for label in ("knows", "created"):
        pattern = OracleGraphPattern(
            vertices=(PatternVertex("a"), PatternVertex("b")),
            edges=(PatternEdge("a", "b", label),),
        )
        out.extend({"a": row["a"], "b": row["b"]} for row in oracle_match(pattern, g).rows)
    return canon_rows(out)


def _oracle_disconnected(g: Graph) -> Counter:
    lop = oracle_match(
        OracleGraphPattern(vertices=(PatternVertex("a", props=(("name", "=", "lop"),)),)), g
    ).rows
    persons = oracle_match(
        OracleGraphPattern(vertices=(PatternVertex("c", label="person"),)), g
    ).rows
    return canon_rows(
        [{"a": l["a"], "c": p["c"]} for l in lop for p in persons]
    )


@dataclass(frozen=True)
class CorpusQuery:
    name: str
    text: str
    oracle: Callable[[Graph], Counter]
    # number of patterns in a top-level match() step; 0 when there is none
    match_chains: int = 0
    # whether the traverser-level match route can seed it (connected patterns)
    match_connected: bool = False


CORPUS: list[CorpusQuery] = [
    CorpusQuery("oldest_known_age", Q_OLDEST_KNOWN_AGE, _oracle_oldest_known_age),
    CorpusQuery(
        "cocreator_30",
        Q_COCREATOR_30,
        lambda g: _oracle_cocreator(g, 30),
        match_chains=4,
        match_connected=True,
    ),
    CorpusQuery(
        "cocreator_32",
        Q_COCREATOR_32,
        lambda g: _oracle_cocreator(g, 32),
        match_chains=4,
        match_connected=True,
    ),
    CorpusQuery("ages_asc", Q_AGES_ASC, _oracle_ages_asc, match_chains=1, match_connected=True),
    CorpusQuery("union_creators", Q_UNION_CREATORS, _oracle_union_creators),
    CorpusQuery("has_only", HAS_ONLY, _oracle_has_only),
    CorpusQuery("dedup", DEDUP_QUERY, _oracle_dedup, match_chains=1, match_connected=True),
    CorpusQuery("limit", LIMIT_QUERY, _oracle_limit, match_chains=1, match_connected=True),
    CorpusQuery("union", UNION_QUERY, _oracle_union),
    CorpusQuery(
        "disconnected_join",
        DISCONNECTED_JOIN,
        _oracle_disconnected,
        match_chains=2,
        match_connected=False,
    ),
]


# -- random graphs -------------------------------------------------------------

_NAME_POOL = ["marko", "vadas", "lop", "josh", "ripple", "peter", "anna", "kai"]
_AGE_POOL = [25, 27, 29, 30, 30, 32, 32, 35, 40]


def random_graph(seed: int, name=str) -> Graph:
    """Seeded random property graph: <=8 vertices, <=16 edges, labels from
    {person, software} x {knows, created}; self-loops and parallel edges
    permitted.  Vertex n (from 1) and edge 100 + j have the ids name(n) and
    name(100 + j), which must be distinct."""
    rng = random.Random(seed)
    nv = rng.randint(1, 8)
    vertices = []
    for i in range(nv):
        label = "person" if rng.random() < 0.6 else "software"
        props: dict = {}
        if rng.random() < 0.9:
            props["name"] = rng.choice(_NAME_POOL)
        if label == "person":
            if rng.random() < 0.85:
                props["age"] = rng.choice(_AGE_POOL)
        elif rng.random() < 0.7:
            props["lang"] = rng.choice(["java", "python"])
        vertices.append({"id": name(i + 1), "label": label, "properties": props})
    ne = rng.randint(0, 16)
    edges = []
    for j in range(ne):
        entry = {
            "id": name(100 + j),
            "label": rng.choice(["knows", "created"]),
            "outV": name(rng.randint(1, nv)),
            "inV": name(rng.randint(1, nv)),
        }
        if rng.random() < 0.8:
            entry["properties"] = {"weight": round(rng.random(), 2)}
        edges.append(entry)
    return load_graph(json.dumps({"vertices": vertices, "edges": edges}))
