"""Query templates, their reference answers and the workload mixes.

Every template renders query text from a few seeded constants and computes
the expected answer in plain Python from the generator's own vertex and
edge lists (``RefGraph``), never through ``grem_algebra``.  Answers are
lists of rows encoded the way ``to_jsonl`` prints them: vertices as
``{"vertex": id}``, schema-less rows as ``{"value": ...}``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from graphgen import LANGS, MAX_AGE, MIN_AGE, GraphData, person_name, software_name

Row = dict


class RefGraph:
    """Plain-Python indexes over a GraphData, for reference answers."""

    def __init__(self, data: GraphData):
        self.shape = data.shape
        self.props = {vid: props for vid, _label, props in data.vertices}
        self.persons = [vid for vid, label, _ in data.vertices if label == "person"]
        self.out: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        self.inn: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        for _eid, label, out_v, in_v, _props in data.edges:
            self.out[label][out_v].append(in_v)
            self.inn[label][in_v].append(out_v)
        self.named: dict[str, list[str]] = defaultdict(list)
        for vid, props in self.props.items():
            self.named[props["name"]].append(vid)

    def prop(self, vid: str, key: str):
        return self.props[vid][key]


def _v(vid: str) -> dict:
    return {"vertex": vid}


def _values(values) -> list[Row]:
    return [{"value": x} for x in values]


@dataclass(frozen=True)
class Template:
    """One query class: text and reference answer from seeded constants."""

    name: str
    draw: Callable[[random.Random, RefGraph], tuple]
    text: Callable[..., str]
    reference: Callable[..., list[Row]]


def _person(rng: random.Random, ref: RefGraph) -> str:
    return person_name(rng.randrange(ref.shape.person_names))


def _soft(rng: random.Random, ref: RefGraph) -> str:
    return software_name(rng.randrange(ref.shape.software_names))


def _age(rng: random.Random) -> int:
    return rng.randint(MIN_AGE, MAX_AGE)


# -- lookup templates: anchored by a selective has("name", ...) ----------------


def _hop_ref(r: RefGraph, n: str) -> list[Row]:
    return _values(
        r.prop(t, "name") for p in r.named[n] for t in r.out["knows"][p]
    )


def _match_ref(r: RefGraph, n: str) -> list[Row]:
    return [
        {"b": r.prop(b, "name"), "c": r.prop(c, "name")}
        for a in r.named[n]
        for b in r.out["knows"][a]
        for c in r.out["created"][b]
    ]


def _where_ref(r: RefGraph, n: str, lang: str) -> list[Row]:
    return _values(
        r.prop(p, "age")
        for p in r.named[n]
        if any(r.prop(s, "lang") == lang for s in r.out["created"][p])
    )


def _max_ref(r: RefGraph, n: str) -> list[Row]:
    ages = [r.prop(t, "age") for p in r.named[n] for t in r.out["knows"][p]]
    return _values([max(ages)]) if ages else []


CHAIN_CHARS = 500


def _chain_text(n: str) -> str:
    head = f"g.V().hasLabel('person').has('name','{n}')"
    tail = ".out('knows').values('age')"
    segment = f".has('age').hasLabel('person').has('name','{n}')"
    text = head
    while len(text) + len(tail) < CHAIN_CHARS:
        text += segment
    return text + tail


def _chain_ref(r: RefGraph, n: str) -> list[Row]:
    return _values(r.prop(t, "age") for p in r.named[n] for t in r.out["knows"][p])


def _dedup_ref(r: RefGraph, n: str) -> list[Row]:
    seen = {x for p in r.named[n] for t in r.out["knows"][p] for x in r.inn["knows"][t]}
    return _values(r.prop(x, "name") for x in seen)


def _top2_ref(r: RefGraph, n: str) -> list[Row]:
    ages = sorted((r.prop(t, "age") for p in r.named[n] for t in r.out["knows"][p]), reverse=True)
    return _values(ages[:2])


def _group_ref(r: RefGraph, n: str) -> list[Row]:
    return [
        {"key": r.prop(s, "lang"), "member": _v(s)}
        for p in r.named[n]
        for s in r.out["created"][p]
    ]


def _union_ref(r: RefGraph, n: str) -> list[Row]:
    return _values(
        r.prop(t, "name")
        for p in r.named[n]
        for label in ("knows", "created")
        for t in r.out[label][p]
    )


def _pair_ref(r: RefGraph, n1: str, n2: str) -> list[Row]:
    return [{"a": _v(a), "b": _v(b)} for a in r.named[n1] for b in r.named[n2]]


def _one_person(rng, ref):
    return (_person(rng, ref),)


LOOKUP_TEMPLATES = [
    Template(
        "hop-values",
        _one_person,
        lambda n: f"g.V().has('name','{n}').hasLabel('person').out('knows').values('name')",
        _hop_ref,
    ),
    Template(
        "match-3",
        _one_person,
        lambda n: (
            f"g.V().match(__.as('a').has('name','{n}'), __.as('a').out('knows').as('b'), "
            "__.as('b').out('created').as('c')).select('b','c').by('name')"
        ),
        _match_ref,
    ),
    Template(
        "has-where",
        lambda rng, ref: (_person(rng, ref), rng.choice(LANGS)),
        lambda n, lang: (
            f"g.V().has('name','{n}').where(__.out('created').has('lang','{lang}')).values('age')"
        ),
        _where_ref,
    ),
    Template(
        "neighbour-max",
        _one_person,
        lambda n: f"g.V().has('name','{n}').out('knows').values('age').max()",
        _max_ref,
    ),
    Template("filter-chain", _one_person, _chain_text, _chain_ref),
    Template(
        "co-follower-dedup",
        _one_person,
        lambda n: f"g.V().has('name','{n}').out('knows').in('knows').dedup().values('name')",
        _dedup_ref,
    ),
    Template(
        "top2-ages",
        _one_person,
        lambda n: f"g.V().has('name','{n}').out('knows').values('age').order().by(desc).limit(2)",
        _top2_ref,
    ),
    Template(
        "created-group",
        _one_person,
        lambda n: f"g.V().has('name','{n}').out('created').group().by('lang')",
        _group_ref,
    ),
    Template(
        "out-union",
        _one_person,
        lambda n: f"g.V().has('name','{n}').union(__.out('knows'), __.out('created')).values('name')",
        _union_ref,
    ),
    Template(
        "name-pair-join",
        lambda rng, ref: (_person(rng, ref), _person(rng, ref)),
        lambda n1, n2: (
            f"g.V().match(__.as('a').has('name','{n1}'), __.as('b').has('name','{n2}'))"
            ".select('a','b')"
        ),
        _pair_ref,
    ),
]


# -- analytic templates: heavy pattern matches over the whole graph --------------


def _two_hop_ref(r: RefGraph) -> list[Row]:
    knows = r.out["knows"]
    pairs = {(a, c) for a in r.persons for b in knows[a] for c in knows[b]}
    return [{"a": _v(a), "c": _v(c)} for a, c in pairs]


def _group_all_ref(r: RefGraph, direction: str, key: str) -> list[Row]:
    adj = r.out["knows"] if direction == "out" else r.inn["knows"]
    return [
        {"key": r.prop(t, key), "member": _v(t)} for p in r.persons for t in adj[p]
    ]


def _union_all_ref(r: RefGraph, direction: str) -> list[Row]:
    adj = r.out if direction == "out" else r.inn
    return [
        {"a": _v(a), "b": _v(b)}
        for a in r.props
        for label in ("knows", "created")
        for b in adj[label][a]
    ]


def _not_ref(r: RefGraph, age: int) -> list[Row]:
    return _values(
        r.prop(p, "age")
        for p in r.persons
        if not any(r.prop(t, "age") == age for t in r.out["knows"][p])
    )


def _sort_limit_ref(r: RefGraph, direction: str, k: int) -> list[Row]:
    rows = [(r.prop(p, "age"), p) for p in r.persons]
    rows.sort(reverse=direction == "desc")
    return [{"b": age, "a": _v(p)} for age, p in rows[:k]]


def _where_all_ref(r: RefGraph, lang: str) -> list[Row]:
    return _values(
        r.prop(p, "name")
        for p in r.persons
        if any(r.prop(s, "lang") == lang for s in r.out["created"][p])
    )


def _djoin_ref(r: RefGraph, n1: str, n2: str) -> list[Row]:
    left = [(a, b) for a in r.named[n1] for b in r.out["knows"][a]]
    right = [(c, d) for c in r.named[n2] for d in r.out["created"][c]]
    return [
        {"a": _v(a), "b": _v(b), "c": _v(c), "d": _v(d)} for a, b in left for c, d in right
    ]


def _cocreator_ref(r: RefGraph, soft: str) -> list[Row]:
    return [
        {"a": r.prop(a, "name"), "c": r.prop(c, "name")}
        for b in r.named[soft]
        for a in r.inn["created"][b]
        for c in r.inn["created"][b]
    ]


def _two_hop_max_ref(r: RefGraph, n: str) -> list[Row]:
    knows = r.out["knows"]
    ages = [r.prop(c, "age") for a in r.named[n] for b in knows[a] for c in knows[b]]
    return _values([max(ages)]) if ages else []


def _fixed(*consts):
    return lambda rng, ref: consts


ANALYTIC_TEMPLATES = {
    "two-hop-dedup": Template(
        "two-hop-dedup",
        _fixed(),
        lambda: (
            "g.V().match(__.as('a').out('knows').as('b'), __.as('b').out('knows').as('c'))"
            ".select('a','c').dedup()"
        ),
        _two_hop_ref,
    ),
    "group-by": Template(
        "group-by",
        lambda rng, ref: rng.choice([("out", "age"), ("in", "name")]),
        lambda d, key: f"g.V().hasLabel('person').{d}('knows').group().by('{key}')",
        _group_all_ref,
    ),
    "union": Template(
        "union",
        lambda rng, ref: (rng.choice(["out", "in"]),),
        lambda d: (
            f"g.V().union(__.as('a').{d}('knows').as('b'), __.as('a').{d}('created').as('b'))"
            ".select('a','b')"
        ),
        _union_all_ref,
    ),
    "not-anti-join": Template(
        "not-anti-join",
        lambda rng, ref: (_age(rng),),
        lambda age: f"g.V().hasLabel('person').not(__.out('knows').has('age',{age})).values('age')",
        _not_ref,
    ),
    "sort-limit": Template(
        "sort-limit",
        lambda rng, ref: (rng.choice(["asc", "desc"]), rng.randint(5, 100)),
        lambda d, k: (
            "g.V().match(__.as('a').hasLabel('person').values('age').as('b'))"
            f".select('b','a').order().by({d}).limit({k})"
        ),
        _sort_limit_ref,
    ),
    "where-semi-join": Template(
        "where-semi-join",
        lambda rng, ref: (rng.choice(LANGS),),
        lambda lang: (
            f"g.V().hasLabel('person').where(__.out('created').has('lang','{lang}')).values('name')"
        ),
        _where_all_ref,
    ),
    "disconnected-join": Template(
        "disconnected-join",
        lambda rng, ref: (_person(rng, ref), _person(rng, ref)),
        lambda n1, n2: (
            f"g.V().match(__.as('a').has('name','{n1}').out('knows').as('b'), "
            f"__.as('c').has('name','{n2}').out('created').as('d')).select('a','b','c','d')"
        ),
        _djoin_ref,
    ),
    "cocreator": Template(
        "cocreator",
        lambda rng, ref: (_soft(rng, ref),),
        lambda soft: (
            "g.V().match(__.as('a').out('created').as('b'), "
            f"__.as('b').has('name','{soft}'), __.as('b').in('created').as('c'), "
            "__.as('c').hasLabel('person')).select('a','c').by('name')"
        ),
        _cocreator_ref,
    ),
    "two-hop-max": Template(
        "two-hop-max",
        _one_person,
        lambda n: f"g.V().has('name','{n}').out('knows').out('knows').values('age').max()",
        _two_hop_max_ref,
    ),
}

# Occurrences of each analytic class in one pass (37 queries).  The heavy
# classes run once or twice; cheaper ones repeat with fresh constants so
# that no class takes more than about a third of a pass.  The counts also
# place the median inside the block of where queries (ranks 16-23 from the
# slowest) and the 75th percentile inside the block of not queries (ranks
# 6-11), a few ranks away from the edge to a class of different cost, so
# both percentiles name the same kind of query in every run.
ANALYTIC_PASS = {
    "two-hop-dedup": 1,
    "group-by": 2,
    "union": 2,
    "not-anti-join": 6,
    "sort-limit": 4,
    "where-semi-join": 8,
    "disconnected-join": 4,
    "cocreator": 6,
    "two-hop-max": 4,
}


@dataclass(frozen=True)
class Query:
    """One operation's query: its class, text and the constants it used."""

    qid: str
    template: str
    text: str
    consts: tuple


def make_query(template: Template, consts: tuple, qid: str) -> Query:
    return Query(qid=qid, template=template.name, text=template.text(*consts), consts=consts)


def analytic_pass(rng: random.Random, ref: RefGraph) -> list[Query]:
    """One pass of the analytic mix, classes interleaved in a seeded order."""
    slots = [name for name, count in ANALYTIC_PASS.items() for _ in range(count)]
    rng.shuffle(slots)
    queries = []
    for i, name in enumerate(slots):
        t = ANALYTIC_TEMPLATES[name]
        queries.append(make_query(t, t.draw(rng, ref), f"a{i}"))
    return queries


def lookup_stream(rng: random.Random, ref: RefGraph):
    """Endless distinct lookups, templates in round-robin order."""
    i = 0
    while True:
        t = LOOKUP_TEMPLATES[i % len(LOOKUP_TEMPLATES)]
        yield make_query(t, t.draw(rng, ref), f"l{i}")
        i += 1


TEMPLATES = {t.name: t for t in LOOKUP_TEMPLATES} | ANALYTIC_TEMPLATES
