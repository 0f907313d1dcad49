"""Seeded property-graph generator for the benchmark.

A graph holds persons and software.  Persons ``knows`` persons and
``created`` software.  Out-degrees follow a fixed power-law sequence
(weight of rank r is (r + 1) ** -skew), so a few persons are hubs; the
seed only decides which person gets which degree and where each edge
points.  In-degrees are spread evenly, so the number of two-hop ``knows``
paths is the same for every seed and timings compare across seeds.
Names come from bounded pools, each name used equally often, so
``has("name", ...)`` keeps a fixed, small number of vertices.

The generator returns the graph as JSON text plus the plain lists it was
built from; the lists feed the benchmark's reference answers, which never
go through ``grem_algebra``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

LANGS = ("java", "python", "go", "rust", "c", "scala")
MIN_AGE, MAX_AGE = 18, 80


@dataclass(frozen=True)
class Shape:
    """Size and skew of a generated graph."""

    persons: int
    software: int
    knows: int  # total knows edges
    created: int  # total created edges
    skew: float  # power-law exponent of the out-degree sequences
    person_names: int  # size of the person name pool
    software_names: int  # size of the software name pool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GraphData:
    """A generated graph as plain lists, in file order.

    vertices: (id, label, properties); edges: (id, label, outV, inV,
    properties).
    """

    shape: Shape
    seed: int
    vertices: list[tuple[str, str, dict]]
    edges: list[tuple[str, str, str, str, dict]]

    def to_json(self) -> str:
        doc = {
            "vertices": [
                {"id": vid, "label": label, "properties": props}
                for vid, label, props in self.vertices
            ],
            "edges": [
                {"id": eid, "label": label, "outV": out_v, "inV": in_v, "properties": props}
                for eid, label, out_v, in_v, props in self.edges
            ],
        }
        return json.dumps(doc, separators=(",", ":"))


def degree_sequence(n: int, total: int, skew: float) -> list[int]:
    """n degrees summing to total, weight (r + 1) ** -skew by rank r,
    rounded by largest remainder."""
    weights = [(r + 1) ** -skew for r in range(n)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    degrees = [int(x) for x in exact]
    short = total - sum(degrees)
    by_remainder = sorted(range(n), key=lambda r: (degrees[r] - exact[r], r))
    for r in by_remainder[:short]:
        degrees[r] += 1
    return degrees


def _spread(items: list, count: int, rng: random.Random) -> list:
    """count draws from items, each used count // len(items) or one more
    times, in seeded order."""
    reps, extra = divmod(count, len(items))
    pool = items * reps + rng.sample(items, extra)
    rng.shuffle(pool)
    return pool


def _pair_stubs(
    sources: list[str], degrees: list[int], targets: list[str], rng: random.Random
) -> list[tuple[str, str]]:
    """Wire out-stubs to evenly spread in-stubs; no self-loops."""
    outs = [s for s, d in zip(sources, degrees) for _ in range(d)]
    ins = _spread(targets, len(outs), rng)
    for i, (src, dst) in enumerate(zip(outs, ins)):
        if src == dst:
            j = (i + 1) % len(ins)
            while ins[j] == src or outs[j] == ins[i]:
                j = (j + 1) % len(ins)
            ins[i], ins[j] = ins[j], ins[i]
    return list(zip(outs, ins))


def person_name(i: int) -> str:
    return f"person{i:04d}"


def software_name(i: int) -> str:
    return f"soft{i:04d}"


def generate(shape: Shape, seed: int) -> GraphData:
    """Build the graph for one seed; the same seed gives the same lists."""
    rng = random.Random(seed)
    n_v = shape.persons + shape.software
    persons = [str(i + 1) for i in range(shape.persons)]
    software = [str(shape.persons + i + 1) for i in range(shape.software)]

    names = _spread([person_name(i) for i in range(shape.person_names)], shape.persons, rng)
    ages = [rng.randint(MIN_AGE, MAX_AGE) for _ in persons]
    soft_names = _spread(
        [software_name(i) for i in range(shape.software_names)], shape.software, rng
    )
    langs = _spread(list(LANGS), shape.software, rng)

    vertices: list[tuple[str, str, dict]] = []
    for vid, name, age in zip(persons, names, ages):
        vertices.append((vid, "person", {"name": name, "age": age}))
    for vid, name, lang in zip(software, soft_names, langs):
        vertices.append((vid, "software", {"name": name, "lang": lang}))

    knows_sources = rng.sample(persons, len(persons))
    knows = _pair_stubs(
        knows_sources, degree_sequence(shape.persons, shape.knows, shape.skew), persons, rng
    )
    created_sources = rng.sample(persons, len(persons))
    created = _pair_stubs(
        created_sources, degree_sequence(shape.persons, shape.created, shape.skew), software, rng
    )

    edges: list[tuple[str, str, str, str, dict]] = []
    next_id = n_v + 1
    for src, dst in knows:
        weight = rng.randint(1, 100) / 100
        edges.append((str(next_id), "knows", src, dst, {"weight": weight}))
        next_id += 1
    for src, dst in created:
        year = rng.randint(2000, 2020)
        edges.append((str(next_id), "created", src, dst, {"year": year}))
        next_id += 1
    return GraphData(shape=shape, seed=seed, vertices=vertices, edges=edges)


def generate_json(shape: Shape, seed: int) -> str:
    """The graph for one seed as load_graph JSON text."""
    return generate(shape, seed).to_json()
