"""Tests of the benchmark's own parts: generator, answer checker, queries.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import queries
from check import Checker, multiset_digest
from graphgen import Shape, generate, generate_json
from pace import CADENCE_S, REF_CALIBRATION_S, WINDOW_S, Pace

from grem_algebra import compile_traversal, evaluate, load_graph, parse_traversal, to_jsonl

SMALL = Shape(
    persons=120, software=20, knows=480, created=120, skew=0.5,
    person_names=40, software_names=8,
)


def test_same_seed_gives_identical_json_and_another_seed_does_not():
    first = generate_json(SMALL, 7)
    assert generate_json(SMALL, 7) == first
    assert generate_json(SMALL, 8) != first


def test_shape_is_respected():
    data = generate(SMALL, 3)
    labels = Counter(label for _, label, _ in data.vertices)
    assert labels == {"person": SMALL.persons, "software": SMALL.software}
    edges = Counter(label for _, label, _, _, _ in data.edges)
    assert edges == {"knows": SMALL.knows, "created": SMALL.created}
    in_knows = Counter(in_v for _, label, _, in_v, _ in data.edges if label == "knows")
    assert set(in_knows.values()) == {SMALL.knows // SMALL.persons}
    assert all(out_v != in_v for _, _, out_v, in_v, _ in data.edges)
    names = Counter(p["name"] for _, label, p in data.vertices if label == "person")
    assert len(names) == SMALL.person_names
    assert set(names.values()) == {SMALL.persons // SMALL.person_names}


def test_checker_counts_a_corrupted_answer():
    rows = [{"a": {"vertex": "1"}, "b": 30}, {"a": {"vertex": "2"}, "b": 31}]
    good = "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)
    corrupted = good.replace("31", "32")
    checker = Checker()
    assert checker.check("q0", "query text", good, lambda: rows)
    assert not checker.check("q1", "other query", corrupted, lambda: rows)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_checker_compares_multisets_with_types():
    assert multiset_digest([{"v": 1}, {"v": 2}]) == multiset_digest([{"v": 2}, {"v": 1}])
    assert multiset_digest([{"v": 1}]) != multiset_digest([{"v": 1}, {"v": 1}])
    assert multiset_digest([{"v": 30}]) != multiset_digest([{"v": 30.0}])


def test_checker_counts_a_changed_row_order_for_a_repeated_query():
    rows = [{"value": 1}, {"value": 2}]
    checker = Checker()
    assert checker.check("q0", "same query", '{"value":1}\n{"value":2}', lambda: rows)
    assert not checker.check("q1", "same query", '{"value":2}\n{"value":1}', lambda: rows)
    assert checker.failed == 1


def test_pace_scales_by_the_calibrations_around_a_duration():
    pace = Pace()
    # a calm phase, calibrations at the reference time, then a phase twice as slow
    pace.ends = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
    pace.times = [REF_CALIBRATION_S] * 3 + [2 * REF_CALIBRATION_S] * 3
    assert pace.scaled(0.12, 0.004) == pytest.approx(0.004)
    assert pace.scaled(10.12, 0.008) == pytest.approx(0.004)
    # a duration spanning both phases is scaled by the median of all six
    assert pace.factor(0.0, 10.2) == pytest.approx(2 / 3)
    # a calibration just outside the window does not count
    assert pace.factor(0.2 + WINDOW_S + 0.01, 10.0) == pytest.approx(0.5)


def test_pace_samples_on_its_cadence():
    pace = Pace()
    pace.sample(2)
    assert len(pace.times) == 3 and all(t > 0 for t in pace.times)
    pace.tick()
    assert len(pace.times) == 3
    pace.ends[-1] -= CADENCE_S
    pace.tick()
    assert len(pace.times) == 4


def _engine(text, graph) -> str:
    return to_jsonl(evaluate(compile_traversal(parse_traversal(text)), graph))


@pytest.mark.parametrize("seed", [1, 2])
def test_every_template_matches_its_reference(seed):
    data = generate(SMALL, seed)
    graph = load_graph(data.to_json())
    ref = queries.RefGraph(data)
    rng = random.Random(seed)
    mix = list(islice(queries.lookup_stream(rng, ref), 3 * len(queries.LOOKUP_TEMPLATES)))
    mix += queries.analytic_pass(rng, ref)
    assert {q.template for q in mix} == set(queries.TEMPLATES)
    checker = Checker()
    for q in mix:
        reference = queries.TEMPLATES[q.template].reference
        checker.check(q.qid, q.text, _engine(q.text, graph), lambda: reference(ref, *q.consts))
    assert checker.failed == 0, checker.mismatches


def test_filter_chain_is_about_500_characters():
    assert 500 <= len(queries._chain_text("person0001")) < 560


def test_run_fails_without_the_package(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lookup-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
