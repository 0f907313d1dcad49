"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import pathlib
import random
import time
from collections import Counter

from grem_algebra import (
    BindingSet,
    ParseError,
    compile_traversal,
    evaluate,
    parse_traversal,
    render_plan,
)
from grem_algebra.algebra import Dedup, GetVertices, Projection, Restriction, Traverse, Union
from grem_algebra.compiler import extract_patterns, stitch_patterns
from grem_algebra.parser import Step, StepKind, TraversalAST
from grem_algebra.property_graph import VertexRef

from reference import (
    EMPTY_PATH, Path, Traverser, bind, match_all, multiset_union, path_concat, path_join,
)
from corpus import (
    CORPUS,
    Q_OLDEST_KNOWN_AGE,
    Q_COCREATOR_30,
    Q_AGES_ASC,
    Q_UNION_CREATORS,
    random_graph,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def compiled(text, **kw):
    return compile_traversal(parse_traversal(text), **kw)


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def test_criterion_1_oldest_known_age_end_to_end(modern):
    start = time.monotonic()
    result = evaluate(compiled(Q_OLDEST_KNOWN_AGE), modern)
    elapsed = time.monotonic() - start
    assert result.values() == [32]
    assert elapsed < 1.0
    report(1, f"the oldest-known-age query on the fixture returns exactly 32 in {elapsed * 1000:.1f} ms")


def test_criterion_2_cocreator_grouped_plan_golden():
    rendered = render_plan(compiled(Q_COCREATOR_30, eq7_grouping=True), "ascii") + "\n"
    assert rendered == golden("plan_cocreator_30_grouped.txt")
    lines = [l.strip() for l in rendered.splitlines()]
    assert lines == [
        "group[name]",
        "project[a,c]",
        "filter[c.age=30]",
        "traverse-in[created](b->c)",
        "filter[b.name=lop]",
        "traverse-out[created](a->b)",
        "V",
    ]
    report(2, "the co-creator query plan (grouping reading) is byte-identical to the golden file")


def test_criterion_3_ages_asc_plan_and_result(modern):
    expr = compiled(Q_AGES_ASC)
    rendered = render_plan(expr, "ascii") + "\n"
    assert rendered == golden("plan_ages_asc.txt")
    lines = [l.strip() for l in rendered.splitlines()]
    assert lines == [
        "order[b asc]",
        "project[b]",
        "filter[b=values age]",
        "filter[a.label=person]",
        "V",
    ]
    result = evaluate(expr, modern)
    assert [r["b"] for r in result.rows] == [27, 29, 32, 35]
    report(3, "the ascending-ages query plan matches the golden file and evaluates to 27,29,32,35 in order")


def test_criterion_4_union_creators_plan_shape():
    expr = compiled(Q_UNION_CREATORS)
    rendered = render_plan(expr, "ascii") + "\n"
    assert rendered == golden("plan_union_creators.txt")
    # a union node over two traverse-out[created] chains
    assert isinstance(expr, Projection)
    assert isinstance(expr.input, Union)
    for branch, (frm, to) in zip((expr.input.left, expr.input.right), [("a", "c"), ("b", "c")]):
        assert isinstance(branch, Traverse)
        assert branch.direction == "out"
        assert branch.edge_label == "created"
        assert (branch.anchor, branch.var) == (frm, to)
    # An alternative reading projects (b, c); the compiler follows the query
    # text's select('a','c').  Asserted here, documented in the README:
    assert expr.vars == ("a", "c")
    report(4, "the union-of-creators query plan has the union over two created-traversals, projected as (a,c)")


def test_criterion_5_path_join_worked_example():
    P = [Path((("v1", "e1", "v2"),)), Path((("v2", "e2", "v3"),))]
    R = [Path((("v2", "e2", "v3"),)), Path((("v2", "e2", "v1"),))]
    got = Counter(p.flatten() for p in path_join(P, R))
    assert got == Counter(
        [
            ("v1", "e1", "v2", "v2", "e2", "v3"),
            ("v1", "e1", "v2", "v2", "e2", "v1"),
        ]
    )
    report(5, "path join reproduces the worked example exactly")


def test_criterion_6_multiset_union_worked_example():
    def pairs(rows):
        return BindingSet(("x", "y"), [{"x": a, "y": b} for a, b in rows])

    out = multiset_union(pairs([(1, 2), (3, 4), (3, 4), (4, 5)]), pairs([(1, 2), (3, 4)]))
    counts = Counter((r["x"], r["y"]) for r in out.rows)
    assert counts == Counter({(1, 2): 2, (3, 4): 3, (4, 5): 1})
    report(6, "multiset union reproduces the worked example with multiplicities 2/3/1")


def test_criterion_7_oracle_equivalence(modern):
    start = time.monotonic()
    plans = {q.name: compiled(q.text) for q in CORPUS}
    assert len(plans) == 10
    graphs = [("modern", modern)] + [(f"seed{s}", random_graph(s)) for s in range(200)]
    cases = 0
    for gname, g in graphs:
        for q in CORPUS:
            got = Counter(evaluate(plans[q.name], g).canonical())
            want = q.oracle(g)
            assert got == want, f"{q.name} diverges from the oracle on {gname}"
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(7, f"{cases} query/graph cases match the brute-force oracle in {elapsed:.1f} s")


def _permute_match(ast: TraversalAST, order: list[int]) -> TraversalAST:
    steps = list(ast.steps)
    for i, step in enumerate(steps):
        if step.kind is StepKind.MATCH:
            steps[i] = Step(StepKind.MATCH, tuple(step.args[j] for j in order))
            break
    return TraversalAST(ast.anonymous, tuple(steps))


def test_criterion_8_invariant_suite(modern):
    rng = random.Random(20260810)
    graphs = [modern] + [random_graph(s) for s in (3, 7, 11)]

    # dedup idempotence and restriction cardinality
    inner = Traverse("out", None, "a", "b", GetVertices())
    for g in graphs:
        once = evaluate(Dedup((), inner), g)
        twice = evaluate(Dedup((), Dedup((), inner)), g)
        assert Counter(once.canonical()) == Counter(twice.canonical())
        n = len(evaluate(inner, g).rows)
        assert len(once.rows) <= n
        for _ in range(10):
            skip, take = rng.randint(0, 12), rng.randint(0, 12)
            got = len(evaluate(Restriction(skip, take, inner), g).rows)
            assert got == min(take, max(0, n - skip))
        assert len(evaluate(Projection(("a", "b"), None, inner), g).rows) == n

    # path concatenation: length additivity, associativity, unit laws
    verts = [f"v{i}" for i in range(9)]
    chain = [(verts[i], f"e{i}", verts[i + 1]) for i in range(8)]
    for _ in range(50):
        c1, c2 = sorted(rng.sample(range(1, 8), 2))
        p, q, r = Path(tuple(chain[:c1])), Path(tuple(chain[c1:c2])), Path(tuple(chain[c2:]))
        assert path_concat(p, q).length == p.length + q.length
        assert path_concat(path_concat(p, q), r) == path_concat(p, path_concat(q, r))
        assert path_concat(EMPTY_PATH, p) == p == path_concat(p, EMPTY_PATH)
    some = [Path(tuple(chain[:2])), Path(tuple(chain[4:6]))]
    assert path_join(some, [EMPTY_PATH]) == some
    assert path_join([EMPTY_PATH], some) == some

    # match-chain permutation invariance: 20 random permutations per query
    for q in CORPUS:
        if not q.match_chains:
            continue
        ast = parse_traversal(q.text)
        reference = Counter(evaluate(compile_traversal(ast), modern).canonical())
        for _ in range(20):
            order = list(range(q.match_chains))
            rng.shuffle(order)
            permuted = compile_traversal(_permute_match(ast, order))
            assert Counter(evaluate(permuted, modern).canonical()) == reference

    # bind: the three-case contract
    lop, ripple = VertexRef("3"), VertexRef("5")
    fresh = Traverser(location=lop)
    assert bind(fresh, "b").labeled_path["b"] == lop
    already = Traverser(location=lop, labeled_path={"b": lop})
    assert bind(already, "b") is already
    conflicted = Traverser(location=ripple, labeled_path={"b": lop})
    assert bind(conflicted, "b") is None

    # halting: every corpus query evaluates to completion on every graph,
    # and the traverser route finishes with each pattern run exactly once
    for g in graphs:
        for q in CORPUS:
            evaluate(compile_traversal(parse_traversal(q.text)), g)
    for q in CORPUS:
        if q.match_chains and q.match_connected:
            ast = parse_traversal(q.text)
            step = next(s for s in ast.steps if s.kind is StepKind.MATCH)
            chains = extract_patterns(step)
            route1 = match_all(chains, modern)
            route2 = evaluate(stitch_patterns(chains), modern)
            assert Counter(route1.canonical()) == Counter(route2.canonical())

    report(8, "dedup/restriction/path/projection invariants, permutation invariance, "
              "bind contract, and halting all hold")


def test_criterion_9_parser_fuzz():
    rng = random.Random(424242)
    printable = "gV.()'\",_ab01 \t\n__ashelctordumxinby"
    crashes = 0
    outcomes = {"ast": 0, "error": 0}
    for i in range(10_000):
        mode = i % 3
        if mode == 0:
            text = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64))).decode("latin-1")
        elif mode == 1:
            text = "".join(rng.choice(printable) for _ in range(rng.randint(0, 96)))
        else:
            base = list("g.V().match(__.as('a').out('created').as('b')).select('a')")
            for _ in range(rng.randint(1, 8)):
                base[rng.randrange(len(base))] = chr(rng.randrange(32, 127))
            text = "".join(base)
        try:
            parse_traversal(text)
            outcomes["ast"] += 1
        except ParseError as exc:
            assert exc.pos >= 0 and exc.line >= 1 and exc.col >= 1
            outcomes["error"] += 1
        except Exception:  # noqa: BLE001 - anything else is a crash
            crashes += 1
    assert crashes == 0
    assert outcomes["ast"] + outcomes["error"] == 10_000
    report(9, f"10000 fuzz inputs: {outcomes['ast']} parsed, {outcomes['error']} positioned errors, 0 crashes")
