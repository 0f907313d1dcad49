"""Each value rule has one definition, in property_graph's key functions.

join_key defines equality (values_equal, joins, bindings), value_key
identity (dedup, grouping, canonical rows) and sort_key order (order(),
group()); the evaluator's key helpers only map them over a column.  The
references below are the rules as the package wrote them before the key
functions took vertex tokens and None: values_equal's own type tests, and
the per-value token and None cases of the evaluator's general key paths,
over the scalar keys of that time.  The values are look-alikes that a
looser rule would confuse: 1, 1.0 and True, -0.0 and 0.0, 2**70 and its
float, "1" and "true", a vertex token and an int, an edge and a vertex
with one id, and None.  NaN is left out: neither the loader nor the
parser admits it.
"""

from __future__ import annotations

import itertools
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from grem_algebra import BindingSet
from grem_algebra import algebra as alg
from grem_algebra import evaluator as ev
from grem_algebra.property_graph import EdgeRef, VertexRef, join_key, sort_key, value_key, values_equal

SCALARS = [0, 1, -0.0, 0.0, 1.0, 2**70, 2**70 + 1, float(2**70), True, False, "1", "true", ""]
TOKENS = [(0,), (1,), (2,)]  # vertex tokens, as a value column holds them
EDGE, VERTEX = EdgeRef("1"), VertexRef("1")
# what a value column of the engine holds
ENGINE_VALUES = SCALARS + TOKENS + [EDGE, EdgeRef("0"), None]
# every value a key function takes
ALL_VALUES = ENGINE_VALUES + [VERTEX, VertexRef("0")]


def _numeric(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def reference_values_equal(a: object, b: object) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if _numeric(a) and _numeric(b):
        return a == b
    if type(a) is not type(b):
        return False
    return a == b


def _reference_value_key(v: object) -> tuple:
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, float):
        return ("f", struct.pack(">d", v))
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, VertexRef):
        return ("v", v.id)
    if isinstance(v, EdgeRef):
        return ("e", v.id)
    raise TypeError(v)


def _reference_sort_key(v: object) -> tuple:
    if isinstance(v, bool):
        return (0, v)
    if _numeric(v):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, VertexRef):
        return (3, v.id)
    if isinstance(v, EdgeRef):
        return (4, v.id)
    raise TypeError(v)


def reference_identity_keys(values: list) -> list:
    return [("missing",) if v is None else v if type(v) is tuple else _reference_value_key(v) for v in values]


def reference_order_keys(values: list) -> list:
    return [(-1,) if v is None else (3, v) if type(v) is tuple else _reference_sort_key(v) for v in values]


def reference_join_keys(values: list) -> list:
    """A class per value that reference_values_equal puts together; None
    (absent) stays None and meets nothing."""
    firsts: list = []
    classes = []
    for v in values:
        if v is None:
            classes.append(None)
            continue
        found = next((i for i, f in enumerate(firsts) if reference_values_equal(f, v)), None)
        if found is None:
            found = len(firsts)
            firsts.append(v)
        classes.append(found)
    return classes


def same_partition(keys: list, reference: list) -> bool:
    """Whether two key lists put the same rows together: each key meets
    one reference key and each reference key one key."""
    pairs = set(zip(keys, reference))
    return len(pairs) == len(set(keys)) == len(set(reference))


def hashes_agree(keys: list) -> bool:
    return all(hash(a) == hash(b) for a, b in itertools.combinations(keys, 2) if a == b)


def stable_order(keys: list, descending: bool) -> list[int]:
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=descending)


def test_equality_is_join_key_equality_for_every_pair():
    for a, b in itertools.product(ALL_VALUES, repeat=2):
        want = reference_values_equal(a, b)
        assert values_equal(a, b) is want, (a, b)
        assert (join_key(a) == join_key(b)) is want, (a, b)
        if want:
            assert hash(join_key(a)) == hash(join_key(b)), (a, b)


def test_the_look_alikes_meet_as_documented():
    assert values_equal(1, 1.0) and values_equal(-0.0, 0.0) and values_equal(2**70, float(2**70))
    assert not values_equal(True, 1) and not values_equal(False, 0) and not values_equal("1", 1)
    assert not values_equal(EDGE, VERTEX) and not values_equal((1,), 1) and not values_equal(None, 0)
    assert value_key(1) != value_key(1.0) and value_key(-0.0) != value_key(0.0)
    assert value_key(None) == ("missing",) and value_key((1,)) == (1,) and join_key(None) is None
    assert sort_key(None) < sort_key(False) < sort_key(-1) < sort_key("") < sort_key((0,)) < sort_key(EDGE)


def test_identity_and_order_of_single_values():
    for v in ALL_VALUES:
        if v is not None and type(v) is not tuple:
            assert value_key(v) == _reference_value_key(v), v
            assert sort_key(v) == _reference_sort_key(v), v
    assert same_partition(list(map(value_key, ALL_VALUES)), reference_identity_keys(ALL_VALUES))
    assert hashes_agree(list(map(value_key, ALL_VALUES)))


engine_columns = st.lists(st.sampled_from(ENGINE_VALUES), max_size=24)


@settings(max_examples=400, deadline=None)
@given(engine_columns)
def test_dedup_partitions_match_the_reference(values):
    # the row numbers ride as the position, which dedup('x') does not key
    rel = ev._Rel(("x",), [values], [ev.VALUES], list(range(len(values))), ev.RANKS)
    kept = ev._dedup(alg.Dedup(("x",), alg.GetVertices()), rel.cols, None, None, None, rel)
    assert kept.pos == ev._first_rows(reference_identity_keys(values))
    assert hashes_agree(list(map(value_key, values)))


@settings(max_examples=400, deadline=None)
@given(engine_columns, st.booleans())
def test_sort_orders_match_the_reference(values, descending):
    keys = ev._order_keys(values, ev.VALUES)
    assert stable_order(keys, descending) == stable_order(reference_order_keys(values), descending)


@settings(max_examples=400, deadline=None)
@given(engine_columns, st.data())
def test_join_partitions_match_the_reference(values, data):
    keys = ev._join_keys([values], [ev.VALUES], None, len(values))
    reference = reference_join_keys(values)
    assert [k is None for k in keys] == [v is None for v in values]
    assert same_partition(keys, reference)
    assert hashes_agree([k for k in keys if k is not None])
    # two join columns: a row with either absent has no key
    other = data.draw(st.lists(st.sampled_from(ENGINE_VALUES), min_size=len(values), max_size=len(values)))
    pairs = ev._join_keys([values, other], [ev.VALUES, ev.VALUES], None, len(values))
    assert [k is None for k in pairs] == [a is None or b is None for a, b in zip(values, other)]
    present = [i for i, k in enumerate(pairs) if k is not None]
    both = list(zip(reference, reference_join_keys(other)))
    assert same_partition([pairs[i] for i in present], [both[i] for i in present])


# caller-built rows hold VertexRefs, never tokens
row_values = st.sampled_from(SCALARS + [EDGE, VERTEX, VertexRef("0"), None])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(row_values, row_values), max_size=16))
def test_canonical_rows_partition_as_the_reference(pairs):
    rows = [{k: v for k, v in zip(("b", "a"), pair) if v is not None} for pair in pairs]
    got = BindingSet(("b", "a"), rows).canonical()
    reference = [
        tuple((c, ("missing",) if v is None else _reference_value_key(v)) for c, v in sorted(zip(("b", "a"), pair)))
        for pair in pairs
    ]
    assert same_partition(got, reference)
    # schema-less rows: one value each, at the position
    got = BindingSet((), [{} if a is None else {"@": a} for a, _ in pairs]).canonical()
    reference = [() if a is None else (_reference_value_key(a),) for a, _ in pairs]
    assert same_partition(got, reference)
