"""Regular-tower levels as PathRows, against the dotted-id builder oracle.

regular_tower keeps each level as a PathRow that formats id k when it is
read.  Every read (len, int and numpy-int indexing with negative
indices, stepped slices, iteration, lookup and its misses,
equality) must agree with the id rows the list-comprehension builder in
oracles.py writes, for degrees 1-12 (so tails sort '.10' before '.2')
and heights 1-5.  The tower hash, the JSON round trip and the verdict on rows made
concrete must not see the difference, and a build must hold no id text.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import MultiMap, Tower, base_space, regular_tower, validate_tower
from coarsetowers.limits import Caps
from coarsetowers.serialization import content_hash, tower_hash, tower_to_json
from coarsetowers.towers import (
    PathRow, _level_subtower, _locate, _of_arrays, _valid_arrays)

from oracles import dotted_levels, node_maps

# heights 1-5; a base of at most 600 points keeps each example quick
DEGREES = st.lists(st.integers(1, 12), max_size=4).filter(lambda d: math.prod(d) <= 600)

# ids no row of a regular tower holds: wrong head, padded or signed
# digits, non-ASCII digits, an empty step, and ids that are not strings
FOREIGN = ["", "t.", "x.0", "t..0", "t.00", "t.01", "t.+1", "t.-0", "t. 1",
           "t.٣", "t.0.", "T.0", 0, None, ("t",)]


@given(DEGREES, st.data())
@settings(max_examples=100, deadline=None)
def test_path_rows_read_like_the_builder_oracle(degrees, data):
    tower = regular_tower(degrees)
    want = dotted_levels(degrees)
    assert len(tower._ids) == len(want) == len(degrees) + 1
    for row, ref in zip(tower._ids, want):
        n = len(ref)
        assert type(row) is PathRow and row.id_sorted and ref == sorted(ref)
        assert len(row) == n
        assert list(row) == ref
        assert [row[k] for k in range(-n, n)] == ref + ref
        assert [row[np.int64(k)] for k in range(n)] == ref
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                row[k]
        with pytest.raises(TypeError):
            row[1.0]
        bound = st.none() | st.integers(-n - 2, n + 2)
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.none() | st.integers(-4, 4).filter(bool)))
        assert row[cut] == tuple(ref[cut])
        assert type(row[cut]) is tuple
        for k, node in enumerate(ref):
            assert row.index(node) == k and node in row and row.count(node) == 1
        # the ids of every other level, and ids no level holds
        others = [i for other in want if other is not ref for i in other]
        for node in others + FOREIGN:
            assert node not in row and row.count(node) == 0
            with pytest.raises(ValueError):
                row.index(node)
        k = data.draw(st.integers(0, n - 1))
        with pytest.raises(ValueError):
            row.index(ref[k], k + 1)
        assert row == tuple(ref) and tuple(ref) == row and row == ref
        assert not row != tuple(ref)
        assert row != tuple(ref[:-1]) and row != tuple(reversed(ref)) or n == 1
        assert row != "".join(ref) and row != ref[0]
        assert hash(row) == hash(tuple(ref))
    # equal exactly when the degrees are: rows of another build, and the
    # rows of other levels
    again = regular_tower(list(degrees))
    assert again._ids == tower._ids
    for lv, row in enumerate(tower._ids):
        assert [row == other for other in again._ids] == \
            [k == lv for k in range(len(again._ids))]


@given(DEGREES, st.data())
@settings(max_examples=100, deadline=None)
def test_hash_json_and_round_trip_do_not_see_path_rows(degrees, data):
    tower = regular_tower(degrees)
    want_base = dotted_levels(degrees)[0]
    doc = tower_to_json(tower)
    assert tower_hash(tower) == content_hash(doc)
    back = Tower(*node_maps(tower))
    assert all(type(row) is tuple for row in back._ids)
    assert back._ids == tower._ids and tower._ids == back._ids
    assert tower_to_json(back) == doc and tower_hash(back) == tower_hash(tower)
    # a level subtower keeps the rows, and its levels skip steps
    keep = data.draw(st.lists(st.booleans(), min_size=len(degrees), max_size=len(degrees)))
    levels = [lv for lv, kept in enumerate(keep, start=1) if kept] + [tower.height]
    sub = _level_subtower(tower, levels)
    assert all(sub._ids[k] is tower._ids[lv - 1] for k, lv in enumerate(levels))
    assert _valid_arrays(sub._ids, sub._par)
    assert tower_hash(sub) == content_hash(tower_to_json(sub))
    # rows whose parents are not their id prefixes hash as their document
    odd = _of_arrays(tower._ids, [p[::-1].copy() for p in tower._par], Caps())
    assert tower_hash(odd) == content_hash(tower_to_json(odd))
    # the base space holds the base row itself, and lookups parse ids
    base = base_space(tower)
    assert base.points is tower.base
    assert [base.index(p) for p in want_base] == list(range(len(want_base)))
    assert all(p in base for p in want_base)
    for node in FOREIGN:
        assert node not in base
        with pytest.raises(KeyError):
            base.index(node)
    assert MultiMap(base, base, zip(want_base, reversed(want_base))).pairs == \
        tuple(zip(want_base, reversed(want_base)))
    for lv, row in enumerate(dotted_levels(degrees), start=1):
        assert [_locate(tower, node) for node in row] == [(lv, k) for k in range(len(row))]
    assert all(_locate(tower, node) is None for node in FOREIGN)


@given(DEGREES.filter(lambda d: math.prod(d) > 1), st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_names_duplicated_ids_in_materialized_rows(degrees, data):
    tower = regular_tower(degrees)
    rows = [list(row) for row in tower._ids]
    lv = data.draw(st.sampled_from([k for k, row in enumerate(rows) if len(row) > 1]))
    a, b = data.draw(st.lists(st.integers(0, len(rows[lv]) - 1),
                              min_size=2, max_size=2, unique=True))
    rows[lv][b] = rows[lv][a]
    report = validate_tower(_of_arrays(rows, tower._par, Caps()))
    assert not report.ok
    assert ("unique-ids", (rows[lv][a],)) in \
        [(v.rule, v.witness) for v in report.violations]


def test_path_rows_of_one_depth_are_not_distinct():
    # the rows' step counts must differ: two rows of no steps both hold "t"
    twice = _of_arrays([PathRow(()), PathRow(())], [np.zeros(1, dtype=np.int64)], Caps())
    assert not _valid_arrays(twice._ids, twice._par)
    report = validate_tower(twice)
    assert ("unique-ids", ("t",)) in [(v.rule, v.witness) for v in report.violations]


def test_regular_build_holds_no_id_text():
    # a 3-regular tower of height 11 has 88573 nodes; with one string an
    # id it held over 5 MB beyond its parent arrays
    caps = Caps(max_points=100_000)
    regular_tower([3] * 10, caps=caps)  # warm up the first call's imports
    tracemalloc.start()
    try:
        tower = regular_tower([3] * 10, caps=caps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    par_bytes = sum(p.nbytes for p in tower._par)
    assert peak <= par_bytes + 2 ** 20, \
        f"traced peak {peak / 2 ** 20:.2f} MB, parent arrays {par_bytes / 2 ** 20:.2f} MB"
