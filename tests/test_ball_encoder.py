"""The nested-ball encoder against the builders' former mask loops.

Word spaces, chain ultrametrizations, tower bases and subspaces of
labelled ultrametrics are all encoded from their nested balls, and each is
born with its ball-label table.  The mask loops and the flag-table
compaction they replaced are kept here verbatim as oracles; the dense
compaction still serves every space not known to be ultrametric.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    Space,
    ball_tower,
    base_space,
    entropy_profile,
    hyperspace,
    min_net,
    product,
    regular_tower,
    subspace,
    ultrametrize,
    word_id,
    word_space,
)
from coarsetowers import spaces
from coarsetowers.spaces import CLOSED, _compact, _pick_dtype, _Table

from conftest import (
    random_plain_metric,
    random_radii,
    random_tower,
    random_ultrametric,
    shuffled_tower,
)
from oracles import chain_labels, class_labels, lexsort_ball_table
from test_tower_arrays import _assert_same_space


def _mask_word_space(alphabet_size, length):
    """word_space's codes as its position mask loop wrote them."""
    words = np.asarray(
        list(itertools.product(range(alphabet_size), repeat=length)),
        dtype=np.int16)
    n = words.shape[0]
    codes = np.zeros((n, n), dtype=_pick_dtype(length + 1))
    for pos in range(length):  # ascending, so the last write wins = max position
        col = words[:, pos]
        codes[col[:, None] != col[None, :]] = pos + 1
    values = (0,) + tuple(2 ** p for p in range(length))
    points = tuple(word_id(w, alphabet_size) for w in words.tolist())
    return points, codes, values


def _mask_ultrametrize(space, scales):
    """ultrametrize's codes as its per-scale mask loop and _compact wrote
    them."""
    n = len(space.points)
    out = np.zeros((n, n), dtype=_pick_dtype(len(scales) + 1))
    assigned = np.eye(n, dtype=bool)
    for k, r in enumerate(scales, start=1):
        lab = chain_labels(space, r)
        same = lab[:, None] == lab[None, :]
        newly = same & ~assigned
        out[newly] = k
        assigned |= newly
    assert assigned.all()
    codes, values = _compact(out, tuple(2 * k for k in range(len(scales) + 1)))
    return space.points, codes, values


def _assert_encoded(space, points, codes, values):
    """Same points, values and codes (dtype included) as the oracle, and a
    complete table whose every row is the scan's."""
    assert space.points == tuple(points)
    assert space.values == tuple(values)
    assert space.codes.dtype == codes.dtype
    assert np.array_equal(space.codes, codes)
    assert isinstance(space._labels, _Table)
    assert len(space._labels) == len(space.values)
    for k, row in enumerate(space._labels):
        assert np.array_equal(row, class_labels(space.codes, k))


@given(st.integers(2, 5), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_word_space_matches_mask_loop(alphabet_size, length):
    _assert_encoded(word_space(alphabet_size, length),
                    *_mask_word_space(alphabet_size, length))


def _random_scales(rng, plain):
    positive = [v for v in plain.values if v > 0]
    scales = sorted(set(rng.sample(positive, rng.randint(1, len(positive)))))
    # a scale between values or below the least distance merges nothing
    scales += [rng.choice(positive) / 3, rng.choice(positive) + 1]
    return sorted(set(s for s in scales if s < plain.diameter())) + [plain.diameter()]


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_ultrametrize_matches_mask_loop_and_compact(seed):
    rng = random.Random(seed)
    plain = random_plain_metric(rng, 2, 12)
    scales = _random_scales(rng, plain)
    _assert_encoded(ultrametrize(plain, scales), *_mask_ultrametrize(plain, scales))


def test_ultrametrize_rejects_a_top_scale_that_leaves_components():
    plain = random_plain_metric(random.Random(5), 6, 6)
    with pytest.raises(ValueError, match="single component"):
        ultrametrize(plain, [min(v for v in plain.values if v > 0)])


def test_ultrametrize_of_the_empty_space_realizes_nothing():
    empty = Space((), np.zeros((0, 0), dtype=np.int16), ())
    assert ultrametrize(empty, [1]).values == ()


def _labelled_spaces(rng):
    """Ultrametrics with a complete ball-label table: born with it from
    each builder, or installed by a passing validation."""
    plain = random_plain_metric(rng, 2, 10)
    filled = random_ultrametric(rng, 2, 12)
    assert filled.is_ultrametric
    tower = random_tower(rng)
    space = random_ultrametric(rng)
    return [
        word_space(rng.randint(2, 3), rng.randint(1, 3)),
        ultrametrize(plain, _random_scales(rng, plain)),
        base_space(tower),
        base_space(shuffled_tower(rng, tower)),
        base_space(ball_tower(space, random_radii(rng, space))),
        filled,
    ]


def _dense_subspace(space, subset):
    """subspace through _compact: the same space without its table."""
    return subspace(Space(space.points, space.codes, space.values), subset)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_labelled_subspace_matches_compaction(seed):
    rng = random.Random(seed)
    for space in _labelled_spaces(rng):
        subsets = [[], space.points, list(reversed(space.points))]
        subsets += [rng.sample(space.points, rng.randint(1, len(space)))
                    for _ in range(4)]
        for subset in subsets:
            got = subspace(space, subset)
            want = _dense_subspace(space, subset)
            assert want._labels is None
            _assert_encoded(got, want.points, want.codes, want.values)
        assert subspace(space, []).values == ()


@given(st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_subspace_drops_values_through_the_table(seed):
    # pairs of points keep exactly one positive distance: the rest drop
    rng = random.Random(seed)
    for space in _labelled_spaces(rng):
        if len(space) < 2:
            continue
        pair = rng.sample(space.points, 2)
        got = subspace(space, pair)
        assert got.values == (0, space.dist(*pair))
        want = _dense_subspace(space, pair)
        _assert_encoded(got, want.points, want.codes, want.values)


@pytest.mark.parametrize("shift", [0, 1])
def test_unrealized_values_of_a_labelled_space_are_dropped(shift):
    # odd codes sit between the distances; with shift 1 code 0 sits below
    # every distance; Space(...) drops all of them
    space = word_space(2, 3)
    codes = 2 * space.codes.astype(np.int64) + shift
    values = [-1] * shift + [v + Fraction(h, 3) for v in space.values for h in (0, 1)]
    spread = Space(space.points, codes, values)
    assert spread.is_ultrametric
    for subset in (spread.points, ["000", "111"], ["001", "011"], ["010"]):
        got = subspace(spread, subset)
        want = _dense_subspace(spread, subset)
        _assert_encoded(got, want.points, want.codes, want.values)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_plain_space_with_filled_rows_takes_the_dense_path(seed):
    rng = random.Random(seed)
    plain = random_plain_metric(rng)
    assert plain._labels is None
    subset = rng.sample(plain.points, rng.randint(1, len(plain)))
    got = subspace(plain, subset)
    sub = plain.subindices(subset)
    codes, values = _compact(plain.codes[np.ix_(sub, sub)], plain.values)
    assert got._labels is None
    assert got.values == values
    assert np.array_equal(got.codes, codes)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_min_net_lists_least_ids_in_id_order(seed):
    # points listed out of id order: ball labels name least indices
    rng = random.Random(seed)
    space = random_ultrametric(rng)
    order = rng.sample(space.points, len(space))
    space = Space.from_matrix(
        order, [[space.dist(p, q) for q in order] for p in order])
    subset = rng.sample(order, rng.randint(1, len(order)))
    for r in space.values:
        want = {min(q for q in subset if space.dist(p, q) <= r) for p in subset}
        assert min_net(space, subset, r) == tuple(sorted(want))


# -- the nested-ball encoder against its lexsort ------------------------------------


def _ball_table_inputs(build):
    """The (points, parts, values) of every _ball_table call build makes."""
    calls, encode = [], spaces._ball_table

    def record(points, parts, values, caps=spaces.DEFAULT_CAPS):
        calls.append((points, parts, values))
        return encode(points, parts, values, caps)

    with mock.patch.object(spaces, "_ball_table", record):
        build()
    return calls


def _encode_word_rows(words):
    """word_space computes its rows, i mod a**(length - k), so the
    encoder is handed them as partitions."""
    return spaces._ball_table(words.points, list(words._labels), words.values)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_ball_table_matches_the_lexsort_encoder(seed):
    rng = random.Random(seed)
    plain = random_plain_metric(rng, 2, 10)
    space = random_ultrametric(rng, 2, 8)
    words = word_space(rng.randint(2, 3), rng.randint(1, 3))
    builds = [
        lambda: _encode_word_rows(word_space(rng.randint(2, 4), rng.randint(1, 4))),
        lambda: product(space, words),
        lambda: hyperspace(space, rng.randint(1, 3)),
        lambda: ultrametrize(plain, _random_scales(rng, plain)),
        # a proper subset: the whole in id order is the space itself
        lambda: subspace(words, rng.sample(words.points, rng.randrange(len(words)))),
        lambda: subspace(space, rng.sample(space.points, rng.randrange(len(space)))),
    ]
    for build in builds:
        [(points, parts, values)] = _ball_table_inputs(build)
        _assert_same_space(spaces._ball_table(points, parts, values),
                           lexsort_ball_table(points, parts, values))


# -- nothing scans the codes ---------------------------------------------------


@pytest.fixture
def no_scans(monkeypatch):
    def scan(*args):
        raise AssertionError("codes were scanned")

    monkeypatch.setattr(spaces, "_strong_triangle", scan)
    monkeypatch.setattr(spaces, "_compact", scan)


@pytest.mark.parametrize("degrees", [(), (3, 3, 3), (1, 2, 1, 3)])
def test_identity_subspace_of_a_tower_base_shares_its_codes(degrees, no_scans):
    base = base_space(regular_tower(degrees))
    sub = subspace(base, base.points)
    assert sub.codes is base.codes
    assert sub._labels is base._labels


@pytest.mark.parametrize("kind", ["word", "chain"])
def test_nets_ball_towers_and_entropy_read_the_born_table(kind, no_scans):
    if kind == "word":
        space = word_space(3, 3)
    else:
        plain = random_plain_metric(random.Random(11), 8, 8)
        space = ultrametrize(plain, _random_scales(random.Random(12), plain))
    radii = list(space.values)
    for r in radii:
        assert min_net(space, space.points[1:], r)
    ball_tower(space, radii)
    entropy_profile(space, radii, radii, CLOSED)
