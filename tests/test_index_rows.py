"""Ball-label tables held as index arithmetic, against the stored rows.

The base of a uniform tower (regular_tower and its level subtowers) and a
word space hold their ball-label table as one block size or one modulus
a code (_IndexRows).  Every read must agree with the rows the stored-table
builders write for the same balls: np.minimum.at over the parent arrays
(base_space of the same arrays with no block sizes recorded) and
_ball_table over the word space's index residues.  Covered: regular
degrees 1-12 (from 11 up "t.10" sorts before "t.2"), level subtowers
that skip levels, and word spaces over alphabets 2-12.  Compared: every
row, the leaf rank against np.lexsort's, the labels of index arrays the
modulus reads (_first_pair_at's and neighbour_codes' inputs), the
neighbour codes on leaf order (the ruler sequence) and off it, the
distances of sampled pairs, the entropy profile under both conventions
(with its errors), the code matrix, the table verdict and the moduli with
their witnesses.  A tower whose parents are not id prefixes keeps a
stored table.  The entropy of an index table reads no label row.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    CLOSED, STRICT, MultiMap, base_space, distortion_modulus, entropy_profile,
    regular_tower, validate_ultrametric, word_space)
from coarsetowers.limits import Caps
from coarsetowers.spaces import _ball_table, _IndexRows, _Rows
from coarsetowers.towers import _level_subtower, _of_arrays

# heights 1-5; a base of at most 600 points keeps each example quick
DEGREES = st.lists(st.integers(1, 12), max_size=4).filter(lambda d: math.prod(d) <= 600)


def _stored_base(tower):
    """The base of the same arrays with no block sizes recorded: the rows
    np.minimum.at lifts up the parent arrays."""
    return base_space(_of_arrays(tower._ids, tower._par, Caps()))


def _stored_words(alphabet_size, length):
    """The word space's balls through _ball_table: row k names each index
    by its residue mod alphabet_size ** (length - k)."""
    words = word_space(alphabet_size, length)
    idx = np.arange(len(words))
    parts = [idx % alphabet_size ** (length - k) for k in range(length + 1)]
    return _ball_table(words.points, parts, (0,) + tuple(2 ** p for p in range(length)))


def _assert_same_entropy(got, want):
    """Both conventions, eps and delta at every value, at the midpoints
    between values and above the diameter: the same entries in the same
    order, and the same ValueError, in the same order, for strict eps = 0
    and a negative delta."""
    vals = want.values
    radii = list(vals) + [Fraction(a + b, 2) for a, b in zip(vals, vals[1:])] + [vals[-1] + 1]
    for convention in (CLOSED, STRICT):
        eps_list = radii[1:] if convention == STRICT else radii
        got_entries, want_entries = (
            entropy_profile(space, eps_list, radii, convention).entries for space in (got, want))
        assert list(got_entries.items()) == list(want_entries.items())
        bad = [(eps_list, [-1])]
        if convention == STRICT:
            bad += [([0], radii), ([0], [-1])]
        for bad_eps, bad_delta in bad:
            errors = []
            for space in (got, want):
                with pytest.raises(ValueError) as err:
                    entropy_profile(space, bad_eps, bad_delta, convention)
                errors.append(str(err.value))
            assert errors[0] == errors[1]


def _assert_same_reads(got, want, rng):
    assert isinstance(got._labels, _IndexRows) and isinstance(want._labels, _Rows)
    assert got.points == want.points and got.values == want.values
    n, table, rows = len(want), got._labels, want._labels
    # distances of sampled pairs, read off the tables before any matrix
    # is written
    pairs = rng.integers(0, n, size=(2 * n + 2, 2)).tolist()
    dists = [(got.dist(got.points[i], got.points[j]),
              want.dist(want.points[i], want.points[j])) for i, j in pairs]
    assert got._codes is None and want._codes is None
    _assert_same_entropy(got, want)
    assert len(table) == len(rows)
    for t, row in enumerate(rows):
        assert np.array_equal(table[t], row)
        assert np.array_equal(got.ball_labels(t), row)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort(rows)] = np.arange(n)
    assert np.array_equal(table.leaf_rank(), rank)
    # every point in leaf order (the ruler sequence), in index order, a
    # sorted sample with repeats and a random one
    some = rng.integers(0, n, size=rng.integers(1, 2 * n + 1))
    for idx in (np.argsort(rank), np.arange(n), some[np.argsort(rank[some], kind="stable")], some):
        for t in range(len(rows)):
            assert np.array_equal(got.ball_labels(t, idx), rows[t][idx])
        want_codes = want.codes[idx[:-1], idx[1:]]
        assert np.array_equal(table.neighbour_codes(idx), want_codes)
        assert np.array_equal(rows.neighbour_codes(idx), want_codes)
    assert np.array_equal(got.codes, want.codes)
    assert dists == [(want.values[want.codes[i, j]],) * 2 for i, j in pairs]
    assert validate_ultrametric(got).ok
    # the moduli, rows and witnesses, of a relation: every point and a few
    # random pairs, so fibers hold several points
    ia = np.concatenate((np.arange(n), rng.integers(0, n, size=n // 3 + 1)))
    ib = np.concatenate((rng.permutation(n), rng.integers(0, n, size=ia.size - n)))
    moduli = []
    for space in (got, want):
        phi = MultiMap._of_indices(space, space, ia, ib)
        moduli.append((distortion_modulus(phi), distortion_modulus(phi.inverse())))
    assert moduli[0] == moduli[1]


@given(DEGREES, st.data(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_uniform_tower_bases_read_like_the_minimum_rows(degrees, data, seed):
    rng = np.random.default_rng(seed)
    tower = regular_tower(degrees)
    _assert_same_reads(base_space(tower), _stored_base(tower), rng)
    # a level subtower keeps the form, whichever levels it skips
    keep = data.draw(st.lists(st.booleans(), min_size=len(degrees), max_size=len(degrees)))
    levels = [lv for lv, kept in enumerate(keep, start=1) if kept] + [tower.height]
    sub = _level_subtower(tower, levels)
    _assert_same_reads(base_space(sub), _stored_base(sub), rng)
    # parents that are not id prefixes: the same rows, stored
    odd = _of_arrays(tower._ids, [p[::-1].copy() for p in tower._par], Caps())
    assert odd._blocks is None and _level_subtower(odd, levels)._blocks is None
    assert isinstance(base_space(odd)._labels, _Rows)
    assert base_space(odd).values == base_space(tower).values


@given(st.integers(2, 12), st.data(), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_word_spaces_read_like_the_residue_rows(alphabet_size, data, seed):
    longest = int(math.log(1500, alphabet_size))
    length = data.draw(st.integers(1, longest))
    _assert_same_reads(word_space(alphabet_size, length),
                       _stored_words(alphabet_size, length),
                       np.random.default_rng(seed))


@pytest.mark.parametrize("space", [
    word_space(2, 16, Caps(max_points=2 ** 16)), base_space(regular_tower([3] * 8))],
    ids=["words-2-16", "regular-3-h9"])
def test_entropy_of_an_index_table_reads_no_label_row(monkeypatch, space):
    def no_row(self, t, idx):
        raise AssertionError("entropy_profile read a label row")

    # every ball of a code has the size of point 0's, read off its row
    sizes = [int((space.ball_labels(t) == 0).sum()) for t in range(len(space.values))]
    monkeypatch.setattr(_IndexRows, "at", no_row)
    for convention in (CLOSED, STRICT):
        eps_list = space.values[1:] if convention == STRICT else space.values
        profile = entropy_profile(space, eps_list, space.values, convention)
        for (eps, delta), cell in profile.entries.items():
            te, td = space.threshold_code(eps, convention), space.threshold_code(delta, CLOSED)
            q = sizes[td] // sizes[te] if td > te else 1
            assert cell == (q, q)
