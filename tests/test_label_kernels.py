"""Ball-label kernels against the dense scans they replace.

On spaces known to be ultrametric, distortion moduli, base-distortion
verdicts and entropy tables are read from each space's ball-label table.
The block scans over every pair of graph points stay in the package for
every other space, so a copy of a space without the ultrametric flag is
the oracle: same points, codes and values, dense path.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    AdmissibleSequences,
    MultiMap,
    Space,
    ball,
    ball_tower,
    base_space,
    build_admissible_morphism,
    check_base_distortion,
    distortion_modulus,
    regular_tower,
    subspace,
    ultrametrize,
    word_space,
)
from coarsetowers import morphisms
from coarsetowers.limits import CapExceeded, Caps
from coarsetowers.spaces import _class_labels, _compact, _pick_dtype

from conftest import random_plain_metric, random_radii, random_ultrametric

SPACE_KINDS = ["rational", "ball-tower", "subspace", "word", "unrealized"]


def _unflagged(space: Space) -> Space:
    """The same space with its ultrametric flag unknown: dense path."""
    return Space(space.points, space.codes, space.values)


def _ball_tower_base(rng: random.Random) -> Space:
    """Base of the ball tower of an ultrametrized random plain metric."""
    plain = random_plain_metric(rng, 4, 10)
    positive = [v for v in plain.values if v > 0]
    scales = sorted(set(rng.sample(positive, rng.randint(1, len(positive)))))
    scales = [s for s in scales if s < plain.diameter()] + [plain.diameter()]
    space = ultrametrize(plain, scales)
    return base_space(ball_tower(space, random_radii(rng, space)))


def _random_space(rng: random.Random, kind: str) -> Space:
    if kind == "rational":
        space = random_ultrametric(rng, 2, 14)
        assert space.is_ultrametric  # sets the flag the label path reads
        return space
    if kind == "ball-tower":
        return _ball_tower_base(rng)
    if kind == "subspace":
        # a subset usually drops some distances: compacted value table
        space = _random_space(rng, rng.choice(["rational", "ball-tower"]))
        keep = rng.sample(space.points, rng.randint(1, len(space.points)))
        return subspace(space, keep)
    if kind == "word":
        return word_space(rng.randint(2, 3), rng.randint(1, 3))
    # unrealized values below, between and above the realized ones
    space = _random_space(rng, rng.choice(["rational", "ball-tower"]))
    values = [-1]
    for v in space.values:
        values += [v, v + Fraction(1, 7)]
    return Space(space.points, 2 * space.codes.astype(np.int64) + 1, values,
                 ultrametric=True)


def _random_pairs(rng: random.Random, src: Space, tgt: Space, shape: str):
    """Relations of one shape: a function, multi-valued (several graph
    points on one source point), partial (not total), or onto."""
    if shape == "partial":
        sources = rng.sample(src.points, rng.randint(1, len(src.points)))
    else:
        sources = list(src.points)
    pairs = []
    for a in sources:
        k = rng.randint(1, 3) if shape == "multi" else 1
        pairs += [(a, b) for b in rng.sample(tgt.points, min(k, len(tgt.points)))]
    if shape == "onto":
        pairs += [(rng.choice(src.points), b) for b in tgt.points]
    return tuple(pairs)


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS + ["same"]),
       st.sampled_from(["function", "multi", "partial", "onto"]))
@settings(max_examples=150, deadline=None)
def test_label_modulus_matches_dense_scan(seed, src_kind, tgt_kind, shape):
    rng = random.Random(seed)
    src = _random_space(rng, src_kind)
    tgt = src if tgt_kind == "same" else _random_space(rng, tgt_kind)
    pairs = _random_pairs(rng, src, tgt, shape)
    phi = MultiMap(src, tgt, pairs)
    dense = MultiMap(_unflagged(src), _unflagged(tgt), pairs)
    assert morphisms._on_labels(phi) and not morphisms._on_labels(dense)
    for fast, slow in ((phi, dense), (phi.inverse(), dense.inverse())):
        got, want = distortion_modulus(fast), distortion_modulus(slow)
        assert got.table == want.table
        assert got.witnesses == want.witnesses


def _sibling_collapse(space: Space) -> dict:
    """Each point to the least id of its ball at the smallest positive
    distance: contracting, and within that distance of the identity."""
    return {p: min(ball(space, p, space.values[min(1, len(space.values) - 1)]))
            for p in space.points}


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS),
       st.sampled_from(["identity", "sibling", "random", "constant", "spread"]))
@settings(max_examples=150, deadline=None)
def test_label_base_distortion_matches_block_scan(seed, src_kind, tgt_kind, kind):
    rng = random.Random(seed)
    src = _random_space(rng, src_kind)
    if kind in ("identity", "sibling"):
        tgt = src
        fmap = ({p: p for p in src.points} if kind == "identity"
                else _sibling_collapse(src))
    else:
        tgt = _random_space(rng, tgt_kind)
        if kind == "constant":
            fmap = {p: tgt.points[0] for p in src.points}
        elif kind == "spread":  # expands whenever the target is wider
            fmap = {p: tgt.points[i * (len(tgt.points) - 1) // max(
                1, len(src.points) - 1)] for i, p in enumerate(src.points)}
        else:
            fmap = {p: rng.choice(tgt.points) for p in src.points}
    phi = MultiMap.from_function(src, tgt, fmap)
    dense = MultiMap.from_function(_unflagged(src), _unflagged(tgt), fmap)
    got, want = check_base_distortion(phi), check_base_distortion(dense)
    assert got.checked == want.checked
    assert got.violations == want.violations


def test_passing_base_bounds_scan_no_pairs(monkeypatch):
    def no_scan(phi):
        raise AssertionError("the pair scan ran on a passing ultrametric map")

    monkeypatch.setattr(morphisms, "_pair_code_blocks", no_scan)
    base = base_space(regular_tower((2, 3, 2)))
    for fmap in ({p: p for p in base.points}, _sibling_collapse(base)):
        assert check_base_distortion(MultiMap.from_function(base, base, fmap)).ok


def test_builder_reads_each_base_modulus_once(monkeypatch):
    calls = []
    label_modulus = morphisms._label_modulus

    def counted(phi):
        calls.append(phi)
        return label_modulus(phi)

    monkeypatch.setattr(morphisms, "_label_modulus", counted)
    t1 = regular_tower((27, 4))
    t2 = regular_tower((64,))
    roots = tuple(n for n in t1.nodes if t1.level[n] == 2)
    build_admissible_morphism(
        t1, roots, t2, t2.top, AdmissibleSequences((1, 4), (8, 8)))
    assert len(calls) == 2


def test_empty_relation_and_cap_checks_come_first():
    base = base_space(regular_tower((2, 2)))
    with pytest.raises(ValueError, match="empty relation"):
        distortion_modulus(MultiMap(base, base, ()))
    with pytest.raises(CapExceeded):
        distortion_modulus(MultiMap.identity(base), Caps(max_points=3))


# -- the label table -----------------------------------------------------------


def test_label_table_rows_are_class_labels():
    base = base_space(regular_tower((3, 2, 2)))
    for t in range(len(base.values)):
        row = base.ball_labels(t)
        assert np.array_equal(row, _class_labels(base.codes, t))
        assert base.ball_labels(t) is row  # filled once, then kept
    with pytest.raises(ValueError):
        base.ball_labels(len(base.values))
    with pytest.raises(ValueError):
        base.ball_labels(-1)


def test_identity_subspace_shares_codes():
    space = word_space(3, 3)
    whole = subspace(space, reversed(space.points))
    assert whole.points == space.points
    assert whole.codes is space.codes
    part = subspace(space, space.points[:9])
    assert part.codes is not space.codes
    assert len(part.values) < len(space.values)
    # a space whose tuple order is not id order is still gathered
    shuffled = Space(tuple(reversed(space.points)),
                     space.codes[::-1, ::-1], space.values, ultrametric=True)
    again = subspace(shuffled, shuffled.points)
    assert again.points == space.points
    assert np.array_equal(again.codes, space.codes)


# -- code compaction -----------------------------------------------------------


def _unique_oracle(codes, values):
    used, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(codes.shape), tuple(values[int(c)] for c in used)


@given(st.integers(0, 2 ** 32), st.integers(1, 30), st.integers(1, 60),
       st.sampled_from([np.uint8, np.int16, np.int32, np.int64]))
@settings(max_examples=150, deadline=None)
def test_compact_matches_unique(seed, n, nvalues, dtype):
    rng = np.random.default_rng(seed)
    values = tuple(Fraction(k, 3) for k in range(nvalues))
    realized = rng.choice(nvalues, size=rng.integers(1, nvalues + 1),
                          replace=False)
    codes = realized[rng.integers(0, realized.size, size=(n, n))].astype(dtype)
    got_codes, got_values = _compact(codes, values)
    want_codes, want_values = _unique_oracle(codes, values)
    assert got_values == want_values
    assert np.array_equal(got_codes, want_codes)
    assert got_codes.dtype == _pick_dtype(len(want_values))


def test_compact_keeps_codes_when_nothing_drops():
    codes = word_space(2, 3).codes
    out, values = _compact(codes, (0, 1, 2, 4))
    assert out is codes and values == (0, 1, 2, 4)
    wide = codes.astype(np.int64)
    assert _compact(wide, (0, 1, 2, 4))[0].dtype == np.int16


def test_compact_marks_codes_in_every_row_block():
    # 2100 rows make two blocks; code 7 sits only in the last row and
    # codes 3-6 nowhere; the dtype follows the four realized values, not
    # the 40000 listed ones
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 3, size=(2100, 2100)).astype(np.int32)
    codes[2099, 2099] = 7
    values = tuple(range(40_000))
    got_codes, got_values = _compact(codes, values)
    want_codes, want_values = _unique_oracle(codes, values)
    assert got_values == want_values == (0, 1, 2, 7)
    assert np.array_equal(got_codes, want_codes)
    assert got_codes.dtype == np.int16


def test_compact_dtype_rule_at_32000_values():
    codes = np.arange(180 * 180, dtype=np.int32).reshape(180, 180)
    values = tuple(range(180 * 180))
    out, kept = _compact(codes, values)
    assert out.dtype == np.int32 and len(kept) == 32_400
    out, kept = _compact(codes % 31_999, values)
    assert out.dtype == np.int16 and len(kept) == 31_999
