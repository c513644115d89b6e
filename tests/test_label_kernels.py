"""Ball-label kernels against the dense scans they replaced.

A space is ultrametric exactly when it holds its ball-label table, and
the certificate kernels read that table: distortion moduli (and with
them base-distortion verdicts, round-trip fiber bounds and the isometry
check), products, hyperspaces and entropy tables.  The dense kernels they
replaced, which read code matrices pair by pair, are kept in oracles.py
and serve as the reference here; so is the modulus by a pointer walk
over the label rows, which also reaches the graphs of an equiv run.
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
    ball_tower_base_map,
    base_space,
    build_admissible_morphism,
    check_base_distortion,
    distortion_modulus,
    hyperspace,
    product,
    regular_tower,
    selection_pair,
    subspace,
    ultrametrize,
    validate_ultrametric,
    verify_asymorphism,
    word_space,
)
from coarsetowers import morphisms
from coarsetowers.cli import main
from coarsetowers.limits import CapExceeded, Caps
from coarsetowers.spaces import _compact, _pick_dtype

from conftest import random_plain_metric, random_radii, random_ultrametric
from oracles import (
    argmin_base_map,
    base_distortion_scan,
    block_scan_modulus,
    class_labels,
    dense_hyperspace,
    dense_product,
    isometric_witness,
    pointer_walk_modulus,
    roundtrip_fiber_diameter,
    sorted_first_pair_at,
)

SPACE_KINDS = ["rational", "ball-tower", "subspace", "word", "unrealized"]


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
        assert space.is_ultrametric  # installs the table the kernels read
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
    spread = _spread(_random_space(rng, rng.choice(["rational", "ball-tower"])))
    assert spread.is_ultrametric
    return spread


def _spread(space: Space, below: int = 1) -> Space:
    """The same distances given to Space(...) on a value table that also
    lists values below, between and above the realized ones, which the
    constructor drops (not yet validated)."""
    values = list(range(-below, 0))
    for v in space.values:
        values += [v, v + Fraction(1, 7)]
    return Space(space.points, 2 * space.codes.astype(np.int64) + below, values)


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
    assert src.is_ultrametric and tgt.is_ultrametric
    for rel in (phi, phi.inverse()):
        got, want = distortion_modulus(rel), block_scan_modulus(rel)
        assert got.table == want.table
        assert got.witnesses == want.witnesses
        walked = pointer_walk_modulus(rel)
        assert (walked.table, walked.witnesses) == (want.table, want.witnesses)


@pytest.mark.parametrize("argv", [["--from", "regular:3", "--height", "9"],
                                  ["--from", "regular:3,4,2,5,3"]])
def test_equiv_moduli_match_the_pointer_walk(monkeypatch, capsys, argv):
    # every modulus of an equiv run, on graphs of up to 6561 points, where
    # the dense block scan is too slow
    calls = []
    modulus = morphisms.distortion_modulus

    def recorded(phi, *args, **kwargs):
        calls.append((phi, modulus(phi, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(morphisms, "distortion_modulus", recorded)
    assert main(["equiv", *argv]) == 0
    capsys.readouterr()
    assert len(calls) == 10  # four stages and the composite, both ways
    for phi, got in calls:
        want = pointer_walk_modulus(phi)
        assert got.table == want.table
        assert got.witnesses == want.witnesses


def test_modulus_reads_no_label_row_per_code(monkeypatch):
    # a constant map from 13 source codes onto one point rises once: the
    # modulus reads ball_labels for that witness only, so a walk over the
    # source codes one row at a time would show here
    src, one = word_space(2, 12), Space.from_matrix(["y"], [[0]])
    phi = MultiMap.from_function(src, one, lambda p: "y")
    assert len(src.values) == 13 and one.is_ultrametric  # validated before counting
    reads = []
    ball_labels = Space.ball_labels

    def counted(space, tcode, idx=None):
        reads.append(tcode)
        return ball_labels(space, tcode, idx)

    monkeypatch.setattr(Space, "ball_labels", counted)
    assert len(distortion_modulus(phi).table) == 13
    assert len(reads) <= 3


def _labels(rng: random.Random, keys: np.ndarray) -> np.ndarray:
    """keys relabeled by a random injection into 0..2 * #keys."""
    distinct = np.unique(keys)
    image = np.asarray(rng.sample(range(2 * distinct.size + 1), distinct.size))
    return image[np.searchsorted(distinct, keys)]


@given(st.integers(0, 2 ** 32), st.integers(1, 40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_witness_pair_matches_the_sorting_oracle(seed, n, below):
    # inputs as _label_modulus passes them, T constant on every S-class
    # and T_below refining T: S and T_below each cut the T-classes into
    # parts, independently of each other
    rng = random.Random(seed)
    t, s_part, b_part = (np.asarray([rng.randrange(k) for _ in range(n)])
                         for k in (rng.randint(1, 4) for _ in range(3)))
    S, T = _labels(rng, t * 4 + s_part), _labels(rng, t)
    T_below = _labels(rng, t * 4 + b_part) if below else None
    assert morphisms._first_pair_at(S, T, T_below) == sorted_first_pair_at(S, T, T_below)


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS + ["same"]),
       st.sampled_from(["identity", "function", "multi", "partial", "onto"]))
@settings(max_examples=100, deadline=None)
def test_isometry_check_names_the_scan_witness(seed, src_kind, tgt_kind, shape):
    # the moduli decide distance preservation; a failure names the pair the
    # scan of every pair names first
    rng = random.Random(seed)
    src = _random_space(rng, src_kind)
    tgt = src if tgt_kind == "same" else _random_space(rng, tgt_kind)
    if shape == "identity":
        tgt, pairs = src, tuple((p, p) for p in src.points)
    else:
        pairs = _random_pairs(rng, src, tgt, shape)
    phi = MultiMap(src, tgt, pairs)
    cert = verify_asymorphism(phi, expect_isometry=True)
    check = next(c for c in cert.checks if c.axiom == "distance-preserving")
    want = isometric_witness(phi)
    assert check.passed == (want is None)
    assert check.witness == (want or ())
    assert (cert.kind == "isometry") == (want is None and phi.is_bijection)


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS + ["same"]))
@settings(max_examples=100, deadline=None)
def test_fiber_bounds_match_gathered_blocks(seed, src_kind, tgt_kind):
    # spaces with unrealized values included: the least code at which every
    # round-trip fiber lies in one ball is the largest code in its block
    rng = random.Random(seed)
    src = _random_space(rng, src_kind)
    tgt = src if tgt_kind == "same" else _random_space(rng, tgt_kind)
    phi = MultiMap(src, tgt, _random_pairs(rng, src, tgt, "onto"))
    sel = selection_pair(phi)
    assert sel.source_fiber_bound == roundtrip_fiber_diameter(phi)
    assert sel.target_fiber_bound == roundtrip_fiber_diameter(phi.inverse())
    # the bounds are the certificate's diagonal rows, given or computed
    assert sel == selection_pair(phi, verify_asymorphism(phi))


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ball_tower_base_map_takes_the_nearest_representative(seed, kind, zero_radius):
    # the deeper spread lists two unrealized values below 0
    rng = random.Random(seed)
    space = _random_space(rng, kind)
    if len(space) < 2:
        return  # random_radii needs a positive diameter
    radii = random_radii(rng, space)
    bt = ball_tower(space, radii if zero_radius else radii[1:])
    cases = [space] if kind == "unrealized" else [space, _spread(space, below=2)]
    for case in cases:
        assert ball_tower_base_map(case, bt) == argmin_base_map(case, bt)


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
    got, want = check_base_distortion(phi), base_distortion_scan(phi)
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
    roots = t1._ids[1]  # the level-2 nodes
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
    table = base._labels
    for t in range(len(base.values)):
        row = base.ball_labels(t)
        assert np.array_equal(row, class_labels(base.codes, t))
        assert np.array_equal(base.ball_labels(t), row)
        assert base._labels is table  # built once, then kept
    with pytest.raises(ValueError):
        base.ball_labels(len(base.values))
    with pytest.raises(ValueError):
        base.ball_labels(-1)


@given(st.integers(0, 2 ** 32), st.sampled_from(["rational", "unrealized", "shuffled"]))
@settings(max_examples=60, deadline=None)
def test_a_passing_validation_installs_the_class_label_table(seed, kind):
    rng = random.Random(seed)
    space = _factor(rng, kind)
    assert space._labels is None
    assert validate_ultrametric(space).ok
    assert len(space._labels) == len(space.values)
    for t in range(len(space.values)):
        assert np.array_equal(space.ball_labels(t), class_labels(space.codes, t))


def test_plain_metrics_are_refused_by_the_label_kernels():
    plain = Space.from_matrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    words = word_space(2, 2)
    with pytest.raises(ValueError, match="ultrametric"):
        plain.ball_labels(0)
    assert not plain.is_ultrametric and plain._labels is False
    for build in (lambda: product(plain, words), lambda: product(words, plain),
                  lambda: hyperspace(plain, 2)):
        with pytest.raises(ValueError, match="ultrametric"):
            build()
    cert = verify_asymorphism(MultiMap.identity(words))
    to_words = MultiMap.from_function(plain, words, dict(zip(plain.points, words.points)))
    for phi in (MultiMap.identity(plain), to_words, to_words.inverse()):
        for kernel in (distortion_modulus, verify_asymorphism, selection_pair,
                       check_base_distortion, lambda phi: selection_pair(phi, cert)):
            with pytest.raises(ValueError, match="ultrametric"):
                kernel(phi)


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
                     space.codes[::-1, ::-1], space.values)
    assert shuffled.is_ultrametric
    again = subspace(shuffled, shuffled.points)
    assert again.points == space.points
    assert np.array_equal(again.codes, space.codes)


# -- products and hyperspaces ----------------------------------------------------

FACTOR_KINDS = ["rational", "word", "point", "unrealized", "shuffled"]


def _factor(rng: random.Random, kind: str) -> Space:
    """A small ultrametric not yet validated (word spaces are born with
    their table): random rationals, a word space, one point, unrealized
    values, or points listed out of id order."""
    if kind == "point":
        return Space.from_matrix(["p"], [[0]])
    if kind == "word":
        return word_space(rng.randint(2, 3), rng.randint(1, 2))
    space = random_ultrametric(rng, 2, 8)
    if kind == "unrealized":
        return _spread(space)
    if kind == "shuffled":
        order = rng.sample(space.points, len(space))
        return Space.from_matrix(
            order, [[space.dist(p, q) for q in order] for p in order])
    return space


def _assert_matches_dense(got: Space, dense: Space) -> None:
    """The label build holds only its table and equals the dense build,
    whose unrealized values (listed by a spread factor) are dropped."""
    assert got._codes is None and isinstance(got._labels, list)
    codes, values = _compact(dense.codes, dense.values)
    assert got.points == dense.points
    assert got.values == values
    assert got.codes.dtype == codes.dtype
    assert np.array_equal(got.codes, codes)


@given(st.integers(0, 2 ** 32), st.sampled_from(FACTOR_KINDS),
       st.sampled_from(FACTOR_KINDS))
@settings(max_examples=100, deadline=None)
def test_product_matches_the_dense_product(seed, x_kind, y_kind):
    rng = random.Random(seed)
    x, y = _factor(rng, x_kind), _factor(rng, y_kind)
    _assert_matches_dense(product(x, y), dense_product(x, y))


@given(st.integers(0, 2 ** 32), st.sampled_from(FACTOR_KINDS), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_hyperspace_matches_the_dense_hyperspace(seed, kind, max_size):
    rng = random.Random(seed)
    space = _factor(rng, kind)
    _assert_matches_dense(hyperspace(space, max_size), dense_hyperspace(space, max_size))


# -- realized values -----------------------------------------------------------


def _assert_lists_realized_values(space: Space) -> None:
    """Every listed code occurs in the matrix, the diagonal is code 0, and
    a validated space's label row 0 names every point apart."""
    n, codes = len(space), space.codes
    assert np.array_equal(np.unique(codes), np.arange(len(space.values)))
    assert (np.diagonal(codes) == 0).all()
    assert space.is_ultrametric
    assert np.array_equal(space.ball_labels(0), np.arange(n))


@given(st.integers(0, 2 ** 32),
       st.sampled_from([(_random_space, kind) for kind in SPACE_KINDS] +
                       [(_factor, kind) for kind in FACTOR_KINDS]))
@settings(max_examples=100, deadline=None)
def test_every_space_lists_only_realized_values(seed, build):
    rng = random.Random(seed)
    space = build[0](rng, build[1])
    _assert_lists_realized_values(space)
    _assert_lists_realized_values(_spread(space, below=rng.randint(0, 2)))


@given(st.integers(0, 2 ** 32), st.integers(0, 6), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_space_encodes_codes_as_from_matrix_does(seed, n, nvalues):
    # a listed value no pair realizes is dropped and the codes renumbered
    rng = np.random.default_rng(seed)
    values = sorted({Fraction(int(a), int(b)) for a, b in zip(
        rng.integers(-50, 50, nvalues), rng.integers(1, 6, nvalues))})
    codes = rng.integers(0, len(values), size=(n, n))
    points = [f"p{i}" for i in range(n)]
    got = Space(points, codes, values)
    want = Space.from_matrix(
        points, [[values[c] for c in row] for row in codes.tolist()])
    assert got.points == want.points
    assert got.values == want.values
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.codes, want.codes)


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
