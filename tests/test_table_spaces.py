"""Spaces that hold only their ball-label table.

Every ultrametric the library builds (word spaces, chain
ultrametrizations, tower bases, subspaces of labelled spaces, products
and hyperspaces) stores its label table and no code matrix.  Its codes
are written on first read; the block fill that wrote them at
construction before is kept here verbatim as the oracle, fed each
builder's own nested partitions.  Distances, diameters and selection
fiber bounds read off the table must equal those of the same space
rebuilt dense, and the fiber bounds those of the gathered-block oracle.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    CapExceeded,
    Caps,
    DEFAULT_CAPS,
    MultiMap,
    Space,
    StageFailure,
    ball,
    ball_tower,
    ball_tower_base_map,
    base_space,
    chain_components,
    check_base_distortion,
    check_entropy_transport,
    coarse_normal_form,
    distortion_modulus,
    entropy_from_degrees,
    entropy_profile,
    hyperspace,
    min_net,
    product,
    regular_tower,
    selection_pair,
    subspace,
    tower_embedding,
    ultrametrize,
    validate_metric_axioms,
    validate_ultrametric,
    verify_asymorphism,
    word_space,
)
from coarsetowers import cli, spaces
from coarsetowers.cli import main
from coarsetowers.serialization import space_from_csv
from coarsetowers.spaces import CLOSED, STRICT, _pick_dtype, _Rows, _Table

from conftest import (
    random_plain_metric,
    random_radii,
    random_tower,
    random_ultrametric,
    shuffled_tower,
)
from oracles import (
    ancestor, argmin_base_map, chain_labels, node_maps, roundtrip_fiber_diameter)


def _block_fill(parts, values):
    """Codes and realized values of nested partitions, finest first, as
    the encoder wrote them at construction: one lexsort gives the
    depth-first order, and each class's code is written over its block,
    coarser first."""
    n = parts[0].size
    order = np.lexsort(parts)
    kept, runs = [], []
    for value, part in zip(values, parts):
        run = part[order]
        new = np.concatenate(([True], run[1:] != run[:-1]))
        starts = np.flatnonzero(new)
        if n and (not runs or starts.size < runs[-1].size):
            kept.append(value)
            runs.append(starts)
    codes = np.full((n, n), max(len(kept) - 1, 0), dtype=_pick_dtype(len(kept)))
    in_order = bool((order == np.arange(n)).all())
    for code in range(len(kept) - 2, 0, -1):
        bounds = runs[code].tolist() + [n]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1 and in_order:
                codes[lo:hi, lo:hi] = code
            elif hi - lo > 1:
                block = order[lo:hi]
                codes[block[:, None], block] = code
    np.fill_diagonal(codes, 0)
    return codes, tuple(kept)


def _word_parts(alphabet_size, length):
    idx = np.arange(alphabet_size ** length)
    parts = [idx % alphabet_size ** (length - k) for k in range(length + 1)]
    return parts, (0,) + tuple(2 ** p for p in range(length))


def _chain_parts(plain, scales):
    parts = [np.arange(len(plain))] + [chain_labels(plain, r) for r in scales]
    return parts, tuple(2 * k for k in range(len(scales) + 1))


def _tower_parts(tower):
    """Each base point's ancestor at every level, by a walk up the parent
    dicts, named by its position in the tower's node tuple."""
    pos = {x: k for k, x in enumerate(node_maps(tower)[0])}
    parts = [np.asarray([pos[ancestor(tower, p, lv)] for p in tower.base])
             for lv in range(1, tower.height + 1)]
    return parts, tuple(2 * lv for lv in range(tower.height))


def _table_spaces(rng):
    """(space, parts, values): table-only spaces with the partitions and
    values their builder encoded."""
    a, length = rng.randint(2, 3), rng.randint(1, 3)
    plain = random_plain_metric(rng, 2, 10)
    positive = sorted(v for v in plain.values if v > 0)
    scales = sorted(set(rng.sample(positive, rng.randint(1, len(positive)))))
    scales = [s for s in scales if s < plain.diameter()] + [plain.diameter()]
    tower = random_tower(rng)
    shuffled = shuffled_tower(rng, tower)
    ultra = random_ultrametric(rng)
    balls = ball_tower(ultra, random_radii(rng, ultra))
    out = [
        (word_space(a, length), *_word_parts(a, length)),
        (ultrametrize(plain, scales), *_chain_parts(plain, scales)),
        (base_space(tower), *_tower_parts(tower)),
        (base_space(shuffled), *_tower_parts(shuffled)),
        (base_space(balls), *_tower_parts(balls)),
    ]
    for space, _, _ in list(out):
        if len(space) < 2:
            continue  # a whole subspace is the space itself
        subset = rng.sample(space.points, rng.randint(1, len(space) - 1))
        sub = space.subindices(subset)
        out.append((subspace(space, subset),
                    [row[sub] for row in space._labels], space.values))
    return out


def _relation(rng, space):
    """A total, surjective relation on the space: the identity plus a few
    random pairs, so that fibers can hold several points."""
    extra = [(rng.choice(space.points), rng.choice(space.points))
             for _ in range(rng.randint(0, len(space)))]
    return tuple((p, p) for p in space.points) + tuple(extra)


def _reads(space, pairs, some):
    """What is read off the space without a matrix: distances among some
    points, the diameter, and the selection pair of a relation on it."""
    dists = [[space.dist(p, q) for q in some] for p in some]
    sel = selection_pair(MultiMap(space, space, pairs))
    return dists, space.diameter(), sel


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_table_spaces_match_the_block_fill_and_their_dense_copy(seed):
    rng = random.Random(seed)
    for space, parts, values in _table_spaces(rng):
        assert space._codes is None and isinstance(space._labels, _Table)
        pairs = _relation(rng, space)
        some = rng.sample(space.points, min(len(space), 12))
        got = _reads(space, pairs, some)
        assert space._codes is None  # nothing above wrote a matrix
        codes, kept = _block_fill(parts, values)
        assert space.values == kept
        assert space.codes.dtype == codes.dtype
        assert np.array_equal(space.codes, codes)
        dense = Space(space.points, codes, kept)
        assert dense.is_ultrametric
        assert got == _reads(dense, pairs, some)
        phi = MultiMap(dense, dense, pairs)
        sel = got[2]
        assert sel.source_fiber_bound == roundtrip_fiber_diameter(phi)
        assert sel.target_fiber_bound == roundtrip_fiber_diameter(phi.inverse())


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=40, deadline=None)
def test_ball_tower_base_map_of_a_table_space_reads_labels(seed, zero_radius):
    rng = random.Random(seed)
    for space, parts, values in _table_spaces(rng):
        if len(space) < 2:
            continue
        radii = random_radii(rng, space)
        bt = ball_tower(space, radii if zero_radius else radii[1:])
        got = ball_tower_base_map(space, bt)
        assert space._codes is None
        dense = Space(space.points, *_block_fill(parts, values))
        assert got == argmin_base_map(dense, bt)


def _label_count_codes(space):
    """Codes by their definition on a label table: the number of label
    rows on which the two points' labels differ."""
    out = 0
    for row in space._labels:
        out = out + (row[:, None] != row[None, :])
    return np.asarray(out)


@pytest.mark.parametrize("depth_first", [True, False])
def test_codes_written_from_the_table_match_the_block_fill(depth_first):
    rng = random.Random(11)
    tower = regular_tower((3, 2, 4)) if depth_first else shuffled_tower(
        rng, regular_tower((3, 2, 4)))
    space = base_space(tower)
    parts, values = _tower_parts(tower)
    order = np.lexsort(space._labels)
    assert bool((order == np.arange(len(space))).all()) == depth_first
    codes, kept = _block_fill(parts, values)
    assert np.array_equal(space.codes, codes)
    assert np.array_equal(space.codes, _label_count_codes(space))


def test_a_whole_subspace_in_id_order_is_the_space_itself():
    space = base_space(random_tower(random.Random(3)))
    assert subspace(space, reversed(space.points)) is space
    assert space._codes is None


def test_word_space_of_15625_points_builds_at_the_default_cap():
    words = word_space(5, 6)
    assert len(words) == 15625 and words._codes is None
    assert words.diameter() == 32
    assert words.dist("000000", "000001") == 32
    assert words.dist("000000", "400000") == 1


@pytest.mark.parametrize("dense", [False, True])
def test_a_relation_graph_over_the_cap_is_refused(dense):
    space = word_space(3, 2)
    if dense:
        space = Space(space.points, space.codes, space.values)
        assert space.is_ultrametric
    phi = MultiMap.identity(space)
    at_cap, below = Caps(max_points=len(space)), Caps(max_points=len(space) - 1)
    distortion_modulus(phi, at_cap)
    assert verify_asymorphism(phi, expect_isometry=True, caps=at_cap).kind == "isometry"
    with pytest.raises(CapExceeded, match="relation graph has 9 points"):
        distortion_modulus(phi, below)
    with pytest.raises(CapExceeded, match="relation graph has 9 points"):
        verify_asymorphism(phi, expect_isometry=True, caps=below)


def test_caps_bound_points_only(monkeypatch):
    assert not hasattr(DEFAULT_CAPS, "max_pair_evals")
    seen = []

    def capture(tower, target_base, caps):
        seen.append(caps)
        raise StageFailure("captured")

    monkeypatch.setattr(cli, "equivalence_pipeline", capture)
    assert main(["equiv", "--from", "regular:3", "--height", "4",
                 "--cap", "40000"]) == 1
    assert seen == [Caps(max_points=40000)]


# -- no matrix is written --------------------------------------------------------


@pytest.fixture
def no_matrix_writes(monkeypatch):
    """Space.codes fails wherever it would write a matrix from a table."""
    write = Space.codes.fget

    def guarded(space):
        if space._codes is None:
            raise AssertionError(f"a {len(space)}-point code matrix was written")
        return write(space)

    monkeypatch.setattr(Space, "codes", property(guarded))


def test_equiv_writes_no_code_matrix(no_matrix_writes, capsys):
    assert main(["equiv", "--from", "regular:3", "--height", "7",
                 "--to", "binary"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("degrees", [(), (3, 3, 3), (2, 5), (4, 2, 3)])
def test_census_tower_check_writes_no_code_matrix(degrees, no_matrix_writes):
    tower = regular_tower(degrees)
    base = base_space(tower)
    radii = [2 * i for i in range(tower.height)]
    profile = entropy_profile(base, radii, radii, CLOSED)
    for i in range(tower.height):
        for j in range(i, tower.height):
            assert profile.entries[(2 * i, 2 * j)] == entropy_from_degrees(tower, i, j)


def test_coarse_normal_form_writes_no_code_matrix(no_matrix_writes):
    base = base_space(regular_tower((3, 3, 3)))
    f = {p: p[:-1] + "0" for p in base.points}  # each sibling set onto its first
    nf = coarse_normal_form(base, base, f, {p: p for p in base.points})
    assert (nf.r_bound, nf.x_cover, nf.y_cover) == (2, 2, 2)
    assert len(nf.x_prime) == len(nf.y_prime) == 9


def test_embed_writes_no_code_matrix(no_matrix_writes):
    _, cert = tower_embedding(regular_tower((2, 2)), regular_tower((3, 3)))
    assert cert.kind == "embedding"
    assert all(c.passed for c in cert.checks if c.axiom == "distance-preserving")


def test_failed_bound_witness_scans_write_no_code_matrix(no_matrix_writes):
    # reversing the letters of binary words breaks every bound, so the pair
    # scans that name the witnesses run, over label rows only
    words = word_space(2, 4)
    phi = MultiMap.from_function(words, words, {p: p[::-1] for p in words.points})
    report = check_base_distortion(phi)
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("base-contraction", ("0000", "0100")),
        ("base-expansion-plus-2", ("0000", "0001"))]
    cert = verify_asymorphism(phi, expect_isometry=True)
    check = next(c for c in cert.checks if c.axiom == "distance-preserving")
    assert not check.passed
    assert check.witness == ("0000", "0001", "0000", "1000")
    assert words._codes is None


def test_balls_and_entropy_transport_read_the_table():
    words = word_space(3, 4)
    assert ball(words, "0000", 2) == tuple(
        p for p in words.points if words.dist("0000", p) <= 2)
    assert words._codes is None
    small = word_space(3, 3)
    phi = MultiMap.identity(small)
    assert check_entropy_transport(phi, verify_asymorphism(phi)).ok
    assert small._codes is None


@given(st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_ball_off_the_table_matches_the_codes(seed):
    space = random_ultrametric(random.Random(seed))
    # a listed, unrealized value below 0 is dropped, and the codes shift
    # back down
    shifted = Space(space.points, space.codes + 1, (-1,) + space.values)
    for space in (space, shifted):
        assert space.is_ultrametric  # validation installs the table
        diam = space.diameter()
        radii = [-2, -1, Fraction(-1, 2), diam + 1] + list(space.values) + [
            Fraction(a + b, 2) for a, b in zip(space.values, space.values[1:])]
        for center in space.points:
            row = space.codes[space.index(center)]
            for r in radii:
                t = space.threshold_code(r, CLOSED)
                want = tuple(p for p, c in zip(space.points, row.tolist()) if c <= t)
                assert ball(space, center, r) == want


def test_label_rows_below_the_diagonal_name_no_ball():
    # the value -1 is listed but unrealized, so the space drops it: a
    # negative radius holds no point and no net
    s = Space(("a", "b"), np.array([[1, 2], [2, 1]]), (-1, 0, 1))
    assert s.is_ultrametric
    for r in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2):
        t = s.threshold_code(r, CLOSED)
        for x in s.points:
            row = s.codes[s.index(x)].tolist()
            assert ball(s, x, r) == tuple(
                p for p, c in zip(s.points, row) if c <= t)
    assert ball(s, "a", Fraction(-1, 2)) == ()
    for radius, convention in [(Fraction(-1, 2), CLOSED), (0, STRICT)]:
        with pytest.raises(ValueError, match="no admissible net"):
            min_net(s, None, radius, convention)
        with pytest.raises(ValueError, match="no net exists"):
            entropy_profile(s, [radius], [0, 1], convention)
    assert min_net(s, None, 0, CLOSED) == ("a", "b")
    assert entropy_profile(s, [0], [0, 1], CLOSED).entries == {
        (0, 0): (1, 1), (0, 1): (2, 2)}


def test_user_spaces_still_need_a_code_matrix():
    with pytest.raises(ValueError, match="codes shape"):
        Space(("a", "b"), None, (0, 1))


def test_validating_a_word_space_writes_no_code_matrix(no_matrix_writes):
    words = word_space(3, 8)
    for strong in (True, False):
        assert validate_metric_axioms(words, strong).ok


def test_chain_components_of_a_table_space_write_no_code_matrix(no_matrix_writes):
    words = word_space(3, 8)
    assert len(chain_components(words, -1)) == len(words)
    assert len(chain_components(words, 0)) == len(words)
    assert len(chain_components(words, 8)) == 3 ** 4  # the last four letters agree
    assert chain_components(words, 128) == (words.points,)


def test_csv_ingest_writes_no_code_matrix_past_the_load(no_matrix_writes):
    # the load holds its matrix; ultrametrize reads it, and everything from
    # there to the ball tower's base map reads the label table only
    rng = random.Random(8)
    pts = [(rng.randrange(400), rng.randrange(400)) for _ in range(60)]
    ids = [f"p{i:02d}" for i in range(len(pts))]
    rows = [",".join([i] + [str(abs(a - c) + abs(b - d)) for c, d in pts])
            for i, (a, b) in zip(ids, pts)]
    plain = space_from_csv("\n".join(["id," + ",".join(ids)] + rows) + "\n")
    top = plain.diameter()
    ultra = ultrametrize(plain, [Fraction(top, 2 ** k) for k in range(5, -1, -1)])
    assert validate_ultrametric(ultra).ok
    radii = list(ultra.values)
    assert entropy_profile(ultra, radii[:-1], radii[1:], CLOSED).check_monotone().ok
    tower = ball_tower(ultra, radii)
    assert set(ball_tower_base_map(ultra, tower).values()) == set(tower.base)
    assert ultra._codes is None


def test_sparse_product_experiment_writes_no_code_matrix(no_matrix_writes, capsys):
    assert main(["experiment", "product-with-sparse-sequence"]) == 0
    assert capsys.readouterr().out


# -- the validator reads the table ---------------------------------------------


def _builder_outputs(rng):
    """Table-only spaces from every builder that encodes nested balls."""
    out = [space for space, _, _ in _table_spaces(rng)]
    left = word_space(rng.randint(2, 3), rng.randint(1, 2))
    out.append(product(left, base_space(random_tower(rng, 2, 3, 3))))
    out.append(hyperspace(word_space(2, rng.randint(1, 3)), rng.randint(1, 3)))
    return out


@given(st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_table_verdict_matches_the_matrix_scan(seed):
    for space in _builder_outputs(random.Random(seed)):
        assert space._codes is None and isinstance(space._labels, _Table)
        strong = validate_metric_axioms(space, strong=True)
        plain = validate_metric_axioms(space, strong=False)
        assert space._codes is None
        dense = Space(space.points, space.codes, space.values)
        assert strong.to_json() == validate_metric_axioms(dense).to_json()
        # the scan installs the builder's own table
        assert len(dense._labels) == len(space._labels)
        for got, want in zip(dense._labels, space._labels):
            assert np.array_equal(got, want)
        if len(space) <= 20:  # the plain triangle is a Python triple loop
            assert plain.to_json() == validate_metric_axioms(dense, strong=False).to_json()


def test_a_table_space_whose_codes_were_read_is_judged_off_its_table(monkeypatch):
    # a tracer reads .codes; the verdict and its cost stay the table's
    words = word_space(3, 6)
    assert words.codes.shape == (729, 729)

    def no_matrix_check(*args):
        raise AssertionError("the code matrix was checked")

    monkeypatch.setattr(spaces, "_upper_pair_defects", no_matrix_check)
    assert validate_ultrametric(words).ok


def _corrupt(rows):
    """word_space(2, 3) with its label rows replaced."""
    words = word_space(2, 3)
    words._labels = _Rows(np.asarray(r, dtype=np.int64) for r in rows)
    return words


# word_space(2, 3) has the rows 0..7, i mod 4, i mod 2 and all zero
_ROWS = [list(range(8)), [0, 1, 2, 3] * 2, [0, 1] * 4, [0] * 8]


@pytest.mark.parametrize("rows, message", [
    ([_ROWS[0], _ROWS[1], [0, 0, 2, 2, 4, 4, 6, 6], _ROWS[3]],
     "row 2 splits a ball of row 1"),
    ([_ROWS[1], _ROWS[1], _ROWS[2], _ROWS[3]],
     "row 0 does not name every point apart"),
    ([_ROWS[0], _ROWS[1], _ROWS[2], _ROWS[2]], "row 3, the top, is not one ball"),
    ([_ROWS[0], [4, 5, 6, 7] * 2, _ROWS[2], _ROWS[3]],
     "row 1 does not name each ball by its least member"),
    ([_ROWS[0], [0, 1, 2, 3, 0, 1, 2, 9], _ROWS[2], _ROWS[3]],
     "row 1 does not name each ball by its least member"),
    (_ROWS[:3], "has 3 rows for 4 values"),
])
def test_a_broken_table_raises_naming_its_row(rows, message):
    assert validate_ultrametric(_corrupt(_ROWS)).ok
    for strong in (True, False):
        with pytest.raises(ValueError, match=message):
            validate_metric_axioms(_corrupt(rows), strong)


def test_a_table_not_at_distance_zero_raises():
    words = word_space(2, 2)
    words.values = (1, 2, 3)
    with pytest.raises(ValueError, match="row 0 is not at distance 0"):
        validate_ultrametric(words)
