"""Ultrametric space layer: constructors, validators, balls, nets, entropy,
products, hyperspaces, and the chain-component ultrametrization."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    CapExceeded,
    Caps,
    Space,
    ball,
    ball_tower,
    base_space,
    chain_components,
    entropy_profile,
    hyperspace,
    is_large,
    min_net,
    product,
    regular_tower,
    subspace,
    ultrametrize,
    validate_metric_axioms,
    validate_ultrametric,
    word_id,
    word_space,
)
from coarsetowers import spaces
from coarsetowers.rationals import as_rational, canon, rat_parse, rat_str
from coarsetowers.spaces import _TILE, _strong_triangle, _upper_pair_defects

from conftest import (
    brute_entropy,
    brute_min_net_size,
    oracle_path_metric,
    random_plain_metric,
    random_radii,
    random_tower,
    random_ultrametric,
    shuffled_tower,
    triple_violations,
)
from oracles import chain_labels, class_labels, threshold_scan


# -- word spaces ---------------------------------------------------------------


def test_word_space_examples():
    w = word_space(2, 3)
    assert w.points == ("000", "001", "010", "011", "100", "101", "110", "111")
    assert w.dist("000", "100") == 1
    assert w.dist("000", "001") == 4
    assert w.dist("011", "010") == 4
    assert w.dist("101", "101") == 0
    assert w.values == (0, 1, 2, 4)
    assert w.diameter() == 4


def test_word_space_ternary():
    w = word_space(3, 2)
    assert len(w.points) == 9
    assert w.dist("02", "01") == 2
    assert w.dist("02", "12") == 1


def test_word_id_separator_depends_on_alphabet():
    assert word_id([0, 2, 1], 3) == "021"
    assert word_id([0, 2, 1], 12) == "0.2.1"
    for a, length in [(2, 3), (3, 2), (10, 2), (11, 2), (12, 2)]:
        assert word_space(a, length).points == tuple(
            word_id(w, a) for w in itertools.product(range(a), repeat=length))


def test_word_space_validates_as_ultrametric():
    for a, L in [(2, 4), (3, 3), (5, 2)]:
        assert validate_ultrametric(word_space(a, L)).ok


def test_word_space_respects_point_cap():
    with pytest.raises(CapExceeded):
        word_space(2, 6, caps=Caps(max_points=50))


@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_word_metric_formula(alphabet, data):
    length = data.draw(st.integers(1, 4))
    x = data.draw(st.lists(st.integers(0, alphabet - 1),
                           min_size=length, max_size=length))
    y = data.draw(st.lists(st.integers(0, alphabet - 1),
                           min_size=length, max_size=length))
    w = word_space(alphabet, length)
    expected = max(
        (2 ** n for n in range(length) if x[n] != y[n]), default=0)
    assert w.dist(word_id(x, alphabet), word_id(y, alphabet)) == expected


# -- validators ----------------------------------------------------------------


def test_validator_passes_random_ultrametrics():
    rng = random.Random(100)
    for _ in range(20):
        sp = random_ultrametric(rng)
        rep = validate_ultrametric(sp)
        assert rep.ok, rep.violations


def test_validator_flags_strong_triangle_failure():
    # a path metric on 3 points: triangle holds, strong triangle fails
    sp = Space.from_matrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    rep = validate_metric_axioms(sp, strong=True)
    assert not rep.ok
    rules = {v.rule for v in rep.violations}
    assert "strong-triangle" in rules
    assert validate_metric_axioms(sp, strong=False).ok


def test_validator_flags_asymmetry_and_diagonal():
    bad = Space.from_matrix(["a", "b"], [[0, 1], [2, 0]])
    rep = validate_metric_axioms(bad)
    assert any(v.rule == "symmetry" for v in rep.violations)
    bad2 = Space.from_matrix(["a", "b"], [[1, 1], [1, 0]])
    rep2 = validate_metric_axioms(bad2)
    assert any(v.rule == "diagonal-zero" for v in rep2.violations)
    flat = Space.from_matrix(["a", "b"], [[0, 0], [0, 0]])
    rep3 = validate_metric_axioms(flat)
    assert any(v.rule == "positivity" for v in rep3.violations)


def test_positivity_is_judged_by_value():
    # the smallest value is -1, so code 0 is not distance 0: the negative
    # pair and the genuine zero pair must both be reported, by value
    sp = Space.from_matrix(
        ["a", "b", "c"], [[0, -1, 3], [-1, 0, 0], [3, 0, 0]])
    found = {v.witness: v.message for v in validate_metric_axioms(sp).violations
             if v.rule == "positivity"}
    assert found == {("a", "b"): "distinct points at distance -1",
                     ("b", "c"): "distinct points at distance 0"}


def test_validator_matches_pure_python_triple_scan():
    rng = random.Random(7)
    for _ in range(25):
        sp = random_plain_metric(rng)
        rep = validate_metric_axioms(sp, strong=True)
        expected = triple_violations(sp)
        assert rep.ok == (not expected)


def test_threshold_scan_agrees_with_triple_loop():
    # the scan, the validator's oracle, judges exactly like the exhaustive loop
    rng = random.Random(11)
    for trial in range(30):
        base = random_ultrametric(rng)
        n = len(base.points)
        mat = [[base.dist(x, y) for y in base.points] for x in base.points]
        if trial % 2 and n >= 3:
            # perturb one off-diagonal pair to provoke failures
            i, j = rng.sample(range(n), 2)
            mat[i][j] = mat[j][i] = max(base.values) * 2
        sp = Space.from_matrix([f"q{i}" for i in range(n)], mat)
        fast, truncated = threshold_scan(sp)
        slow = triple_violations(sp)
        assert not truncated
        assert bool(fast) == bool(slow)
        for v in fast:
            x, y, z = v.witness
            assert sp.dist(x, y) > max(sp.dist(x, z), sp.dist(z, y))


def _merge_tree_matrix(rng, n, tied):
    """Distances of n points under a random merge tree: each merge joins two
    clusters at a height above the last, or, when tied, often equal to it."""
    d = [[0] * n for _ in range(n)]
    clusters, height = [[i] for i in range(n)], 0
    while len(clusters) > 1:
        a, b = rng.sample(range(len(clusters)), 2)
        height += rng.choice((0, 0, 1)) if tied and height else rng.randint(1, 3)
        for x in clusters[a]:
            for y in clusters[b]:
                d[x][y] = d[y][x] = height
        clusters[a].extend(clusters[b])
        del clusters[b]
    return d


@given(st.integers(0, 2 ** 32), st.integers(0, 12),
       st.sampled_from(["ultra", "tied", "perturbed", "plain"]))
@settings(max_examples=320, deadline=None)
def test_spanning_tree_check_against_the_scan_and_triples(seed, n, kind):
    # the verdict and checked rules are the triple oracle's and the scan's,
    # every listed triple breaks the strong triangle, and a passing matrix
    # installs the scan's class-label table
    rng = random.Random(seed)
    if kind == "plain":
        sp = random_plain_metric(rng, n, n)
    else:
        d = _merge_tree_matrix(rng, n, kind == "tied")
        if kind == "perturbed" and n >= 2:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                d[i][j] = d[j][i] = rng.randint(1, max(map(max, d)) + 1)
        sp = Space.from_matrix([f"q{i}" for i in range(n)], d)
    ref = Space(sp.points, sp.codes, sp.values)  # the oracles' own copy
    report = validate_ultrametric(sp)
    triples = triple_violations(ref)
    scanned, cut = threshold_scan(ref)
    assert report.checked == ("diagonal-zero", "positivity", "symmetry", "strong-triangle")
    assert not cut and report.ok == (not triples) == (not scanned)
    for v in report.violations:
        x, y, z = v.witness
        assert ref.index(x) < ref.index(y)
        assert ref.dist(x, y) > max(ref.dist(x, z), ref.dist(z, y))
    if report.ok:
        assert len(sp._labels) == len(ref.values)
        for t, row in enumerate(sp._labels):
            assert np.array_equal(row, class_labels(ref.codes, t))


def _least_members(flat) -> np.ndarray:
    """Each point's least fellow member under flat cluster numbers."""
    first: dict = {}
    return np.asarray([first.setdefault(c, i) for i, c in enumerate(flat.tolist())])


@pytest.mark.parametrize("kind", ["ultra", "plain"])
def test_single_linkage_matches_scipy(kind):
    # chain components (by the spanning tree, before any table exists) and
    # the table a passing validation installs are the cuts of scipy's
    # single-linkage dendrogram of the codes at every code
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = random.Random(5)
    for _ in range(40):
        sp = random_ultrametric(rng, 2) if kind == "ultra" else \
            random_plain_metric(rng, 2, 16)
        tree = hierarchy.linkage(
            distance.squareform(sp.codes.astype(float)), method="single")
        cuts = [_least_members(hierarchy.fcluster(tree, t, criterion="distance"))
                for t in range(len(sp.values))]
        for t, labels in enumerate(cuts):
            groups: dict = {}
            for p, label in zip(sp.points, labels.tolist()):
                groups.setdefault(label, []).append(p)
            assert chain_components(sp, sp.values[t]) == tuple(map(tuple, groups.values()))
        if validate_ultrametric(sp).ok:
            assert all(np.array_equal(row, labels)
                       for row, labels in zip(sp._labels, cuts, strict=True))


@given(st.integers(0, 2 ** 32), st.sampled_from(["plain", "ultra", "perturbed"]))
@settings(max_examples=80, deadline=None)
def test_validator_differential_against_triple_oracle(seed, kind):
    # one strong-triangle path for every size: the verdict is the oracle's,
    # and every reported triple is a genuine violation
    rng = random.Random(seed)
    if kind == "plain":
        sp = random_plain_metric(rng, n_min=2, n_max=24)
    else:
        sp = random_ultrametric(rng, n_min=2, n_max=24)
        if kind == "perturbed":
            n = len(sp.points)
            mat = [[sp.dist(x, y) for y in sp.points] for x in sp.points]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                mat[i][j] = mat[j][i] = rng.choice(
                    [v for v in sp.values if v > 0] + [max(sp.values) * 2])
            sp = Space.from_matrix(sp.points, mat)
    rep = validate_metric_axioms(sp, strong=True)
    assert "strong-triangle" in rep.checked
    assert rep.ok == (not triple_violations(sp))
    for v in rep.violations:
        assert v.rule == "strong-triangle"
        x, y, z = v.witness
        assert sp.dist(x, y) > max(sp.dist(x, z), sp.dist(z, y))


@pytest.mark.parametrize("matrix, rule", [
    ([[0, 1, 2], [1, 0, 1], [1, 1, 0]], "symmetry"),
    ([[1, 1, 2], [1, 0, 1], [2, 1, 0]], "diagonal-zero"),
    ([[0, 0, 2], [0, 0, 1], [2, 1, 0]], "positivity"),
    ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], "positivity"),
])
def test_malformed_input_leaves_strong_triangle_unjudged(matrix, rule):
    # each matrix also breaks the strong triangle (d(a,c) = 2 > max(1, 1)),
    # but the per-threshold reduction is unsound without the pre-checks
    sp = Space.from_matrix(["a", "b", "c"], matrix)
    rep = validate_metric_axioms(sp, strong=True)
    assert "strong-triangle" not in rep.checked
    assert {v.rule for v in rep.violations} == {rule}
    assert not validate_ultrametric(sp).ok
    assert "triangle" in validate_metric_axioms(sp, strong=False).checked


def _full_mask_pairs(C, positive):
    """Symmetry and positivity witnesses as whole-matrix masks find them:
    argwhere over C != C.T and over C < positive, off the diagonal, i < j,
    in row-major order."""
    def upper(mask):
        np.fill_diagonal(mask, False)
        return [(int(i), int(j)) for i, j in np.argwhere(mask) if i < j]
    return upper(C != C.T), upper(C < positive)


@given(st.one_of(st.integers(1, 40), st.integers(500, 1200)),
       st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_tiled_pair_checks_report_like_the_full_masks(n, seed):
    # a symmetric positive matrix with cells planted at random and where
    # the tile edges cross, on both sides of the diagonal; codes 0 and 1
    # carry nonpositive values
    rng = random.Random(seed)
    values = (-1, 0, 1, 2, 3)
    C = np.full((n, n), 4, dtype=np.int16)
    np.fill_diagonal(C, 1)
    edges = [k + d for k in range(_TILE, n, _TILE) for d in (-1, 0)]
    cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 60))]
    cells += [(i, j) for i in edges for j in edges + [rng.randrange(n)]]
    cells += [(rng.randrange(n), j) for j in edges]
    for i, j in cells:
        if i != j:
            C[i, j] = rng.randrange(len(values))
            if rng.random() < 0.5:
                C[j, i] = C[i, j]
    assert _upper_pair_defects(C, 2) == _full_mask_pairs(C, 2)
    points = [f"x{i:04d}" for i in range(n)]
    report = validate_metric_axioms(Space(points, C, values))
    asym, nonpos = _full_mask_pairs(C, 2)
    for rule, pairs in (("symmetry", asym), ("positivity", nonpos)):
        assert [v.witness for v in report.violations if v.rule == rule] == [
            (points[i], points[j]) for i, j in pairs]


def _traced_validation(space):
    tracemalloc.start()
    try:
        report = validate_ultrametric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_validating_a_word_space_builds_no_square_mask():
    # the tiles and the spanning-tree check on a held matrix: an n x n
    # boolean (43 MB on these 6561 points) would break the bound
    words = word_space(3, 8)
    held = Space(words.points, words.codes, words.values)
    report, peak = _traced_validation(held)
    assert report.ok
    assert peak < 16_000_000


def test_validating_a_table_space_writes_no_matrix():
    # 9 label rows of 6561 points are read; the matrix would be 86 MB
    words = word_space(3, 8)
    report, peak = _traced_validation(words)
    assert report.ok and report.checked[-1] == "strong-triangle"
    assert peak < 2_000_000
    assert words._codes is None


def _line(n):
    """n points on a line: the strong triangle fails at every scale."""
    return Space.from_matrix([f"l{i:02d}" for i in range(n)],
                             [[abs(i - j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("cap", [1, 10, 57])
def test_witness_cap_keeps_a_prefix_of_the_whole_list(cap, monkeypatch):
    whole, cut = _strong_triangle(_line(13))
    assert not cut and len(whole) > 57
    monkeypatch.setattr(spaces, "_MAX_WITNESSES", cap)
    found, cut = _strong_triangle(_line(13))
    assert cut and found == whole[:cap]
    report = validate_ultrametric(_line(13))
    assert report.truncated and report.violations == tuple(whole[:cap])
    assert report.to_json()["truncated"] is True
    assert not report.ok


def test_a_list_at_the_cap_is_whole(monkeypatch):
    whole, _ = _strong_triangle(_line(12))
    monkeypatch.setattr(spaces, "_MAX_WITNESSES", len(whole))
    report = validate_ultrametric(_line(12))
    assert report.violations == tuple(whole) and not report.truncated
    assert "truncated" not in report.to_json()


def test_a_plain_csv_of_many_distances_is_cut_at_the_cap():
    rng = random.Random(4)
    pts = [(rng.randrange(10 ** 4), rng.randrange(10 ** 4)) for _ in range(150)]
    sp = Space.from_matrix(
        [f"c{i:03d}" for i in range(len(pts))],
        [[abs(a - c) + abs(b - d) for c, d in pts] for a, b in pts])
    report = validate_ultrametric(sp)
    assert report.truncated and len(report.violations) == spaces._MAX_WITNESSES
    for v in report.violations[::97]:
        x, y, z = v.witness
        assert sp.dist(x, y) > max(sp.dist(x, z), sp.dist(z, y))


# -- balls, nets, largeness ------------------------------------------------------


def test_ball_examples():
    w = word_space(2, 2)
    assert ball(w, "00", 0) == ("00",)
    assert ball(w, "00", 1) == ("00", "10")
    assert ball(w, "00", 2) == ("00", "01", "10", "11")


def test_min_net_examples():
    w = word_space(2, 3)
    assert len(min_net(w, radius=2, convention="closed")) == 2
    assert len(min_net(w, radius=2, convention="strict")) == 4
    assert len(min_net(w, radius=5, convention="strict")) == 1


def test_min_net_matches_exhaustive_search():
    rng = random.Random(21)
    for _ in range(15):
        sp = random_ultrametric(rng, n_min=4, n_max=10)
        radius = rng.choice([v for v in sp.values if v > 0])
        for convention in ("closed", "strict"):
            net = min_net(sp, radius=radius, convention=convention)
            assert len(net) == brute_min_net_size(
                sp, sp.points, radius, convention)


def test_min_net_on_plain_metric_uses_exact_cover():
    rng = random.Random(22)
    for _ in range(10):
        sp = random_plain_metric(rng, n_min=4, n_max=9)
        radius = rng.randint(1, 8)
        net = min_net(sp, radius=radius, convention="closed")
        assert len(net) == brute_min_net_size(sp, sp.points, radius, "closed")


def test_min_net_plain_metric_cap():
    sp = random_plain_metric(random.Random(5), n_min=8, n_max=8)
    with pytest.raises(CapExceeded):
        min_net(sp, radius=2, caps=Caps(max_exact_net_points=4))


def test_is_large_values():
    w = word_space(2, 3)
    assert is_large(w, w.points) == 0
    assert is_large(w, ["000"]) == 4


# -- entropy ---------------------------------------------------------------------


def test_entropy_examples():
    w23 = word_space(2, 3)
    prof = entropy_profile(w23, [2], [0], convention="closed")
    assert prof.entries[(2, 0)] == (1, 1)

    w32 = word_space(3, 2)
    assert entropy_profile(w32, [1], [2]).entries[(1, 2)] == (3, 3)
    assert entropy_profile(w32, [2], [2]).entries[(2, 2)] == (1, 1)
    strict = entropy_profile(w32, [2], [2], convention="strict")
    assert strict.entries[(2, 2)] == (3, 3)


def test_entropy_matches_definition():
    rng = random.Random(31)
    for _ in range(8):
        sp = random_ultrametric(rng, n_min=4, n_max=9)
        vals = [v for v in sp.values if v > 0][:3]
        for eps in vals:
            for delta in vals:
                prof = entropy_profile(sp, [eps], [delta])
                assert prof.entries[(canon(eps), canon(delta))] == \
                    brute_entropy(sp, eps, delta, "closed")


def test_entropy_monotone_report():
    w = word_space(2, 4)
    prof = entropy_profile(w, [1, 2, 4], [2, 4, 8])
    assert prof.check_monotone().ok


def test_entropy_plain_metric_route():
    # dual route: non-ultrametric spaces go through the generic net search
    line4 = Space.from_matrix(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
    prof = entropy_profile(line4, [1], [3])
    assert prof.entries[(1, 3)] == (2, 2)
    assert prof.entries[(1, 3)] == brute_entropy(line4, 1, 3, "closed")
    rng = random.Random(33)
    for _ in range(5):
        sp = random_plain_metric(rng, n_min=4, n_max=8)
        eps, delta = 2, 5
        prof = entropy_profile(sp, [eps], [delta])
        assert prof.entries[(eps, delta)] == \
            brute_entropy(sp, eps, delta, "closed")


# -- products and hyperspaces -----------------------------------------------------


def test_product_examples():
    pr = product(word_space(2, 2), word_space(3, 1))
    assert len(pr.points) == 12
    assert pr.points[:3] == ("(00|0)", "(00|1)", "(00|2)")
    assert pr.dist("(00|0)", "(01|1)") == 2
    assert validate_ultrametric(pr).ok


def test_product_with_one_point_factor_is_isometric():
    w = word_space(2, 2)
    single = Space.from_matrix(["p"], [[0]])
    pr = product(w, single)
    assert pr.points == ("(00|p)", "(01|p)", "(10|p)", "(11|p)")
    for x in w.points:
        for y in w.points:
            assert pr.dist(f"({x}|p)", f"({y}|p)") == w.dist(x, y)


def test_product_takes_the_larger_coordinate_distance():
    rng = random.Random(41)
    x = random_ultrametric(rng, n_min=3, n_max=5)
    y = random_ultrametric(rng, n_min=3, n_max=5)
    pr = product(x, y)
    for a in x.points[:3]:
        for b in y.points[:3]:
            for c in x.points[:3]:
                for d in y.points[:3]:
                    assert pr.dist(f"({a}|{b})", f"({c}|{d})") == max(
                        x.dist(a, c), y.dist(b, d))


def test_hyperspace_examples():
    h = hyperspace(word_space(2, 1), 2)
    assert h.points == ("{0}", "{1}", "{0|1}")
    assert h.dist("{0}", "{1}") == 1
    assert h.dist("{0}", "{0|1}") == 1
    assert validate_ultrametric(h).ok


def test_hyperspace_singletons_are_isometric():
    w = word_space(2, 2)
    h = hyperspace(w, 1)
    assert h.points == ("{00}", "{01}", "{10}", "{11}")
    for x in w.points:
        for y in w.points:
            assert h.dist("{%s}" % x, "{%s}" % y) == w.dist(x, y)


def test_hyperspace_hausdorff_distance():
    # d({p}, {p,q}) is the Hausdorff distance: sup over the larger set
    w = word_space(2, 2)
    h = hyperspace(w, 2)
    assert h.dist("{00}", "{00|01}") == w.dist("00", "01")
    assert h.dist("{00|01}", "{10|11}") == 1
    assert validate_ultrametric(h).ok


def test_composed_ids_that_collide_are_refused():
    # ("a|b", "c") and ("a", "b|c") both compose to "(a|b|c)"
    x = Space.from_matrix(["a|b", "a"], [[0, 1], [1, 0]])
    y = Space.from_matrix(["c", "b|c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="duplicate point ids"):
        product(x, y)
    # {a|b, c} and {a, b|c} both compose to "{a|b|c}"
    z = Space.from_matrix(["a", "a|b", "b|c", "c"],
                          [[0 if i == j else 1 for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError, match="duplicate point ids"):
        hyperspace(z, 2)


def test_a_repeated_id_is_refused_wherever_ids_come_from_outside():
    codes = np.array([[0, 1], [1, 0]], dtype=np.int16)
    with pytest.raises(ValueError, match="duplicate point ids"):
        Space(("a", "a"), codes, (0, 1))
    with pytest.raises(ValueError, match="duplicate point ids"):
        Space.from_matrix(["a", "a"], [[0, 1], [1, 0]])
    # ("a|b", "c") and ("a", "b|c") both compose to "(a|b|c)"
    x = Space.from_matrix(["a|b", "a"], [[0, 1], [1, 0]])
    y = Space.from_matrix(["c", "b|c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="duplicate point ids"):
        product(x, y)


@pytest.mark.parametrize("codes", [
    [[0, -1], [-1, 0]],  # a negative code would wrap to the top value
    [[0, 2], [2, 0]],
    [[0, 5], [5, 0]],
    [[0.0, 1.0], [1.0, 0.0]],
])
def test_codes_outside_the_value_table_are_refused(codes):
    with pytest.raises(ValueError, match=r"codes must be integers in \[0, 2\)"):
        Space(("a", "b"), np.array(codes), (0, 1))


# -- chain components and ultrametrization ----------------------------------------


LINE = Space.from_matrix(
    ["p0", "p1", "p2", "p9"],
    [[0, 1, 2, 10], [1, 0, 1, 9], [2, 1, 0, 8], [10, 9, 8, 0]])


def test_chain_components_examples():
    assert chain_components(LINE, 0) == (("p0",), ("p1",), ("p2",), ("p9",))
    assert chain_components(LINE, 1) == (("p0", "p1", "p2"), ("p9",))
    assert chain_components(LINE, 10) == (("p0", "p1", "p2", "p9"),)


def test_chain_components_coarsen_as_radius_grows():
    rng = random.Random(51)
    for _ in range(10):
        sp = random_plain_metric(rng)
        radii = sorted({v for row in [sp.values] for v in row})
        prev = None
        for r in radii:
            comps = chain_components(sp, r)
            if prev is not None:
                blocks = {p: k for k, comp in enumerate(comps) for p in comp}
                for comp in prev:
                    assert len({blocks[p] for p in comp}) == 1
            prev = comps


def _grouped(space, label):
    """Components from component numbers, in order of first member."""
    return tuple(tuple(p for p, c in zip(space.points, label.tolist()) if c == k)
                 for k in range(int(label.max(initial=-1)) + 1))


def _tied_metric(rng, n):
    """Distances 1 and 2 only: a metric with ties everywhere."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice([1, 2])
    return Space.from_matrix([f"t{i}" for i in range(n)], d)


@given(st.integers(0, 2 ** 32), st.sampled_from(["plain", "tied", "ultra"]))
@settings(max_examples=80, deadline=None)
def test_chain_components_match_the_breadth_first_oracle(seed, kind):
    rng = random.Random(seed)
    if kind == "plain":
        sp = random_plain_metric(rng, 1, 14)
    elif kind == "tied":
        sp = _tied_metric(rng, rng.randint(0, 12))
    else:  # a table space answers from its label rows
        plain = random_plain_metric(rng, 2, 10)
        sp = ultrametrize(plain, random_radii(rng, plain)[1:])
    radii = [-1, 0, Fraction(1, 2)] + list(sp.values) + [
        Fraction(a + b, 2) for a, b in zip(sp.values, sp.values[1:])]
    got = [chain_components(sp, r) for r in radii]
    if kind == "ultra":
        assert sp._codes is None
        sp = Space(sp.points, sp.codes, sp.values)
    assert got == [_grouped(sp, chain_labels(sp, r)) for r in radii]


def test_narrow_codes_keep_their_chain_components():
    # 300 values: the tree mark, 300, lies past the uint8 codes
    rng = np.random.default_rng(5)
    n = 30
    upper = np.triu(rng.integers(1, 256, size=(n, n)), 1)
    codes = upper + upper.T
    values = tuple(range(300))
    narrow = Space([f"u{i}" for i in range(n)], codes.astype(np.uint8), values)
    radii = [-1, 0, 1, 17, 100, 200, 254, 255, 299]
    want = [_grouped(narrow, chain_labels(narrow, r)) for r in radii]
    assert [chain_components(narrow, r) for r in radii] == want
    assert len(set(want)) > 3  # the radii cut the space in several ways
    wide = Space(narrow.points, codes, values)
    assert [chain_components(wide, r) for r in radii] == want


def test_chain_components_of_one_point_and_of_none():
    one = Space(("a",), np.zeros((1, 1), dtype=np.int16), (0,))
    empty = Space((), np.zeros((0, 0), dtype=np.int16), ())
    for r in (-1, 0, 5):
        assert chain_components(one, r) == (("a",),)
        assert chain_components(empty, r) == ()
    assert chain_components(ultrametrize(one, [1]), 0) == (("a",),)


def test_ultrametrize_line_example():
    um = ultrametrize(LINE, [1, 10])
    for x, y in [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]:
        assert um.dist(x, y) == 2
    for x in ["p0", "p1", "p2"]:
        assert um.dist(x, "p9") == 4
    assert validate_ultrametric(um).ok


def test_ultrametrize_needs_a_chaining_top_scale():
    with pytest.raises(ValueError):
        ultrametrize(LINE, [1, 2])


def test_ultrametrize_two_points():
    two = Space.from_matrix(["a", "b"], [[0, 5], [5, 0]])
    um = ultrametrize(two, [5])
    assert um.dist("a", "b") == 2
    assert um.values == (0, 2)


def test_ultrametrize_preserves_ball_order_on_ultrametric_input():
    # scales equal to the realized values: balls refine identically
    rng = random.Random(61)
    for _ in range(8):
        sp = random_ultrametric(rng, n_min=4, n_max=9)
        scales = [v for v in sp.values if v > 0]
        um = ultrametrize(sp, scales)
        for r_in, r_out in zip(scales, sorted(
                v for v in um.values if v > 0)):
            for center in sp.points:
                assert set(ball(sp, center, r_in)) == \
                    set(ball(um, center, r_out))


# -- subspaces ---------------------------------------------------------------------


def test_subspace_restricts_and_recodes():
    w = word_space(2, 3)
    sub = subspace(w, ["000", "001", "111"])
    assert sub.points == ("000", "001", "111")
    assert sub.dist("000", "111") == 4
    assert sub.values == (0, 2, 4)
    for x in sub.points:
        for y in sub.points:
            assert sub.dist(x, y) == w.dist(x, y)


def test_subspace_unknown_point():
    with pytest.raises(KeyError):
        subspace(word_space(2, 2), ["00", "zz"])


def _subindex_cases(rng):
    """Spaces whose point order and id order differ in several ways: word
    spaces over 11 letters list "0.10" before "0.2", tower bases list their
    ids in order, ball tower bases name balls by their least members, and
    random ultrametrics use their own ids."""
    um = random_ultrametric(rng)
    tower = random_tower(rng)
    return [word_space(11, 2), word_space(3, 2), um,
            base_space(tower), base_space(shuffled_tower(rng, tower)),
            base_space(ball_tower(um, random_radii(rng, um)))]


@given(st.integers(0, 2 ** 32), st.data())
@settings(max_examples=40, deadline=None)
def test_subindices_match_sorted_id_set(seed, data):
    rng = random.Random(seed)
    for space in _subindex_cases(rng):
        repeats = data.draw(st.lists(st.sampled_from(space.points),
                                     max_size=2 * len(space.points)))
        for subset in (None, [], repeats, space.points[::-1]):
            ids = sorted(set(space.points if subset is None else subset))
            got = space.subindices(subset)
            assert got.dtype == np.int64
            assert got.tolist() == [space.index(p) for p in ids]
        assert space.subindices(iter(repeats)).tolist() == \
            space.subindices(repeats).tolist()


def test_subindices_name_an_unknown_id():
    w = word_space(11, 2)
    assert w.subindices(["0.2", "0.10"]).tolist() == [w.index("0.10"), w.index("0.2")]
    with pytest.raises(KeyError, match="unknown point id: 'zz'"):
        w.subindices(["0.1", "zz"])


def unique_inverse_subspace(space, subset):
    """Reference restriction: np.unique(return_inverse) over the block."""
    sub = space.subindices(subset)
    block = space.codes[np.ix_(sub, sub)]
    used, inv = np.unique(block, return_inverse=True)
    return (tuple(space.points[int(i)] for i in sub),
            inv.reshape(block.shape),
            tuple(space.values[int(u)] for u in used))


@given(st.integers(0, 2 ** 32), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_matches_unique_inverse_oracle(seed, ultra, data):
    rng = random.Random(seed)
    sp = random_ultrametric(rng) if ultra else random_plain_metric(rng)
    subset = data.draw(st.lists(st.sampled_from(sp.points), max_size=len(sp)))
    sub = subspace(sp, subset)
    points, codes, values = unique_inverse_subspace(sp, subset)
    assert sub.points == points
    assert sub.values == values
    assert np.array_equal(sub.codes, codes)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_base_space_matches_unique_inverse_oracle(seed):
    # random towers list their base depth-first in id order; ball towers
    # of random ultrametrics and towers under shuffled ids do not, so their
    # balls are index blocks; degree-1 levels leave sup levels unrealized
    rng = random.Random(seed)
    towers = [random_tower(rng)]
    space = random_ultrametric(rng)
    towers.append(ball_tower(space, random_radii(rng, space)))
    towers.append(regular_tower(
        [rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 5))]))
    towers.append(regular_tower(()))
    towers.append(shuffled_tower(rng, random_tower(rng)))
    towers.append(shuffled_tower(rng, towers[2]))
    for tower in towers:
        base = base_space(tower)
        raw = np.asarray([[oracle_path_metric(tower, x, y) // 2
                           for y in tower.base] for x in tower.base])
        used, inv = np.unique(raw, return_inverse=True)
        assert base.points == tower.base
        assert base.values == tuple(2 * int(u) for u in used)
        assert np.array_equal(base.codes, inv.reshape(raw.shape))


# -- rationals ----------------------------------------------------------------------


def test_rat_str_formats():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(canon(Fraction(4, 2))) == "2"
    assert rat_str(0) == "0"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=80, deadline=None)
def test_rationals_round_trip(num, den):
    value = canon(Fraction(num, den))
    assert rat_parse(rat_str(value)) == value
    assert canon(as_rational(str(value))) == value
