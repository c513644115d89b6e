"""Morphism layer: multimaps, distortion moduli, asymorphism certificates,
selections, normal forms, tower embeddings, and admissible maps."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    AdmissibleSequences,
    DegreeProfile,
    MultiMap,
    Space,
    Tower,
    balanced_partition,
    base_space,
    build_admissible_morphism,
    check_base_distortion,
    check_entropy_transport,
    check_l2_preconditions,
    check_modulus_composition,
    coarse_normal_form,
    compose,
    degree_profile,
    distortion_modulus,
    is_large,
    regular_tower,
    selection_pair,
    subspace,
    tower_embedding,
    verify_asymorphism,
    with_closeness,
    word_space,
)

from coarsetowers.serialization import dump_json
from coarsetowers.towers import _cone_profile

from conftest import random_tower, random_ultrametric
from oracles import check_admissible, children_by_parent, cone, node_maps, path_metric


TWO_POINTS = Space.from_matrix(["x0", "x1"], [[0, 4], [4, 0]])
ONE_POINT = Space.from_matrix(["y"], [[0]])


def cover_map() -> MultiMap:
    """Two points at distance 4 collapsed onto a single target point."""
    return MultiMap.from_function(TWO_POINTS, ONE_POINT, lambda x: "y")


# -- multimaps and composition ---------------------------------------------------


def test_identity_multimap():
    w = word_space(2, 2)
    ident = MultiMap.identity(w)
    assert ident.pairs == tuple((p, p) for p in w.points)
    assert ident.is_bijection and ident.is_total and ident.is_function
    assert ident.image() == w.points
    assert ident.preimage() == w.points


def test_compose_applies_left_map_first():
    w = word_space(2, 2)
    a = subspace(w, ["00", "01"])
    phi = MultiMap.from_function(a, w, lambda x: x)
    psi = MultiMap.from_function(w, ONE_POINT, lambda x: "y")
    comp = compose(phi, psi)
    assert comp.source is a and comp.target is ONE_POINT
    assert comp.pairs == (("00", "y"), ("01", "y"))


def test_compose_rejects_mismatched_spaces():
    w = word_space(2, 2)
    phi = MultiMap.identity(w)
    psi = MultiMap.identity(word_space(2, 1))
    with pytest.raises(ValueError):
        compose(phi, psi)


def test_inverse_of_composition_on_small_enumeration():
    # (psi . phi)^-1 = phi^-1 . psi^-1, checked pair by pair
    a = Space.from_matrix(["a0", "a1"], [[0, 1], [1, 0]])
    b = Space.from_matrix(["b0", "b1"], [[0, 2], [2, 0]])
    c = Space.from_matrix(["c0"], [[0]])
    for pairs1 in [(("a0", "b0"), ("a1", "b1")),
                   (("a0", "b0"), ("a1", "b0")),
                   (("a0", "b0"), ("a0", "b1"), ("a1", "b1"))]:
        phi = MultiMap(a, b, pairs1)
        psi = MultiMap(b, c, (("b0", "c0"), ("b1", "c0")))
        lhs = compose(phi, psi).inverse()
        rhs = compose(psi.inverse(), phi.inverse())
        assert set(lhs.pairs) == set(rhs.pairs)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_is_associative(data):
    pts = ["p0", "p1", "p2"]
    sp = Space.from_matrix(pts, [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    rel = st.sets(
        st.tuples(st.sampled_from(pts), st.sampled_from(pts)), min_size=1)
    f = MultiMap(sp, sp, tuple(sorted(data.draw(rel))))
    g = MultiMap(sp, sp, tuple(sorted(data.draw(rel))))
    h = MultiMap(sp, sp, tuple(sorted(data.draw(rel))))
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    assert set(lhs.pairs) == set(rhs.pairs)
    assert set(compose(f, g).inverse().pairs) == \
        set(compose(g.inverse(), f.inverse()).pairs)


def test_fibers_and_cofibers():
    mm = cover_map()
    assert mm.fibers == {"x0": ("y",), "x1": ("y",)}
    assert mm.cofibers == {"y": ("x0", "x1")}
    assert mm.is_surjective
    assert not mm.is_bijection
    assert mm.as_function() == {"x0": "y", "x1": "y"}


# -- distortion moduli -------------------------------------------------------------


def test_distortion_modulus_of_identity():
    w = word_space(2, 3)
    mod = distortion_modulus(MultiMap.identity(w))
    assert mod.table == tuple((v, v) for v in w.values)
    assert mod.finite
    assert mod.check_monotone().ok


def test_distortion_modulus_of_constant_map():
    mod = distortion_modulus(cover_map())
    assert mod.table == ((0, 0), (4, 0))
    assert mod.value_at(4) == 0


def test_distortion_modulus_value_at_interpolates():
    w = word_space(2, 3)
    mod = distortion_modulus(MultiMap.identity(w))
    assert mod.value_at(3) == 2
    assert mod.value_at(0) == 0
    assert mod.value_at(100) == 4


def test_digit_reversal_modulus_tables():
    t = regular_tower((2,) * 3)
    sp = base_space(t)
    w = word_space(2, 3)
    mm = MultiMap.from_function(
        sp, w, lambda leaf: "".join(reversed(leaf.split(".")[1:])))
    assert distortion_modulus(mm).table == ((0, 0), (2, 1), (4, 2), (6, 4))
    assert distortion_modulus(mm.inverse()).table == \
        ((0, 0), (1, 2), (2, 4), (4, 6))


def test_modulus_composition_bound():
    # composing stagewise moduli dominates the composite's modulus
    t = regular_tower((2,) * 3)
    sp = base_space(t)
    w = word_space(2, 3)
    phi = MultiMap.from_function(
        sp, w, lambda leaf: "".join(reversed(leaf.split(".")[1:])))
    psi = MultiMap.identity(w)
    composite = compose(phi, psi)
    assert check_modulus_composition(
        distortion_modulus(composite),
        [distortion_modulus(phi), distortion_modulus(psi)]).ok


# -- asymorphism certificates --------------------------------------------------------


def test_identity_certifies_as_asymorphism_and_isometry():
    w = word_space(2, 2)
    cert = verify_asymorphism(MultiMap.identity(w))
    assert cert.kind == "asymorphism"
    assert cert.is_asymorphism
    assert cert.forward_modulus.table == ((0, 0), (1, 1), (2, 2))
    assert cert.forward_surjective and cert.backward_surjective
    iso = verify_asymorphism(MultiMap.identity(w), expect_isometry=True)
    assert iso.kind == "isometry"


def test_inclusion_of_small_subset_is_an_embedding():
    w = word_space(2, 2)
    sub = subspace(w, ["00", "01"])
    cert = verify_asymorphism(MultiMap.from_function(sub, w, lambda x: x))
    assert cert.kind == "embedding"
    assert not cert.forward_surjective
    assert cert.backward_surjective
    assert is_large(w, ["00", "01"]) == 1


def test_cover_certifies_as_asymorphism():
    cert = verify_asymorphism(cover_map())
    assert cert.kind == "asymorphism"
    assert cert.closeness_bound is None
    bounded = with_closeness(cert, 6)
    assert bounded.closeness_bound == 6
    assert cert.closeness_bound is None


def test_expect_isometry_downgrades_on_contraction():
    cert = verify_asymorphism(cover_map(), expect_isometry=True)
    assert cert.kind == "asymorphism"
    failed = {c.axiom for c in cert.checks if not c.passed}
    assert failed == {"distance-preserving"}


def test_level_collapse_certifies_as_asymorphism():
    from coarsetowers import level_subtower
    t = regular_tower((2,) * 4)
    sub, nmap = level_subtower(t, (1, 3, 5))
    mm = MultiMap.from_function(base_space(t), base_space(sub), nmap)
    cert = verify_asymorphism(mm)
    assert cert.kind == "asymorphism"
    assert cert.forward_modulus.table == \
        ((0, 0), (2, 2), (4, 2), (6, 4), (8, 4))
    assert cert.backward_modulus.table == ((0, 0), (2, 4), (4, 8))


# -- selection pairs and normal forms ---------------------------------------------------


def test_selection_pair_of_bijection_is_exact():
    w = word_space(2, 2)
    sp = selection_pair(MultiMap.identity(w))
    assert sp.closeness == 0
    assert sp.source_closeness == 0 and sp.target_closeness == 0
    assert sp.f == {p: p for p in w.points}
    assert sp.g == {p: p for p in w.points}


def test_selection_pair_of_cover():
    mm = cover_map()
    sp = selection_pair(mm, verify_asymorphism(mm))
    assert sp.closeness == 4
    assert sp.source_closeness == 4
    assert sp.target_closeness == 0
    assert sp.source_fiber_bound == 4
    assert sp.target_fiber_bound == 0
    assert sp.f == {"x0": "y", "x1": "y"}
    assert sp.g == {"y": "x0"}


def test_selection_closeness_bounded_by_fiber_diameter():
    rng = random.Random(113)
    for _ in range(10):
        sp = random_ultrametric(rng, n_min=4, n_max=10)
        # collapse each point onto a representative at bounded distance
        radius = max(v for v in sp.values)
        reps = {}
        for p in sp.points:
            reps[p] = min(q for q in sp.points if sp.dist(p, q) <= radius)
        image = sorted(set(reps.values()))
        tgt = subspace(sp, image)
        mm = MultiMap.from_function(sp, tgt, reps)
        sel = selection_pair(mm)
        assert sel.closeness <= max(sel.source_fiber_bound,
                                    sel.target_fiber_bound)


def test_normal_form_of_bijection_is_identity_like():
    w = word_space(2, 2)
    f = {p: p for p in w.points}
    nf = coarse_normal_form(w, w, f, f)
    assert nf.x_prime == w.points
    assert nf.y_prime == w.points
    assert nf.h == f
    assert nf.r_bound == 0
    assert nf.backward_bound.ok


def test_normal_form_of_cover():
    mm = cover_map()
    sel = selection_pair(mm)
    nf = coarse_normal_form(TWO_POINTS, ONE_POINT, sel.f, sel.g)
    assert nf.x_prime == ("x0",)
    assert nf.y_prime == ("y",)
    assert nf.h == {"x0": "y"}
    assert nf.r_bound == 4
    assert nf.x_cover == 4 and nf.y_cover == 0
    assert nf.backward_bound.ok


def test_normal_form_moduli_are_sound():
    # the stored moduli really bound h on every pair of kept points
    w = word_space(2, 3)
    t = base_space(regular_tower((2,) * 3))
    f = {p: "t." + ".".join(reversed(p)) for p in w.points}
    g = {q: "".join(reversed(q.split(".")[1:])) for q in t.points}
    nf = coarse_normal_form(w, t, f, g)
    assert nf.backward_bound.ok
    assert nf.h_forward.check_monotone().ok
    assert nf.h_backward.check_monotone().ok
    tgt = t
    for x in nf.x_prime:
        for y in nf.x_prime:
            d_src = w.dist(x, y)
            d_tgt = tgt.dist(nf.h[x], nf.h[y])
            assert d_tgt <= nf.h_forward.value_at(d_src)
            assert d_src <= nf.h_backward.value_at(d_tgt) + 2 * nf.r_bound


@pytest.mark.parametrize("mf, mg", [(5, 3), (7, 5), (3, 11), (13, 7)])
def test_normal_form_moduli_are_those_of_h(mf, mg):
    # f sends X out of order, so the least-id representatives of its fibers
    # come out of id order when listed by image: h's relation must pair each
    # kept point with its own image, not with the image of its rank
    X, Y = word_space(3, 3), word_space(2, 4)
    f = {p: Y.points[int(p, 3) * mf % 16] for p in X.points}
    g = {q: X.points[int(q, 2) * mg % 27] for q in Y.points}
    nf = coarse_normal_form(X, Y, f, g)
    reps = [min(x for x in X.points if f[x] == y) for y in sorted(set(f.values()))]
    assert list(nf.x_prime) != reps and sorted(reps) == list(nf.x_prime)
    h = MultiMap.from_function(
        subspace(X, nf.x_prime), subspace(Y, nf.y_prime), nf.h)
    assert nf.h == dict(zip(reps, sorted(set(f.values()))))
    for got, want in ((nf.h_forward, distortion_modulus(h)),
                      (nf.h_backward, distortion_modulus(h.inverse()))):
        assert got.table == want.table
        assert got.witnesses == want.witnesses


# -- tower embeddings -----------------------------------------------------------------


def _assert_injective_level_preserving(assign, t1, t2):
    nodes, level, _ = node_maps(t1)
    assert set(assign) == set(nodes)
    assert len(set(assign.values())) == len(assign)
    assert all(level[x] == node_maps(t2)[1][y] for x, y in assign.items())


def test_tower_embedding_binary_into_ternary():
    t1, t2 = regular_tower((2, 2)), regular_tower((3, 3))
    assign, cert = tower_embedding(t1, t2)
    _assert_injective_level_preserving(assign, t1, t2)
    assert sorted(assign.items()) == [
        ("t", "t"), ("t.0", "t.0"), ("t.0.0", "t.0.0"), ("t.0.1", "t.0.1"),
        ("t.1", "t.1"), ("t.1.0", "t.1.0"), ("t.1.1", "t.1.1")]
    assert cert.kind == "embedding"


def test_tower_embedding_preserves_base_distances():
    t1, t2 = regular_tower((2, 2)), regular_tower((3, 3))
    assign, _ = tower_embedding(t1, t2)
    _assert_injective_level_preserving(assign, t1, t2)
    for x in t1.base:
        for y in t1.base:
            assert path_metric(t1, x, y) == path_metric(t2, assign[x], assign[y])


def test_tower_embedding_reports_precise_failing_level():
    with pytest.raises(ValueError) as exc:
        tower_embedding(regular_tower((3, 3)), regular_tower((2, 2)))
    assert "level 1" in str(exc.value)
    assert "Deg_1 = 3 > deg_1 = 2" in str(exc.value)
    with pytest.raises(ValueError) as exc2:
        tower_embedding(regular_tower((2, 4)), regular_tower((3, 2)))
    assert "level 2" in str(exc2.value)


def test_tower_embedding_of_chain():
    t1, t2 = regular_tower((1, 1)), regular_tower((2, 2))
    assign, _ = tower_embedding(t1, t2)
    _assert_injective_level_preserving(assign, t1, t2)
    assert sorted(assign.items()) == [
        ("t", "t"), ("t.0", "t.0"), ("t.0.0", "t.0.0")]


# -- admissible morphisms ---------------------------------------------------------------


def test_check_admissible_accepts_identity():
    t = regular_tower((2, 2))
    phi = {n: n for n in node_maps(t)[0]}
    assert check_admissible(phi, t, t).ok


def test_check_admissible_rejects_cross_parent_collapse():
    t = regular_tower((2, 2))
    phi = {n: n for n in node_maps(t)[0]}
    phi["t.1.0"] = "t.0.0"  # fiber spans two sibling sets
    rep = check_admissible(phi, t, t)
    assert not rep.ok
    assert any(v.rule == "fibers-in-one-sibling-set" for v in rep.violations)


def test_balanced_partition_examples():
    assert balanced_partition(list("abcd"), 2, 2, 2) == \
        [("a", "b"), ("c", "d")]
    assert balanced_partition(list("abcde"), 2, 2, 3) == \
        [("a", "b", "c"), ("d", "e")]
    with pytest.raises(ValueError):
        balanced_partition(list("abcdefg"), 2, 2, 3)


@given(st.integers(1, 40), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_balanced_partition_properties(n, parts, data):
    lo = data.draw(st.integers(0, max(0, n // parts)))
    hi = data.draw(st.integers(lo, n))
    items = [f"i{k}" for k in range(n)]
    if not (parts * lo <= n <= parts * hi):
        with pytest.raises(ValueError):
            balanced_partition(items, parts, lo, hi)
        return
    blocks = balanced_partition(items, parts, lo, hi)
    assert len(blocks) == parts
    sizes = [len(b) for b in blocks]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert all(lo <= s <= hi for s in sizes)
    assert [x for b in blocks for x in b] == items
    assert blocks == balanced_partition(items, parts, lo, hi)


def test_check_l2_preconditions_pass():
    rep = check_l2_preconditions(
        DegreeProfile.regular((27,)), DegreeProfile.regular((64,)),
        AdmissibleSequences((1, 4), (8, 8)))
    assert rep.ok
    assert rep.checked[0] == "window-spacing"


def test_check_l2_preconditions_packed_and_spread_failures():
    rep = check_l2_preconditions(
        DegreeProfile.regular((2,)), DegreeProfile.regular((2,)),
        AdmissibleSequences((1, 1), (3, 3)))
    got = [(v.rule, v.message) for v in rep.violations]
    assert ("packed-lower[1]",
            "level 1: b_1 + a_1 * Deg_1(T2) / a_2 = 5 > deg_1(T1) = 2") in got
    assert ("spread-upper[1]",
            "level 1: Deg_1(T1) = 2 > a_1 + b_1 * (deg_1(T2) / b_2 - 2) = -3"
            ) in got


def test_check_l2_preconditions_window_spacing_failure():
    rep = check_l2_preconditions(
        DegreeProfile.regular((2,)), DegreeProfile.regular((2,)),
        AdmissibleSequences((1, 7), (8, 8)))
    assert ("window-spacing",
            "level 2: need 1 <= a <= a+2 <= b, got a = 7, b = 8") in \
        [(v.rule, v.message) for v in rep.violations]


def _germ_merged_profile(tower, roots):
    """Reference: each root's lower cone built as a validated tower of its
    own, degree-profiled, and the profiles merged entrywise (min of smalls,
    max of larges)."""
    _, level, parent = node_maps(tower)
    small: dict = {}
    large: dict = {}
    for r in roots:
        ids = cone(tower, r)
        germ = Tower(ids, {i: level[i] for i in ids},
                     {i: parent[i] if i != r else None for i in ids})
        prof = degree_profile(germ)
        for key, v in prof.small.items():
            small[key] = min(small.get(key, v), v)
        for key, v in prof.large.items():
            large[key] = max(large.get(key, v), v)
    return DegreeProfile(level[roots[0]], small, large)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_cone_profile_matches_germ_towers(seed):
    rng = random.Random(seed)
    tower = random_tower(rng, height_min=2, height_max=5, deg_max=4)
    lvl = rng.randint(2, tower.height)
    if lvl == tower.height:
        roots = [tower.top]
    else:
        kids = children_by_parent(tower)[rng.choice(tower._ids[lvl])]
        roots = sorted(rng.sample(kids, rng.randint(1, len(kids))))
    at = [tower._ids[lvl - 1].index(r) for r in roots]
    assert _cone_profile(tower, lvl, at) == _germ_merged_profile(tower, roots)


def test_build_admissible_morphism_height_one():
    t1 = regular_tower(())
    t2 = regular_tower(())
    phi, _, cert = build_admissible_morphism(
        t1, (t1.top,), t2, t2.top, AdmissibleSequences((1,), (3,)))
    assert phi == {t1.top: t2.top}
    assert cert.kind == "admissible"


def test_build_admissible_morphism_27_into_64():
    t1 = regular_tower((27, 4))
    t2 = regular_tower((64,))
    roots = t1._ids[1]  # the level-2 nodes
    phi, _, cert = build_admissible_morphism(
        t1, roots, t2, t2.top, AdmissibleSequences((1, 4), (8, 8)))
    assert cert.kind == "admissible"
    assert all(c.passed for c in cert.checks)
    assert {c.axiom for c in cert.checks} == {
        "domain-lower-set", "level-preserving", "monotone",
        "fibers-in-one-sibling-set", "image-lower-set", "single-top-image",
        "base-contraction", "base-expansion-plus-2", "surjective-onto-cone"}
    assert check_admissible(phi, t1, t2).ok
    assert set(phi.values()) == set(cone(t2, t2.top))
    # 108 source leaves spread over the 64 targets in fibers of 1 and 2
    leaf_fibers = Counter()
    per_target = Counter(t for s, t in phi.items() if node_maps(t1)[1][s] == 1)
    for size in per_target.values():
        leaf_fibers[size] += 1
    assert dict(leaf_fibers) == {1: 20, 2: 44}
    assert set(per_target) == set(t2.base)


def test_build_admissible_morphism_checks_preconditions_first():
    t1 = regular_tower((2, 2))
    t2 = regular_tower((2,))
    roots = t1._ids[1]  # the level-2 nodes
    with pytest.raises(ValueError):
        build_admissible_morphism(
            t1, roots, t2, t2.top, AdmissibleSequences((1, 1), (3, 3)))


@pytest.mark.parametrize("d1, d2, level, a, b", [
    ((27, 4), (64,), 2, (1, 4), (8, 8)),
    ((), (), 1, (1,), (3,)),
])
def test_build_admissible_morphism_reads_tuple_levels_like_path_rows(d1, d2, level, a, b):
    # towers rebuilt from their node maps hold tuple levels, where nodes are
    # found by bisection; regular towers hold PathRows, which parse ids
    seqs = AdmissibleSequences(a, b)
    rows = regular_tower(d1), regular_tower(d2)
    tuples = Tower(*node_maps(rows[0])), Tower(*node_maps(rows[1]))
    assert type(tuples[0]._ids[0]) is type(tuples[1]._ids[0]) is tuple

    def built(t1, t2):
        phi, _, cert = build_admissible_morphism(t1, t1._ids[level - 1], t2, t2.top, seqs)
        return phi, dump_json(cert.to_json())

    assert built(*rows) == built(*tuples)


def test_built_morphism_base_checks():
    t1 = regular_tower((27, 4))
    t2 = regular_tower((64,))
    roots = t1._ids[1]  # the level-2 nodes
    phi, _, cert = build_admissible_morphism(
        t1, roots, t2, t2.top, AdmissibleSequences((1, 4), (8, 8)))
    level = node_maps(t1)[1]
    base_pairs = tuple((s, t) for s, t in phi.items() if level[s] == 1)
    mm = MultiMap(base_space(t1), base_space(t2), base_pairs)
    assert check_base_distortion(mm).ok
    assert check_entropy_transport(mm, cert).ok


# -- base distortion against brute force ------------------------------------------


def brute_base_distortion(phi):
    """Reference: the value loop over every ordered pair, keeping the
    row-major first witness of each broken bound."""
    first = {}
    for x, fx in phi.pairs:
        for y, fy in phi.pairs:
            ds, dt = phi.source.dist(x, y), phi.target.dist(fx, fy)
            if dt > ds:
                first.setdefault("base-contraction", (x, y))
            if ds > dt + 2:
                first.setdefault("base-expansion-plus-2", (x, y))
    return first


def _random_base_space(rng, rational):
    if rational:
        return random_ultrametric(rng, n_min=2, n_max=12)
    return base_space(regular_tower(
        [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]))


@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans(),
       st.sampled_from(["random", "identity", "collapse"]))
@settings(max_examples=120, deadline=None)
def test_check_base_distortion_matches_value_loop(seed, src_rational,
                                                  tgt_rational, kind):
    rng = random.Random(seed)
    src = _random_base_space(rng, src_rational)
    if kind == "identity":
        tgt = src
        fmap = {p: p for p in src.points}
    else:
        tgt = _random_base_space(rng, tgt_rational)
        if kind == "collapse":
            fmap = {p: tgt.points[0] for p in src.points}
        else:
            fmap = {p: rng.choice(tgt.points) for p in src.points}
    phi = MultiMap.from_function(src, tgt, fmap)
    report = check_base_distortion(phi)
    assert {v.rule: v.witness for v in report.violations} == \
        brute_base_distortion(phi)


def test_check_base_distortion_witness_spans_row_blocks():
    # 2048 points scan in two row blocks; the map breaks both bounds only
    # inside the last 8-leaf ball, which lies in the second block, so the
    # witnesses must still be the row-major first pairs of the dense scan
    base = base_space(regular_tower((2,) * 11))
    ids = base.points
    fmap = {p: p for p in ids}
    fmap[ids[2047]] = ids[2040]
    phi = MultiMap.from_function(base, base, fmap)
    idx = np.asarray([base.index(fmap[p]) for p in ids])
    values = np.asarray(base.values, dtype=np.int64)
    ds = values[base.codes]
    dt = values[base.codes[np.ix_(idx, idx)]]
    expected = {}
    for rule, bad in (("base-contraction", dt > ds),
                      ("base-expansion-plus-2", ds > dt + 2)):
        i, j = np.argwhere(bad)[0]
        expected[rule] = (ids[i], ids[j])
    assert min(ids.index(x) for x, _ in expected.values()) >= 2040
    report = check_base_distortion(phi)
    assert {v.rule: v.witness for v in report.violations} == expected
