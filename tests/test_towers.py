"""Tower layer: validation, path metric, base spaces, regular builders,
level subtowers, degree profiles, and ball towers."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    DegreeProfile,
    MultiMap,
    Tower,
    ball,
    ball_tower,
    ball_tower_base_map,
    base_space,
    degree_profile,
    distortion_modulus,
    entropy_from_degrees,
    entropy_profile,
    level_subtower,
    regular_tower,
    validate_tower,
    validate_ultrametric,
    verify_asymorphism,
    word_space,
)
from coarsetowers.limits import CapExceeded, Caps
from coarsetowers.rationals import canon
from coarsetowers.report import Violation

from conftest import oracle_path_metric, random_radii, random_tower, random_ultrametric
from oracles import ancestor, base_below, cone, node_maps, path_metric, sup


MIXED_IDS = ["r", "r.0", "r.1", "r.0.0", "r.0.1", "r.1.0", "r.1.1", "r.1.2"]
MIXED_LEVEL = {"r": 3, "r.0": 2, "r.1": 2, "r.0.0": 1, "r.0.1": 1,
               "r.1.0": 1, "r.1.1": 1, "r.1.2": 1}
MIXED_PARENT = {"r": None, "r.0": "r", "r.1": "r", "r.0.0": "r.0",
                "r.0.1": "r.0", "r.1.0": "r.1", "r.1.1": "r.1",
                "r.1.2": "r.1"}


def mixed_tower() -> Tower:
    """Top with two children: one carries 2 base points, the other 3."""
    return Tower(MIXED_IDS, MIXED_LEVEL, MIXED_PARENT)


# -- validation ------------------------------------------------------------------


def test_validate_tower_accepts_chain():
    rep = validate_tower(
        ["top", "mid", "leaf"],
        {"top": 3, "mid": 2, "leaf": 1},
        {"top": None, "mid": "top", "leaf": "mid"})
    assert rep.ok


def test_validate_tower_rejects_two_level_parent_hop():
    rep = validate_tower(
        ["top", "leaf"], {"top": 3, "leaf": 1}, {"top": None, "leaf": "top"})
    assert not rep.ok
    assert {v.rule for v in rep.violations} == {"level-condition"}


def test_validate_tower_rejects_two_tops():
    rep = validate_tower(
        ["a", "b"], {"a": 1, "b": 1}, {"a": None, "b": None})
    assert any(v.rule == "single-top" for v in rep.violations)


def test_tower_constructor_raises_on_bad_data():
    with pytest.raises(ValueError):
        Tower(["top", "leaf"], {"top": 3, "leaf": 1},
              {"top": None, "leaf": "top"})


def test_caps_bound_a_tower_base_and_twice_it_in_nodes():
    with pytest.raises(CapExceeded, match="tower has 80001 nodes, cap is 40000"):
        regular_tower([1, 1, 1, 20000])
    # the pre-check stops at the first level past the cap
    with pytest.raises(CapExceeded, match="tower has a level of 32768 nodes, cap is 20000"):
        regular_tower([2] * 10 ** 5)
    caps = Caps(max_points=4)
    built = regular_tower((2, 2), caps=caps)  # 4 base points, 7 nodes
    assert Tower(*node_maps(built), caps=caps)._ids == built._ids
    with pytest.raises(CapExceeded, match="tower has a level of 8 nodes, cap is 4"):
        regular_tower((2, 2, 2), caps=caps)
    with pytest.raises(CapExceeded, match="tower has a level of 8 nodes, cap is 4"):
        Tower(*node_maps(regular_tower((2, 2, 2))), caps=caps)
    with pytest.raises(CapExceeded, match="tower has 9 nodes, cap is 8"):
        Tower(*node_maps(regular_tower((1,) * 8)), caps=caps)
    with pytest.raises(CapExceeded, match="tower has 9 nodes, cap is 8"):
        regular_tower((1,) * 8, caps=caps)


def test_validate_tower_accepts_full_binary():
    t = regular_tower((2, 2))
    rep = validate_tower(*node_maps(t))
    assert rep.ok


# -- navigation and the path metric ------------------------------------------------


def test_path_metric_examples():
    t = regular_tower((2, 2))
    assert path_metric(t, "t.0.0", "t.0.0") == 0
    assert path_metric(t, "t.0.0", "t.0.1") == 2
    assert path_metric(t, "t.0.0", "t.1.0") == 4
    assert path_metric(t, "t.0.0", "t.0") == 1
    assert sup(t, "t.0.0", "t.1.1") == "t"
    assert ancestor(t, "t.0.0", 2) == "t.0"
    assert cone(t, "t.0") == ("t.0.0", "t.0.1", "t.0")
    assert base_below(t, "t.0") == ("t.0.0", "t.0.1")


def test_path_metric_matches_ancestor_walk():
    rng = random.Random(71)
    for _ in range(15):
        t = random_tower(rng)
        nodes = list(node_maps(t)[0])
        for _ in range(30):
            x, y = rng.choice(nodes), rng.choice(nodes)
            assert path_metric(t, x, y) == oracle_path_metric(t, x, y)


# -- base spaces ---------------------------------------------------------------------


def test_base_space_of_chain_is_one_point():
    assert base_space(regular_tower((1, 1, 1))).points == ("t.0.0.0",)


def test_base_space_three_regular():
    sp = base_space(regular_tower((3, 3)))
    assert len(sp.points) == 9
    assert sp.values == (0, 2, 4)
    assert validate_ultrametric(sp).ok
    assert sp.dist("t.0.0", "t.0.1") == 2
    assert sp.dist("t.0.0", "t.2.1") == 4


def test_base_space_distances_match_path_metric():
    rng = random.Random(73)
    for _ in range(10):
        t = random_tower(rng)
        sp = base_space(t)
        for x in sp.points:
            for y in sp.points:
                assert sp.dist(x, y) == path_metric(t, x, y)


def test_binary_base_matches_word_space_under_digit_reversal():
    # leaf t.d1.d2.d3 <-> word d3d2d1: the bijection is an exact isometry
    t = regular_tower((2,) * 3)
    sp = base_space(t)
    w = word_space(2, 3)

    def to_word(leaf):
        return "".join(reversed(leaf.split(".")[1:]))

    mm = MultiMap.from_function(sp, w, to_word)
    assert mm.is_bijection
    mod = distortion_modulus(mm)
    assert mod.table == ((0, 0), (2, 1), (4, 2), (6, 4))
    back = distortion_modulus(mm.inverse())
    assert back.table == ((0, 0), (1, 2), (2, 4), (4, 6))


# -- regular towers ---------------------------------------------------------------


def test_regular_tower_shapes():
    t = regular_tower((2, 2, 2))
    assert t.height == 4
    assert len(t.base) == 8
    assert t.top == "t"
    prof = degree_profile(regular_tower((3, 3)))
    assert prof.large_between(1, 3) == 9
    assert prof.small_between(1, 3) == 9
    assert prof.is_homogeneous


def test_regular_tower_explicit_height():
    # an explicit height uses the first height-1 degree entries
    t = regular_tower((2, 3, 4), height=3)
    assert t.height == 3
    assert len(t.base) == 6
    with pytest.raises(ValueError):
        regular_tower((2,), height=4)


@pytest.mark.parametrize("build", [regular_tower, DegreeProfile.regular])
@pytest.mark.parametrize("degree", [2.5, Fraction(5, 2), "3", np.float64(2.0)])
def test_regular_builders_refuse_non_integer_degrees(build, degree):
    # a truncated or parsed degree builds another tower than the one asked for
    with pytest.raises(TypeError, match=f"^degrees must be integers, got {re.escape(repr(degree))}$"):
        build([2, degree])


@pytest.mark.parametrize("build", [regular_tower, DegreeProfile.regular])
@pytest.mark.parametrize("args, message", [
    (([0, 2],), "degrees must be >= 1"),
    (([-1],), "degrees must be >= 1"),
    (([2, 3], 0), "height must be >= 1"),
])
def test_regular_builders_refuse_degrees_and_heights_below_one(build, args, message):
    # a profile with entries 0 or -1, or of height 0, is no tower's profile
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


def test_regular_builders_read_numpy_integer_degrees_as_ints():
    prof = DegreeProfile.regular(np.array([2, 3]))
    assert prof.small == {(1, 2): 2, (1, 3): 6, (2, 3): 3}
    assert all(type(v) is int for v in prof.small.values())
    assert degree_profile(regular_tower(np.array([2, 3]))) == prof


def test_degree_profile_chain_is_all_ones():
    prof = degree_profile(regular_tower((1, 1, 1)))
    assert set(prof.small.values()) == {1}
    assert set(prof.large.values()) == {1}


# -- level subtowers -----------------------------------------------------------------


def test_level_subtower_identity():
    t = regular_tower((2, 2))
    sub, nmap = level_subtower(t, (1, 2, 3))
    assert node_maps(sub)[0] == node_maps(t)[0]
    assert all(k == v for k, v in nmap.items())


def test_level_subtower_drops_odd_levels():
    t = regular_tower((2,) * 3)
    sub, nmap = level_subtower(t, (2, 4))
    assert node_maps(sub)[0] == ("t.0.0", "t.0.1", "t.1.0", "t.1.1", "t")
    assert sub.height == 2
    assert len(nmap) == 8
    fibers = {}
    for leaf, target in nmap.items():
        fibers.setdefault(target, []).append(leaf)
    assert all(len(v) == 2 for v in fibers.values())
    assert nmap["t.0.0.0"] == "t.0.0" and nmap["t.0.0.1"] == "t.0.0"


def test_level_subtower_profile():
    t = regular_tower((2,) * 4)
    sub, _ = level_subtower(t, (1, 3, 5))
    prof = degree_profile(sub)
    assert prof.small == {(1, 2): 4, (1, 3): 16, (2, 3): 4}
    assert prof.large == prof.small


def test_level_subtower_rejects_bad_levels():
    t = regular_tower((2, 2))
    with pytest.raises(ValueError):
        level_subtower(t, (2,))  # must keep level 1
    with pytest.raises(ValueError):
        level_subtower(t, (1, 5))


def test_next_map_is_an_asymorphism_with_the_remap_bound():
    # the collapse onto chosen levels contracts by at most the level remap:
    # delta(eps) <= 2 * (1-based index of the smallest kept level >= eps/2)
    cases = [
        (regular_tower((2,) * 4), (1, 3, 5)),
        (regular_tower((2,) * 3), (1, 2, 4)),
        (regular_tower((3, 2, 3)), (1, 4)),
        (mixed_tower(), (1, 3)),
    ]
    for t, levels in cases:
        sub, nmap = level_subtower(t, levels)
        mm = MultiMap.from_function(base_space(t), base_space(sub), nmap)
        cert = verify_asymorphism(mm)
        assert cert.kind == "asymorphism"
        assert cert.forward_modulus.finite
        assert cert.backward_modulus.finite
        for eps, delta in cert.forward_modulus.table:
            m = eps // 2
            remap = next(r for r, lv in enumerate(levels, start=1)
                         if lv >= m)
            assert delta <= 2 * remap


# -- degree profiles ------------------------------------------------------------------


def test_degree_profile_mixed_tower():
    prof = degree_profile(mixed_tower())
    assert prof.small == {(1, 2): 2, (1, 3): 5, (2, 3): 2}
    assert prof.large == {(1, 2): 3, (1, 3): 5, (2, 3): 2}
    assert not prof.is_homogeneous


def test_degree_profile_regular_constructor_matches_builder():
    for degrees in [(2, 3), (3, 3), (2, 2, 2), (4,)]:
        a = DegreeProfile.regular(degrees)
        b = degree_profile(regular_tower(degrees))
        assert a.small == b.small and a.large == b.large
        assert a.height == b.height


def test_degree_profile_grouped():
    prof = degree_profile(regular_tower((2, 3)))
    grouped = prof.grouped([1, 3])
    assert grouped.small == {(1, 2): 6}


def test_degree_profile_multiplicativity_bounds():
    rng = random.Random(83)
    for _ in range(20):
        t = random_tower(rng, height_min=3)
        prof = degree_profile(t)
        H = prof.height
        for i in range(1, H + 1):
            for k in range(i + 1, H + 1):
                for j in range(k + 1, H + 1):
                    assert prof.large_between(i, j) <= \
                        prof.large_between(i, k) * prof.large_between(k, j)
                    assert prof.small_between(i, j) >= \
                        prof.small_between(i, k) * prof.small_between(k, j)
        assert prof.validate().ok


# each profile breaks exactly one rule
@pytest.mark.parametrize("height, small, large, found", [
    (2, {(1, 2): 3}, {(1, 2): 2}, ("small-le-large", (1, 2), "3 > 2")),
    (3, {(1, 2): 2, (2, 3): 2, (1, 3): 3}, {(1, 2): 2, (2, 3): 2, (1, 3): 4},
     ("small-supermultiplicative", (1, 2, 3), "3 < 2 * 2")),
    (3, {(1, 2): 2, (2, 3): 2, (1, 3): 4}, {(1, 2): 2, (2, 3): 2, (1, 3): 5},
     ("large-submultiplicative", (1, 2, 3), "5 > 2 * 2")),
])
def test_degree_profile_validation_names_each_broken_rule(height, small, large, found):
    assert DegreeProfile(height, small, large).validate().violations == (
        Violation(*found),)


# -- entropy from degrees ---------------------------------------------------------------


def test_entropy_from_degrees_examples():
    assert entropy_from_degrees(regular_tower((2, 3)), 1, 1) == (1, 1)
    assert entropy_from_degrees(regular_tower((2,) * 3), 1, 2) == (2, 2)
    assert entropy_from_degrees(regular_tower((2, 3)), 0, 2) == (6, 6)
    assert entropy_from_degrees(mixed_tower(), 0, 1) == (3, 2)
    assert entropy_from_degrees(mixed_tower(), 0, 2) == (5, 5)


def test_entropy_from_degrees_rejects_bad_indices():
    t = regular_tower((2, 2))
    with pytest.raises(ValueError):
        entropy_from_degrees(t, 2, 1)
    with pytest.raises(ValueError):
        entropy_from_degrees(t, 0, 3)


def test_entropy_from_degrees_matches_profile_on_random_towers():
    rng = random.Random(91)
    for _ in range(30):
        t = random_tower(rng)
        sp = base_space(t)
        H = t.height
        grid = [2 * k for k in range(H)]
        prof = entropy_profile(sp, grid, grid, convention="closed")
        for i in range(H):
            for j in range(i, H):
                assert entropy_from_degrees(t, i, j) == \
                    prof.entries[(canon(2 * i), canon(2 * j))]


# -- ball towers --------------------------------------------------------------------------


def test_ball_tower_one_point_space():
    from coarsetowers import Space
    single = Space.from_matrix(["p"], [[0]])
    bt = ball_tower(single, (0,))
    assert node_maps(bt)[0] == ("b1:p",)
    assert bt.height == 1


def test_ball_tower_binary_square():
    w = word_space(2, 2)
    bt = ball_tower(w, (0, 1, 2))
    assert node_maps(bt)[0] == ("b1:00", "b1:01", "b1:10", "b1:11",
                        "b2:00", "b2:01", "b3:00")
    prof = degree_profile(bt)
    assert prof.small == {(1, 2): 2, (1, 3): 4, (2, 3): 2}
    assert prof.large == prof.small
    assert ball_tower_base_map(w, bt) == {
        "00": "b1:00", "01": "b1:01", "10": "b1:10", "11": "b1:11"}


def test_ball_tower_ternary_point():
    bt = ball_tower(word_space(3, 1), (0, 1))
    assert node_maps(bt)[0] == ("b1:0", "b1:1", "b1:2", "b2:0")
    assert degree_profile(bt).small == {(1, 2): 3}


def test_ball_tower_requires_radii_reaching_diameter():
    with pytest.raises(ValueError):
        ball_tower(word_space(2, 2), (0, 1))


def test_ball_tower_radii_preconditions():
    w = word_space(2, 2)
    with pytest.raises(ValueError):
        ball_tower(w, (2, 1))
    with pytest.raises(ValueError):
        ball_tower(w, ())
    # a positive first radius groups points from the bottom level on
    bt = ball_tower(w, (1, 2))
    assert node_maps(bt)[0] == ("b1:00", "b1:01", "b2:00")


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ball_tower_base_map_matches_nearest_rep_scan(seed, zero_radius):
    # reference: the pure-Python scan, nearest representative by distance,
    # least representative id among ties
    rng = random.Random(seed)
    sp = random_ultrametric(rng, n_min=2, n_max=14)
    radii = random_radii(rng, sp)
    bt = ball_tower(sp, radii if zero_radius else radii[1:])
    rep_ball = {b.split(":", 1)[1]: b for b in bt.base}
    reps = sorted(rep_ball)
    expected = {p: rep_ball[min(reps, key=lambda r: (sp.dist(p, r), r))]
                for p in sp.points}
    assert ball_tower_base_map(sp, bt) == expected


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ball_tower_nodes_are_closed_balls_about_their_reps(seed, zero_radius):
    # node b{n}:{rep} stands for the closed ball of radius radii[n-1] about
    # rep, and rep is that ball's least id
    rng = random.Random(seed)
    sp = random_ultrametric(rng, n_min=2, n_max=14)
    radii = random_radii(rng, sp)
    if not zero_radius:
        radii = radii[1:]
    bt = ball_tower(sp, radii)
    members: dict = {}
    for p, b in ball_tower_base_map(sp, bt).items():
        members.setdefault(b, set()).add(p)
    nodes, level, _ = node_maps(bt)
    for node in nodes:
        rep = node.split(":", 1)[1]
        below = set().union(*(members[b] for b in base_below(bt, node)))
        expected = set(ball(sp, rep, radii[level[node] - 1]))
        assert below == expected
        assert rep == min(expected)


def test_ball_tower_round_trip_preserves_ball_structure():
    # path-metric balls of radius 2n in the tower base match the original
    # balls of radius r_{n+1} through the canonical point-to-ball bijection
    rng = random.Random(97)
    for _ in range(10):
        sp = random_ultrametric(rng, n_min=4, n_max=10)
        radii = random_radii(rng, sp)
        bt = ball_tower(sp, radii)
        bmap = ball_tower_base_map(sp, bt)
        bsp = base_space(bt)
        for x in sp.points:
            for n, r in enumerate(radii):
                image = {bmap[y] for y in ball(sp, x, r)}
                assert image == set(ball(bsp, bmap[x], 2 * n))
