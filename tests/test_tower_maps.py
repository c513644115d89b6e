"""Tower maps held as one index array per level: the germ builder's level
descent and the embedding's gathers against the node-dict constructions
they replaced (tests/oracles.py), and a guard that equiv and embed read
no node navigation of a Tower."""

import io
import random
import re
from bisect import bisect_left
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    AdmissibleSequences,
    Tower,
    ball_tower,
    degree_profile,
    equivalence_pipeline,
    regular_tower,
    tower_embedding,
)
from coarsetowers import homogenize
from coarsetowers.cli import main
from coarsetowers.morphisms import _admissible_morphism, _germ_levels
from coarsetowers.serialization import dump_json, tower_to_json
from coarsetowers.towers import _node_dict

from conftest import (
    random_radii,
    random_tower,
    random_ultrametric,
    shuffled_tower,
)
from oracles import children_by_parent, germ_descent, greedy_embedding, node_maps
from test_golden_reports import EQUIV_DIGESTS, _sha


def _some_tower(rng):
    """A random tower of height 2-5, the same under shuffled ids, or a
    ball tower: in the last two, siblings are not contiguous in id order."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_tower(rng, 2, 5)
    if kind == 1:
        return shuffled_tower(rng, random_tower(rng, 2, 5))
    space = random_ultrametric(rng)
    return ball_tower(space, random_radii(rng, space))


def _germ_instance(rng):
    """(t1, roots, t2, w, seqs): a sibling set of t1, a node of t2 on the
    same level and random windows, feasible or not."""
    t1, t2 = _some_tower(rng), _some_tower(rng)
    top = min(t1.height, t2.height)
    lvl = rng.randint(min(2, top), top)
    if lvl == t1.height:
        roots = [t1.top]
    else:
        kids = children_by_parent(t1)[rng.choice(t1._ids[lvl])]
        roots = sorted(rng.sample(kids, rng.randint(1, len(kids))))
    w = rng.choice(t2._ids[lvl - 1])
    a = [rng.choice((1, 1, 2, Fraction(3, 2))) for _ in range(lvl)]
    seqs = AdmissibleSequences(a, [ai + rng.choice((2, 3, 4, 8)) for ai in a])
    return t1, roots, t2, w, seqs


def _levels(t1, roots, t2, w, seqs):
    lvl = len(seqs)
    return _germ_levels(t1, [bisect_left(t1._ids[lvl - 1], r) for r in roots],
                        t2, bisect_left(t2._ids[lvl - 1], w), seqs)


def _named(err) -> str:
    """The source node an infeasibility message names."""
    return re.match(r"level \d+(?:: node | under )'([^']*)'", str(err)).group(1)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_germ_levels_match_recursive_descent(seed):
    rng = random.Random(seed)
    t1, roots, t2, w, seqs = _germ_instance(rng)
    try:
        want = germ_descent(t1, roots, t2, w, seqs)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            _levels(t1, roots, t2, w, seqs)
        # the level loop names the first infeasible node top-down; the
        # recursion meets a deeper one first only when a higher level
        # fails as well
        if str(got.value) != str(err):
            level = node_maps(t1)[1]
            assert level[_named(got.value)] > level[_named(err)]
        return
    assert _node_dict(_levels(t1, roots, t2, w, seqs), t1, t2) == want


def test_germ_levels_name_the_recursion_failure():
    """Byte-identical messages for each infeasibility on one failing node,
    in a tower whose ids are not depth-first."""
    t1 = shuffled_tower(random.Random(5), regular_tower((2, 3)))
    t2 = regular_tower((2, 2))
    # the top's 3 children cut into 2 blocks below the window's 2; then
    # the lone level-2 node of its fiber cuts 2 children into 2 blocks
    # below the window's 2
    for seqs in (AdmissibleSequences((1, 2, 1), (3, 4, 3)),
                 AdmissibleSequences((2, 1, 1), (4, 3, 3))):
        with pytest.raises(ValueError, match="infeasible window") as want:
            germ_descent(t1, [t1.top], t2, t2.top, seqs)
        with pytest.raises(ValueError) as got:
            _levels(t1, [t1.top], t2, t2.top, seqs)
        assert str(got.value) == str(want.value)
    # three siblings onto a node with two children
    wide, seqs = regular_tower((3, 3)), AdmissibleSequences((1, 1), (3, 5))
    with pytest.raises(ValueError, match="receives no image children") as want:
        germ_descent(wide, wide._ids[1], t2, "t.0", seqs)
    with pytest.raises(ValueError) as got:
        _levels(wide, wide._ids[1], t2, "t.0", seqs)
    assert str(got.value) == str(want.value)


def test_pipeline_germs_match_recursion(monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, _admissible_morphism(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(homogenize, "_admissible_morphism", recorded)
    for degrees in ((3,) * 6, (2,) * 11, (5,) * 5, (2, 3) * 4, (3, 2) * 4):
        equivalence_pipeline(regular_tower(degrees))
    assert len(calls) == 5
    for (t1, lvl, at, t2, w_at, seqs), (phi, _, _) in calls:
        roots = [t1._ids[lvl - 1][k] for k in at]
        assert _node_dict(phi, t1, t2) == germ_descent(t1, roots, t2, t2._ids[lvl - 1][w_at], seqs)


def _dominating(rng, tower):
    """A tower of the same height with at least as many children per node
    on each level as the tower's largest degree there, ids shuffled half
    the time."""
    prof = degree_profile(tower)
    big = regular_tower([prof.consecutive_large(k) + rng.randint(0, 2)
                         for k in range(1, tower.height)], tower.height)
    return shuffled_tower(rng, big) if rng.random() < 0.5 else big


@given(st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_embedding_levels_match_greedy_loop(seed):
    rng = random.Random(seed)
    t1 = _some_tower(rng)
    t2 = _dominating(rng, t1)
    assign, _ = tower_embedding(t1, t2)
    assert assign == greedy_embedding(t1, t2)


def _cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_tower_maps_read_no_node_navigation(tmp_path):
    """equiv and embed run on the parent arrays alone: a Tower has no
    children or cone to read, and both give their usual bytes."""
    small = tmp_path / "small.json"
    big = tmp_path / "big.json"
    small.write_text(dump_json(tower_to_json(
        shuffled_tower(random.Random(1), regular_tower((2, 3, 2))))))
    big.write_text(dump_json(tower_to_json(regular_tower((3, 3, 2)))))
    embedded = _cli(["embed", str(small), str(big)])
    assert not any(hasattr(Tower, name) for name in ("nodes", "level", "parent", "children", "cone"))
    key = ("equiv", "--from", "regular:3")
    assert _sha(_cli(key)) == EQUIV_DIGESTS[key]
    assert _cli(["embed", str(small), str(big)]) == embedded
