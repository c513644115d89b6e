"""Array kernels of towers against the dict walks and formulas they
replaced: degree profiles, base spaces and their ball-label tables,
nested-ball entropy counts, the builders and the validator."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    DegreeProfile,
    MultiMap,
    Tower,
    ball_tower,
    base_space,
    degree_profile,
    entropy_from_degrees,
    entropy_profile,
    level_subtower,
    regular_tower,
    subspace,
    validate_tower,
    word_space,
)
from coarsetowers import cli, equivalence_pipeline, serialization, spaces, towers
from coarsetowers.limits import DEFAULT_CAPS, Caps
from coarsetowers.report import ValidationReport, Violation
from coarsetowers.serialization import dump_json, tower_to_json
from coarsetowers.spaces import CLOSED, STRICT
from coarsetowers.towers import _cone_profile

from conftest import (
    brute_entropy,
    oracle_cone_profile,
    random_radii,
    random_tower,
    random_ultrametric,
    shuffled_tower,
)
from oracles import (
    ancestor,
    ancestor_ball_space,
    children_by_parent,
    class_labels,
    cone,
    node_maps,
)
from test_golden_reports import EQUIV_DIGESTS, _run, _sha


def _sample_towers(rng):
    """A random tower, a regular tower with degree-1 levels and a ball
    tower of a random ultrametric, whose ids are not depth-first."""
    space = random_ultrametric(rng)
    return [
        random_tower(rng),
        regular_tower([rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 5))]),
        ball_tower(space, random_radii(rng, space)),
    ]


# -- degree profiles ------------------------------------------------------------


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_degree_kernels_match_dict_walk(seed):
    rng = random.Random(seed)
    for tower in _sample_towers(rng):
        nodes, level, _ = node_maps(tower)
        prof = degree_profile(tower)
        ref = oracle_cone_profile(tower, nodes, tower.height)
        assert prof == ref
        assert list(prof.small) == list(ref.small)  # same entry order
        lvl = rng.randint(1, tower.height)
        if lvl == tower.height:
            roots = [tower.top]
        else:
            kids = children_by_parent(tower)[rng.choice(tower._ids[lvl])]
            roots = sorted(rng.sample(kids, rng.randint(1, len(kids))))
        nodes = sorted({x for r in roots for x in cone(tower, r)},
                       key=lambda i: (level[i], i))
        at = [tower._ids[lvl - 1].index(r) for r in roots]
        assert _cone_profile(tower, lvl, at) == \
            oracle_cone_profile(tower, nodes, lvl)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_uniform_profiles_match_the_counting_path(seed):
    # a uniform tower's profile is block arithmetic; it must agree, entry
    # for entry and in order, with the dict walk and with the counting path
    # run on a twin holding the same arrays and no blocks
    rng = random.Random(seed)
    caps = Caps(max_points=6 ** 6)
    height = rng.randint(1, 7)
    tower = regular_tower([rng.randint(1, 6) for _ in range(height - 1)], caps=caps)
    levels = sorted(rng.sample(range(1, height), rng.randint(0, height - 1))) + [height]
    for t in (tower, towers._level_subtower(tower, levels, caps)):
        assert t._blocks is not None
        twin = towers._of_arrays(t._ids, t._par, caps)
        nodes, level, _ = node_maps(t)
        lvl = rng.randint(1, t.height)
        if lvl == t.height:
            at = [0]
        else:
            p = rng.randrange(len(t._ids[lvl]))
            kids = np.flatnonzero(t._par[lvl - 1] == p).tolist()
            at = sorted(rng.sample(kids, rng.randint(1, len(kids))))
        roots = {t._ids[lvl - 1][k] for k in at}
        under = [x for x in nodes if level[x] <= lvl and ancestor(t, x, lvl) in roots]
        for prof, ref, walk in [
                (degree_profile(t), degree_profile(twin), oracle_cone_profile(t, nodes, t.height)),
                (_cone_profile(t, lvl, at), _cone_profile(twin, lvl, at),
                 oracle_cone_profile(t, under, lvl))]:
            assert prof == ref == walk
            for entries in ("small", "large"):
                assert list(getattr(prof, entries).items()) == \
                    list(getattr(ref, entries).items()) == list(getattr(walk, entries).items())


def test_uniform_profiles_are_read_off_the_blocks(monkeypatch):
    # no count is lifted and no node masked on a uniform tower: with
    # np.add.at and _under refusing, its profiles still come out, and the
    # block-less twin's counting path is refused
    def refuse(*args):
        raise AssertionError("a uniform tower's degree profile counted descendants")

    def twin(t):
        return towers._of_arrays(t._ids, t._par, DEFAULT_CAPS)

    tower = regular_tower([3] * 8)
    sub = towers._level_subtower(tower, [2, 5, 6, 9])
    expected = [(degree_profile(twin(t)), _cone_profile(twin(t), 3, [0, 2])) for t in (tower, sub)]
    monkeypatch.setattr(towers, "_under", refuse)
    monkeypatch.setattr(towers, "np", SimpleNamespace(
        **{**vars(np), "add": SimpleNamespace(at=refuse)}))
    for t, (whole, cone_of_two) in zip((tower, sub), expected):
        assert degree_profile(t) == whole
        assert _cone_profile(t, 3, [0, 2]) == cone_of_two
        with pytest.raises(AssertionError, match="counted descendants"):
            degree_profile(twin(t))


def _brute_profile(tower, nodes, top):
    """The degree profile over the level-j nodes among nodes, each
    node's descendants counted per level by a walk over its children."""
    level, children = node_maps(tower)[1], children_by_parent(tower)
    small, large = {}, {}
    for j in range(2, top + 1):
        per_node = []
        for node in (x for x in nodes if level[x] == j):
            counts, stack = Counter(), [node]
            while stack:
                for child in children[stack.pop()]:
                    counts[level[child]] += 1
                    stack.append(child)
            per_node.append(counts)
        for i in range(1, j):
            small[(i, j)] = min(c[i] for c in per_node)
            large[(i, j)] = max(c[i] for c in per_node)
    return DegreeProfile(top, small, large)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_degree_profiles_match_a_brute_force_count(seed):
    rng = random.Random(seed)
    for tower in _sample_towers(rng) + [shuffled_tower(rng, random_tower(rng))]:
        # the whole tower is its top's cone: no node is masked out
        with pytest.MonkeyPatch.context() as m:
            m.setattr(towers, "_under", None)
            assert degree_profile(tower) == \
                _brute_profile(tower, node_maps(tower)[0], tower.height)
        if tower.height < 2:
            continue
        # a sub-cone below the top: any nodes of one level, masked
        lvl = rng.randint(2 if tower.height > 2 else 1, tower.height - 1)
        row = tower._ids[lvl - 1]
        at = sorted(rng.sample(range(len(row)), rng.randint(1, len(row))))
        nodes = {x for k in at for x in cone(tower, row[k])}
        assert _cone_profile(tower, lvl, at) == _brute_profile(tower, nodes, lvl)


def test_kernels_read_the_arrays_not_the_node_dicts():
    # a Tower holds its arrays and no node dict, so the degree kernels,
    # the pipeline and the JSON writer work on _ids and _par alone, and
    # agree on the tower the validated constructor rebuilds from its maps
    assert Tower.__slots__ == ("height", "base", "_ids", "_par", "_blocks", "_profile")
    plain = regular_tower((3,) * 6)
    rebuilt = Tower(*node_maps(plain))
    assert tower_to_json(rebuilt) == tower_to_json(plain)
    assert degree_profile(rebuilt) == degree_profile(plain)
    assert dump_json(equivalence_pipeline(rebuilt).to_json()) == \
        dump_json(equivalence_pipeline(plain).to_json())


def test_equiv_builds_no_node_dicts_past_its_source(monkeypatch):
    # the source hash streams the arrays: with tower_to_json failing the
    # report keeps its bytes
    def no_document(tower):
        raise AssertionError("tower_to_json called")

    monkeypatch.setattr(cli, "tower_to_json", no_document)
    monkeypatch.setattr(serialization, "tower_to_json", no_document)
    argv = ("equiv", "--from", "regular:3", "--height", "9", "--to", "binary")
    assert _sha(_run(argv)) == EQUIV_DIGESTS[argv]


# -- base spaces and their label tables -------------------------------------------


def _assert_label_table(base):
    for k in range(len(base.values)):
        assert np.array_equal(base.ball_labels(k), class_labels(base.codes, k))


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_base_label_table_matches_class_labels(seed):
    for tower in _sample_towers(random.Random(seed)):
        _assert_label_table(base_space(tower))


@pytest.mark.parametrize("degrees", [(), (12, 2, 11), (1, 3, 1), (11,)])
def test_base_label_table_is_born_complete(degrees, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a tower base scanned its codes for labels")

    base = base_space(regular_tower(degrees))
    monkeypatch.setattr(spaces, "_strong_triangle", no_scan)
    rows = [base.ball_labels(k) for k in range(len(base.values))]
    monkeypatch.undo()
    assert np.array_equal(rows[0], np.arange(len(base)))
    _assert_label_table(base)


def _assert_same_space(got, ref):
    assert got.points == ref.points
    assert got.values == ref.values
    assert len(got._labels) == len(ref._labels)
    for row, ref_row in zip(got._labels, ref._labels):
        assert row.dtype == ref_row.dtype == np.int64
        assert np.array_equal(row, ref_row)
    assert got.codes.dtype == ref.codes.dtype
    assert np.array_equal(got.codes, ref.codes)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_base_space_matches_ancestor_partitions(seed):
    rng = random.Random(seed)
    # random, shuffled, degree-1 regular and ball towers, and height 1
    for tower in _sample_towers(rng) + [
            shuffled_tower(rng, random_tower(rng, height_min=1)),
            shuffled_tower(rng, regular_tower([rng.choice((1, 2)) for _ in range(4)])),
            regular_tower(())]:
        _assert_same_space(base_space(tower), ancestor_ball_space(tower))


@pytest.mark.parametrize("degrees, values", [
    ((), (0,)),
    ((1,), (0,)),
    ((1, 2, 1, 1, 3), (0, 4, 10)),
    ((2, 1, 1), (0, 2)),
    ((3, 3), (0, 2, 4)),
])
def test_base_space_drops_the_levels_that_merge_nothing(degrees, values):
    tower = regular_tower(degrees)
    base = base_space(tower)
    assert base.values == values
    _assert_same_space(base, ancestor_ball_space(tower))


def test_a_base_builds_its_id_index_on_first_lookup():
    tower = regular_tower((3, 2, 4))
    expected = {p: k for k, p in enumerate(tower.base)}
    lookups = [
        lambda b: [b.index(p) for p in b.points] == list(range(len(b))),
        lambda b: all(p in b for p in b.points) and "t" not in b,
        lambda b: MultiMap(b, b, [(p, p) for p in b.points]).src_idx.tolist()
        == list(range(len(b))),
    ]
    for lookup in lookups:
        base = base_space(tower)
        assert base._index is None
        assert lookup(base)
        assert base._index == expected
    base = base_space(tower)
    with pytest.raises(KeyError, match="unknown point id: 't'"):
        base.index("t")
    with pytest.raises(ValueError, match="pair source 't' not in the source space"):
        MultiMap(base, base, [("t", base.points[0])])
    # a subspace's ids are some of the space's: not checked again either
    sub = subspace(base, base.points[::2])
    assert sub._index is None
    assert sub.index(base.points[2]) == 1


# -- nested-ball entropy ------------------------------------------------------------


def _unique_formula(space, te, td):
    """The sort-based count the nested-ball count replaced: distinct
    (delta-label, eps-label) pairs per delta-label."""
    n = len(space.points)
    le, ld = space.ball_labels(te), space.ball_labels(td)
    cls, cnt = np.unique(np.unique(ld * n + le) // n, return_counts=True)
    counts = cnt[np.searchsorted(cls, ld)]
    return int(counts.max()), int(counts.min())


def _check_entropy(space):
    diam = space.diameter()
    deltas = list(space.values) + [diam + 1]
    for convention in (CLOSED, STRICT):
        # strict nets need a radius above 0; radii between and above the
        # values put te below, at and above td
        eps_list = [v for v in space.values if v > 0 or convention == CLOSED]
        eps_list += [diam + 1] + [Fraction(a + b) / 2 for a, b in
                                  zip(space.values, space.values[1:])]
        prof = entropy_profile(space, eps_list, deltas, convention)
        seen = set()
        for eps in eps_list:
            te = space.threshold_code(eps, convention)
            for delta in deltas:
                td = space.threshold_code(delta, CLOSED)
                seen.add((te > td) - (te < td))
                got = prof.entries[(eps, delta)]
                assert got == _unique_formula(space, te, td)
                assert got == brute_entropy(space, eps, delta, convention)
        assert seen == {-1, 0, 1}


@given(st.integers(0, 2 ** 32))
@settings(max_examples=20, deadline=None)
def test_entropy_matches_unique_formula_and_brute_force(seed):
    rng = random.Random(seed)
    space = random_ultrametric(rng, n_min=4, n_max=9)
    _check_entropy(space)
    # dropping points can leave some distance values unrealized
    _check_entropy(subspace(
        space, rng.sample(space.points, rng.randint(2, len(space.points)))))


@pytest.mark.parametrize("alphabet, length", [(2, 3), (3, 2)])
def test_word_space_entropy_matches_unique_formula_and_brute_force(alphabet, length):
    _check_entropy(word_space(alphabet, length))


# -- builders and the validator -------------------------------------------------------


def _regular_dicts(degrees):
    """The raw (ids, level, parent) of a regular tower, breadth first."""
    height = len(degrees) + 1
    ids, level, parent = ["t"], {"t": height}, {"t": None}
    frontier = ["t"]
    for lv in range(height - 1, 0, -1):
        nxt = []
        for p in frontier:
            for c in range(degrees[lv - 1]):
                cid = f"{p}.{c}"
                ids.append(cid)
                level[cid] = lv
                parent[cid] = p
                nxt.append(cid)
        frontier = nxt
    return ids, level, parent


def _fields(tower):
    return (tower.height, *node_maps(tower), children_by_parent(tower), tower.base)


@pytest.mark.parametrize("degrees", [
    (), (1,), (2, 3), (1, 12, 1), (12, 2, 11), (11, 11), (3, 1, 2, 1)])
def test_regular_tower_matches_validated_constructor(degrees):
    built = regular_tower(degrees)
    assert _fields(built) == _fields(Tower(*_regular_dicts(degrees)))
    # each level lists its ids in id order, so the children of a degree-12
    # node run "t.10" before "t.2"
    assert all(list(row) == sorted(row) for row in built._ids)
    for levels in ([built.height], [1, built.height], range(min(2, built.height), built.height + 1)):
        sub, next_map = level_subtower(built, levels)
        chosen = sorted(set(levels))
        rank = {lv: k for k, lv in enumerate(chosen, start=1)}
        nodes, level, parent = node_maps(built)
        ids = [x for x in nodes if level[x] in rank]

        def up(x):
            x = parent[x]
            while x is not None and level[x] not in rank:
                x = parent[x]
            return x
        ref = Tower(ids, {x: rank[level[x]] for x in ids},
                    {x: up(x) for x in ids})
        assert _fields(sub) == _fields(ref)
        assert next_map == {b: ancestor(built, b, chosen[0]) for b in built.base}


@given(st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_level_subtowers_are_valid_towers(seed):
    # _level_subtower does not validate what it builds, so the validator
    # checks it here, and the constructor rebuilds the same arrays
    rng = random.Random(seed)
    for tower in _sample_towers(rng):
        below = rng.sample(range(1, tower.height), rng.randint(0, tower.height - 1))
        sub = towers._level_subtower(tower, sorted(below) + [tower.height])
        assert validate_tower(*node_maps(sub)).ok
        ref = Tower(*node_maps(sub))
        assert sub._ids == ref._ids
        assert all(map(np.array_equal, sub._par, ref._par))


def _reference_validate_tower(node_ids, level, parent):
    """The validator before its chains-reach-top walk was skipped on towers
    that break no other rule, kept verbatim as the oracle."""
    violations = []
    checked = (
        "unique-ids", "levels-total", "single-top", "parent-structure",
        "level-condition", "chains-reach-top",
    )
    ids = list(node_ids)
    seen = set()
    for i in ids:
        if i in seen:
            violations.append(Violation("unique-ids", (i,), "duplicate node id"))
        seen.add(i)
    for i in ids:
        lv = level.get(i)
        if type(lv) is not int or lv < 1:
            violations.append(Violation(
                "levels-total", (i,), f"level must be an integer >= 1, got {lv!r}"))
    levels_ok = [i for i in ids if type(level.get(i)) is int and level[i] >= 1]
    if not levels_ok:
        violations.append(Violation("levels-total", (), "no validly leveled nodes"))
        return ValidationReport("tower axioms", checked, tuple(violations))
    height = max(level[i] for i in levels_ok)
    if min(level[i] for i in levels_ok) != 1:
        violations.append(Violation(
            "levels-total", (), "lowest level must be 1"))
    tops = [i for i in levels_ok if level[i] == height]
    if len(tops) != 1:
        violations.append(Violation(
            "single-top", tuple(sorted(tops)),
            f"expected exactly one node at top level {height}, got {len(tops)}"))
    has_child = set()
    for i in levels_ok:
        p = parent.get(i)
        if level[i] == height:
            if p is not None:
                violations.append(Violation(
                    "parent-structure", (i,), "top node must have no parent"))
            continue
        if p is None:
            violations.append(Violation(
                "parent-structure", (i,), "non-top node lacks a parent"))
            continue
        if p not in seen:
            violations.append(Violation(
                "parent-structure", (i, p), "parent id not among the nodes"))
            continue
        has_child.add(p)
        if type(level.get(p)) is int and level[p] != level[i] + 1:
            violations.append(Violation(
                "level-condition", (i, p),
                f"parent at level {level.get(p)} is not one above {level[i]}"))
    for i in levels_ok:
        if level[i] > 1 and i not in has_child:
            violations.append(Violation(
                "level-condition", (i,),
                f"node at level {level[i]} has no child, so its cone "
                f"cannot realize the level count"))
    for i in levels_ok:
        cur, steps = i, 0
        while parent.get(cur) is not None and steps <= height + 1:
            cur = parent[cur]
            steps += 1
            if cur not in seen:
                break
        if cur in seen and type(level.get(cur)) is int and level[cur] != height:
            if parent.get(cur) is None and level[cur] != height:
                violations.append(Violation(
                    "chains-reach-top", (i, cur),
                    "parent chain ends below the top"))
    return ValidationReport("tower axioms", checked, tuple(violations))


_MUTATIONS = (
    "dropped-parent", "two-level-hop", "cycle", "duplicate-id", "second-top",
    "bad-level", "foreign-parent", "childless", "top-parent", "missing-level",
    "shifted-levels", "level-zero", "empty")


def _mutate(rng, tower, kind):
    nodes, level, parent = node_maps(tower)
    ids, level, parent = list(nodes), dict(level), dict(parent)
    rng.shuffle(ids)
    below = [x for x in ids if x != tower.top]
    x = rng.choice(below) if below else tower.top
    if kind == "dropped-parent" and below:
        del parent[x]
    elif kind == "two-level-hop":
        low = [y for y in below if level[y] <= tower.height - 2]
        if low:
            y = rng.choice(low)
            parent[y] = parent[parent[y]]
    elif kind == "cycle" and below:
        parent[parent[x]] = x
    elif kind == "duplicate-id":
        ids.append(rng.choice(ids))
    elif kind == "second-top":
        ids.append("extra")
        level["extra"] = tower.height
        parent["extra"] = None
    elif kind == "bad-level":
        level[x] = rng.choice((True, 2.5))
    elif kind == "foreign-parent" and below:
        parent[x] = "elsewhere"
    elif kind == "childless":
        # a node above level 1 whose parent is real but which has no child
        inner = [y for y in below if level[y] > 1]
        if inner:
            y = rng.choice(inner)
            ids.append("childless")
            level["childless"] = level[y]
            parent["childless"] = parent[y]
    elif kind == "top-parent":
        parent[tower.top] = rng.choice(ids)
    elif kind == "missing-level":
        del level[x]
    elif kind == "shifted-levels":
        level = {y: lv + 1 for y, lv in level.items()}
    elif kind == "level-zero":
        level = {y: lv - 1 for y, lv in level.items()}
    elif kind == "empty":
        ids = []
    return ids, level, parent


@given(st.integers(0, 2 ** 32), st.sampled_from(("none",) + _MUTATIONS))
@settings(max_examples=300, deadline=None)
def test_validate_tower_matches_reference(seed, kind):
    rng = random.Random(seed)
    tower = random_tower(rng, height_min=1, height_max=5)
    ids, level, parent = _mutate(rng, tower, kind)
    ref = _reference_validate_tower(ids, level, parent)
    assert validate_tower(ids, level, parent) == ref
    _assert_tower_raises_exactly_on(ref, ids, level, parent)


def _assert_tower_raises_exactly_on(ref, ids, level, parent):
    """Tower(ids, level, parent) raises when the reference report names a
    violation, with that report's require() message, and builds a valid
    tower otherwise."""
    if ref.ok:
        assert validate_tower(Tower(ids, level, parent)).ok
        return
    with pytest.raises(ValueError) as want:
        dataclasses.replace(ref, subject="tower").require()
    with pytest.raises(ValueError) as got:
        Tower(ids, level, parent)
    assert str(got.value) == str(want.value)


def test_validate_tower_stops_walking_a_cycle_at_a_huge_level():
    # the walk used to take up to height steps round the cycle, and the
    # array form allocates no row for a level beyond the node count
    ids, level = ["r", "a"], {"r": 10 ** 30, "a": 1}
    hop = ("level-condition", ("a", "r"))
    for parent, want in [({"r": "r", "a": "r"}, [("parent-structure", ("r",)), hop]),
                         ({"a": "r"}, [hop])]:
        rep = validate_tower(ids, level, parent)
        assert [(v.rule, v.witness) for v in rep.violations] == want
        _assert_tower_raises_exactly_on(rep, ids, level, parent)


def test_ids_that_do_not_sort_keep_their_verdict():
    # one level mixes str and int ids: the data is valid, but a Tower
    # lists each level in id order
    ids, level, parent = ["t", 1, "a"], {"t": 2, 1: 1, "a": 1}, {1: "t", "a": "t"}
    assert validate_tower(ids, level, parent) == _reference_validate_tower(ids, level, parent)
    assert validate_tower(ids, level, parent).ok
    with pytest.raises(TypeError):
        Tower(ids, level, parent)
    # invalid data is named by the walk, and Tower raises the report
    ids, level = ids + ["u"], {**level, "u": 2}
    ref = _reference_validate_tower(ids, level, parent)
    assert [v.rule for v in ref.violations] == ["single-top", "level-condition"]
    assert validate_tower(ids, level, parent) == ref
    _assert_tower_raises_exactly_on(ref, ids, level, parent)


@pytest.mark.parametrize("kind", _MUTATIONS)
def test_every_mutation_kind_breaks_a_rule_the_reference_names(kind):
    # a height-4 tower with a branching node on every level gives each
    # mutation somewhere to bite
    tower = regular_tower((2, 2, 2))
    for seed in range(5):
        ids, level, parent = _mutate(random.Random(seed), tower, kind)
        ref = _reference_validate_tower(ids, level, parent)
        assert not ref.ok
        assert validate_tower(ids, level, parent) == ref


_ARRAY_CORRUPTIONS = ("repeated-id", "second-top", "childless")


def _corrupt_arrays(rng, tower, kind):
    """The tower's array form, broken so that its views still build:
    an id of one level repeated on another, a second node on the top
    level, or a node above level 1 that no node points to."""
    ids = [list(row) for row in tower._ids]
    par = list(tower._par)
    if kind == "repeated-id" and tower.height > 1:
        lo, hi = sorted(rng.sample(range(tower.height), 2))
        ids[hi][rng.randrange(len(ids[hi]))] = rng.choice(ids[lo])
    elif kind == "second-top":
        ids[-1].append("extra")
    elif kind == "childless" and tower.height > 2:
        lv = rng.randrange(1, tower.height - 1)  # a row strictly inside
        ids[lv].append("childless")
        par[lv] = np.append(par[lv], rng.randrange(len(ids[lv + 1])))
    return towers._of_arrays(ids, par, towers.DEFAULT_CAPS)


@given(st.integers(0, 2 ** 32), st.sampled_from(("none",) + _ARRAY_CORRUPTIONS))
@settings(max_examples=200, deadline=None)
def test_array_verdict_matches_the_dict_walk(seed, kind):
    rng = random.Random(seed)
    tower = rng.choice(_sample_towers(rng) + [random_tower(rng, height_min=1)])
    broken = _corrupt_arrays(rng, tower, kind)
    report = validate_tower(broken)
    assert report == validate_tower(*node_maps(broken))
    assert report.ok == (broken._ids == tower._ids)


def test_every_array_corruption_is_named_by_the_dict_walk():
    tower = regular_tower((2, 2, 2))
    for kind in _ARRAY_CORRUPTIONS:
        broken = _corrupt_arrays(random.Random(0), tower, kind)
        report = validate_tower(broken)
        assert not report.ok
        assert report == validate_tower(*node_maps(broken))


@pytest.mark.parametrize("fault", ["minus-one", "past-the-end", "short", "float", "missing"])
def test_unreadable_parent_arrays_fail_the_build(fault):
    tower = regular_tower((2, 3))
    par = [p.copy() for p in tower._par]
    if fault == "minus-one":
        par[0][1] = -1
    elif fault == "past-the-end":
        par[0][1] = len(tower._ids[1])
    elif fault == "short":
        par[0] = par[0][:-1]
    elif fault == "float":
        par[0] = par[0].astype(float)
    else:
        par.pop()
    with pytest.raises(ValueError, match="parent-structure .*parent ind"):
        towers._built(tower._ids, par, towers.DEFAULT_CAPS)


def test_validate_tower_takes_no_maps_with_a_tower():
    tower = regular_tower((2,))
    with pytest.raises(TypeError):
        validate_tower(tower, *node_maps(tower)[1:])


@pytest.mark.parametrize("degrees", [(), (3,), (2, 12, 3), (1, 2, 1)])
def test_degree_entropy_matches_the_base_profile(degrees):
    tower = regular_tower(degrees)
    radii = [2 * i for i in range(tower.height)]
    profile = entropy_profile(base_space(tower), radii, radii, CLOSED)
    for i in range(tower.height):
        for j in range(i, tower.height):
            assert profile.entries[(2 * i, 2 * j)] == entropy_from_degrees(tower, i, j)


def test_cone_oracle_lists_each_lower_cone():
    tower = regular_tower((2, 3))
    assert cone(tower, "t.1") == ("t.1.0", "t.1.1", "t.1")
    assert cone(tower, "t.2.0") == ("t.2.0",)
    assert len(cone(tower, "t")) == 10
    with pytest.raises(KeyError):
        cone(tower, "t.3")
