"""Relations held as sorted index arrays against the id-pair oracles.

A MultiMap keeps its graph as two arrays of point indices sorted by
(source id, target id).  Its views (pairs, fibers, cofibers, inverse,
totality and surjectivity with their witnesses, image and preimage),
compose, the selection pair and the round-trip fiber bounds must equal
what the id-pair implementations in oracles.py compute from the pairs
alone.  The spaces include ones listed out of id order (word spaces over
alphabets above 10, a plain-listed copy in reverse, regular-tower bases
whose ids are formatted on read) and the relations are multi-valued,
partial, not onto, or carry repeats.  The id ranking the graph is sorted
by must equal a keyed sort of the point indices, and the regroupings
that pair point k with point k must equal the sorted constructor's.
"""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (
    MultiMap,
    Space,
    base_space,
    compose,
    is_large,
    regular_tower,
    selection_pair,
    subspace,
    verify_asymorphism,
    word_space,
)
from coarsetowers import spaces
from coarsetowers.homogenize import _word_stage
from coarsetowers.serialization import space_from_csv, space_to_csv
from coarsetowers.spaces import word_id

from conftest import random_tower, random_ultrametric, shuffled_tower
from oracles import (
    cofibers,
    compose_pairs,
    covering_radius,
    fibers,
    inverse_pairs,
    keyed_id_ranks,
    roundtrip_fiber_diameter,
    selection,
)

SPACE_KINDS = ["words-11", "words-12", "words", "rational", "shuffled-base",
               "regular-base", "subspace", "reversed-dense"]
SHAPES = ["function", "multi", "partial", "not-onto", "onto"]


def _space(rng: random.Random, kind: str) -> Space:
    if kind == "words-11":
        return word_space(11, 2)  # "0.10" is listed before "0.2"
    if kind == "words-12":
        return word_space(12, 1)
    if kind == "words":
        return word_space(rng.randint(2, 3), rng.randint(1, 3))
    if kind == "rational":
        space = random_ultrametric(rng, 2, 14)
        assert space.is_ultrametric
        return space
    if kind == "shuffled-base":
        return base_space(shuffled_tower(rng, random_tower(rng)))
    if kind == "regular-base":
        # degrees up to 12 list "t.10" before "t.2"
        return base_space(regular_tower([rng.randint(1, 12) for _ in range(rng.randint(0, 2))]))
    if kind == "subspace":
        space = word_space(11, 2)
        return subspace(space, rng.sample(space.points, rng.randint(1, 40)))
    # a dense copy listing its points in reverse id order
    space = _space(rng, rng.choice(["words-12", "rational", "shuffled-base"]))
    back = np.argsort(space.points)[::-1]
    dense = Space([space.points[i] for i in back],
                  space.codes[np.ix_(back, back)], space.values)
    assert dense.is_ultrametric
    return dense


def _check_id_ranks(space: Space) -> None:
    """space._id_ranks() equals the keyed sort, is computed once, and
    hands out read-only int64 arrays; points in id order take no sort."""
    no_sort = mock.patch.object(spaces, "sorted", create=True,
                                side_effect=AssertionError("ids in order were sorted"))
    in_order = list(space.points) == sorted(space.points)
    with no_sort if in_order else contextlib.nullcontext():
        order, rank = space._id_ranks()
    want_order, want_rank = keyed_id_ranks(space)
    assert np.array_equal(order, want_order) and np.array_equal(rank, want_rank)
    assert order.dtype == rank.dtype == np.int64
    assert not order.flags.writeable and not rank.flags.writeable
    assert space._id_ranks()[0] is order


@given(st.integers(0, 2 ** 32), st.sampled_from(["id order", "reversed", "shuffled"]))
@settings(max_examples=60, deadline=None)
def test_id_ranks_match_the_keyed_sort(seed, arrangement):
    rng = random.Random(seed)
    base = random_ultrametric(rng, 1, 14)
    # distinct ids whose id order is not their numeric order
    ids = sorted(map(str, rng.sample(range(10 ** 4), len(base))))
    if arrangement == "reversed":
        ids.reverse()
    elif arrangement == "shuffled":
        rng.shuffle(ids)
    space = Space(ids, base.codes, base.values)
    _check_id_ranks(space)
    # a CSV whose header lists the ids so arranged
    _check_id_ranks(space_from_csv(space_to_csv(space)))


@pytest.mark.parametrize("alphabet, length", [(2, 6), (10, 2), (11, 2), (12, 2)])
def test_word_space_id_ranks_match_the_keyed_sort(alphabet, length):
    # alphabets above 10 list "0.10" before "0.2", out of id order
    _check_id_ranks(word_space(alphabet, length))


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS))
@settings(max_examples=80, deadline=None)
def test_paired_regroupings_match_the_sorted_constructor(seed, kind):
    rng = random.Random(seed)
    space = _space(rng, kind)
    # the same ids in the same order, ranked on their own
    twin = Space(space.points, space.codes, space.values)
    every = np.arange(len(space.points))
    for src, tgt in ((space, twin), (twin, space), (space, space)):
        want = MultiMap._of_indices(src, tgt, every, every)
        with mock.patch.object(MultiMap, "_of_indices",
                               side_effect=AssertionError("paired points were sorted")):
            got = MultiMap._paired(src, tgt)
            ident = MultiMap.identity(src)
        assert got.source is src and got.target is tgt
        assert np.array_equal(got.src_idx, want.src_idx)
        assert np.array_equal(got.tgt_idx, want.tgt_idx)
        assert not got.src_idx.flags.writeable and not got.tgt_idx.flags.writeable
        assert got.pairs == want.pairs
        same = MultiMap._of_indices(src, src, every, every)
        assert ident.source is ident.target is src
        assert np.array_equal(ident.src_idx, same.src_idx)
        assert np.array_equal(ident.tgt_idx, same.tgt_idx)


def _pairs(rng: random.Random, src: Space, tgt: Space, shape: str) -> list:
    """Graph pairs of one shape, some of them repeated, in random order."""
    if shape == "partial":
        sources = rng.sample(src.points, rng.randint(1, len(src.points)))
    else:
        sources = list(src.points)
    targets = tgt.points
    if shape == "not-onto" and len(targets) > 1:
        targets = rng.sample(targets, rng.randint(1, len(targets) - 1))
    pairs = []
    for a in sources:
        k = rng.randint(1, 3) if shape in ("multi", "not-onto") else 1
        pairs += [(a, b) for b in rng.sample(targets, min(k, len(targets)))]
    if shape == "onto":
        pairs += [(rng.choice(src.points), b) for b in tgt.points]
    pairs += rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
    rng.shuffle(pairs)
    return pairs


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS), st.sampled_from(SHAPES))
@settings(max_examples=120, deadline=None)
def test_relation_views_match_the_id_pair_oracles(seed, src_kind, tgt_kind, shape):
    rng = random.Random(seed)
    src, tgt = _space(rng, src_kind), _space(rng, tgt_kind)
    pairs = _pairs(rng, src, tgt, shape)
    phi = MultiMap(src, tgt, pairs)
    assert phi.pairs == tuple(sorted(set(pairs)))
    assert list(zip(phi.src_idx.tolist(), phi.tgt_idx.tolist())) == [
        (src.index(a), tgt.index(b)) for a, b in phi.pairs]
    assert list(phi.fibers.items()) == list(fibers(phi.pairs).items())
    assert phi.cofibers == cofibers(phi.pairs)
    assert phi.inverse().pairs == inverse_pairs(phi)
    assert phi.inverse().inverse().pairs == phi.pairs

    out, back = fibers(phi.pairs), cofibers(phi.pairs)
    assert phi.is_total == (len(out) == len(src))
    assert phi.is_surjective == (len(back) == len(tgt))
    assert phi.is_function == all(len(v) == 1 for v in out.values())
    assert phi.is_bijection == (phi.is_total and phi.is_surjective and all(
        len(v) == 1 for v in (*out.values(), *back.values())))
    if phi.is_function:
        assert phi.as_function() == {a: bs[0] for a, bs in out.items()}

    some = rng.sample(src.points, rng.randint(0, len(src))) + ["no-such-id"]
    assert phi.image() == tuple(sorted(back))
    assert phi.image(some) == tuple(sorted({b for a in some for b in out.get(a, ())}))
    assert phi.preimage() == tuple(sorted(out))
    hit = rng.sample(tgt.points, rng.randint(0, len(tgt)))
    assert phi.preimage(hit) == tuple(sorted({a for b in hit for a in back.get(b, ())}))

    cert = verify_asymorphism(phi)
    witness = {c.axiom: c.witness for c in cert.checks}
    assert witness["forward-surjective"] == tuple(
        p for p in tgt.points if p not in back)[:1]
    assert witness["backward-surjective"] == tuple(
        p for p in src.points if p not in out)[:1]


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SHAPES), st.sampled_from(SHAPES))
@settings(max_examples=120, deadline=None)
def test_compose_matches_the_id_pair_join(seed, k1, k2, k3, shape1, shape2):
    rng = random.Random(seed)
    a, b, c = _space(rng, k1), _space(rng, k2), _space(rng, k3)
    phi = MultiMap(a, b, _pairs(rng, a, b, shape1))
    psi = MultiMap(b, c, _pairs(rng, b, c, shape2))
    got = compose(phi, psi)
    assert got.source is a and got.target is c
    assert got.pairs == compose_pairs(phi, psi)
    assert got.inverse().pairs == compose(psi.inverse(), phi.inverse()).pairs


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS),
       st.sampled_from(SPACE_KINDS + ["same"]),
       st.sampled_from(["onto", "multi-onto"]))
@settings(max_examples=120, deadline=None)
def test_selection_pair_matches_the_id_pair_selection(seed, src_kind, tgt_kind, shape):
    rng = random.Random(seed)
    src = _space(rng, src_kind)
    tgt = src if tgt_kind == "same" else _space(rng, tgt_kind)
    pairs = _pairs(rng, src, tgt, "onto")
    if shape == "multi-onto":
        pairs += _pairs(rng, src, tgt, "multi")
    phi = MultiMap(src, tgt, pairs)
    sel = selection_pair(phi)
    f, g, s_close, t_close = selection(phi)
    assert list(sel.f.items()) == list(f.items())
    assert sel.g == g
    assert (sel.source_closeness, sel.target_closeness) == (s_close, t_close)
    assert sel.source_fiber_bound == roundtrip_fiber_diameter(phi)
    assert sel.target_fiber_bound == roundtrip_fiber_diameter(phi.inverse())


def test_the_constructor_names_the_first_bad_pair_in_sorted_order():
    space = word_space(2, 2)
    with pytest.raises(ValueError, match="pair target 'zz' not in the target space"):
        MultiMap(space, space, [("11", "00"), ("zz", "00"), ("00", "zz")])
    with pytest.raises(ValueError, match="pair source '0' not in the source space"):
        MultiMap(space, space, [("11", "zz"), ("0", "00")])


def test_an_empty_relation_has_empty_views():
    space = word_space(2, 1)
    phi = MultiMap(space, space, ())
    assert phi.pairs == () and phi.fibers == {} and phi.cofibers == {}
    assert not phi.is_total and not phi.is_surjective and phi.is_function
    assert compose(phi, MultiMap.identity(space)).pairs == ()


@given(st.integers(0, 2 ** 32), st.sampled_from(SPACE_KINDS))
@settings(max_examples=80, deadline=None)
def test_is_large_matches_column_minima(seed, kind):
    rng = random.Random(seed)
    space = _space(rng, kind)
    subset = rng.sample(space.points, rng.randint(1, len(space)))
    had_matrix = space._codes is not None
    got = is_large(space, subset)
    assert (space._codes is not None) == had_matrix  # no matrix written
    assert got == covering_radius(space, subset)


def test_is_large_reads_a_plain_metric_off_its_matrix():
    plain = Space.from_matrix(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert is_large(plain, ["a"]) == 3
    assert is_large(plain, ["b"]) == 2
    assert plain._labels is None  # not validated on the way


def test_digit_reversal_pairs_match_the_leaf_ids():
    for a, length in ((2, 3), (3, 2), (11, 2), (12, 2)):
        leaves = base_space(regular_tower([a] * length, length + 1))
        stage = _word_stage(leaves, length, a)
        want = tuple(sorted(
            (leaf, word_id([int(t) for t in leaf.split(".")[1:]][::-1], a))
            for leaf in leaves.points))
        assert stage.pairs == want and stage.is_bijection
