"""Serialization: JSON and CSV round trips, content hashing, and the
certified pipeline report format."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import MultiMap, Space, Tower, regular_tower, word_space
from coarsetowers.rationals import canon, rat_parse
from coarsetowers.serialization import (
    content_hash,
    dump_csv,
    dump_json,
    multimap_to_json,
    pipeline_report,
    rat_from_json,
    rat_json,
    rat_str,
    space_from_csv,
    space_from_json,
    space_to_csv,
    space_to_json,
    tower_from_json,
    tower_to_json,
)
from coarsetowers.spaces import _encode_cells, _pick_dtype

from conftest import random_ultrametric


# -- spaces ---------------------------------------------------------------------


def test_space_json_round_trip():
    w = word_space(2, 2)
    data = space_to_json(w)
    assert sorted(data) == ["dist", "points"]
    back = space_from_json(data)
    assert back.points == w.points
    for x in w.points:
        for y in w.points:
            assert back.dist(x, y) == w.dist(x, y)


def test_space_csv_round_trip():
    w = word_space(2, 2)
    text = space_to_csv(w)
    assert text.splitlines()[0] == "id,00,01,10,11"
    back = space_from_csv(text)
    assert back.points == w.points
    for x in w.points:
        for y in w.points:
            assert back.dist(x, y) == w.dist(x, y)


def test_space_round_trips_preserve_fractional_distances():
    import random
    rng = random.Random(131)
    for _ in range(8):
        sp = random_ultrametric(rng)
        via_json = space_from_json(space_to_json(sp))
        via_csv = space_from_csv(space_to_csv(sp))
        for x in sp.points:
            for y in sp.points:
                assert via_json.dist(x, y) == sp.dist(x, y)
                assert via_csv.dist(x, y) == sp.dist(x, y)


# -- towers ---------------------------------------------------------------------


def test_tower_json_round_trip():
    t = regular_tower((2, 3))
    data = tower_to_json(t)
    assert sorted(data) == ["height", "nodes"]
    assert data["nodes"][0] == {"id": "t.0.0", "level": 1, "parent": "t.0"}
    back = tower_from_json(data)
    assert back.nodes == t.nodes
    assert back.level == t.level
    assert back.parent == t.parent


def test_tower_from_json_validates():
    bad = {"height": 3,
           "nodes": [{"id": "top", "level": 3, "parent": None},
                     {"id": "leaf", "level": 1, "parent": "top"}]}
    with pytest.raises(ValueError):
        tower_from_json(bad)


@pytest.mark.parametrize("declared, height", [(2.7, 2), (True, 1), ("2", 2)])
def test_tower_from_json_rejects_non_integer_declared_height(declared, height):
    # int() reads each declared value as the chain's real height; the
    # declared height is judged by type, like the levels
    nodes = [{"id": f"n{lv}", "level": lv,
              "parent": f"n{lv + 1}" if lv < height else None}
             for lv in range(height, 0, -1)]
    with pytest.raises(ValueError, match="declared height"):
        tower_from_json({"height": declared, "nodes": nodes})
    assert tower_from_json({"height": height, "nodes": nodes}).height == height


@pytest.mark.parametrize("level", [2.7, True, "2"])
def test_tower_from_json_rejects_non_integer_levels(level):
    # int() would read 2.7 and "2" as 2 and True as 1: levels are taken as
    # written and judged by the validator
    data = {"nodes": [{"id": "top", "level": level, "parent": None},
                      {"id": "leaf", "level": 1, "parent": "top"}]}
    with pytest.raises(ValueError, match="levels-total"):
        tower_from_json(data)


# -- one encoder ----------------------------------------------------------------


CELLS = st.one_of(st.integers(-1000, 1000),
                  st.fractions(-50, 50, max_denominator=9))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_csv_and_json_loaders_encode_like_from_matrix(data):
    n = data.draw(st.integers(1, 13))
    matrix = data.draw(st.lists(st.lists(CELLS, min_size=n, max_size=n),
                                min_size=n, max_size=n))
    points = [f"p{i}" for i in range(n)]
    direct = Space.from_matrix(points, matrix)
    via_json = space_from_json(
        {"points": points, "dist": [[rat_json(v) for v in row] for row in matrix]})
    via_csv = space_from_csv("".join(
        [",".join(["id"] + points) + "\n"]
        + [",".join([p] + [rat_str(v) for v in row]) + "\n"
           for p, row in zip(points, matrix)]))
    assert direct.values == tuple(sorted({canon(v) for row in matrix for v in row}))
    assert all(direct.values[direct.codes[i, j]] == matrix[i][j]
               for i in range(n) for j in range(n))
    for sp in (via_json, via_csv):
        assert sp.points == direct.points
        assert sp.values == direct.values
        assert sp.codes.dtype == direct.codes.dtype
        assert np.array_equal(sp.codes, direct.codes)


def _reference_encode(matrix):
    """The encoder as it was before the cells went through one id table:
    the n^2 list of rationals, one set of canonical values, one sort, and
    one fromiter pass over a value-to-code dict."""
    n = len(matrix)
    cells = list(itertools.chain.from_iterable(matrix))
    vals = sorted({canon(v) for v in set(cells)})
    code_of = {v: i for i, v in enumerate(vals)}
    codes = np.fromiter(map(code_of.__getitem__, cells),
                        dtype=_pick_dtype(len(vals)), count=n * n).reshape(n, n)
    return tuple(vals), codes


def _cell_text(value, form: str, scale: int) -> str:
    """A CSV rendering of the value: bare, space-padded, or as p/q with
    numerator and denominator both scaled (so 2 may read 4/2, 0 read 0/5)."""
    if form == "padded":
        return f" {rat_str(value)} "
    if form == "scaled":
        value = Fraction(value)
        return f"{value.numerator * scale}/{value.denominator * scale}"
    return rat_str(value)


def _assert_encodes_like_reference(space, points, matrix):
    vals, codes = _reference_encode(matrix)
    assert space.points == tuple(points)
    assert space.values == vals
    assert space.codes.dtype == codes.dtype
    assert np.array_equal(space.codes, codes)


TEXT_CELLS = st.tuples(CELLS, st.sampled_from(["bare", "padded", "scaled"]),
                       st.integers(1, 5))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cell_encoder_matches_the_reference_encoder(data):
    n = data.draw(st.integers(0, 12))
    texts = data.draw(st.lists(st.lists(TEXT_CELLS, min_size=n, max_size=n),
                               min_size=n, max_size=n))
    matrix = [[v for v, _, _ in row] for row in texts]
    points = [f"p{i}" for i in range(n)]
    # as from_matrix passes them: ints, Fractions, Fractions equal to ints
    as_given = [[Fraction(v) if form == "scaled" else v for v, form, _ in row]
                for row in texts]
    _assert_encodes_like_reference(
        _encode_cells(points, as_given, canon), points, matrix)
    _assert_encodes_like_reference(
        Space.from_matrix(points, as_given), points, matrix)
    text_rows = [[_cell_text(*cell) for cell in row] for row in texts]
    _assert_encodes_like_reference(
        _encode_cells(points, text_rows, rat_parse), points, matrix)
    if n:
        csv = "".join([",".join(["id"] + points) + "\n"] + [
            ",".join([p] + row) + "\n" for p, row in zip(points, text_rows)])
        _assert_encodes_like_reference(space_from_csv(csv), points, matrix)


@given(st.integers(31_995, 32_005), st.integers(0, 2 ** 32))
@settings(max_examples=8, deadline=None)
def test_cell_encoder_switches_dtype_where_the_reference_does(distinct, seed):
    # 179^2 = 32041 cells hold every count of values around 32000; a few
    # of the values are fractions
    rng = random.Random(seed)
    n = 179
    flat = [k % distinct - 16_000 for k in range(n * n)]
    flat = [Fraction(2 * v + 1, 2) if v % 1000 == 0 else v for v in flat]
    rng.shuffle(flat)
    matrix = [flat[i * n:(i + 1) * n] for i in range(n)]
    points = [f"q{i:03d}" for i in range(n)]
    text_rows = [[_cell_text(v, rng.choice(["bare", "padded", "scaled"]), 2)
                  for v in row] for row in matrix]
    space = _encode_cells(points, text_rows, rat_parse)
    _assert_encodes_like_reference(space, points, matrix)
    assert space.codes.dtype == (np.int16 if distinct < 32_000 else np.int32)


def test_equal_rationals_share_one_code():
    sp = space_from_csv("id,a,b\na,0,4/2\nb,2,0/5\n")
    assert sp.values == (0, 2)
    assert sp.codes.tolist() == [[0, 1], [1, 0]]


def test_zero_denominator_is_an_input_error():
    with pytest.raises(ValueError, match="zero denominator"):
        rat_parse("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        space_from_csv("id,a,b\na,0,1/0\nb,1,0\n")
    with pytest.raises(ValueError, match="zero denominator"):
        rat_from_json("3/0")


# -- multimaps -------------------------------------------------------------------


def test_multimap_json_shape():
    w = word_space(2, 1)
    mm = MultiMap.identity(w)
    data = multimap_to_json(mm, "the-source", "the-target")
    assert data == {
        "source_ref": "the-source",
        "target_ref": "the-target",
        "pairs": [["0", "0"], ["1", "1"]],
    }


# -- rationals and writers --------------------------------------------------------


def test_rat_json_uses_ints_and_fraction_strings():
    assert rat_json(4) == 4
    assert rat_json(Fraction(8, 2)) == 4
    assert rat_json(Fraction(3, 2)) == "3/2"
    assert rat_from_json(4) == 4
    assert rat_from_json("3/2") == Fraction(3, 2)


@given(st.integers(0, 10**9), st.integers(1, 10**6))
@settings(max_examples=60, deadline=None)
def test_rat_json_round_trip(num, den):
    value = canon(Fraction(num, den))
    assert canon(rat_from_json(rat_json(value))) == value


def test_dump_json_is_deterministic():
    a = dump_json({"b": 1, "a": [rat_json(Fraction(1, 3))]})
    b = dump_json({"a": [rat_json(Fraction(1, 3))], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_dump_csv_renders_rationals():
    text = dump_csv(["x", "y"], [[1, rat_str(Fraction(1, 2))], [2, 3]])
    assert text.splitlines() == ["x,y", "1,1/2", "2,3"]


# -- content hashing ----------------------------------------------------------------


def test_content_hash_stability_and_sensitivity():
    a = space_to_json(word_space(2, 2))
    b = space_to_json(word_space(2, 2))
    c = space_to_json(word_space(2, 3))
    assert content_hash(a) == content_hash(b)
    assert content_hash(a) != content_hash(c)
    digest = content_hash(a)
    assert len(digest) == 16
    assert all(ch in "0123456789abcdef" for ch in digest)


def test_content_hash_ignores_key_order():
    assert content_hash({"x": 1, "y": 2}) == content_hash({"y": 2, "x": 1})


# -- pipeline reports ------------------------------------------------------------------


def test_pipeline_report_format(pipeline_r3):
    report = pipeline_report(
        pipeline_r3, "three-regular", "abc123", "binary-words",
        {"net": "closed"})
    assert report["format"] == "coarse-equivalence-report/1"
    assert sorted(report) == [
        "config", "decisions", "format", "inputs", "pipeline"]
    assert report["inputs"]["source"] == {
        "label": "three-regular", "hash": "abc123"}
    assert report["inputs"]["target"] == {"label": "binary-words"}
    assert report["decisions"] == {"net": "closed"}
    pipe = report["pipeline"]
    assert sorted(pipe) == [
        "composed", "full_germ", "meta", "modulus_soundness", "selection",
        "stages", "synthesis"]
    assert [s["name"] for s in pipe["stages"]] == [
        "level-grouping", "germ-map", "level-ungrouping", "digit-reversal"]


def test_pipeline_report_dumps_deterministically(pipeline_r3):
    a = dump_json(pipeline_report(pipeline_r3, "s", "h", "t", {}))
    b = dump_json(pipeline_report(pipeline_r3, "s", "h", "t", {}))
    assert a == b
