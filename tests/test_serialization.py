"""Serialization: JSON and CSV round trips, content hashing, and the
certified pipeline report format."""

import itertools
import json
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetowers import (MultiMap, Space, Tower, ball_tower, regular_tower,
                          validate_ultrametric, word_space)
from coarsetowers import serialization
from coarsetowers.limits import CapExceeded, Caps
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
    tower_hash,
    tower_to_json,
)
from coarsetowers.spaces import _CellIds, _encode_cells, _pick_dtype

from conftest import random_radii, random_tower, random_ultrametric, shuffled_tower
from oracles import node_maps


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
    assert node_maps(back) == node_maps(t)


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


# -- integer CSVs -------------------------------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


def _spelled(x: int, kind: str) -> str:
    """x as a CSV cell that int() reads as x."""
    sign, digits = ("-" if x < 0 else ""), str(abs(x))
    if kind == "padded":
        return f"  {x} "
    if kind == "signed":
        return f"+{x}" if x >= 0 else str(x)
    if kind == "underscore":
        return f"{sign}{digits[:-1] or 0}_{digits[-1]}"
    if kind == "zeros":
        return f"{sign}00{digits}"
    if kind == "arabic-indic":
        return str(x).translate(ARABIC_INDIC)
    return str(x)


# spellings of integers in [-k, k], and fixed texts that are not all ints
INT_KINDS = ("plain", "padded", "signed", "underscore", "zeros", "arabic-indic")
TEXT_KINDS = {
    "thousand": ["1_000", "-1_000"],
    "int32-bounds": [str(2 ** 31 - 1), str(2 ** 31), str(-2 ** 31),
                     str(-2 ** 31 - 1)],
    "above-int64": [str(2 ** 63), str(-2 ** 63 - 1), str(10 ** 30)],
    "fraction": ["1/2", "4/2", "-3/5", "0/7", " 9/3 "],
    "empty": ["", "   "],
    "junk": ["x", "1.5", "--1", "1e3", "0x10", "1__0", "_1"],
    "zero-denominator": ["1/0", "0/0"],
    # texts np.fromstring reads leniently, or past int64 as saturated
    "lenient": ["-", "- 1", "+ 1", "1-2", "0-", "1 2", "\t1", "0" * 25 + "1"],
}
CELL_KINDS = list(INT_KINDS) + sorted(TEXT_KINDS)


def _cells(kind: str, k: int):
    if kind in INT_KINDS:
        return st.integers(-k, k).map(lambda x: _spelled(x, kind))
    return st.sampled_from(TEXT_KINDS[kind])


def _outcome(load, *args):
    """What a loader gives: its space's points, values, codes and code
    dtype, or the type and message of what it raised."""
    try:
        sp = load(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return sp.points, sp.values, sp.codes.tolist(), sp.codes.dtype


def _labeled_csv(points, rows) -> str:
    return "".join([",".join(["id"] + points) + "\n"] + [
        ",".join([p] + row) + "\n" for p, row in zip(points, rows)])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_integer_csv_path_matches_the_dict_encoder(data):
    n = data.draw(st.integers(1, 7))
    # spans of [-k, k] fall on both sides of the n^2 cells
    k = data.draw(st.sampled_from([0, 1, (n * n) // 2, n * n, 10 ** 6]))
    kinds = data.draw(st.lists(st.sampled_from(CELL_KINDS), min_size=1,
                               max_size=3, unique=True))
    cell = st.one_of(*[_cells(kind, k) for kind in kinds])
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    # an empty first, middle or last cell: a leading, doubled or trailing comma
    for row, at in zip(rows, data.draw(st.lists(
            st.sampled_from([None, 0, n // 2, -1]), min_size=n, max_size=n))):
        if at is not None:
            row[at] = ""
    points = [f"p{i}" for i in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy warning path is taken
        got = _outcome(space_from_csv, _labeled_csv(points, rows))
    assert got == _outcome(_encode_cells, points, rows, rat_parse)


@pytest.mark.parametrize("cells", [
    ["0", "", "1"], ["", "0", "1"], ["1", "0", ""], ["", "", ""],
    [str(2 ** 63), "0", "1"], ["1", "0", "\u0661"],
] + [[text, "0", "1"] for text in TEXT_KINDS["lenient"]])
def test_rows_fromstring_reads_leniently_keep_their_outcome(cells):
    rows = [["0", "1", "2"], cells, ["2", "1", "0"]]
    points = ["a", "b", "c"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(space_from_csv, _labeled_csv(points, rows))
    assert got == _outcome(_encode_cells, points, rows, rat_parse)


def _missing_calls(monkeypatch) -> list:
    """The keys that reach the dict encoder's parse, recorded."""
    calls, parse = [], _CellIds.__missing__

    def spy(table, key):
        calls.append(key)
        return parse(table, key)

    monkeypatch.setattr(_CellIds, "__missing__", spy)
    return calls


@pytest.mark.parametrize("top, dict_path", [(8, False), (9, False), (10, True)])
def test_value_span_beyond_the_cells_takes_the_dict_encoder(
        top, dict_path, monkeypatch):
    # 3 x 3 cells: a mask of up to 9 + 1 flags, not one more
    calls = _missing_calls(monkeypatch)
    rows = [["0", "1", str(top)], ["1", "0", "3"], [str(top), "3", "0"]]
    sp = space_from_csv(_labeled_csv(["a", "b", "c"], rows))
    assert sp.values == (0, 1, 3, top)
    assert sp.codes.tolist() == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    assert bool(calls) == dict_path


@pytest.mark.parametrize("late", ["1/2", str(2 ** 32 + 1), str(-2 ** 31 - 1)])
def test_dict_encoder_starts_at_the_first_row_not_stored(late, monkeypatch):
    # rows before the late cell, spanning under n^2 values, are read once,
    # as integers; values past int32 stay exact (int32 would wrap 2^32 + 1
    # to 1)
    n = 6
    rng = random.Random(n)
    rows = [[str(rng.randrange(-15, 15)) for _ in range(n)] for _ in range(n)]
    rows[4][2] = late
    points = [f"p{i}" for i in range(n)]
    want = _outcome(_encode_cells, points, rows, rat_parse)
    calls = _missing_calls(monkeypatch)
    assert _outcome(space_from_csv, _labeled_csv(points, rows)) == want
    assert rat_parse(late) in want[1]
    assert set(calls) <= set(rows[4] + rows[5]) and late in calls


@pytest.mark.parametrize("distinct", [31_999, 32_000, 32_041])
def test_integer_csv_switches_dtype_where_the_dict_encoder_does(
        distinct, monkeypatch):
    # 179^2 = 32041 cells hold every count of values around 32000
    rng = random.Random(distinct)
    n = 179
    flat = [str(k % distinct - 16_000) for k in range(n * n)]
    rng.shuffle(flat)
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    points = [f"q{i:03d}" for i in range(n)]
    want = _outcome(_encode_cells, points, rows, rat_parse)
    calls = _missing_calls(monkeypatch)
    assert _outcome(space_from_csv, _labeled_csv(points, rows)) == want
    assert want[3] == (np.int16 if distinct < 32_000 else np.int32)
    assert not calls


@pytest.mark.parametrize("cells, message", [
    # (row, column) as the messages count them; column 0 is the label
    ({(2, 2): "1/0", (3, 0): "q"}, "zero denominator in '1/0'"),
    ({(2, 0): "q", (3, 2): "1/0"},
     "row 2 label 'q' does not match header order ('b')"),
    ({(2, 2): "7", (3, 1): " x "}, "invalid literal for int() with base 10: 'x'"),
    ({(2, 2): str(2 ** 40), (3, 0): "q"},
     "row 3 label 'q' does not match header order ('c')"),
    ({(1, 3): "2/3", (2, 1): "1,5"}, "row 2 has 4 entries, want 3"),
])
def test_first_defect_in_row_order_is_reported(cells, message):
    lines = [["id", "a", "b", "c"], ["a", "0", "1", "2"],
             ["b", "1", "0", "1"], ["c", "2", "1", "0"]]
    for (row, col), cell in cells.items():
        lines[row][col] = cell
    with pytest.raises(ValueError) as err:
        space_from_csv("".join(",".join(line) + "\n" for line in lines))
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("id,a\na\n", "row 1 has 0 entries, want 1"),  # a label and no comma
    ("id,a,b\na,0\nb,1,0\n", "row 1 has 1 entries, want 2"),
    ("a,b\n0,1,2\n1,0\n", "row 1 has 3 entries, want 2"),
    ("id,a\na,-,1\n", "row 1 has 2 entries, want 1"),
])
def test_row_length_counts_cells_as_split_does(text, message):
    with pytest.raises(ValueError) as err:
        space_from_csv(text)
    assert str(err.value) == message


@pytest.mark.parametrize("rows", [
    ["a,0,1", "a,1,0"],
    ["a,0,x", "a,1,0"],  # a bad cell
    ["b,0,1", "a,1,0"],  # a label out of header order
    ["a,0", "a,1,0"],  # a short row
])
def test_duplicate_header_ids_come_before_any_row(rows):
    with pytest.raises(ValueError) as err:
        space_from_csv("id,a,a\n" + "\n".join(rows) + "\n")
    assert str(err.value) == "duplicate point ids"


def test_duplicate_header_ids_come_after_the_row_count_and_cap():
    with pytest.raises(ValueError, match="expected 2 data rows, found 1"):
        space_from_csv("id,a,a\na,0,x\n")
    with pytest.raises(CapExceeded, match="space has 3 points, cap is 2"):
        space_from_csv("id,a,a,b\na,0,x\na\nb\n", Caps(max_points=2))


# -- CSV blocks ----------------------------------------------------------------


def _cell_oracle(text: str) -> Space:
    """space_from_csv read cell by cell: each row's label and length
    checked, then its split cells parsed by rat_parse in _encode_cells,
    one row after another."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty distance matrix")
    header = [c.strip() for c in lines[0].split(",")]
    labeled = header[0] in ("id", "")
    points = header[labeled:]
    n = len(points)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} data rows, found {len(lines) - 1}")

    def rows():
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            if labeled:
                label = cells.pop(0).strip()
                if label != points[k]:
                    raise ValueError(f"row {k + 1} label {label!r} does not "
                                     f"match header order ({points[k]!r})")
            if len(cells) != n:
                raise ValueError(f"row {k + 1} has {len(cells)} entries, want {n}")
            yield cells

    return _encode_cells(points, rows(), rat_parse)


# what a row may hold besides plain digits, one defect or spelling a row
ROW_DEFECTS = ["padded", "signed", "zeros", "fraction", "empty-first",
               "empty-middle", "empty-last", "trailing-comma", "int32-bounds",
               "int64-bounds", "mislabeled", "short"]
BOUNDS = {"int32-bounds": [2 ** 31 - 1, 2 ** 31, -2 ** 31, -2 ** 31 - 1],
          "int64-bounds": [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 30]}


def _defective(cells: list, kind: str, at: int, draw) -> tuple[list, bool]:
    """The row's cells with one defect or spelling of kind, and whether
    its label is to be wrong."""
    n = len(cells)
    if kind == "padded":
        cells[at] = f" {cells[at]}  "
    elif kind == "signed":
        cells[at] = draw(st.sampled_from("+-")) + cells[at]
    elif kind == "zeros":
        cells[at] = "00" + cells[at]
    elif kind == "fraction":
        cells[at] = draw(st.sampled_from(["1/2", "4/2", "-3/5", "0/7"]))
    elif kind.startswith("empty"):
        cells[{"empty-first": 0, "empty-middle": n // 2, "empty-last": -1}[kind]] = ""
    elif kind == "trailing-comma":
        cells.append("")
    elif kind in BOUNDS:
        cells[at] = str(draw(st.sampled_from(BOUNDS[kind])))
    elif kind == "short":
        cells.pop()
    return cells, kind == "mislabeled"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_block_reader_matches_the_cell_oracle(data):
    n = data.draw(st.integers(0, 7))
    # spans of [0, k] fall on both sides of the n^2 cells
    k = data.draw(st.sampled_from([0, 1, (n * n) // 2, n * n, 10 ** 6]))
    defects = data.draw(st.lists(st.sampled_from(ROW_DEFECTS), max_size=2, unique=True))
    points = [f"p{i}" for i in range(n)]
    layout = data.draw(st.sampled_from(["id", "empty", "unlabeled"]))
    labeled = layout != "unlabeled"
    lines = [",".join([{"id": "id", "empty": ""}.get(layout)] * labeled + points)]
    for p in points:
        cells = [str(v) for v in data.draw(st.lists(
            st.integers(0, k), min_size=n, max_size=n))]
        kind = data.draw(st.sampled_from(["plain", "plain"] + defects))
        cells, wrong = _defective(cells, kind, data.draw(st.integers(0, n - 1)),
                                  data.draw)
        lines.append(",".join(["q" if wrong else p] * labeled + cells))
    for at, blank in data.draw(st.lists(st.tuples(
            st.integers(0, len(lines)), st.sampled_from(["", "  ", "\t"])),
            max_size=3)):
        lines.insert(at, blank)
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    # blank lines and whitespace before and after the matrix, some of it
    # characters that splitlines breaks at
    edge = st.lists(st.sampled_from(["\n", "\r\n", " ", "\t", "\x0c", "\x1c",
                                     "\u00a0", "\u2028"]), max_size=4).map("".join)
    text = data.draw(edge) + text + data.draw(edge)
    rows = data.draw(st.integers(1, 3))  # so block edges fall between any rows
    with mock.patch.object(serialization, "_BLOCK_CELLS", rows * n), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy warning leaks out
        got = _outcome(space_from_csv, text)
    assert got == _outcome(_cell_oracle, text)


ROWS = [["a", "0", "1", "2", "3"], ["b", "1", "0", "1", "2"],
        ["c", "2", "1", "0", "1"], ["d", "3", "2", "1", "0"]]


@pytest.mark.parametrize("block_rows", [1, 2, 4, None])
@pytest.mark.parametrize("edits, message", [
    # row 2's defect comes first in row order, whatever row 3 holds
    ({(1, 2): "x", (2, 0): "q"}, "invalid literal for int() with base 10: 'x'"),
    ({(1, 2): "1/0", (2, 4): None}, "zero denominator in '1/0'"),
    ({(1, 0): "q", (2, 2): "x"}, "row 2 label 'q' does not match header order ('b')"),
    ({(1, 4): None, (2, 2): "1/0"}, "row 2 has 3 entries, want 4"),
])
def test_first_defect_in_row_order_holds_across_blocks(block_rows, edits, message):
    # 2-row blocks put rows 2 and 3 in different blocks, 4-row blocks in one
    lines = [["id", "a", "b", "c", "d"]] + [list(row) for row in ROWS]
    for (row, col), cell in edits.items():
        if cell is None:
            del lines[1 + row][col]
        else:
            lines[1 + row][col] = cell
    text = "".join(",".join(line) + "\n" for line in lines)
    cells = serialization._BLOCK_CELLS if block_rows is None else 4 * block_rows
    with mock.patch.object(serialization, "_BLOCK_CELLS", cells):
        with pytest.raises(ValueError) as err:
            space_from_csv(text)
    assert str(err.value) == message


def test_numpy_1_empty_cells_fail_the_fast_readers(monkeypatch):
    # NumPy 1 meets an empty cell with a DeprecationWarning and reads the
    # cells before it; under warnings as errors that must still be a
    # failed read, and the cell encoder reports the empty cell
    fromstring, warned = np.fromstring, []

    def numpy_1(text, dtype, sep):
        cells = text.split(b",")
        if b"" in cells:
            warned.append(text)
            warnings.warn("string or file could not be read to its end due to "
                          "unmatched data", DeprecationWarning, stacklevel=2)
            text = b",".join(cells[:cells.index(b"")])
        return fromstring(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", numpy_1)
    points = ["a", "b", "c"]
    for at in (0, 1, 2):
        rows = [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]
        rows[1][at] = ""
        warned.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(space_from_csv, _labeled_csv(points, rows))
        assert got == _outcome(_encode_cells, points, rows, rat_parse)
        assert got[0] is ValueError and len(warned) == 2  # the block, then the row


def _perfbench_workloads():
    """perfbench's input generators (the benchmark sits beside the tests)."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import workloads
    return workloads


@pytest.fixture
def no_dict_parse(monkeypatch):
    """_CellIds.__missing__ fails wherever a cell would go through the
    dict encoder."""
    def refuse(table, key):
        raise AssertionError(f"cell {key!r} reached the dict encoder")

    monkeypatch.setattr(_CellIds, "__missing__", refuse)


def test_integer_csvs_never_reach_the_dict_encoder(no_dict_parse):
    workloads = _perfbench_workloads()
    points = workloads.clustered_points(600, np.random.default_rng(1))
    text = workloads.distance_csv(points)
    sp = space_from_csv(text)
    dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    values = np.unique(dist)
    assert sp.values == tuple(values.tolist())
    assert np.array_equal(sp.codes, np.searchsorted(values, dist))
    assert sp.codes.dtype == np.int32  # 61678 values at seed 1
    # planted defects: an asymmetric pair and a zero between distinct points
    lines = [line.split(",") for line in text.splitlines()]
    lines[1 + 3][1 + 7] = str(int(lines[1 + 3][1 + 7]) + 1)
    lines[1 + 5][1 + 9] = lines[1 + 9][1 + 5] = " 0 "
    bad = space_from_csv("\n".join(",".join(line) for line in lines) + "\n")
    report = validate_ultrametric(bad)
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("symmetry", ("p0003", "p0007")), ("positivity", ("p0005", "p0009"))]


@pytest.fixture
def no_cell_reader(monkeypatch):
    """serialization._cells_row fails wherever a row would be read by int
    on each cell; returns the rows np.fromstring reads, recorded."""
    read, fromstring = [], np.fromstring

    def refuse(cells):
        raise AssertionError(f"row {cells[:3]!r}... reached the per-cell reader")

    def spy(text, *args, **kwargs):
        read.append(text)
        return fromstring(text, *args, **kwargs)

    monkeypatch.setattr(serialization, "_cells_row", refuse)
    monkeypatch.setattr(np, "fromstring", spy)
    return read


def test_plain_integer_rows_take_the_fromstring_reader(no_cell_reader, no_dict_parse):
    workloads = _perfbench_workloads()
    points = workloads.clustered_points(600, np.random.default_rng(1))
    text = workloads.distance_csv(points)
    bodies = [ln.partition(",")[2] for ln in text.splitlines()[1:]]
    # whitespace about the matrix is stripped off its first and last rows
    sp = space_from_csv("\n \u00a0" + text.rstrip("\n") + "\t\x0c \n\n")
    # one call per block of rows: 436 rows of 600 cells, then 164
    assert len(no_cell_reader) == -(-600 // (serialization._BLOCK_CELLS // 600)) == 2
    assert b",".join(no_cell_reader).decode() == ",".join(bodies)
    dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    assert np.array_equal(np.asarray(sp.values)[sp.codes], dist)


def test_integer_csv_load_stays_small():
    # the dict encoder peaks at 37-39 MB here: an int32 id array, the
    # codes and a dict of about 90000 distinct cell texts
    workloads = _perfbench_workloads()
    text = workloads.distance_csv(
        workloads.clustered_points(1000, np.random.default_rng(1)))
    tracemalloc.start()
    try:
        sp = space_from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.codes.dtype == np.int32  # over 32000 distinct values
    assert peak < 30 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


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


# characters JSON escapes or writes as \u escapes: a quote, a backslash,
# control characters, a line separator, non-ASCII and astral characters
# and a lone surrogate
ESCAPES = '"\\\x00\x07\x1f\t\n\u2028\u00e9\U0001F600\ud800'
TEXTS = st.one_of(st.text(max_size=6), st.text(ESCAPES + "ab/", max_size=6))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10, 10),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -0.0]), TEXTS)
# keys that json.dumps converts (numbers, booleans, None), mixed ones that
# its key sort refuses, and values that it cannot write at all
KEYS = st.one_of(TEXTS, st.integers(-3, 3), st.floats(), st.booleans(), st.none())
UNWRITABLE = st.one_of(st.builds(object), st.fractions(), st.sets(st.integers(), max_size=2))


def _containers(kids):
    return st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(TEXTS, kids, max_size=4),
        st.dictionaries(KEYS, kids, max_size=3))


DOCUMENTS = st.recursive(
    st.one_of(SCALARS, st.just([]), st.just({}), st.just(())), _containers, max_leaves=16)


def _written(write, obj):
    try:
        return write(obj)
    except Exception as err:  # the writers must fail alike
        return type(err), str(err)


@given(st.one_of(DOCUMENTS, st.recursive(UNWRITABLE, _containers, max_leaves=4)))
@settings(max_examples=400, deadline=None)
def test_dump_json_writes_what_json_dumps_writes(obj):
    assert _written(dump_json, obj) == \
        _written(lambda o: json.dumps(o, indent=2, sort_keys=True) + "\n", obj)


def test_dump_json_on_a_cycle_raises_as_json_dumps_does():
    loop: list = [[1]]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json({"a": loop})


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


def _renamed(tower: Tower, prefix: list, suffix: list) -> Tower:
    """The tower with node k renamed prefix[k % len] + id + suffix[k % len];
    the affixes are drawn from ESCAPES, which no id holds, so names stay
    unique."""
    nodes, level, parent = node_maps(tower)
    name = {x: prefix[k % len(prefix)] + x + suffix[k % len(suffix)]
            for k, x in enumerate(nodes)}
    return Tower(list(name.values()), {name[x]: lv for x, lv in level.items()},
                 {name[x]: p and name[p] for x, p in parent.items()})


AFFIXES = st.lists(st.text(ESCAPES, max_size=3), min_size=1, max_size=5)


@given(st.integers(0, 2 ** 32), AFFIXES, AFFIXES)
@settings(max_examples=100, deadline=None)
def test_tower_hash_is_the_document_hash(seed, prefix, suffix):
    rng = random.Random(seed)
    space = random_ultrametric(rng)
    for tower in (random_tower(rng), shuffled_tower(rng, random_tower(rng)),
                  ball_tower(space, random_radii(rng, space)), regular_tower(())):
        for t in (tower, _renamed(tower, prefix, suffix)):
            assert tower_hash(t) == content_hash(tower_to_json(t))


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_tower_hash_is_the_document_hash_in_any_run_length(monkeypatch, chunk):
    # levels wider than a run are hashed in several runs
    monkeypatch.setattr(serialization, "_HASH_CHUNK", chunk)
    rng = random.Random(chunk)
    for tower in (random_tower(rng), regular_tower((3, 2, 4)), regular_tower(())):
        assert tower_hash(tower) == content_hash(tower_to_json(tower))


def test_tower_hash_of_non_string_ids_is_the_document_hash():
    tower = Tower([0, 1, 2], {0: 1, 1: 1, 2: 2}, {0: 2, 1: 2, 2: None})
    assert tower_to_json(tower)["nodes"][0]["id"] == 0
    assert tower_hash(tower) == content_hash(tower_to_json(tower))


# -- pipeline reports ------------------------------------------------------------------


def test_pipeline_report_format(pipeline_r3):
    report = pipeline_report(
        pipeline_r3, "three-regular", "abc123", "binary-words",
        {"net": "closed"})
    assert report["format"] == "coarse-equivalence-report/2"
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
