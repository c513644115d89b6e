"""Command line surface: exit codes, output formats, flag handling, and
byte determinism of emitted reports."""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarsetowers import (
    base_space,
    entropy_from_degrees,
    entropy_profile,
    regular_tower,
    word_space,
)
from coarsetowers import cli
from coarsetowers.cli import main
from coarsetowers.serialization import (
    dump_csv,
    space_from_csv,
    space_from_json,
    space_to_csv,
    space_to_json,
    dump_json,
    tower_to_json,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def w22_csv(tmp_path):
    return write(tmp_path, "w22.csv", space_to_csv(word_space(2, 2)))


@pytest.fixture
def binary4_json(tmp_path):
    tower = regular_tower((2, 2, 2))
    return write(tmp_path, "binary4.json", dump_json(tower_to_json(tower)))


# -- validate -------------------------------------------------------------------


def test_validate_space_csv_ok(capsys, w22_csv):
    code, out, err = run_cli(capsys, ["validate", w22_csv])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["violations"] == []


def test_validate_space_json_ok(capsys, tmp_path):
    path = write(tmp_path, "w32.json", dump_json(space_to_json(word_space(3, 2))))
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_space_negative(capsys, tmp_path):
    # 3-point line: d(a,c) = 2 > 1 = max(d(a,b), d(b,c))
    path = write(tmp_path, "line.csv", "id,a,b,c\na,0,1,2\nb,1,0,1\nc,2,1,0\n")
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert any(v["rule"] == "strong-triangle" for v in report["violations"])


def test_validate_tower_ok(capsys, binary4_json):
    code, out, err = run_cli(capsys, ["validate", binary4_json])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_tower_negative(capsys, tmp_path):
    bad = {
        "height": 3,
        "nodes": [
            {"id": "x", "level": 1, "parent": "t"},
            {"id": "t", "level": 3, "parent": None},
        ],
    }
    path = write(tmp_path, "bad.json", json.dumps(bad))
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert any(v["rule"] == "level-condition" for v in report["violations"])


@pytest.mark.parametrize("height", [5, True])
def test_validate_refuses_a_wrong_declared_height(capsys, tmp_path, height):
    # validate agrees with the loaders: valid nodes under a wrong or
    # non-integer "height" are an input error, with the loaders' message
    doc = tower_to_json(regular_tower((2,)))
    doc["height"] = height
    path = write(tmp_path, "tower.json", json.dumps(doc))
    for argv in (["validate", path], ["subtower", path, "--levels", "2"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: declared height {height!r} != computed height 2\n"


BOM_DOCUMENTS = {
    "w22.csv": lambda: space_to_csv(word_space(2, 2)),
    "w32.json": lambda: dump_json(space_to_json(word_space(3, 2))),
    "binary4.json": lambda: dump_json(tower_to_json(regular_tower((2, 2, 2)))),
}


@pytest.mark.parametrize("name, argv", [
    ("w22.csv", ["validate", "@"]),
    ("w22.csv", ["towerize", "@", "--radii", "1,2,4"]),
    ("w32.json", ["validate", "@"]),
    ("w32.json", ["entropy", "@"]),
    ("binary4.json", ["validate", "@"]),
    ("binary4.json", ["subtower", "@", "--levels", "2,4"]),
])
def test_byte_order_mark_is_dropped(capsys, tmp_path, name, argv):
    # spreadsheet programs start UTF-8 files with U+FEFF
    runs = []
    for mark in ("", "\ufeff"):
        path = write(tmp_path, ("bom-" if mark else "") + name,
                     mark + BOM_DOCUMENTS[name]())
        runs.append(run_cli(capsys, [path if a == "@" else a for a in argv]))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


@pytest.mark.parametrize("level", [2.7, True])
def test_validate_tower_rejects_non_integer_level(capsys, tmp_path, level):
    doc = {"nodes": [{"id": "t", "level": 2, "parent": None},
                     {"id": "x", "level": level, "parent": "t"},
                     {"id": "y", "level": 1, "parent": "t"}]}
    path = write(tmp_path, "levels.json", json.dumps(doc))
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 1
    report = json.loads(out)
    assert [v["witness"] for v in report["violations"]
            if v["rule"] == "levels-total"] == [["x"]]


@pytest.mark.parametrize("argv", [["validate", "@"], ["embed", "@", "@"],
                                  ["equiv", "--from", "@"]])
def test_tower_parent_of_the_wrong_type_names_its_node(capsys, tmp_path, argv):
    # a list parent once surfaced as "unhashable type: 'list'"
    doc = {"nodes": [{"id": "t", "level": 2, "parent": None},
                     {"id": "x", "level": 1, "parent": ["t"]}]}
    path = write(tmp_path, "parent.json", json.dumps(doc))
    code, out, err = run_cli(capsys, [path if a == "@" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err == "error: node 'x': parent must be a string or null, got ['t']\n"


def test_validate_zero_denominator_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "zero.csv", "id,a,b\na,0,1/0\nb,1,0\n")
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


# the loader reports the first defect in row order: a row's label and
# length are checked before its cells, and a cell when it is first read
LOADER_DEFECTS = {
    "bad cell before a short row": (
        "space.csv",
        "id,a,b,c,d,e\n"
        "a,0,1,1,1,1\n"
        "b,1,0,x,1,1\n"
        "c,1,1,0,1,1\n"
        "d,1,1,1,0,1\n"
        "e,1,1,1\n",
        "invalid literal for int() with base 10: 'x'"),
    "mislabeled row before a bad cell": (
        "space.csv",
        "id,a,b,c\n"
        "a,0,1,1\n"
        "z,1,0,1\n"
        "c,1,1/0,0\n",
        "row 2 label 'z' does not match header order ('b')"),
    "mislabeled row holding a bad cell": (
        "space.csv",
        "id,a,b\n"
        "a,0,1\n"
        " z ,x,0\n",
        "row 2 label 'z' does not match header order ('b')"),
    "json true after an equal int": (
        "space.json",
        '{"points": ["a", "b"], "dist": [[0, 1], [true, 0]]}',
        "bool is not a rational value"),
    "json float after an equal int": (
        "space.json",
        '{"points": ["a", "b"], "dist": [[0, 1], [1.0, 0]]}',
        "refusing inexact float distance: 1.0"),
}


@pytest.mark.parametrize("name", sorted(LOADER_DEFECTS))
def test_loaders_report_the_first_defect(capsys, tmp_path, name):
    filename, text, message = LOADER_DEFECTS[name]
    loader = space_from_csv if filename.endswith(".csv") else (
        lambda payload: space_from_json(json.loads(payload)))
    with pytest.raises((ValueError, TypeError)) as err:
        loader(text)
    assert str(err.value) == message
    code, out, err = run_cli(capsys, ["validate", write(tmp_path, filename, text)])
    assert code == 2
    assert err == f"error: {message}\n"


def test_validate_reports_negative_distance_by_value(capsys, tmp_path):
    path = write(tmp_path, "neg.csv", "id,a,b\na,0,-1\nb,-1,0\n")
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 1
    assert [v["message"] for v in json.loads(out)["violations"]
            if v["rule"] == "positivity"] == ["distinct points at distance -1"]


def test_validate_missing_file(capsys):
    code, out, err = run_cli(capsys, ["validate", "/nonexistent/nope.csv"])
    assert code == 2
    assert err.startswith("error:")


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    # the JSON decoder's recursion limit once surfaced as an invariant breach
    path = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert err.startswith("error:") and err.endswith("JSON nests too deeply\n")


def test_validate_garbage_file(capsys, tmp_path):
    path = write(tmp_path, "junk.csv", "!!!\nnot,a,matrix\n")
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert err.startswith("error:")


# -- entropy --------------------------------------------------------------------


def test_entropy_defaults_match_library(capsys, w22_csv):
    code, out, err = run_cli(capsys, ["entropy", w22_csv])
    assert code == 0
    space = word_space(2, 2)
    profile = entropy_profile(space, space.values, space.values, "closed")
    expected = dump_csv(("eps", "delta", "large", "small"), list(profile.rows()))
    assert out == expected
    assert out.splitlines()[0] == "eps,delta,large,small"


def test_entropy_explicit_radii(capsys, w22_csv):
    code, out, err = run_cli(
        capsys, ["entropy", w22_csv, "--eps", "2", "--delta", "0"])
    assert code == 0
    assert out.splitlines() == ["eps,delta,large,small", "2,0,1,1"]


@pytest.mark.parametrize("flag", ["--eps", "--delta"])
@pytest.mark.parametrize("text", [",", ""])
def test_entropy_rejects_an_empty_radius_list(capsys, w22_csv, flag, text):
    # an explicit empty list once fell back to every realized value
    code, out, err = run_cli(capsys, ["entropy", w22_csv, flag, text])
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} needs at least one radius\n"


def test_entropy_tower_base_matches_degree_formula(capsys, tmp_path):
    tower = regular_tower((2, 2, 2))
    path = write(tmp_path, "base.csv", space_to_csv(base_space(tower)))
    code, out, err = run_cli(capsys, ["entropy", path])
    assert code == 0
    checked = 0
    for line in out.splitlines()[1:]:
        eps_s, delta_s, large_s, small_s = line.split(",")
        i, j = int(eps_s) // 2, int(delta_s) // 2
        if i <= j:
            assert entropy_from_degrees(tower, i, j) == (int(large_s), int(small_s))
            checked += 1
    assert checked == 10


def test_entropy_rejects_tower_input(capsys, binary4_json):
    code, out, err = run_cli(capsys, ["entropy", binary4_json])
    assert code == 2
    assert "expected a space" in err


# -- towerize and subtower --------------------------------------------------------


def test_towerize_emits_ball_tower(capsys, w22_csv):
    code, out, err = run_cli(capsys, ["towerize", w22_csv, "--radii", "1,2,4"])
    assert code == 0
    data = json.loads(out)
    assert data["height"] == 3
    ids = [n["id"] for n in data["nodes"]]
    assert ids == ["b1:00", "b1:01", "b2:00", "b3:00"]
    assert sum(1 for n in data["nodes"] if n["parent"] is None) == 1


def test_towerize_bad_radii(capsys, w22_csv):
    code, out, err = run_cli(capsys, ["towerize", w22_csv, "--radii", "2,1"])
    assert code == 2
    assert "strictly increasing" in err


def test_towerize_rejects_an_empty_space(capsys, tmp_path):
    path = write(tmp_path, "empty.json", json.dumps({"points": [], "dist": []}))
    code, out, err = run_cli(capsys, ["towerize", path, "--radii", "0"])
    assert code == 2
    assert err == "error: ball towers need a nonempty space\n"


def test_subtower_levels(capsys, binary4_json):
    code, out, err = run_cli(capsys, ["subtower", binary4_json, "--levels", "2,4"])
    assert code == 0
    data = json.loads(out)
    ids = [n["id"] for n in data["tower"]["nodes"]]
    assert ids == ["t.0.0", "t.0.1", "t.1.0", "t.1.1", "t"]
    assert len(data["next_map"]) == 8
    assert data["next_map"]["t.0.0.0"] == "t.0.0"


def test_subtower_bad_levels(capsys, binary4_json):
    code, out, err = run_cli(capsys, ["subtower", binary4_json, "--levels", "3,1"])
    assert code == 2


def test_subtower_rejects_fractional_levels(capsys, binary4_json):
    # 5/2 once truncated to level 2 and 3/2 to level 1
    code, out, err = run_cli(
        capsys, ["subtower", binary4_json, "--levels", "5/2,4"])
    assert code == 2
    assert err == "error: --levels must be whole numbers\n"
    code, out, err = run_cli(
        capsys, ["subtower", binary4_json, "--levels", "3/2,2,3,4"])
    assert code == 2


# -- embed ----------------------------------------------------------------------


def test_embed_binary_into_ternary(capsys, tmp_path):
    small = write(
        tmp_path, "b3.json", dump_json(tower_to_json(regular_tower((2, 2)))))
    big = write(
        tmp_path, "t3.json", dump_json(tower_to_json(regular_tower((3, 3)))))
    code, out, err = run_cli(capsys, ["embed", small, big])
    assert code == 0
    data = json.loads(out)
    pairs = dict(tuple(p) for p in data["assignment"])
    assert pairs["t"] == "t"
    assert len(pairs) == 7
    assert data["certificate"]["kind"] == "embedding"


def test_embed_failure_reports_level(capsys, tmp_path):
    big = write(
        tmp_path, "t3.json", dump_json(tower_to_json(regular_tower((3, 3)))))
    small = write(
        tmp_path, "b3.json", dump_json(tower_to_json(regular_tower((2, 2)))))
    code, out, err = run_cli(capsys, ["embed", big, small])
    assert code == 1
    data = json.loads(out)
    assert data["embedding"] is None
    assert "level 1" in data["error"]


# -- equiv ----------------------------------------------------------------------


def test_equiv_explicit_height(capsys):
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3",
                                      "--height", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["format"] == "coarse-equivalence-report/2"
    assert report["inputs"]["source"]["label"] == "regular:3:h8"
    assert report["pipeline"]["composed"]["source_points"] == 3 ** 7
    assert report["config"]["height"] == 8


def test_equiv_auto_height(capsys):
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3"])
    assert code == 0
    report = json.loads(out)
    # smallest height whose base clears 512 points and fits a full germ
    assert report["inputs"]["source"]["label"] == "regular:3:h7"
    assert report["pipeline"]["composed"]["source_points"] == 729
    assert report["pipeline"]["composed"]["target_points"] == 256
    assert report["inputs"]["target"]["label"] == "words:2:8"


def test_equiv_byte_deterministic(capsys):
    argv = ["equiv", "--from", "regular:3", "--height", "7"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_equiv_exhausted_height(capsys):
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3",
                                      "--height", "2"])
    assert code == 3
    assert err.startswith("exhausted:")
    assert "height" in err


def test_equiv_runs_at_every_height_the_base_cap_allows(capsys):
    # at height 10 the base has 19683 points, within the default cap, and
    # the 29524 nodes stay within twice it; height 11 has a 59049-node level
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3", "--height", "10"])
    assert (code, err) == (0, "")
    assert json.loads(out)["pipeline"]["composed"]["source_points"] == 3 ** 9
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3", "--height", "11"])
    assert (code, out) == (3, "")
    assert err == "exhausted: tower has a level of 59049 nodes, cap is 20000\n"


def test_huge_height_is_refused_before_its_degree_list(capsys):
    # three million levels: a list of H - 1 degrees alone is 24 MB
    argv = ["equiv", "--from", "regular:3", "--height", "3000000"]
    run_cli(capsys, argv)  # the parser is built on the first call
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, err = capsys.readouterr()
    assert code == 3
    assert err == "exhausted: tower has a level of 59049 nodes, cap is 20000\n"
    assert peak < 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


def test_headline_equiv_stays_within_its_traced_peak(tmp_path):
    # the base's and the word space's balls are index arithmetic, the
    # source is hashed before the pipeline runs, and the report is written
    # once the pipeline's spaces are dropped: 4.0 MB when the base and
    # word space stored their label rows and the hash ran beside them
    argv = ["equiv", "--from", "regular:3", "--height", "9", "--to", "binary",
            "--out", str(tmp_path / "report.json")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.0 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


def test_equiv_binary_auto_height(capsys):
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:2"])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["source"]["label"] == "regular:2:h12"
    assert report["pipeline"]["composed"]["source_points"] == 2 ** 11


def test_equiv_bad_target(capsys):
    code, out, err = run_cli(capsys, ["equiv", "--from", "regular:3",
                                      "--to", "words"])
    assert code == 2
    assert err.startswith("error:")


def test_equiv_tower_file_source(capsys, tmp_path):
    path = write(
        tmp_path, "r3h7.json",
        dump_json(tower_to_json(regular_tower((3,) * 6))))
    code, out, err = run_cli(capsys, ["equiv", "--from", path])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["source"]["label"] == path
    assert report["pipeline"]["composed"]["source_points"] == 729


# -- classify -------------------------------------------------------------------


def test_classify_regular_specs(capsys):
    code, out, err = run_cli(
        capsys, ["classify", "regular:2,2,2", "regular:3,3,3"])
    assert code == 0
    verdict = json.loads(out)
    assert "equivalent" in verdict["verdict"]


def test_classify_infinite_target(capsys):
    code, out, err = run_cli(
        capsys, ["classify", "regular:2,2,2", "regular:3,3,3", "--to-infinite"])
    assert code == 0
    verdict = json.loads(out)
    assert "out of scope" in verdict["verdict"]


def test_classify_tower_file(capsys, binary4_json):
    code, out, err = run_cli(
        capsys, ["classify", binary4_json, "regular:2,2,2"])
    assert code == 0
    assert "equivalent" in json.loads(out)["verdict"]


def test_classify_bad_spec(capsys):
    code, out, err = run_cli(capsys, ["classify", "regular:x", "regular:2"])
    assert code == 2


def test_classify_rejects_degree_zero(capsys):
    # a zero degree once reached the homogeneity ratio as 0/0
    code, out, err = run_cli(capsys, ["classify", "regular:0", "regular:2"])
    assert code == 2
    assert err == "error: bad degree in 'regular:0'\n"


MALFORMED_REGULAR = ["regular:", "regular:3,x", "regular:3,,2", "regular:3,"]


@pytest.mark.parametrize("spec", MALFORMED_REGULAR)
@pytest.mark.parametrize("argv", [
    lambda spec: ["equiv", "--from", spec],
    lambda spec: ["classify", spec, "regular:2"],
    lambda spec: ["classify", "regular:2", spec],
], ids=["equiv-from", "classify-first", "classify-second"])
def test_malformed_regular_spec_names_the_spec(capsys, argv, spec):
    # an empty or non-integer entry once surfaced as int()'s own message
    code, out, err = run_cli(capsys, argv(spec))
    assert (code, out) == (2, "")
    assert err == f"error: bad degree in {spec!r}\n"


# -- experiments ------------------------------------------------------------------


def test_experiment_unknown_name(capsys):
    code, out, err = run_cli(capsys, ["experiment", "no-such-thing"])
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_hyperspace_entropy(capsys):
    code, out, err = run_cli(
        capsys, ["experiment", "hyperspace-entropy", "--n", "2",
                 "--length", "3"])
    assert code == 0
    assert out.splitlines()[0] == "eps,delta,large,small"
    assert len(out.splitlines()) > 1


def test_experiment_sparse_product(capsys):
    code, out, err = run_cli(
        capsys, ["experiment", "product-with-sparse-sequence",
                 "--length", "3", "--terms", "3"])
    assert code == 0
    assert out.splitlines()[0] == "eps,delta,large,small"


@pytest.mark.parametrize("argv", [
    ["experiment", "hyperspace-entropy", "--trials", "5"],
    ["experiment", "ratio-bounded-synthesis", "--n", "7"],
    ["experiment", "product-with-sparse-sequence", "--alphabet", "9"],
])
def test_experiments_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"does not read {argv[2]}" in err


def test_experiment_ratio_bounded_seeded(capsys):
    argv = ["experiment", "ratio-bounded-synthesis", "--trials", "4",
            "--height", "6", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "trial,height,homogeneity,success,steps"
    assert len(lines) == 5
    assert all(line.split(",")[1] == "6" for line in lines[1:])


@pytest.mark.parametrize("flag, value, message", [
    ("--height", "0", "--height must be >= 1"),
    ("--height", "-3", "--height must be >= 1"),
    ("--trials", "-1", "--trials must be >= 0"),
    ("--ratio-bound", "1/2", "--ratio-bound must be >= 1"),
    ("--ratio-bound", "99/100", "--ratio-bound must be >= 1"),
    ("--ratio-bound", "0", "--ratio-bound must be >= 1"),
])
def test_experiment_ratio_bounded_refuses_out_of_range_flags(capsys, flag, value, message):
    # height 0 once failed inside the homogeneity witness, and a negative
    # trial count printed a header-only table with exit 0
    code, out, err = run_cli(
        capsys, ["experiment", "ratio-bounded-synthesis", flag, value])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name, flag, value, message", [
    ("product-with-sparse-sequence", "--terms", "0", "--terms must be >= 1"),
    ("product-with-sparse-sequence", "--length", "0", "--length must be >= 1"),
    ("hyperspace-entropy", "--n", "0", "--n must be >= 1"),
    ("hyperspace-entropy", "--n", "-2", "--n must be >= 1"),
    ("hyperspace-entropy", "--alphabet", "1", "--alphabet must be >= 2"),
    ("hyperspace-entropy", "--length", "0", "--length must be >= 1"),
])
def test_experiments_refuse_out_of_range_flags_by_name(capsys, monkeypatch, name,
                                                       flag, value, message):
    # the refusals once named word_space's and hyperspace's parameters
    def no_build(*args, **kwargs):
        raise AssertionError("a space was built")

    monkeypatch.setattr(cli, "word_space", no_build)
    code, out, err = run_cli(capsys, ["experiment", name, flag, value])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_experiment_ratio_bounded_accepts_the_least_values(capsys):
    code, out, _ = run_cli(capsys, ["experiment", "ratio-bounded-synthesis",
                                    "--height", "1", "--trials", "0"])
    assert code == 0
    assert out == "trial,height,homogeneity,success,steps\n"


def test_experiment_seed_changes_output(capsys):
    base = ["experiment", "ratio-bounded-synthesis", "--trials", "6",
            "--height", "6"]
    _, out_a, _ = run_cli(capsys, base + ["--seed", "1"])
    _, out_b, _ = run_cli(capsys, base + ["--seed", "2"])
    assert out_a != out_b


# -- global flags -----------------------------------------------------------------


def test_equiv_rejects_strict_nets(capsys):
    # the pipeline is closed-only; a strict run would be a report whose
    # decisions contradict its own meta
    code, out, err = run_cli(
        capsys, ["equiv", "--from", "regular:2", "--net", "strict"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["validate", "{space}"],
    ["towerize", "{space}", "--radii", "0,1,2"],
    ["subtower", "{tower}", "--levels", "1,3,4"],
    ["embed", "{tower}", "{tower}"],
    ["classify", "regular:2,2", "regular:3,3"],
    ["experiment", "ratio-bounded-synthesis", "--trials", "2"],
])
def test_commands_that_ignore_nets_reject_strict(capsys, w22_csv, binary4_json, argv):
    # only entropy tables read the net convention; elsewhere a strict run
    # would produce exactly the closed output under a different flag
    argv = [a.format(space=w22_csv, tower=binary4_json) for a in argv]
    assert run_cli(capsys, argv)[0] in (0, 1)
    code, out, err = run_cli(capsys, argv + ["--net", "strict"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert run_cli(capsys, argv + ["--net", "closed"])[0] in (0, 1)


@pytest.mark.parametrize("argv", [
    ["validate", "{space}"],
    ["entropy", "{space}"],
    ["towerize", "{space}", "--radii", "0,1,2"],
    ["subtower", "{tower}", "--levels", "1,3,4"],
    ["embed", "{tower}", "{tower}"],
    ["equiv", "--from", "regular:2"],
    ["classify", "regular:2,2", "regular:3,3"],
    ["experiment", "hyperspace-entropy", "--n", "2", "--length", "3"],
    ["experiment", "product-with-sparse-sequence", "--length", "3"],
])
def test_commands_that_ignore_seeds_reject_them(capsys, w22_csv, binary4_json, argv):
    # only ratio-bounded-synthesis draws random numbers
    argv = [a.format(space=w22_csv, tower=binary4_json) for a in argv]
    code, out, err = run_cli(capsys, argv + ["--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--seed" in err


def test_global_flags_before_and_after_subcommand(capsys, w22_csv):
    _, out_pre, _ = run_cli(capsys, ["--net", "strict", "entropy", w22_csv])
    _, out_post, _ = run_cli(capsys, ["entropy", w22_csv, "--net", "strict"])
    assert out_pre == out_post


def test_cap_flag_trips_exhausted(capsys, w22_csv):
    code, out, err = run_cli(capsys, ["--cap", "2", "entropy", w22_csv])
    assert code == 3
    assert err.startswith("exhausted:")
    code, out, err = run_cli(capsys, ["entropy", w22_csv, "--cap", "2"])
    assert code == 3


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_cap_must_be_positive(capsys, w22_csv, cap, where):
    flag = ["--cap", cap]
    argv = flag + ["entropy", w22_csv] if where == "before" else \
        ["entropy", w22_csv] + flag
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: --cap must be positive\n"


def test_out_flag_writes_file(capsys, tmp_path, w22_csv):
    dest = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys, ["entropy", w22_csv, "--out", str(dest)])
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, ["entropy", w22_csv])
    assert dest.read_text(encoding="utf-8") == direct


def test_bad_usage_exits_2(capsys):
    assert main([]) == 2
    assert main(["entropy"]) == 2
    assert main(["towerize", "somefile"]) == 2
    capsys.readouterr()


def test_calls_in_one_process_share_the_parser_but_no_parsed_state(
        capsys, monkeypatch, tmp_path, w22_csv):
    # the parser is built once; each call parses into its own namespace
    seen = []
    check = cli._check_flags
    monkeypatch.setattr(cli, "_check_flags", lambda args: (seen.append(args), check(args)))
    dest = tmp_path / "table.csv"
    argv = ["--cap", "50", "entropy", w22_csv, "--net", "strict", "--eps", "1",
            "--out", str(dest)]
    assert run_cli(capsys, argv) == (0, "", "")
    assert run_cli(capsys, ["validate", w22_csv])[0] == 0
    first, second = seen
    assert (first.cap, first.net, first.eps, first.out) == (50, "strict", "1", str(dest))
    assert (second.cap, second.net, second.out, second.seed) == (20000, "closed", None, 0)
    assert second.command == "validate" and not hasattr(second, "eps")
    assert cli.build_parser() is cli.build_parser()
    # help text is written from the shared parser the same each time
    helps = []
    for _ in range(2):
        assert main(["entropy", "--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--eps" in helps[0]


# -- loader fuzzing -----------------------------------------------------------------

_CELLS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["1/2", "2/4", "3/0", "-1/2", "1.5", "x", "", " 2 ", "1e3",
                     "nan", "+3", "1_0", "9" * 5000, "1/" + "9" * 5000]),
    st.text(max_size=4))


@st.composite
def _csv_text(draw):
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.text(alphabet="ab1,\n \"", max_size=3),
                        min_size=n, max_size=n))
    head = draw(st.sampled_from(["id", "", None, "p"]))
    lines = [",".join(([head] if head is not None else []) + ids)]
    for k in range(draw(st.integers(0, n + 1))):
        row = draw(st.lists(_CELLS, max_size=n + 1))
        label = (ids[k] if k < n and draw(st.booleans())
                 else draw(st.text(max_size=2)))
        lines.append(",".join(([label] if head is not None else []) + row))
    return "\n".join(lines)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10 ** 20)
    | st.floats(allow_nan=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["points", "dist", "nodes", "height", "id", "level",
                         "parent"]), inner, max_size=4),
    max_leaves=20)


@st.composite
def _tower_json(draw):
    nodes = []
    for _ in range(draw(st.integers(0, 6))):
        entry = {
            "id": draw(st.sampled_from(["r", "a", "b", "c", 1, None])),
            "level": draw(st.one_of(st.integers(-1, 4), st.sampled_from(
                [True, 1.0, "1", None, [1], 10 ** 30]))),
            "parent": draw(st.sampled_from(["r", "a", "b", None, "zz", 1, [1]])),
        }
        if draw(st.integers(0, 9)) == 0:
            del entry[draw(st.sampled_from(["id", "level", "parent"]))]
        nodes.append(entry)
    doc = {"nodes": nodes}
    if draw(st.booleans()):
        doc["height"] = draw(_JSON)
    return json.dumps(doc)


@st.composite
def _space_json(draw):
    n = draw(st.integers(0, 4))
    points = draw(st.lists(st.sampled_from(["a", "b", "c", "d", 1, None]),
                           min_size=n, max_size=n))
    cell = st.one_of(st.integers(0, 9), st.sampled_from(
        ["1/2", "x", 1.5, None, True, [1], "1/0", 10 ** 40]))
    dist = draw(st.lists(st.lists(cell, max_size=n + 1), max_size=n + 1))
    return json.dumps({"points": points, "dist": dist})


_COMMANDS = [
    ["validate", "@"], ["entropy", "@"], ["entropy", "@", "--eps", "1",
                                          "--delta", "2"],
    ["towerize", "@", "--radii", "0,1,2,4"], ["subtower", "@", "--levels", "1,2"],
    ["embed", "@", "@"], ["equiv", "--from", "@"], ["classify", "@", "regular:2"]]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "input")


@given(st.one_of(_csv_text(), _tower_json(), _space_json(),
                 _JSON.map(json.dumps), st.text(max_size=40),
                 st.integers(1, 3000).map(lambda d: "[" * d + "]" * d)),
       st.sampled_from(_COMMANDS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_malformed_files_exit_by_contract(fuzz_path, text, argv):
    with open(fuzz_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([fuzz_path if a == "@" else a for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
