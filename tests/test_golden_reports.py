"""Pinned report bytes: the sha256 of the equiv reports of the
acceptance-9 configurations and of the height-9 ternary-to-binary run, of
the product and hyperspace experiments' entropy tables, of the towerize
and entropy output on an ultrametrized distance CSV drawn from a fixed
seed, of the validate output on 600-point CSVs with planted defects, and
of the equiv, subtower and towerize output on inputs whose ids JSON must
escape.

Refactors of the encoders and kernels must leave every emitted byte as
it was; a change that means to alter a report updates these digests and
says why.  Each equiv report is also turned back into report format 1,
whose digests are kept from before format 2, so the format change is
pinned to carry the same content.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from coarsetowers import Space, cli, regular_tower, ultrametrize, word_space
from coarsetowers.cli import main
from coarsetowers.rationals import rat_str
from coarsetowers.serialization import dump_json, space_to_csv, space_to_json

from oracles import node_maps

EQUIV_DIGESTS = {
    ("equiv", "--from", "regular:3"):
        "381d193c8a84af21347a3929fc261edd497747b1188f3b865377e040d9894923",
    ("equiv", "--from", "regular:3", "--height", "7"):
        "4f9a669726f662daf6caac3fabd383c8181362f5e55ba5924b9d9f7f110c026a",
    ("equiv", "--from", "regular:2"):
        "e18226d8820c7c293f6919da8222a8f1d9e42056c8cbafc3f00b7ced9fc0c29f",
    # the headline run, as the equiv-ternary benchmark workload runs it
    ("equiv", "--from", "regular:3", "--height", "9", "--to", "binary"):
        "de9a7c0062117c02cd472f65b6151da118828688eb066b47cd9a1fb3b0c4333c",
    # alphabets above 10 list their word points out of id order ("0.10"
    # before "0.2"), so these pin relations whose index order is not id order
    ("equiv", "--from", "regular:3", "--to", "regular:11"):
        "05b55b48c378728be0f1d15830504b63e45be0ef9135ad0acfe27dbfe145833a",
    ("equiv", "--from", "regular:2", "--to", "regular:12"):
        "87bf05e675f401c4a6c671a01bdcde894464b822944d5fef64f3f9ce388f4a5e",
}

# the same equiv reports in format 1, where selection.f and selection.g
# were id -> id objects and config held "seed": 0
FORMAT_1_DIGESTS = {
    ("equiv", "--from", "regular:3"):
        "be3546bd3330ac023eb9b6a52d8caf76e2747668a9d104db06bf625e2580767a",
    ("equiv", "--from", "regular:3", "--height", "7"):
        "97448e00b7622051ff786a53260f2b4c341b1d52be633cc7935b7fdaa02e9ced",
    ("equiv", "--from", "regular:2"):
        "2d9689a56e85ae0ac9db1037e4eb59ff3b133473d8e4370bd75f521c4d98bd38",
    ("equiv", "--from", "regular:3", "--height", "9", "--to", "binary"):
        "039388f5004c1df7fe84a4ba939369981e7e0f46a7d62d3fadbf37e697e971c4",
    ("equiv", "--from", "regular:3", "--to", "regular:11"):
        "bd0a66742ae4f3550cf2921aab5474b41d26766b3279e194d62893f5494519fb",
    ("equiv", "--from", "regular:2", "--to", "regular:12"):
        "c9a846251476b90750d838d4e42f1ee3254f630ec5455c53518225b2559e5786",
    ("equiv", "--from", "escaped-tower.json"):
        "3aaf8ed7e124f850ba1111e8cbfed30f950a065db6a5e91abf8060b3972bb678",
}

# the entropy CSVs of the product and hyperspace experiments
EXPERIMENT_DIGESTS = {
    ("experiment", "hyperspace-entropy"):
        "e9b086fa7be6430b6d88df3677b16eb55df55cb2200078e340f0ac09af246c49",
    ("experiment", "hyperspace-entropy", "--n", "3", "--length", "5"):
        "dfa6964459d100ec5c3d9d27c9e77c18023058797b8755105943734bd526ed7e",
    ("experiment", "product-with-sparse-sequence"):
        "6b9796d190b24bf97eb1095ef111a61e34acae3103c83fd578276237edbaaf25",
    ("experiment", "product-with-sparse-sequence", "--length", "6", "--terms", "5"):
        "aa2d08aff80c29cc2c0adc56dc52d280c80a1af09879442a8bec8db7f06bd103",
}

CSV_DIGEST = "a97ebaf39f900086832034aa53a4e2d5d47d2b702fd66714e750bdb9bf96432b"
TOWERIZE_DIGEST = "555dfc756efd14f40667b8dac97ed4a98ec7a0ff2bee3e552928d273e4e482e0"
ENTROPY_DIGEST = "ba8c7cd2dadf620af66af1bbe28992e6c3e36b1473de8f7f4c30aee74756ba08"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, expect: int = 0) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == expect
    return buf.getvalue()


def format_1(text: str, source_ids, target_ids) -> str:
    """A format-2 equiv report written as format 1: f and g as id -> id
    objects, read through the composed source and target ids in id
    order, the format string /1, and config.seed 0."""
    report = json.loads(text)
    sel = report["pipeline"]["selection"]
    src, tgt = sorted(source_ids), sorted(target_ids)
    sel["f"] = dict(zip(src, map(tgt.__getitem__, sel["f"])))
    sel["g"] = dict(zip(tgt, map(src.__getitem__, sel["g"])))
    report["format"] = "coarse-equivalence-report/1"
    report["config"]["seed"] = 0
    return dump_json(report)


def _run_equiv(argv, monkeypatch) -> str:
    """The equiv report of argv, after checking that it rebuilds to its
    format-1 digest."""
    composed, run_pipeline = [], cli.equivalence_pipeline

    def pipeline(*args, **kwargs):
        result = run_pipeline(*args, **kwargs)
        composed.append(result.composed)
        return result

    monkeypatch.setattr(cli, "equivalence_pipeline", pipeline)
    text = _run(argv)
    (phi,) = composed
    assert len(json.loads(text)["pipeline"]["selection"]["f"]) == len(phi.source)
    old = format_1(text, phi.source.points, phi.target.points)
    assert _sha(old) == FORMAT_1_DIGESTS[argv]
    return text


def ultrametrized_csv(seed: int = 2024, n: int = 80) -> tuple[str, Space]:
    """L1 distances of n distinct points clustered at scales 8, 64 and
    512, ultrametrized over the ladder diameter / 2^k, k = 7 .. 0."""
    rng = random.Random(seed)
    points: set = set()
    while len(points) < n:
        points.add(tuple(sum(rng.randrange(3) * 8 ** j for j in (1, 2, 3))
                         + rng.randrange(8) for _ in range(2)))
    coords = sorted(points)
    matrix = [[abs(a - c) + abs(b - d) for c, d in coords] for a, b in coords]
    plain = Space.from_matrix([f"p{i:03d}" for i in range(n)], matrix)
    top = plain.diameter()
    ultra = ultrametrize(plain, [Fraction(top, 2 ** k) for k in range(7, -1, -1)])
    return space_to_csv(ultra), ultra


@pytest.mark.parametrize("argv", sorted(EQUIV_DIGESTS))
def test_equiv_report_bytes_are_pinned(argv, monkeypatch):
    assert _sha(_run_equiv(argv, monkeypatch)) == EQUIV_DIGESTS[argv]


def test_equiv_report_bytes_at_a_larger_base_are_pinned():
    # 59049 base points and a word space of 16384: the index-arithmetic
    # tables and the streamed source hash at a size where every kernel
    # takes its whole-array path
    argv = ["equiv", "--from", "regular:3", "--height", "11", "--cap", "100000"]
    assert _sha(_run(argv)) == \
        "4153e82bfd306819a3ca6428745150dcdd5e6dbf810a1a5d71791b98565e10bd"


@pytest.mark.parametrize("argv", sorted(EXPERIMENT_DIGESTS))
def test_experiment_bytes_are_pinned(argv):
    assert _sha(_run(argv)) == EXPERIMENT_DIGESTS[argv]


def test_towerize_and_entropy_bytes_are_pinned(tmp_path):
    text, ultra = ultrametrized_csv()
    assert _sha(text) == CSV_DIGEST
    path = tmp_path / "ultra.csv"
    path.write_text(text, encoding="utf-8")
    radii = ",".join(rat_str(v) for v in ultra.values)
    assert _sha(_run(["towerize", str(path), "--radii", radii])) == TOWERIZE_DIGEST
    assert _sha(_run(["entropy", str(path)])) == ENTROPY_DIGEST


# validate on a 600-point ultrametrized CSV with defects planted on both
# sides of the validator's 512-cell tile edges; each cell is (row, column)
PLANTED = {
    "asymmetric": {(7, 5): "3/2", (512, 511): "1", (3, 599): "26",
                   (0, 511): "1", (513, 512): "5/3", (520, 100): "1"},
    "nonpositive": {(5, 7): "0", (7, 5): "0/3", (511, 512): "-2",
                    (512, 511): "-2", (599, 0): "-1/2", (0, 599): "-1/2"},
    "non-ultrametric": {(10, 590): "2", (590, 10): " 2 ",
                        (511, 513): "4/2", (513, 511): "2"},
}

VALIDATE_DIGESTS = {
    "asymmetric":
        "75a69b97641cfa15c79bbacc3ac397639e02dfe1c471acb9643d19b00671a299",
    "nonpositive":
        "06a2bd7d87df5b751884e0c197316e3ffb24ddec954211964568e740a655e4bf",
    # every cross pair above its spanning-tree merge is listed with the
    # merge's endpoint that witnesses it: 157 triples
    "non-ultrametric":
        "dc0ae4522786c71e058146b44c6f726192597c26c9a997c8856a4af7c8f829e6",
}


def planted_csv(text: str, cells: dict) -> str:
    lines = [line.split(",") for line in text.splitlines()]
    for (i, j), cell in cells.items():
        lines[i + 1][j + 1] = cell
    return "\n".join(",".join(line) for line in lines) + "\n"


@pytest.fixture(scope="module")
def ultra_600() -> str:
    return ultrametrized_csv(n=600)[0]


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_validate_bytes_on_planted_defects_are_pinned(defect, ultra_600, tmp_path):
    path = tmp_path / f"{defect}.csv"
    path.write_text(planted_csv(ultra_600, PLANTED[defect]), encoding="utf-8")
    assert _sha(_run(["validate", str(path)], expect=1)) == VALIDATE_DIGESTS[defect]


# -- ids that JSON escapes ----------------------------------------------------------

# a quote, a backslash, a bell and a tab (control characters), a non-ASCII
# letter, a line separator and an astral character (a surrogate pair)
ESCAPED = ['"', "\\", "\x07", "\t", "\u00e9", "\u2028", "\U0001F600"]

ESCAPED_DIGESTS = {
    ("equiv", "--from", "escaped-tower.json"):
        "c8266731f734056cc55869760481e936e49db17a7fef760f1b25bf63e30e8abe",
    ("subtower", "escaped-tower.json", "--levels", "1,3,4,7"):
        "70bc9b888a4c838da6169177c421488a80433ac08bc798192d60e6ab865e9377",
    ("towerize", "escaped-space.json", "--radii", "0,1,2,4"):
        "4906cc98f2433623914f2a164b0b6d251166b6e381fba1bc7f690837024bd8de",
}


def _escaped(k: int, name: str) -> str:
    return ESCAPED[k % len(ESCAPED)] + name + ESCAPED[k // len(ESCAPED) % len(ESCAPED)]


def escaped_tower_text() -> str:
    """The 3-regular tower of height 7 under ids that JSON escapes, whose
    id order is not the order of the dotted ids; written by json.dumps,
    so the input does not depend on the writer under test."""
    tower = regular_tower((3,) * 6)
    ids, level, parent = node_maps(tower)
    name = {x: _escaped(k, x) for k, x in enumerate(ids)}
    name[None] = None
    nodes = [{"id": name[x], "level": level[x], "parent": name[parent[x]]} for x in ids]
    return json.dumps({"height": tower.height, "nodes": nodes})


def escaped_space_text() -> str:
    """The binary words of length 3 under point ids that JSON escapes."""
    doc = space_to_json(word_space(2, 3))
    doc["points"] = [_escaped(k, p) for k, p in enumerate(doc["points"])]
    return json.dumps(doc)


@pytest.mark.parametrize("argv", sorted(ESCAPED_DIGESTS))
def test_bytes_on_escaped_ids_are_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the equiv report names its source file
    (tmp_path / "escaped-tower.json").write_text(escaped_tower_text(), encoding="utf-8")
    (tmp_path / "escaped-space.json").write_text(escaped_space_text(), encoding="utf-8")
    text = _run_equiv(argv, monkeypatch) if argv in FORMAT_1_DIGESTS else _run(argv)
    assert _sha(text) == ESCAPED_DIGESTS[argv]
