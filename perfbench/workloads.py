"""The benchmark's workloads.

Each workload is built from a seed into fixed inputs, then yields the
operations of one pass over them.  An operation is a timed call into the
library's public functions plus an untimed check of what it returned.
Importing this module imports the library, so the worker times the import
as part of set-up.

Why these three (see BENCHMARK.json and README.md for the metric table):

- ``equiv-ternary`` is the paper's headline run, and its time goes to the
  ``morphisms`` kernels, ``spaces.subspace`` and ``towers.base_space``.
- ``census`` is a fixed slice of the acceptance-2 census: tower build,
  base space and entropy, and no ``morphisms`` call at all.
- ``ingest`` is the user-data path: CSV parsing, ultrametrization, both
  validator paths, ball towers and their base map, which the other two
  never reach.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from coarsetowers import cli, homogenize, serialization, spaces, towers


class Op(NamedTuple):
    """One timed library call and the check of its result.  ``check``
    returns None when the result is correct, else a one-line reason."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# -- equiv-ternary ------------------------------------------------------------


class EquivTernary:
    """``coarsetowers equiv`` from the 3-regular tower of height 9 (6561
    base points) to the binary word space, in-process through ``cli.main``.
    Its input is one fixed configuration, so the seed only names the
    report file."""

    # the fewest passes that can show byte-identical reports
    min_passes = 2

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, f"equiv-ternary-{seed}.json")
        self.argv = ["equiv", "--from", "regular:3", "--height", "9",
                     "--to", "binary", "--out", self.out]
        self.first: Optional[bytes] = None

    def ops(self) -> list[Op]:
        return [Op("equiv regular:3 h9", lambda: cli.main(self.argv),
                   self._check)]

    def _check(self, code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        with open(self.out, "rb") as fh:
            data = fh.read()
        # a stale report must never satisfy the next pass
        os.remove(self.out)
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "report bytes differ from the first pass"
        pipeline = json.loads(data)["pipeline"]
        kind = pipeline["composed"]["certificate"]["kind"]
        if kind != "asymorphism":
            return f"composed certificate is {kind!r}, not an asymorphism"
        for side in ("forward", "backward"):
            if not pipeline["modulus_soundness"][side]["ok"]:
                return f"{side} modulus soundness report is not ok"
        return None


# -- census -------------------------------------------------------------------

CENSUS_LIMIT = 600
CENSUS_STRIDE = 20
CENSUS_TOWERS = 1035
CENSUS_POINTS = 15067


def degree_tuples(limit: int) -> list[tuple]:
    """Every degree tuple with entries >= 2 and base size <= limit, plus
    the trivial tower, in the order acceptance 2 enumerates them."""
    out: list[tuple] = [()]

    def grow(prefix: tuple, size: int) -> None:
        for d in range(2, limit // size + 1):
            out.append(prefix + (d,))
            grow(prefix + (d,), size * d)

    grow((), 1)
    return out


def grid_points(degrees: tuple) -> int:
    height = len(degrees) + 1
    return height * (height + 1) // 2


class Census:
    """Every 20th tuple of the acceptance-2 census of regular towers.
    The set of towers is fixed; the seed shuffles the order they run in."""

    min_passes = 2

    def __init__(self, seed: int, workdir: str):
        chosen = degree_tuples(CENSUS_LIMIT)[::CENSUS_STRIDE]
        random.Random(seed).shuffle(chosen)
        points = sum(grid_points(d) for d in chosen)
        if len(chosen) != CENSUS_TOWERS or points != CENSUS_POINTS:
            raise RuntimeError(
                f"census slice has {len(chosen)} towers and {points} grid "
                f"points, expected {CENSUS_TOWERS} and {CENSUS_POINTS}")
        self.tuples = chosen

    def ops(self) -> list[Op]:
        return [Op(f"census {d}", partial(tower_check, d),
                   partial(census_verdict, d))
                for d in self.tuples]


def tower_check(degrees: tuple) -> tuple[int, int]:
    """(grid points compared, mismatches) between the entropy of the base
    space and its degree-profile reading, closed nets."""
    tower = towers.regular_tower(degrees)
    base = towers.base_space(tower)
    radii = [2 * i for i in range(tower.height)]
    profile = spaces.entropy_profile(base, radii, radii, spaces.CLOSED)
    compared = mismatched = 0
    for i in range(tower.height):
        for j in range(i, tower.height):
            compared += 1
            if profile.entries[(2 * i, 2 * j)] != \
                    towers.entropy_from_degrees(tower, i, j):
                mismatched += 1
    return compared, mismatched


def census_verdict(degrees: tuple, result: tuple[int, int]) -> Optional[str]:
    compared, mismatched = result
    if compared != grid_points(degrees):
        return f"compared {compared} grid points, expected {grid_points(degrees)}"
    if mismatched:
        return f"{mismatched} of {compared} grid points mismatch"
    return None


# -- ingest -------------------------------------------------------------------

# one input below the validator's 800-point switch to its threshold scan,
# one above it
INGEST_SIZES = (600, 1000)
INGEST_LEVELS = 5  # cluster scales 8^1 .. 8^5
INGEST_LADDER = 12  # ultrametrization scales diameter / 2^k, k = 11 .. 0
WORDS = (3, 8)  # 6561 points, threshold-scan validator


def clustered_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """n distinct integer points in the plane, clustered hierarchically:
    each coordinate takes a base-3 digit at every scale 8^j, plus jitter
    below the finest scale."""
    scales = 8 ** np.arange(1, INGEST_LEVELS + 1)
    seen: set = set()
    points = []
    while len(points) < n:
        digits = rng.integers(0, 3, size=(2, INGEST_LEVELS))
        jitter = rng.integers(0, 8, size=2)
        p = tuple(((digits * scales).sum(axis=1) + jitter).tolist())
        if p not in seen:
            seen.add(p)
            points.append(p)
    return np.asarray(points, dtype=np.int64)


def distance_csv(points: np.ndarray) -> str:
    """Labeled L1 distance matrix in the library's CSV format."""
    dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    ids = [f"p{i:04d}" for i in range(len(points))]
    lines = ["id," + ",".join(ids)]
    lines += [f"{ids[i]}," + ",".join(map(str, row))
              for i, row in enumerate(dist.tolist())]
    return "\n".join(lines) + "\n"


class Ingest:
    """Distance-matrix CSVs of clustered points made from the seed, taken
    through parsing, ultrametrization, validation, entropy and the ball
    tower; plus building and validating a ternary word space."""

    # its three multi-second ops vary most from pass to pass; a median
    # of three passes keeps wall_s steady between runs
    min_passes = 3

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed % 2 ** 64)
        self.texts = [(n, distance_csv(clustered_points(n, rng)))
                      for n in INGEST_SIZES]

    def ops(self) -> list[Op]:
        ops = [Op(f"ingest csv {n}", partial(ingest_csv, text), ingest_verdict)
               for n, text in self.texts]
        ops.append(Op(f"word_space{WORDS}", build_words, words_verdict))
        return ops


def ingest_csv(text: str):
    plain = serialization.space_from_csv(text)
    top = plain.diameter()
    scales = [Fraction(top, 2 ** k) for k in range(INGEST_LADDER - 1, -1, -1)]
    ultra = spaces.ultrametrize(plain, scales)
    report = spaces.validate_ultrametric(ultra)
    radii = list(ultra.values)
    profile = spaces.entropy_profile(ultra, radii[:-1], radii[1:], spaces.CLOSED)
    tower = towers.ball_tower(ultra, radii)
    base_map = towers.ball_tower_base_map(ultra, tower)
    return ultra, report, radii, profile, tower, base_map


def ingest_verdict(result) -> Optional[str]:
    ultra, report, radii, profile, tower, base_map = result
    if not report.ok:
        return f"validator rejected the ultrametrized space: {report.violations[:1]}"
    if not profile.check_monotone().ok:
        return "entropy profile is not monotone"
    if set(base_map) != set(ultra.points) or \
            set(base_map.values()) != set(tower.base):
        return "ball-tower base map is not total onto the level-1 nodes"
    # acceptance 7: the consecutive entropy ratio product is the ball
    # tower's asymptotic homogeneity
    value, _ = homogenize.asymptotic_homogeneity(towers.degree_profile(tower))
    ratio = Fraction(1)
    for lo, hi in zip(radii, radii[1:]):
        large, small = profile.entries[(lo, hi)]
        ratio *= Fraction(large, small)
    if ratio != value:
        return f"entropy ratio product {ratio} != homogeneity {value}"
    return None


def build_words():
    words = spaces.word_space(*WORDS)
    return len(words), spaces.validate_ultrametric(words)


def words_verdict(result) -> Optional[str]:
    count, report = result
    if count != WORDS[0] ** WORDS[1]:
        return f"word space has {count} points"
    if not report.ok:
        return "validator rejected the word space"
    return None


WORKLOADS = {
    "equiv-ternary": EquivTernary,
    "census": Census,
    "ingest": Ingest,
}
