"""Shared fixtures: seeded generators, independent oracles, and the
acceptance-line reporter.

Oracles here recompute results straight from definitions (subset search,
pure-python triple loops, ancestor and dict walks) so the fast paths in the
package are checked against something that cannot share their bugs.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from coarsetowers import (
    DegreeProfile,
    Space,
    Tower,
    ball,
    equivalence_pipeline,
    regular_tower,
)

from oracles import children_by_parent, node_maps

# -- acceptance reporting ----------------------------------------------------

_ACCEPTANCE_LINES: dict = {}


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES[number] = f"acceptance {number}: {status} - {detail}"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])


# -- independent oracles -------------------------------------------------------


def brute_min_net_size(space, subset, radius, convention, dist=None) -> int:
    """Minimum net size by exhaustive subset search; only for small instances.
    dist, when given, maps each pair (x, y) of the subset to d(x, y);
    otherwise each pair is read off the space once."""
    pts = list(subset)
    assert len(pts) <= 12, "oracle is exponential; keep instances tiny"
    if dist is None:
        dist = {(x, y): space.dist(x, y) for x in pts for y in pts}
    # the points each candidate center covers, d(x, y) <= radius when
    # closed and < radius when strict; a net covers when its sets cover pts
    within = operator.le if convention == "closed" else operator.lt
    covered = {y: {x for x in pts if within(dist[x, y], radius)} for y in pts}
    for k in range(1, len(pts) + 1):
        for net in itertools.combinations(pts, k):
            if len(set().union(*map(covered.__getitem__, net))) == len(pts):
                return k
    raise AssertionError("no net covers the subset")


def brute_entropy(space, eps, delta, convention) -> tuple:
    """(large, small) from the definition: per-center closed delta-ball,
    then minimum eps-net of that ball.  Every pair's distance is read off
    the space once and shared by the balls' searches."""
    dist = {(x, y): space.dist(x, y) for x in space.points for y in space.points}
    counts = []
    for center in space.points:
        members = ball(space, center, delta)
        counts.append(brute_min_net_size(space, members, eps, convention, dist))
    return max(counts), min(counts)


def triple_violations(space) -> list:
    """Pure-python strong-triangle scan over all triples."""
    pts = space.points
    out = []
    for x in pts:
        for y in pts:
            if y <= x:
                continue
            dxy = space.dist(x, y)
            for z in pts:
                if dxy > max(space.dist(x, z), space.dist(z, y)):
                    out.append((x, y, z))
    return out


def oracle_path_metric(tower, x, y) -> int:
    """2*lev(sup) - lev(x) - lev(y) via an independent ancestor walk."""
    _, level, parent = node_maps(tower)
    seen = {}
    cur = x
    while cur is not None:
        seen[cur] = level[cur]
        cur = parent[cur]
    cur = y
    while cur not in seen:
        cur = parent[cur]
    return 2 * level[cur] - level[x] - level[y]


def oracle_cone_profile(tower, nodes, height) -> DegreeProfile:
    """Degree profile by a dict walk over a downward-closed node set listed
    in (level, id) order, such as the union of the lower cones of nodes at
    level height: each node's descendant counts per level are summed from
    its children's, and each entry is the min/max over the set."""
    level, children = node_maps(tower)[1], children_by_parent(tower)
    counts: dict = {}
    small: dict = {}
    large: dict = {}
    for node in nodes:  # children precede parents
        lv = level[node]
        vec = [0] * lv  # vec[i] = descendants at level i, indices 1..lv-1
        for c in children[node]:
            cv = counts[c]
            for i in range(1, len(cv)):
                vec[i] += cv[i]
            vec[level[c]] += 1
        counts[node] = vec
        for i in range(1, lv):
            key = (i, lv)
            v = vec[i]
            if key not in small or v < small[key]:
                small[key] = v
            if key not in large or v > large[key]:
                large[key] = v
    return DegreeProfile(height, small, large)


# -- seeded generators ---------------------------------------------------------

WEIGHT_POOL = [1, Fraction(3, 2), 2, 3, Fraction(7, 2), 5, 8, 13, 21]


def random_ultrametric(rng: random.Random, n_min=4, n_max=14) -> Space:
    """Random finite ultrametric: distinct digit strings with increasing
    per-position weights, d(x,y) = max weight over disagreeing positions.
    The formula is ultrametric by construction, independent of the package
    constructors."""
    depth = rng.randint(2, 4)
    alphabet = rng.randint(2, 3)
    pool = alphabet ** depth
    n = rng.randint(n_min, min(n_max, pool))
    words = rng.sample(list(itertools.product(range(alphabet), repeat=depth)), n)
    words.sort()
    weights = sorted(rng.sample(WEIGHT_POOL, depth))

    def d(i, j):
        if i == j:
            return 0
        diffs = [weights[k] for k in range(depth) if words[i][k] != words[j][k]]
        return max(diffs)

    pts = [f"u{i}" for i in range(n)]
    matrix = [[d(i, j) for j in range(n)] for i in range(n)]
    return Space.from_matrix(pts, matrix)


def random_plain_metric(rng: random.Random, n_min=4, n_max=12) -> Space:
    """Random plain metric: random symmetric integer weights closed under
    shortest paths, so the triangle inequality holds by construction."""
    n = rng.randint(n_min, n_max)
    big = 10 ** 6
    d = [[0 if i == j else rng.randint(1, 20) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[j][i] = d[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    assert all(0 < d[i][j] < big for i in range(n) for j in range(n) if i != j)
    return Space.from_matrix([f"m{i}" for i in range(n)], d)


def random_tower(rng: random.Random, height_min=2, height_max=5, deg_max=4) -> Tower:
    """Random single-top tower, children counts drawn per node."""
    height = rng.randint(height_min, height_max)
    node_ids = ["r"]
    level = {"r": height}
    parent = {"r": None}
    frontier = ["r"]
    for lvl in range(height - 1, 0, -1):
        nxt = []
        for node in frontier:
            for k in range(rng.randint(1, deg_max)):
                child = f"{node}.{k}"
                node_ids.append(child)
                level[child] = lvl
                parent[child] = node
                nxt.append(child)
        frontier = nxt
    return Tower(node_ids, level, parent)


def shuffled_tower(rng: random.Random, tower: Tower) -> Tower:
    """The same tower under randomly drawn node ids, so that id order is
    not depth-first order."""
    nodes, level, parent = node_maps(tower)
    names = [f"n{k:04d}" for k in range(len(nodes))]
    rng.shuffle(names)
    new = dict(zip(nodes, names))
    return Tower(names, {new[x]: lv for x, lv in level.items()},
                 {new[x]: p and new[p] for x, p in parent.items()})


def random_radii(rng: random.Random, space: Space) -> list:
    """Strictly increasing radii ending at or above the diameter."""
    diam = space.diameter()
    positive = [v for v in space.values if v > 0]
    k = rng.randint(1, max(1, len(positive) - 1))
    chosen = sorted(rng.sample(positive, min(k, len(positive))))
    radii = [0] + [v for v in chosen if v < diam]
    radii.append(diam + rng.choice([0, 1]))
    return radii


# -- shared expensive artifacts ------------------------------------------------


@pytest.fixture(scope="session")
def pipeline_r3():
    """The 3-regular germ against the binary germ, height 7 (729 leaves)."""
    return equivalence_pipeline(regular_tower((3,) * 6))


@pytest.fixture(scope="session")
def pipeline_r2():
    """Binary tower through the pipeline; identity is a competitor but the
    grouped route must still certify."""
    return equivalence_pipeline(regular_tower((2,) * 11))
