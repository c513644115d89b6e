"""Towers: leveled single-top forests, their path metric, degree profiles,
level subtowers, and ball towers of ultrametric spaces.

A tower of height H has nodes on levels 1..H, every node below the top has
a parent exactly one level up, and there is a single top node.  The base is
the set of level-1 nodes; the path metric on the base is
d(x, y) = 2 * (level of the least common ancestor) - 2, which is an
ultrametric taking even values.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .limits import DEFAULT_CAPS, Caps, CapExceeded
from .rationals import Rational, canon
from .report import ValidationReport, Violation
from .spaces import CLOSED, Space, _class_labels, _pick_dtype

NodeId = str


def validate_tower(
    node_ids: Sequence[NodeId],
    level: Mapping[NodeId, int],
    parent: Mapping[NodeId, Optional[NodeId]],
) -> ValidationReport:
    """Check the tower axioms on raw data and report every violation.

    Checked: unique ids, total integer level map with min level 1, a single
    top node, parent defined exactly below the top and absent at it, parent
    one level up (this is the level condition: a childless node above level
    1 or a two-level parent hop both break it), and upper cones linearly
    ordered (automatic for a functional parent map, checked as acyclicity:
    every parent chain must reach the top).
    """
    violations: list[Violation] = []
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
    # levels are compared by type, not isinstance: bool is an int subclass
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
    # every parent chain must reach the top within height steps
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


class Tower:
    """Validated tower; construction rejects structurally invalid data."""

    __slots__ = ("height", "nodes", "level", "parent", "children", "base", "__weakref__")

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        level: Mapping[NodeId, int],
        parent: Mapping[NodeId, Optional[NodeId]],
        caps: Caps = DEFAULT_CAPS,
    ):
        if len(node_ids) > caps.max_points:
            raise CapExceeded(
                f"tower has {len(node_ids)} nodes, cap is {caps.max_points}")
        report = validate_tower(node_ids, level, parent)
        report_with_subject = ValidationReport("tower", report.checked, report.violations)
        report_with_subject.require()
        self.level = {i: level[i] for i in node_ids}
        self.parent = {i: parent.get(i) for i in node_ids}
        self.nodes = tuple(sorted(node_ids, key=lambda i: (self.level[i], i)))
        self.height = max(self.level.values())
        children: dict[NodeId, list[NodeId]] = {i: [] for i in node_ids}
        for i in self.nodes:
            p = self.parent[i]
            if p is not None:
                children[p].append(i)
        self.children = {i: tuple(sorted(c)) for i, c in children.items()}
        self.base = tuple(sorted(i for i in node_ids if self.level[i] == 1))

    # -- navigation --------------------------------------------------------

    @property
    def top(self) -> NodeId:
        return self.nodes[-1]

    def ancestor(self, node: NodeId, lvl: int) -> NodeId:
        cur = node
        while self.level[cur] < lvl:
            cur = self.parent[cur]
        if self.level[cur] != lvl:
            raise ValueError(f"{node} has no ancestor at level {lvl}")
        return cur

    def sup(self, x: NodeId, y: NodeId) -> NodeId:
        """Least common upper bound of two nodes."""
        a, b = x, y
        while self.level[a] < self.level[b]:
            a = self.parent[a]
        while self.level[b] < self.level[a]:
            b = self.parent[b]
        while a != b:
            a, b = self.parent[a], self.parent[b]
        return a

    def cone(self, node: NodeId) -> tuple[NodeId, ...]:
        """Lower cone: the node and everything below it, in (level, id) order."""
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.children[cur])
        return tuple(sorted(out, key=lambda i: (self.level[i], i)))

    def base_below(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(i for i in self.cone(node) if self.level[i] == 1)

    def path_metric(self, x: NodeId, y: NodeId) -> int:
        """d(x, y) = 2*lev(sup) - lev(x) - lev(y); on base pairs this is the
        even-valued ultrametric the base space carries."""
        s = self.sup(x, y)
        return 2 * self.level[s] - self.level[x] - self.level[y]


# -- base space --------------------------------------------------------------


def base_space(tower: Tower, caps: Caps = DEFAULT_CAPS) -> Space:
    """The base under the path metric, points in id order.

    Base points under distinct children of a node sit at exactly
    2*(level-1), so a level's distance is realized exactly when some node
    on it has two or more children.  The value table is read off those
    split levels, 0 first, and each split level is coded by its rank.
    """
    base = tower.base
    caps.check_points(len(base), "tower base")
    split = sorted({tower.level[v] for v in tower.nodes
                    if len(tower.children[v]) > 1})
    code_of = {lv: k for k, lv in enumerate(split, start=1)}
    values = (0,) + tuple(2 * (lv - 1) for lv in split)
    idx = {p: i for i, p in enumerate(base)}
    n = len(base)
    # depth-first leaf order makes every node's base cone a contiguous slot
    # range, so each sup level fills one square block
    slot_of = np.empty(n, dtype=np.int64)  # base index -> dfs slot
    span: dict[NodeId, tuple[int, int]] = {}
    cursor = 0
    stack: list[tuple[NodeId, bool]] = [(tower.top, False)]
    starts: dict[NodeId, int] = {}
    while stack:
        node, done = stack.pop()
        if done:
            span[node] = (starts[node], cursor)
            continue
        if tower.level[node] == 1:
            span[node] = (cursor, cursor + 1)
            slot_of[idx[node]] = cursor
            cursor += 1
            continue
        starts[node] = cursor
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(tower.children[node]))
    codes = np.zeros((n, n), dtype=_pick_dtype(len(values)))
    for node in reversed(tower.nodes):  # descending level: parents fill first,
        if len(tower.children[node]) > 1:  # splits below overwrite them
            lo, hi = span[node]
            codes[lo:hi, lo:hi] = code_of[tower.level[node]]
    np.fill_diagonal(codes, 0)
    # dotted-path ids (regular towers) list the base in depth-first order
    # already; any other order is gathered into id order
    if (slot_of != np.arange(n)).any():
        codes = codes[np.ix_(slot_of, slot_of)]
    return Space(base, codes, values, ultrametric=True, caps=caps)


# -- builders ----------------------------------------------------------------


def regular_tower(
    degrees: Sequence[int], height: Optional[int] = None, caps: Caps = DEFAULT_CAPS
) -> Tower:
    """Tower whose every level-(n+1) node has exactly degrees[n-1] children.

    degrees[0] is the children count at level 2.  Ids are dotted descent
    paths from the top node 't'.
    """
    if height is None:
        height = len(degrees) + 1
    if height < 1:
        raise ValueError("height must be >= 1")
    if len(degrees) < height - 1:
        raise ValueError("need height-1 degree entries")
    degrees = [int(d) for d in degrees[: height - 1]]
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    total = 1
    count = 1
    for d in reversed(degrees):
        count *= d
        total += count
        if total > caps.max_points:
            raise CapExceeded(
                f"regular tower would have more than {caps.max_points} nodes")
    ids = ["t"]
    level = {"t": height}
    parent: dict[NodeId, Optional[NodeId]] = {"t": None}
    frontier = ["t"]
    for lv in range(height - 1, 0, -1):
        deg = degrees[lv - 1]
        nxt = []
        for p in frontier:
            for c in range(deg):
                cid = f"{p}.{c}"
                ids.append(cid)
                level[cid] = lv
                parent[cid] = p
                nxt.append(cid)
        frontier = nxt
    return Tower(ids, level, parent, caps=caps)


def level_subtower(
    tower: Tower, levels: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> tuple[Tower, dict[NodeId, NodeId]]:
    """Restrict to the chosen levels, relabeling them 1..K (node ids stay).

    Returns (subtower, next_map) where next_map sends each base node of the
    original tower to its ancestor at the lowest chosen level, i.e. the
    smallest subtower node above it.
    """
    levels = sorted(set(int(l) for l in levels))
    if not levels:
        raise ValueError("need at least one level")
    if levels[0] < 1 or levels[-1] > tower.height:
        raise ValueError(f"levels must lie in 1..{tower.height}")
    if levels[-1] != tower.height:
        # keep a single top: the top level must be selected
        raise ValueError("the top level must be among the chosen levels")
    rank = {lv: k + 1 for k, lv in enumerate(levels)}
    chosen = [i for i in tower.nodes if tower.level[i] in rank]
    new_level = {i: rank[tower.level[i]] for i in chosen}
    new_parent: dict[NodeId, Optional[NodeId]] = {}
    level_set = set(levels)
    for i in chosen:
        if tower.level[i] == levels[-1]:
            new_parent[i] = None
            continue
        cur = tower.parent[i]
        while tower.level[cur] not in level_set:
            cur = tower.parent[cur]
        new_parent[i] = cur
    sub = Tower(chosen, new_level, new_parent, caps=caps)
    next_map = {b: tower.ancestor(b, levels[0]) for b in tower.base}
    return sub, next_map


# -- degree profiles ----------------------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    """Min/max counts of level-i descendants of level-j nodes.

    small[(i, j)] is the minimum over level-j nodes of the number of their
    level-i descendants, large[(i, j)] the maximum; 1 <= i < j <= height.
    """

    height: int
    small: dict
    large: dict

    def small_between(self, i: int, j: int) -> int:
        self._check_pair(i, j)
        return 1 if i == j else self.small[(i, j)]

    def large_between(self, i: int, j: int) -> int:
        self._check_pair(i, j)
        return 1 if i == j else self.large[(i, j)]

    def _check_pair(self, i: int, j: int) -> None:
        if not (1 <= i <= j <= self.height):
            raise ValueError(f"level pair ({i},{j}) outside 1..{self.height}")

    def consecutive_small(self, i: int) -> int:
        return self.small_between(i, i + 1)

    def consecutive_large(self, i: int) -> int:
        return self.large_between(i, i + 1)

    def ratios(self) -> tuple[Fraction, ...]:
        """Per-step max/min degree ratios, each >= 1."""
        return tuple(
            Fraction(self.large[(i, i + 1)], self.small[(i, i + 1)])
            for i in range(1, self.height)
        )

    @property
    def is_homogeneous(self) -> bool:
        return all(self.small[k] == self.large[k] for k in self.small)

    def validate(self) -> ValidationReport:
        """small <= large and the two-sided submultiplicative bounds."""
        violations = []
        for (i, j), s in self.small.items():
            if s > self.large[(i, j)]:
                violations.append(Violation(
                    "small-le-large", (i, j), f"{s} > {self.large[(i, j)]}"))
        for i, k, j in itertools.combinations(range(1, self.height + 1), 3):
            if self.small[(i, j)] < self.small[(i, k)] * self.small[(k, j)]:
                violations.append(Violation(
                    "small-supermultiplicative", (i, k, j),
                    f"{self.small[(i, j)]} < "
                    f"{self.small[(i, k)]} * {self.small[(k, j)]}"))
            if self.large[(i, j)] > self.large[(i, k)] * self.large[(k, j)]:
                violations.append(Violation(
                    "large-submultiplicative", (i, k, j),
                    f"{self.large[(i, j)]} > "
                    f"{self.large[(i, k)]} * {self.large[(k, j)]}"))
        return ValidationReport(
            "degree profile",
            ("small-le-large", "small-supermultiplicative",
             "large-submultiplicative"),
            tuple(violations),
        )

    @classmethod
    def regular(cls, degrees: Sequence[int], height: Optional[int] = None) -> "DegreeProfile":
        """Profile of the regular tower with the given consecutive degrees,
        without materializing it; entries are products of degree runs."""
        if height is None:
            height = len(degrees) + 1
        if len(degrees) < height - 1:
            raise ValueError("need height-1 degree entries")
        degrees = [int(d) for d in degrees[: height - 1]]
        small: dict = {}
        for i in range(1, height + 1):
            prod = 1
            for j in range(i + 1, height + 1):
                prod *= degrees[j - 2]
                small[(i, j)] = prod
        return cls(height, small, dict(small))

    def grouped(self, levels: Sequence[int]) -> "DegreeProfile":
        """Profile of the level subtower at the chosen levels: descendant
        sets are unchanged, so entries transfer verbatim."""
        levels = sorted(set(int(l) for l in levels))
        if levels[0] < 1 or levels[-1] > self.height:
            raise ValueError("levels out of range")
        small: dict = {}
        large: dict = {}
        for a in range(len(levels)):
            for b in range(a + 1, len(levels)):
                small[(a + 1, b + 1)] = self.small_between(levels[a], levels[b])
                large[(a + 1, b + 1)] = self.large_between(levels[a], levels[b])
        return DegreeProfile(len(levels), small, large)


_PROFILE_CACHE: "weakref.WeakKeyDictionary[Tower, DegreeProfile]" = weakref.WeakKeyDictionary()


def degree_profile(tower: Tower) -> DegreeProfile:
    """Exhaustive degree profile of a materialized tower."""
    cached = _PROFILE_CACHE.get(tower)
    if cached is not None:
        return cached
    prof = _cone_profile(tower, tower.nodes, tower.height)
    _PROFILE_CACHE[tower] = prof
    return prof


def _cone_profile(
    tower: Tower, nodes: Sequence[NodeId], height: int
) -> DegreeProfile:
    """Degree profile over a downward-closed node set listed in (level, id)
    order, such as the union of the lower cones of nodes at level height:
    each entry is the min/max of the nodes' descendant counts.  The cones
    are closed downward, so those counts are the tower's own."""
    counts: dict[NodeId, list[int]] = {}
    small: dict = {}
    large: dict = {}
    for node in nodes:  # children precede parents
        lv = tower.level[node]
        vec = [0] * lv  # vec[i] = descendants at level i, indices 1..lv-1
        for c in tower.children[node]:
            cv = counts[c]
            for i in range(1, len(cv)):
                vec[i] += cv[i]
            vec[tower.level[c]] += 1
        counts[node] = vec
        for i in range(1, lv):
            key = (i, lv)
            v = vec[i]
            if key not in small or v < small[key]:
                small[key] = v
            if key not in large or v > large[key]:
                large[key] = v
    return DegreeProfile(height, small, large)


def entropy_from_degrees(tower: Tower, i: int, j: int) -> tuple[int, int]:
    """Entropy of the base read off the degree profile: under the closed
    convention, Ent at (eps, delta) = (2i, 2j) equals the (i+1, j+1) degree
    entry (large, small)."""
    if not (0 <= i <= j < tower.height):
        raise ValueError(f"need 0 <= i <= j < height={tower.height}")
    prof = degree_profile(tower)
    return (prof.large_between(i + 1, j + 1), prof.small_between(i + 1, j + 1))


# -- ball towers ----------------------------------------------------------------


def ball_tower(
    space: Space, radii: Sequence[Rational], caps: Caps = DEFAULT_CAPS
) -> Tower:
    """Tower of closed balls of an ultrametric space at increasing radii.

    Level n holds the balls of radius radii[n-1] (one node per ball, id
    'b{n}:{least member id}'); parents are the containing balls one radius
    up.  The last radius must reach the diameter so a single top exists.
    With radii[0] = 0 the base is a copy of the space's points.
    """
    radii = [canon(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if radii[0] < 0:
        raise ValueError("radii must be >= 0")
    if not space.is_ultrametric:
        raise ValueError("ball towers need an ultrametric space")
    if radii[-1] < space.diameter():
        raise ValueError(
            "last radius is below the diameter, the top level would "
            "have multiple balls")
    sub = space.subindices(None)
    ids_sorted = [space.points[int(i)] for i in sub]
    # labels on the id-ordered block: each ball is labelled by its least id
    codes = space.codes[np.ix_(sub, sub)]
    labels = [_class_labels(codes, space.threshold_code(r, CLOSED))
              for r in radii]
    node_ids: list[NodeId] = []
    level: dict[NodeId, int] = {}
    parent: dict[NodeId, Optional[NodeId]] = {}
    for n, here in enumerate(labels, start=1):
        up = labels[n] if n < len(labels) else None
        for rep in np.unique(here).tolist():
            nid = f"b{n}:{ids_sorted[rep]}"
            node_ids.append(nid)
            level[nid] = n
            # the containing ball one radius up is the one holding the rep
            parent[nid] = None if up is None else f"b{n + 1}:{ids_sorted[up[rep]]}"
    return Tower(node_ids, level, parent, caps=caps)


def ball_tower_base_map(space: Space, tower: Tower) -> dict[str, NodeId]:
    """Canonical map from points to base balls of a ball tower: each point
    goes to the level-1 ball containing it (a bijection when radii[0] = 0).

    The base radius is not recorded on the tower, so membership is read
    off the metric: a point's ball is the one whose representative is
    nearest, the least representative id among equally near ones."""
    reps = sorted((b.split(":", 1)[1], b) for b in tower.base)
    cols = np.asarray([space.index(rep) for rep, _ in reps], dtype=np.int64)
    # argmin keeps the first minimum, i.e. the least rep id among the nearest
    nearest = space.codes[:, cols].argmin(axis=1)
    return {p: reps[int(k)][1] for p, k in zip(space.points, nearest)}
