"""Towers: leveled single-top forests, their path metric, degree profiles,
level subtowers, and ball towers of ultrametric spaces.

A tower of height H has nodes on levels 1..H, every node below the top has
a parent exactly one level up, and there is a single top node.  The base is
the set of level-1 nodes; the path metric on the base is
d(x, y) = 2 * (level of the least common ancestor) - 2, which is an
ultrametric taking even values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .limits import DEFAULT_CAPS, Caps
from .rationals import Rational, canon
from .report import ValidationReport, Violation
from .spaces import CLOSED, Space, _IndexRows

NodeId = str


@functools.lru_cache(maxsize=None)
def _tails(degree: int) -> tuple[str, ...]:
    """The tails '.0' .. '.{degree-1}' of one step, in string order."""
    return tuple(sorted(map(".{}".format, range(degree))))


def _extend(ids: list[str], degrees: Sequence[int]) -> list[str]:
    """Each id followed by each tail of the steps of the given degrees,
    in id order when ids is."""
    for d in degrees:
        ids = [p + tail for p in ids for tail in _tails(d)]
    return ids


class PathRow(Sequence):
    """One level of a regular tower's ids, formatted on read.

    Level l of a tower of height H holds the dotted descent paths of
    H - l steps from the top 't': one tail per step, the tails of a step
    of degree d being '.0' .. '.{d-1}' in string order ('.10' before
    '.2').  Index k, read as a mixed-radix number whose digits are tail
    ranks, the last step least significant, is the id 't' followed by
    the tails of those ranks.  Only the steps' degrees are kept: indexing
    formats one id, iteration builds the level with one list
    comprehension a step, and lookup parses an id into its tails.  '.'
    sorts before every digit, so the row lists its ids in id order
    (id_sorted), and two rows hold the same ids exactly when they have
    the same degrees."""

    __slots__ = ("_degrees", "_len")
    id_sorted = True

    def __init__(self, degrees: tuple[int, ...]):
        self._degrees = degrees
        self._len = math.prod(degrees)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(self._len))))
        k = operator.index(key)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("path row index out of range")
        tails = []
        for d in reversed(self._degrees):
            k, r = divmod(k, d)
            tails.append(_tails(d)[r])
        return "t" + "".join(reversed(tails))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(_extend(["t"], self._degrees))

    def _node_text(self, up: "PathRow", level: int, chunk: int) -> Iterator[str]:
        """tower_hash's text of this row's nodes, level level of a uniform
        tower whose level above is up, in runs of about chunk nodes.  A
        node's text runs on to the opening of the next node's:
        "I","level":L,"parent":"P"},{"id": .  In such a tower node k's
        parent is node k // (len(self) // len(up)) above, so the children
        of parent p are p followed by each tail of the steps between the
        rows, in order, and their text is written a parent at a time."""
        tails = _extend([""], self._degrees[len(up._degrees):])
        mid = f'","level":{level},"parent":"'
        parents = iter(up)
        per = max(1, chunk // len(tails))
        while run := list(itertools.islice(parents, per)):
            yield "".join(['"' + p + (mid + p + '"},{"id":"' + p).join(tails)
                           + mid + p + '"},{"id":' for p in run])

    def _position(self, node) -> Optional[int]:
        """The index of id node, parsed tail by tail; None when the row
        lacks it."""
        if not isinstance(node, str):
            return None
        head, *steps = node.split(".")
        if head != "t" or len(steps) != len(self._degrees):
            return None
        k = 0
        for d, step in zip(self._degrees, steps):
            tails, tail = _tails(d), "." + step
            r = bisect_left(tails, tail)
            if r == d or tails[r] != tail:
                return None
            k = k * d + r
        return k

    def __contains__(self, node) -> bool:
        return self._position(node) is not None

    def index(self, node, start: int = 0, stop: Optional[int] = None) -> int:
        k = self._position(node)
        if k is None or k not in range(self._len)[start:stop]:
            raise ValueError(f"{node!r} is not in the row")
        return k

    def __eq__(self, other):
        if type(other) is PathRow:
            return self._degrees == other._degrees
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(other) == self._len and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PathRow(degrees={self._degrees})"


def _raw_arrays(ids: Sequence[NodeId], level: Mapping[NodeId, int],
                parent: Mapping[NodeId, Optional[NodeId]]) -> Optional[tuple[list, list]]:
    """Raw tower data in the array form a Tower holds: each level's ids in
    id order and, below the top level, each node's parent index one level
    up, -1 where the parent is not on the level above.  None when the data
    has no such form: a level that is not an int in 1..len(ids) (checked
    before any row is allocated, so a huge level costs nothing), a
    top-level node with a parent, or ids that do not sort."""
    levels = list(map(level.get, ids))
    # levels are compared by type, not isinstance: bool is an int subclass
    if set(map(type, levels)) != {int} or min(levels) < 1 or max(levels) > len(ids):
        return None
    rows: list[list[NodeId]] = [[] for _ in range(max(levels))]
    for i, lv in zip(ids, levels):
        rows[lv - 1].append(i)
    try:
        rows = list(map(sorted, rows))
    except TypeError:
        return None
    if any(parent.get(i) is not None for i in rows[-1]):
        return None
    par = []
    for row, up in zip(rows, rows[1:]):
        at = dict(zip(up, range(len(up))))
        par.append(np.fromiter(map(at.get, map(parent.get, row), itertools.repeat(-1)),
                               np.int64, len(row)))
    return rows, par


def _child_counts(row: Sequence[NodeId], up: Sequence[NodeId], par) -> Optional[np.ndarray]:
    """How many children on level row each node of level up has, or None
    when par is not an integer array holding, for each node of row, an
    index into up.  One bincount decides both: it raises at a negative
    index and counts past len(up) at one too large."""
    if not (type(par) is np.ndarray and par.dtype.kind == "i" and par.shape == (len(row),)):
        return None
    try:
        counts = np.bincount(par, minlength=len(up))
    except ValueError:
        return None
    return counts if counts.size == len(up) else None


def _array_fault(ids: Sequence[Sequence[NodeId]], pars: Sequence[np.ndarray]) -> Optional[str]:
    """Why the parent arrays pars cannot be read as a parent map over the
    level rows ids, or None when they can: below the top, level l's par
    must be an integer array holding, for each node of level l, an index
    into level l + 1."""
    if len(pars) != len(ids) - 1:
        return f"expected {len(ids) - 1} parent index arrays, got {len(pars)}"
    for lv, (row, up, par) in enumerate(zip(ids, ids[1:], pars), start=1):
        if _child_counts(row, up, par) is None:
            return f"level {lv} needs {len(row)} parent indices in [0, {len(up)})"
    return None


def _valid_arrays(ids: Sequence[Sequence[NodeId]], pars: Sequence[np.ndarray]) -> bool:
    """Whether the array form satisfies the tower axioms: non-empty
    levels, one top, parent arrays that can be read as a parent map (each
    node a level >= 1 and a parent one level up) with a child under every
    node above level 1, and distinct ids.  One bincount a level decides
    the parent arrays.

    Rows that are all PathRows hold distinct ids when their step counts
    are distinct, so they need no id set: an id's dots count its steps,
    so ids of two rows differ, and two ids of one row differ in the tail
    of some step, since each index is one mixed-radix number of tail
    ranks.  Any other rows are checked with one set of every id."""
    if len(pars) != len(ids) - 1 or not all(ids) or len(ids[-1]) != 1:
        return False
    for row, up, par in zip(ids, ids[1:], pars):
        counts = _child_counts(row, up, par)
        if counts is None or not counts.all():
            return False
    if all(type(row) is PathRow for row in ids):
        return len({len(row._degrees) for row in ids}) == len(ids)
    return len(set(itertools.chain.from_iterable(ids))) == sum(map(len, ids))


def validate_tower(
    node_ids: Tower | Sequence[NodeId],
    level: Optional[Mapping[NodeId, int]] = None,
    parent: Optional[Mapping[NodeId, Optional[NodeId]]] = None,
) -> ValidationReport:
    """Check the tower axioms on raw data, or on a Tower's arrays, and
    report every violation.

    Checked: unique ids, total integer level map with min level 1, a single
    top node, parent defined exactly below the top and absent at it, parent
    one level up (this is the level condition: a childless node above level
    1 or a two-level parent hop both break it), and upper cones linearly
    ordered (automatic for a functional parent map, checked as acyclicity:
    every parent chain must reach the top).

    Raw data is put in a Tower's array form (_raw_arrays), and both are
    decided on those arrays.  Only invalid data is walked node by node to
    list the witnesses; a Tower's parent arrays that cannot be read as a
    parent map are one parent-structure violation.
    """
    checked = ("unique-ids", "levels-total", "single-top", "parent-structure",
               "level-condition", "chains-reach-top")
    is_tower = isinstance(node_ids, Tower)
    if is_tower and (level is not None or parent is not None):
        raise TypeError("a Tower is validated without level and parent maps")
    arrays = (node_ids._ids, node_ids._par) if is_tower else _raw_arrays(node_ids, level, parent)
    if arrays is not None and _valid_arrays(*arrays):
        return ValidationReport("tower axioms", checked, ())
    if is_tower:
        fault = _array_fault(*arrays)
        if fault is not None:
            return ValidationReport("tower axioms", checked, (
                Violation("parent-structure", (), fault),))
        # an id on several levels takes the highest, and the parent it has
        # on the highest of them below the top
        rows, pars = arrays
        node_ids = list(itertools.chain.from_iterable(rows))
        level = {i: lv for lv, row in enumerate(rows, start=1) for i in row}
        parent = dict.fromkeys(rows[-1])
        for row, up, p in zip(rows, rows[1:], pars):
            parent.update(zip(row, map(up.__getitem__, p.tolist())))
    # the per-node walk below only lists the witnesses of invalid data
    violations: list[Violation] = []
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
    # every parent chain must reach the top; one still going after as many
    # steps as there are ids runs round a cycle, so the walk stops there
    # (levels can be huge)
    limit = min(height, len(seen)) + 1
    for i in levels_ok:
        cur, steps = i, 0
        while parent.get(cur) is not None and steps <= limit:
            cur = parent[cur]
            steps += 1
            if cur not in seen:
                break
        if cur in seen and parent.get(cur) is None and \
                type(level.get(cur)) is int and level[cur] != height:
            violations.append(Violation(
                "chains-reach-top", (i, cur), "parent chain ends below the top"))
    return ValidationReport("tower axioms", checked, tuple(violations))


def _require_tower(report: ValidationReport) -> None:
    ValidationReport("tower", report.checked, report.violations).require()


class Tower:
    """Validated tower; construction rejects structurally invalid data.

    A tower is its parent arrays: for each level l = 1..height, _ids[l - 1]
    lists the level's node ids in id order (a tuple, or the PathRow of a
    regular tower's level, which formats its ids on read) and, below the top,
    _par[l - 1][k] is the index in _ids[l] of the parent of
    _ids[l - 1][k].  _blocks is set on a tower its builder knows to be
    uniform (regular_tower, and the level subtowers of such a tower): the
    number of base points under each node of each level, the base points
    under a node being one run of the base index, so node k's parent is
    node k // (its level's block over the block below), and base_space and
    the degree profiles are read off the blocks by arithmetic; any other
    tower holds None.  _profile keeps the degree profile once read.  The
    constructor validates its raw input, regular_tower and ball_tower
    validate the arrays they build, and a level subtower is not
    re-validated, since restricting a valid tower to some levels that
    include its top keeps every axiom.
    """

    __slots__ = ("height", "base", "_ids", "_par", "_blocks", "_profile")

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        level: Mapping[NodeId, int],
        parent: Mapping[NodeId, Optional[NodeId]],
        caps: Caps = DEFAULT_CAPS,
    ):
        arrays = _raw_arrays(node_ids, level, parent)
        caps.check_tower(len(arrays[0][0]) if arrays else 0, len(node_ids))
        if arrays is None or not _valid_arrays(*arrays):
            _require_tower(validate_tower(node_ids, level, parent))
            # valid data has an array form unless its ids do not sort
            raise TypeError("tower node ids must be mutually comparable")
        self._fill(*arrays)

    def _fill(self, ids: Sequence[Sequence[NodeId]], par: Sequence[np.ndarray],
              blocks: Optional[tuple[int, ...]] = None) -> None:
        """Set every field from the array form; the one path all
        constructors take."""
        self._ids = tuple(row if type(row) is PathRow else tuple(row) for row in ids)
        self._par = tuple(par)
        self._blocks = blocks
        self._profile: Optional[DegreeProfile] = None
        self.height = len(ids)
        self.base = self._ids[0]

    @property
    def top(self) -> NodeId:
        return self._ids[-1][0]


def _of_arrays(
    ids: Sequence[Sequence[NodeId]], par: Sequence[np.ndarray], caps: Caps,
    blocks: Optional[tuple[int, ...]] = None,
) -> Tower:
    """A tower from its array form, within the cap but not validated."""
    caps.check_tower(len(ids[0]), sum(map(len, ids)))
    tower = Tower.__new__(Tower)
    tower._fill(ids, par, blocks)
    return tower


def _built(
    ids: Sequence[Sequence[NodeId]], par: Sequence[np.ndarray], caps: Caps,
    blocks: Optional[tuple[int, ...]] = None,
) -> Tower:
    """A tower the library built in array form, validated on its arrays."""
    tower = _of_arrays(ids, par, caps, blocks)
    _require_tower(validate_tower(tower))
    return tower


# -- maps between towers -----------------------------------------------------


def _child_runs(par: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """A level's indices sorted stably by parent index (par), so node k of
    the size nodes above has the children order[starts[k]:starts[k + 1]],
    in id order."""
    counts = np.bincount(par, minlength=size)
    return np.argsort(par, kind="stable"), np.concatenate(([0], np.cumsum(counts)))


def _descend(
    t1: Tower, t2: Tower, top: int, roots: Sequence[int], w: int,
    place: Callable[..., np.ndarray],
) -> list[np.ndarray]:
    """A map from t1 to t2 built top-down, one index array per level:
    phi[l - 1][k] indexes t2._ids[l - 1] for t1._ids[l - 1][k], -1 off the
    domain.  Root indices on level top go to w; a mapped node's children
    go to its image's children at place(lv, seq, img, kids, deg, up, j):
    seq and img are the mapped nodes in descent order and their images,
    kids and deg their child counts, up and j each child's parent
    position in seq and its rank among its siblings."""
    seq, img, phi = np.asarray(roots, dtype=np.int64), np.full(len(roots), w), []
    for lv in range(top, 0, -1):
        phi.append(np.full(len(t1._ids[lv - 1]), -1))
        phi[-1][seq] = img
        if lv == 1:
            return phi[::-1]
        order1, starts1 = _child_runs(t1._par[lv - 2], len(t1._ids[lv - 1]))
        order2, starts2 = _child_runs(t2._par[lv - 2], len(t2._ids[lv - 1]))
        kids = np.diff(starts1)[seq]
        up = np.repeat(np.arange(seq.size), kids)
        j = np.arange(up.size) - np.repeat(np.cumsum(kids) - kids, kids)
        at = place(lv, seq, img, kids, np.diff(starts2)[img], up, j)
        seq, img = order1[starts1[seq[up]] + j], order2[starts2[img[up]] + at]


def _under(tower: Tower, top: int, roots: Sequence[int]) -> list[np.ndarray]:
    """Which nodes lie under the nodes at indices roots of level top: one
    mask per level, from top down to 1."""
    masks = [np.zeros(len(tower._ids[top - 1]), dtype=bool)]
    masks[0][roots] = True
    for par in reversed(tower._par[:top - 1]):
        masks.append(masks[-1][par])
    return masks


def _locate(tower: Tower, node: NodeId) -> Optional[tuple[int, int]]:
    """A node's level and its index in that level's ids, parsed on a
    PathRow and found by bisection on any other id-sorted level; None
    when the tower lacks it."""
    for lv, row in enumerate(tower._ids, start=1):
        if type(row) is PathRow:
            k = row._position(node)
            if k is not None:
                return lv, k
            continue
        k = bisect_left(row, node)
        if k < len(row) and row[k] == node:
            return lv, k
    return None


def _node_dict(phi: Sequence[np.ndarray], t1: Tower, t2: Tower) -> dict[NodeId, NodeId]:
    """The node map held in _descend's index arrays."""
    out: dict[NodeId, NodeId] = {}
    for row, ids1, ids2 in zip(phi, t1._ids, t2._ids):
        dom = np.flatnonzero(row >= 0)
        out.update(zip(map(ids1.__getitem__, dom.tolist()),
                       map(ids2.__getitem__, row[dom].tolist())))
    return out


# -- base space --------------------------------------------------------------


def base_space(tower: Tower, caps: Caps = DEFAULT_CAPS) -> Space:
    """The base under the path metric, points in id order, holding only
    its ball-label table.  Base points are within 2*(l-1) exactly when they
    share their level-l ancestor, so row l labels each point by the least
    base index under that ancestor.  A level whose node count does not
    fall merges no ball, so its value is unrealized and dropped.  A
    tower's ids are distinct, so the base ids are not checked again.

    On a uniform tower (Tower._blocks) the ancestor's least index is
    i - i % b, b the level's block size, and the table holds the block
    sizes (_IndexRows).  On any other tower each node's least index is
    lifted to its parent, going up a level, by a minimum at the parent
    indices (np.minimum.at, in int64), one rolling ancestor array is
    composed with the parent array, and the row is the least index at
    each point's ancestor: no sort, and one ancestor array at a time."""
    n = len(tower.base)
    if tower._blocks is not None:
        kept = [lv for lv, b in enumerate(tower._blocks)
                if lv == 0 or b > tower._blocks[lv - 1]]
        return Space.__new__(Space)._fill(
            tower.base, None, tuple(2 * lv for lv in kept),
            _IndexRows(n, tuple(map(tower._blocks.__getitem__, kept)), False), caps)
    anc = least = np.arange(n)  # point i's ancestor, node k's least base index
    rows, values = [least], [0]
    for lv, par in enumerate(tower._par, start=1):
        up = np.full(len(tower._ids[lv]), n, dtype=np.int64)
        np.minimum.at(up, par, least)
        anc, least = par[anc], up
        if up.size < par.size:
            rows.append(least[anc])
            values.append(2 * lv)
    return Space.__new__(Space)._fill(tower.base, None, tuple(values), rows, caps)


# -- builders ----------------------------------------------------------------


def _degree(d) -> int:
    """One step's children count, an int >= 1; floats, Fractions and
    strings are refused, not truncated or parsed."""
    try:
        d = operator.index(d)
    except TypeError:
        raise TypeError(f"degrees must be integers, got {d!r}") from None
    if d < 1:
        raise ValueError("degrees must be >= 1")
    return d


def regular_tower(
    degrees: Sequence[int], height: Optional[int] = None, caps: Caps = DEFAULT_CAPS
) -> Tower:
    """Tower whose every level-(n+1) node has exactly degrees[n-1] children.

    degrees[0] is the children count at level 2.  Ids are dotted descent
    paths from the top node 't', held as one PathRow a level.
    """
    if height is None:
        height = len(degrees) + 1
    if height < 1:
        raise ValueError("height must be >= 1")
    if len(degrees) < height - 1:
        raise ValueError("need height-1 degree entries")
    # degrees top down; no level is smaller than the one above it, so
    # counting level sizes stops at the first level past the cap, and a
    # tower over it is refused before any list of its height is made
    top_down: list[int] = []
    size = nodes = 1
    for d in map(degrees.__getitem__, range(height - 2, -1, -1)):
        if size > caps.max_points:
            break
        top_down.append(_degree(d))
        size *= top_down[-1]
        nodes += size
    caps.check_tower(size, nodes)
    # a level lists its parents' children runs in the parents' order, each
    # run in string order of the child digit ("10" < "2")
    ids = [PathRow(tuple(top_down[:steps])) for steps in range(height - 1, -1, -1)]
    par = [np.repeat(np.arange(len(up)), d) for up, d in zip(ids[1:], reversed(top_down))]
    return _built(ids, par, caps, tuple(size // len(row) for row in ids))


def level_subtower(
    tower: Tower, levels: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> tuple[Tower, dict[NodeId, NodeId]]:
    """Restrict to the chosen levels, relabeling them 1..K (node ids stay).

    Returns (subtower, next_map) where next_map sends each base node of the
    original tower to its ancestor at the lowest chosen level, i.e. the
    smallest subtower node above it.
    """
    levels = sorted(set(int(l) for l in levels))
    sub = _level_subtower(tower, levels, caps)
    anc = np.arange(len(tower.base))
    for lv in range(1, levels[0]):
        anc = tower._par[lv - 1][anc]
    low = list(tower._ids[levels[0] - 1])  # a PathRow formats each id once
    return sub, dict(zip(tower.base, map(low.__getitem__, anc.tolist())))


def _level_subtower(
    tower: Tower, levels: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> Tower:
    """level_subtower's subtower alone, for callers that need no
    next_map; levels sorted, with no repeats."""
    if not levels:
        raise ValueError("need at least one level")
    if levels[0] < 1 or levels[-1] > tower.height:
        raise ValueError(f"levels must lie in 1..{tower.height}")
    if levels[-1] != tower.height:
        # keep a single top: the top level must be selected
        raise ValueError("the top level must be among the chosen levels")
    # a chosen level's parent is its ancestor on the next chosen level.
    # Restricting a valid tower keeps every axiom (a node has descendants
    # on every level below it), so the restriction is not re-validated.
    par = []
    for lo, hi in zip(levels, levels[1:]):
        up = tower._par[lo - 1]
        for lv in range(lo + 1, hi):
            up = tower._par[lv - 1][up]
        par.append(up)
    blocks = tower._blocks and tuple(
        tower._blocks[lv - 1] // tower._blocks[levels[0] - 1] for lv in levels)
    return _of_arrays([tower._ids[lv - 1] for lv in levels], par, caps, blocks)


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
        without materializing it.  With b_l the product of the first l - 1
        degrees (the base points under a level-l node), entry (i, j) is
        b_j // b_i, listed j outer, i inner, as _cone_profile counts."""
        if height is None:
            height = len(degrees) + 1
        if height < 1:
            raise ValueError("height must be >= 1")
        if len(degrees) < height - 1:
            raise ValueError("need height-1 degree entries")
        b = list(itertools.accumulate(map(_degree, degrees[: height - 1]), operator.mul,
                                      initial=1))
        small = {(i, j): b[j - 1] // b[i - 1] for j in range(2, height + 1) for i in range(1, j)}
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


def degree_profile(tower: Tower) -> DegreeProfile:
    """Exhaustive degree profile of a materialized tower: the cone profile
    of its top, whose cone is the whole tower, kept on the tower."""
    if tower._profile is None:
        tower._profile = _cone_profile(tower, tower.height, None)
    return tower._profile


def _cone_profile(
    tower: Tower, top: int, roots: Optional[Sequence[int]]
) -> DegreeProfile:
    """Degree profile over the union of the lower cones of the nodes at
    indices roots of level top: entry (i, j) is the min/max, over the
    level-j nodes under the roots, of their level-i descendant counts.
    roots None stands for the whole tower, the cone of its top, and no
    node is masked out.

    On a uniform tower (Tower._blocks) the entries are arithmetic and no
    array is read: a level-j node's level-i descendants are the blocks of
    b_i base points that tile its own block of b_j, so each level-j node
    has b_j // b_i of them, and min = max over any non-empty root set
    (DegreeProfile.regular of the step degrees b_{l+1} // b_l).

    On any other tower a node's level-i descendants are those of its
    children summed, and a node is its own one descendant on its level,
    so one np.add.at of the children's rows at their parent indices, in
    int64, lifts every count one level up, and a count never passes
    through a float.  Cones are closed downward, so each count is the
    tower's own and only the min/max runs over the cones, one reduction
    per level.
    """
    b = tower._blocks
    if b is not None:
        return DegreeProfile.regular([b[lv] // b[lv - 1] for lv in range(1, top)], top)
    # masks[k]: the nodes under the roots at level top - k
    masks = None if roots is None else _under(tower, top, roots)
    small: dict = {}
    large: dict = {}
    # counts[i - 1, k]: level-i descendants of node k of the current level
    counts = np.ones((1, len(tower.base)), dtype=np.int64)
    for j in range(2, top + 1):
        par, size = tower._par[j - 2], len(tower._ids[j - 1])
        lifted = np.zeros((j, size), dtype=np.int64)
        at = np.arange(0, (j - 1) * size, size)[:, None] + par
        np.add.at(lifted.reshape(-1), at.reshape(-1), counts.reshape(-1))
        lifted[-1] = 1
        counts = lifted
        seen = counts[:-1] if masks is None else counts[:-1, masks[top - j]]
        for i, lo, hi in zip(range(1, j), seen.min(axis=1).tolist(),
                             seen.max(axis=1).tolist()):
            small[(i, j)], large[(i, j)] = lo, hi
    return DegreeProfile(top, small, large)


def entropy_from_degrees(tower: Tower, i: int, j: int) -> tuple[int, int]:
    """Entropy of the base read off the degree profile: under the closed
    convention, Ent at (eps, delta) = (2i, 2j) equals the (i+1, j+1) degree
    entry (large, small)."""
    if not (0 <= i <= j < tower.height):
        raise ValueError(f"need 0 <= i <= j < height={tower.height}")
    prof = degree_profile(tower)
    if i == j:
        return (1, 1)
    return (prof.large[(i + 1, j + 1)], prof.small[(i + 1, j + 1)])


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
    if not space.points:
        raise ValueError("ball towers need a nonempty space")
    if not space.is_ultrametric:
        raise ValueError("ball towers need an ultrametric space")
    if radii[-1] < space.diameter():
        raise ValueError(
            "last radius is below the diameter, the top level would "
            "have multiple balls")
    sub = space.subindices(None)
    ids_sorted = [space.points[int(i)] for i in sub]
    # each ball is labelled by its first hit in id order, which is its
    # least id; the containing ball one radius up is the one holding it
    labels, reps = [], []
    for r in radii:
        _, first, inv = np.unique(
            space.ball_labels(space.threshold_code(r, CLOSED), sub),
            return_index=True, return_inverse=True)
        labels.append(first[inv])
        reps.append(np.sort(first))
    ids = [[f"b{n}:{ids_sorted[r]}" for r in rep.tolist()]
           for n, rep in enumerate(reps, start=1)]
    par = [np.searchsorted(up_reps, up[rep])
           for rep, up, up_reps in zip(reps, labels[1:], reps[1:])]
    return _built(ids, par, caps)


def ball_tower_base_map(space: Space, tower: Tower) -> dict[str, NodeId]:
    """Canonical map from points to base balls of a ball tower: each point
    goes to the level-1 ball containing it (a bijection when radii[0] = 0).

    The base radius is not recorded on the tower, so membership is read
    off the ball-label table: the coarsest row on which the
    representatives' labels are still pairwise distinct.
    That row is no finer than the base radius's, so its balls are unions
    of base balls holding one representative each: each point's ball
    holds exactly its own base ball's representative.  ValueError when
    the space is not ultrametric."""
    reps = sorted((b.split(":", 1)[1], b) for b in tower.base)
    cols = np.asarray([space.index(rep) for rep, _ in reps], dtype=np.int64)
    # rows coarsen with the code, so the distinct ones are a run
    t = 0
    while t + 1 < len(space.values) and np.unique(
            space.ball_labels(t + 1, cols)).size == cols.size:
        t += 1
    labels = space.ball_labels(t)
    rep_of = np.empty(len(space.points), dtype=np.int64)
    rep_of[labels[cols]] = np.arange(cols.size)
    return {p: reps[int(k)][1] for p, k in zip(space.points, rep_of[labels])}
