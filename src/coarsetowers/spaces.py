"""Finite (ultra-)metric spaces: word spaces, balls, minimum nets, entropy
profiles, products, hyperspaces, chain components, and chain ultrametrization.

Distances are exact rationals, coded as small integers into a sorted tuple
of distinct distance values; the code map is an order isomorphism, so every
vectorized min/max/compare on codes is an exact statement about the
underlying rationals.  Floats never appear in a metric predicate.  Built
ultrametrics store only their ball-label table (see Space.codes).
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .limits import DEFAULT_CAPS, Caps, CapExceeded
from .rationals import Rational, canon, rat_str
from .report import ValidationReport, Violation

PointId = str

STRICT = "strict"
CLOSED = "closed"


def _pick_dtype(nvalues: int):
    return np.int16 if nvalues < 32_000 else np.int32


def _compact(
    codes: np.ndarray, values: Sequence[Rational]
) -> tuple[np.ndarray, tuple]:
    """Drop the values no cell realizes: returns the codes renumbered onto
    the realized values, in the code dtype for that many values, and those
    values.  Renumbering keeps the order, so the code map stays
    order-preserving.  Realized codes are marked in a table of len(values)
    flags, rows of about four million cells at a time, so nothing is
    sorted; when every value is realized the codes come back unrenumbered.
    values may be a range of integers, whose realized ones are picked by
    one add."""
    present = np.zeros(len(values), dtype=bool)
    n = codes.shape[0]
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        present[codes[lo:lo + chunk]] = True
    used = np.flatnonzero(present)
    dtype = _pick_dtype(used.size)
    if used.size == len(values):
        return codes.astype(dtype, copy=False), tuple(values)
    remap = np.zeros(len(values), dtype=dtype)
    remap[used] = np.arange(used.size)
    if isinstance(values, range):
        return remap[codes], tuple((used * values.step + values.start).tolist())
    return remap[codes], tuple(map(values.__getitem__, used.tolist()))


class _Table:
    """A ball-label table: for each realized code t, the row whose entry i
    is the least index of a point within code t of point i (see
    Space.ball_labels).  Every table answers four reads: row t
    (table[t]), the labels of an index array at row t (at), each point's
    rank in a depth-first leaf order, in which every ball is one run
    (leaf_rank), and the size of every ball of each code when all balls
    of that code have one size (ball_sizes).  _Rows stores its rows;
    _IndexRows computes them from the point index."""

    __slots__ = ()

    def at(self, t: int, idx: np.ndarray) -> np.ndarray:
        return self[t][idx]

    def ball_sizes(self) -> Optional[tuple]:
        """Stored rows do not say their ball sizes: None."""
        return None

    def leaf_rank(self) -> np.ndarray:
        """One lexsort of the rows, the coarsest first, inverted."""
        order = np.lexsort(self) if len(self) else np.arange(0)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        return rank

    def neighbour_codes(self, idx: np.ndarray) -> np.ndarray:
        """The codes between consecutive points of idx: the number of rows
        that separate them, each row read at idx once."""
        out = np.zeros(idx.size - 1, dtype=np.int64)
        for t in range(len(self)):
            lab = self.at(t, idx)
            out += lab[1:] != lab[:-1]
        return out


class _Rows(_Table, list):
    """A ball-label table stored as its rows, int64 arrays of n labels."""

    __slots__ = ()


class _IndexRows(_Table):
    """The ball-label table of a space whose balls are runs of index
    arithmetic, held as one step per realized code: a block size b, row t
    being i - i % b (the base of a uniform tower, whose level-l nodes each
    hold one run of b base points), or a modulus m, row t being i % m (a
    word space, whose words agree from some position on exactly when their
    indices agree mod m).  Each step divides the next block size, or the
    modulus before it.  Rows are computed when read; the labels of an
    index array, or of one plain int, are computed on it alone."""

    __slots__ = ("n", "steps", "modular")

    def __init__(self, n: int, steps: tuple, modular: bool):
        self.n, self.steps, self.modular = n, steps, modular

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, t: int) -> np.ndarray:
        return self.at(t, np.arange(self.n))

    def at(self, t: int, idx: np.ndarray) -> np.ndarray:
        """One floor division: the block's first index, or what lies above
        it for a modulus."""
        step = self.steps[t]
        low = idx // step * step
        return idx - low if self.modular else low

    def ball_sizes(self) -> tuple:
        """A block holds b points; a residue class mod m holds n // m."""
        return tuple(self.n // step if self.modular else step for step in self.steps)

    def leaf_rank(self) -> np.ndarray:
        """The identity for blocks.  Moduli read the index's digits from
        the least significant (the rows coarsest first), so the rank is
        the index with its mixed-radix digits reversed, built from the
        last modulus up: index q * m' + r below modulus m (q the digit
        between m and m', m' dividing m) ranks q + (m // m') * rank(r)."""
        if not self.modular:
            return np.arange(self.n)
        rank = np.zeros(1, dtype=np.int64)
        for m, low in zip(self.steps[-2::-1], self.steps[:0:-1]):
            rank = (np.arange(m // low)[:, None] + m // low * rank).ravel()
        return rank

    def neighbour_codes(self, idx: np.ndarray) -> np.ndarray:
        """When idx lists every point in leaf order, where a ball of s
        points is a run of s leaves, the codes are a ruler sequence: for
        each ball size s, one more at every s-th neighbour.  Any other idx
        reads the rows at idx."""
        pos = self.leaf_rank()[idx]
        if pos.size != self.n or not (np.diff(pos) == 1).all():
            return super().neighbour_codes(idx)
        out = np.zeros(self.n - 1, dtype=np.int64)
        for size in self.ball_sizes():
            out[size - 1::size] += 1
        return out


class Space:
    """Finite metric space over opaque string point ids.

    The point tuple order is part of the space's identity.  Deterministic
    tie-breaks (net representatives, selections) always compare id strings,
    and builders emit points so that id order and tuple order agree.  The
    base space of a regular tower holds the tower's base row, a
    towers.PathRow that formats each id when it is read, as its points.
    values lists exactly the distances its pairs realize, as every builder
    and loader gives them and Space(...) makes them (_compact): so on an
    ultrametric the diagonal is code 0 and label row 0 is the identity.

    A space known to be ultrametric holds its ball-label table: the base
    of a uniform tower (towers.base_space) and a word space hold it as
    index arithmetic (_IndexRows); every other builder, and a passing
    validation, store its rows (_Rows).  Only spaces read from matrices
    hold their code matrix from the start.
    """

    __slots__ = ("points", "values", "_codes", "_index", "_labels", "_ranks")

    def __init__(
        self,
        points: Sequence[PointId],
        codes: np.ndarray,
        values: Sequence[Rational],
        caps: Caps = DEFAULT_CAPS,
    ):
        codes = np.asarray(codes)
        self._fill(tuple(points), codes, tuple(canon(v) for v in values), None, caps)
        self._unique_ids()
        if sorted(self.values) != list(self.values) or \
                len(set(self.values)) != len(self.values):
            raise ValueError("values must be strictly sorted and distinct")
        if codes.shape != (len(self.points), len(self.points)):
            raise ValueError("codes shape does not match point count")
        if not np.issubdtype(codes.dtype, np.integer) or codes.size and not (
                codes.min() >= 0 and codes.max() < len(self.values)):
            raise ValueError(f"codes must be integers in [0, {len(self.values)})")
        self._codes, self.values = _compact(codes, self.values)

    def _fill(self, points: tuple, codes: Optional[np.ndarray], values: tuple,
              labels: Optional[list], caps: Caps) -> "Space":
        """Set every slot; the one path by which a space is filled.  Only
        the cap is checked: the encoders pass values that are already
        canonical, sorted and distinct, and __init__ checks those of user
        code.  Ids that come from outside or are composed are checked by
        _unique_ids; base_space, _subspace, word_space and ultrametrize pass
        ids known distinct, and their id index is built on first lookup.
        labels is the complete ball-label table of a space known to be
        ultrametric, a list of its rows or a _Table, else None."""
        caps.check_points(len(points), "space")
        self.points, self.values = points, values
        self._codes = codes
        self._labels = _Rows(labels) if type(labels) is list else labels
        self._index = self._ranks = None
        return self

    def _id_index(self) -> dict:
        """Each point id's index, built on first lookup."""
        if self._index is None:
            self._index = dict(zip(self.points, range(len(self.points))))
        return self._index

    def _unique_ids(self) -> "Space":
        """The space itself once its id index shows no repeated id;
        ValueError otherwise."""
        if len(self._id_index()) != len(self.points):
            raise ValueError("duplicate point ids")
        return self

    # -- construction ------------------------------------------------------

    @classmethod
    def from_matrix(
        cls,
        points: Sequence[PointId],
        matrix: Sequence[Sequence[Rational]],
        caps: Caps = DEFAULT_CAPS,
    ) -> "Space":
        """Build from an explicit rational distance matrix (kept verbatim;
        bad inputs are representable so validators can report on them).

        The entries go through _encode_cells, the package's one
        rational-to-code encoder, with canon as the parse: each distinct
        entry is canonicalized once, and equal rationals share a code
        whatever their type (Fraction(4, 2) and 2 hash and compare equal).
        """
        return _encode_cells(points, matrix, canon, caps)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: PointId) -> bool:
        return point in self._id_index()

    def index(self, point: PointId) -> int:
        try:
            return self._id_index()[point]
        except KeyError:
            raise KeyError(f"unknown point id: {point!r}") from None

    @property
    def codes(self) -> np.ndarray:
        """The n x n code matrix.  A space built from its balls holds only
        its ball-label table and writes the matrix on first read: the
        table's leaf rank gives the depth-first order, in which every
        ball is one run, and each ball's code is written over its block,
        coarser first."""
        if self._codes is None:
            n, rows = len(self.points), self._labels
            # the coarsest row is one ball: its code fills the matrix
            codes = np.full((n, n), len(rows) - 1, dtype=_pick_dtype(len(rows)))
            order = np.empty(n, dtype=np.int64)
            order[rows.leaf_rank()] = np.arange(n)
            for code in range(len(rows) - 2, 0, -1):
                run = rows.at(code, order)
                bounds = np.flatnonzero(run[1:] != run[:-1]) + 1
                for lo, hi in zip([0] + bounds.tolist(), bounds.tolist() + [n]):
                    if hi - lo > 1:
                        block = order[lo:hi]
                        codes[block[:, None], block] = code
            np.fill_diagonal(codes, 0)
            self._codes = codes
        return self._codes

    def _pair_codes(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Codes of the pairs (i, j) of point indices, broadcast against
        each other: off the matrix when the space holds one, else the
        number of (nested) label rows that separate each pair."""
        if self._codes is not None:
            return self._codes[i, j].astype(np.int64)
        out = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)),
                       dtype=np.int64)
        for t in range(len(self._labels)):
            out += self._labels.at(t, i) != self._labels.at(t, j)
        return out

    def _id_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, rank): the point indices sorted by id, and each point's
        place in that order; computed once.  Builders list points in id
        order, except word spaces over alphabets above 10, whose ids sort
        "0.10" before "0.2", so points already in id order, known from a
        row that says so (id_sorted) or checked in one pass, are ranked by
        the identity without a sort."""
        if self._ranks is None:
            pts, n = self.points, len(self.points)
            if getattr(pts, "id_sorted", False) or \
                    all(map(operator.lt, pts, itertools.islice(pts, 1, None))):
                order = rank = np.arange(n, dtype=np.int64)
            else:
                order = np.fromiter(sorted(range(n), key=pts.__getitem__),
                                    dtype=np.int64, count=n)
                rank = np.empty(n, dtype=np.int64)
                rank[order] = np.arange(n)
            order.flags.writeable = rank.flags.writeable = False
            self._ranks = order, rank
        return self._ranks

    def dist(self, x: PointId, y: PointId) -> Rational:
        """One pair's distance, read on plain ints: off the matrix when the
        space holds one, else the number of label rows that separate the
        pair (as _pair_codes)."""
        i, j = self.index(x), self.index(y)
        if self._codes is not None:
            return self.values[self._codes[i, j]]
        tab = self._labels
        return self.values[sum(tab.at(t, i) != tab.at(t, j) for t in range(len(tab)))]

    def diameter(self) -> Rational:
        return self.values[-1] if self.values else 0

    def threshold_code(self, radius: Rational, convention: str) -> int:
        """Largest code whose value satisfies (value <= radius), resp.
        (value < radius); -1 when no value qualifies."""
        if convention == CLOSED:
            return bisect_right(self.values, radius) - 1
        if convention == STRICT:
            return bisect_left(self.values, radius) - 1
        raise ValueError(f"unknown net convention: {convention!r}")

    @property
    def is_ultrametric(self) -> bool:
        """True exactly when the space holds its ball-label table.  Spaces
        built from their balls are born with it; any other space is
        validated on first use, and a passing validation installs the
        table (validate_metric_axioms) while a failing one is kept as
        False."""
        if self._labels is None and not validate_ultrametric(self).ok:
            self._labels = False
        return self._labels is not False

    def ball_labels(self, tcode: int, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Row tcode of the ball-label table, or its entries at the point
        indices idx: entry i is the least index of a point within code
        tcode of point i, so each closed ball at that code is named by its
        first member.  ValueError on a space that is not ultrametric."""
        if not self.is_ultrametric:
            raise ValueError("ball labels need an ultrametric space")
        if not 0 <= tcode < len(self.values):
            raise ValueError(f"no ball-label row for code {tcode}")
        return self._labels[tcode] if idx is None else self._labels.at(tcode, idx)

    def subindices(self, subset: Optional[Iterable[PointId]]) -> np.ndarray:
        """Indices of a subset's distinct points (every point for None) in
        id order, the order _id_ranks gives; KeyError on an unknown id."""
        order, rank = self._id_ranks()
        if subset is None:
            return order
        idx = np.fromiter(map(self.index, subset), dtype=np.int64)
        return order[np.unique(rank[idx])]


class _CellIds(dict):
    """Provisional ids of distinct cell keys, numbered in order of first
    appearance; a key is parsed on its first lookup, and its value kept
    at its id."""

    __slots__ = ("parse", "values")

    def __init__(self, parse):
        super().__init__()
        self.parse = parse
        self.values: list = []

    def __missing__(self, key) -> int:
        self.values.append(self.parse(key))
        cid = self[key] = len(self.values) - 1
        return cid


def _encode_cells(
    points: Sequence[PointId],
    rows: Iterable[Sequence],
    parse,
    caps: Caps = DEFAULT_CAPS,
    ids: Optional[np.ndarray] = None,
    count: int = 0,
    values: Sequence[Rational] = (),
) -> Space:
    """The one rational-to-code encoder of distance matrices: rows yields n
    rows of n cell keys, and parse maps a key to its canonical rational.

    Each distinct key gets a provisional int32 id from one dict, and the
    n x n id array is filled one row at a time.  A key is parsed where it
    first appears, so the first bad cell in row order is the first error,
    and a generator of rows may check each row before it is read.  The
    distinct values are sorted once and one gather through a remap table
    writes the codes in the _pick_dtype of their count; keys that parse to
    equal rationals (" 2 " and "4/2" beside "2") share one code.  A caller
    that has read the first count rows itself passes the id array with
    those rows holding ids into values, and rows yields the rest."""
    points = tuple(points)
    n = len(points)
    caps.check_points(n, "space")  # before any cell is parsed
    table = _CellIds(parse)
    table.values.extend(values)
    if ids is None:
        ids = np.empty((n, n), dtype=np.int32)
    for row in rows:
        if count == n or len(row) != n:
            raise ValueError("matrix is not square")
        ids[count] = np.fromiter(map(table.__getitem__, row), dtype=np.int32, count=n)
        count += 1
    if count != n:
        raise ValueError("matrix is not square")
    vals = sorted(set(table.values))
    code_of = {v: c for c, v in enumerate(vals)}
    remap = np.fromiter(map(code_of.__getitem__, table.values),
                        dtype=_pick_dtype(len(vals)), count=len(table.values))
    return Space.__new__(Space)._fill(
        points, remap[ids], tuple(vals), None, caps)._unique_ids()


def _ball_table(
    points: Sequence[PointId],
    parts: Sequence[np.ndarray],
    values: Sequence[Rational],
    caps: Caps = DEFAULT_CAPS,
) -> Space:
    """The space of nested balls given as partitions, its ids unchecked.
    parts lists partitions of the points as non-negative integer class
    names, finest first: parts[0] names every point apart, the last holds
    one class, and points are within values[k] exactly when they share a
    class of parts[k].  A partition that merges nothing leaves its value
    unrealized and is dropped.  The least members of each kept
    partition's classes are lifted into the next partition by a minimum at
    their class names (np.minimum.at, in int64), and its row is the least
    member at each point's class: no sort.  The space holds that
    ball-label table and no matrix (see Space.codes)."""
    n = len(points)
    kept, labels, reps = [], [], np.arange(n)  # reps: the last kept row's least members
    for value, part in zip(values, parts):
        names = part[reps]
        least = np.full(int(names.max(initial=-1)) + 1, n, dtype=np.int64)
        np.minimum.at(least, names, reps)
        merged = least[least < n]
        if n and (not labels or merged.size < reps.size):
            kept.append(value)
            labels.append(least[part])
            reps = merged
    return Space.__new__(Space)._fill(tuple(points), None, tuple(kept), labels, caps)


# -- validation ------------------------------------------------------------


# the strong-triangle check lists at most this many witness triples
_MAX_WITNESSES = 1000


def _strong_triangle(space: Space) -> tuple[list[Violation], bool]:
    """Strong-triangle check by single linkage (Gower & Ross): the witness
    triples and whether the list was cut.  The minimum spanning tree's
    edges are merged in code order by a union-find whose roots are least
    members.  Edge (c, u, v) joins components A of u and B of v, whose
    cross pairs (x, y) all have codes >= c, and the matrix is ultrametric
    exactly when none is above c, so each cell is read once.  A cross pair
    above c is listed as (min(x, y), max(x, y), z): z = v if
    d(x,y) > max(d(x,v), d(v,y)), else u if that holds for u, else it is
    not listed.  The first merge with a pair above c joins two ultrametric
    sides with codes <= c, so either v is within c of x, or (x, v) is above
    c and u is within c of both: an empty list is the exact verdict.  The
    list stops at the first triple past _MAX_WITNESSES.  Needs the
    diagonal-zero, positivity and symmetry checks passed; a passing space
    keeps as its ball-label table the labels after the merges of code <= t,
    for each code t."""
    C = space.codes
    vals, pts = space.values, space.points
    edges = _spanning_tree(C, len(vals))
    root = np.arange(len(pts))  # each point's least member
    members = [np.array([i]) for i in range(len(pts))]  # each root's component
    out: list[Violation] = []
    rows, k = [], 0
    for t in range(len(vals)):
        while k < len(edges) and edges[k][0] <= t:
            c, u, v = edges[k]
            k += 1
            side, other = members[root[u]], members[root[v]]
            # the last block is alive while the next is read: two fit in 4M cells
            chunk = max(1, 2_000_000 // other.size)
            for lo in range(0, side.size, chunk):
                x = side[lo:lo + chunk]
                block = C[np.ix_(x, other)]
                if block.max() <= c:  # no mask on a clean block
                    continue
                bi, bj = np.nonzero(block > c)
                # codes are order-isomorphic to values, so comparing codes is exact
                xs, ys, dxy = x[bi], other[bj], block[bi, bj]
                zs = np.where(dxy > np.maximum(C[xs, v], C[v, ys]), v, u)
                listed = dxy > np.maximum(C[xs, zs], C[zs, ys])
                for i in np.flatnonzero(listed).tolist():
                    if len(out) == _MAX_WITNESSES:
                        return out, True
                    xk, yk, zk = sorted((int(xs[i]), int(ys[i]))) + [int(zs[i])]
                    out.append(Violation(
                        "strong-triangle", (pts[xk], pts[yk], pts[zk]),
                        f"d(x,y) = {rat_str(vals[C[xk, yk]])} > max("
                        f"{rat_str(vals[C[xk, zk]])}, {rat_str(vals[C[zk, yk]])})"))
            a, b = sorted((root[u], root[v]))
            root[members[b]] = a
            members[a], members[b] = np.concatenate((side, other)), None
        rows.append(root.copy())
    if not out and space._labels is None:
        space._labels = _Rows(rows)
    return out, False


# side of the square tiles the pair checks read: a tile and its mirror fit
# in cache together, and no check holds an n x n mask
_TILE = 512


def _upper_pair_defects(C: np.ndarray, positive: int) -> tuple[list, list]:
    """The pairs i < j, in row-major order, where C[i, j] != C[j, i] and
    where C[i, j] < positive.  Each tile of the upper triangle is compared
    with its mirror tile below the diagonal."""
    n = C.shape[0]
    found: tuple[list, list] = ([], [])
    for lo in range(0, n, _TILE):
        for co in range(lo, n, _TILE):
            tile = C[lo:lo + _TILE, co:co + _TILE]
            masks = (tile != C[co:co + _TILE, lo:lo + _TILE].T, tile < positive)
            for keys, mask in zip(found, masks):
                if co == lo:
                    mask = np.triu(mask, 1)
                if mask.any():
                    i, j = np.nonzero(mask)
                    keys.append((i + lo) * n + (j + co))

    def row_major(keys: list) -> list:
        if not keys:
            return []
        i, j = np.divmod(np.sort(np.concatenate(keys)), n)
        return list(zip(i.tolist(), j.tolist()))

    return row_major(found[0]), row_major(found[1])


def _check_ball_table(space: Space) -> None:
    """Prove a table-only space ultrametric off its K ball-label rows, in
    O(K * n): values[0] is 0, row 0 names every point apart, every row
    labels each ball by its least member (r[i] <= i and r[r] == r), each
    row is nested in the next (r_{t+1}[r_t] == r_{t+1}) and the top row
    is one ball.  On such a table the code of a pair, the number of rows
    that separate it (Space._pair_codes), is also the least row it shares
    (Space.codes), and sharing a ball is transitive, so the strong triangle
    holds; the diagonal, positivity and symmetry hold by construction.  A
    table breaking this is a fault of the builder, not of user input, so
    ValueError names its first bad row."""
    rows, n = space._labels, len(space.points)
    if len(rows) != len(space.values) or bool(rows) != bool(n):
        raise ValueError(f"ball-label table of {n} points has {len(rows)} "
                         f"rows for {len(space.values)} values")
    if not n:
        return
    if space.values[0] != 0:
        raise ValueError("ball-label row 0 is not at distance 0")
    points = np.arange(n)
    for t, row in enumerate(rows):
        if row.shape != (n,) or not ((0 <= row) & (row <= points)).all() \
                or not (row[row] == row).all():
            raise ValueError(f"ball-label row {t} does not name each ball "
                             "by its least member")
        if t == 0 and not (row == points).all():
            raise ValueError("ball-label row 0 does not name every point apart")
        if t and not (row[rows[t - 1]] == row).all():
            raise ValueError(f"ball-label row {t} splits a ball of row {t - 1}")
    if rows[-1].any():
        raise ValueError(f"ball-label row {len(rows) - 1}, the top, is not one ball")


def validate_metric_axioms(space: Space, strong: bool = True) -> ValidationReport:
    """Exhaustive metric-axiom check.

    A space that holds its ball-label table (a builder's output, or a
    space that passed a validation, whether or not its codes were read) is
    decided off that table in O(rows * n), with no matrix written (see
    _check_ball_table): it passes every rule, and a broken table raises
    ValueError.  Any other space (files, Space(...)) is checked on its
    code matrix as follows.

    Symmetry and positivity are read over fixed-size tiles of the upper
    triangle, each compared with its mirror tile, so no n x n mask is
    built; their witnesses are the pairs i < j in row-major order.
    strong=True checks the strong triangle inequality
    d(x,y) <= max(d(x,z), d(z,y)) over all triples by single linkage
    (_strong_triangle), which reports explicit triples, at least one when
    the inequality fails, at most _MAX_WITNESSES in all (a cut list marks
    the report truncated); when it passes, the space keeps the merges'
    label rows as its ball-label table.  The check needs a zero diagonal,
    positivity and symmetry, so when one of those fails the strong
    triangle is not judged and is left out of the report's checked rules.
    strong=False checks the plain d(x,y) <= d(x,z) + d(z,y) (exact
    rational sums, so it runs a pure-Python triple loop and is capped).
    """
    checked = ("diagonal-zero", "positivity", "symmetry")
    if isinstance(space._labels, _Table):
        _check_ball_table(space)
        # values are >= 0, so max(a, b) <= a + b: the plain triangle follows
        return ValidationReport("metric axioms", checked + (
            ("strong-triangle",) if strong else ("triangle",)))
    C = space.codes
    n = len(space.points)
    violations: list[Violation] = []
    truncated = False

    diag = np.diagonal(C)
    for i in np.nonzero(np.asarray([space.values[c] != 0 for c in diag]))[0]:
        violations.append(Violation(
            "diagonal-zero", (space.points[int(i)],),
            f"d(x,x) = {rat_str(space.values[C[i, i]])}"))

    # codes below this one carry values <= 0, as on a zero diagonal
    asym, nonpos = _upper_pair_defects(C, bisect_right(space.values, 0))
    for i, j in asym:
        violations.append(Violation(
            "symmetry", (space.points[i], space.points[j]),
            f"d(x,y) = {rat_str(space.values[C[i, j]])} but "
            f"d(y,x) = {rat_str(space.values[C[j, i]])}"))
    for i, j in nonpos:
        violations.append(Violation(
            "positivity", (space.points[i], space.points[j]),
            f"distinct points at distance {rat_str(space.values[C[i, j]])}"))

    if strong:
        if not violations:
            checked += ("strong-triangle",)
            found, truncated = _strong_triangle(space)
            violations.extend(found)
    else:
        checked += ("triangle",)
        if n ** 3 > 8_000_000:
            raise CapExceeded(
                f"plain-metric triangle check needs {n ** 3} exact sums; "
                "cap is 8000000 (use the ultrametric validator or a smaller space)")
        vals = space.values
        for x in range(n):
            for y in range(x + 1, n):
                dxy = vals[C[x, y]]
                for z in range(n):
                    if vals[C[x, z]] + vals[C[z, y]] < dxy:
                        violations.append(Violation(
                            "triangle",
                            (space.points[x], space.points[y], space.points[z]),
                            f"d(x,y) = {rat_str(dxy)} > "
                            f"{rat_str(vals[C[x, z]])} + {rat_str(vals[C[z, y]])}"))
    return ValidationReport("metric axioms", checked, tuple(violations), truncated)


def validate_ultrametric(space: Space) -> ValidationReport:
    """Metric axioms with the strong triangle inequality, decided exactly
    for all triples."""
    return validate_metric_axioms(space, strong=True)


# -- word spaces -----------------------------------------------------------


def word_id(digits: Sequence[int], alphabet_size: int) -> PointId:
    if alphabet_size <= 10:
        return "".join(str(d) for d in digits)
    return ".".join(str(d) for d in digits)


def word_space(
    alphabet_size: int, length: int, caps: Caps = DEFAULT_CAPS
) -> Space:
    """Words of a fixed length under d(x,y) = max{2^n : x_n != y_n}.

    The indicator form keeps the strong triangle inequality for every
    alphabet size; position n contributes 2^n when the letters disagree.
    Distinct distance values are exactly 0 and 2^n for n < length.  The
    space holds its ball-label table as index moduli (_IndexRows).
    """
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    if length < 1:
        raise ValueError("length must be >= 1")
    count = 1
    for _ in range(length):
        count *= alphabet_size
        if count > caps.max_points:
            raise CapExceeded(
                f"word space would have {alphabet_size}^{length} points, "
                f"cap is {caps.max_points}")
    # letters agree from position k on exactly when the index residues mod
    # alphabet_size**(length - k) agree: the first letter is the most
    # significant index digit, and row k of the table is i % that modulus
    moduli = tuple(alphabet_size ** (length - k) for k in range(length + 1))
    values = (0,) + tuple(2 ** p for p in range(length))
    letters = [str(d) for d in range(alphabet_size)]
    sep = "" if alphabet_size <= 10 else "."  # as word_id joins them
    points = tuple(map(sep.join, itertools.product(letters, repeat=length)))
    return Space.__new__(Space)._fill(
        points, None, values, _IndexRows(count, moduli, True), caps)


# -- balls, nets, entropy ----------------------------------------------------


def ball(space: Space, center: PointId, radius: Rational) -> tuple[PointId, ...]:
    """Closed ball: all points at distance <= radius, in point order.  A
    space holding its ball-label table reads the ball off it: the points
    sharing the center's label in the row of the radius's code.  Only a
    space without a table reads its codes."""
    x = space.index(center)
    t = space.threshold_code(radius, CLOSED)
    if t < 0:
        return ()
    if isinstance(space._labels, _Table):
        row = space._labels[t]
        idx = np.flatnonzero(row == row[x])
    else:
        idx = np.flatnonzero(space.codes[x] <= t)
    return tuple(space.points[int(i)] for i in idx)


def subspace(space: Space, subset: Iterable[PointId], caps: Caps = DEFAULT_CAPS) -> Space:
    """Induced space on a subset of point ids (see _subspace)."""
    return _subspace(space, space.subindices(subset), caps)


def _subspace(space: Space, sub: np.ndarray, caps: Caps = DEFAULT_CAPS) -> Space:
    """Induced space on the distinct point indices sub, given and kept in
    id order, its values compacted to the realized distances.  An
    ultrametric hands its label table's columns on sub to _ball_table; its
    whole, in id order, is the space itself, which realizes every value.
    Any other space compacts the codes of sub.  The ids are distinct ones
    of the space, so they are not checked again."""
    whole = sub.size == len(space.points) and bool((np.diff(sub) > 0).all())
    points = space.points if whole else tuple(map(space.points.__getitem__, sub.tolist()))
    if isinstance(space._labels, _Table):
        if whole:
            return space
        return _ball_table(points, [space._labels.at(t, sub) for t in range(len(space.values))],
                           space.values, caps)
    codes, values = _compact(
        space.codes if whole else space.codes[np.ix_(sub, sub)], space.values)
    return Space.__new__(Space)._fill(points, codes, values, None, caps)


def min_net(
    space: Space,
    subset: Optional[Iterable[PointId]] = None,
    radius: Rational = 0,
    convention: str = CLOSED,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[PointId, ...]:
    """Minimum-cardinality net for a subset.

    A net N covers the subset B when every x in B has some y in N with
    d(x,y) <= radius (closed) or < radius (strict).  On ultrametric spaces
    the covering relation is an equivalence, so the exact minimum is one
    representative per class and the least id is chosen from each class.
    On plain metrics an exhaustive branch-and-bound set-cover search finds
    the exact minimum; it is capped because the worst case is exponential.
    """
    sub = space.subindices(subset)
    if sub.size == 0:
        return ()
    t = space.threshold_code(radius, convention)
    if t < 0:
        raise ValueError(
            f"no admissible net: no distance satisfies the {convention} "
            f"bound at radius {rat_str(radius)}")
    if space.is_ultrametric:
        # each ball's first hit in id order is its least id
        _, first = np.unique(space.ball_labels(t, sub), return_index=True)
        return tuple(space.points[int(sub[r])] for r in np.sort(first))
    if sub.size > caps.max_exact_net_points:
        raise CapExceeded(
            f"exact net search on a plain metric is capped at "
            f"{caps.max_exact_net_points} points, got {sub.size}")
    return _min_cover_exact(space, sub, t)


def _min_cover_exact(space: Space, sub: np.ndarray, tcode: int) -> tuple[PointId, ...]:
    """Exact minimum set cover by closed/strict balls, branch and bound.

    Complete search: branches on the uncovered point with the fewest
    candidate centers and prunes with a covering-capacity lower bound,
    so the result is a true minimum.  Deterministic for fixed input.
    """
    m = int(sub.size)
    cover_mask = space.codes[np.ix_(sub, sub)] <= tcode
    covers = [0] * m
    for j in range(m):
        bits = 0
        for i in np.nonzero(cover_mask[:, j])[0]:
            bits |= 1 << int(i)
        covers[j] = bits
    full = (1 << m) - 1
    if any(c == 0 for c in covers):
        # a point covering nothing cannot even cover itself: no net exists
        raise ValueError("no admissible net: some point is covered by no center")

    # greedy upper bound
    uncovered = full
    greedy: list[int] = []
    while uncovered:
        best_j = max(range(m), key=lambda j: ((covers[j] & uncovered).bit_count(), -j))
        greedy.append(best_j)
        uncovered &= ~covers[best_j]
    best = greedy

    max_cover = max(c.bit_count() for c in covers)
    candidates_for = [
        [j for j in range(m) if cover_mask[i, j]] for i in range(m)
    ]

    def dfs(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = -(-uncovered.bit_count() // max_cover)  # ceil
        if len(chosen) + need >= len(best):
            return
        # branch on the uncovered point with fewest candidates
        pick, pick_opts = -1, None
        u = uncovered
        while u:
            i = (u & -u).bit_length() - 1
            opts = [j for j in candidates_for[i] if covers[j] & uncovered]
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = i, opts
                if len(opts) <= 1:
                    break
            u &= u - 1
        for j in pick_opts or ():
            chosen.append(j)
            dfs(uncovered & ~covers[j], chosen)
            chosen.pop()

    dfs(full, [])
    return tuple(space.points[int(sub[j])] for j in sorted(best))


@dataclass(frozen=True)
class EntropyProfile:
    """Entropy table: (eps, delta) -> (large, small).

    large is the max over centers of the minimum eps-net size of the closed
    delta-ball, small the min.  Net convention is recorded because strict
    and closed genuinely differ on these finite truncations.
    """

    entries: dict
    net_convention: str

    def rows(self):
        for (eps, delta) in sorted(self.entries):
            large, small = self.entries[(eps, delta)]
            yield eps, delta, large, small

    def check_monotone(self) -> ValidationReport:
        """large/small are nonincreasing in eps and nondecreasing in delta."""
        violations = []
        by_delta: dict = {}
        by_eps: dict = {}
        for (eps, delta), v in self.entries.items():
            by_delta.setdefault(delta, []).append((eps, v))
            by_eps.setdefault(eps, []).append((delta, v))
        for delta, items in by_delta.items():
            items.sort()
            for (e1, v1), (e2, v2) in zip(items, items[1:]):
                if v1[0] < v2[0] or v1[1] < v2[1]:
                    violations.append(Violation(
                        "monotone-eps", (e1, e2, delta),
                        f"entropy grew with eps at delta={rat_str(delta)}"))
        for eps, items in by_eps.items():
            items.sort()
            for (d1, v1), (d2, v2) in zip(items, items[1:]):
                if v1[0] > v2[0] or v1[1] > v2[1]:
                    violations.append(Violation(
                        "monotone-delta", (eps, d1, d2),
                        f"entropy shrank with delta at eps={rat_str(eps)}"))
        return ValidationReport(
            "entropy profile monotonicity",
            ("monotone-eps", "monotone-delta"),
            tuple(violations),
        )


def entropy_profile(
    space: Space,
    eps_list: Sequence[Rational],
    delta_list: Sequence[Rational],
    convention: str = CLOSED,
    caps: Caps = DEFAULT_CAPS,
) -> EntropyProfile:
    """Entropy over a grid: for each (eps, delta), the max and min over all
    centers of the minimum eps-net size of the closed delta-ball.

    On an ultrametric the minimum net of a delta-ball is one point per
    eps-ball inside it, and the balls nest: when eps-balls are finer each
    lies in one delta-ball, else a delta-ball lies in one eps-ball and its
    net is a single point.  The label rows are first-member labels, so the
    finer balls are named by their least members, which are exactly the
    points labelled by themselves, and counting those per coarse label
    counts the balls inside each delta-ball exactly.  A cell with
    te >= td is (1, 1) without a count: each delta-ball lies in one
    eps-ball.  Any other cell counts the eps-ball representatives per
    delta-label, and its max and min run over the counts at the
    delta-balls' own representatives, each of which also represents its
    eps-ball.  Each code's row is read, and its representatives found,
    once.  A table whose balls of each code all have one size
    (_Table.ball_sizes, so index arithmetic) reads no row: a delta-ball
    of s_td points is the disjoint union of eps-balls of s_te points each,
    so every center's count is s_td // s_te, and the cell is (q, q)."""
    n = len(space.points)
    if n == 0:
        raise ValueError("entropy of an empty space is undefined")
    entries: dict = {}
    if space.is_ultrametric:
        tes = [space.threshold_code(eps, convention) for eps in eps_list]
        for eps, te in zip(eps_list, tes):
            if te < 0:
                raise ValueError(
                    f"no net exists at eps={rat_str(eps)} under the "
                    f"{convention} convention")
        if any(delta < 0 for delta in delta_list):
            raise ValueError("delta must be >= 0")
        tds = [space.threshold_code(delta, CLOSED) for delta in delta_list]
        deltas = [canon(delta) for delta in delta_list]
        sizes = space._labels.ball_sizes()
        if sizes is None:
            rows = {t: space.ball_labels(t) for t in set(tes) | set(tds)}
            points = np.arange(n)
            # each code's representatives: the points labelled by themselves
            reps = {t: np.flatnonzero(row == points) for t, row in rows.items()}
        for eps, te in zip(eps_list, tes):
            eps = canon(eps)
            for delta, td in zip(deltas, tds):
                # closed delta-balls are the classes of {code <= td}, so the
                # net size of a center's ball is the number of eps-balls
                # inside its delta-ball
                if te >= td:
                    entries[(eps, delta)] = (1, 1)
                elif sizes is not None:
                    q = sizes[td] // sizes[te]
                    entries[(eps, delta)] = (q, q)
                else:
                    counts = np.bincount(rows[td][reps[te]])[reps[td]].tolist()
                    entries[(eps, delta)] = (max(counts), min(counts))
    else:
        for eps in eps_list:
            for delta in delta_list:
                counts = [
                    len(min_net(space, ball(space, p, delta), eps, convention, caps))
                    for p in space.points]
                entries[(canon(eps), canon(delta))] = (max(counts), min(counts))
    return EntropyProfile(entries, convention)


# -- products and hyperspaces ------------------------------------------------


def product(x: Space, y: Space, caps: Caps = DEFAULT_CAPS) -> Space:
    """Product of two ultrametric spaces under the max metric; ids are
    '(p|q)'.  Under the max metric a closed ball is a pair of factor
    balls, so the label of (p, q) at each value v is the pair of p's and
    q's labels at v, and _ball_table encodes those nested balls; the
    composed ids are checked for repeats.
    ValueError when a factor is not ultrametric."""
    n, m = len(x.points), len(y.points)
    caps.check_points(n * m, "product space")
    if not (x.is_ultrametric and y.is_ultrametric):
        raise ValueError("products need ultrametric factors")
    values = sorted(set(x.values) | set(y.values)) if n and m else []
    parts = []
    for v in values:
        lx = x.ball_labels(x.threshold_code(v, CLOSED))
        ly = y.ball_labels(y.threshold_code(v, CLOSED))
        parts.append((lx[:, None] * m + ly).ravel())
    points = [f"({p}|{q})" for p in x.points for q in y.points]
    return _ball_table(points, parts, values, caps)._unique_ids()


def hyperspace(space: Space, max_size: int, caps: Caps = DEFAULT_CAPS) -> Space:
    """Nonempty subsets of at most max_size points of an ultrametric space
    under the Hausdorff metric, again an ultrametric; ids are '{p|q|r}'.
    Two subsets are within v exactly when they meet the same closed
    v-balls, so a subset's label at v is the set of its members' labels,
    and _ball_table encodes those nested balls; the composed ids are
    checked for repeats.  ValueError when the
    space is not ultrametric."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n = len(space.points)
    count = sum(
        math.comb(n, k) for k in range(1, min(max_size, n) + 1)
    )
    caps.check_points(count, "hyperspace")
    if not space.is_ultrametric:
        raise ValueError("hyperspaces need an ultrametric space")
    subsets = []
    for k in range(1, min(max_size, n) + 1):
        subsets.extend(itertools.combinations(range(n), k))
    width = min(max_size, n)
    mem = np.asarray(
        [s + (s[0],) * (width - len(s)) for s in subsets], dtype=np.int64
    )
    parts = []
    for row in space._labels:
        # a subset's member labels as a set: sorted, each repeat replaced
        # by the least label, sorted again
        lab = np.sort(row[mem], axis=1)
        lab[:, 1:] = np.where(lab[:, 1:] == lab[:, :-1], lab[:, :1], lab[:, 1:])
        lab.sort(axis=1)
        parts.append(np.unique(lab, axis=0, return_inverse=True)[1].ravel())
    points = ["{" + "|".join(space.points[i] for i in s) + "}" for s in subsets]
    return _ball_table(points, parts, space.values, caps)._unique_ids()


# -- chain components and ultrametrization -----------------------------------


def _spanning_tree(C: np.ndarray, top: int) -> list[tuple[int, int, int]]:
    """The edges (code, i, j) of a minimum spanning tree of the symmetric
    codes C, sorted; top is above every code.  Prim's algorithm reads one
    matrix row per step, with O(n) state."""
    n = C.shape[0]
    edges = []
    if n:
        # each point's least code to the tree, in the codes' dtype if top fits
        best = C[0].astype(C.dtype if top <= np.iinfo(C.dtype).max else np.int64)
        best[0] = top  # marks a tree point
        near = np.zeros(n, dtype=np.int64)  # the tree point giving it
        todo = np.ones(n, dtype=bool)
        todo[0] = False
        for _ in range(n - 1):
            j = int(best.argmin())
            edges.append((int(best[j]), int(near[j]), j))
            todo[j] = False
            best[j] = top
            row = C[j]
            closer = row < best
            closer &= todo
            np.putmask(best, closer, row)
            np.putmask(near, closer, j)
        edges.sort()
    return edges


def _chain_partitions(space: Space, radii: Sequence[Rational]) -> list[np.ndarray]:
    """First-member labels of the chain components at each of the
    ascending radii: entry i is the least index joined to point i by a
    chain of steps of length <= radius.  A space holding its ball-label
    table reads the row at the radius's code, since an ultrametric's chain
    components are its closed balls.  Any other space is single linkage
    over its (symmetric) codes: the components at code t are those of the
    spanning tree's edges of code <= t (_spanning_tree), merged in code
    order by a union-find whose roots are least members."""
    n = len(space.points)
    tcodes = [space.threshold_code(r, CLOSED) for r in radii]
    if isinstance(space._labels, _Table):
        return [space._labels[t] if t >= 0 else np.arange(n) for t in tcodes]
    edges = _spanning_tree(space.codes, len(space.values))
    parent = list(range(n))  # parent[i] <= i

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    out, k = [], 0
    for t in tcodes:
        while k < len(edges) and edges[k][0] <= t:
            a, b = root(edges[k][1]), root(edges[k][2])
            parent[max(a, b)] = min(a, b)
            k += 1
        labels = np.asarray(parent, dtype=np.int64)
        while True:  # jump each pointer to its root
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
        out.append(labels)
    return out


def chain_components(
    space: Space, radius: Rational
) -> tuple[tuple[PointId, ...], ...]:
    """Partition into chain components: x ~ y when a chain of steps of
    length <= radius joins them.  Components come back sorted by first
    member in point order.  A space holding its ball-label table answers
    with the row at the radius's code, any other from a minimum spanning
    tree of its codes (_chain_partitions)."""
    label = _chain_partitions(space, [radius])[0]
    _, comp = np.unique(label, return_inverse=True)
    groups: list[list[PointId]] = [[] for _ in range(int(comp.max(initial=-1)) + 1)]
    for p, c in zip(space.points, comp.tolist()):
        groups[c].append(p)
    return tuple(tuple(g) for g in groups)


def ultrametrize(
    space: Space, scales: Sequence[Rational], caps: Caps = DEFAULT_CAPS
) -> Space:
    """Replace a plain metric with the chain ultrametric over given scales.

    rho(x, y) = 2 * (least 1-based scale index at which x and y fall in the
    same chain component); the factor 2 puts distances on the even grid the
    tower path metric uses.  Requires strictly increasing scales whose last
    entry chains the whole space together.  The components at every scale
    come from one spanning tree of the codes (or the ball-label table of a
    space that holds one), and the result holds only its label table.
    """
    scales = [canon(s) for s in scales]
    if not scales:
        raise ValueError("need at least one scale")
    if any(s2 <= s1 for s1, s2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    parts = [np.arange(len(space.points))] + _chain_partitions(space, scales)
    if parts[-1].any():  # a second component is labelled by a later point
        raise ValueError(
            "top scale does not chain the space into a single component")
    values = tuple(2 * k for k in range(len(scales) + 1))
    return _ball_table(space.points, parts, values, caps)
