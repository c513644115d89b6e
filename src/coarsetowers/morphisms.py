"""Multi-maps between finite spaces and their distortion calculus.

A multi-map is a relation: each source point may carry several targets and
the inverse is again a multi-map.  Everything a certificate claims about one
(moduli, surjectivity, closeness of a selection) is checked by exhaustive
scans over the realized distances, never assumed.  The second half of the
module works on towers: level-preserving embeddings and the admissible
germ builder, which descend one index array per level.  Their node maps
hold the tower conditions by construction: both keep levels and send each
child to a child of its parent's image, and the germ map also has a lower
domain and image, fibers inside one sibling set and one top image.  So
only their base restrictions are certified by such scans.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .limits import DEFAULT_CAPS, Caps
from .rationals import Rational, as_rational, canon, rat_json, rat_str
from .report import ValidationReport, Violation
from .spaces import CLOSED, PointId, Space, _Table, _subspace, ball, min_net
from .towers import (
    DegreeProfile, NodeId, Tower, _cone_profile, _descend, _locate, _node_dict,
    _under, base_space, degree_profile)


# -- multi-maps ---------------------------------------------------------------

PointMap = Union[Mapping[PointId, PointId], Callable[[PointId], PointId]]


class MultiMap:
    """Relation between two finite spaces, held as two read-only int64
    arrays of point indices: graph point k relates source point
    src_idx[k] to target point tgt_idx[k].  The graph is sorted by
    (source id, target id), ranked by each space's _id_ranks, with no
    repeats, so each source's targets form one run.  pairs, fibers and
    cofibers are views derived on demand and cached; the object never
    mutates.  Every constructor ends in _of_indices, the one sort, except
    _paired, which needs none."""

    def __init__(self, source: Space, target: Space,
                 pairs: Iterable[tuple[PointId, PointId]]):
        pairs = tuple(pairs)
        ids = tuple(zip(*pairs)) or ((), ())
        try:
            ia, ib = (np.fromiter(map(sp._id_index().__getitem__, i), np.int64, len(pairs))
                      for sp, i in zip((source, target), ids))
        except KeyError:  # name the first offending pair in sorted order
            a, b = min((a, b) for a, b in pairs if a not in source or b not in target)
            raise ValueError(f"pair source {a!r} not in the source space" if a not in source
                             else f"pair target {b!r} not in the target space") from None
        vars(self).update(vars(MultiMap._of_indices(source, target, ia, ib)))

    @classmethod
    def _of_indices(cls, source: Space, target: Space, ia, ib) -> "MultiMap":
        """The relation with graph points (ia[k], ib[k]), in any order and
        with repeats; the indices must lie in range.  A stable sort of the
        rank key runs in linear time on the nearly sorted keys builders
        pass, where np.unique hashes every key first."""
        (s_order, s_rank), (t_order, t_rank) = source._id_ranks(), target._id_ranks()
        m = max(len(target.points), 1)
        key = np.sort(s_rank[ia] * m + t_rank[ib], kind="stable")
        rs, rt = np.divmod(key[_run_starts(key)], m)
        mm = cls.__new__(cls)
        mm.source, mm.target, mm.src_idx, mm.tgt_idx = source, target, s_order[rs], t_order[rt]
        mm.src_idx.flags.writeable = mm.tgt_idx.flags.writeable = False
        return mm

    @classmethod
    def from_function(cls, source: Space, target: Space, fn: PointMap) -> "MultiMap":
        get = fn.__getitem__ if isinstance(fn, Mapping) else fn
        return cls(source, target, zip(source.points, map(get, source.points)))

    @classmethod
    def _paired(cls, source: Space, target: Space) -> "MultiMap":
        """Point k of source related to point k of target, for two spaces
        listing the same ids in the same order: each source point has
        one target, so the graph in source id order is the source's
        _id_ranks order on both sides, with no sort."""
        mm = cls.__new__(cls)
        order = source._id_ranks()[0]
        mm.source, mm.target, mm.src_idx, mm.tgt_idx = source, target, order, order
        return mm

    @classmethod
    def identity(cls, space: Space) -> "MultiMap":
        return cls._paired(space, space)

    @cached_property
    def pairs(self) -> tuple[tuple[PointId, PointId], ...]:
        return tuple(zip(_ids(self.source, self.src_idx), _ids(self.target, self.tgt_idx)))

    @cached_property
    def fibers(self) -> dict[PointId, tuple[PointId, ...]]:
        bounds = _run_starts(self.src_idx).tolist() + [self.src_idx.size]
        targets = _ids(self.target, self.tgt_idx)
        return {self.source.points[self.src_idx[lo]]: tuple(targets[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])}

    @cached_property
    def cofibers(self) -> dict[PointId, tuple[PointId, ...]]:
        return self.inverse().fibers

    def image(self, subset: Optional[Iterable[PointId]] = None) -> tuple[PointId, ...]:
        fibers = self.fibers
        return tuple(sorted({b for a in (fibers if subset is None else subset)
                             for b in fibers.get(a, ())}))

    def preimage(self, subset: Optional[Iterable[PointId]] = None) -> tuple[PointId, ...]:
        return self.inverse().image(subset)

    def inverse(self) -> "MultiMap":
        return MultiMap._of_indices(self.target, self.source, self.tgt_idx, self.src_idx)

    @cached_property
    def _out_degree(self) -> np.ndarray:
        return np.bincount(self.src_idx, minlength=len(self.source.points))

    @property
    def is_total(self) -> bool:
        return bool(self._out_degree.all())

    @property
    def is_surjective(self) -> bool:
        return bool(np.bincount(self.tgt_idx, minlength=len(self.target.points)).all())

    @property
    def is_function(self) -> bool:
        return bool((self._out_degree <= 1).all())

    @property
    def is_bijection(self) -> bool:
        return bool((self._out_degree == 1).all() and (self.inverse()._out_degree == 1).all())

    def as_function(self) -> dict[PointId, PointId]:
        if not self.is_function:
            raise ValueError("relation is not single-valued")
        return dict(self.pairs)


def _ids(space: Space, idx: np.ndarray) -> list[PointId]:
    return list(map(space.points.__getitem__, idx.tolist()))


def _run_starts(idx: np.ndarray) -> np.ndarray:
    """Positions where a run of equal entries begins."""
    return np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))[:idx.size]


def compose(phi: MultiMap, psi: MultiMap) -> MultiMap:
    """Relational composition: x related to z when some middle point y has
    (x,y) in phi and (y,z) in psi.  The middle spaces must carry the same
    point ids in the same order.  A join on the middle index: each graph
    point of phi is repeated once per target of its middle point, read
    off psi's run for that point."""
    if phi.target.points != psi.source.points:
        raise ValueError("composition needs matching middle point sets")
    starts = _run_starts(psi.src_idx)
    offset = np.zeros(len(psi.source.points), dtype=np.int64)
    offset[psi.src_idx[starts]] = starts
    count = psi._out_degree[phi.tgt_idx]
    at = np.repeat(offset[phi.tgt_idx] - np.cumsum(count) + count, count)
    z = psi.tgt_idx[at + np.arange(at.size)]
    return MultiMap._of_indices(phi.source, psi.target, np.repeat(phi.src_idx, count), z)


# -- distortion moduli --------------------------------------------------------


@dataclass(frozen=True)
class DistortionModulus:
    """Step table eps -> max image diameter over source pairs at distance
    <= eps, totalized over the realized source distances.  Rows ascend and
    deltas are cumulative maxima, so the table is nondecreasing by
    construction; finite is always True on finite spaces and kept explicit
    because certificates quote it."""

    table: tuple[tuple[Rational, Rational], ...]
    witnesses: tuple[tuple[PointId, PointId, PointId, PointId], ...] = ()
    finite: bool = True

    def value_at(self, eps: Rational) -> Rational:
        """Largest delta among rows with row eps <= the query; 0 below the
        smallest realized distance (the empty set has diameter 0)."""
        out: Rational = 0
        for e, d in self.table:
            if e <= eps:
                out = d
            else:
                break
        return out

    def check_monotone(self) -> ValidationReport:
        violations = []
        for (e1, d1), (e2, d2) in zip(self.table, self.table[1:]):
            if not (e1 < e2 and d1 <= d2):
                violations.append(Violation(
                    "modulus-monotone", (rat_str(e1), rat_str(e2)),
                    f"rows ({rat_str(e1)},{rat_str(d1)}) then "
                    f"({rat_str(e2)},{rat_str(d2)}) break monotonicity"))
        return ValidationReport(
            "distortion modulus", ("modulus-monotone",), tuple(violations))

    def to_json(self) -> dict:
        return {
            "table": [[rat_json(e), rat_json(d)] for e, d in self.table],
            "witnesses": [list(w) for w in self.witnesses],
            "finite": self.finite,
        }


def _pair_code_blocks(phi: MultiMap):
    """Yield (row offset, source-code block, target-code block) over every
    ordered pair of graph points, in blocks of whole rows of about four
    million cells each.  Cell (i, j) of a block is the pair of graph
    points lo + i and j in graph order, so the first hit found block
    by block is the row-major first over the whole scan."""
    ia, ib, n = phi.src_idx, phi.tgt_idx, phi.src_idx.size
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        yield (lo, phi.source._pair_codes(ia[lo:lo + chunk, None], ia[None, :]),
               phi.target._pair_codes(ib[lo:lo + chunk, None], ib[None, :]))


def _first_failing_pairs(phi: MultiMap, tests: dict) -> dict:
    """For each named test, a predicate on a source-code block and its
    target-code block, the row-major first pair (i, j) of graph points
    that fails it; tests no pair fails are left out.  This scan reads
    every pair's code (label rows on a table-only space, no matrix is
    written), so it runs only to name the witness of a bound the moduli
    have already shown broken."""
    first: dict = {}
    for lo, sc, tc in _pair_code_blocks(phi):
        for name in tests.keys() - first.keys():
            bad = tests[name](sc, tc)
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                first[name] = (lo + i, j)
        if len(first) == len(tests):
            break
    return first


def _witness(phi: MultiMap, i: int, j: int) -> tuple[PointId, PointId, PointId, PointId]:
    """Graph points i and j as (source i, source j, target i, target j)."""
    sp, tp, ia, ib = phi.source.points, phi.target.points, phi.src_idx, phi.tgt_idx
    return (sp[ia[i]], sp[ia[j]], tp[ib[i]], tp[ib[j]])


def _require_ultrametric(phi: MultiMap) -> None:
    """The certificate kernels read ball labels: both spaces must be
    ultrametric (a space not yet known to be is validated once here)."""
    if not (phi.source.is_ultrametric and phi.target.is_ultrametric):
        raise ValueError("certificate kernels need ultrametric spaces")


def distortion_modulus(phi: MultiMap, caps: Caps = DEFAULT_CAPS) -> DistortionModulus:
    """Exact modulus over all pairs of graph points of a relation between
    two ultrametric spaces, read from their ball-label tables
    (_label_modulus).

    Pairwise diameters suffice: a set has diameter <= d exactly when every
    two of its points are within d.  By the chain lemma (Carlsson & Memoli,
    JMLR 2010) the diameter of a finite sequence in an ultrametric is its
    largest distance between consecutive terms, and each ball is one run
    of a depth-first leaf order: so neighbours in source leaf order decide
    every pair without visiting it.  ValueError on an empty relation or
    when a space is not ultrametric.
    """
    if not phi.src_idx.size:
        raise ValueError("modulus of an empty relation")
    caps.check_points(phi.src_idx.size, "relation graph")
    _require_ultrametric(phi)
    return _label_modulus(phi)


def _label_modulus(phi: MultiMap) -> DistortionModulus:
    """The modulus, rows and witnesses, of a relation between two
    ultrametric spaces, read from their ball-label tables.

    Sorted stably by source leaf rank (the source table's leaf_rank), the
    graph points of each source ball form one run.  So by the
    chain lemma the realized source codes are the diagonal's code 0 and
    the neighbours', and the row at c is the running max M(c) of the largest
    target code between neighbours at each realized source code <= c.
    The witness of a row is the one a scan of every pair names: the
    row-major first pair at the least source code c* with the same M, at
    target code exactly M.  A pair within c* at target code M is at source
    code exactly c*, since every pair within c* - 1 stays within
    M(c* - 1) < M.
    """
    src, tgt = phi.source, phi.target
    ia, ib = phi.src_idx, phi.tgt_idx
    order = np.argsort(src._labels.leaf_rank()[ia], kind="stable")
    s = src._labels.neighbour_codes(ia[order])
    t = tgt._labels.neighbour_codes(ib[order])
    top = np.full(len(src.values), -1, dtype=np.int64)
    top[0] = 0
    np.maximum.at(top, s, t)
    codes = np.flatnonzero(top >= 0)
    run = np.maximum.accumulate(top[codes])
    rises = np.concatenate(([True], run[1:] > run[:-1]))
    # T_below: the last rise's T when M rose by one, None at the diagonal
    wits, last, T = [], -1, None
    for c, m in zip(codes[rises].tolist(), run[rises].tolist()):
        T_below = T if last == m - 1 else tgt.ball_labels(m - 1, ib)
        last, T = m, tgt.ball_labels(m, ib)
        wits.append(_witness(phi, *_first_pair_at(src.ball_labels(c, ia), T, T_below)))
    return DistortionModulus(
        tuple(zip(map(src.values.__getitem__, codes.tolist()),
                  map(tgt.values.__getitem__, run.tolist()))),
        tuple(map(wits.__getitem__, (np.cumsum(rises) - 1).tolist())))


def _first_pair_at(
    S: np.ndarray, T: np.ndarray, T_below: Optional[np.ndarray]
) -> tuple[int, int]:
    """Row-major first pair (k, l) of graph points sharing a label in S and
    in T but not in T_below (None excludes nothing), where T is constant
    on every S-class and T_below refines T, as at _label_modulus's call.

    Then k's S-class lies inside one T-class, so k has a partner exactly
    when T_below splits its S-class: when some member's T_below differs
    from the one label a scatter leaves for the class.  With T_below None
    every point pairs with itself first."""
    if T_below is None:
        return 0, 0
    rep = np.empty(int(S.max()) + 1, dtype=T_below.dtype)
    rep[S] = T_below
    split = np.zeros(rep.size, dtype=bool)
    split[S[rep[S] != T_below]] = True
    k = int(np.argmax(split[S]))
    row = (S == S[k]) & (T == T[k]) & (T_below != T_below[k])
    return k, int(np.argmax(row))


def check_modulus_composition(
    composed: DistortionModulus, stages: Sequence[DistortionModulus]
) -> ValidationReport:
    """Composed modulus must sit below the stagewise composition: push each
    eps through the stage tables in order and compare."""
    violations = []
    for eps, delta in composed.table:
        bound: Rational = eps
        for stage in stages:
            bound = stage.value_at(bound)
        if delta > bound:
            violations.append(Violation(
                "modulus-composition", (rat_str(eps),),
                f"composed delta {rat_str(delta)} exceeds stagewise bound "
                f"{rat_str(bound)} at eps {rat_str(eps)}"))
    return ValidationReport(
        "modulus composition", ("modulus-composition",), tuple(violations))


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class CertCheck:
    axiom: str
    passed: bool
    witness: tuple = ()

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "witness": [rat_json(w) if isinstance(w, (int, Fraction)) else str(w)
                        for w in self.witness],
        }


@dataclass(frozen=True)
class MorphismCertificate:
    """What was verified about one multi-map: both moduli, surjectivity of
    both directions, the individual checks with witnesses, and optionally a
    closeness bound between a selection round-trip and the identity."""

    kind: str  # isometry | asymorphism | embedding | admissible | relation
    forward_modulus: DistortionModulus
    backward_modulus: DistortionModulus
    checks: tuple[CertCheck, ...]
    forward_surjective: bool
    backward_surjective: bool
    closeness_bound: Optional[Rational] = None

    @property
    def is_asymorphism(self) -> bool:
        """Both directions surjective with finite moduli; isometries and
        built germ maps qualify, a bare embedding does not."""
        return (
            self.kind in ("isometry", "asymorphism", "admissible")
            and self.forward_surjective
            and self.backward_surjective
            and self.forward_modulus.finite
            and self.backward_modulus.finite
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "forward_modulus": self.forward_modulus.to_json(),
            "backward_modulus": self.backward_modulus.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "forward_surjective": self.forward_surjective,
            "backward_surjective": self.backward_surjective,
            "closeness_bound": (
                None if self.closeness_bound is None
                else rat_json(self.closeness_bound)),
        }


def verify_asymorphism(
    phi: MultiMap,
    expect_isometry: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> MorphismCertificate:
    """Compute both moduli and surjectivity, then grade the relation.

    Both directions surjective gives an asymorphism; only the inverse
    surjective (a total, non-onto map) gives an embedding; anything weaker
    is reported as a plain relation.  Both spaces must be ultrametric.
    With expect_isometry the moduli also decide whether every source
    distance equals its image distance: exactly when every forward and
    every backward row has delta <= eps.  An exact, bijective match
    upgrades the kind to isometry; otherwise the check's witness is the
    row-major first pair of graph points whose distances differ.
    """
    if not phi.src_idx.size:
        raise ValueError("cannot certify an empty relation")
    inv = phi.inverse()
    fwd = distortion_modulus(phi, caps)
    bwd = distortion_modulus(inv, caps)
    onto, total = inv.is_total, phi.is_total
    # the first point, in point order, left out of the image or the domain
    missing_t = phi.target.points[inv._out_degree.argmin()]
    missing_s = phi.source.points[phi._out_degree.argmin()]
    checks = [
        CertCheck("forward-surjective", onto, () if onto else (missing_t,)),
        CertCheck("backward-surjective", total, () if total else (missing_s,)),
        CertCheck("forward-modulus-finite", fwd.finite),
        CertCheck("backward-modulus-finite", bwd.finite),
        CertCheck("forward-modulus-monotone", fwd.check_monotone().ok),
        CertCheck("backward-modulus-monotone", bwd.check_monotone().ok),
    ]
    kind = "asymorphism" if (onto and total) else (
        "embedding" if total else "relation")
    if expect_isometry:
        preserved = all(d <= e for m in (fwd, bwd) for e, d in m.table)
        wit: tuple = ()
        if not preserved:
            # source code -> target code of the equal value, -1 when absent
            tcode_of = {v: i for i, v in enumerate(phi.target.values)}
            tmap = np.asarray(
                [tcode_of.get(v, -1) for v in phi.source.values], dtype=np.int64)
            wit = _witness(phi, *_first_failing_pairs(
                phi, {"unequal": lambda sc, tc: tmap[sc] != tc})["unequal"])
        checks.append(CertCheck("distance-preserving", preserved, wit))
        if preserved and phi.is_bijection:
            kind = "isometry"
    return MorphismCertificate(
        kind=kind,
        forward_modulus=fwd,
        backward_modulus=bwd,
        checks=tuple(checks),
        forward_surjective=onto,
        backward_surjective=total,
    )


def with_closeness(
    cert: MorphismCertificate, bound: Rational
) -> MorphismCertificate:
    return replace(cert, closeness_bound=canon(as_rational(bound)))


# -- selections and normal form -----------------------------------------------


@dataclass(frozen=True, eq=False)
class SelectionPair:
    """Deterministic single-valued selections out of a verified asymorphism.

    f picks the least target id in each fiber, g the least source id in
    each cofiber; closeness is the worse of the two round-trip distances.
    Each is bounded by the largest round-trip fiber diameter, recorded so
    the bound is checkable from the data alone.  The round-trip fiber
    preimage(image({x})) is the union of the cofibers of x's targets, all
    holding x, so the source bound is the backward modulus's diagonal
    row, the largest cofiber diameter (the forward one's for the target).

    The selections are held as the _heads of the relation and of its
    inverse: each point index of the domain, in id order, with the index
    of its selected point.  The id dicts f and g are built on first read,
    and two pairs are equal when those dicts and the four closenesses and
    bounds are."""

    source: Space
    target: Space
    f_heads: tuple[np.ndarray, np.ndarray]
    g_heads: tuple[np.ndarray, np.ndarray]
    closeness: Rational
    source_closeness: Rational
    target_closeness: Rational
    source_fiber_bound: Rational
    target_fiber_bound: Rational

    @cached_property
    def f(self) -> dict[PointId, PointId]:
        xs, ys = self.f_heads
        return dict(zip(_ids(self.source, xs), _ids(self.target, ys)))

    @cached_property
    def g(self) -> dict[PointId, PointId]:
        ys, xs = self.g_heads
        return dict(zip(_ids(self.target, ys), _ids(self.source, xs)))

    def _key(self) -> tuple:
        return (self.f, self.g, self.closeness, self.source_closeness,
                self.target_closeness, self.source_fiber_bound,
                self.target_fiber_bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionPair):
            return NotImplemented
        return self._key() == other._key()

    def to_json(self) -> dict:
        """f and g as index lists.  Entry k of f is the id-order index of
        the target selected for the k-th source point in id order; g is
        the same from the target.  The selections of an asymorphism are
        total, so f lists every source point and g every target point."""
        return {
            "f": self.target._id_ranks()[1][self.f_heads[1]].tolist(),
            "g": self.source._id_ranks()[1][self.g_heads[1]].tolist(),
            "closeness": rat_json(self.closeness),
            "source_closeness": rat_json(self.source_closeness),
            "target_closeness": rat_json(self.target_closeness),
            "source_fiber_bound": rat_json(self.source_fiber_bound),
            "target_fiber_bound": rat_json(self.target_fiber_bound),
        }


def _heads(mm: MultiMap) -> tuple[np.ndarray, np.ndarray]:
    """Each source point in the domain, by id, with its least target by
    id: the first of its run."""
    first = _run_starts(mm.src_idx)
    return mm.src_idx[first], mm.tgt_idx[first]


def _closeness(space: Space, f, g) -> Rational:
    """Largest d(x, g(f(x))) over the domain of f, with f and g given as
    their _heads (g's domain must hold f's image): one pass over the
    label rows (Space._pair_codes), no per-point distance."""
    (xs, fx), (ys, gy) = f, g
    g_of = np.empty(int(ys.max()) + 1, dtype=np.int64)
    g_of[ys] = gy
    return space.values[int(space._pair_codes(xs, g_of[fx]).max())]


def selection_pair(
    phi: MultiMap,
    certificate: Optional[MorphismCertificate] = None,
    caps: Caps = DEFAULT_CAPS,
) -> SelectionPair:
    """The selections of a verified asymorphism between two ultrametric
    spaces; ValueError when a space is not ultrametric or the certificate
    grades the relation lower."""
    _require_ultrametric(phi)
    cert = certificate if certificate is not None else verify_asymorphism(phi, caps=caps)
    if not cert.is_asymorphism:
        raise ValueError(
            f"selection needs a verified asymorphism, certificate says "
            f"{cert.kind!r}")
    f, g = _heads(phi), _heads(phi.inverse())
    s_close, t_close = _closeness(phi.source, f, g), _closeness(phi.target, g, f)
    s_bound = cert.backward_modulus.table[0][1]
    t_bound = cert.forward_modulus.table[0][1]
    if s_close > s_bound or t_close > t_bound:
        # {x, g(f(x))} always sits inside one round-trip fiber
        raise RuntimeError("selection closeness exceeded its fiber bound")
    return SelectionPair(
        source=phi.source,
        target=phi.target,
        f_heads=f,
        g_heads=g,
        closeness=max(s_close, t_close),
        source_closeness=s_close,
        target_closeness=t_close,
        source_fiber_bound=s_bound,
        target_fiber_bound=t_bound,
    )


def is_large(space: Space, subset: Iterable[PointId]) -> Rational:
    """Covering radius of a subset: the sup over points of the distance to
    the nearest subset member.  Every finite subset is large at any radius
    beyond this value, so the sup itself is reported: on a space holding
    its ball-label table, the least code at which every ball holds a
    subset member; otherwise read off the code matrix."""
    sub = space.subindices(subset)
    if sub.size == 0:
        raise ValueError("empty subset cannot be large")
    if not isinstance(space._labels, _Table):
        # a space without its table was built from its matrix
        return space.values[int(space._codes[:, sub].min(axis=1).max())]
    for code in range(len(space.values)):
        labels = space.ball_labels(code)
        if np.isin(labels, labels[sub]).all():
            break
    return space.values[code]


@dataclass(frozen=True)
class NormalForm:
    """Mutually close bijection extracted from a selection pair: h maps a
    transversal of f's fibers onto the image of f, both sides large in
    their spaces with quoted covering radii."""

    x_prime: tuple[PointId, ...]
    y_prime: tuple[PointId, ...]
    h: dict[PointId, PointId]
    r_bound: Rational
    x_cover: Rational
    y_cover: Rational
    h_forward: DistortionModulus
    h_backward: DistortionModulus
    backward_bound: ValidationReport


def coarse_normal_form(
    source: Space,
    target: Space,
    f: Mapping[PointId, PointId],
    g: Mapping[PointId, PointId],
    caps: Caps = DEFAULT_CAPS,
) -> NormalForm:
    """Restrict a mutually close pair (f, g) to a bijection.

    Y' is the image of f; X' keeps the least-id point of each f-fiber over
    Y'.  The restriction h is then a bijection whose backward modulus obeys
    delta_g(eps) + 2R row by row, with R the worse round-trip distance.
    Both subsets are large: Y' within R, X' within 2R.
    """
    if set(f) != set(source.points):
        raise ValueError("f must be defined on every source point")
    if set(g) != set(target.points):
        raise ValueError("g must be defined on every target point")
    # ValueError on an image outside the other space
    f_map = MultiMap.from_function(source, target, f)
    g_map = MultiMap.from_function(target, source, g)
    f_h, g_h = _heads(f_map), _heads(g_map)
    big_r = max(_closeness(source, f_h, g_h), _closeness(target, g_h, f_h))

    # the least-id representative of each f-fiber heads its run in the
    # inverse; ys come in id order, and xs[at] lists X' in id order
    ys, xs = _heads(f_map.inverse())
    at = np.argsort(source._id_ranks()[1][xs])
    sub_x, sub_y = _subspace(source, xs[at], caps), _subspace(target, ys, caps)
    x_prime, y_prime = sub_x.points, sub_y.points
    h = dict(zip(_ids(source, xs), y_prime))
    h_map = MultiMap._of_indices(sub_x, sub_y, np.arange(at.size), at)
    fwd = distortion_modulus(h_map, caps)
    bwd = distortion_modulus(h_map.inverse(), caps)

    g_modulus = distortion_modulus(g_map, caps)
    violations = []
    for eps, delta in bwd.table:
        bound = g_modulus.value_at(eps) + 2 * big_r
        if delta > bound:
            violations.append(Violation(
                "backward-bound", (rat_str(eps),),
                f"h backward delta {rat_str(delta)} exceeds "
                f"{rat_str(bound)} at eps {rat_str(eps)}"))
    backward_report = ValidationReport(
        "normal form backward modulus", ("backward-bound",), tuple(violations))

    x_cover = is_large(source, x_prime)
    y_cover = is_large(target, y_prime)
    if y_cover > big_r or x_cover > 2 * big_r:
        raise RuntimeError("normal form cover radii exceeded their bounds")
    return NormalForm(
        x_prime=x_prime,
        y_prime=y_prime,
        h=h,
        r_bound=big_r,
        x_cover=x_cover,
        y_cover=y_cover,
        h_forward=fwd,
        h_backward=bwd,
        backward_bound=backward_report,
    )


# -- tower embeddings ---------------------------------------------------------


def tower_embedding(
    t1: Tower,
    t2: Tower,
    require_iso: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[dict[NodeId, NodeId], MorphismCertificate]:
    """Level-preserving monotone injection of t1 into t2.

    Feasible whenever every level of t2 has at least as many children per
    node as the largest degree of t1 on that level; the first failing level
    is reported otherwise.  Construction is greedy, one gather per level:
    a node's k-th child in id order goes to the k-th child of its image,
    so the map is injective.  The returned certificate covers the base
    restriction, which must preserve the path metric exactly.
    """
    if t1.height != t2.height:
        raise ValueError(
            f"height mismatch: {t1.height} vs {t2.height}")
    p1 = degree_profile(t1)
    p2 = degree_profile(t2)
    for k in range(1, t1.height):
        need = p1.consecutive_large(k)
        have = p2.consecutive_small(k)
        if need > have:
            raise ValueError(
                f"degree precondition fails at level {k}: "
                f"Deg_{k} = {need} > deg_{k} = {have}")
        if require_iso:
            vals = (p1.consecutive_small(k), p1.consecutive_large(k),
                    p2.consecutive_small(k), p2.consecutive_large(k))
            if len(set(vals)) != 1:
                raise ValueError(
                    f"isomorphism precondition fails at level {k}: "
                    f"degree data {vals} not homogeneous-equal")
    phi = _descend(t1, t2, t1.height, [0], 0, lambda lv, seq, img, kids, deg, up, j: j)
    phi_base = MultiMap._of_indices(
        base_space(t1, caps), base_space(t2, caps), np.arange(len(t1.base)), phi[0])
    cert = verify_asymorphism(phi_base, expect_isometry=True, caps=caps)
    preserved = next(
        c for c in cert.checks if c.axiom == "distance-preserving")
    if not preserved.passed:
        raise RuntimeError(
            f"embedding base restriction distorted a distance: "
            f"{preserved.witness}")
    if require_iso and not phi_base.is_bijection:
        raise RuntimeError("isomorphism request produced a non-bijection")
    return _node_dict(phi, t1, t2), cert


# -- admissible morphisms -----------------------------------------------------


_ADMISSIBLE_CHECKS = (
    "domain-lower-set", "level-preserving", "monotone",
    "fibers-in-one-sibling-set", "image-lower-set", "single-top-image")


@dataclass(frozen=True)
class AdmissibleSequences:
    """Per-level fiber-size windows [a_i, b_i], 1-indexed by tower level."""

    a: tuple[Rational, ...]
    b: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "a", tuple(canon(as_rational(v)) for v in self.a))
        object.__setattr__(
            self, "b", tuple(canon(as_rational(v)) for v in self.b))
        if len(self.a) != len(self.b):
            raise ValueError("sequence lengths differ")

    def __len__(self) -> int:
        return len(self.a)

    def window(self, level: int) -> tuple[Rational, Rational]:
        if not 1 <= level <= len(self.a):
            raise ValueError(f"no window at level {level}")
        return self.a[level - 1], self.b[level - 1]

    def check(self) -> ValidationReport:
        violations = []
        for i, (ai, bi) in enumerate(zip(self.a, self.b), start=1):
            if not (1 <= ai and ai + 2 <= bi):
                violations.append(Violation(
                    "window-spacing", (i,),
                    f"level {i}: need 1 <= a <= a+2 <= b, got a = "
                    f"{rat_str(ai)}, b = {rat_str(bi)}"))
        return ValidationReport(
            "admissible sequences", ("window-spacing",), tuple(violations))


def check_l2_preconditions(
    profile1: DegreeProfile,
    profile2: DegreeProfile,
    seqs: AdmissibleSequences,
) -> ValidationReport:
    """Level-by-level feasibility of mapping a germ with profile1 onto one
    with profile2 under the fiber windows.

    For each level i below the top: the window is wide enough (a+2 <= b),
    the source degree admits a fiber (a_i + 1 <= deg_i, the stronger of the
    two rounding readings, both of which are recorded), the packed lower
    bound b_i + a_i * Deg_i(T2) / a_{i+1} fits under deg_i(T1), and the
    spread upper bound keeps Deg_i(T1) within a_i + b_i * (deg_i(T2) /
    b_{i+1} - 2).  All comparisons are exact rational arithmetic.
    """
    h = profile1.height
    if profile2.height != h:
        raise ValueError(
            f"profile heights differ: {h} vs {profile2.height}")
    if len(seqs) != h:
        raise ValueError(
            f"sequence length {len(seqs)} does not match profile height {h}")
    checked: list[str] = []
    violations: list[Violation] = list(seqs.check().violations)
    checked.append("window-spacing")
    for i in range(1, h):
        ai, bi = seqs.window(i)
        ai1, bi1 = seqs.window(i + 1)
        deg1 = profile1.consecutive_small(i)
        big1 = profile1.consecutive_large(i)
        deg2 = profile2.consecutive_small(i)
        big2 = profile2.consecutive_large(i)
        name = f"degree-room[{i}]"
        checked.append(
            f"{name} readings: ceil {math.ceil(ai)} <= {deg1} "
            f"{'pass' if math.ceil(ai) <= deg1 else 'fail'}; floor "
            f"{math.floor(ai)} <= {deg1} "
            f"{'pass' if math.floor(ai) <= deg1 else 'fail'}")
        if not ai + 1 <= deg1:
            violations.append(Violation(
                name, (i,),
                f"level {i}: a_{i} + 1 = {rat_str(ai + 1)} > deg_{i}(T1) "
                f"= {deg1}"))
        low = bi + ai * Fraction(big2, 1) / ai1
        checked.append(f"packed-lower[{i}]")
        if not low <= deg1:
            violations.append(Violation(
                f"packed-lower[{i}]", (i,),
                f"level {i}: b_{i} + a_{i} * Deg_{i}(T2) / a_{i + 1} = "
                f"{rat_str(canon(low))} > deg_{i}(T1) = {deg1}"))
        high = ai + bi * (Fraction(deg2, 1) / bi1 - 2)
        checked.append(f"spread-upper[{i}]")
        if not big1 <= high:
            violations.append(Violation(
                f"spread-upper[{i}]", (i,),
                f"level {i}: Deg_{i}(T1) = {big1} > a_{i} + b_{i} * "
                f"(deg_{i}(T2) / b_{i + 1} - 2) = {rat_str(canon(high))}"))
        checked.append(f"integer-window[{i}]")
        if math.ceil(ai) > math.floor(bi):
            violations.append(Violation(
                f"integer-window[{i}]", (i,),
                f"level {i}: integer window [{math.ceil(ai)}, "
                f"{math.floor(bi)}] is empty"))
    return ValidationReport(
        "fiber-window preconditions", tuple(checked), tuple(violations))


def balanced_partition(
    items: Sequence,
    parts: int,
    lo: Rational,
    hi: Rational,
) -> list[tuple]:
    """Split items in order into `parts` consecutive blocks whose sizes
    differ by at most one and each lie in [lo, hi].  The largest blocks come
    first, so the assignment is deterministic in item order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    seq = list(items)
    n = len(seq)
    lo_i = math.ceil(as_rational(lo))
    hi_i = math.floor(as_rational(hi))
    if parts * lo_i > n or n > parts * hi_i:
        raise ValueError(
            f"infeasible window: need {parts}*{lo_i} <= {n} <= "
            f"{parts}*{hi_i} for sizes in [{rat_str(canon(as_rational(lo)))}, "
            f"{rat_str(canon(as_rational(hi)))}]")
    base, rem = divmod(n, parts)
    ends = [k * base + min(k, rem) for k in range(parts + 1)]
    return [tuple(seq[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def build_admissible_morphism(
    t1: Tower,
    roots: Sequence[NodeId],
    t2: Tower,
    w: NodeId,
    seqs: AdmissibleSequences,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[dict[NodeId, NodeId], MultiMap, MorphismCertificate]:
    """Map the cones below a sibling set of t1 onto the cone below w in t2.

    Deterministic descent, level by level: the roots map to w, each
    image's children are shared out by largest remainder over its fiber,
    each source sibling set is cut into balanced_partition's blocks within
    the level's window, and blocks pair with image children in id order.
    The map is admissible by construction, each condition held as follows:
    - domain lower set: a mapped node's blocks hold all its children;
    - level-preserving: level l maps into level l of t2;
    - monotone: each child goes to a child of its parent's image;
    - fibers in one sibling set: a fiber is one block, or the roots;
    - image lower set: a fiber's quotas sum to its image's child count;
    - single top image: the roots, the maximal domain nodes, go to w;
    so the image is the cone of w.  The base restriction's moduli, its
    two-sided distance bounds (images never move apart, sources stay
    within image distance + 2) and its surjectivity are computed.

    Returns (phi, phi_base, cert): the node map, its restriction to base
    points as a map between the induced base spaces (source: the mapped
    base points of t1, target: the base below w), and the certificate,
    whose moduli are those of phi_base.

    Any infeasibility aborts with the failing inequality; nothing partial
    is returned.
    """
    lvl, at, w_at = _root_indices(t1, roots, t2, w)
    phi, phi_base, cert = _admissible_morphism(t1, lvl, at, t2, w_at, seqs, caps)
    return _node_dict(phi, t1, t2), phi_base, cert


def _root_indices(
    t1: Tower, roots: Sequence[NodeId], t2: Tower, w: NodeId
) -> tuple[int, list[int], int]:
    """(level, indices of the distinct roots in id order, index of w):
    the roots in t1 and w in t2, which must sit on one level."""
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("empty root set")
    found = _locate(t2, w)
    if found is None:
        raise KeyError(f"unknown target node: {w!r}")
    lvl, w_at = found
    at = []
    for r in roots:
        found = _locate(t1, r)
        if found is None:
            raise KeyError(f"unknown source node: {r!r}")
        if found[0] != lvl:
            raise ValueError(
                f"root {r!r} sits at level {found[0]}, target {w!r} at "
                f"level {lvl}")
        at.append(found[1])
    return lvl, at, w_at


def _admissible_morphism(
    t1: Tower,
    lvl: int,
    at: Sequence[int],
    t2: Tower,
    w_at: int,
    seqs: AdmissibleSequences,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[list[np.ndarray], MultiMap, MorphismCertificate]:
    """build_admissible_morphism from the roots at the ascending indices
    at of level lvl of t1 to the node at index w_at of level lvl of t2,
    with the node map left in _descend's index arrays (phi[l - 1][i] is
    the level-l index of the image of t1's level-l node i, or -1), for
    callers that hold indices and need no node dict."""
    # several roots lie below the top, which is the one node on its level
    if len(at) > 1 and len(set(t1._par[lvl - 1][at].tolist())) != 1:
        raise ValueError("roots must form a sibling set")
    if len(seqs) != lvl:
        raise ValueError(
            f"need one window per level 1..{lvl}, got {len(seqs)}")
    seqs.check().require()
    a_top, b_top = seqs.window(lvl)
    if not a_top <= len(at) <= b_top:
        raise ValueError(
            f"root count {len(at)} outside the level-{lvl} window "
            f"[{rat_str(a_top)}, {rat_str(b_top)}]")
    if lvl > 1:
        p1 = _cone_profile(t1, lvl, at)
        p2 = _cone_profile(t2, lvl, [w_at])
        check_l2_preconditions(p1, p2, seqs).require()

    phi = _germ_levels(t1, at, t2, w_at, seqs)
    # each level lists its ids in order, so ascending indices are in id order
    dom, cone = np.flatnonzero(phi[0] >= 0), np.flatnonzero(_under(t2, lvl, [w_at])[-1])
    phi_base = MultiMap._of_indices(
        _subspace(base_space(t1, caps), dom, caps), _subspace(base_space(t2, caps), cone, caps),
        np.arange(dom.size), np.searchsorted(cone, phi[0][dom]))
    fwd = distortion_modulus(phi_base, caps)
    bwd = distortion_modulus(phi_base.inverse(), caps)
    bounds = _base_distortion_report(phi_base, fwd, bwd)
    if not bounds.ok:
        raise RuntimeError(
            f"built base map violates its distortion bounds: "
            f"{bounds.violations[0].message}")
    onto = phi_base.is_surjective
    checks = tuple([CertCheck(v, True) for v in _ADMISSIBLE_CHECKS + bounds.checked]
                   + [CertCheck("surjective-onto-cone", onto)])
    cert = MorphismCertificate(
        kind="admissible",
        forward_modulus=fwd,
        backward_modulus=bwd,
        checks=checks,
        forward_surjective=onto,
        backward_surjective=phi_base.is_total,
    )
    return phi, phi_base, cert


def _germ_levels(
    t1: Tower, roots: Sequence[int], t2: Tower, w: int, seqs: AdmissibleSequences
) -> list[np.ndarray]:
    """The builder's _descend from ascending root indices on level
    len(seqs) to w.  A fiber is a run of seq, in id order; its member r
    takes a largest-remainder quota of the image's children and cuts its
    own children into that many blocks, largest first; block k goes to
    the image child at r's offset + k.  The first node in descent order
    with no image child or with blocks outside the window names the
    failure, as a depth-first recursion would."""
    def place(lv, seq, img, kids, deg, up, j):
        _, first, fiber, size = np.unique(
            img, return_index=True, return_inverse=True, return_counts=True)
        count, rank = size[fiber], np.arange(img.size) - first[fiber]
        share, spare = np.divmod(deg, count)
        quota = share + (rank < spare)
        block, extra = np.divmod(kids, np.maximum(quota, 1))
        lo, hi = seqs.window(lv - 1)
        bad = (quota == 0) | (block < math.ceil(lo)) | (block + (extra > 0) > math.floor(hi))
        if bad.any():
            i = int(bad.argmax())
            x = t1._ids[lv - 1][seq[i]]
            if quota[i] == 0:
                raise ValueError(
                    f"level {lv}: node {x!r} receives no image children "
                    f"(deg(w) = {deg[i]} < fiber size {count[i]})")
            try:
                balanced_partition(range(kids[i]), int(quota[i]), lo, hi)
            except ValueError as err:
                raise ValueError(f"level {lv - 1} under {x!r}: {err}") from None
        b, e = block[up], extra[up]
        k = np.where(j < e * (b + 1), j // (b + 1), (j - e) // b)  # each child's block
        return (rank * share + np.minimum(rank, spare))[up] + k

    return _descend(t1, t2, len(seqs), roots, w, place)


_BASE_BOUND_MESSAGES = {
    "base-contraction": "images of {x!r}, {y!r} are {dt} apart, sources only {ds}",
    "base-expansion-plus-2": "sources {x!r}, {y!r} are {ds} apart, images {dt}",
}


def check_base_distortion(phi: MultiMap) -> ValidationReport:
    """Two-sided exact bounds for a base-level map between ultrametric
    spaces: image pairs never move farther apart than their sources, and
    source pairs stay within image distance + 2.  Each broken bound is
    reported once, at its row-major first pair.

    Every forward modulus row is a running max of target distances over
    source pairs within its eps, so contraction holds on every pair exactly
    when each forward row has delta <= eps; likewise expansion-plus-2 holds
    exactly when each backward row has delta <= eps + 2.  The label-read
    moduli decide the verdict; only a broken bound runs the pair scan,
    which names its witness.  ValueError when a space is not
    ultrametric."""
    return _base_distortion_report(phi, None, None)


def _base_distortion_report(
    phi: MultiMap,
    fwd: Optional[DistortionModulus],
    bwd: Optional[DistortionModulus],
) -> ValidationReport:
    """check_base_distortion, reusing the moduli a caller already has."""
    checked = ("base-contraction", "base-expansion-plus-2")
    _require_ultrametric(phi)
    if not phi.is_function or not phi.is_total:
        return ValidationReport(
            "base distortion bounds", checked,
            (Violation("base-contraction", (),
                       "bounds apply to total single-valued maps only"),))
    fwd = fwd if fwd is not None else _label_modulus(phi)
    bwd = bwd if bwd is not None else _label_modulus(phi.inverse())
    sv, tv = phi.source.values, phi.target.values
    # both bounds as code tables, exact for any rational values: the
    # largest target code <= each source value, and the largest source
    # code <= each target value + 2
    t_within = np.asarray([bisect_right(tv, v) - 1 for v in sv], dtype=np.int64)
    s_within = np.asarray([bisect_right(sv, v + 2) - 1 for v in tv], dtype=np.int64)
    broken = {}
    if any(d > e for e, d in fwd.table):
        broken[checked[0]] = lambda sc, tc: tc > t_within[sc]
    if any(d > e + 2 for e, d in bwd.table):
        broken[checked[1]] = lambda sc, tc: sc > s_within[tc]
    if not broken:
        return ValidationReport("base distortion bounds", checked, ())
    first = _first_failing_pairs(phi, broken)
    violations = []
    for rule in broken:
        x, y, fx, fy = _witness(phi, *first[rule])
        violations.append(Violation(rule, (x, y), _BASE_BOUND_MESSAGES[rule].format(
            x=x, y=y, ds=rat_str(phi.source.dist(x, y)),
            dt=rat_str(phi.target.dist(fx, fy)))))
    return ValidationReport("base distortion bounds", checked, tuple(violations))


def check_entropy_transport(
    phi: MultiMap,
    certificate: MorphismCertificate,
    centers: Optional[Sequence[PointId]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> ValidationReport:
    """Net sizes transport through a total map: for a source ball around x
    of radius r and any eps, the minimum net of the ball at radius
    backward(2*eps) is no larger than the minimum eps-net of the covering
    target ball around f(x) of radius forward(r).  Closed nets throughout."""
    if not phi.is_total:
        raise ValueError("entropy transport needs a total map")
    fwd, bwd = certificate.forward_modulus, certificate.backward_modulus
    src, tgt = phi.source, phi.target
    pts = tuple(centers) if centers is not None else src.points
    violations: list[Violation] = []
    for x in pts:
        y = min(phi.fibers[x])
        for r in src.values:
            ball_x, ball_y = ball(src, x, r), ball(tgt, y, fwd.value_at(r))
            for eps in tgt.values:
                n_target = len(min_net(tgt, ball_y, eps, CLOSED, caps))
                n_source = len(min_net(src, ball_x, bwd.value_at(2 * eps),
                                       CLOSED, caps))
                if n_source > n_target:
                    violations.append(Violation(
                        "entropy-transport", (x, rat_str(r), rat_str(eps)),
                        f"source ball needs {n_source} centers, covering "
                        f"target ball only {n_target}"))
    return ValidationReport(
        "entropy transport", ("entropy-transport",), tuple(violations))
