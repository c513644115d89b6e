"""Dense and string kernels kept as test oracles.

The dense ones read the n x n code matrices and visit every pair (or
every block of pairs) they decide, the way the package did before its
ultrametric kernels read ball-label tables: the block-scan distortion
modulus, the full base-distortion scan, the isometry witness scan, the
round-trip fiber diameter by gathered blocks, the covering radius by
column minima, the nearest-representative ball map, the dense product
and hyperspace, and chain components by a breadth-first search.
They work on any space that holds (or writes) its code matrix, so they
share no label logic with the kernels they check.  Beside them sits the
modulus witness pair found by sorting label keys into groups, the way
the package found it before one scatter per call did, and the modulus
by a pointer walk over the label rows, one pass per code, the way the
package read it before its kernel read the codes between neighbours in
source leaf order; unlike the block scan, it reaches the graphs of
6561 points that an equiv run certifies.

The strong-triangle scan is kept as the package wrote it before its
validator merged the edges of one minimum spanning tree: one pass over
the matrix per realized value, with first-member class labels computed
from the codes at each threshold.  It is the validator's verdict oracle,
and the class labels are the oracle of every installed ball-label table.

The string ones work on a relation's id pairs, the way the package did
before relations held index arrays: fibers and cofibers as dicts of id
tuples, the inverse, composition through a set of id pairs, and the
selection pair's f, g and closenesses by one distance per point.  Graph
indices are looked up from the pairs, so nothing here reads the index
arrays they check.  Beside them sits the id ranking by a keyed sort of
every point index, the way Space._id_ranks ranked points before it
checked for points already in id order.

The node-map ones read a tower's (nodes, level, parent) off its parent
arrays the way Tower's views did before a Tower became its arrays alone,
and its children and lower cones off those maps.  The navigation ones
walk those maps the way Tower's methods did before the package stopped
calling them: a node's ancestor on a level, the least common upper bound
of two nodes, the path metric, and the base nodes below a node.  The
admissibility checker check_admissible walks those maps the way the
package did before it dropped the checker: its germ builder is
admissible by construction, and the checker is that builder's oracle.
The dotted-id builder writes a regular tower's id rows the way
regular_tower did before its levels became PathRows that format ids on
read: top down, one list comprehension a level.

The nested-ball encoder is kept as the package wrote it before
_ball_table lifted least members from one partition to the next: one
lexsort of the partitions gives the depth-first order, in which every
class is one run, labelled by its least member.  The base-space one
encodes a tower's base the way the package did before base_space lifted
least members up the parent arrays: one ancestor row per level, handed
to that lexsort encoder.

The tower-map ones build node maps the way the package did before it
descended one index array per level: the germ builder's depth-first
recursion over children dicts, and the greedy embedding loop.  They read
each node's children off the parent map, not the child runs the level
loops share.

The germ searches are kept as the package wrote them before both walked
one explicit step graph: the greedy chain by a loop over levels, and the
germ fit by the recursive closures search and candidates, which count
their budget in a one-element list.
"""

import functools
import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

import numpy as np

from coarsetowers import (
    DegreeProfile,
    HomogeneityWitness,
    MultiMap,
    Space,
    SynthesisExhausted,
    SynthesisOutput,
    balanced_partition,
)
from coarsetowers import spaces
from coarsetowers.homogenize import (
    _Step,
    _height_advice,
    _initial_step,
    _step_gate,
    _verified_output,
)
from coarsetowers.limits import DEFAULT_CAPS, Caps
from coarsetowers.morphisms import _ADMISSIBLE_CHECKS, DistortionModulus
from coarsetowers.rationals import rat_str
from coarsetowers.report import ValidationReport, Violation
from coarsetowers.spaces import _pick_dtype


# -- relations as id pairs ---------------------------------------------------


def graph_indices(phi: MultiMap) -> tuple[np.ndarray, np.ndarray]:
    """Source and target point indices of the graph points, in pairs order."""
    src, tgt = phi.source, phi.target
    ia = np.asarray([src.index(a) for a, _ in phi.pairs], dtype=np.int64)
    ib = np.asarray([tgt.index(b) for _, b in phi.pairs], dtype=np.int64)
    return ia, ib


def keyed_id_ranks(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank): the point indices sorted by id, and each point's
    place in that order."""
    n = len(space.points)
    order = np.fromiter(sorted(range(n), key=space.points.__getitem__),
                        dtype=np.int64, count=n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return order, rank


def fibers(pairs) -> dict:
    """Each source id with its targets, in pairs order."""
    out: dict = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return {a: tuple(bs) for a, bs in out.items()}


def cofibers(pairs) -> dict:
    """Each target id with its sources, in pairs order."""
    return fibers((b, a) for a, b in pairs)


def inverse_pairs(phi: MultiMap) -> tuple:
    return tuple(sorted(set((b, a) for a, b in phi.pairs)))


def compose_pairs(phi: MultiMap, psi: MultiMap) -> tuple:
    """The composite's sorted id pairs: each (x, y) of phi joined with
    every (y, z) of psi."""
    out = set()
    psi_fibers = fibers(psi.pairs)
    for x, y in phi.pairs:
        for z in psi_fibers.get(y, ()):
            out.add((x, z))
    return tuple(sorted(out))


def selection(phi: MultiMap) -> tuple:
    """(f, g, source closeness, target closeness): f takes the least
    target id of each fiber, g the least source id of each cofiber, and
    each closeness is the largest round-trip distance, one matrix read a
    point."""
    f = {x: min(ts) for x, ts in fibers(phi.pairs).items()}
    g = {y: min(xs) for y, xs in cofibers(phi.pairs).items()}
    s_close = max(matrix_dist(phi.source, x, g[f[x]]) for x in f)
    t_close = max(matrix_dist(phi.target, y, f[g[y]]) for y in g)
    return f, g, s_close, t_close


def matrix_dist(space: Space, x, y):
    """The distance of two ids read off the code matrix."""
    return space.values[int(space.codes[space.index(x), space.index(y)])]


# -- dense scans --------------------------------------------------------------


def pair_code_blocks(phi: MultiMap):
    """(row offset, source-code block, target-code block) over every
    ordered pair of graph points, whole rows of about four million cells
    at a time, so the first hit found block by block is row-major first."""
    src, tgt = phi.source, phi.target
    ia, ib = graph_indices(phi)
    n = len(phi.pairs)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        yield (lo, src.codes[np.ix_(ia[lo:lo + chunk], ia)],
               tgt.codes[np.ix_(ib[lo:lo + chunk], ib)])


def block_scan_modulus(phi: MultiMap) -> DistortionModulus:
    """The modulus by an exhaustive scan of every pair of graph points:
    per source code the largest target code, then running maxima; the
    witness of a row is the row-major first pair at its running max."""
    src, tgt = phi.source, phi.target
    nv = len(src.values)
    best = [-1] * nv
    bestpos: list = [None] * nv
    for lo, sc, tc in pair_code_blocks(phi):
        for c in np.unique(sc):
            masked = np.where(sc == c, tc, -1)
            j = int(masked.argmax())
            v = int(masked.flat[j])
            if v > best[int(c)]:
                best[int(c)] = v
                bestpos[int(c)] = (lo + j // tc.shape[1], j % tc.shape[1])
    rows, wits = [], []
    run, runpos = -1, (0, 0)
    for c in range(nv):
        if best[c] < 0:
            continue  # source distance not realized between mapped points
        if best[c] > run:
            run, runpos = best[c], bestpos[c]
        i, j = runpos
        rows.append((src.values[c], tgt.values[run]))
        wits.append((phi.pairs[i][0], phi.pairs[j][0],
                     phi.pairs[i][1], phi.pairs[j][1]))
    return DistortionModulus(tuple(rows), tuple(wits), finite=True)


def pointer_walk_modulus(phi: MultiMap) -> DistortionModulus:
    """The modulus by one pass per source code over the ball-label rows,
    with no pass over pairs: a source code is realized between graph
    points exactly when the graph's source-ball count drops there, and
    one pointer walks the target codes up until every graph source ball
    lies inside one target ball.  The witness is named where the pointer
    rises, at target code exactly M (sorted_first_pair_at)."""
    src, tgt = phi.source, phi.target
    ia, ib = graph_indices(phi)
    c0 = int(src._pair_codes(ia[0], ia[0]))
    t0 = t = int(tgt._pair_codes(ib[0], ib[0]))
    T = tgt.ball_labels(t)[ib]
    rep = np.empty(len(src.points), dtype=np.int64)
    rows, wits = [], []
    balls, run = 0, -1
    for c in range(c0, len(src.values)):
        S = src.ball_labels(c)[ia]
        count = int(np.count_nonzero(np.bincount(S)))
        if count == balls:
            continue  # source distance not realized between mapped points
        balls = count
        rep[S] = T  # one target label per source ball, if the ball fits
        while not (rep[S] == T).all():
            t += 1
            T = tgt.ball_labels(t)[ib]
            rep[S] = T
        if t > run:
            run = t
            i, j = sorted_first_pair_at(
                S, T, tgt.ball_labels(t - 1)[ib] if t > t0 else None)
            wit = (phi.pairs[i][0], phi.pairs[j][0], phi.pairs[i][1], phi.pairs[j][1])
        rows.append((src.values[c], tgt.values[t]))
        wits.append(wit)
        if balls == 1:
            break  # one ball holds every graph point: no larger code is realized
    return DistortionModulus(tuple(rows), tuple(wits), finite=True)


def sorted_first_pair_at(
    S: np.ndarray, T: np.ndarray, T_below: Optional[np.ndarray]
) -> tuple[int, int]:
    """Row-major first pair (k, l) of graph points sharing a label in S and
    in T but not in T_below (None excludes nothing), by sorting: per row
    the count is the size of the group agreeing on S and T minus that of
    the group agreeing on S and T_below, which T_below refining T makes
    the number of partners."""

    def agree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        key = a * (int(b.max()) + 1) + b
        _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
        return cnt[inv]

    count = agree(S, T)
    if T_below is not None:
        count -= agree(S, T_below)
    k = int(np.argmax(count > 0))
    row = (S == S[k]) & (T == T[k])
    if T_below is not None:
        row &= T_below != T_below[k]
    return k, int(np.argmax(row))


_BASE_BOUND_MESSAGES = {
    "base-contraction": "images of {x!r}, {y!r} are {dt} apart, sources only {ds}",
    "base-expansion-plus-2": "sources {x!r}, {y!r} are {ds} apart, images {dt}",
}


def base_distortion_scan(phi: MultiMap) -> ValidationReport:
    """check_base_distortion by a scan of every pair: contraction and
    expansion-plus-2, each reported at its row-major first failing pair."""
    checked = ("base-contraction", "base-expansion-plus-2")
    if not phi.is_function or not phi.is_total:
        return ValidationReport(
            "base distortion bounds", checked,
            (Violation("base-contraction", (),
                       "bounds apply to total single-valued maps only"),))
    sv, tv = phi.source.values, phi.target.values
    t_within = np.asarray([bisect_right(tv, v) - 1 for v in sv], dtype=np.int64)
    s_within = np.asarray([bisect_right(sv, v + 2) - 1 for v in tv], dtype=np.int64)
    first: dict = {}
    for lo, sc, tc in pair_code_blocks(phi):
        for rule, bad in ((checked[0], tc > t_within[sc]),
                          (checked[1], sc > s_within[tc])):
            if rule in first or not bad.any():
                continue
            i, j = map(int, np.argwhere(bad)[0])
            x, y = phi.pairs[lo + i][0], phi.pairs[j][0]
            first[rule] = Violation(rule, (x, y), _BASE_BOUND_MESSAGES[rule].format(
                x=x, y=y, ds=rat_str(sv[sc[i, j]]), dt=rat_str(tv[tc[i, j]])))
        if len(first) == len(checked):
            break
    violations = [first[rule] for rule in checked if rule in first]
    return ValidationReport("base distortion bounds", checked, tuple(violations))


def isometric_witness(
    phi: MultiMap, caps: Caps = DEFAULT_CAPS
) -> Optional[tuple]:
    """First graph-point pair whose source and target distances differ, or
    None when the relation preserves every distance exactly."""
    caps.check_points(len(phi.pairs), "relation graph")
    tcode_of = {v: i for i, v in enumerate(phi.target.values)}
    tmap = np.asarray(
        [tcode_of.get(v, -1) for v in phi.source.values], dtype=np.int64)
    for lo, sc, tc in pair_code_blocks(phi):
        bad = tmap[sc] != tc
        if bad.any():
            i, j = np.argwhere(bad)[0]
            i, j = int(i) + lo, int(j)
            return (phi.pairs[i][0], phi.pairs[j][0],
                    phi.pairs[i][1], phi.pairs[j][1])
    return None


def roundtrip_fiber_diameter(phi: MultiMap):
    """Max diameter of preimage(image({x})) over source points x, as the
    largest code in each fiber's gathered block of the code matrix."""
    src = phi.source
    out, back = fibers(phi.pairs), cofibers(phi.pairs)
    blocks = []
    for x in out:
        members = set()
        for y in out[x]:
            members.update(back[y])
        blocks.append(np.asarray([src.index(m) for m in members], dtype=np.int64))
    return src.values[max(int(src.codes[np.ix_(b, b)].max()) for b in blocks)]


def covering_radius(space: Space, subset) -> object:
    """is_large by column minima: the largest over points of the least
    code to a subset member."""
    sub = space.subindices(subset)
    return space.values[int(space.codes[:, sub].min(axis=1).max())]


def argmin_base_map(space: Space, tower) -> dict:
    """The point-to-base-ball map of a ball tower as read off a code
    matrix: the nearest representative, the least id among equally near
    ones (argmin keeps the first minimum)."""
    reps = sorted((b.split(":", 1)[1], b) for b in tower.base)
    cols = np.asarray([space.index(rep) for rep, _ in reps], dtype=np.int64)
    nearest = space.codes[:, cols].argmin(axis=1)
    return {p: reps[int(k)][1] for p, k in zip(space.points, nearest)}


def dense_product(x: Space, y: Space) -> Space:
    """Product under the max metric as one 4-D maximum of the factors'
    codes on their merged value table."""
    n, m = len(x.points), len(y.points)
    merged = sorted(set(x.values) | set(y.values))
    code_of = {v: i for i, v in enumerate(merged)}
    mapx = np.asarray([code_of[v] for v in x.values], dtype=_pick_dtype(len(merged)))
    mapy = np.asarray([code_of[v] for v in y.values], dtype=_pick_dtype(len(merged)))
    codes = np.maximum(
        mapx[x.codes][:, None, :, None], mapy[y.codes][None, :, None, :]
    ).reshape(n * m, n * m)
    points = [f"({p}|{q})" for p in x.points for q in y.points]
    return Space(points, codes, merged)


def dense_hyperspace(space: Space, max_size: int) -> Space:
    """Hausdorff hyperspace of nonempty subsets of at most max_size points
    from column minima of the code matrix."""
    n = len(space.points)
    subsets = []
    for k in range(1, min(max_size, n) + 1):
        subsets.extend(itertools.combinations(range(n), k))
    width = min(max_size, n)
    mem = np.asarray(
        [s + (s[0],) * (width - len(s)) for s in subsets], dtype=np.int64)
    C = space.codes
    # colmin[a, q] = min over members b of subset q of code(a, b)
    colmin = C[:, mem].min(axis=2)
    # directed[p, q] = max over members a of subset p of colmin[a, q]
    directed = colmin[mem].max(axis=1)
    codes = np.maximum(directed, directed.T)
    points = ["{" + "|".join(space.points[i] for i in s) + "}" for s in subsets]
    return Space(points, codes, space.values)


def chain_labels(space: Space, radius) -> np.ndarray:
    """Each point's chain component at the radius, numbered by first
    member in point order: a breadth-first search per component over the
    n x n adjacency {codes <= radius's code}."""
    n = len(space.points)
    t = space.threshold_code(radius, "closed")
    adj = space.codes <= t if t >= 0 else np.eye(n, dtype=bool)
    label = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        seen = np.zeros(n, dtype=bool)
        while frontier.any():
            seen |= frontier
            reach = adj[frontier].any(axis=0)
            frontier = reach & ~seen
        label[seen] = comp
        comp += 1
    return label


# -- the strong-triangle scan ------------------------------------------------------


def threshold_scan(space: Space) -> tuple[list[Violation], bool]:
    """Complete strong-triangle scan, one pass per realized distance value;
    returns the witness triples and whether the list was cut.

    d satisfies d(x,y) <= max(d(x,z), d(z,y)) for all triples iff for every
    realized value v the relation {d <= v} is transitive: one direction is
    immediate, and a violating triple with v = max(d(x,z), d(z,y)) breaks
    transitivity at v.  Checking each threshold is a single matrix pass, so
    the whole scan costs O(values * n^2) instead of the all-triples O(n^3)
    while still deciding exactly the same property.  Every failure is
    reported as explicit triples, each checked to violate the inequality;
    a triple met again at a later threshold is reported once.  The scan
    stops at the first triple past _MAX_WITNESSES, so a cut list is the
    first _MAX_WITNESSES triples of the whole one.
    Requires the diagonal-zero, positivity and symmetry checks to have
    passed (the reduction uses them).  It installs no table on the
    space: class_labels gives its rows.
    """
    C = space.codes
    n = int(C.shape[0])
    vals = space.values
    pts = space.points
    out: list[Violation] = []
    # reported triples as sorted keys (x*n + y)*n + z behind a -1 sentinel
    seen = np.full(1, -1, dtype=np.int64)
    chunk = max(1, 4_000_000 // max(n, 1))
    # one pair of row-block buffers serves every block of every threshold
    mask_buf = np.empty((min(chunk, n), n), dtype=bool)
    diff_buf = np.empty_like(mask_buf)
    # violations at the top value are impossible: nothing exceeds it
    for t in range(len(vals) - 1):
        labels = class_labels(C, t)
        narrow = labels.astype(_pick_dtype(n))  # point indices, compared faster
        for lo in range(0, n, chunk):
            mask = np.less_equal(C[lo:lo + chunk], t, out=mask_buf[:n - lo])
            diff = np.equal(narrow[lo:lo + chunk, None], narrow[None, :],
                            out=diff_buf[:n - lo])
            np.not_equal(mask, diff, out=diff)
            if not diff.any():  # far cheaper than nonzero on valid blocks
                continue
            bi, j = np.nonzero(diff)
            i = bi + lo
            li, lj = labels[i], labels[j]
            # a related pair in distinct classes: the smaller class label is
            # far from the other endpoint; an unrelated pair in one class:
            # its label is near both
            rel, low = mask[bi, j], li < lj
            x = np.where(rel, np.where(low, li, lj), i)
            y = np.where(rel, np.where(low, j, i), j)
            z = np.where(rel, np.where(low, i, j), li)
            # codes are order-isomorphic to values, so comparing codes is exact
            bad = np.nonzero(C[x, y] > np.maximum(C[x, z], C[z, y]))[0]
            # each unordered {x, y} with its z once, where the scan first meets it
            key = ((np.minimum(x, y) * n + np.maximum(x, y)) * n + z)[bad]
            key, first = np.unique(key, return_index=True)
            pos = np.searchsorted(seen, key, side="right")
            fresh = seen[pos - 1] != key
            seen = np.insert(seen, pos[fresh], key[fresh])
            for k in bad[np.sort(first[fresh])].tolist():
                if len(out) == spaces._MAX_WITNESSES:
                    return out, True
                xk, yk, zk = int(x[k]), int(y[k]), int(z[k])
                out.append(Violation(
                    "strong-triangle", (pts[xk], pts[yk], pts[zk]),
                    f"d(x,y) = {rat_str(vals[C[xk, yk]])} > max("
                    f"{rat_str(vals[C[xk, zk]])}, {rat_str(vals[C[zk, yk]])})"))
    return out, False


def class_labels(codes: np.ndarray, tcode: int) -> np.ndarray:
    """First-member labels of the relation {codes <= tcode}: entry i is the
    least column j with codes[i, j] <= tcode.  On an ultrametric code matrix
    the relation is an equivalence whose classes are the closed balls at
    that threshold, so each ball is labelled by its first member.  Rows go
    in blocks of about four million cells, so no n x n boolean is built."""
    n = codes.shape[0]
    labels = np.empty(n, dtype=np.int64)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        labels[lo:lo + chunk] = (codes[lo:lo + chunk] <= tcode).argmax(axis=1)
    return labels


# -- node maps and navigation on them -------------------------------------------


@functools.lru_cache(maxsize=64)
def node_maps(tower) -> tuple:
    """(nodes, level, parent): every node in (level, id) order, each
    node's level, filled level by level, and each node's parent, None at
    the top, filled top level first and then levels 1..H-1.  Kept per
    tower (towers never change) and read-only."""
    nodes = tuple(itertools.chain.from_iterable(tower._ids))
    level: dict = {}
    for lv, row in enumerate(tower._ids, start=1):
        level.update(dict.fromkeys(row, lv))
    parent = dict.fromkeys(tower._ids[-1])
    for row, up, p in zip(tower._ids, tower._ids[1:], tower._par):
        parent.update(zip(row, map(up.__getitem__, p.tolist())))
    return nodes, MappingProxyType(level), MappingProxyType(parent)


def cone(tower, node) -> tuple:
    """Lower cone: the node and everything below it, in (level, id)
    order, each node's ancestry walked up to the node's level."""
    nodes, level, parent = node_maps(tower)
    if node not in level:
        raise KeyError(node)
    return tuple(x for x in nodes
                 if level[x] <= level[node] and ancestor(tower, x, level[node]) == node)


def ancestor(tower, node, lvl: int):
    """The node's ancestor on level lvl, by a walk up the parent map."""
    _, level, parent = node_maps(tower)
    cur = node
    while level[cur] < lvl:
        cur = parent[cur]
    if level[cur] != lvl:
        raise ValueError(f"{node} has no ancestor at level {lvl}")
    return cur


def sup(tower, x, y):
    """Least common upper bound of two nodes."""
    _, level, parent = node_maps(tower)
    a, b = x, y
    while level[a] < level[b]:
        a = parent[a]
    while level[b] < level[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return a


def path_metric(tower, x, y) -> int:
    """d(x, y) = 2*lev(sup) - lev(x) - lev(y); on base pairs this is the
    even-valued ultrametric the base space carries."""
    level = node_maps(tower)[1]
    return 2 * level[sup(tower, x, y)] - level[x] - level[y]


def base_below(tower, node) -> tuple:
    """The base nodes in the node's lower cone, in id order."""
    level = node_maps(tower)[1]
    return tuple(i for i in cone(tower, node) if level[i] == 1)


def dotted_levels(degrees) -> list:
    """The id rows of regular_tower(degrees), level 1 first: each level
    holds its parents' ids, in order, each followed by the child tails
    '.0' .. '.{d-1}' in string order ('.10' before '.2')."""
    ids = [["t"]]
    for deg in reversed(list(degrees)):
        tails = sorted(map(".{}".format, range(deg)))
        ids.append([p + tail for p in ids[-1] for tail in tails])
    return ids[::-1]


# -- nested balls by lexsort ----------------------------------------------------


def lexsort_ball_table(points, parts, values) -> Space:
    """The space of nested partitions, finest first, as _ball_table gives
    it: one lexsort, coarsest partition first, gives the depth-first
    order, in which every class is one run, and each run's least member
    labels its class; a partition that merges nothing is dropped."""
    n = len(points)
    order = np.lexsort(parts or [np.arange(n)])
    kept, labels, balls = [], [], n + 1
    for value, part in zip(values, parts):
        run = part[order]
        new = np.concatenate(([True], run[1:] != run[:-1]))
        starts = np.flatnonzero(new)
        if n and starts.size < balls:
            balls = starts.size
            kept.append(value)
            labels.append(np.empty(n, dtype=np.int64))
            labels[-1][order] = np.minimum.reduceat(order, starts)[np.cumsum(new) - 1]
    return Space.__new__(Space)._fill(tuple(points), None, tuple(kept), labels, DEFAULT_CAPS)


def ancestor_ball_space(tower) -> Space:
    """The base space from one ancestor row per level: row l - 1 names
    each base point's level-l ancestor, a partition of the base that
    lexsort_ball_table encodes, dropping the levels that merge nothing."""
    anc = [np.arange(len(tower.base))]
    for par in tower._par:
        anc.append(par[anc[-1]])
    return lexsort_ball_table(tower.base, anc, [2 * lv for lv in range(tower.height)])


# -- tower maps as node dicts -------------------------------------------------


def children_by_parent(tower) -> dict:
    """Each node's children in id order, keyed in (level, id) order, one
    pass over the parent map."""
    nodes, _, parent = node_maps(tower)
    out: dict = {x: [] for x in nodes}
    for x in sorted(nodes):
        if parent[x] is not None:
            out[parent[x]].append(x)
    return out


def germ_descent(t1, roots, t2, w, seqs) -> dict:
    """The admissible germ map by depth-first recursion: the roots all go
    to w; at each mapped node the children of the image are shared out by
    largest remainder in id order, the node's children are cut by
    balanced_partition within the level's window, and parts pair with the
    image children in id order.  Raises the first infeasibility met."""
    phi: dict = {}
    kids1, kids2 = children_by_parent(t1), children_by_parent(t2)

    def descend(group, target, level):
        for x in group:
            phi[x] = target
        if level == 1:
            return
        target_kids = kids2[target]
        count = len(group)
        base_q, rem = divmod(len(target_kids), count)
        lo, hi = seqs.window(level - 1)
        pos = 0
        for idx, x in enumerate(group):
            quota = base_q + 1 if idx < rem else base_q
            if quota == 0:
                raise ValueError(
                    f"level {level}: node {x!r} receives no image children "
                    f"(deg(w) = {len(target_kids)} < fiber size {count})")
            try:
                blocks = balanced_partition(kids1[x], quota, lo, hi)
            except ValueError as err:
                raise ValueError(f"level {level - 1} under {x!r}: {err}") from None
            for block in blocks:
                descend(block, target_kids[pos], level - 1)
                pos += 1

    descend(sorted(roots), w, node_maps(t2)[1][w])
    return phi


def greedy_embedding(t1, t2) -> dict:
    """The level-preserving embedding node by node, top down: the k-th
    child of a node, in id order, goes to the k-th child of its image."""
    kids1, kids2 = children_by_parent(t1), children_by_parent(t2)
    nodes, level, _ = node_maps(t1)
    phi = {t1.top: t2.top}
    for node in reversed(nodes):  # descending (level, id)
        if level[node] == 1:
            continue
        image_kids = kids2[phi[node]]
        for i, child in enumerate(kids1[node]):
            phi[child] = image_kids[i]
    return phi


# -- admissibility ------------------------------------------------------------


def check_admissible(phi, t1, t2) -> ValidationReport:
    """Five structural conditions on a node map between towers.

    The domain must be a lower subset; the map preserves levels, commutes
    with taking parents inside the domain, keeps each fiber inside one
    sibling set, has a lower-set image, and sends the maximal domain nodes
    to at most one node.
    """
    checked = _ADMISSIBLE_CHECKS
    _, level1, parent1 = node_maps(t1)
    _, level2, parent2 = node_maps(t2)
    kids1, kids2 = children_by_parent(t1), children_by_parent(t2)
    violations: list = []
    dom = set(phi)
    for x in phi:
        if x not in level1:
            return ValidationReport(
                "admissible morphism", checked,
                (Violation("domain-lower-set", (x,),
                           f"domain node {x!r} not in the source tower"),))
        if phi[x] not in level2:
            return ValidationReport(
                "admissible morphism", checked,
                (Violation("image-lower-set", (x, phi[x]),
                           f"image node {phi[x]!r} not in the target tower"),))
    for x in sorted(dom):
        for c in kids1[x]:
            if c not in dom:
                violations.append(Violation(
                    "domain-lower-set", (x, c),
                    f"{x!r} is in the domain but its child {c!r} is not"))
        if level1[x] != level2[phi[x]]:
            violations.append(Violation(
                "level-preserving", (x, phi[x]),
                f"lev({x!r}) = {level1[x]} but lev({phi[x]!r}) = "
                f"{level2[phi[x]]}"))
    for x in sorted(dom):
        p = parent1[x]
        if p is not None and p in dom:
            if parent2[phi[x]] != phi[p]:
                violations.append(Violation(
                    "monotone", (x, p),
                    f"parent of image of {x!r} is {parent2[phi[x]]!r}, "
                    f"expected {phi[p]!r}"))
    by_image: dict = {}
    for x in sorted(dom):
        by_image.setdefault(phi[x], []).append(x)
    for y, fiber in sorted(by_image.items()):
        parents = {parent1[x] for x in fiber}
        if len(fiber) > 1 and (len(parents) != 1 or None in parents):
            violations.append(Violation(
                "fibers-in-one-sibling-set", tuple(fiber[:2]),
                f"fiber of {y!r} spans distinct parents {sorted(map(str, parents))}"))
    img = set(phi.values())
    for y in sorted(img):
        for c in kids2[y]:
            if c not in img:
                violations.append(Violation(
                    "image-lower-set", (y, c),
                    f"{y!r} is in the image but its child {c!r} is not"))
    max_nodes = [x for x in dom
                 if parent1[x] is None or parent1[x] not in dom]
    top_images = {phi[x] for x in max_nodes}
    if len(top_images) > 1:
        violations.append(Violation(
            "single-top-image", tuple(sorted(top_images)[:2]),
            f"maximal domain nodes map to {len(top_images)} distinct nodes"))
    return ValidationReport("admissible morphism", checked, tuple(violations))


# -- the germ searches by recursion ------------------------------------------


def minimal_exponent(
    base: int, cur: _Step, d: Fraction, tail: Fraction, cap: int = 64
) -> Optional[int]:
    """Smallest dm with base^dm (tail - 1) a/(d - b) > 2 and a' >= 1."""
    for dm in range(1, cap + 1):
        scale = base ** dm
        if (scale * (tail - 1) * cur.a > 2 * (d - cur.b)
                and scale * cur.a >= d - cur.b):
            return dm
    return None


def make_step(
    base: int, cur: _Step, nxt: int, dm: int, d: Fraction, denom: Fraction
) -> _Step:
    scale = base ** dm
    return _Step(
        nxt,
        cur.m + dm,
        scale * cur.a / (d - cur.b),
        scale * cur.b / denom,
    )


def greedy_chain(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
) -> list:
    """Smallest-first greedy extension: at each step the lowest feasible
    next level, then the lowest feasible exponent jump."""
    chain = [_initial_step(profile, witness)]
    H = profile.height
    while True:
        cur = chain[-1]
        found = None
        for nxt in range(cur.n + 1, H):
            gate = _step_gate(profile, witness, cur, nxt)
            if gate is None:
                continue
            d, denom, tail = gate
            dm = minimal_exponent(target_base, cur, d, tail)
            if dm is None:
                continue
            found = make_step(target_base, cur, nxt, dm, d, denom)
            break
        if found is None:
            return chain
        chain.append(found)


def synthesize_sequences(
    profile: DegreeProfile,
    target_base: int = 2,
    witness: Optional[HomogeneityWitness] = None,
) -> SynthesisOutput:
    """Greedy window-sequence synthesis against a regular target base.

    Searches smallest-first (levels, then exponents) and keeps exact
    rationals throughout.  Raises SynthesisExhausted when fewer than two
    steps fit, with a height estimate when the profile's growth makes one
    computable.  The returned output has passed verify_synthesis.
    """
    if target_base < 2:
        raise ValueError("target base must be at least 2")
    if witness is None:
        witness = HomogeneityWitness.default_for(profile)
    witness.check_against(profile).require()
    chain = greedy_chain(profile, witness, target_base)
    if len(chain) < 2:
        def ok(ext: DegreeProfile, w: HomogeneityWitness) -> bool:
            return len(greedy_chain(ext, w, target_base)) >= 2
        advice = _height_advice(profile, ok)
        hint = (
            f"; height {advice} with the same degree pattern admits one"
            if advice is not None else
            "; no height estimate available for this profile shape")
        raise SynthesisExhausted(
            f"no admissible sequence pair fits within height "
            f"{profile.height}{hint}", advice)
    return _verified_output(profile, chain, target_base, witness)


def fit_exponent_window(
    base: int, cur: _Step, d: Fraction, denom: Fraction,
    tail: Fraction, count: int, cap: int = 64,
) -> Optional[int]:
    """Smallest dm >= the minimal exponent whose window contains count:
    a' <= count <= b', i.e. base^dm in [count*denom/b, count*(d-b)/a]."""
    dm = minimal_exponent(base, cur, d, tail, cap)
    if dm is None:
        return None
    lo = Fraction(count) * denom / cur.b
    hi = Fraction(count) * (d - cur.b) / cur.a
    while base ** dm <= hi:
        if base ** dm >= lo:
            return dm
        dm += 1
    return None


def fit_germ(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
    budget: int = 200_000,
    advice: bool = True,
) -> tuple[SynthesisOutput, bool, int]:
    """Find sequences whose top window fits the germ's own level count.

    The count of level-n nodes under the single top is exactly
    small_between(n, H).  Searches shortest chains first, levels in
    ascending order, intermediate exponents minimal and the last exponent
    raised just enough to put the count inside the final window.  Falls
    back to a partial germ (largest prefix of the level set that the top
    window can hold) only when no full fit exists.

    Returns (output, full, top_size).
    """
    H = profile.height
    first = _initial_step(profile, witness)
    visits = [0]

    def candidates(cur: _Step):
        for nxt in range(cur.n + 1, H):
            visits[0] += 1
            if visits[0] > budget:
                raise SynthesisExhausted(
                    f"germ fitting exceeded the search budget of {budget} "
                    f"candidate steps")
            gate = _step_gate(profile, witness, cur, nxt)
            if gate is not None:
                yield nxt, gate

    def search(cur: _Step, chain: list, steps_left: int, partial: bool):
        for nxt, (d, denom, tail) in candidates(cur):
            if steps_left == 1:
                count = profile.small_between(nxt, H)
                dm = fit_exponent_window(
                    target_base, cur, d, denom, tail, count)
                if dm is not None:
                    return chain + [make_step(
                        target_base, cur, nxt, dm, d, denom)], count
                if partial:
                    dm = minimal_exponent(target_base, cur, d, tail)
                    if dm is None:
                        continue
                    step = make_step(target_base, cur, nxt, dm, d, denom)
                    size = min(count, math.floor(step.b))
                    if size >= step.a:
                        return chain + [step], size
            else:
                dm = minimal_exponent(target_base, cur, d, tail)
                if dm is None:
                    continue
                step = make_step(target_base, cur, nxt, dm, d, denom)
                hit = search(step, chain + [step], steps_left - 1, partial)
                if hit is not None:
                    return hit
        return None

    for partial in (False, True):
        for steps in range(1, H - 1):
            hit = search(first, [first], steps, partial)
            if hit is None:
                continue
            chain, size = hit
            out = _verified_output(profile, chain, target_base, witness)
            full = size == profile.small_between(out.n[-1], H)
            return out, full, size

    needed = None
    if advice:
        def ok(ext: DegreeProfile, w: HomogeneityWitness) -> bool:
            try:
                return fit_germ(ext, w, target_base, budget, advice=False)[1]
            except SynthesisExhausted:
                return False
        needed = _height_advice(profile, ok)
    hint = (
        f"; height {needed} with the same degree pattern admits a full fit"
        if needed is not None else
        "; no height estimate available for this profile shape")
    raise SynthesisExhausted(
        f"no sequence pair puts the germ's top level inside its window at "
        f"height {H}{hint}", needed)
