"""Acceptance gate: nine end-to-end checks, each reported as a single
summary line in the terminal summary.

Every check recomputes its claim from scratch at full advertised size:
exhaustive validator families, the complete regular-tower census up to
600 base points, randomized morphism templates with exact rational
feasibility, and byte-level determinism of emitted reports.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from coarsetowers import (
    DegreeProfile,
    MultiMap,
    Space,
    Tower,
    asymptotic_homogeneity,
    ball_tower,
    base_space,
    check_l2_preconditions,
    check_modulus_composition,
    coarse_normal_form,
    degree_profile,
    entropy_from_degrees,
    entropy_profile,
    hyperspace,
    level_subtower,
    product,
    regular_tower,
    selection_pair,
    subspace,
    synthesize_sequences,
    tower_embedding,
    ultrametrize,
    validate_ultrametric,
    verify_asymorphism,
    word_space,
)
from coarsetowers import towers
from coarsetowers.cli import main
from coarsetowers.limits import DEFAULT_CAPS, Caps
from coarsetowers.morphisms import (
    AdmissibleSequences, build_admissible_morphism)
from coarsetowers.rationals import canon

from conftest import (
    random_plain_metric,
    random_radii,
    random_tower,
    random_ultrametric,
    record_acceptance,
)
from oracles import check_admissible, cone, germ_descent, node_maps


# -- 1: validator families -------------------------------------------------------


def test_criterion_1_validator_families():
    caps = Caps(max_points=20000)
    t0 = time.perf_counter()
    failures = []
    counts = {"word": 0, "product": 0, "hyperspace": 0, "ultrametrized": 0}

    def check(space, label, family):
        report = validate_ultrametric(space)
        if not (report.ok and not report.violations):
            failures.append(label)
        counts[family] += 1

    def check_written(space, label):
        # the matrix scan on the written codes installs the builder's table
        held = Space(space.points, space.codes, space.values, caps=caps)
        report = validate_ultrametric(held)
        if not report.ok or len(held._labels) != len(space._labels) or not all(
                np.array_equal(a, b) for a, b in zip(held._labels, space._labels)):
            failures.append(f"{label} written")

    for a in (2, 3, 5):
        for length in range(1, 9):
            if a ** length <= caps.max_points:
                words = word_space(a, length, caps=caps)
                check(words, f"word({a},{length})", "word")
                check_written(words, f"word({a},{length})")

    factor_pairs = [
        (word_space(2, 3), word_space(3, 2)),
        (word_space(5, 2), word_space(2, 4)),
        (word_space(3, 3), word_space(3, 3)),
        (product(word_space(2, 2), word_space(3, 2)), word_space(5, 1)),
    ]
    for i, (left, right) in enumerate(factor_pairs):
        check(product(left, right, caps=caps), f"product[{i}]", "product")

    for base in (word_space(2, 5), word_space(3, 3),
                 word_space(5, 2), word_space(2, 3)):
        for n in (1, 2, 3):
            check(hyperspace(base, n, caps=caps),
                  f"hyperspace({len(base.points)},{n})", "hyperspace")

    rng = random.Random(20260819)
    for i in range(200):
        plain = random_plain_metric(rng)
        diam = plain.diameter()
        k = rng.randint(1, 3)
        scales = [canon(Fraction(diam, 2 ** j)) for j in range(k - 1, -1, -1)]
        check(ultrametrize(plain, scales, caps=caps),
              f"ultrametrize[{i}]", "ultrametrized")

    elapsed = time.perf_counter() - t0
    total = sum(counts.values())
    ok = not failures and elapsed < 60.0
    record_acceptance(
        1, ok,
        f"{total} spaces validated ({counts['word']} word, "
        f"{counts['product']} product, {counts['hyperspace']} hyperspace, "
        f"{counts['ultrametrized']} ultrametrized plain metrics; each word "
        f"space also from its written matrix), "
        f"0 violations, {elapsed:.1f}s < 60s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


# -- 2: entropy against the degree formula ----------------------------------------


def _degree_tuples(limit):
    """All degree tuples with entries >= 2 and base size <= limit, plus
    the trivial tower."""
    out = [()]

    def grow(prefix, size):
        for d in range(2, limit // size + 1):
            out.append(prefix + (d,))
            grow(prefix + (d,), size * d)

    grow((), 1)
    return out


def _entropy_mismatches(tower, convention, min_index=0):
    # strict nets do not exist at radius 0, so strict sampling starts at 2
    base = base_space(tower)
    # the degree side counts descendants on a twin holding the same arrays
    # and no block sizes, so a regular tower's identity is checked between
    # two computations, not read off its blocks twice
    counted = towers._of_arrays(tower._ids, tower._par, DEFAULT_CAPS)
    radii = [2 * i for i in range(min_index, tower.height)]
    profile = entropy_profile(base, radii, radii, convention)
    points = bad = 0
    for i in range(min_index, tower.height):
        for j in range(i, tower.height):
            points += 1
            if profile.entries[(2 * i, 2 * j)] != \
                    entropy_from_degrees(counted, i, j):
                bad += 1
    return points, bad


def test_criterion_2_entropy_equals_degree_profile():
    t0 = time.perf_counter()
    tuples = _degree_tuples(600)
    assert len(tuples) == 20700
    rng = random.Random(2)
    towers = [random_tower(rng) for _ in range(200)]

    points = mismatches = 0
    for degrees in tuples:
        p, b = _entropy_mismatches(regular_tower(degrees), "closed")
        points += p
        mismatches += b
    for tower in towers:
        p, b = _entropy_mismatches(tower, "closed")
        points += p
        mismatches += b

    # the strict convention is measured on a sample and reported, never
    # asserted: its ball boundaries count differently by design
    strict_points = strict_diff = 0
    small_regulars = [d for d in tuples if d and math.prod(d) <= 64]
    for tower in towers[:40] + [regular_tower(d) for d in small_regulars[:60]]:
        if tower.height < 2:
            continue
        p, b = _entropy_mismatches(tower, "strict", min_index=1)
        strict_points += p
        strict_diff += b

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    record_acceptance(
        2, ok,
        f"{len(tuples)} regular + {len(towers)} random towers, {points} "
        f"grid points exact under closed nets; strict nets differ at "
        f"{strict_diff}/{strict_points} sampled points (reported only); "
        f"{elapsed:.0f}s")
    assert mismatches == 0


# -- 3: admissible morphisms and their two-sided window bounds ----------------------


def _window_implication_failures(phi):
    """Count failures of (i) d <= 2n => image distance <= 2n and
    (ii) image distance <= 2n => source distance <= 2n + 2, over every
    pair of base points and every threshold n."""
    src, tgt = phi.source, phi.target
    ia = np.asarray([src.index(a) for a, _ in phi.pairs], dtype=np.int64)
    ib = np.asarray([tgt.index(b) for _, b in phi.pairs], dtype=np.int64)
    ds = np.asarray(src.values, dtype=np.int64)[src.codes[np.ix_(ia, ia)]]
    dt = np.asarray(tgt.values, dtype=np.int64)[tgt.codes[np.ix_(ib, ib)]]
    top = int(max(ds.max(), dt.max())) // 2 + 1
    bad = 0
    for n in range(top + 1):
        bad += int(np.count_nonzero((ds <= 2 * n) & (dt > 2 * n)))
        bad += int(np.count_nonzero((dt <= 2 * n) & (ds > 2 * n + 2)))
    return bad, ds.shape[0]


def _template_instances(count):
    """Feasible (d1, r, D, b1, b2) template parameters: r sibling cones of
    d1 leaves each mapping onto a flat D-leaf cone, with exact rational
    feasibility b1 + D/r <= d1 <= 1 + b1 * (D/b2 - 2)."""
    found = []
    for r in (2, 3, 4, 5):
        b2 = r + 2
        for b1 in (3, 4, 5, 6):
            for D in range(8, 61):
                lo = Fraction(b1) + Fraction(D, r)
                hi = 1 + b1 * (Fraction(D, b2) - 2)
                d1 = math.ceil(lo)
                if Fraction(d1) <= hi and r * d1 <= 260:
                    found.append((d1, r, D, b1, b2))
    out = []
    for inst in found:
        if inst not in out:
            out.append(inst)
        if len(out) == count:
            break
    return out


def test_criterion_3_admissible_morphisms(pipeline_r3, pipeline_r2):
    t0 = time.perf_counter()
    instances = _template_instances(52)
    assert len(instances) == 52

    built = 0
    bad_pairs = 0
    for d1, r, D, b1, b2 in instances:
        lo = Fraction(b1) + Fraction(D, r)
        hi = 1 + b1 * (Fraction(D, b2) - 2)
        assert lo <= d1 <= hi
        t1 = regular_tower((d1, r))
        t2 = regular_tower((D,))
        roots = t1._ids[1]  # the level-2 nodes
        seqs = AdmissibleSequences((1, r), (b1, b2))
        phi, _, cert = build_admissible_morphism(t1, roots, t2, t2.top, seqs)
        assert cert.kind == "admissible"
        assert all(c.passed for c in cert.checks)
        # the builder does not re-check its own map; the validator does here
        assert check_admissible(phi, t1, t2).ok
        assert set(phi.values()) == set(cone(t2, t2.top))
        assert phi == germ_descent(t1, roots, t2, t2.top, seqs)
        level = node_maps(t1)[1]
        pairs = tuple((x, phi[x]) for x in sorted(phi) if level[x] == 1)
        base_map = MultiMap(base_space(t1), base_space(t2), pairs)
        bad, _ = _window_implication_failures(base_map)
        bad_pairs += bad
        built += 1

    germ_maps = 0
    for result in (pipeline_r3, pipeline_r2):
        stage = next(s for s in result.stages if s.name == "germ-map")
        assert stage.certificate.kind == "admissible"
        bad, _ = _window_implication_failures(stage.map)
        bad_pairs += bad
        built += 1
        germ_maps += 1

    elapsed = time.perf_counter() - t0
    ok = built >= 50 and bad_pairs == 0 and germ_maps == 2
    record_acceptance(
        3, ok,
        f"{built} admissible morphisms ({len(instances)} template instances "
        f"+ {germ_maps} pipeline germ maps incl. the ternary-to-binary run), "
        f"exhaustive two-sided window implications, 0 failures, "
        f"{elapsed:.1f}s")
    assert ok


# -- 4: synthesized sequences satisfy their defining inequalities --------------------


def test_criterion_4_synthesis_inequalities():
    summaries = []
    for degrees in ((3,) * 12, (2,) * 12):
        profile = DegreeProfile.regular(degrees)
        out = synthesize_sequences(profile)
        stages = len(out.a)
        inequalities = 0
        for i in range(stages - 1):
            scale = 2 ** (out.m[i + 1] - out.m[i])
            small = profile.small_between(out.n[i], out.n[i + 1])
            large = profile.large_between(out.n[i], out.n[i + 1])
            # lower window: packed fibers still fit under the small degree
            assert Fraction(out.b[i]) + \
                Fraction(out.a[i]) * scale / Fraction(out.a[i + 1]) <= small
            # upper window: the large degree spreads within the budget
            assert large <= Fraction(out.a[i]) + \
                Fraction(out.b[i]) * (Fraction(scale) / Fraction(out.b[i + 1]) - 2)
            inequalities += 2
        grouped = profile.grouped(out.n)
        steps = [2 ** (out.m[i + 1] - out.m[i]) for i in range(len(out.m) - 1)]
        target = DegreeProfile.regular(steps, stages)
        gate = check_l2_preconditions(grouped, target, out.sequences)
        assert gate.ok
        summaries.append(
            f"{degrees[0]}-regular h{profile.height}: {inequalities} exact "
            f"inequalities + {len(gate.checked)} gate rules")
    record_acceptance(4, True, "; ".join(summaries))


# -- 5: the flagship command line run ----------------------------------------------


def test_criterion_5_cli_equivalence_run(pipeline_r3):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = main(["equiv", "--from", "regular:3"])
    elapsed = time.perf_counter() - t0
    report = json.loads(buf.getvalue())
    composed = report["pipeline"]["composed"]

    assert code == 0
    assert 729 <= composed["source_points"] <= 10 ** 4
    cert_json = composed["certificate"]
    assert cert_json["kind"] == "asymorphism"
    assert cert_json["forward_surjective"] and cert_json["backward_surjective"]
    for key in ("forward_modulus", "backward_modulus"):
        assert cert_json[key]["finite"] is True
        deltas = [d for _, d in cert_json[key]["table"]]
        assert all(x <= y for x, y in zip(deltas, deltas[1:]))

    sel = report["pipeline"]["selection"]
    assert sel["closeness"] <= max(sel["source_fiber_bound"],
                                   sel["target_fiber_bound"])

    # object-level: the composed moduli are bounded by the stage composition
    cert = pipeline_r3.certificate
    assert cert.forward_modulus.check_monotone().ok
    assert cert.backward_modulus.check_monotone().ok
    assert check_modulus_composition(
        cert.forward_modulus,
        [s.certificate.forward_modulus for s in pipeline_r3.stages]).ok

    ok = elapsed < 120.0
    record_acceptance(
        5, ok,
        f"regular:3 run in {elapsed:.1f}s < 120s, "
        f"{composed['source_points']} -> {composed['target_points']} points, "
        f"finite monotone moduli, both surjectivity checks, selection "
        f"closeness {sel['closeness']} within fiber bound, stagewise "
        f"composition bound holds")
    assert ok


# -- 6: degree domination decides embeddability ------------------------------------


def _ranged_tower(rng, height, ranges, prefix):
    # ranges[k] = (lo, hi) children per node one level above window (k, k+1)
    ids = [prefix]
    level = {prefix: height}
    parent = {prefix: None}
    frontier = [prefix]
    for lv in range(height - 1, 0, -1):
        nxt = []
        lo, hi = ranges[lv]
        for node in frontier:
            for c in range(rng.randint(lo, hi)):
                cid = f"{node}.{c}"
                ids.append(cid)
                level[cid] = lv
                parent[cid] = node
                nxt.append(cid)
        frontier = nxt
    return Tower(ids, level, parent)


def test_criterion_6_embedding_dichotomy():
    rng = random.Random(6)
    t0 = time.perf_counter()

    embedded = 0
    for _ in range(100):
        height = rng.randint(2, 5)
        mins = {k: rng.randint(2, 4) for k in range(1, height)}
        small = _ranged_tower(rng, height, {k: (1, mins[k]) for k in mins}, "x")
        big = _ranged_tower(rng, height, {k: (mins[k], 4) for k in mins}, "y")
        assignment, cert = tower_embedding(small, big)
        nodes, level, _ = node_maps(small)
        assert set(assignment) == set(nodes)
        assert len(set(assignment.values())) == len(assignment)
        assert all(level[x] == node_maps(big)[1][y] for x, y in assignment.items())
        # same-shape pairs upgrade themselves to isometries
        assert cert.kind in ("embedding", "isometry")
        src = base_space(small)
        tgt = base_space(big)
        ia = np.asarray([src.index(p) for p in src.points], dtype=np.int64)
        ib = np.asarray([tgt.index(assignment[p]) for p in src.points],
                        dtype=np.int64)
        d_src = np.asarray(src.values, dtype=np.int64)[src.codes[np.ix_(ia, ia)]]
        d_tgt = np.asarray(tgt.values, dtype=np.int64)[tgt.codes[np.ix_(ib, ib)]]
        assert np.array_equal(d_src, d_tgt)
        embedded += 1

    refused = 0
    for _ in range(100):
        height = rng.randint(3, 5)
        k_star = rng.randint(1, height - 1)
        mins = {k: rng.randint(2, 4) for k in range(1, height)}
        r1 = {k: (1, mins[k]) for k in mins}
        r2 = {k: (mins[k], 4) for k in mins}
        r1[k_star] = (4, 4)
        r2[k_star] = (2, 3)
        small = _ranged_tower(rng, height, r1, "x")
        big = _ranged_tower(rng, height, r2, "y")
        with pytest.raises(ValueError) as exc:
            tower_embedding(small, big)
        assert f"level {k_star}" in str(exc.value)
        assert f"Deg_{k_star}" in str(exc.value)
        refused += 1

    elapsed = time.perf_counter() - t0
    ok = embedded == 100 and refused == 100
    record_acceptance(
        6, ok,
        f"{embedded} dominated pairs embedded with base distances exact, "
        f"{refused} violating pairs refused naming the failing level, "
        f"{elapsed:.1f}s")
    assert ok


# -- 7: entropy ratio product equals ball tower homogeneity --------------------------


def test_criterion_7_homogeneity_identity():
    rng = random.Random(7)
    checked = 0
    for _ in range(50):
        space = random_ultrametric(rng)
        radii = random_radii(rng, space)
        tower = ball_tower(space, radii)
        value, bound = asymptotic_homogeneity(degree_profile(tower))
        assert value == bound
        profile = entropy_profile(space, radii[:-1], radii[1:], "closed")
        ratio = Fraction(1)
        for lo, hi in zip(radii, radii[1:]):
            large, small = profile.entries[(canon(lo), canon(hi))]
            ratio *= Fraction(large, small)
        assert canon(ratio) == value
        checked += 1
    record_acceptance(
        7, checked == 50,
        f"{checked} (space, radii) instances: entropy ratio product equals "
        f"ball tower homogeneity exactly")
    assert checked == 50


# -- 8: normal forms from every verified asymorphism ---------------------------------


def _normal_form_failures(mm, cert):
    sel = selection_pair(mm, cert)
    nf = coarse_normal_form(mm.source, mm.target, sel.f, sel.g)
    assert nf.backward_bound.ok
    assert sorted(nf.h) == sorted(nf.x_prime)
    assert sorted(set(nf.h.values())) == sorted(nf.y_prime)
    assert len(set(nf.h.values())) == len(nf.x_prime)
    src, tgt = mm.source, mm.target
    ia = np.asarray([src.index(x) for x in nf.x_prime], dtype=np.int64)
    ib = np.asarray([tgt.index(nf.h[x]) for x in nf.x_prime], dtype=np.int64)
    d_src = np.asarray(src.values, dtype=np.int64)[src.codes[np.ix_(ia, ia)]]
    codes_tgt = tgt.codes[np.ix_(ib, ib)]
    r_bound = nf.r_bound
    assert r_bound == int(r_bound)
    bound = []
    for v in tgt.values:
        b = nf.h_backward.value_at(v)
        assert b == int(b)
        bound.append(int(b))
    rhs = np.asarray(bound, dtype=np.int64)[codes_tgt] + 2 * int(r_bound)
    return int(np.count_nonzero(d_src > rhs)), d_src.size


def test_criterion_8_normal_forms(pipeline_r3, pipeline_r2):
    t0 = time.perf_counter()
    cases = []

    w23 = word_space(2, 3)
    mm = MultiMap.identity(w23)
    cases.append(("identity", mm, verify_asymorphism(mm)))

    tower3 = regular_tower((2,) * 3)
    reversal = {p: "t." + ".".join(reversed(p)) for p in w23.points}
    mm = MultiMap.from_function(w23, base_space(tower3), reversal)
    cases.append(("digit-reversal", mm, verify_asymorphism(mm)))

    w22 = word_space(2, 2)
    mm = MultiMap.from_function(
        w22, subspace(w22, ["00"]), {p: "00" for p in w22.points})
    cases.append(("collapse", mm, verify_asymorphism(mm)))

    tower4 = regular_tower((2,) * 3, 4)
    sub, next_map = level_subtower(tower4, [2, 4])
    mm = MultiMap(base_space(tower4), base_space(sub),
                  tuple(sorted(next_map.items())))
    cases.append(("next-map", mm, verify_asymorphism(mm)))

    for tag, result in (("r3", pipeline_r3), ("r2", pipeline_r2)):
        for stage in result.stages:
            cert = (stage.certificate if stage.certificate.kind == "asymorphism"
                    else verify_asymorphism(stage.map))
            cases.append((f"{tag}:{stage.name}", stage.map, cert))
        cases.append((f"{tag}:composed", result.composed, result.certificate))

    bad = 0
    pairs = 0
    for label, mm, cert in cases:
        assert cert.kind == "asymorphism", label
        b, p = _normal_form_failures(mm, cert)
        bad += b
        pairs += p

    elapsed = time.perf_counter() - t0
    ok = bad == 0
    record_acceptance(
        8, ok,
        f"{len(cases)} verified asymorphisms reduced to normal form, "
        f"{pairs} pairs obey the delta + 2R backward bound, {elapsed:.1f}s")
    assert ok


# -- 9: byte determinism -------------------------------------------------------------


def test_criterion_9_byte_identical_reruns():
    sizes = []
    for argv in (["equiv", "--from", "regular:3"],
                 ["equiv", "--from", "regular:3", "--height", "7"],
                 ["equiv", "--from", "regular:2"]):
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            runs.append((code, buf.getvalue()))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
        sizes.append(len(runs[0][1]))
    record_acceptance(
        9, True,
        f"3 configs rerun twice, byte-identical reports of "
        f"{sizes[0]}/{sizes[1]}/{sizes[2]} bytes")
