"""Homogenization layer: homogeneity measures, sequence synthesis, the
staged equivalence pipeline, and the classification verdicts."""

import dataclasses
import gc
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coarsetowers import (
    DegreeProfile,
    HomogeneityWitness,
    SynthesisExhausted,
    asymptotic_homogeneity,
    ball_tower,
    base_space,
    check_base_distortion,
    check_l2_preconditions,
    classify,
    degree_profile,
    distortion_modulus,
    equivalence_pipeline,
    regular_tower,
    space_equivalence,
    synthesize_sequences,
    verify_asymorphism,
    verify_synthesis,
    word_space,
)
from coarsetowers import cli, homogenize, morphisms, towers
from coarsetowers.report import Violation

import oracles
from conftest import random_tower

MIXED_PROFILE = DegreeProfile(
    3, {(1, 2): 2, (1, 3): 5, (2, 3): 2}, {(1, 2): 3, (1, 3): 5, (2, 3): 2})


# -- homogeneity ----------------------------------------------------------------


def test_asymptotic_homogeneity_of_regular_towers():
    for degs in [(2, 2), (3, 3, 3), (5,)]:
        prof = degree_profile(regular_tower(degs))
        assert asymptotic_homogeneity(prof) == (1, 1)


def test_asymptotic_homogeneity_of_mixed_tower():
    assert asymptotic_homogeneity(MIXED_PROFILE) == \
        (Fraction(3, 2), Fraction(3, 2))


def test_asymptotic_homogeneity_of_ball_towers_is_one():
    bt = ball_tower(word_space(2, 3), (0, 1, 2, 4))
    assert asymptotic_homogeneity(degree_profile(bt)) == (1, 1)


def test_homogeneity_maximum_is_largest_ratio_over_windows():
    prof = MIXED_PROFILE
    H = prof.height
    expected = max(
        Fraction(prof.large_between(i, j), prof.small_between(i, j))
        for i in range(1, H + 1) for j in range(i, H + 1))
    assert asymptotic_homogeneity(prof)[1] == expected


def test_default_witness_shape():
    prof = DegreeProfile.regular((3,) * 6)
    w = HomogeneityWitness.default_for(prof)
    assert w.c == (1,) * 6
    assert w.delta == (2, Fraction(3, 2), Fraction(5, 4), Fraction(9, 8),
                       Fraction(17, 16), Fraction(33, 32))
    assert w.height == 7
    assert w.check_against(prof).ok


def test_witness_tail_products():
    prof = DegreeProfile.regular((3,) * 6)
    w = HomogeneityWitness.default_for(prof)
    assert w.tail_c(1, 3) == 1
    assert w.tail_delta(1, 3) == 2 * Fraction(3, 2)
    for i in range(1, 7):
        expected = math.prod(w.delta[i - 1:6], start=Fraction(1))
        assert w.tail_delta(i, 7) == expected


# -- sequence synthesis -------------------------------------------------------------


def freeze_case(degs, a, b, n, m):
    prof = DegreeProfile.regular(degs)
    out = synthesize_sequences(prof)
    assert out.a == a
    assert out.b == b
    assert out.n == n
    assert out.m == m
    assert verify_synthesis(prof, out).ok
    return prof, out


def test_synthesis_three_regular_height_thirteen():
    prof, out = freeze_case(
        (3,) * 12,
        (1, Fraction(7680, 667), Fraction(82543902720, 58868753)),
        (Fraction(143, 30), Fraction(1408, 41),
         Fraction(246188867584, 61371281)),
        (1, 4, 11),
        (0, 8, 26))
    # literal window inequalities: 1 <= a_i and a_i + 2 <= b_i, exactly
    for ai, bi in zip(out.a, out.b):
        assert Fraction(ai) >= 1
        assert Fraction(ai) + 2 <= Fraction(bi)
    # literal lower-window identity at each step
    for i in range(len(out.n) - 1):
        d = prof.small_between(out.n[i], out.n[i + 1])
        scale = 2 ** (out.m[i + 1] - out.m[i])
        assert Fraction(out.b[i]) + Fraction(out.a[i]) * scale / \
            Fraction(out.a[i + 1]) <= d


def test_synthesis_binary_height_thirteen():
    freeze_case(
        (2,) * 12,
        (1, Fraction(30720, 817)),
        (Fraction(143, 30), Fraction(2288, 19)),
        (1, 6),
        (0, 10))


def test_synthesis_three_regular_height_seven():
    freeze_case(
        (3,) * 6,
        (1, Fraction(6784, 593)),
        (Fraction(245, 53), Fraction(15680, 467)),
        (1, 4),
        (0, 8))


def test_synthesis_starting_values_follow_the_greedy_policy():
    # a_1 = 1; b_1 is the least fraction with denominator <= 64 at or above
    # max(3, the full witness tail product)
    for degs in [(3,) * 6, (2,) * 12, (3,) * 12]:
        prof = DegreeProfile.regular(degs)
        w = HomogeneityWitness.default_for(prof)
        out = synthesize_sequences(prof)
        assert out.a[0] == 1
        bound = max(Fraction(3),
                    w.tail_c(1, prof.height) * w.tail_delta(1, prof.height))
        best = min(
            Fraction(math.ceil(bound * q), q) for q in range(1, 65))
        assert Fraction(out.b[0]) == best


def test_synthesis_tail_domination_is_maintained():
    # every step dominates its remaining witness tail: b_i >= a_i * tail(n_i)
    for degs in [(3,) * 6, (2,) * 12, (3,) * 12]:
        prof = DegreeProfile.regular(degs)
        w = HomogeneityWitness.default_for(prof)
        out = synthesize_sequences(prof)
        for ai, bi, ni in zip(out.a, out.b, out.n):
            tail = w.tail_c(ni, prof.height) * w.tail_delta(ni, prof.height)
            assert Fraction(bi) >= Fraction(ai) * tail


def test_synthesis_rechecked_by_the_precondition_gate():
    # the packaged recheck and a literal call agree
    prof = DegreeProfile.regular((3,) * 12)
    out = synthesize_sequences(prof)
    grouped = prof.grouped(out.n)
    steps = [2 ** (out.m[i + 1] - out.m[i]) for i in range(len(out.m) - 1)]
    target = DegreeProfile.regular(steps, len(out.a))
    assert check_l2_preconditions(grouped, target, out.sequences).ok


def test_synthesis_exhaustion_reports_height_advice():
    with pytest.raises(SynthesisExhausted) as exc:
        synthesize_sequences(DegreeProfile.regular((3,), 2))
    assert str(exc.value) == (
        "no admissible sequence pair fits within height 2; height 5 with "
        "the same degree pattern admits one")
    assert exc.value.needed_height == 5


def test_verify_synthesis_rejects_tampered_output():
    prof = DegreeProfile.regular((3,) * 6)
    out = synthesize_sequences(prof)
    from coarsetowers import SynthesisOutput
    bad = SynthesisOutput(out.a, (Fraction(2), out.b[1]), out.n, out.m)
    rep = verify_synthesis(prof, bad)
    assert not rep.ok


# each tamper of regular:3 h=7's output (a = (1, 6784/593), b = (245/53,
# 15680/467), n = (1, 4), m = (0, 8)) and one violation it must raise
@pytest.mark.parametrize("tamper, rule, witness, message", [
    ({"a": (1,), "b": (Fraction(245, 53),), "n": (1,), "m": (0,)},
     "shape", 1, "need length >= 2, got 1"),
    ({"n": (2, 4)}, "shape", (2, 0), "sequences must start at n=1, m=0"),
    ({"n": (1, 7)}, "shape", (1, 7), "levels must increase strictly within 1..6"),
    ({"m": (0, 0)}, "shape", (0, 0), "exponents must increase strictly"),
    ({"a": (27, Fraction(6784, 593)), "b": (81, Fraction(15680, 467))},
     "degree-room", 1, "a_1 + 1 = 28 > d = 27"),
    ({"m": (0, 9)}, "lower-window-exact", 1,
     "b_1 + a_1 2^dm / a_2 = 2617/53 > d = 27"),
    ({"m": (0, 7)}, "level-map-preconditions", (1,),
     "level 1: Deg_1(T1) = 27 > a_1 + b_1 * (deg_1(T2) / b_2 - 2) = 497/53"),
])
def test_verify_synthesis_names_the_rule_a_tamper_breaks(tamper, rule, witness, message):
    prof = DegreeProfile.regular((3,) * 6)
    out = synthesize_sequences(prof)
    assert verify_synthesis(prof, out).ok
    rep = verify_synthesis(prof, dataclasses.replace(out, **tamper))
    assert Violation(rule, witness, message) in rep.violations


@pytest.mark.parametrize("witness, profile, found", [
    (HomogeneityWitness((1,), (2,)), DegreeProfile.regular((3, 3)),
     [("height", (2, 3), "witness height 2 != profile height 3")]),
    (HomogeneityWitness((Fraction(1, 2), 1), (2, 2)), DegreeProfile.regular((3, 3)),
     [("spread-bound-at-least-one", 1, "c_1 = 1/2 < 1"),
      ("spread-bound", 1, "Deg_1 = 3 > 1/2 * 3")]),
    (HomogeneityWitness((1,), (2,)), DegreeProfile(2, {(1, 2): 2}, {(1, 2): 3}),
     [("spread-bound", 1, "Deg_1 = 3 > 1 * 2")]),
    (HomogeneityWitness((1, 1), (2, 1)), DegreeProfile.regular((3, 3)),
     [("margin-above-one", 2, "delta_2 = 1 <= 1")]),
])
def test_witness_check_names_each_broken_rule(witness, profile, found):
    rep = witness.check_against(profile)
    assert rep.violations == tuple(Violation(*v) for v in found)


# -- the equivalence pipeline ----------------------------------------------------------


def test_pipeline_three_regular_certificate(pipeline_r3):
    res = pipeline_r3
    cert = res.certificate
    assert [s.name for s in res.stages] == [
        "level-grouping", "germ-map", "level-ungrouping", "digit-reversal"]
    assert cert.kind == "asymorphism"
    assert cert.is_asymorphism
    assert cert.closeness_bound == 4
    assert cert.forward_modulus.table == (
        (0, 0), (2, 128), (4, 128), (6, 128), (8, 128), (10, 128), (12, 128))
    assert cert.backward_modulus.table == (
        (0, 4), (1, 12), (2, 12), (4, 12), (8, 12), (16, 12), (32, 12),
        (64, 12), (128, 12))
    assert cert.forward_surjective and cert.backward_surjective
    assert len(res.composed.source.points) == 729
    assert len(res.composed.target.points) == 256
    assert res.full_germ
    assert res.forward_soundness.ok and res.backward_soundness.ok


def test_pipeline_meta_records_run_shape(pipeline_r3):
    meta = pipeline_r3.meta
    assert sorted(meta) == [
        "a1_policy", "b1_policy", "delta_policy", "full_germ",
        "germ_top_size", "net_convention", "source_base_points",
        "source_levels", "steps", "target_exponents", "target_word_points"]
    assert meta["source_levels"] == [1, 4, 7]
    assert meta["target_exponents"] == [0, 8]
    assert meta["source_base_points"] == 729
    assert meta["target_word_points"] == 256


def test_pipeline_synthesis_matches_direct_call(pipeline_r3):
    out = pipeline_r3.synthesis
    direct = synthesize_sequences(DegreeProfile.regular((3,) * 6))
    assert out.a == direct.a and out.b == direct.b
    assert out.n == direct.n and out.m == direct.m


def test_pipeline_base_distortion_per_pair(pipeline_r3):
    # every base pair satisfies d_tgt <= d_src <= d_tgt + 2 on the germ stage
    germ = next(s for s in pipeline_r3.stages if s.name == "germ-map")
    assert check_base_distortion(germ.map).ok


def test_pipeline_composite_reverifies(pipeline_r3):
    res = pipeline_r3
    fresh = verify_asymorphism(res.composed)
    assert fresh.kind == "asymorphism"
    assert fresh.forward_modulus.table == res.certificate.forward_modulus.table
    assert fresh.backward_modulus.table == \
        res.certificate.backward_modulus.table


def test_pipeline_stage_moduli_compose(pipeline_r3):
    from coarsetowers import check_modulus_composition
    res = pipeline_r3
    assert check_modulus_composition(
        res.certificate.forward_modulus,
        [s.certificate.forward_modulus for s in res.stages]).ok


def test_pipeline_selection_is_close(pipeline_r3):
    sel = pipeline_r3.selection
    assert sel.closeness == 4
    assert sel.source_fiber_bound == 4
    assert sel.target_fiber_bound == 0
    assert sel.closeness <= max(sel.source_fiber_bound,
                                sel.target_fiber_bound)


def test_pipeline_binary_source(pipeline_r2):
    res = pipeline_r2
    cert = res.certificate
    assert cert.kind == "asymorphism"
    assert cert.closeness_bound == 2
    assert len(res.composed.source.points) == 2048
    assert len(res.composed.target.points) == 1024
    assert res.synthesis.n == (1, 6)
    assert res.synthesis.m == (0, 10)
    assert res.synthesis.a == (1, Fraction(17408, 463))
    assert res.synthesis.b == (Fraction(81, 17), Fraction(82944, 689))
    assert res.forward_soundness.ok and res.backward_soundness.ok


def test_pipeline_builds_each_base_space_once(monkeypatch):
    built = []
    returned = []

    def counted_base_space(tower, *args, **kwargs):
        built.append(tower)
        return base_space(tower, *args, **kwargs)

    def recorded_builder(*args, **kwargs):
        returned.append(morphisms._admissible_morphism(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(homogenize, "base_space", counted_base_space)
    monkeypatch.setattr(morphisms, "base_space", counted_base_space)
    monkeypatch.setattr(
        homogenize, "_admissible_morphism", recorded_builder)
    res = equivalence_pipeline(regular_tower((3,) * 6))
    assert len(built) == len({id(t) for t in built}) == 4
    assert len(returned) == 1
    germ = next(s for s in res.stages if s.name == "germ-map")
    assert germ.map is returned[0][1]


def test_pipeline_builds_no_map_it_discards(monkeypatch):
    """Neither the germ's node dict nor a subtower's next_map is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a map the pipeline discards")

    monkeypatch.setattr(morphisms, "_node_dict", refuse)
    for module in (towers, homogenize):
        monkeypatch.setattr(module, "level_subtower", refuse, raising=False)
    res = equivalence_pipeline(regular_tower((3,) * 6))
    assert res.certificate.is_asymorphism


def test_cap_reaches_every_pipeline_construction(monkeypatch, tmp_path):
    from coarsetowers.cli import main
    from coarsetowers.limits import DEFAULT_CAPS

    seen: dict = {}

    def spy(name, fn):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            caps = sig.bind(*args, **kwargs).arguments.get("caps", DEFAULT_CAPS)
            seen.setdefault(name, []).append(caps.max_points)
            return fn(*args, **kwargs)
        return wrapped

    names = ("regular_tower", "_level_subtower", "base_space", "_subspace",
             "word_space", "_admissible_morphism")
    for name in names:
        monkeypatch.setattr(homogenize, name, spy(name, getattr(homogenize, name)))
    out = tmp_path / "equiv.json"
    # height 7 is the least at which the 3-regular germ fits
    assert main(["equiv", "--from", "regular:3", "--height", "7",
                 "--cap", "12345", "--out", str(out)]) == 0
    assert set(seen) == set(names)
    assert all(cap == 12345 for calls in seen.values() for cap in calls), seen


def test_pipeline_propagates_exhaustion():
    with pytest.raises(SynthesisExhausted) as exc:
        equivalence_pipeline(regular_tower((3,)))
    assert exc.value.needed_height == 7
    assert "height 2" in str(exc.value)
    assert "height 7" in str(exc.value)


# -- the germ search --------------------------------------------------------------------


def test_germ_search_stops_at_its_budget():
    # at height 6 the 3-regular search visits 38 levels before it finds no fit
    prof = DegreeProfile.regular((3,) * 5)
    witness = HomogeneityWitness.default_for(prof)
    with pytest.raises(SynthesisExhausted) as exc:
        homogenize._fit_germ(prof, witness, 2, budget=37)
    assert str(exc.value) == (
        "germ fitting exceeded the search budget of 37 candidate steps")
    assert exc.value.needed_height is None
    with pytest.raises(SynthesisExhausted) as exc:
        homogenize._fit_germ(prof, witness, 2, budget=38)
    assert exc.value.needed_height == 7


def test_height_advice_reads_an_exhausted_budget_as_no_fit():
    # height 3 needs 2 visits and height 7 fits in 3, while heights 4-6
    # run out of a budget of 3: the advice skips them and names height 7
    prof = DegreeProfile.regular((3, 3))
    with pytest.raises(SynthesisExhausted) as exc:
        homogenize._fit_germ(prof, HomogeneityWitness.default_for(prof), 2, budget=3)
    assert str(exc.value) == (
        "no sequence pair puts the germ's top level inside its window at "
        "height 3; height 7 with the same degree pattern admits a full fit")
    assert exc.value.needed_height == 7
    six = DegreeProfile.regular((3,) * 5)
    assert not homogenize._full_fit(six, HomogeneityWitness.default_for(six), 2, 3)


def test_equiv_leaves_no_search_cycle(tmp_path):
    """With gc off, an equiv run leaves nothing from homogenize that only
    a collection frees: the germ search keeps no self-referring closure."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        assert cli.main(["equiv", "--from", "regular:3", "--height", "9", "--to",
                         "binary", "--out", str(tmp_path / "equiv.json")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [f.__qualname__ for f in gc.garbage if inspect.isfunction(f)
                and f.__code__.co_filename == homogenize.__file__]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def _outcome(fn, *args):
    """fn's result as comparable data, or the exception it raised."""
    try:
        res = fn(*args)
    except Exception as err:
        event(f"{fn.__name__} raised")
        return type(err), str(err), getattr(err, "needed_height", None)
    if isinstance(res, tuple):
        return res[0].to_json(), res[1], res[2]
    return res.to_json()


@st.composite
def _search_profiles(draw):
    """Regular profiles, and the profiles of random towers of at most 10^4
    base points, with degrees 1-6 and heights 3-14."""
    H = draw(st.integers(3, 14))
    if draw(st.booleans()):
        degs = draw(st.one_of(st.integers(1, 6).map(lambda d: [d] * (H - 1)),
                              st.lists(st.integers(1, 6), min_size=H - 1,
                                       max_size=H - 1)))
        return DegreeProfile.regular(degs, H)
    deg_max = max(d for d in range(1, 7) if d ** (H - 1) <= 10 ** 4)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return degree_profile(random_tower(rng, H, H, deg_max))


@settings(max_examples=200, deadline=None)
@given(_search_profiles(), st.integers(2, 3),
       st.one_of(st.integers(1, 60), st.sampled_from([300, 3000, 200_000])))
def test_searches_match_the_recursive_oracles(prof, base, budget):
    witness = HomogeneityWitness.default_for(prof)
    assert (_outcome(homogenize._fit_germ, prof, witness, base, budget)
            == _outcome(oracles.fit_germ, prof, witness, base, budget))
    assert (homogenize._greedy_chain(prof, witness, base)
            == oracles.greedy_chain(prof, witness, base))
    assert (_outcome(synthesize_sequences, prof, base)
            == _outcome(oracles.synthesize_sequences, prof, base))


# -- space equivalence ------------------------------------------------------------------


def test_space_equivalence_ternary_words():
    res = space_equivalence(word_space(3, 6), (0, 1, 2, 4, 8, 16, 32))
    assert [s.name for s in res.stages] == [
        "points-to-balls", "level-grouping", "germ-map", "level-ungrouping",
        "digit-reversal"]
    assert res.certificate.kind == "asymorphism"
    assert res.certificate.closeness_bound == 4
    assert len(res.composed.source.points) == 729
    assert len(res.composed.target.points) == 256
    assert res.meta["entropy_ratio_product"] == 1
    assert res.meta["homogeneity_value"] == 1


def test_space_equivalence_exhaustion_advises_height():
    with pytest.raises(SynthesisExhausted) as exc:
        space_equivalence(word_space(3, 5), (0, 1, 2, 4, 8, 16))
    assert exc.value.needed_height == 7
    with pytest.raises(SynthesisExhausted) as exc2:
        space_equivalence(word_space(2, 6), (0, 1, 2, 4, 8, 16, 32))
    assert exc2.value.needed_height == 12


# -- classification -------------------------------------------------------------------


def test_classify_equivalent_regular_profiles():
    verdict = classify(DegreeProfile.regular((2,) * 3),
                       DegreeProfile.regular((3,) * 3))
    assert verdict["verdict"] == "equivalent (both sharp entropy ℵ₀ class)"
    assert verdict["homogeneity"] == [1, 1]
    assert "equivalence pipeline" in verdict["note"]


def test_classify_requires_homogeneous_profiles():
    with pytest.raises(ValueError) as exc:
        classify(MIXED_PROFILE, DegreeProfile.regular((2,) * 3))
    assert "homogeneous" in str(exc.value)


def test_classify_marks_infinite_out_of_scope():
    verdict = classify(DegreeProfile.regular((2,) * 3),
                       DegreeProfile.regular((3,) * 3), infinite2=True)
    assert verdict["verdict"] == "out of scope (uncountable cardinal case)"
    assert "finite truncations" in verdict["reason"]
