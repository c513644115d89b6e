"""Homogeneity measurement, window-sequence synthesis, and the composed
equivalence pipelines built from them.

The synthesizer turns a degree profile into admissible window sequences
(a, b) together with level selections n and exponents m for a regular
target, maintaining exact rational inequalities at every step.  The
pipeline then materializes the whole chain of maps down on base spaces
and certifies it end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .limits import Caps, DEFAULT_CAPS
from .rationals import Rational, canon, rat_json, rat_str
from .report import ValidationReport, Violation
from .spaces import CLOSED, Space, _subspace, entropy_profile, subspace, word_space
from .towers import (
    DegreeProfile,
    Tower,
    _level_subtower,
    _under,
    ball_tower,
    ball_tower_base_map,
    base_space,
    degree_profile,
    regular_tower,
)
from .morphisms import (
    AdmissibleSequences,
    MorphismCertificate,
    MultiMap,
    SelectionPair,
    _admissible_morphism,
    check_l2_preconditions,
    check_modulus_composition,
    compose,
    selection_pair,
    verify_asymorphism,
    with_closeness,
)

__all__ = [
    "HomogeneityWitness",
    "SynthesisOutput",
    "SynthesisExhausted",
    "StageFailure",
    "PipelineStage",
    "PipelineResult",
    "asymptotic_homogeneity",
    "synthesize_sequences",
    "equivalence_pipeline",
    "space_equivalence",
    "classify",
]


class SynthesisExhausted(RuntimeError):
    """No admissible sequence pair exists within the given profile height.

    needed_height, when not None, is a height at which the same degree
    pattern (last consecutive degree repeated) does admit the construction.
    """

    def __init__(self, message: str, needed_height: Optional[int] = None):
        super().__init__(message)
        self.needed_height = needed_height


class StageFailure(RuntimeError):
    """A pipeline stage failed its certificate check; nothing is composed
    past a degraded stage."""


# -- homogeneity -------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityWitness:
    """Per-level comparison data for a profile of height len(c) + 1.

    c[i-1] bounds the level-i degree spread: Deg_i <= c_i * deg_i, c_i >= 1.
    delta[i-1] is a margin factor > 1 used by the synthesizer; the defaults
    shrink geometrically so the full tail product stays bounded no matter
    the height.  Truncations with no spread at level i use c_i = 1.
    """

    c: tuple
    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(canon(v) for v in self.c))
        object.__setattr__(self, "delta", tuple(canon(v) for v in self.delta))
        if len(self.c) != len(self.delta):
            raise ValueError("c and delta must have equal length")

    @property
    def height(self) -> int:
        return len(self.c) + 1

    def tail_c(self, i: int, j: int) -> Fraction:
        """Product of c_k for i <= k < j (1 on the empty range)."""
        return self._tail(self.c, i, j)

    def tail_delta(self, i: int, j: int) -> Fraction:
        """Product of delta_k for i <= k < j (1 on the empty range)."""
        return self._tail(self.delta, i, j)

    def _tail(self, factors: tuple, i: int, j: int) -> Fraction:
        if not (1 <= i <= j <= self.height):
            raise ValueError(f"tail range ({i},{j}) outside 1..{self.height}")
        return math.prod(map(Fraction, factors[i - 1:j - 1]), start=Fraction(1))

    @classmethod
    def default_for(cls, profile: DegreeProfile) -> "HomogeneityWitness":
        """Tight c from the profile's own spreads, delta_i = 1 + 2^(1-i)."""
        c = profile.ratios()
        delta = tuple(
            1 + Fraction(1, 2 ** (i - 1)) for i in range(1, profile.height)
        )
        return cls(c, delta)

    def check_against(self, profile: DegreeProfile) -> ValidationReport:
        violations = []
        if self.height != profile.height:
            violations.append(Violation(
                "height", (self.height, profile.height),
                f"witness height {self.height} != profile height "
                f"{profile.height}"))
            return ValidationReport(
                "homogeneity witness", ("height",), tuple(violations))
        for i in range(1, profile.height):
            ci = Fraction(self.c[i - 1])
            if ci < 1:
                violations.append(Violation(
                    "spread-bound-at-least-one", i, f"c_{i} = {rat_str(ci)} < 1"))
            if profile.consecutive_large(i) > ci * profile.consecutive_small(i):
                violations.append(Violation(
                    "spread-bound", i,
                    f"Deg_{i} = {profile.consecutive_large(i)} > "
                    f"{rat_str(ci)} * {profile.consecutive_small(i)}"))
            if Fraction(self.delta[i - 1]) <= 1:
                violations.append(Violation(
                    "margin-above-one", i,
                    f"delta_{i} = {rat_str(self.delta[i - 1])} <= 1"))
        return ValidationReport(
            "homogeneity witness",
            ("height", "spread-bound-at-least-one", "spread-bound",
             "margin-above-one"),
            tuple(violations),
        )


def asymptotic_homogeneity(profile: DegreeProfile) -> tuple[Fraction, Fraction]:
    """Largest window product of per-level degree spreads, exact.

    Returns (value, bound): value is the max over windows [i, j) of
    prod_k Deg_k/deg_k, bound the full-range product.  Every factor is
    >= 1, so the largest window is the full range and the two coincide;
    both are returned so callers can assert that identity on their own
    data.  Homogeneous profiles give (1, 1).
    """
    full = Fraction(1)
    for r in profile.ratios():
        full *= r
    return canon(full), canon(full)


# -- sequence synthesis ------------------------------------------------------


@dataclass(frozen=True)
class SynthesisOutput:
    """Window sequences a, b with level selections n and exponents m.

    All four tuples share one length P >= 2.  a/b are exact rationals,
    n strictly increasing levels starting at 1, m strictly increasing
    exponents starting at 0.  Instances are only built after the full
    inequality battery has been re-checked, never assumed.
    """

    a: tuple
    b: tuple
    n: tuple
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(canon(v) for v in self.a))
        object.__setattr__(self, "b", tuple(canon(v) for v in self.b))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        if not (len(self.a) == len(self.b) == len(self.n) == len(self.m)):
            raise ValueError("a, b, n, m must share one length")

    def __len__(self) -> int:
        return len(self.a)

    @property
    def sequences(self) -> AdmissibleSequences:
        return AdmissibleSequences(self.a, self.b)

    def to_json(self) -> dict:
        return {
            "a": [rat_json(v) for v in self.a],
            "b": [rat_json(v) for v in self.b],
            "n": list(self.n),
            "m": list(self.m),
        }


_MAX_DEN = 64


def _smallest_bounded_rational(x: Rational) -> Fraction:
    """Smallest p/q >= x with 1 <= q <= _MAX_DEN."""
    x = Fraction(x)
    return min(Fraction(math.ceil(x * q), q) for q in range(1, _MAX_DEN + 1))


@dataclass(frozen=True)
class _Step:
    n: int
    m: int
    a: Fraction
    b: Fraction


def _initial_step(profile: DegreeProfile, witness: HomogeneityWitness) -> _Step:
    H = profile.height
    target = max(
        Fraction(3), witness.tail_c(1, H) * witness.tail_delta(1, H))
    return _Step(1, 0, Fraction(1), _smallest_bounded_rational(target))


def _step_gate(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    cur: _Step,
    nxt: int,
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Exponent-independent feasibility of extending cur to level nxt.

    Returns (d, denom, tail) when the gap passes the contraction
    margin and the window-ratio invariant, else None.
    """
    H = profile.height
    d = Fraction(profile.small_between(cur.n, nxt))
    if cur.a + 1 > d:
        return None
    if d <= cur.b:
        return None
    # margin: delta_{n_i} (d - b_i) >= d + 2 b_i keeps the shrunken window
    # usable after the two-sided slack of the level map is paid
    if Fraction(witness.delta[cur.n - 1]) * (d - cur.b) < d + 2 * cur.b:
        return None
    denom = witness.tail_c(cur.n, nxt) * d + 2 * cur.b - cur.a
    tail = witness.tail_c(nxt, H) * witness.tail_delta(nxt, H)
    if tail <= 1:
        return None
    # the next window ratio b'/a' is exponent-independent; it must still
    # dominate the remaining tail product
    if (cur.b * (d - cur.b)) / (cur.a * denom) < tail:
        return None
    return d, denom, tail


def verify_synthesis(
    profile: DegreeProfile,
    out: SynthesisOutput,
    target_base: int = 2,
    witness: Optional[HomogeneityWitness] = None,
) -> ValidationReport:
    """Re-check every inequality the synthesizer claims, from scratch.

    Checks window shape and spacing, per-step degree room, the exact
    lower-window identity, the tail-domination invariant, and finally the
    full level-map preconditions against the grouped profiles.
    """
    if witness is None:
        witness = HomogeneityWitness.default_for(profile)
    H = profile.height
    P = len(out)
    violations = []
    checked = [
        "shape", "window-spacing", "degree-room", "lower-window-exact",
        "tail-domination", "level-map-preconditions",
    ]
    if P < 2:
        violations.append(Violation("shape", P, f"need length >= 2, got {P}"))
        return ValidationReport("synthesis", tuple(checked), tuple(violations))
    if out.n[0] != 1 or out.m[0] != 0:
        violations.append(Violation(
            "shape", (out.n[0], out.m[0]), "sequences must start at n=1, m=0"))
    if list(out.n) != sorted(set(out.n)) or out.n[-1] > H - 1:
        violations.append(Violation(
            "shape", out.n, f"levels must increase strictly within 1..{H - 1}"))
    if list(out.m) != sorted(set(out.m)):
        violations.append(Violation(
            "shape", out.m, "exponents must increase strictly"))
    if violations:
        return ValidationReport("synthesis", tuple(checked), tuple(violations))
    for i in range(P):
        ai, bi = Fraction(out.a[i]), Fraction(out.b[i])
        if ai < 1 or ai + 2 > bi:
            violations.append(Violation(
                "window-spacing", i + 1,
                f"need 1 <= a_{i + 1} and a_{i + 1} + 2 <= b_{i + 1}, got "
                f"a = {rat_str(ai)}, b = {rat_str(bi)}"))
        tail = witness.tail_c(out.n[i], H) * witness.tail_delta(out.n[i], H)
        if bi < ai * tail:
            violations.append(Violation(
                "tail-domination", i + 1,
                f"b_{i + 1} = {rat_str(bi)} < a_{i + 1} * tail = "
                f"{rat_str(ai * tail)}"))
    for i in range(P - 1):
        ai, bi = Fraction(out.a[i]), Fraction(out.b[i])
        d = profile.small_between(out.n[i], out.n[i + 1])
        if ai + 1 > d:
            violations.append(Violation(
                "degree-room", i + 1,
                f"a_{i + 1} + 1 = {rat_str(ai + 1)} > d = {d}"))
        scale = target_base ** (out.m[i + 1] - out.m[i])
        lower = bi + ai * Fraction(scale) / Fraction(out.a[i + 1])
        if lower > d:
            violations.append(Violation(
                "lower-window-exact", i + 1,
                f"b_{i + 1} + a_{i + 1} {target_base}^dm / a_{i + 2} = "
                f"{rat_str(lower)} > d = {d}"))
    if not violations:
        grouped = profile.grouped(out.n)
        steps = [target_base ** (out.m[i + 1] - out.m[i]) for i in range(P - 1)]
        target = DegreeProfile.regular(steps, P)
        l2 = check_l2_preconditions(grouped, target, out.sequences)
        for v in l2.violations:
            violations.append(Violation(
                "level-map-preconditions", v.witness, v.message))
    return ValidationReport("synthesis", tuple(checked), tuple(violations))


def _verified_output(
    profile: DegreeProfile,
    chain: list,
    target_base: int,
    witness: HomogeneityWitness,
) -> SynthesisOutput:
    """The sequences of a step chain, after verify_synthesis passes them."""
    out = SynthesisOutput(
        tuple(s.a for s in chain),
        tuple(s.b for s in chain),
        tuple(s.n for s in chain),
        tuple(s.m for s in chain),
    )
    verify_synthesis(profile, out, target_base, witness).require()
    return out


_ADVICE_LEVELS = 48


def _height_advice(profile: DegreeProfile, accept: Callable[..., bool],
                   *args) -> Optional[int]:
    """Smallest extended height, at most _ADVICE_LEVELS above the profile's,
    at which accept(ext, witness, *args) holds, continuing the profile with
    its last consecutive degree; None when the profile is not a plain
    product profile (extension would be guesswork)."""
    H = profile.height
    if H < 2 or not profile.is_homogeneous:
        return None
    consec = [profile.consecutive_small(i) for i in range(1, H)]
    prod = 1
    for g in consec:
        prod *= g
    if prod != profile.small_between(1, H) or consec[-1] < 2:
        return None
    for H2 in range(H + 1, H + _ADVICE_LEVELS + 1):
        ext = DegreeProfile.regular(consec + [consec[-1]] * (H2 - H), H2)
        if accept(ext, HomogeneityWitness.default_for(ext), *args):
            return H2
    return None


class _StepGraph:
    """The window steps from a profile toward a regular target base, as
    both searches walk them; each level examined is a visit, and one visit
    past the budget raises SynthesisExhausted."""

    def __init__(self, profile: DegreeProfile, witness: HomogeneityWitness,
                 base: int, budget: float = math.inf):
        self.profile, self.witness, self.base = profile, witness, base
        self.budget, self.visits = budget, 0

    def gates(self, cur: _Step):
        """(nxt, gate) for each level above cur whose gate passes, ascending."""
        for nxt in range(cur.n + 1, self.profile.height):
            self.visits += 1
            if self.visits > self.budget:
                raise SynthesisExhausted(
                    f"germ fitting exceeded the search budget of "
                    f"{self.budget} candidate steps")
            gate = _step_gate(self.profile, self.witness, cur, nxt)
            if gate is not None:
                yield nxt, gate

    def minimal(self, cur: _Step, nxt: int, gate: tuple) -> Optional[_Step]:
        """The step from cur to nxt at the smallest jump dm <= 64 with
        base^dm (tail - 1) a/(d - b) > 2 and a' >= 1, or None."""
        d, denom, tail = gate
        for dm in range(1, 65):
            scale = self.base ** dm
            if (scale * (tail - 1) * cur.a > 2 * (d - cur.b)
                    and scale * cur.a >= d - cur.b):
                return _Step(nxt, cur.m + dm, scale * cur.a / (d - cur.b),
                             scale * cur.b / denom)
        return None

    def fitted(self, cur: _Step, nxt: int, gate: tuple, count: int) -> Optional[_Step]:
        """The minimal step from cur to nxt, its exponent raised until the
        window holds count (a' <= count <= b'); or None."""
        step = self.minimal(cur, nxt, gate)
        while step is not None and step.a <= count:
            if step.b >= count:
                return step
            step = _Step(nxt, step.m + 1, self.base * step.a, self.base * step.b)
        return None

    def last_steps(self, first: _Step, steps: int):
        """(chain, nxt, gate) for each candidate last step of the chains of
        steps steps after first, depth first over an explicit stack: levels
        ascending, intermediate steps at their minimal exponents.  chain is
        the walk's own list, ending at the step nxt extends."""
        chain, stack = [first], [self.gates(first)]
        while stack:
            for nxt, gate in stack[-1]:
                if len(stack) == steps:
                    yield chain, nxt, gate
                    continue
                step = self.minimal(chain[-1], nxt, gate)
                if step is not None:
                    chain.append(step)
                    stack.append(self.gates(step))
                    break
            else:
                chain.pop()
                stack.pop()


def _greedy_chain(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
) -> list:
    """The step graph's leftmost path: at each step the lowest feasible
    next level, at its minimal exponent."""
    graph = _StepGraph(profile, witness, target_base)
    chain = [_initial_step(profile, witness)]
    while True:
        steps = (graph.minimal(chain[-1], nxt, gate)
                 for nxt, gate in graph.gates(chain[-1]))
        step = next((s for s in steps if s is not None), None)
        if step is None:
            return chain
        chain.append(step)


def synthesize_sequences(
    profile: DegreeProfile,
    target_base: int = 2,
    witness: Optional[HomogeneityWitness] = None,
) -> SynthesisOutput:
    """Greedy window-sequence synthesis against a regular target base.

    Follows the step graph's leftmost path: at each step the lowest
    feasible level, at its minimal exponent, in exact rationals.  Raises
    SynthesisExhausted when fewer than two steps fit, with a height
    estimate when the profile's growth makes one computable.  The
    returned output has passed verify_synthesis.
    """
    if target_base < 2:
        raise ValueError("target base must be at least 2")
    if witness is None:
        witness = HomogeneityWitness.default_for(profile)
    witness.check_against(profile).require()
    chain = _greedy_chain(profile, witness, target_base)
    if len(chain) < 2:
        advice = _height_advice(
            profile, lambda ext, w, base: len(_greedy_chain(ext, w, base)) >= 2,
            target_base)
        hint = (
            f"; height {advice} with the same degree pattern admits one"
            if advice is not None else
            "; no height estimate available for this profile shape")
        raise SynthesisExhausted(
            f"no admissible sequence pair fits within height "
            f"{profile.height}{hint}", advice)
    return _verified_output(profile, chain, target_base, witness)


# -- germ fitting for the pipeline -------------------------------------------


def _search_germ(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
    budget: int,
) -> Optional[tuple[SynthesisOutput, bool, int]]:
    """_fit_germ's search, with None when nothing fits; one visit counter
    spans all its walks."""
    H = profile.height
    graph = _StepGraph(profile, witness, target_base, budget)
    first = _initial_step(profile, witness)
    for partial in (False, True):
        for steps in range(1, H - 1):
            for chain, nxt, gate in graph.last_steps(first, steps):
                count = size = profile.small_between(nxt, H)
                step = graph.fitted(chain[-1], nxt, gate, count)
                if step is None and partial:
                    step = graph.minimal(chain[-1], nxt, gate)
                    size = min(count, math.floor(step.b)) if step is not None else 0
                if step is not None and size >= step.a:
                    out = _verified_output(profile, chain + [step], target_base, witness)
                    return out, size == count, size
    return None


def _full_fit(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
    budget: int = 200_000,
) -> bool:
    """Whether the germ search finds a full fit; an exhausted budget
    counts as no fit."""
    try:
        hit = _search_germ(profile, witness, target_base, budget)
    except SynthesisExhausted:
        return False
    return hit is not None and hit[1]


def _fit_germ(
    profile: DegreeProfile,
    witness: HomogeneityWitness,
    target_base: int,
    budget: int = 200_000,
) -> tuple[SynthesisOutput, bool, int]:
    """Find sequences whose top window fits the germ's own level count.

    The count of level-n nodes under the single top is exactly
    small_between(n, H).  Walks the step graph shortest chains first,
    levels in ascending order, intermediate exponents minimal and the last
    exponent raised just enough to put the count inside the final window.
    Falls back to a partial germ (largest prefix of the level set that the
    top window can hold) only when no full fit exists.

    Returns (output, full, top_size).
    """
    hit = _search_germ(profile, witness, target_base, budget)
    if hit is not None:
        return hit
    needed = _height_advice(profile, _full_fit, target_base, budget)
    hint = (
        f"; height {needed} with the same degree pattern admits a full fit"
        if needed is not None else
        "; no height estimate available for this profile shape")
    raise SynthesisExhausted(
        f"no sequence pair puts the germ's top level inside its window at "
        f"height {profile.height}{hint}", needed)


# -- pipeline assembly -------------------------------------------------------


@dataclass(frozen=True)
class PipelineStage:
    """One certified leg of a composed equivalence."""

    name: str
    map: MultiMap
    certificate: MorphismCertificate

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "source_points": len(self.map.source.points),
            "target_points": len(self.map.target.points),
            "pairs": len(self.map.src_idx),
            "certificate": self.certificate.to_json(),
        }


@dataclass(frozen=True)
class PipelineResult:
    """A composed equivalence with its full audit trail.

    Every stage certificate is an asymorphism certificate; the composed
    map carries its own independently computed certificate plus soundness
    reports showing the composed moduli never exceed the folded stage
    moduli in either direction.
    """

    stages: tuple
    composed: MultiMap
    certificate: MorphismCertificate
    synthesis: SynthesisOutput
    selection: SelectionPair
    full_germ: bool
    forward_soundness: ValidationReport
    backward_soundness: ValidationReport
    meta: dict

    def to_json(self) -> dict:
        return {
            "stages": [s.to_json() for s in self.stages],
            "composed": {
                "source_points": len(self.composed.source.points),
                "target_points": len(self.composed.target.points),
                "pairs": len(self.composed.src_idx),
                "certificate": self.certificate.to_json(),
            },
            "synthesis": self.synthesis.to_json(),
            "selection": self.selection.to_json(),
            "full_germ": self.full_germ,
            "modulus_soundness": {
                "forward": self.forward_soundness.to_json(),
                "backward": self.backward_soundness.to_json(),
            },
            "meta": dict(self.meta),
        }


def _assemble(
    stage_specs: Sequence[tuple],
    synthesis: SynthesisOutput,
    full_germ: bool,
    meta: dict,
    caps: Caps = DEFAULT_CAPS,
) -> PipelineResult:
    """Certify each stage, compose, re-certify the composite, and check
    modulus soundness both ways.  A stage that fails to certify as an
    asymorphism aborts the whole assembly."""
    stages = []
    for name, mm, cert in stage_specs:
        if cert is None:
            cert = verify_asymorphism(mm, caps=caps)
        if not cert.is_asymorphism:
            raise StageFailure(
                f"stage {name!r} certified as {cert.kind!r}, not an "
                f"asymorphism; composition aborted")
        stages.append(PipelineStage(name, mm, cert))
    composed = stages[0].map
    for st in stages[1:]:
        composed = compose(composed, st.map)
    cert = verify_asymorphism(composed, caps=caps)
    if not cert.is_asymorphism:
        raise StageFailure(
            f"composite certified as {cert.kind!r}, not an asymorphism")
    fwd = check_modulus_composition(
        cert.forward_modulus, [s.certificate.forward_modulus for s in stages])
    bwd = check_modulus_composition(
        cert.backward_modulus,
        [s.certificate.backward_modulus for s in reversed(stages)])
    fwd.require()
    bwd.require()
    sel = selection_pair(composed, cert, caps=caps)
    cert = with_closeness(cert, sel.closeness)
    return PipelineResult(
        tuple(stages), composed, cert, synthesis, sel, full_germ,
        fwd, bwd, dict(meta))


def _word_stage(
    binary_base: Space, length: int, target_base: int,
    caps: Caps = DEFAULT_CAPS,
) -> MultiMap:
    """Digit-reversal bijection from a regular tower's base to the word
    space of the same size: the depth-k digit becomes the letter at
    position length-k, so deeper splits land on cheaper positions.

    Index arithmetic: the base lists its leaves in id order, each node's
    children in string order of their digit ("10" < "2"), so leaf i has
    at depth k the digit whose string ranks (i // a^(length-k)) mod a,
    and the word point with the depth-k digit at position length-k is
    the sum of digit_k * a^(k-1)."""
    a = target_base
    tgt = word_space(a, length, caps=caps)
    digit = np.asarray(sorted(range(a), key=str), dtype=np.int64)
    leaf = np.arange(len(binary_base.points))
    word = np.zeros_like(leaf)
    for k in range(1, length + 1):
        word += digit[leaf // a ** (length - k) % a] * a ** (k - 1)
    return MultiMap._of_indices(binary_base, tgt, leaf, word)


def _pipeline_stage_specs(
    tower: Tower,
    witness: Optional[HomogeneityWitness],
    target_base: int,
    caps: Caps,
) -> tuple[list, SynthesisOutput, bool, dict]:
    """equivalence_pipeline's four stages as (name, map, certificate or
    None), with the synthesis, its fullness and the report meta; every
    stage map is built on index arrays."""
    profile = degree_profile(tower)
    if witness is None:
        witness = HomogeneityWitness.default_for(profile)
    witness.check_against(profile).require()
    H = profile.height
    synth, full, top_size = _fit_germ(profile, witness, target_base)

    sub1 = _level_subtower(tower, synth.n + (H,), caps=caps)

    binary = regular_tower([target_base] * synth.m[-1], synth.m[-1] + 1,
                           caps=caps)
    sub2 = _level_subtower(binary, tuple(mi + 1 for mi in synth.m), caps=caps)

    # the builder's certified base map is the germ-map stage itself: the
    # roots are the first top_size nodes (in id order) of the level below
    # sub1's top, and they map to sub2's top, on the same level
    _, s1, germ_cert = _admissible_morphism(
        sub1, len(synth.n), np.arange(top_size), sub2, 0, synth.sequences, caps=caps)

    # n_1 = 1 and m_1 = 0, so sub1 keeps the tower's base and sub2 the
    # binary base: each regrouping is the identity on one point tuple
    dom = np.flatnonzero(_under(tower, synth.n[-1], range(top_size))[-1])
    grouped = _subspace(base_space(tower, caps=caps), dom, caps)
    binary_base = base_space(binary, caps=caps)
    s0, s2 = MultiMap._paired(grouped, s1.source), MultiMap._paired(s1.target, binary_base)

    s3 = _word_stage(binary_base, synth.m[-1], target_base, caps=caps)

    specs = [
        ("level-grouping", s0, None),
        ("germ-map", s1, germ_cert),
        ("level-ungrouping", s2, None),
        ("digit-reversal", s3, None),
    ]
    meta = {
        "source_levels": list(synth.n) + [H],
        "target_exponents": list(synth.m),
        "source_base_points": len(s0.source.points),
        "target_word_points": len(s3.target.points),
        "germ_top_size": top_size,
        "full_germ": full,
        "steps": len(synth),
        "a1_policy": "a_1 = 1",
        "b1_policy": "smallest p/q >= max(3, full tail product), q <= 64",
        "delta_policy": "delta_i = 1 + 2^(1-i)",
        "net_convention": CLOSED,
    }
    return specs, synth, full, meta


def equivalence_pipeline(
    tower: Tower,
    witness: Optional[HomogeneityWitness] = None,
    target_base: int = 2,
    caps: Caps = DEFAULT_CAPS,
) -> PipelineResult:
    """Certified composite from a tower's base to a word space over the
    target alphabet.

    Four stages: regroup the base to the selected levels, apply the
    synthesized admissible germ map, ungroup into the regular target
    tower, and rewrite leaves as words by digit reversal.  Each stage is
    certified on its own; the composite is certified independently and
    its moduli are checked against the folded stage moduli.
    """
    specs, synth, full, meta = _pipeline_stage_specs(
        tower, witness, target_base, caps)
    return _assemble(specs, synth, full, meta, caps=caps)


def space_equivalence(
    space: Space,
    radii: Sequence[Rational],
    witness: Optional[HomogeneityWitness] = None,
    target_base: int = 2,
    caps: Caps = DEFAULT_CAPS,
) -> PipelineResult:
    """Run the pipeline on a space via its ball tower.

    Prepends the points-to-balls map as stage zero, and first asserts the
    exact identity between the entropy ratio product over consecutive
    radii and the ball tower's asymptotic homogeneity; a mismatch means
    the ball tower does not faithfully present the space's entropy and is
    reported as an invariant breach, not papered over.
    """
    if not space.is_ultrametric:
        raise ValueError("space equivalence needs an ultrametric source")
    radii = [canon(r) for r in radii]
    bt = ball_tower(space, radii, caps=caps)
    profile = degree_profile(bt)
    value, bound = asymptotic_homogeneity(profile)

    prof = entropy_profile(space, radii[:-1], radii[1:], CLOSED, caps)
    ratio = Fraction(1)
    for lo, hi in zip(radii, radii[1:]):
        large, small = prof.entries[(canon(lo), canon(hi))]
        ratio *= Fraction(large, small)
    if canon(ratio) != value:
        raise RuntimeError(
            f"entropy ratio product {rat_str(ratio)} != ball tower "
            f"homogeneity {rat_str(value)}; ball tower construction is "
            f"inconsistent with the space")

    specs, synth, full, meta = _pipeline_stage_specs(
        bt, witness, target_base, caps)
    first_tgt = specs[0][1].source
    to_balls = {p: b for p, b in ball_tower_base_map(space, bt).items() if b in first_tgt}
    pre = MultiMap.from_function(subspace(space, to_balls, caps=caps), first_tgt, to_balls)
    meta = dict(meta)
    meta["entropy_ratio_product"] = rat_json(canon(ratio))
    meta["homogeneity_value"] = rat_json(value)
    meta["homogeneity_bound"] = rat_json(bound)
    meta["radii"] = [rat_json(r) for r in radii]
    meta["space_points"] = len(space.points)
    return _assemble(
        [("points-to-balls", pre, None)] + specs, synth, full, meta,
        caps=caps)


def classify(
    profile1: DegreeProfile,
    profile2: DegreeProfile,
    infinite1: bool = False,
    infinite2: bool = False,
) -> dict:
    """Classification verdict for two finitely presented profiles.

    Homogeneous all-finite profiles land in one class; an infinite marker
    on either side leaves the finite machinery and is reported as out of
    scope rather than decided.  Non-homogeneous input is an error because
    the verdict below is only proved for the homogeneous case.
    """
    if infinite1 or infinite2:
        return {
            "verdict": "out of scope (uncountable cardinal case)",
            "reason": "an infinite-degree marker was supplied; finite "
                      "truncations cannot witness that class",
        }
    problems = []
    if not profile1.is_homogeneous:
        problems.append("first")
    if not profile2.is_homogeneous:
        problems.append("second")
    if problems:
        raise ValueError(
            f"classification requires homogeneous profiles; "
            f"{' and '.join(problems)} profile has a level with "
            f"small != large")
    profile1.validate().require()
    profile2.validate().require()
    v1, _ = asymptotic_homogeneity(profile1)
    v2, _ = asymptotic_homogeneity(profile2)
    return {
        "verdict": "equivalent (both sharp entropy ℵ₀ class)",
        "homogeneity": [rat_json(v1), rat_json(v2)],
        "note": "run the equivalence pipeline on each side and compose "
                "one certificate with the other's selection inverse",
    }
