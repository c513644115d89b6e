"""Command-line front end.

Subcommands cover validation, entropy tables, ball towers, level
subtowers, tower embeddings, certified equivalence runs, classification,
and the measurement experiments.  Exit codes are a stable contract:
0 success, 1 verified-negative, 2 input error, 3 resource or truncation
exhaustion.  Identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .limits import CapExceeded, Caps
from .rationals import as_rational, canon, rat_json
from .spaces import (
    CLOSED,
    STRICT,
    Space,
    entropy_profile,
    hyperspace,
    product,
    validate_ultrametric,
    word_space,
)
from .towers import (
    DegreeProfile,
    Tower,
    ball_tower,
    degree_profile,
    level_subtower,
    regular_tower,
    validate_tower,
)
from .morphisms import tower_embedding
from .homogenize import (
    HomogeneityWitness,
    StageFailure,
    SynthesisExhausted,
    _fit_germ,
    asymptotic_homogeneity,
    classify,
    equivalence_pipeline,
    synthesize_sequences,
)
from .serialization import (
    content_hash,
    dump_csv,
    dump_json,
    pipeline_report,
    space_from_csv,
    space_from_json,
    _tower_fields,
    tower_from_json,
    tower_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3

# every knob a certificate depends on, embedded in reports verbatim
DECISIONS = {
    "net_convention": CLOSED,
    "rounding": "integer windows need ceil(a_i) <= floor(b_i); degree room "
                "checks a_i + 1 <= deg alongside the ceiling reading",
    "a1_policy": "a_1 = 1",
    "b1_policy": "smallest p/q >= max(3, full tail product) with q <= 64",
    "delta_policy": "delta_i = 1 + 2^(1-i)",
    "rationals": "integers bare, otherwise p/q",
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, inputs, caps, conventions."""

    command: str
    inputs: tuple
    cap: int
    net: str
    out: Optional[str]
    seed: int
    params: dict

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError("--cap must be positive")
        if self.net not in (STRICT, CLOSED):
            raise ValueError(f"--net must be strict or closed, not {self.net!r}")

    @property
    def caps(self) -> Caps:
        return Caps(max_points=self.cap)


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_rationals(text: str) -> tuple:
    return tuple(canon(as_rational(t)) for t in text.split(",") if t.strip())


def _load_document(path: str):
    """Returns ("space", Space-parts) or ("tower", raw dict); CSV means a
    distance matrix."""
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None
        if isinstance(data, dict) and "nodes" in data:
            return "tower", data
        return "space", data
    return "space-csv", text


def _load_space(path: str, caps: Caps) -> Space:
    kind, payload = _load_document(path)
    if kind == "tower":
        raise ValueError(f"{path} holds a tower, expected a space")
    if kind == "space-csv":
        return space_from_csv(payload, caps)
    return space_from_json(payload, caps)


def _load_tower(path: str, caps: Caps) -> Tower:
    kind, payload = _load_document(path)
    if kind != "tower":
        raise ValueError(f"{path} does not hold a tower (no 'nodes')")
    return tower_from_json(payload, caps)


MIN_AUTO_BASE = 512


def _auto_height(degree: int, target_base: int, caps: Caps) -> int:
    """Smallest height whose regular tower has >= MIN_AUTO_BASE base points
    and admits a full germ fit."""
    H = 3
    while degree ** (H - 1) <= caps.max_points:
        if degree ** (H - 1) >= MIN_AUTO_BASE:
            profile = DegreeProfile.regular([degree] * (H - 1), H)
            witness = HomogeneityWitness.default_for(profile)
            try:
                if _fit_germ(profile, witness, target_base, advice=False)[1]:
                    return H
            except SynthesisExhausted:
                pass
        H += 1
    raise SynthesisExhausted(
        f"no height within the {caps.max_points}-point cap gives a regular "
        f"{degree}-tower a full germ fit with base >= {MIN_AUTO_BASE}")


def _regular_degrees(spec: str) -> list[int]:
    """The degrees of a regular:<d>[,<d>...] spec, each at least 1."""
    degrees = [int(t) for t in spec.split(":", 1)[1].split(",")]
    if any(d < 1 for d in degrees):
        raise ValueError(f"bad degree in {spec!r}")
    return degrees


def _tower_from_spec(
    spec: str, caps: Caps, height: Optional[int], target_base: int
) -> tuple[Tower, str]:
    """regular:<d>[,<d>...] builds a regular tower (single-degree specs
    pick their height automatically when none is given); anything else is
    read as a tower file."""
    if spec.startswith("regular:"):
        degrees = _regular_degrees(spec)
        if len(degrees) == 1:
            d = degrees[0]
            if d < 2:
                raise ValueError("regular towers here need degree >= 2")
            H = height if height is not None else _auto_height(
                d, target_base, caps)
            return regular_tower([d] * (H - 1), H, caps=caps), f"regular:{d}:h{H}"
        H = height if height is not None else len(degrees) + 1
        return regular_tower(degrees, H, caps=caps), f"{spec}:h{H}"
    tower = _load_tower(spec, caps)
    return tower, spec


def _target_base(spec: str) -> int:
    if spec == "binary":
        return 2
    if spec.startswith("regular:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) == 1 and parts[0].isdigit() and int(parts[0]) >= 2:
            return int(parts[0])
    raise ValueError(
        f"--to must be 'binary' or 'regular:<k>' with one degree, "
        f"not {spec!r}")


# -- commands -----------------------------------------------------------------


def cmd_validate(config: RunConfig) -> int:
    path = config.inputs[0]
    kind, payload = _load_document(path)
    if kind == "tower":
        report = validate_tower(*_tower_fields(payload))
    else:
        space = (space_from_csv(payload, config.caps) if kind == "space-csv"
                 else space_from_json(payload, config.caps))
        report = validate_ultrametric(space, config.caps)
    _emit(config, dump_json(report.to_json()))
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_entropy(config: RunConfig) -> int:
    space = _load_space(config.inputs[0], config.caps)
    eps = config.params.get("eps") or space.values
    delta = config.params.get("delta") or space.values
    profile = entropy_profile(space, eps, delta, config.net, config.caps)
    rows = [(e, d, large, small) for e, d, large, small in profile.rows()]
    _emit(config, dump_csv(("eps", "delta", "large", "small"), rows))
    return EXIT_OK


def cmd_towerize(config: RunConfig) -> int:
    space = _load_space(config.inputs[0], config.caps)
    radii = config.params["radii"]
    tower = ball_tower(space, radii, caps=config.caps)
    _emit(config, dump_json(tower_to_json(tower)))
    return EXIT_OK


def cmd_subtower(config: RunConfig) -> int:
    tower = _load_tower(config.inputs[0], config.caps)
    levels = config.params["levels"]
    if any(not isinstance(v, int) for v in levels):
        raise ValueError("--levels must be whole numbers")
    sub, next_map = level_subtower(tower, levels, caps=config.caps)
    out = {
        "tower": tower_to_json(sub),
        "next_map": {b: next_map[b] for b in sorted(next_map)},
    }
    _emit(config, dump_json(out))
    return EXIT_OK


def cmd_embed(config: RunConfig) -> int:
    caps = config.caps
    t1 = _load_tower(config.inputs[0], caps)
    t2 = _load_tower(config.inputs[1], caps)
    try:
        assignment, cert = tower_embedding(
            t1, t2, require_iso=config.params.get("iso", False), caps=caps)
    except ValueError as err:
        _emit(config, dump_json({"embedding": None, "error": str(err)}))
        return EXIT_NEGATIVE
    out = {
        "assignment": [[a, assignment[a]] for a in sorted(assignment)],
        "certificate": cert.to_json(),
    }
    _emit(config, dump_json(out))
    return EXIT_OK


def cmd_equiv(config: RunConfig) -> int:
    caps = config.caps
    base = _target_base(config.params.get("to", "binary"))
    tower, label = _tower_from_spec(
        config.params["from"], caps, config.params.get("height"), base)
    result = equivalence_pipeline(tower, target_base=base, caps=caps)
    report = pipeline_report(
        result,
        source_label=label,
        source_hash=content_hash(tower_to_json(tower)),
        target_label=f"words:{base}:{result.synthesis.m[-1]}",
        decisions=DECISIONS,
        config={
            "cap": config.cap,
            "net": config.net,
            "seed": config.seed,
            "to": config.params.get("to", "binary"),
            "height": config.params.get("height"),
        },
    )
    _emit(config, dump_json(report))
    ok = result.certificate.kind == "asymorphism" and result.certificate.is_asymorphism
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_classify(config: RunConfig) -> int:
    caps = config.caps

    def profile_of(spec: str) -> DegreeProfile:
        if spec.startswith("regular:"):
            return DegreeProfile.regular(_regular_degrees(spec))
        return degree_profile(_load_tower(spec, caps))

    verdict = classify(
        profile_of(config.inputs[0]),
        profile_of(config.inputs[1]),
        infinite1=config.params.get("infinite_from", False),
        infinite2=config.params.get("infinite_to", False),
    )
    _emit(config, dump_json(verdict))
    return EXIT_OK


# -- experiments ---------------------------------------------------------------


def _entropy_csv(space: Space, config: RunConfig) -> str:
    profile = entropy_profile(
        space, space.values, space.values, config.net, config.caps)
    rows = [(e, d, large, small) for e, d, large, small in profile.rows()]
    return dump_csv(("eps", "delta", "large", "small"), rows)


def _experiment_hyperspace(config: RunConfig) -> str:
    n = int(config.params.get("n", 2))
    length = int(config.params.get("length", 4))
    alphabet = int(config.params.get("alphabet", 2))
    space = hyperspace(
        word_space(alphabet, length, caps=config.caps), n, caps=config.caps)
    return _entropy_csv(space, config)


def _experiment_sparse_product(config: RunConfig) -> str:
    length = int(config.params.get("length", 4))
    terms = int(config.params.get("terms", 4))
    positions = [k * k for k in range(1, terms + 1)]
    left = word_space(2, length, caps=config.caps)
    # binary words whose letter n sits at position positions[n]: the word
    # space's codes with the value of code n + 1 moved from 2^n to 2^positions[n]
    words = word_space(2, terms, caps=config.caps)
    right = Space(words.points, words.codes,
                  (0,) + tuple(2 ** s for s in positions), caps=config.caps)
    return _entropy_csv(product(left, right, caps=config.caps), config)


def _experiment_ratio_bounded(config: RunConfig) -> str:
    """Synthesis success frequency on random profiles whose per-level
    Deg/deg ratio stays under a bound; measurement only."""
    trials = int(config.params.get("trials", 50))
    height = int(config.params.get("height", 8))
    bound = Fraction(as_rational(config.params.get("ratio_bound", 2)))
    rng = random.Random(config.seed)
    rows = []
    for trial in range(trials):
        small, large = {}, {}
        degs, caps_ = [], []
        for _ in range(height - 1):
            lo = rng.randint(2, 6)
            hi_max = int(lo * bound)
            hi = rng.randint(lo, max(lo, hi_max))
            degs.append(lo)
            caps_.append(hi)
        for i in range(1, height + 1):
            ps, pl = 1, 1
            for j in range(i + 1, height + 1):
                ps *= degs[j - 2]
                pl *= caps_[j - 2]
                small[(i, j)] = ps
                large[(i, j)] = pl
        profile = DegreeProfile(height, small, large)
        value, _ = asymptotic_homogeneity(profile)
        try:
            out = synthesize_sequences(profile)
            rows.append((trial, height, rat_json(value), 1, len(out)))
        except SynthesisExhausted:
            rows.append((trial, height, rat_json(value), 0, 0))
    return dump_csv(("trial", "height", "homogeneity", "success", "steps"), rows)


EXPERIMENTS = {
    "hyperspace-entropy": _experiment_hyperspace,
    "ratio-bounded-synthesis": _experiment_ratio_bounded,
    "product-with-sparse-sequence": _experiment_sparse_product,
}


# the commands and experiments whose output is an entropy table, the only
# output the net convention changes
_NET_READERS = ("entropy", "hyperspace-entropy", "product-with-sparse-sequence")
# the one experiment whose output the seed changes
_SEED_READER = "ratio-bounded-synthesis"
# the flags each experiment reads; each runner holds their defaults, and
# any other experiment flag is refused
_EXPERIMENT_FLAGS = {
    "hyperspace-entropy": ("n", "length", "alphabet"),
    "ratio-bounded-synthesis": ("trials", "height", "ratio_bound"),
    "product-with-sparse-sequence": ("length", "terms"),
}


def cmd_experiment(config: RunConfig) -> int:
    name = config.inputs[0]
    runner = EXPERIMENTS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown experiment {name!r}; choices: "
            f"{', '.join(sorted(EXPERIMENTS))}")
    _emit(config, runner(config))
    return EXIT_OK


# -- dispatch -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the global flags ride on a parent parser so they are accepted both
    # before and after the subcommand; all defaults are SUPPRESS (filled
    # in later) because a subparser parses into a fresh namespace and
    # would clobber values parsed before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help="max points of every space, relation graph "
                             "and tower node set (default 20000)")
    common.add_argument("--net", choices=[STRICT, CLOSED],
                        default=argparse.SUPPRESS,
                        help="net convention for entropy computations "
                             "(default closed)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output here instead of stdout")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for the ratio-bounded-synthesis "
                             "experiment (default 0)")

    parser = argparse.ArgumentParser(
        prog="coarsetowers",
        description="Certified coarse geometry on finite ultrametric "
                    "truncations and towers.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a space or tower file")
    p.add_argument("input")

    p = sub.add_parser("entropy", parents=[common],
                       help="emit an entropy table as CSV")
    p.add_argument("input")
    p.add_argument("--eps", default=None, help="comma-separated radii")
    p.add_argument("--delta", default=None, help="comma-separated radii")

    p = sub.add_parser("towerize", parents=[common],
                       help="ball tower of a space")
    p.add_argument("input")
    p.add_argument("--radii", required=True, help="comma-separated radii")

    p = sub.add_parser("subtower", parents=[common],
                       help="restrict a tower to chosen levels")
    p.add_argument("input")
    p.add_argument("--levels", required=True, help="comma-separated levels")

    p = sub.add_parser("embed", parents=[common],
                       help="embed one tower into another")
    p.add_argument("tower1")
    p.add_argument("tower2")
    p.add_argument("--iso", action="store_true",
                   help="require a full isomorphism")

    p = sub.add_parser("equiv", parents=[common],
                       help="run the certified equivalence pipeline")
    p.add_argument("--from", dest="from_spec", required=True,
                   help="regular:<d> or a tower file")
    p.add_argument("--to", dest="to_spec", default="binary",
                   help="binary (default) or regular:<k>")
    p.add_argument("--height", type=int, default=None,
                   help="tower height; single-degree sources pick one "
                        "automatically")

    p = sub.add_parser("classify", parents=[common],
                       help="classification verdict for two towers")
    p.add_argument("profile1", help="regular:<d,...> or a tower file")
    p.add_argument("profile2")
    p.add_argument("--from-infinite", action="store_true",
                   help="mark the first input as an infinite-degree profile")
    p.add_argument("--to-infinite", action="store_true",
                   help="mark the second input as an infinite-degree profile")

    p = sub.add_parser("experiment", parents=[common],
                       help="measurement harnesses")
    p.add_argument("name", help=", ".join(sorted(EXPERIMENTS)))
    for flag in ("n", "length", "alphabet", "terms", "trials", "height"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--ratio-bound")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params: dict = {}
    inputs: tuple = ()
    cmd = args.command
    if cmd == "validate":
        inputs = (args.input,)
    elif cmd == "entropy":
        inputs = (args.input,)
        for flag in ("eps", "delta"):
            text = getattr(args, flag)
            params[flag] = None if text is None else _parse_rationals(text)
            if params[flag] == ():
                raise ValueError(f"--{flag} needs at least one radius")
    elif cmd == "towerize":
        inputs = (args.input,)
        params["radii"] = _parse_rationals(args.radii)
    elif cmd == "subtower":
        inputs = (args.input,)
        params["levels"] = _parse_rationals(args.levels)
    elif cmd == "embed":
        inputs = (args.tower1, args.tower2)
        params["iso"] = args.iso
    elif cmd == "equiv":
        params["from"] = args.from_spec
        params["to"] = args.to_spec
        params["height"] = args.height
    elif cmd == "classify":
        inputs = (args.profile1, args.profile2)
        params["infinite_from"] = args.from_infinite
        params["infinite_to"] = args.to_infinite
    elif cmd == "experiment":
        inputs = (args.name,)
        params = {k: getattr(args, k)
                  for k in ("n", "length", "alphabet", "terms", "trials",
                            "height", "ratio_bound")
                  if getattr(args, k) is not None}
        reads = _EXPERIMENT_FLAGS.get(args.name)
        foreign = [k for k in params if reads is not None and k not in reads]
        if foreign:
            flags = ", ".join("--" + k.replace("_", "-") for k in reads)
            raise ValueError(
                f"{args.name} does not read --{foreign[0].replace('_', '-')}; "
                f"it reads {flags}")
    net = getattr(args, "net", CLOSED)
    reader = args.name if cmd == "experiment" else cmd
    if net != CLOSED and reader not in _NET_READERS:
        raise ValueError(
            f"{reader} does not read --net; only entropy tables do "
            f"({', '.join(_NET_READERS)})")
    if hasattr(args, "seed") and reader != _SEED_READER:
        raise ValueError(
            f"{reader} does not read --seed; only {_SEED_READER} does")
    return RunConfig(
        command=cmd,
        inputs=inputs,
        cap=getattr(args, "cap", 20000),
        net=net,
        out=getattr(args, "out", None),
        seed=getattr(args, "seed", 0),
        params=params,
    )


COMMANDS = {
    "validate": cmd_validate,
    "entropy": cmd_entropy,
    "towerize": cmd_towerize,
    "subtower": cmd_subtower,
    "embed": cmd_embed,
    "equiv": cmd_equiv,
    "classify": cmd_classify,
    "experiment": cmd_experiment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error contract
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        return COMMANDS[config.command](config)
    except (SynthesisExhausted, CapExceeded) as err:
        sys.stderr.write(f"exhausted: {err}\n")
        return EXIT_EXHAUSTED
    except StageFailure as err:
        sys.stderr.write(f"failed: {err}\n")
        return EXIT_NEGATIVE
    except RuntimeError as err:
        # a proved bound failed to hold on concrete data
        sys.stderr.write(f"invariant breach: {err}\n")
        return EXIT_NEGATIVE
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
