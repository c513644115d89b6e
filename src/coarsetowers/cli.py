"""Command-line front end: argparse and the commands it dispatches to.

Subcommands cover validation, entropy tables, ball towers, level
subtowers, tower embeddings, certified equivalence runs, classification,
and the measurement experiments.  Each subparser is bound to its command,
which takes the parsed namespace; one flag check runs first, refusing a
flag the command does not read and filling the global defaults.  Exit
codes are a stable contract: 0 success, 1 verified-negative, 2 input
error, 3 resource or truncation exhaustion.  Identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .limits import CapExceeded, Caps
from .rationals import as_rational, canon, rat_json
from .spaces import (
    CLOSED,
    STRICT,
    Space,
    _ball_table,
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
    _full_fit,
    asymptotic_homogeneity,
    classify,
    equivalence_pipeline,
    synthesize_sequences,
)
from .serialization import (
    _check_height,
    dump_csv,
    _json_pieces,
    pipeline_report,
    space_from_csv,
    space_from_json,
    _tower_fields,
    tower_from_json,
    tower_hash,
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


def _emit(args: argparse.Namespace, pieces: list[str]) -> None:
    """Write the pieces of a document, in order, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _parse_rationals(text: str) -> tuple:
    return tuple(canon(as_rational(t)) for t in text.split(",") if t.strip())


def _load_document(path: str):
    """Returns ("space", Space-parts) or ("tower", raw dict); CSV means a
    distance matrix.  A leading byte-order mark, as some spreadsheet
    programs write, is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
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
            if _full_fit(profile, HomogeneityWitness.default_for(profile), target_base):
                return H
        H += 1
    raise SynthesisExhausted(
        f"no height within the {caps.max_points}-point cap gives a regular "
        f"{degree}-tower a full germ fit with base >= {MIN_AUTO_BASE}")


def _regular_degrees(spec: str) -> list[int]:
    """The degrees of a regular:<d>[,<d>...] spec, each an integer at
    least 1; an empty or non-integer entry is a bad degree too."""
    try:
        degrees = [int(t) for t in spec.split(":", 1)[1].split(",")]
    except ValueError:
        raise ValueError(f"bad degree in {spec!r}") from None
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
            # H - 1 copies of d as one strided view: no list of the height
            degrees = np.broadcast_to(d, max(H - 1, 0))
            return regular_tower(degrees, H, caps=caps), f"regular:{d}:h{H}"
        H = height if height is not None else len(degrees) + 1
        return regular_tower(degrees, H, caps=caps), f"{spec}:h{H}"
    return _load_tower(spec, caps), spec


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


def cmd_validate(args: argparse.Namespace) -> int:
    kind, payload = _load_document(args.input)
    if kind == "tower":
        ids, level, parent = _tower_fields(payload)
        report = validate_tower(ids, level, parent)
        if report.ok:
            _check_height(payload, max(level.values()))
    else:
        space = (space_from_csv(payload, args.caps) if kind == "space-csv"
                 else space_from_json(payload, args.caps))
        report = validate_ultrametric(space)
    _emit(args, _json_pieces(report.to_json()))
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _entropy_table(args: argparse.Namespace, space: Space,
                   eps: Optional[tuple] = None,
                   delta: Optional[tuple] = None) -> int:
    """Emit a space's entropy table as CSV; the radii default to the
    space's values."""
    profile = entropy_profile(space, eps or space.values,
                              delta or space.values, args.net, args.caps)
    _emit(args, [dump_csv(("eps", "delta", "large", "small"), profile.rows())])
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    radii = {}
    for flag in ("eps", "delta"):
        text = getattr(args, flag)
        radii[flag] = None if text is None else _parse_rationals(text)
        if radii[flag] == ():
            raise ValueError(f"--{flag} needs at least one radius")
    space = _load_space(args.input, args.caps)
    return _entropy_table(args, space, radii["eps"], radii["delta"])


def cmd_towerize(args: argparse.Namespace) -> int:
    radii = _parse_rationals(args.radii)
    space = _load_space(args.input, args.caps)
    _emit(args, _json_pieces(tower_to_json(ball_tower(space, radii, caps=args.caps))))
    return EXIT_OK


def cmd_subtower(args: argparse.Namespace) -> int:
    levels = _parse_rationals(args.levels)
    tower = _load_tower(args.input, args.caps)
    if any(not isinstance(v, int) for v in levels):
        raise ValueError("--levels must be whole numbers")
    sub, next_map = level_subtower(tower, levels, caps=args.caps)
    out = {
        "tower": tower_to_json(sub),
        "next_map": {b: next_map[b] for b in sorted(next_map)},
    }
    _emit(args, _json_pieces(out))
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    t1 = _load_tower(args.tower1, args.caps)
    t2 = _load_tower(args.tower2, args.caps)
    try:
        assignment, cert = tower_embedding(
            t1, t2, require_iso=args.iso, caps=args.caps)
    except ValueError as err:
        _emit(args, _json_pieces({"embedding": None, "error": str(err)}))
        return EXIT_NEGATIVE
    out = {
        "assignment": [[a, assignment[a]] for a in sorted(assignment)],
        "certificate": cert.to_json(),
    }
    _emit(args, _json_pieces(out))
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    base = _target_base(args.to_spec)
    tower, label = _tower_from_spec(args.from_spec, args.caps, args.height, base)
    # the hash's text and the report's pieces are made while no pipeline
    # space is alive
    source_hash = tower_hash(tower)
    result = equivalence_pipeline(tower, target_base=base, caps=args.caps)
    del tower
    report = pipeline_report(
        result,
        source_label=label,
        source_hash=source_hash,
        target_label=f"words:{base}:{result.synthesis.m[-1]}",
        decisions=DECISIONS,
        config={
            "cap": args.cap,
            "net": args.net,
            "to": args.to_spec,
            "height": args.height,
        },
    )
    ok = result.certificate.kind == "asymorphism" and result.certificate.is_asymorphism
    del result
    _emit(args, _json_pieces(report))
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_classify(args: argparse.Namespace) -> int:
    def profile_of(spec: str) -> DegreeProfile:
        if spec.startswith("regular:"):
            return DegreeProfile.regular(_regular_degrees(spec))
        return degree_profile(_load_tower(spec, args.caps))

    verdict = classify(
        profile_of(args.profile1),
        profile_of(args.profile2),
        infinite1=args.from_infinite,
        infinite2=args.to_infinite,
    )
    _emit(args, _json_pieces(verdict))
    return EXIT_OK


# -- experiments ---------------------------------------------------------------


def _experiment_hyperspace(args: argparse.Namespace, n: int, length: int,
                           alphabet: int) -> int:
    words = word_space(alphabet, length, caps=args.caps)
    return _entropy_table(args, hyperspace(words, n, caps=args.caps))


def _experiment_sparse_product(args: argparse.Namespace, length: int,
                               terms: int) -> int:
    positions = [k * k for k in range(1, terms + 1)]
    left = word_space(2, length, caps=args.caps)
    # binary words whose letter n sits at position positions[n]: the word
    # space's balls with the value of row n + 1 moved from 2^n to 2^positions[n]
    words = word_space(2, terms, caps=args.caps)
    rows = [words.ball_labels(t) for t in range(len(words.values))]
    right = _ball_table(words.points, rows,
                        (0,) + tuple(2 ** s for s in positions), args.caps)
    return _entropy_table(args, product(left, right, caps=args.caps))


def _experiment_ratio_bounded(args: argparse.Namespace, trials: int,
                              height: int, ratio_bound: str) -> int:
    """Synthesis success frequency on random profiles whose per-level
    Deg/deg ratio stays under a bound; measurement only."""
    bound = Fraction(as_rational(ratio_bound))
    if bound < 1:  # below 1 every level is clamped to ratio 1
        raise ValueError("--ratio-bound must be >= 1")
    rng = random.Random(args.seed)
    rows = []
    for trial in range(trials):
        degs, caps_ = [], []
        for _ in range(height - 1):
            lo = rng.randint(2, 6)
            hi_max = int(lo * bound)
            hi = rng.randint(lo, max(lo, hi_max))
            degs.append(lo)
            caps_.append(hi)
        profile = DegreeProfile(height, DegreeProfile.regular(degs, height).small,
                                DegreeProfile.regular(caps_, height).small)
        value, _ = asymptotic_homogeneity(profile)
        try:
            out = synthesize_sequences(profile)
            rows.append((trial, height, rat_json(value), 1, len(out)))
        except SynthesisExhausted:
            rows.append((trial, height, rat_json(value), 0, 0))
    _emit(args, [dump_csv(
        ("trial", "height", "homogeneity", "success", "steps"), rows)])
    return EXIT_OK


# each experiment's runner and the flags it reads, with their defaults;
# the parser declares their union, and an experiment refuses the others
EXPERIMENTS = {
    "hyperspace-entropy": (
        _experiment_hyperspace, {"n": 2, "length": 4, "alphabet": 2}),
    "product-with-sparse-sequence": (
        _experiment_sparse_product, {"length": 4, "terms": 4}),
    "ratio-bounded-synthesis": (
        _experiment_ratio_bounded,
        {"trials": 50, "height": 8, "ratio_bound": "2"}),
}
_EXPERIMENT_FLAGS = {flag: default for _, flags in EXPERIMENTS.values()
                     for flag, default in flags.items()}
# the least value of each integer flag, refused below it before anything is built
_EXPERIMENT_LEAST = {"n": 1, "length": 1, "alphabet": 2, "terms": 1,
                     "trials": 0, "height": 1}
# the commands and experiments whose output is an entropy table, the only
# output the net convention changes
_NET_READERS = ("entropy", "hyperspace-entropy", "product-with-sparse-sequence")
# the one experiment whose output the seed changes
_SEED_READER = "ratio-bounded-synthesis"


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {args.name!r}; choices: "
            f"{', '.join(sorted(EXPERIMENTS))}")
    runner, flags = EXPERIMENTS[args.name]
    values = {k: getattr(args, k, d) for k, d in flags.items()}
    for k, least in _EXPERIMENT_LEAST.items():
        if values.get(k, least) < least:
            raise ValueError(f"--{k} must be >= {least}")
    return runner(args, **values)


# -- dispatch -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace on each
    # call and leaves the parser as it was.  The global flags ride on a
    # parent parser so they are accepted both before and after the
    # subcommand; all defaults are SUPPRESS (filled in by _check_flags)
    # because a subparser parses into a fresh namespace and would clobber
    # values parsed before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help="max points of every space, relation graph and "
                             "tower base, and half a tower's nodes (default 20000)")
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

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p = command("validate", cmd_validate, "check a space or tower file")
    p.add_argument("input")

    p = command("entropy", cmd_entropy, "emit an entropy table as CSV")
    p.add_argument("input")
    p.add_argument("--eps", default=None, help="comma-separated radii")
    p.add_argument("--delta", default=None, help="comma-separated radii")

    p = command("towerize", cmd_towerize, "ball tower of a space")
    p.add_argument("input")
    p.add_argument("--radii", required=True, help="comma-separated radii")

    p = command("subtower", cmd_subtower, "restrict a tower to chosen levels")
    p.add_argument("input")
    p.add_argument("--levels", required=True, help="comma-separated levels")

    p = command("embed", cmd_embed, "embed one tower into another")
    p.add_argument("tower1")
    p.add_argument("tower2")
    p.add_argument("--iso", action="store_true",
                   help="require a full isomorphism")

    p = command("equiv", cmd_equiv, "run the certified equivalence pipeline")
    p.add_argument("--from", dest="from_spec", required=True,
                   help="regular:<d> or a tower file")
    p.add_argument("--to", dest="to_spec", default="binary",
                   help="binary (default) or regular:<k>")
    p.add_argument("--height", type=int, default=None,
                   help="tower height; single-degree sources pick one "
                        "automatically")

    p = command("classify", cmd_classify,
                "classification verdict for two towers")
    p.add_argument("profile1", help="regular:<d,...> or a tower file")
    p.add_argument("profile2")
    p.add_argument("--from-infinite", action="store_true",
                   help="mark the first input as an infinite-degree profile")
    p.add_argument("--to-infinite", action="store_true",
                   help="mark the second input as an infinite-degree profile")

    p = command("experiment", cmd_experiment, "measurement harnesses")
    p.add_argument("name", help=", ".join(sorted(EXPERIMENTS)))
    for flag, default in _EXPERIMENT_FLAGS.items():
        p.add_argument("--" + flag.replace("_", "-"), type=type(default),
                       default=argparse.SUPPRESS)
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a flag the command does not read and a cap below one, then
    fill the global defaults and the caps."""
    reader = args.name if args.command == "experiment" else args.command
    if args.command == "experiment" and reader in EXPERIMENTS:
        reads = EXPERIMENTS[reader][1]
        foreign = [k for k in _EXPERIMENT_FLAGS
                   if hasattr(args, k) and k not in reads]
        if foreign:
            flags = ", ".join("--" + k.replace("_", "-") for k in reads)
            raise ValueError(
                f"{reader} does not read --{foreign[0].replace('_', '-')}; "
                f"it reads {flags}")
    if getattr(args, "net", CLOSED) != CLOSED and reader not in _NET_READERS:
        raise ValueError(
            f"{reader} does not read --net; only entropy tables do "
            f"({', '.join(_NET_READERS)})")
    if hasattr(args, "seed") and reader != _SEED_READER:
        raise ValueError(
            f"{reader} does not read --seed; only {_SEED_READER} does")
    for flag, default in (("cap", 20000), ("net", CLOSED), ("out", None),
                          ("seed", 0)):
        if not hasattr(args, flag):
            setattr(args, flag, default)
    if args.cap <= 0:
        raise ValueError("--cap must be positive")
    args.caps = Caps(max_points=args.cap)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error contract
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        _check_flags(args)
        return args.run(args)
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
