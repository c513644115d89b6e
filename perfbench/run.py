"""coarsetowers benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: equiv-ternary, census, ingest (see README.md in this directory).
Each run starts fresh single-threaded worker processes that import the
library from ``src/`` of this checkout; nothing is installed or built.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
of several fresh set-ups), ``wall_s`` (median pass), ``peak_rss_mb`` and
``op_p99_ms``.  With ``--trace 1`` it reports the per-layer metrics from a
traced phase that follows an untraced one.  Every operation's output is
checked; ``attempted`` and ``failed`` count operations.  The last line of
standard output is the result object; the line before it is a record of
the machine, seed, thread settings and sample distribution.  Exit code 2
means the benchmark could not run (for instance, no library source).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spans, stats  # noqa: E402

WORKLOADS = ("equiv-ternary", "census", "ingest")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# fresh set-ups per run besides the measuring worker's own; setup_s is
# the median of all of them
SETUP_PROBES = 4

DEADLINE_S = 170.0  # the whole run, probes included, ends before this

WORK_DIR = Path(".perfbench_work")  # relative to the checkout
SPANS_DIR = WORK_DIR / "spans"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p99_ms": "ms",
}

# ratios computed from counts, not measured; see README.md
COMPUTED = {
    "spaces.codes_mb": "MB",
    "morphisms.pairs": "count",
    "towers.validate_tower.calls_per_built_tower": "calls/tower",
    "towers.degree_profile.calls_per_built_tower": "calls/tower",
    "towers.base_space.calls_per_distinct_tower": "calls/tower",
    "trace_overhead_s": "s",
}

LAYER_FIELDS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{field}": unit
             for name in spans.TRACED for field, unit in LAYER_FIELDS.items()}
    units.update(COMPUTED)
    return units


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name.strip() == name:
                return sha
    return None


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # string hashing, and so set iteration order, follows the seed
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    remaining = deadline - time.monotonic()
    if remaining < 5:
        raise BenchError("no time left for the worker")
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--budget", str(remaining - 10)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(args.seed), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the worker
        raise BenchError(f"worker did not finish within {remaining:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    library = Path(result["library"]).resolve()
    if ROOT / "src" not in library.parents:
        raise BenchError(f"worker imported the library from {library}, "
                         f"not from this checkout")
    return result


def pass_walls(passes: list[dict]) -> list[float]:
    return [sum(p["latencies"]) for p in passes]


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes; every pass runs the same
    ops in the same order."""
    return [stats.median(op) for op in zip(*(p["latencies"] for p in passes))]


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    passes = result["passes"]
    return {
        "setup_s": stats.median(setup_samples),
        "wall_s": stats.median(pass_walls(passes)),
        "peak_rss_mb": result["peak_rss_mb"],
        # a tail over the workload's inputs: the p99 of the ops' medians,
        # so one slow pass does not set it
        "op_p99_ms": stats.percentile(op_medians(passes), 99) * 1000,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: dict) -> dict:
    traced = result["traced"]
    out = {}
    for name in spans.TRACED:
        for field in LAYER_FIELDS:
            out[f"{name}.{field}"] = stats.median(
                [p["layers"][name][field] for p in traced])

    def med(key):
        return stats.median([p[key] for p in traced])

    built = med("built_towers")
    out["spaces.codes_mb"] = med("codes_bytes") / 1e6
    out["morphisms.pairs"] = med("modulus_pairs")
    out["towers.validate_tower.calls_per_built_tower"] = ratio(
        out["towers.validate_tower.calls"], built)
    out["towers.degree_profile.calls_per_built_tower"] = ratio(
        out["towers.degree_profile.calls"], built)
    out["towers.base_space.calls_per_distinct_tower"] = ratio(
        out["towers.base_space.calls"], med("base_space_towers"))
    out["trace_overhead_s"] = (stats.median(pass_walls(traced))
                               - stats.median(pass_walls(result["passes"])))
    return out


def distribution(values: list[float]) -> dict:
    q1, q3 = stats.quartiles(values)
    tail = stats.tail_percentile(values)
    return {
        "samples": len(values),
        "median": stats.median(values),
        "q1": q1,
        "q3": q3,
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def record(args, result: dict, setup_samples: list[float], env: dict) -> dict:
    passes = result["passes"] + result.get("traced", [])
    failures = [f for p in passes for f in p["failures"]]
    latencies = [x for p in result["passes"] for x in p["latencies"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": result["python"],
            "numpy": result["numpy"],
            "platform": platform.platform(),
            "commit": git_commit(ROOT) or "unknown",
        },
        "threads": {var: env[var] for var in THREAD_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "setup_s": distribution(setup_samples),
        "wall_s": distribution(pass_walls(result["passes"])),
        "op_latency_s": distribution(latencies),
        "traced_wall_s": (distribution(pass_walls(result["traced"]))
                          if "traced" in result else None),
        "ops": sum(len(p["latencies"]) for p in passes),
        "failed_ops": len(failures),
        "failures": failures[:20],
        "computed": sorted(COMPUTED) if args.trace else [],
    }


def write_spans(args, traced: list[dict]) -> str:
    """Write every traced pass's spans, one [name, start, end, parent]
    list per span, and return the file's path relative to the checkout."""
    path = ROOT / SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "span": ["name", "start_s", "end_s", "parent_index"],
        "passes": [p["spans"] for p in traced],
    }))
    return str(path.relative_to(ROOT))


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)

    def probes(count: int) -> list[float]:
        return [run_worker(args, workdir, deadline, setup_only=True)["setup_s"]
                for _ in range(0 if args.trace else count)]

    try:
        # set-ups on both sides of the measuring worker, so that setup_s
        # does not rest on one stretch of machine load
        before = probes(SETUP_PROBES // 2)
        result = run_worker(args, workdir, deadline, setup_only=False)
        after = probes(SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # it holds span files or another run's directory
    setup_samples = before + [result["setup_s"]] + after
    rec = record(args, result, setup_samples, worker_env(args.seed))
    if args.trace:
        metrics, units = per_layer(result), per_layer_units()
        rec["spans_file"] = write_spans(args, result["traced"])
    else:
        metrics, units = end_to_end(result, setup_samples), END_TO_END_UNITS
    return rec, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "coarsetowers" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library source under {ROOT / 'src'}\n")
        return 2
    try:
        rec, metrics = measure(args)
    except BenchError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 2

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops = {rec['ops']} count")
    print(f"failed_ops = {rec['failed_ops']} count")
    print("record: " + json.dumps(rec, sort_keys=True))
    print(json.dumps({
        "correct": rec["failed_ops"] == 0,
        "attempted": rec["ops"],
        "failed": rec["failed_ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
