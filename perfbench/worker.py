"""Run one workload in this process and print its measurements as JSON.

``perfbench/run.py`` starts this as ``python3 -m perfbench.worker`` in a
fresh process per workload, with the library's ``src`` directory on
PYTHONPATH and BLAS/OpenMP pinned to one thread.  The last line of
standard output is the result object.

Set-up is the library import plus input generation.  Untraced passes
follow; with ``--trace 1`` a traced phase follows them, and the span
wrappers exist only during that phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from perfbench import spans

clock = time.perf_counter


def run_pass(workload, tracer=None) -> dict:
    """One pass over the workload's operations: each op's latency, and a
    [name, reason] entry for each op that raised or failed its check."""
    latencies = []
    failures = []
    for op in workload.ops():
        start = clock()
        try:
            value = op.run()
        except Exception as exc:  # an op that raises is a failed op
            latencies.append(clock() - start)
            traceback.print_exc(file=sys.stderr)
            failures.append([op.name, f"raised {type(exc).__name__}: {exc}"])
            continue
        latencies.append(clock() - start)
        with tracer.paused() if tracer else nullcontext():
            try:
                reason = op.check(value)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append([op.name, reason])
    return {"latencies": latencies, "failures": failures}


def run_passes(workload, seconds: float, min_passes: int, budget: float,
               tracer=None) -> list[dict]:
    """Passes until ``seconds`` have been measured and at least
    ``min_passes`` ran; no pass starts that would likely end past
    ``budget`` seconds from now."""
    passes = []
    start = clock()
    while True:
        record = run_pass(workload, tracer)
        if tracer is not None:
            record["layers"] = spans.layer_totals(tracer.spans)
            record["spans"] = tracer.spans
            record["codes_bytes"] = tracer.codes_bytes
            record["modulus_pairs"] = tracer.modulus_pairs
            record["built_towers"] = tracer.built_towers
            record["base_space_towers"] = len(tracer.base_space_towers)
            tracer.reset()  # releases the towers kept for base_space ids
        passes.append(record)
        elapsed = clock() - start
        if len(passes) >= min_passes and (
                elapsed >= seconds
                or elapsed + elapsed / len(passes) > budget):
            return passes


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds this process may spend measuring")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = clock()
    from perfbench import workloads  # imports the library and numpy

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = clock() - start

    import coarsetowers
    import numpy

    result = {
        "setup_s": setup_s,
        "library": coarsetowers.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if not args.setup_only:
        budget = args.budget - setup_s
        if args.trace:
            half = args.seconds / 2
            result["passes"] = run_passes(workload, half, 1, budget / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                result["traced"] = run_passes(
                    workload, half, 1, budget / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            result["passes"] = run_passes(
                workload, args.seconds, workload.min_passes, budget)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
