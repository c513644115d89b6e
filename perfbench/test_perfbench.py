"""Tests of the benchmark's own arithmetic and wiring.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, spans, stats, worker
from perfbench.spans import Span

ROOT = Path(__file__).resolve().parent.parent


# -- self time -------------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0, 10) == 0
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.covered_length([(1, 4), (1, 4)], 0, 10) == 3


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 3.0, 0),
        Span("c", 1.5, 2.5, 1),  # grandchild of a: already inside b
        Span("d", 6.0, 9.0, 0),
        Span("e", 12.0, 13.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])


def test_layer_totals_count_nested_same_name_once():
    tree = [
        Span("towers.base_space", 0.0, 4.0, -1),
        Span("towers.base_space", 1.0, 2.0, 0),
        Span("spaces.subspace", 5.0, 6.0, -1),
    ]
    totals = spans.layer_totals(tree)
    assert totals["towers.base_space"] == pytest.approx(
        {"calls": 2, "self_s": 4.0, "total_s": 4.0})
    assert totals["spaces.subspace"]["calls"] == 1
    assert totals["cli.main"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}


# -- percentiles -----------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    # 20 samples: the median leaves 10 above it, p90 only 2
    assert stats.tail_percentile(list(range(1, 21))) == (50.0, 10)
    # 1035 census ops: p99 is rank 1025, leaving exactly 10 beyond
    assert stats.tail_percentile(list(range(1, 1036))) == (99.0, 1025)
    # one sample fewer than 1000 leaves only 9 beyond p99
    assert stats.tail_percentile(list(range(1, 1000)))[0] == 90.0


def test_op_p99_is_a_tail_over_per_op_medians():
    passes = [{"latencies": [1.0, 5.0]}, {"latencies": [3.0, 1.0]},
              {"latencies": [2.0, 9.0]}]
    assert run.op_medians(passes) == [2.0, 5.0]
    # one op per pass, as on equiv-ternary: the tail is the median pass
    walls = [{"latencies": [x]} for x in (20.0, 23.0, 21.0)]
    assert run.end_to_end({"passes": walls, "peak_rss_mb": 1.0},
                          [0.2])["op_p99_ms"] == 21000.0


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q[0], q[2])
    assert stats.quartiles([2.0]) == (2.0, 2.0)


# -- tracing is confined to traced passes ------------------------------------


def _bindings():
    """Every module attribute that holds a traced library function."""
    import coarsetowers  # noqa: F401  (loads every library module)
    from coarsetowers import cli  # noqa: F401

    out = {}
    for mod in spans.library_modules():
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", "").startswith(
                    spans.PACKAGE):
                out[(mod.__name__, attr)] = value
    return out


class _SmallCensus:
    def ops(self):
        from perfbench import workloads

        return [workloads.Op(str(d), lambda d=d: workloads.tower_check(d),
                             lambda r, d=d: workloads.census_verdict(d, r))
                for d in [(), (2,), (3, 2), (2, 2, 2)]]


def test_untraced_passes_install_no_wrappers():
    before = _bindings()
    passes = worker.run_passes(_SmallCensus(), 0.0, 2, 60.0)
    after = _bindings()
    assert len(passes) == 2
    assert all(not p["failures"] and len(p["latencies"]) == 4 for p in passes)
    assert after == before
    assert not any(hasattr(f, spans.WRAPPED_MARK) for f in after.values())


def test_traced_pass_records_spans_and_restores_bindings():
    import coarsetowers
    from coarsetowers import towers

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # rebound in the defining module and in the package re-export
        assert hasattr(towers.base_space, spans.WRAPPED_MARK)
        assert coarsetowers.base_space is towers.base_space
        record = worker.run_passes(_SmallCensus(), 0.0, 1, 60.0, tracer)[0]
    finally:
        tracer.uninstall()
    assert _bindings() == before
    layers = record["layers"]
    assert layers["towers.regular_tower"]["calls"] == 4
    assert layers["towers.base_space"]["calls"] == 4
    assert layers["towers.validate_tower"]["calls"] == 4
    # entropy_from_degrees reads the profile once per grid point: 1+3+6+10
    assert layers["towers.degree_profile"]["calls"] == 20
    assert layers["morphisms.distortion_modulus"]["calls"] == 0
    assert record["built_towers"] == 4
    assert record["base_space_towers"] == 4
    # validate_tower runs only inside regular_tower here, so it is the
    # whole of regular_tower's child time
    rt = layers["towers.regular_tower"]
    assert rt["total_s"] == pytest.approx(
        rt["self_s"] + layers["towers.validate_tower"]["total_s"])


# -- the benchmark's contract --------------------------------------------------


def test_benchmark_json_names_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    # run.py keeps its own list so that it never imports the library
    from perfbench import workloads
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_fails_without_library_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
