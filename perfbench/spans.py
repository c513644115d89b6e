"""Per-layer tracing from outside the library.

The tracer wraps public library functions by rebinding them in every
``coarsetowers`` module namespace that holds them, so calls between
library modules are caught without any edit to the library source.  Each
call records a span (name, start, end, parent) in memory; self time is a
span's duration minus the part of it that its child spans cover.  Nothing
is wrapped until ``install`` runs, and ``uninstall`` restores every
binding, so timed passes always run the library exactly as shipped.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple, Sequence

# traced functions per library module; the per-layer metrics are
# <module>.<function>.{calls,self_s,total_s} for each of them
TARGETS = {
    "spaces": ("word_space", "subspace", "entropy_profile",
               "validate_ultrametric", "ultrametrize"),
    "towers": ("regular_tower", "validate_tower", "base_space",
               "level_subtower", "degree_profile", "ball_tower",
               "ball_tower_base_map"),
    "morphisms": ("distortion_modulus", "verify_asymorphism", "compose",
                  "selection_pair", "build_admissible_morphism",
                  "check_base_distortion"),
    "homogenize": ("equivalence_pipeline",),
    "serialization": ("space_from_csv", "pipeline_report", "dump_json",
                      "content_hash"),
    "cli": ("main",),
}

TRACED = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)

# library builders whose returned towers count as "built"
TOWER_BUILDERS = ("towers.regular_tower", "towers.level_subtower",
                  "towers.ball_tower")

PACKAGE = "coarsetowers"
WRAPPED_MARK = "__perfbench_traced__"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


def covered_length(intervals: Sequence[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per traced name.  total_s counts a span
    only when no enclosing span has the same name, so a function that
    reaches itself again is not counted twice."""
    own = self_times(spans)
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in TRACED}
    for i, s in enumerate(spans):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += own[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["total_s"] += s.end - s.start
    return out


def library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans and counts for traced library calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.recording = True
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans = []
        self.codes_bytes = 0
        self.modulus_pairs = 0
        self.built_towers = 0
        self.base_space_towers: dict[int, object] = {}

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TARGETS}
        modules = library_modules()
        for mod_name, names in TARGETS.items():
            home = homes[mod_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    @contextmanager
    def paused(self):
        """Run the benchmark's own correctness checks unrecorded."""
        before = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = before

    def _wrap(self, name: str, fn):
        from coarsetowers.spaces import Space

        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            # reserve the slot so children can name this span as parent
            self.spans.append(None)
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent)
            self._count(name, args, result, Space)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        setattr(traced, WRAPPED_MARK, True)
        return traced

    def _count(self, name, args, result, space_type) -> None:
        if isinstance(result, space_type):
            self.codes_bytes += result.codes.nbytes
        if name == "morphisms.distortion_modulus":
            self.modulus_pairs += len(args[0].pairs)
        elif name in TOWER_BUILDERS:
            self.built_towers += 1
        elif name == "towers.base_space":
            # keep the tower alive for the pass so its id stays unique
            self.base_space_towers[id(args[0])] = args[0]
