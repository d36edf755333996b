"""Spans around the calls into each icsets layer, installed from outside the
package, and the per-layer metrics derived from them.

A span is the list [name, start, end, parent, request, size]: start and end
are perf_counter seconds, parent is the index of the enclosing span or None,
request identifies the request, and size is the work a call reports in its
result (sets counted by the oracle, terms of a rectangle table) or None.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from functools import wraps

# The public functions icsets.cli and the bijection sweep call, by module.
TRACED = {
    "posets": ("build_poset", "count_ics", "subset_stats"),
    "series": (
        "rectangle_counts",
        "b_minuscule_counts",
        "typeA_counts",
        "b_root_counts",
        "truncated_counts",
        "closed_form_count",
    ),
    "bijections": ("ics_to_motzkin", "motzkin_to_ics", "ics_to_walk", "walk_to_ics"),
    "paths": ("validate_motzkin", "validate_walk", "motzkin_stats", "walk_stats"),
}
SIZE_OF_RESULT = {"posets.count_ics": int, "series.rectangle_counts": len}

# How each traced function is summarised: total busy ms for the engines a
# request calls a few times, mean us per call for the per-ICS operations.
MS_FUNCTIONS = (
    "posets.count_ics",
    "posets.build_poset",
    "series.rectangle_counts",
    "series.b_minuscule_counts",
    "series.typeA_counts",
    "series.b_root_counts",
    "series.truncated_counts",
    "series.closed_form_count",
)
US_FUNCTIONS = (
    "posets.subset_stats",
    "bijections.ics_to_motzkin",
    "bijections.motzkin_to_ics",
    "bijections.ics_to_walk",
    "bijections.walk_to_ics",
    "paths.validate_motzkin",
    "paths.validate_walk",
    "paths.motzkin_stats",
    "paths.walk_stats",
)


class Tracer:
    """Records spans for the calls made through patched module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._open: list[int] = []

    def install(self) -> None:
        """Replace every traced function, in every loaded icsets module that
        holds it, by a recording wrapper; calls by name from inside the
        package are recorded too."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "icsets"]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"icsets.{mod_name}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for holder in modules:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)

    def begin(self, name: str) -> list:
        """Open a span as a child of the innermost open span."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.request, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn):
        measure = SIZE_OF_RESULT.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if measure is not None:
                record[5] = measure(result)
            return result

        return traced


def merge(batches) -> list[list]:
    """Concatenate per-process span lists, re-basing parent indices."""
    out: list[list] = []
    for spans in batches:
        base = len(out)
        for name, start, end, parent, request, size in spans:
            out.append([name, start, end, None if parent is None else parent + base, request, size])
    return out


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last in ("calls", "sets", "terms"):
        return "count"
    if last.endswith("ms"):
        return "ms"
    if last == "us":
        return "us"
    if last.endswith("per_s"):
        return "1/s"
    return "ratio"


def layer_metrics(
    spans, import_s, cache_hits, cache_misses, untraced_wall, traced_wall
) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    import_s: seconds to import icsets.cli, one per CLI process (empty for
    the sweep).  The wall times cover the same requests run untraced and
    traced.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    sizes: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, size in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if size is not None:
            sizes[name] = sizes.get(name, 0) + size
        if parent is not None:
            child_time[parent] += end - start
    self_s = [
        (end - start) - child_time[i]
        for i, (name, start, end, *_) in enumerate(spans)
        if name == "cli.main"
    ]

    m: dict[str, float] = {
        "cli.import_ms": 1e3 * statistics.median(import_s) if import_s else 0.0,
        "cli.self_ms": 1e3 * statistics.median(self_s) if self_s else 0.0,
    }
    for name in MS_FUNCTIONS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.ms"] = 1e3 * busy.get(name, 0.0)
    for name in US_FUNCTIONS:
        n = calls.get(name, 0)
        m[f"{name}.calls"] = n
        m[f"{name}.us"] = 1e6 * busy[name] / n if n else 0.0
    oracle_s = busy.get("posets.count_ics", 0.0)
    m["posets.oracle.sets"] = sizes.get("posets.count_ics", 0)
    m["posets.oracle.sets_per_s"] = m["posets.oracle.sets"] / oracle_s if oracle_s else 0.0
    lookups = cache_hits + cache_misses
    m["posets.build_poset.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    m["series.rectangle_counts.terms"] = sizes.get("series.rectangle_counts", 0)
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return m
