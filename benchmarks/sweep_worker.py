"""Worker process of the bijection_sweep workload.

usage: python3 benchmarks/sweep_worker.py --seed N (--seconds S | --requests N) [--trace]

Imports icsets, builds the poset of every ladder frame, prints "ready", then
runs seeded round-trip requests one at a time, for S seconds or N requests,
and prints one JSON line with the latencies and failures (and the spans,
with --trace).  --requests 0 stops after set-up.  Needs the icsets sources on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from icsets import bijections, paths, posets

import catalogue
from tracing import Tracer

# A request slower than this counts as failed (a timeout); the slowest take
# about a millisecond.
REQUEST_TIMEOUT_S = 5.0


def spec_of(frame):
    family, m, n, r = frame
    if family == "rect":
        return posets.ChainProduct(m, n)
    if family == "rootA":
        return posets.TypeARoot(m - 1)
    return posets.TruncatedRectangle(m, n, r)


def motzkin_request(frame, spec, labels) -> bool:
    """Forward map, validator, inverse map and statistic transport on a
    rectangle ICS."""
    _, m, n, _ = frame
    word = bijections.ics_to_motzkin(m, n, labels)
    verdict = paths.validate_motzkin(word)
    if not verdict.valid or (verdict.m, verdict.n) != (m, n):
        return False
    if bijections.motzkin_to_ics(word) != (m, n, labels):
        return False
    poset = posets.build_poset(spec)
    st = posets.subset_stats(poset, poset.indices_of(labels))
    ms = paths.motzkin_stats(word)
    transported = (ms.area, ms.returns, ms.axis_run_product_sum)
    return st.cardinality == len(labels) and transported == (
        st.cardinality,
        st.component_count,
        st.incomparable_count,
    )


def walk_request(frame, spec, labels) -> bool:
    """The same round trip through the quarter-plane walk of a truncated
    rectangle or root-triangle ICS."""
    _, m, n, r = frame
    walk = bijections.ics_to_walk(spec, labels)
    verdict = paths.validate_walk(walk)
    if not verdict.valid or walk.start_x != n - r or verdict.endpoint != (m - r, 0):
        return False
    if bijections.walk_to_ics(walk) != (posets.TruncatedRectangle(m, n, r), labels):
        return False
    poset = posets.build_poset(spec)
    st = posets.subset_stats(poset, poset.indices_of(labels))
    ws = paths.walk_stats(walk)
    transported = (ws.height_sum, ws.x_axis_returns, ws.y_axis_returns_excl_last)
    return st.cardinality == len(labels) and transported == (
        st.cardinality,
        st.component_count,
        st.minimal_in_subset,
    )


def check_request(frame, spec, labels) -> bool:
    if frame[0] == "rect":
        return motzkin_request(frame, spec, labels)
    return walk_request(frame, spec, labels)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--seconds", type=float)
    bound.add_argument("--requests", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cached_build = posets.build_poset
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    before = cached_build.cache_info()
    specs = {frame: spec_of(frame) for frame in catalogue.SWEEP_LADDER}
    for spec in specs.values():
        posets.build_poset(spec)
    print("ready", flush=True)
    if args.requests == 0:
        return 0

    pool = [(frame, specs[frame], labels) for frame, labels in catalogue.sweep_pool(args.seed)]
    latencies: list[float] = []
    failed = 0
    started = time.perf_counter()
    deadline = started + args.seconds if args.seconds is not None else None
    i = 0
    while (i < args.requests) if deadline is None else (time.perf_counter() < deadline):
        frame, spec, labels = pool[i % len(pool)]
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            ok = check_request(frame, spec, labels)
        except Exception:  # a request that raises is a failed request
            if not failed:
                traceback.print_exc()
            ok = False
        dt = time.perf_counter() - t0
        latencies.append(dt)
        failed += not ok or dt > REQUEST_TIMEOUT_S
        i += 1
    elapsed = time.perf_counter() - started
    after = cached_build.cache_info()
    print(
        json.dumps(
            {
                "attempted": len(latencies),
                "failed": failed,
                "elapsed": elapsed,
                "latencies": latencies,
                "cache": [after.hits - before.hits, after.misses - before.misses],
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.spans if tracer else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
