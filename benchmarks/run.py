#!/usr/bin/env python3
"""Benchmark of icsets, measured from outside the package.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing beyond the standard library
and the sources under src/.

  count_mix        `icsets count <spec> --json`, each in a fresh process
  series_tables    `icsets series <family> --order K --format csv`, each in a
                   fresh process
  bijection_sweep  ICS round trips through the path bijections, in one fresh
                   worker process
  all              the three in turn

Every workload is a closed loop: one client, one request in flight.  With
--trace 0 a run measures for S seconds and reports the end-to-end metrics.
With --trace 1 it runs a fixed, seeded list of requests (its length set by S)
untraced and then traced, and reports the per-layer metrics of the traced
pass; the spans go to benchmarks/out/.  Every answer is checked against
benchmarks/reference.json or, in the sweep, by the round trip itself.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every answer was right,
1 when any was wrong, 2 when the program could not be set up (no result is
printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import catalogue
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CLI_WORKLOADS = ("count_mix", "series_tables")
WORKLOADS = (*CLI_WORKLOADS, "bijection_sweep")
PYTHONHASHSEED = "0"
# A CLI request slower than this is killed and counts as failed; the
# slowest ones take about 3 s.
REQUEST_TIMEOUT_S = 60
# Set-up is measured this many times before the timed loop and as many
# after it, and the median reported: machine speed drifts over tens of
# seconds, so samples from both ends of a run steady the median.
SETUP_REPEATS = {"count_mix": 8, "series_tables": 8, "bijection_sweep": 2}
# The tail percentile: the highest with at least ten samples beyond it at
# the request counts a 35-second run reaches.
TAIL_PERCENTILE = {"count_mix": 90, "series_tables": 90, "bijection_sweep": 99}
# A traced run repeats whole cycles of the request stream (one request per
# family, or per ladder frame); one cycle per this many seconds of --seconds.
TRACE_CYCLE = {
    "count_mix": (len(catalogue.COUNT_FAMILIES), 5.0),
    "series_tables": (len(catalogue.SERIES_MAX_ORDER), 4.0),
    "bijection_sweep": (len(catalogue.SWEEP_LADDER), 0.05),
}


class SetupError(RuntimeError):
    """The program under test could not be started or answered --help wrongly."""


@dataclass
class Sample:
    latencies: list[float]
    failed: int
    elapsed: float

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli(argv, spans_file=None):
    """One request in a fresh process: (seconds, CompletedProcess or None on
    timeout)."""
    if spans_file is None:
        cmd = [sys.executable, "-m", "icsets.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), spans_file, *argv]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=REQUEST_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None
    return time.perf_counter() - started, proc


def check_count(stdout: bytes, expected: int) -> bool:
    try:
        counts = json.loads(stdout)["counts"]
    except (ValueError, KeyError, TypeError):
        return False
    return bool(counts) and all(v == str(expected) for v in counts.values())


def check_series(stdout: bytes, expected: str) -> bool:
    return hashlib.sha256(stdout).hexdigest() == expected


def cli_stream(workload: str, seed: int, reference: dict):
    if workload == "count_mix":
        return catalogue.count_requests(seed, reference["counts"]), check_count
    return catalogue.series_requests(seed, reference["series_sha256"]), check_series


def answered(proc, check, expected) -> bool:
    return proc is not None and proc.returncode == 0 and check(proc.stdout, expected)


def cli_setup(repeats: int) -> list[float]:
    """Seconds of fresh `icsets --help` processes: interpreter start, import,
    parser build."""
    times = []
    for _ in range(repeats):
        seconds, proc = run_cli(["--help"])
        if proc is None or proc.returncode != 0 or b"usage: icsets" not in proc.stdout:
            detail = "timed out" if proc is None else proc.stderr.decode(errors="replace")
            raise SetupError(f"`icsets --help` failed: {detail.strip()}")
        times.append(seconds)
    return times


def cli_timed(stream, check, seconds: float) -> Sample:
    latencies, failed = [], 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        argv, expected = next(stream)
        dt, proc = run_cli(argv)
        latencies.append(dt)
        failed += not answered(proc, check, expected)
    return Sample(latencies, failed, time.perf_counter() - started)


def cli_traced(requests, check):
    """Each request untraced and then traced, alternating so that drift in
    machine speed falls on both passes alike: (untraced, traced, per-layer
    metrics, spans)."""
    untraced, traced = Sample([], 0, 0.0), Sample([], 0, 0.0)
    batches, import_s, hits, misses = [], [], 0, 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for request, (argv, expected) in enumerate(requests):
            dt, proc = run_cli(argv)
            untraced.latencies.append(dt)
            untraced.failed += not answered(proc, check, expected)

            spans_file = os.path.join(tmp, f"{request}.json")
            dt, proc = run_cli(argv, spans_file)
            traced.latencies.append(dt)
            try:
                with open(spans_file) as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                data = None
            traced.failed += not (data and answered(proc, check, expected))
            if not data:
                continue
            batches.append([[*s[:4], request, s[5]] for s in data["spans"]])
            import_s.append(data["import_s"])
            hits += data["cache"][0]
            misses += data["cache"][1]
    untraced.elapsed = sum(untraced.latencies)
    traced.elapsed = sum(traced.latencies)
    spans = tracing.merge(batches)
    layers = tracing.layer_metrics(spans, import_s, hits, misses, untraced.elapsed, traced.elapsed)
    return untraced, traced, layers, spans


# ---------------------------------------------------------------------------
# bijection_sweep


def sweep_worker(seed: int, *, seconds=None, requests=None, trace=False):
    """Start a worker: (set-up seconds, its result dict or None for a
    set-up-only worker)."""
    cmd = [sys.executable, str(BENCH / "sweep_worker.py"), "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if seconds is not None else ["--requests", str(requests)]
    if trace:
        cmd.append("--trace")
    limit = REQUEST_TIMEOUT_S + (seconds or 0)
    started = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError(f"sweep worker did not finish within {limit} s") from None
    if ready != b"ready\n" or proc.returncode != 0:
        raise SetupError(f"sweep worker failed: {err.decode(errors='replace').strip()}")
    if requests == 0:
        return setup_s, None
    return setup_s, json.loads(out.splitlines()[-1])


def sweep_sample(result: dict) -> Sample:
    return Sample(result["latencies"], result["failed"], result["elapsed"])


# ---------------------------------------------------------------------------
# Metrics and report


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, sample: Sample, setups: list[float]) -> tuple[dict, list[str]]:
    lat = sample.latencies
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(lat, pct)
    n = sample.attempted
    values = {
        "throughput_rps": (n - sample.failed) / sample.elapsed,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    units = {"throughput_rps": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units.get(k, "ms")} for k, v in values.items()}
    beyond = sum(1 for x in lat if x > tail)
    lines = [
        f"{workload}: {n} requests in {sample.elapsed:.2f} s, {sample.failed} failed",
        f"  throughput_rps  {values['throughput_rps']:.4f} 1/s  ({n - sample.failed} completed)",
        f"  latency_p50_ms  {values['latency_p50_ms']:.4f} ms  ({n} samples)",
        f"  latency_tail_ms {values['latency_tail_ms']:.4f} ms  "
        f"(latency_p{pct}_ms: {n} samples, {beyond} beyond)",
        f"  error_rate      {sample.failed / n:.4f}  ({sample.failed} of {n})",
        f"  setup_s         {values['setup_s']:.4f} s  (median of {len(setups)})",
        f"  peak_rss_mb     {values['peak_rss_mb']:.2f} MB",
    ]
    return metrics, lines


def per_layer(workload: str, layers: dict, spans, seed: int) -> tuple[dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items()}
    lines = [f"{workload} (traced, {len(spans)} spans in {path.relative_to(ROOT)}):"]
    lines += [f"  {k:36s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict):
    """Run one workload: (metrics, attempted, failed, report lines)."""
    cli_setup(1)  # checks that icsets starts and writes its bytecode caches
    if trace:
        width, cycle_s = TRACE_CYCLE[workload]
        count = width * max(1, int(seconds / cycle_s))
        if workload in CLI_WORKLOADS:
            stream, check = cli_stream(workload, seed, reference)
            untraced, traced, layers, spans = cli_traced(list(islice(stream, count)), check)
        else:
            _, plain = sweep_worker(seed, requests=count)
            _, result = sweep_worker(seed, requests=count, trace=True)
            untraced, traced = sweep_sample(plain), sweep_sample(result)
            hits, misses = result["cache"]
            spans = result["spans"]
            layers = tracing.layer_metrics(
                spans, [], hits, misses, untraced.elapsed, traced.elapsed
            )
        metrics, lines = per_layer(workload, layers, spans, seed)
        attempted = untraced.attempted + traced.attempted
        return metrics, attempted, untraced.failed + traced.failed, lines

    repeats = SETUP_REPEATS[workload]
    if workload in CLI_WORKLOADS:
        setups = cli_setup(repeats)
        stream, check = cli_stream(workload, seed, reference)
        sample = cli_timed(stream, check, seconds)
        setups += cli_setup(repeats)
    else:
        setups = [sweep_worker(seed, requests=0)[0] for _ in range(repeats)]
        setup_s, result = sweep_worker(seed, seconds=seconds)
        setups.append(setup_s)
        setups += [sweep_worker(seed, requests=0)[0] for _ in range(repeats)]
        sample = sweep_sample(result)
    metrics, lines = end_to_end(workload, sample, setups)
    return metrics, sample.attempted, sample.failed, lines


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "icsets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def settings(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": PYTHONHASHSEED,
        "request_timeout_s": REQUEST_TIMEOUT_S,
        "clients": 1,
    }


def run_all(args) -> int:
    """Each workload in its own process, so that each reports its own peak
    RSS; prints their reports and one combined result line."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report), flush=True)
        result = json.loads(last)
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="icsets benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "icsets" / "cli.py").is_file():
        print(f"error: no icsets sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print("settings " + json.dumps(settings(args)))
    try:
        metrics, attempted, failed, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), catalogue.load_reference()
        )
    except SetupError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
