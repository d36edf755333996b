"""Self-tests of the benchmark: its reference data, its answer checks, its
request streams and the layer isolation of its traced runs.

Run from the repository root: python3 -m pytest benchmarks -q
(they start icsets processes and take about a minute).
"""

import copy
import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import catalogue  # noqa: E402
import run  # noqa: E402
import sweep_worker  # noqa: E402
from icsets import cli, posets, series  # noqa: E402

REFERENCE = catalogue.load_reference()

# The paper's three-chain table, ICS of [l] x [m] x [n]: the second source
# of the cube counts.
PAPER_THREE_CHAIN = {
    (2, 2, 2): 101,
    (2, 2, 3): 526,
    (2, 2, 4): 2085,
    (2, 2, 5): 6793,
    (2, 3, 3): 5030,
    (2, 3, 4): 33792,
}


def _second_engine(spec: str) -> int:
    """The count of a catalogue spec by a route other than the oracle."""
    kind, _, rest = spec.partition(":")
    if kind == "rect":
        m, n = map(int, rest.split("x"))
        return series.rectangle_counts(m, n)[(m, n)]
    if kind == "trunc":
        dims, _, r = rest.partition(":")
        m, n = map(int, dims.split("x"))
        return series.truncated_counts(m, n)[(m, n, int(r))]
    if kind == "rootA":
        return series.typeA_counts(int(rest) + 1)
    if kind == "minB":
        return series.b_minuscule_counts(int(rest))[int(rest)]
    if kind == "rootB":
        return series.b_root_counts(int(rest))
    if kind == "ordsum":
        return series.closed_form_count("ordinal_sum", map(int, rest.split("+")))
    assert kind == "cube"
    return PAPER_THREE_CHAIN[tuple(sorted(map(int, rest.split("x"))))]


def test_count_reference_is_confirmed_by_two_engines():
    assert {catalogue.family_of(s) for s in REFERENCE["counts"]} == set(catalogue.COUNT_FAMILIES)
    for spec, expected in REFERENCE["counts"].items():
        poset = posets.build_poset(cli.parse_poset_spec(spec))
        assert poset.n <= posets.ICS_ENUMERATION_BOUND, spec
        assert posets.count_ics(poset) == expected, spec
        assert _second_engine(spec) == expected, spec


def test_series_digests_agree_with_the_count_reference():
    """Outputs whose digests are pinned contain the oracle-confirmed counts."""
    counts = REFERENCE["counts"]

    def table(family, order):
        _, proc = run.run_cli(["series", family, "--order", str(order), "--format", "csv"])
        assert proc.returncode == 0
        assert run.check_series(proc.stdout, REFERENCE["series_sha256"][family][order])
        return [line.split(",") for line in proc.stdout.decode().splitlines()[1:]]

    seen = 0
    for row in table("rectangle", 6):
        for n, value in enumerate(row[1:]):
            for spec in (f"rect:{row[0]}x{n}", f"rect:{n}x{row[0]}"):
                if spec in counts:
                    assert int(value) == counts[spec], spec
                    seen += 1
    for family, order, spec_of in (
        ("bminuscule", 7, lambda n: f"minB:{n}"),
        ("typeA", 8, lambda n: f"rootA:{int(n) - 1}"),
        ("broot", 5, lambda n: f"rootB:{n}"),
    ):
        for n, value in table(family, order):
            if spec_of(n) in counts:
                assert int(value) == counts[spec_of(n)], spec_of(n)
                seen += 1
    for m, n, r, value in table("truncated", 12):
        spec = f"trunc:{m}x{n}:{r}"
        if spec in counts:
            assert int(value) == counts[spec], spec
            seen += 1
    assert seen >= 25


def _corrupt_first_request(workload: str, seed: int) -> dict:
    reference = copy.deepcopy(REFERENCE)
    stream, _ = run.cli_stream(workload, seed, REFERENCE)
    argv, expected = next(stream)
    if workload == "count_mix":
        (spec,) = [k for k, v in reference["counts"].items() if v == expected]
        reference["counts"][spec] += 1
    else:
        reference["series_sha256"][argv[1]][int(argv[3])] = "0" * 64
    return reference


@pytest.mark.parametrize("workload", run.CLI_WORKLOADS)
def test_a_corrupted_reference_value_is_a_failure(workload, monkeypatch, capsys):
    reference = _corrupt_first_request(workload, seed=7)
    monkeypatch.setattr(catalogue, "load_reference", lambda: reference)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 == result["attempted"]


def test_the_sweep_checks_catch_a_wrong_engine(monkeypatch):
    rng = random.Random(1)
    requests = []
    for frame in (("rect", 5, 5, 0), ("trunc", 6, 5, 2)):
        labels = frozenset()
        while not labels:
            labels = catalogue.random_ics(rng, frame)
        requests.append((frame, sweep_worker.spec_of(frame), labels))
        assert sweep_worker.check_request(*requests[-1])

    real = sweep_worker.paths.motzkin_stats

    def off_by_one(word):
        stats = real(word)
        return dataclasses.replace(stats, area=stats.area + 1)

    monkeypatch.setattr(sweep_worker.paths, "motzkin_stats", off_by_one)
    assert not sweep_worker.check_request(*requests[0])


def test_random_ics_are_interval_closed():
    rng = random.Random(3)
    for frame in catalogue.SWEEP_LADDER[:3] + catalogue.SWEEP_LADDER[4:7] + catalogue.SWEEP_LADDER[8:11]:
        poset = posets.build_poset(sweep_worker.spec_of(frame))
        for _ in range(50):
            ics = catalogue.random_ics(rng, frame)
            assert posets.is_interval_closed(poset, poset.indices_of(ics))


def test_streams_depend_only_on_the_seed():
    def head(workload, seed):
        if workload == "bijection_sweep":
            return catalogue.sweep_pool(seed)[:40]
        stream, _ = run.cli_stream(workload, seed, REFERENCE)
        return [next(stream) for _ in range(40)]

    for workload in run.WORKLOADS:
        assert head(workload, 5) == head(workload, 5)
        assert head(workload, 5) != head(workload, 6)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each workload with the same seed, one cycle each."""
    return {
        w: [run.measure(w, 11, 1.0, True, REFERENCE)[0] for _ in range(2)] for w in run.WORKLOADS
    }


SERIES_ENGINES = ("rectangle_counts", "b_minuscule_counts", "typeA_counts", "b_root_counts", "truncated_counts")
PATH_LAYER = [f"bijections.{f}" for f in ("ics_to_motzkin", "motzkin_to_ics", "ics_to_walk", "walk_to_ics")]
PATH_LAYER += [f"paths.{f}" for f in ("validate_motzkin", "validate_walk", "motzkin_stats", "walk_stats")]
PATH_LAYER += ["posets.subset_stats"]

# (calls that must be nonzero, calls that must be exactly zero) per workload
LAYERS = {
    "count_mix": (
        ["posets.count_ics", "posets.build_poset", "series.closed_form_count"]
        + [f"series.{f}" for f in SERIES_ENGINES],
        PATH_LAYER,
    ),
    "series_tables": (
        [f"series.{f}" for f in SERIES_ENGINES],
        ["posets.count_ics", "posets.build_poset", "series.closed_form_count"] + PATH_LAYER,
    ),
    "bijection_sweep": (
        ["posets.build_poset"] + PATH_LAYER,
        ["posets.count_ics", "series.closed_form_count"] + [f"series.{f}" for f in SERIES_ENGINES],
    ),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_layer_is_exercised_where_predicted_and_only_there(traced, workload):
    metrics = traced[workload][0]
    nonzero, zero = LAYERS[workload]
    for name in nonzero:
        assert metrics[f"{name}.calls"]["value"] > 0, name
    for name in zero:
        assert metrics[f"{name}.calls"]["value"] == 0, name
    assert (metrics["posets.oracle.sets"]["value"] > 0) == (workload == "count_mix")
    assert (metrics["cli.import_ms"]["value"] > 0) == (workload in run.CLI_WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_per_layer_metrics_match_benchmark_json(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for runs in traced.values():
        assert {k: m["unit"] for k, m in runs[0].items()} == names


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "count_mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
