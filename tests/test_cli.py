"""Command-line surface: output contracts, encodings, and exit codes."""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from icsets import bijections, cli, posets, reference, series, verify
from icsets.cli import main, parse_ics_json, parse_poset_spec
from icsets.posets import ChainProduct, OrdinalSumAntichains, TruncatedRectangle, TypeARoot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_poset_spec():
    assert parse_poset_spec("rect:2x3") == ChainProduct(2, 3)
    assert parse_poset_spec("trunc:4x5:1") == TruncatedRectangle(4, 5, 1)
    assert parse_poset_spec("rootA:5") == TypeARoot(5)
    assert parse_poset_spec("ordsum:2+3+1") == OrdinalSumAntichains((2, 3, 1))
    with pytest.raises(ValueError):
        parse_poset_spec("rect:2z3")
    with pytest.raises(ValueError):
        parse_poset_spec("pyramid:9")


def test_parse_ics_json():
    assert parse_ics_json("") == frozenset()
    assert parse_ics_json("[]") == frozenset()
    assert parse_ics_json("[1,1]") == frozenset([(1, 1)])
    assert parse_ics_json("[[1,2],[2,2]]") == frozenset([(1, 2), (2, 2)])
    with pytest.raises(ValueError):
        parse_ics_json("{}")
    with pytest.raises(ValueError):
        parse_ics_json('[["a",1]]')


# ---------------------------------------------------------------------------
# count


def test_count_all_methods(capsys):
    code, out, _ = run(capsys, "count", "rect:2x2", "--method", "all")
    assert code == 0 and out.strip() == "13, 13, 13"


def test_count_series_root_triangle(capsys):
    code, out, _ = run(capsys, "count", "rootA:5", "--method", "series")
    assert code == 0 and out.strip() == "2385"


def test_count_oracle_cube(capsys):
    code, out, _ = run(capsys, "count", "cube:2x2x2", "--method", "oracle")
    assert code == 0 and out.strip() == "101"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "minB:4", "--method", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"oracle": "96", "series": "96"}


def test_count_oracle_counts_past_what_it_could_enumerate(capsys):
    # 2^30 sets: about two hours to visit one by one, one state per layer to count
    code, out, _ = run(capsys, "count", "ordsum:30", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"oracle": "1073741824", "formula": "1073741824"}


def test_count_scale_exceeded(capsys, monkeypatch):
    # the layered count's work bound, lowered so that rect:6x6 passes it
    monkeypatch.setattr(posets, "LAYERED_COUNT_WORK_BOUND", 100)
    assert run(capsys, "count", "rect:6x6", "--method", "oracle") == (
        3,
        "",
        "error: oracle scale exceeded: layered count work 110 > bound 100 with 28 of 36 elements left\n",
    )


def test_count_all_skips_an_engine_past_its_budget(capsys, monkeypatch):
    # the series engine is past its budget, and the oracle and the formula answer
    assert run(capsys, "count", "rect:100x2") == (0, "8680951, 8680951\n", "")
    assert run(capsys, "count", "rect:100x2", "--json") == (
        0,
        '{"spec": "rect:100x2", "counts": {"oracle": "8680951", "formula": "8680951"}}\n',
        "",
    )
    # asked for by name, the engine still exits 3
    assert run(capsys, "count", "rect:100x2", "--method", "series") == (
        3,
        "",
        "error: order 100 exceeds budget 40\n",
    )
    # with no engine answering, the last engine's error is the error; rect:41x41
    # passes the work bound only near its end, so the bound is lowered here
    monkeypatch.setattr(posets, "LAYERED_COUNT_WORK_BOUND", 1000)
    assert run(capsys, "count", "rect:41x41") == (3, "", "error: order 41 exceeds budget 40\n")


HUGE = "99999999999"  # 2 * HUGE labels would exhaust memory if they were listed
ORACLE_BOUND = "oracle scale exceeded: 199999999998 elements > bound 30"
BUILD_BOUND = "poset scale exceeded: 199999999998 elements > bound 10000"


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("count", f"rect:{HUGE}x2", "--method", "oracle"), 3, BUILD_BOUND),
        (("enumerate", f"rect:{HUGE}x2", "--limit", "1"), 3, ORACLE_BOUND),
        (("stats", f"rect:{HUGE}x2", "[]"), 3, BUILD_BOUND),
        (("map", f"rect:{HUGE}x2", "[]", "--to", "motzkin"), 3, BUILD_BOUND),
        (("count", f"rootA:{HUGE}"), 3, "order 100000000000 exceeds budget 40"),
        (("count", f"minB:{HUGE}"), 3, "order 99999999999 exceeds budget 40"),
        (("count", f"rootB:{HUGE}"), 3, "order 99999999999 exceeds budget 40"),
        (("count", f"trunc:{HUGE}x2:1"), 3, "order 99999999999 exceeds budget 40"),
        (("count", f"cube:{HUGE}x2x2"), 3, "poset scale exceeded: 399999999996 elements > bound 10000"),
    ],
)
def test_specs_too_large_to_build_stop_before_listing_labels(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


def test_count_answers_a_spec_too_large_to_build_by_formula(capsys):
    expected = series.closed_form_count("two_by_n", int(HUGE))
    assert run(capsys, "count", f"rect:{HUGE}x2") == (0, f"{expected}\n", "")


def _cli_in_capped_process(*argv):
    """Run the CLI in a fresh process with a 20 s timeout and 1 GiB of
    address space, so a spec that runs away fails the test instead of the
    machine."""
    return _python_in_capped_process("-m", "icsets.cli", *argv)


def _python_in_capped_process(*args):
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
        preexec_fn=cap,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_enumerate_into_a_closed_pipe_stops_quietly(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with open(tmp_path / "stderr", "wb") as err, subprocess.Popen(
        [sys.executable, "-m", "icsets.cli", "enumerate", "rect:5x6"],
        stdout=subprocess.PIPE,
        stderr=err,
        env=env,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"[]\n"
            proc.stdout.close()  # as `| head -1` does, long before the last of 39,614 sets
            code = proc.wait(timeout=20)
        finally:
            proc.kill()
    assert (code, (tmp_path / "stderr").read_text()) == (cli.EXIT_PIPE, "")


@pytest.mark.parametrize("method", ["all", "formula"])
def test_ordinal_sum_counts_print_in_full(method):
    # 6021 digits, past the interpreter's 4300-digit conversion limit
    with cli._full_decimal_digits():
        expected = str(2**20000)
    assert _cli_in_capped_process("count", "ordsum:20000", "--method", method) == (
        0,
        expected + "\n",
        "",
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("count", f"ordsum:{HUGE}"),
            "ordinal-sum count of up to 30103000001 digits exceeds budget 100000 digits",
        ),
        (
            ("count", f"ordsum:{HUGE}", "--method", "formula"),
            "ordinal-sum count of up to 30103000001 digits exceeds budget 100000 digits",
        ),
        (("count", "ordsum:20000", "--method", "oracle"), "poset scale exceeded: 20000 elements > bound 10000"),
        (("stats", "ordsum:20000", "[]"), "poset scale exceeded: 20000 elements > bound 10000"),
        (("stats", "ordsum:400+400", "[]"), "poset scale exceeded: 160000 covers > bound 100000"),
        # 30 elements each, within the element bound; ordsum:30 would print 2^30 sets
        (("enumerate", "ordsum:30"), "oracle scale exceeded: 1073741824 sets > bound 200000"),
        (("enumerate", "ordsum:10+10+10"), "oracle scale exceeded: 3142657 sets > bound 200000"),
    ],
)
def test_ordinal_sums_past_a_bound_exit_3_at_once(argv, message):
    assert _cli_in_capped_process(*argv) == (3, "", f"error: {message}\n")


LAYERED_WORK_BOUND = r"oracle scale exceeded: layered count work \d+ > bound 2000000 with \d+ of {} elements left"


@pytest.mark.parametrize(
    "argv,size",
    [(("count", "rect:100x100", "--method", "oracle"), 10_000), (("count", "cube:10x10x10"), 1000)],
)
def test_counts_past_the_work_bound_exit_3_in_a_capped_process(argv, size):
    code, out, err = _cli_in_capped_process(*argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(f"error: {LAYERED_WORK_BOUND.format(size)}\n", err)


def test_symmetric_count_past_the_work_bound_raises_in_a_capped_process():
    code = (
        "from icsets import posets\n"
        "square = posets.ChainProduct(12, 12)\n"
        "try:\n"
        "    posets.enumerate_symmetric_ics(posets.build_poset(square), posets.vertical_involution(square))\n"
        "except posets.OracleScaleExceeded as exc:\n"
        "    print(exc)\n"
    )
    returncode, out, err = _python_in_capped_process("-c", code)
    assert (returncode, err) == (0, "")
    assert re.fullmatch(LAYERED_WORK_BOUND.format(144) + "\n", out)


def test_count_oracle_answers_past_the_enumeration_bound(capsys):
    assert run(capsys, "count", "cube:4x4x4") == (0, "3071673482\n", "")
    with cli._full_decimal_digits():
        expected = str(2**2000)
    assert run(capsys, "count", "ordsum:2000", "--method", "oracle") == (0, expected + "\n", "")


def test_count_reads_grids_with_the_longest_side_first(capsys):
    # 800 elements either way; counted with files of 200 elements, rect:4x200 would
    # take about ten million states and pass the work bound
    expected = run(capsys, "count", "rect:200x4", "--method", "oracle")
    assert expected[0] == 0
    assert run(capsys, "count", "rect:4x200", "--method", "oracle") == expected
    assert posets.family_of(ChainProduct(4, 200)).count_spec(ChainProduct(4, 200)) == ChainProduct(200, 4)
    assert posets.family_of(TruncatedRectangle(2, 5, 1)).count_spec(
        TruncatedRectangle(2, 5, 1)
    ) == TruncatedRectangle(5, 2, 1)
    cube = posets.ChainProduct3(2, 14, 3)
    assert posets.family_of(cube).count_spec(cube) == posets.ChainProduct3(14, 3, 2)


def test_spec_parsing_keeps_the_digit_limit(capsys):
    spec = "ordsum:" + "1" * 5000
    assert run(capsys, "count", spec) == (2, "", f"error: bad poset spec {spec!r}: expected ordsum:2+3+1\n")


def test_count_no_formula(capsys):
    code, _, err = run(capsys, "count", "rootB:3", "--method", "formula")
    assert code == 2 and "no closed formula" in err


def test_count_bad_spec(capsys):
    code, _, err = run(capsys, "count", "nope:1")
    assert code == 2 and "bad poset spec" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("count", "rect:2x3x4"), "bad poset spec 'rect:2x3x4': expected rect:MxN"),
        (("count", "rect:2x"), "bad poset spec 'rect:2x': expected rect:MxN"),
        (("count", "trunc:2x2"), "bad poset spec 'trunc:2x2': expected trunc:MxN:R"),
        (("count", "cube:1x2"), "bad poset spec 'cube:1x2': expected cube:LxMxN"),
        (("count", "ordsum:"), "bad poset spec 'ordsum:': expected ordsum:2+3+1"),
        (("count", "ordsum:1++2"), "bad poset spec 'ordsum:1++2': expected ordsum:2+3+1"),
        (("count", "rootA:x"), "bad poset spec 'rootA:x': expected rootA:K"),
        (("count", "rootA:3:4"), "bad poset spec 'rootA:3:4': expected rootA:K"),
        # range checks keep their own texts
        (
            ("count", "trunc:2x2:5"),
            "bad poset spec 'trunc:2x2:5': truncation depth r=5 exceeds min(m, n)=2",
        ),
        (("map", "minB:2", "", "--to", "walk"), "no rectangle frame for minB:2"),
        (("map", "ordsum:1+1", "[]", "--to", "classify"), "no rectangle frame for ordsum:1+1"),
        (("map", "rootB:2", "e w", "--to", "walk", "--inverse"), "no rectangle frame for rootB:2"),
        (
            ("map", "rootA:0", "[]", "--to", "motzkin"),
            "Motzkin images are defined for rect:MxN and trunc:MxN:0 specs",
        ),
        # spec integers are an optional ASCII '-' and ASCII digits, nothing else
        (("count", "rect:1_0x 2"), "bad poset spec 'rect:1_0x 2': expected rect:MxN"),
        (("count", "rect:10x 2"), "bad poset spec 'rect:10x 2': expected rect:MxN"),
        (("count", "ordsum: 2+\u0663"), "bad poset spec 'ordsum: 2+\u0663': expected ordsum:2+3+1"),
        (("count", "ordsum:2+\u0663"), "bad poset spec 'ordsum:2+\u0663': expected ordsum:2+3+1"),
        (("count", "rootA:+3"), "bad poset spec 'rootA:+3': expected rootA:K"),
    ],
)
def test_bad_specs_are_named_as_typed(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_negative_truncation_depth_is_a_rectangle(capsys):
    assert parse_poset_spec("trunc:3x3:-1") == TruncatedRectangle(3, 3, 0)
    assert run(capsys, "count", "trunc:3x3:-1") == (0, "114, 114, 114\n", "")


def test_spec_forms_are_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert {f.spec_class for f in posets.FAMILIES} == set(posets.PosetSpec.__args__)
    assert len(posets.FAMILY_BY_PREFIX) == len(posets.FAMILIES)
    for family in posets.FAMILIES:
        assert f"| `{family.form}` |" in readme, family.form
        assert f"\n  {family.form} " in cli.__doc__, family.form


# ---------------------------------------------------------------------------
# map


def test_map_single_cell(capsys):
    code, out, _ = run(capsys, "map", "rect:1x1", "[1,1]", "--to", "motzkin")
    assert code == 0 and out.strip() == "U D"


def test_map_empty_rectangle(capsys):
    code, out, _ = run(capsys, "map", "rect:2x2", "", "--to", "motzkin")
    assert code == 0 and out.strip() == "1 1 2 2"


def test_map_triangle_walk(capsys):
    code, out, _ = run(
        capsys, "map", "rootA:5", "[[3,5],[3,6],[6,3]]", "--to", "walk"
    )
    assert code == 0 and out.strip() == "e e nw w se e e w nw se w w"


def test_map_walk_inverse(capsys):
    code, out, _ = run(
        capsys, "map", "trunc:4x5:1", "nw w nw w se e nw se se", "--to", "walk", "--inverse"
    )
    assert code == 0
    assert json.loads(out) == [
        [1, 2], [1, 3], [1, 4], [1, 5], [2, 2], [2, 3], [2, 4],
        [3, 1], [3, 2], [4, 1], [4, 2],
    ]


def test_map_motzkin_inverse_roundtrip(capsys):
    code, out, _ = run(capsys, "map", "rect:2x3", "[[1,2],[1,3]]", "--to", "motzkin")
    assert code == 0
    word = out.strip()
    code, out, _ = run(capsys, "map", "rect:2x3", word, "--to", "motzkin", "--inverse")
    assert code == 0 and json.loads(out) == [[1, 2], [1, 3]]


@pytest.mark.parametrize("dims,ics", [("1x1", "[[1,1]]"), ("2x3", "[[1,2],[1,3]]")])
def test_map_truncation_zero_has_motzkin_images(capsys, dims, ics):
    # trunc:MxN:0 is the rectangle: the same word as rect:MxN, and it maps back
    code, word, _ = run(capsys, "map", f"rect:{dims}", ics, "--to", "motzkin")
    assert code == 0
    spec = f"trunc:{dims}:0"
    assert run(capsys, "map", spec, ics, "--to", "motzkin") == (0, word, "")
    assert run(capsys, "map", spec, word.strip(), "--to", "motzkin", "--inverse") == (0, ics + "\n", "")


def test_map_truncation_zero_reads_the_rectangle_on_every_ics(capsys):
    # the maps build the rectangle's poset from its own spec, so trunc:3x3:0
    # prints the bytes of rect:3x3 for every ICS and both forward images
    poset = posets.build_poset(ChainProduct(3, 3))
    for s in posets.enumerate_ics(poset):
        ics = cli.format_labels(poset.labels_of(s))
        for to in ("motzkin", "classify"):
            expected = run(capsys, "map", "rect:3x3", ics, "--to", to)
            assert expected[0] == 0
            assert run(capsys, "map", "trunc:3x3:0", ics, "--to", to) == expected


def test_map_classify(capsys):
    code, out, _ = run(capsys, "map", "rect:2x2", "[1,1]", "--to", "classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["in"] == [[1, 1]]
    assert payload["below_only"] == []
    assert payload["above_only"] == [[1, 2], [2, 1], [2, 2]]
    assert payload["incomparable"] == []


def test_stats_and_map_name_the_same_violating_triple(capsys):
    message = "error: not interval-closed: (1, 1) < (1, 2) < (2, 2) but (1, 2) is missing\n"
    assert run(capsys, "stats", "rect:2x2", "[[1,1],[2,2]]") == (2, "", message)
    assert run(capsys, "map", "rect:2x2", "[[1,1],[2,2]]", "--to", "motzkin") == (2, "", message)


def test_map_rejects_non_ics(capsys):
    code, _, err = run(capsys, "map", "rect:2x2", "[[1,1],[2,2]]", "--to", "motzkin")
    assert code == 2 and "not interval-closed" in err
    # the witness triple is listed
    assert "(1, 1)" in err and "(2, 2)" in err


@pytest.mark.parametrize(
    "spec,ics,to,unknown",
    [
        ("rect:2x2", "[[3,3]]", "motzkin", "[(3, 3)]"),
        ("rect:2x2", "[[0,1],[1,1]]", "classify", "[(0, 1)]"),
        ("rootA:2", "[[1,1]]", "walk", "[(1, 1)]"),
        # unknown labels are reported before the family check of --to motzkin
        ("trunc:3x3:1", "[[9,9],[0,0]]", "motzkin", "[(0, 0), (9, 9)]"),
    ],
)
def test_map_rejects_unknown_elements(capsys, spec, ics, to, unknown):
    code, out, err = run(capsys, "map", spec, ics, "--to", to)
    assert (code, out, err) == (2, "", f"error: elements not in the poset: {unknown}\n")


def test_map_classify_has_no_inverse(capsys):
    code, _, err = run(capsys, "map", "rect:2x2", "x", "--to", "classify", "--inverse")
    assert code == 2 and "no inverse" in err


# ---------------------------------------------------------------------------
# enumerate / stats


def test_enumerate_deterministic_prefix(capsys):
    code, out, _ = run(capsys, "enumerate", "rect:2x2", "--limit", "4")
    assert code == 0
    assert out.splitlines() == ["[]", "[[1,1]]", "[[1,2]]", "[[1,1],[1,2]]"]
    code2, out2, _ = run(capsys, "enumerate", "rect:2x2", "--limit", "4")
    assert out2 == out  # byte-identical repeat


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "rect:1x1", "--json")
    assert code == 0 and json.loads(out) == [[], [[1, 1]]]


@pytest.mark.parametrize(
    "spec, limit", [("rect:1x2", None), ("rect:3x3", None), ("rect:3x3", "0"), ("rect:3x3", "3")]
)
def test_enumerate_json_streams_the_array_of_the_line_form(capsys, spec, limit):
    # the array, written row by row, has the bytes of json.dumps of the whole list
    extra = ("--limit", limit) if limit else ()
    code, lines, _ = run(capsys, "enumerate", spec, *extra)
    rows = [json.loads(line) for line in lines.splitlines()]
    assert code == 0 and run(capsys, "enumerate", spec, "--json", *extra) == (
        0,
        json.dumps(rows, separators=(",", ":")) + "\n",
        "",
    )


def test_enumerate_json_holds_no_list_of_the_sets():
    # rootA:6 has 20,362 sets; holding them all peaked at about 18 MiB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["enumerate", "rootA:6", "--limit", "1"]) == 0  # the poset is built and cached
        tracemalloc.start()
        try:
            assert main(["enumerate", "rootA:6", "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20


def test_enumerate_bounds_the_sets_it_prints(capsys, monkeypatch):
    # the bound applies to min(count, --limit): ordsum:30 has 2^30 ICS, rect:2x2 13
    code, out, err = run(capsys, "enumerate", "ordsum:30", "--limit", "5")
    assert (code, len(out.splitlines()), err) == (0, 5, "")
    monkeypatch.setattr(cli, "ENUMERATE_SET_BOUND", 10)
    assert run(capsys, "enumerate", "rect:2x2") == (3, "", "error: oracle scale exceeded: 13 sets > bound 10\n")
    code, out, err = run(capsys, "enumerate", "rect:2x2", "--limit", "10")
    assert (code, len(out.splitlines()), err) == (0, 10, "")


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run(capsys, "enumerate", "rect:2x2", "--limit", "-1")
    assert code == 2 and out == ""
    assert "--limit must be non-negative" in err and "islice" not in err


def test_stats_output(capsys):
    code, out, _ = run(capsys, "stats", "rootA:5", "[[3,5],[3,6],[6,3]]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "cardinality": 3,
        "components": 2,
        "incomparable": 2,
        "minimal_in_subset": 1,
    }


def test_stats_truncation_zero_reads_the_rectangle_on_every_ics(capsys):
    # hits_all_files is decided by a rectangle frame with r = 0, not by the
    # spec's class, so trunc:3x3:0 prints the bytes of rect:3x3
    poset = posets.build_poset(ChainProduct(3, 3))
    for s in posets.enumerate_ics(poset):
        ics = cli.format_labels(poset.labels_of(s))
        expected = run(capsys, "stats", "rect:3x3", ics, "--json")
        assert expected[0] == 0 and "hits_all_files" in expected[1]
        assert run(capsys, "stats", "trunc:3x3:0", ics, "--json") == expected
    assert run(capsys, "stats", "trunc:2x2:0", "[[1,1]]", "--json") == (
        0,
        '{"cardinality": 1, "components": 1, "incomparable": 0, "minimal_in_subset": 1, "hits_all_files": false}\n',
        "",
    )


def test_the_cached_poset_cannot_be_edited(capsys):
    # build_poset hands every caller one FinitePoset, so an edit to it would
    # change every later answer in the process
    poset = posets.build_poset(ChainProduct(2, 2))
    with pytest.raises(TypeError):
        poset.index[(1, 1)] = 3
    for table in (poset._up, poset._down, poset._cover_adj):
        with pytest.raises(TypeError):
            table[0] = table[1]
    code, out, _ = run(capsys, "stats", "rect:2x2", "[[1,1]]", "--json")
    assert code == 0 and json.loads(out)["minimal_in_subset"] == 1


def test_the_cached_poset_attributes_cannot_be_rebound(capsys):
    poset = posets.build_poset(ChainProduct(2, 2))
    with pytest.raises(AttributeError):
        poset.minimal_mask = 0
    for name in posets.FinitePoset.__slots__[:-1]:  # all but __weakref__
        with pytest.raises(AttributeError):
            setattr(poset, name, None)
        with pytest.raises(AttributeError):
            delattr(poset, name)
    assert posets.build_poset(ChainProduct(2, 2)) is poset and poset.minimal_mask == 1
    code, out, _ = run(capsys, "stats", "rect:2x2", "[[1,1]]", "--json")
    assert code == 0 and json.loads(out)["minimal_in_subset"] == 1


@pytest.mark.parametrize("module, name, key", [(posets, "FAMILY_BY_PREFIX", "rect"), (verify, "CHECKS", 0)])
def test_the_shared_tables_cannot_be_edited(module, name, key):
    # cli and verify read these tables on every call
    table = getattr(module, name)
    with pytest.raises(TypeError):
        table[key] = table[key]


def test_stats_rejects_unknown_elements(capsys):
    code, _, err = run(capsys, "stats", "rect:2x2", "[[9,9]]")
    assert code == 2 and "not in the poset" in err


@pytest.mark.parametrize(
    "ics,element",
    [
        ("[[true,1]]", "[true, 1]"),
        ("[true,1]", "[true, 1]"),
        ("[[1,1.0]]", "[1, 1.0]"),
        ('[["a",1]]', '["a", 1]'),
    ],
)
def test_ics_coordinates_must_be_json_integers(capsys, ics, element):
    message = f"error: bad ICS element {element}; expected [a,b] or [a,b,c]\n"
    assert run(capsys, "stats", "rect:2x2", ics) == (2, "", message)


# ---------------------------------------------------------------------------
# series


def test_series_bminuscule(capsys):
    assert run(capsys, "series", "bminuscule", "--order", "5") == (0, "1, 2, 7, 26, 96, 356\n", "")


def test_series_type_a(capsys):
    code, out, _ = run(capsys, "series", "typeA", "--order", "10")
    assert code == 0
    assert out.strip() == "1, 2, 8, 45, 307, 2385, 20362, 186812, 1814156, 18448851"


def test_series_b_root(capsys):
    code, out, _ = run(capsys, "series", "broot", "--order", "4")
    assert code == 0 and out.strip() == "2, 13, 115, 1166"


@pytest.mark.parametrize("which", ["typeA", "broot"])
def test_series_steps_f_once(capsys, monkeypatch, which):
    # largest n first: one pass of F to z-order 80, not one pass per n
    monkeypatch.setattr(series, "_F_CACHE", [])
    steps = []
    advance = series._advance
    monkeypatch.setattr(series, "_advance", lambda prev, prev2: steps.append(1) or advance(prev, prev2))
    code, out, _ = run(capsys, "series", which, "--order", "40")
    assert code == 0 and len(steps) == 80
    assert out.startswith("1, 2, 8, " if which == "typeA" else "2, 13, 115, ")


def test_series_rectangle_csv(capsys):
    code, out, _ = run(capsys, "series", "rectangle", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m\\n,0,1,2,3"
    assert lines[1] == "0,1,1,1,1"
    assert lines[3] == "2,1,4,13,33"


def test_series_rectangle_json(capsys):
    code, out, _ = run(capsys, "series", "rectangle", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == ["x", "y"]
    terms = {tuple(t["exp"]): (t["num"], t["den"]) for t in payload["terms"]}
    assert terms[(2, 2)] == ("13", "1")


def test_series_truncated_csv(capsys):
    code, out, _ = run(capsys, "series", "truncated", "--order", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,r,count"
    assert "3,2,1,24" in lines


SERIES_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text()
)["series_sha256"]


@pytest.mark.parametrize(
    "family,order",
    [(family, order) for family, table in SERIES_DIGESTS.items() for order in table],
)
def test_series_csv_matches_pinned_digest(capsys, family, order):
    code, out, _ = run(capsys, "series", family, "--order", order, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[family][order]


def test_series_budget(capsys):
    code, _, err = run(capsys, "series", "rectangle", "--order", "99")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("order", [0, 1, 3, 6])
def test_series_json_matches_fraction_engine(capsys, order):
    code, out, _ = run(capsys, "series", "rectangle", "--order", str(order), "--format", "json")
    assert code == 0
    assert out == json.dumps(reference.rectangle_series(order, order).to_json_dict()) + "\n"
    code, out, _ = run(capsys, "series", "bminuscule", "--order", str(order), "--format", "json")
    assert code == 0
    assert out == json.dumps(reference.b_minuscule_series(order).to_json_dict()) + "\n"


def test_series_budget_edges(capsys):
    code, out, _ = run(capsys, "series", "rectangle", "--order", "40", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 42
    # the truncated table steps to z-order 40 and starts up to t^40
    code, out, _ = run(capsys, "series", "truncated", "--order", "40")
    assert code == 0 and out.splitlines()[-1] == "40,0,0,1"
    assert f"20,20,0,{series.rectangle_counts(20, 20)[(20, 20)]}" in out.splitlines()


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # every series engine refuses the first number past the budget, in the
        # number its caller gave; rootA:K is type A order K + 1
        *((("series", table, "--order", "41"), 3, "order 41 exceeds budget 40")
          for table in ("rectangle", "bminuscule", "typeA", "broot", "truncated")),
        *((("count", spec, "--method", "series"), 3, "order 41 exceeds budget 40")
          for spec in ("rect:41x2", "minB:41", "rootB:41", "trunc:41x2:1", "rootA:40")),
        (("count", "rootA:60"), 3, "order 61 exceeds budget 40"),
        # a negative size is refused in the letters of the family's form
        (("count", "rect:-1x2"), 2, "bad poset spec 'rect:-1x2': rect:MxN needs M, N >= 0"),
        (("count", "trunc:-1x2:0"), 2, "bad poset spec 'trunc:-1x2:0': trunc:MxN:R needs M, N >= 0"),
        (("count", "rootA:-1"), 2, "bad poset spec 'rootA:-1': rootA:K needs K >= 0"),
        (("count", "minB:-1"), 2, "bad poset spec 'minB:-1': minB:N needs N >= 0"),
        (("count", "rootB:-1"), 2, "bad poset spec 'rootB:-1': rootB:N needs N >= 0"),
        (("count", "cube:1x-1x1"), 2, "bad poset spec 'cube:1x-1x1': cube:LxMxN needs L, M, N >= 0"),
        # the one-start trunc count checks both sides
        *((("count", spec, "--method", "series"), 3, "order 41 exceeds budget 40")
          for spec in ("trunc:41x3:1", "trunc:3x41:1")),
    ],
)
def test_refusals_name_the_numbers_as_typed(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("table,engine", [("typeA", "typeA_counts"), ("broot", "b_root_counts")])
def test_series_refuses_an_order_before_it_computes_a_count(capsys, monkeypatch, table, engine):
    computed = []

    def counting(n, count=getattr(series, engine)):
        computed.append(count(n))
        return computed[-1]

    monkeypatch.setattr(series, engine, counting)
    assert run(capsys, "series", table, "--order", "41") == (3, "", "error: order 41 exceeds budget 40\n")
    assert computed == []


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("rootB:21", "17432630832600683009670"),
        ("rootA:25", "4457505281569555328680952"),
        ("trunc:25x20:3", "546259016747963225139823"),
    ],
)
def test_count_checks_the_series_engine_on_each_size_it_accepts(capsys, spec, expected):
    # the engines step F to z-orders 42 and 52 and G to 45, past 40: the
    # series count is printed beside the oracle's
    assert run(capsys, "count", spec) == (0, f"{expected}, {expected}\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "typeA", "--order", "-2"),
        ("series", "broot", "--order", "-2"),
        ("--seed-order", "-3", "series", "typeA"),
    ],
)
def test_series_rejects_negative_order(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "orders must be non-negative" in err


@pytest.mark.parametrize("family", ["typeA", "broot"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("order_flag", [("--order", "0"), ("--seed-order", "0")])
def test_series_from_order_one_rejects_order_zero(capsys, family, fmt, order_flag):
    flag, value = order_flag
    argv = ["series", family, "--format", fmt]
    argv = [*argv, flag, value] if flag == "--order" else [flag, value, *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: the {family} sequence starts at order 1, got order 0\n"


def test_series_default_order_flag(capsys):
    code, out, _ = run(capsys, "--seed-order", "3", "series", "bminuscule")
    assert code == 0 and out.strip() == "1, 2, 7, 26"


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "engine, record",
    [
        ("symmetric_typeA_counts", "type-A mirror counts vs oracle k<=5"),
        ("typeA_F_coeffs", "F vs walk DP l<=12"),
        ("walk_dp_coeffs", "F vs walk DP l<=12"),
        ("walk_dp_counts", "engine equivalence m+n<=5"),
    ],
)
def test_quick_verify_catches_the_walk_engines(monkeypatch, engine, record):
    # each of these engines is compared with another at the quick level
    assert {r.name: r.passed for r in verify.run_checks("quick")}[record]
    right = getattr(series, engine)

    def wrong(*args):
        # one more at every count: a table by (h, s, length), or per length
        # a number or an endpoint table
        counts = right(*args)
        if isinstance(counts, dict):
            return {k: c + 1 for k, c in counts.items()}
        return [{k: c + 1 for k, c in v.items()} if isinstance(v, dict) else v + 1 for v in counts]

    monkeypatch.setattr(series, engine, wrong)
    failed = {r.name for r in verify.run_checks("quick") if not r.passed}
    assert record in failed


# (family prefix, engine, the quick record that one too many from it fails)
ENGINE_ROWS = [
    ("rect", "series", "rectangle series vs oracle m+n<=7"),
    ("trunc", "series", "engine equivalence m+n<=5"),
    ("rootA", "series", "type-A counts vs oracle"),
    ("minB", "series", "B-minuscule counts vs oracle"),
    ("rootB", "series", "B-root counts vs oracle"),
    ("ordsum", "formula", "ordinal-sum formula vs oracle"),
    ("rect", "formula", "rectangle closed forms n<=6"),
    ("trunc", "formula", "engine equivalence m+n<=5"),
    ("rect", "oracle", "rectangle series vs oracle m+n<=7"),
    ("trunc", "oracle", "engine equivalence m+n<=5"),
    ("rootA", "oracle", "type-A counts vs oracle"),
    ("minB", "oracle", "B-minuscule counts vs oracle"),
    ("rootB", "oracle", "B-root counts vs oracle"),
    ("ordsum", "oracle", "ordinal-sum formula vs oracle"),
    ("cube", "oracle", "three-chain table small"),
]


@pytest.mark.parametrize("prefix, engine, record", ENGINE_ROWS)
def test_quick_verify_catches_every_served_engine(monkeypatch, prefix, engine, record):
    # verify reads each count through the family table, as `icsets count`
    # does, so one too many from an engine that `count` serves fails a quick
    # record; an engine that does not apply still answers None
    family = posets.FAMILY_BY_PREFIX[prefix]
    right = getattr(family, engine)

    def wrong(spec):
        value = right(spec)
        return None if value is None else value + 1

    monkeypatch.setattr(family, engine, wrong)
    assert record in {r.name for r in verify.run_checks("quick") if not r.passed}


def test_the_engine_rows_are_every_engine_that_answers():
    # every side 2 and no truncation, where every engine of a family answers
    answering = set()
    for prefix, family in posets.FAMILY_BY_PREFIX.items():
        spec = cli.parse_poset_spec(family.form.replace("R", "0").translate(str.maketrans("KLMN", "2222")))
        answering |= {(prefix, e) for e in ("oracle", "formula", "series") if getattr(family, e)(spec) is not None}
    assert {row[:2] for row in ENGINE_ROWS} == answering


def _ordinal_sum_off_by_one(right):
    return lambda family, params: right(family, params) + (family == "ordinal_sum")


@pytest.mark.parametrize(
    "module, engine, make_wrong, failed",
    [
        (series, "closed_form_count", _ordinal_sum_off_by_one, {"ordinal-sum formula vs oracle"}),
        (bijections, "shift_map", lambda right: lambda *args: frozenset(), {"shift map bijection m+n<=4"}),
        (
            bijections,
            "motzkin_to_ics",
            lambda right: lambda word: (*right(word)[:2], frozenset()),
            {"rectangle worked example", "Motzkin round trips m,n<=2"},
        ),
        (
            bijections,
            "walk_to_ics",
            lambda right: lambda walk: (right(walk)[0], frozenset()),
            {"type-A worked example", "truncated worked example", "walk round trips m+n<=4"},
        ),
    ],
)
def test_quick_verify_catches_the_maps_and_the_ordinal_sum_formula(monkeypatch, module, engine, make_wrong, failed):
    # a wrong ordinal-sum branch, shift map or inverse map fails these quick records
    assert all(r.passed for r in verify.run_checks("quick"))
    monkeypatch.setattr(module, engine, make_wrong(getattr(module, engine)))
    assert {r.name for r in verify.run_checks("quick") if not r.passed} == failed


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")], ids=repr)
def test_verify_turns_a_raising_check_into_a_failed_record(capsys, monkeypatch, error):
    def raising(word):
        raise error

    monkeypatch.setattr(bijections, "motzkin_to_ics", raising)
    code, out, err = run(capsys, "verify", "--level", "quick")
    assert (code, err) == (4, "error: verification failed\n")
    assert "[FAIL] rectangle worked example (paper-table," in out
    actual = f"{type(error).__name__}: {error}"
    assert f"    actual:   {actual!r}" in out
    assert "[PASS] type-A worked example" in out  # the checks after it still run


def test_verify_reads_one_table():
    # every check has a row, and no level repeats a record name
    assert {row[2].__name__ for row in verify.CHECKS} == {
        name for name in vars(verify) if name.startswith("_check_")
    }
    for column, records in ((3, 23), (4, 24)):
        names = {row[0].format(*row[column]) for row in verify.CHECKS if row[column] is not None}
        assert len(names) == records


@pytest.mark.parametrize(
    "name, key",
    [
        ("TYPE_A_SEQUENCE", 3),
        ("B_MINUSCULE_SEQUENCE", 0),
        ("B_ROOT_SEQUENCE", 0),
        ("THREE_CHAIN_TABLE", (2, 2, 2)),
        ("ORDINAL_SUM_BLOCKS", 0),
        ("TRUNCATED_SERIES_HEAD", 0),
    ],
)
def test_the_pinned_numbers_cannot_be_edited(name, key):
    with pytest.raises(TypeError):
        getattr(verify, name)[key] = 44
    if name == "TRUNCATED_SERIES_HEAD":
        with pytest.raises(TypeError):
            verify.TRUNCATED_SERIES_HEAD[0][(0, 0)] = 2


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick", "--json")
    assert code == 0
    records = json.loads(out)
    assert all(r["pass"] for r in records)
    assert {r["source"] for r in records} <= {
        "paper-sequence",
        "paper-table",
        "closed-form",
        "oracle",
    }


def test_verify_cross_checks_integer_recurrences(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--level", "quick", "--json")
    assert code == 0
    (record,) = [
        r
        for r in json.loads(out)
        if r["name"].startswith("integer recurrences vs Fraction closed forms")
    ]
    assert record["source"] == "closed-form" and record["pass"]
    # a wrong coefficient in the integer engine is reported
    monkeypatch.setattr(series, "b_minuscule_counts", lambda n: [1] * (n + 1))
    _, bad = verify._check_integer_recurrences(2, 3)
    assert [entry[:2] for entry in bad] == [("B-minuscule", (n,)) for n in (1, 2, 3)]


WORKED_EXAMPLES = {
    "RECT_EXAMPLE_ICS": verify._check_rect_example,
    "TYPE_A_EXAMPLE_ICS": verify._check_type_a_example,
    "TRUNCATED_EXAMPLE_ICS": verify._check_truncated_example,
}


def _rebuilt(labels, reverse):
    """The same frozenset built another way: inserted in reverse sorted
    order, or copied out of a larger table."""
    if reverse:
        return frozenset(sorted(labels, reverse=True))
    grown = set(labels) | {(i, j) for i in range(40) for j in range(40, 80)}
    grown -= grown - set(labels)
    return frozenset(grown)


def _worked_example_texts():
    texts = []
    for check in WORKED_EXAMPLES.values():
        expected, actual = check()
        record = verify.CheckRecord("example", expected, actual, "paper-table", expected == actual, 0.0)
        texts.append(json.dumps(record.to_json_dict()))
    return texts


@pytest.mark.parametrize("reverse", [True, False])
def test_verify_records_do_not_depend_on_set_construction(monkeypatch, reverse):
    before = _worked_example_texts()
    rebuilt = {name: _rebuilt(getattr(verify, name), reverse) for name in WORKED_EXAMPLES}
    # the rebuilt sets are equal, and at least one iterates in another order
    assert all(rebuilt[name] == getattr(verify, name) for name in rebuilt)
    assert any(repr(rebuilt[name]) != repr(getattr(verify, name)) for name in rebuilt)
    for name, labels in rebuilt.items():
        monkeypatch.setattr(verify, name, labels)
    assert _worked_example_texts() == before


# ---------------------------------------------------------------------------
# start-up footprint

FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
bare = set(sys.modules)
from icsets import cli
loaded = sorted(set(sys.modules) - bare)
outputs = []
for argv in (["map", "rect:1x1", "[1,1]", "--to", "motzkin"], ["verify", "--level", "quick"]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    outputs.append([code, buf.getvalue()])
print(json.dumps({"loaded": loaded, "outputs": outputs}))
"""


def _json_from_fresh_python(script):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_only_what_count_and_series_run():
    report = _json_from_fresh_python(FOOTPRINT_SCRIPT)
    loaded = set(report["loaded"])
    assert not loaded & {
        "dataclasses",
        "decimal",
        "fractions",
        "icsets.paths",
        "icsets.bijections",
        "icsets.reference",
        "icsets.verify",
    }
    assert {m for m in loaded if m.startswith("icsets")} == {"icsets", "icsets.cli", "icsets.posets", "icsets.series"}
    (map_code, map_out), (verify_code, verify_out) = report["outputs"]
    assert (map_code, map_out) == (0, "U D\n")
    assert verify_code == 0 and "[FAIL]" not in verify_out and "checks passed" in verify_out


def test_bijections_import_loads_no_rational_arithmetic():
    # the map command and the benchmark's sweep worker import bijections
    script = "import json, sys; bare = set(sys.modules); import icsets.bijections; "
    script += "print(json.dumps(sorted(set(sys.modules) - bare)))"
    loaded = set(_json_from_fresh_python(script))
    assert "icsets.bijections" in loaded
    assert not loaded & {"decimal", "fractions", "icsets.reference", "icsets.verify"}
