"""Command-line surface: output contracts, encodings, and exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from icsets import cli, posets, series, verify
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


def test_count_scale_exceeded(capsys):
    code, _, err = run(capsys, "count", "rect:6x6", "--method", "oracle")
    assert code == 3 and "scale exceeded" in err


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


def test_map_classify(capsys):
    code, out, _ = run(capsys, "map", "rect:2x2", "[1,1]", "--to", "classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["in"] == [[1, 1]]
    assert payload["below_only"] == []
    assert payload["above_only"] == [[1, 2], [2, 1], [2, 2]]
    assert payload["incomparable"] == []


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
    code, out, _ = run(capsys, "series", "bminuscule", "--order", "5")
    assert code == 0 and out.strip() == "1, 2, 7, 26, 96, 356"


def test_series_type_a(capsys):
    code, out, _ = run(capsys, "series", "typeA", "--order", "10")
    assert code == 0
    assert out.strip() == "1, 2, 8, 45, 307, 2385, 20362, 186812, 1814156, 18448851"


def test_series_b_root(capsys):
    code, out, _ = run(capsys, "series", "broot", "--order", "4")
    assert code == 0 and out.strip() == "2, 13, 115, 1166"


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
    assert out == json.dumps(series.rectangle_series(order, order).to_json_dict()) + "\n"
    code, out, _ = run(capsys, "series", "bminuscule", "--order", str(order), "--format", "json")
    assert code == 0
    assert out == json.dumps(series.b_minuscule_series(order).to_json_dict()) + "\n"


def test_series_budget_edges(capsys):
    code, out, _ = run(capsys, "series", "rectangle", "--order", "40", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 42
    for argv in (("rectangle", "--order", "41"), ("truncated", "--order", "21")):
        code, out, err = run(capsys, "series", *argv)
        assert code == 3 and out == "" and "exceeds budget 40" in err


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


def test_series_default_order_flag(capsys):
    code, out, _ = run(capsys, "--seed-order", "3", "series", "bminuscule")
    assert code == 0 and out.strip() == "1, 2, 7, 26"


# ---------------------------------------------------------------------------
# verify


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
