"""One-shot verification suite: recomputes every reference number at desk
scale and reports a pass/fail record per check.

Levels: "quick" keeps to about a second; "full" adds the larger brute-force
sweeps (three-chain tables, round-trip and engine-equivalence sweeps, mirror
counts to B-minuscule n = 7 and B-root n = 5) and a deeper integer-recurrence
versus Fraction/Newton comparison, and takes about 2.3 s on a 2-vCPU machine
with Python 3.11 (most of it in the Fraction engine).  Each record carries a
source tag: paper-sequence / paper-table for published numbers, closed-form
for formula cross-checks, oracle for brute-force agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bijections, paths, posets, series

# Reference sequences (1-indexed by n).
TYPE_A_SEQUENCE = [1, 2, 8, 45, 307, 2385, 20362, 186812, 1814156, 18448851]
B_MINUSCULE_SEQUENCE = [2, 7, 26, 96, 356, 1331, 5014, 19006, 72412, 277058]
B_ROOT_SEQUENCE = [2, 13, 115, 1166, 12883, 150912, 1844322, 23276741, 301289155]
THREE_CHAIN_TABLE = {
    (2, 2, 2): 101,
    (2, 2, 3): 526,
    (2, 2, 4): 2085,
    (2, 2, 5): 6793,
    (2, 3, 3): 5030,
    (2, 3, 4): 33792,
}

# The running rectangle example: a 20-element ICS of [13] x [14] and its word.
RECT_EXAMPLE_ICS = frozenset(
    [
        (1, 13), (2, 13), (3, 13), (2, 12), (3, 12), (2, 11), (3, 11),
        (6, 9), (7, 9), (8, 9), (7, 8), (8, 8), (7, 7), (8, 7),
        (7, 6), (8, 6), (9, 6), (11, 4), (11, 3), (11, 2),
    ]
)
RECT_EXAMPLE_WORD = "2 U 1 U 2 D D 1 1 2 U 1 U 2 2 D 1 D 1 2 U 2 2 D 1 1 2"
RECT_EXAMPLE_STATS = (20, 3, 5)

TYPE_A_EXAMPLE_ICS = frozenset([(3, 5), (3, 6), (6, 3)])
TYPE_A_EXAMPLE_WALK = "e e nw w se e e w nw se w w"
TYPE_A_EXAMPLE_STATS = (3, 2, 1)

TRUNCATED_EXAMPLE_ICS = frozenset(
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]
)
TRUNCATED_EXAMPLE_WALK = "nw w nw w se e nw se se"
TRUNCATED_EXAMPLE_STATS = (11, 1, 1)

# Coefficients of z^0, z^1, z^2 in the printed truncated series head.
TRUNCATED_SERIES_HEAD = [
    {(0, 0): 1},
    {(1, 0): 1, (0, 1): 1},
    {(0, 0): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1},
]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: object
    actual: object
    source: str
    passed: bool
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "source": self.source,
            "pass": self.passed,
            "elapsed": round(self.elapsed, 3),
        }


def _oracle_count(spec) -> int:
    return posets.count_ics(posets.build_poset(spec))


def _check_type_a_sequence():
    return TYPE_A_SEQUENCE, [series.typeA_counts(n) for n in range(1, 11)]


def _check_b_minuscule_sequence():
    return B_MINUSCULE_SEQUENCE, series.b_minuscule_counts(10)[1:]


def _check_b_root_sequence():
    return B_ROOT_SEQUENCE, [series.b_root_counts(n) for n in range(1, 10)]


def _check_rectangle_closed_forms():
    counts = series.rectangle_counts(3, 6)
    expected, actual = [], []
    for n in range(7):
        expected.append(series.closed_form_count("two_by_n", n))
        actual.append(counts[(2, n)])
        expected.append(series.closed_form_count("three_by_n", n))
        actual.append(counts[(3, n)])
    return expected, actual


def _rectangle_oracle(limit: int):
    expected, actual = [], []
    counts = series.rectangle_counts(limit, limit)
    for m in range(limit + 1):
        for n in range(limit + 1 - m):
            expected.append(_oracle_count(posets.ChainProduct(m, n)))
            actual.append(counts[(m, n)])
    return expected, actual


def _check_type_a_oracle(top: int):
    expected = [_oracle_count(posets.TypeARoot(n - 1)) for n in range(1, top + 1)]
    actual = [series.typeA_counts(n) for n in range(1, top + 1)]
    return expected, actual


def _check_b_minuscule_oracle(top: int):
    expected, actual = [], []
    for n in range(1, top + 1):
        direct = _oracle_count(posets.TypeBMinuscule(n))
        square = posets.build_poset(posets.ChainProduct(n, n))
        mirrored = posets.enumerate_symmetric_ics(
            square, posets.vertical_involution(posets.ChainProduct(n, n))
        )
        expected.extend([direct, mirrored])
        actual.extend([series.b_minuscule_counts(n)[n]] * 2)
    return expected, actual


def _check_b_root_oracle(top: int):
    expected, actual = [], []
    for n in range(1, top + 1):
        direct = _oracle_count(posets.TypeBRoot(n))
        triangle = posets.build_poset(posets.TypeARoot(2 * n - 1))
        mirrored = posets.enumerate_symmetric_ics(
            triangle, posets.vertical_involution(posets.TypeARoot(2 * n - 1))
        )
        expected.extend([direct, mirrored])
        actual.extend([series.b_root_counts(n)] * 2)
    return expected, actual


def _check_narayana(total: int):
    expected, actual = [], []
    for m in range(1, total):
        for n in range(1, total + 1 - m):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            fulls = sum(
                1
                for s in posets.enumerate_ics(poset)
                if bijections.is_full_ics(m, n, poset.labels_of(s), poset)
            )
            expected.extend([fulls, fulls])
            actual.extend([series.full_count(m, n), series.narayana(m + n - 1, n)])
            if m + n <= total - 1:
                hitting = sum(
                    1
                    for s in posets.enumerate_ics(poset)
                    if posets.subset_stats(poset, s).hits_all_files
                )
                expected.append(hitting)
                actual.append(series.narayana(m + n, n))
    return expected, actual


def _check_rect_example():
    word = bijections.ics_to_motzkin(13, 14, RECT_EXAMPLE_ICS)
    stats = paths.motzkin_stats(word)
    _, _, back = bijections.motzkin_to_ics(word)
    expected = (RECT_EXAMPLE_WORD, RECT_EXAMPLE_STATS, RECT_EXAMPLE_ICS)
    actual = (
        paths.motzkin_to_text(word),
        (stats.area, stats.returns, stats.axis_run_product_sum),
        back,
    )
    return expected, actual


def _check_type_a_example():
    walk = bijections.ics_to_walk(posets.TypeARoot(5), TYPE_A_EXAMPLE_ICS)
    stats = paths.walk_stats(walk)
    _, back = bijections.walk_to_ics(walk)
    expected = (TYPE_A_EXAMPLE_WALK, TYPE_A_EXAMPLE_STATS, TYPE_A_EXAMPLE_ICS)
    actual = (
        paths.walk_to_text(walk),
        (stats.height_sum, stats.x_axis_returns, stats.y_axis_returns_excl_last),
        back,
    )
    return expected, actual


def _check_truncated_example():
    spec = posets.TruncatedRectangle(4, 5, 1)
    walk = bijections.ics_to_walk(spec, TRUNCATED_EXAMPLE_ICS)
    stats = paths.walk_stats(walk)
    _, back = bijections.walk_to_ics(walk)
    expected = (TRUNCATED_EXAMPLE_WALK, (4, 0), TRUNCATED_EXAMPLE_STATS, TRUNCATED_EXAMPLE_ICS)
    actual = (
        paths.walk_to_text(walk),
        (walk.start_x, walk.endpoint[1]),
        (stats.height_sum, stats.x_axis_returns, stats.y_axis_returns_excl_last),
        back,
    )
    return expected, actual


def _check_truncated_series():
    head = series.truncated_series_head(2, 4)
    expected = [*TRUNCATED_SERIES_HEAD, 24]
    actual = [head[0], head[1], head[2], series.truncated_counts(3, 2)[(3, 2, 1)]]
    return expected, actual


def _check_three_chain(keys):
    expected = [THREE_CHAIN_TABLE[k] for k in keys]
    actual = [_oracle_count(posets.ChainProduct3(*k)) for k in keys]
    return expected, actual


def _check_motzkin_roundtrips(top: int):
    bad = []
    for m in range(top + 1):
        for n in range(top + 1):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            for s in posets.enumerate_ics(poset):
                labels = poset.labels_of(s)
                word = bijections.ics_to_motzkin(m, n, labels, poset)
                if bijections.motzkin_to_ics(word) != (m, n, labels):
                    bad.append((m, n, labels))
                    continue
                st = posets.subset_stats(poset, s)
                ms = paths.motzkin_stats(word)
                if (st.cardinality, st.component_count, st.incomparable_count) != (
                    ms.area,
                    ms.returns,
                    ms.axis_run_product_sum,
                ):
                    bad.append((m, n, labels))
    return [], bad


def _walk_specs(total: int):
    for k in range(6):
        yield posets.TypeARoot(k)
    for m in range(total + 1):
        for n in range(total + 1 - m):
            for r in range(min(m, n) + 1):
                yield posets.TruncatedRectangle(m, n, r)


def _check_walk_roundtrips(total: int):
    bad = []
    for spec in _walk_specs(total):
        poset = posets.build_poset(spec)
        for s in posets.enumerate_ics(poset):
            labels = poset.labels_of(s)
            walk = bijections.ics_to_walk(spec, labels, poset)
            if bijections.walk_to_ics(walk)[1] != labels:
                bad.append((spec, labels))
                continue
            st = posets.subset_stats(poset, s)
            ws = paths.walk_stats(walk)
            if (st.cardinality, st.component_count, st.minimal_in_subset) != (
                ws.height_sum,
                ws.x_axis_returns,
                ws.y_axis_returns_excl_last,
            ):
                bad.append((spec, labels))
    return [], bad


def _check_engine_equivalence(total: int):
    bad = []
    table = series.truncated_counts(total, total, total)
    dp = series.walk_dp_counts(total, total, total)
    for m in range(total + 1):
        for n in range(total + 1 - m):
            for r in range(min(m, n) + 1):
                values = {
                    table[(m, n, r)],
                    dp[(n - r, m - r, m + n)],
                    _oracle_count(posets.TruncatedRectangle(m, n, r)),
                }
                if len(values) != 1:
                    bad.append(((m, n, r), sorted(values)))
    fs = series.typeA_F_coeffs(12)
    dpc = series.walk_dp_coeffs(12)
    for ell in range(13):
        if dict(fs[ell].coeffs) != dpc[ell]:
            bad.append(("F vs DP", ell))
    return [], bad


def _check_shift_map(total: int):
    bad = []
    for m in range(1, total):
        for n in range(1, total + 1 - m):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            target = posets.build_poset(posets.ChainProduct(m + 1, n))
            fulls = {
                target.labels_of(s)
                for s in posets.enumerate_ics(target)
                if bijections.is_full_ics(m + 1, n, target.labels_of(s), target)
            }
            images = set()
            for s in posets.enumerate_ics(poset):
                labels = poset.labels_of(s)
                if not posets.subset_stats(poset, s).hits_all_files:
                    continue
                image = bijections.shift_map(m, n, labels, poset)
                if bijections.shift_map_inverse(m + 1, n, image, target) != labels:
                    bad.append((m, n, labels, "round trip"))
                images.add(image)
            if images != fulls:
                bad.append((m, n, "image mismatch"))
    return [], bad


def _check_integer_recurrences(size: int, order: int):
    # the production integer recurrences against the literal Fraction/Newton
    # evaluation of the same closed forms, coefficient by coefficient
    pairs = [
        ("rectangle", series.rectangle_counts(size, size), series.rectangle_series(size, size)),
        ("bicolored", series.bicolored_counts(size, size), series.bicolored_series(size, size)),
        (
            "B-minuscule",
            {(n,): c for n, c in enumerate(series.b_minuscule_counts(order))},
            series.b_minuscule_series(order),
        ),
    ]
    bad = [
        (name, exp, value, reference[exp])
        for name, table, reference in pairs
        for exp, value in table.items()
        if reference[exp] != value
    ]
    return [], bad


def _check_recurrence_properties():
    # deep recurrence run: every step checks exponent cancellation and
    # non-negativity internally, so surviving to z^40 is the property
    fs = series.typeA_F_coeffs(40)
    ok = all(c > 0 for f in fs for c in f.coeffs.values())
    frame = (("x",), (12,))
    x = series.TruncatedSeries.variable(*frame, "x")
    sq = (1 - 4 * x).sqrt()
    inv = (1 - x).inverse()
    expected = [True, True, True]
    actual = [
        ok,
        sq * sq == (1 - 4 * x),
        (1 - x) * inv == series.TruncatedSeries.constant(*frame),
    ]
    return expected, actual


def run_checks(level: str = "quick") -> list[CheckRecord]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    full = level == "full"
    checks = [
        ("type-A sequence n=1..10", "paper-sequence", _check_type_a_sequence),
        ("B-minuscule sequence n=1..10", "paper-sequence", _check_b_minuscule_sequence),
        ("B-root sequence n=1..9", "paper-sequence", _check_b_root_sequence),
        ("rectangle closed forms n<=6", "closed-form", _check_rectangle_closed_forms),
        (
            "rectangle series vs oracle" + (" m+n<=9" if full else " m+n<=7"),
            "oracle",
            lambda: _rectangle_oracle(9 if full else 7),
        ),
        ("type-A counts vs oracle", "oracle", lambda: _check_type_a_oracle(6 if full else 5)),
        (
            "B-minuscule counts vs oracle",
            "oracle",
            lambda: _check_b_minuscule_oracle(7 if full else 5),
        ),
        ("B-root counts vs oracle", "oracle", lambda: _check_b_root_oracle(5 if full else 3)),
        ("Narayana full/file counts", "oracle", lambda: _check_narayana(8 if full else 6)),
        ("rectangle worked example", "paper-table", _check_rect_example),
        ("type-A worked example", "paper-table", _check_type_a_example),
        ("truncated worked example", "paper-table", _check_truncated_example),
        ("truncated series head", "paper-table", _check_truncated_series),
        ("three-chain table small", "paper-table", lambda: _check_three_chain([(2, 2, 2), (2, 2, 3)])),
        ("recurrence properties to z^40", "closed-form", _check_recurrence_properties),
        (
            "integer recurrences vs Fraction closed forms"
            + (" m,n<=10, order<=40" if full else " m,n<=6, order<=20"),
            "closed-form",
            lambda: _check_integer_recurrences(*((10, 40) if full else (6, 20))),
        ),
    ]
    if full:
        checks += [
            (
                "three-chain table full",
                "paper-table",
                lambda: _check_three_chain(sorted(THREE_CHAIN_TABLE)),
            ),
            ("Motzkin round trips m,n<=4", "oracle", lambda: _check_motzkin_roundtrips(4)),
            ("walk round trips m+n<=8", "oracle", lambda: _check_walk_roundtrips(8)),
            ("engine equivalence m+n<=8", "oracle", lambda: _check_engine_equivalence(8)),
            ("shift map bijection m+n<=7", "oracle", lambda: _check_shift_map(7)),
        ]
    records = []
    for name, source, fn in checks:
        start = time.perf_counter()
        expected, actual = fn()
        records.append(
            CheckRecord(
                name=name,
                expected=expected,
                actual=actual,
                source=source,
                passed=expected == actual,
                elapsed=time.perf_counter() - start,
            )
        )
    return records
