"""One-shot verification suite: recomputes every reference number at desk
scale and reports a pass/fail record per check.

Levels: "quick" runs 23 checks in about 0.2 s (among them the engine
equivalence of the truncated-rectangle table, the walk dynamic program and
the oracle to m + n <= 5, and round-trip and shift-map sweeps to m + n <= 4);
"full" runs 24 with the larger brute-force sweeps (oracle counts of every
rectangle with m + n <= 11 and of the type-A triangles to n = 20; three-chain
tables, round-trip and engine-equivalence sweeps to m + n <= 8, mirror counts
to B-minuscule n = 9 and B-root n = 6) and a deeper comparison of the integer
recurrences with the literal closed forms of icsets.reference, and takes
about 2.3 s (both timed in-process, without interpreter start, on a 2-vCPU
VM with Python 3.11.7; the reference engine and the walk round trips take
about 0.8 s each).  Each record carries a source tag:
paper-sequence / paper-table for published numbers, closed-form for formula
cross-checks, oracle for brute-force agreement.  Sets in a record are sorted
lists, so its text does not depend on how a set was built.  The pinned
numbers are tuples and read-only mappings, so no caller can edit them; a
record shows them as lists and dicts.  Each count of
one family is read through the family table, as `icsets count` serves it
(_served).  The records are the rows of one table, CHECKS.
"""

from __future__ import annotations

import time
from types import MappingProxyType

from . import bijections, paths, posets, reference, series

# Reference sequences (1-indexed by n).
TYPE_A_SEQUENCE = (1, 2, 8, 45, 307, 2385, 20362, 186812, 1814156, 18448851)
B_MINUSCULE_SEQUENCE = (2, 7, 26, 96, 356, 1331, 5014, 19006, 72412, 277058)
B_ROOT_SEQUENCE = (2, 13, 115, 1166, 12883, 150912, 1844322, 23276741, 301289155)
THREE_CHAIN_TABLE = MappingProxyType({
    (2, 2, 2): 101,
    (2, 2, 3): 526,
    (2, 2, 4): 2085,
    (2, 2, 5): 6793,
    (2, 3, 3): 5030,
    (2, 3, 4): 33792,
})

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

# Block sizes of the ordinal sums whose formula count is checked.
ORDINAL_SUM_BLOCKS = ((1,), (4,), (1, 1), (2, 3), (3, 1, 2), (1, 1, 1, 1), (2, 5, 1, 3), (4, 4, 4))

# Coefficients of z^0, z^1, z^2 in the printed truncated series head.
TRUNCATED_SERIES_HEAD = (
    MappingProxyType({(0, 0): 1}),
    MappingProxyType({(1, 0): 1, (0, 1): 1}),
    MappingProxyType({(0, 0): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1}),
)


class CheckRecord(posets._Value):
    __slots__ = ("name", "expected", "actual", "source", "passed", "elapsed")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "source": self.source,
            "pass": self.passed,
            "elapsed": round(self.elapsed, 3),
        }


def _served(spec, engine: str = "series") -> int | None:
    # the count `icsets count --method <engine>` serves: the family table's engine
    return getattr(posets.family_of(spec), engine)(spec)


def _against_oracle(specs, engine: str = "series"):
    specs = list(specs)
    return [_served(s, "oracle") for s in specs], [_served(s, engine) for s in specs]


def _mirror_count(square) -> int:
    return posets.enumerate_symmetric_ics(posets.build_poset(square), posets.vertical_involution(square))


def _motzkin_triple(word) -> tuple[int, int, int]:
    # the word's statistics in the order of the ICS's (cardinality, components, incomparable pairs)
    st = paths.motzkin_stats(word)
    return st.area, st.returns, st.axis_run_product_sum


def _walk_triple(walk) -> tuple[int, int, int]:
    # the walk's statistics in the order of the ICS's (cardinality, components, minimal members)
    st = paths.walk_stats(walk)
    return st.height_sum, st.x_axis_returns, st.y_axis_returns_excl_last


def _truncated_frames(total: int):
    # every truncated rectangle frame (m, n, r) with m + n <= total
    for m in range(total + 1):
        for n in range(total + 1 - m):
            for r in range(min(m, n) + 1):
                yield m, n, r


def _root_a(n):
    # the type-A sequence's n-th term counts rootA:n-1
    return posets.TypeARoot(n - 1)


def _check_sequence(pinned, spec_of):
    # a published sequence, 1-indexed by n, against the series count of spec_of(n)
    return list(pinned), [_served(spec_of(n)) for n in range(1, len(pinned) + 1)]


def _check_rectangle_closed_forms():
    rects = [posets.ChainProduct(m, n) for n in range(7) for m in (2, 3)]
    return [_served(s, "formula") for s in rects], [_served(s) for s in rects]


def _check_rectangle_oracle(limit: int):
    return _against_oracle(posets.ChainProduct(m, n) for m in range(limit + 1) for n in range(limit + 1 - m))


def _check_type_a_oracle(top: int):
    return _against_oracle(map(_root_a, range(1, top + 1)))


# each B family's half, and the square whose mirror-symmetric ICS it counts
_B_SQUARES = {
    posets.TypeBMinuscule: lambda n: posets.ChainProduct(n, n),
    posets.TypeBRoot: lambda n: posets.TypeARoot(2 * n - 1),
}


def _check_b_oracle(half_class, top: int):
    # each half counted directly and its square's mirror-symmetric ICS
    # counted, against the family's series engine
    expected, actual = [], []
    for n in range(1, top + 1):
        half = half_class(n)
        expected.extend([_served(half, "oracle"), _mirror_count(_B_SQUARES[half_class](n))])
        actual.extend([_served(half)] * 2)
    return expected, actual


def _check_narayana(total: int):
    # one pass over the ICS of each rectangle counts the full ones and, below
    # the largest size, the ones that hit every file
    expected, actual = [], []
    for m in range(1, total):
        for n in range(1, total + 1 - m):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            fulls = hitting = 0
            for s in posets.enumerate_ics(poset):
                fulls += bijections.is_full_ics(m, n, poset.labels_of(s))
                hitting += m + n < total and posets.subset_stats(poset, s).hits_all_files
            expected.extend([fulls, fulls])
            actual.extend([series.full_count(m, n), series.narayana(m + n - 1, n)])
            if m + n < total:
                expected.append(hitting)
                actual.append(series.narayana(m + n, n))
    return expected, actual


def _check_ordinal_sum_formula():
    return _against_oracle(map(posets.OrdinalSumAntichains, ORDINAL_SUM_BLOCKS), "formula")


def _check_rect_example():
    word = bijections.ics_to_motzkin(13, 14, RECT_EXAMPLE_ICS)
    _, _, back = bijections.motzkin_to_ics(word)
    expected = (RECT_EXAMPLE_WORD, RECT_EXAMPLE_STATS, sorted(RECT_EXAMPLE_ICS))
    return expected, (paths.motzkin_to_text(word), _motzkin_triple(word), sorted(back))


def _check_type_a_example():
    walk = bijections.ics_to_walk(posets.TypeARoot(5), TYPE_A_EXAMPLE_ICS)
    _, back = bijections.walk_to_ics(walk)
    expected = (TYPE_A_EXAMPLE_WALK, TYPE_A_EXAMPLE_STATS, sorted(TYPE_A_EXAMPLE_ICS))
    return expected, (paths.walk_to_text(walk), _walk_triple(walk), sorted(back))


def _check_truncated_example():
    walk = bijections.ics_to_walk(posets.TruncatedRectangle(4, 5, 1), TRUNCATED_EXAMPLE_ICS)
    _, back = bijections.walk_to_ics(walk)
    expected = (TRUNCATED_EXAMPLE_WALK, (4, 0), TRUNCATED_EXAMPLE_STATS, sorted(TRUNCATED_EXAMPLE_ICS))
    actual = (paths.walk_to_text(walk), (walk.start_x, walk.endpoint[1]), _walk_triple(walk), sorted(back))
    return expected, actual


def _check_truncated_series():
    head = series.truncated_series_head(2, 4)
    expected = [*map(dict, TRUNCATED_SERIES_HEAD), 24]
    actual = [head[0], head[1], head[2], _served(posets.TruncatedRectangle(3, 2, 1))]
    return expected, actual


def _check_three_chain(entries: int):
    keys = sorted(THREE_CHAIN_TABLE)[:entries]
    expected = [THREE_CHAIN_TABLE[k] for k in keys]
    actual = [_served(posets.ChainProduct3(*k), "oracle") for k in keys]
    return expected, actual


def _check_motzkin_roundtrips(top: int):
    bad = []
    for m in range(top + 1):
        for n in range(top + 1):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            for s in posets.enumerate_ics(poset):
                labels = poset.labels_of(s)
                word = bijections.ics_to_motzkin(m, n, labels)
                if bijections.motzkin_to_ics(word) != (m, n, labels):
                    bad.append((m, n, labels))
                    continue
                st = posets.subset_stats(poset, s)
                if (st.cardinality, st.component_count, st.incomparable_count) != _motzkin_triple(word):
                    bad.append((m, n, labels))
    return [], bad


def _walk_specs(total: int):
    # the root triangles grow with total (rootA:0..5 at total 8), so that a
    # small sweep stays small
    for k in range(total - 2):
        yield posets.TypeARoot(k)
    for frame in _truncated_frames(total):
        yield posets.TruncatedRectangle(*frame)


def _check_walk_roundtrips(total: int):
    bad = []
    for spec in _walk_specs(total):
        poset = posets.build_poset(spec)
        for s in posets.enumerate_ics(poset):
            labels = poset.labels_of(s)
            walk = bijections.ics_to_walk(spec, labels)
            if bijections.walk_to_ics(walk)[1] != labels:
                bad.append((spec, labels))
                continue
            st = posets.subset_stats(poset, s)
            if (st.cardinality, st.component_count, st.minimal_in_subset) != _walk_triple(walk):
                bad.append((spec, labels))
    return [], bad


def _check_engine_equivalence(total: int):
    bad = []
    table = series.truncated_counts(total, total, total)
    dp = series.walk_dp_counts(total, total, total)
    for m, n, r in _truncated_frames(total):
        frame = posets.TruncatedRectangle(m, n, r)
        values = {table[(m, n, r)], dp[(n - r, m - r, m + n)], _served(frame, "oracle"), _served(frame)}
        formula = _served(frame, "formula")  # None once both sides pass 3, or r > 0
        if formula is not None:
            values.add(formula)
        if len(values) != 1:
            bad.append(((m, n, r), sorted(values)))
    return [], bad


def _check_f_vs_walk_dp(top: int):
    fs, dpc = series.typeA_F_coeffs(top), series.walk_dp_coeffs(top)
    return [], [ell for ell in range(top + 1) if fs[ell] != dpc[ell]]


def _check_type_a_mirrors(top: int):
    # symmetric_typeA_counts counts the mirror-symmetric ICS of rootA:k at length k + 1
    expected = [_mirror_count(posets.TypeARoot(k)) for k in range(top + 1)]
    return expected, series.symmetric_typeA_counts(top + 1)[1:]


def _check_shift_map(total: int):
    bad = []
    for m in range(1, total):
        for n in range(1, total + 1 - m):
            poset = posets.build_poset(posets.ChainProduct(m, n))
            target = posets.build_poset(posets.ChainProduct(m + 1, n))
            fulls = {
                target.labels_of(s)
                for s in posets.enumerate_ics(target)
                if bijections.is_full_ics(m + 1, n, target.labels_of(s))
            }
            images = set()
            for s in posets.enumerate_ics(poset):
                labels = poset.labels_of(s)
                if not posets.subset_stats(poset, s).hits_all_files:
                    continue
                image = bijections.shift_map(m, n, labels)
                images.add(image)
                # the inverse takes only full ICS; an image outside them is an image mismatch
                if image in fulls and bijections.shift_map_inverse(m + 1, n, image) != labels:
                    bad.append((m, n, labels, "round trip"))
            if images != fulls:
                bad.append((m, n, "image mismatch"))
    return [], bad


def _check_integer_recurrences(size: int, order: int):
    # the production integer recurrences against the literal Fraction/Newton
    # evaluation of the same closed forms in reference, coefficient by coefficient
    pairs = [
        ("rectangle", series.rectangle_counts(size, size), reference.rectangle_series(size, size)),
        ("bicolored", series.bicolored_counts(size, size), reference.bicolored_series(size, size)),
        (
            "B-minuscule",
            {(n,): c for n, c in enumerate(series.b_minuscule_counts(order))},
            reference.b_minuscule_series(order),
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
    ok = all(c > 0 for f in fs for c in f.values())
    frame = (("x",), (12,))
    x = reference.TruncatedSeries.variable(*frame, "x")
    sq = (1 - 4 * x).sqrt()
    inv = (1 - x).inverse()
    expected = [True, True, True]
    actual = [
        ok,
        sq * sq == (1 - 4 * x),
        (1 - x) * inv == reference.TruncatedSeries.constant(*frame),
    ]
    return expected, actual


# One row per record: (name, source, check, quick arguments, full arguments).
# The arguments of the level go in for {} in the name; a row whose quick
# arguments are None runs only at full.
CHECKS = (
    ("type-A sequence n=1..10", "paper-sequence", _check_sequence, (TYPE_A_SEQUENCE, _root_a), (TYPE_A_SEQUENCE, _root_a)),
    ("B-minuscule sequence n=1..10", "paper-sequence", _check_sequence, (B_MINUSCULE_SEQUENCE, posets.TypeBMinuscule), (B_MINUSCULE_SEQUENCE, posets.TypeBMinuscule)),
    ("B-root sequence n=1..9", "paper-sequence", _check_sequence, (B_ROOT_SEQUENCE, posets.TypeBRoot), (B_ROOT_SEQUENCE, posets.TypeBRoot)),
    ("rectangle closed forms n<=6", "closed-form", _check_rectangle_closed_forms, (), ()),
    ("rectangle series vs oracle m+n<={}", "oracle", _check_rectangle_oracle, (7,), (11,)),
    ("type-A counts vs oracle", "oracle", _check_type_a_oracle, (5,), (20,)),
    ("B-minuscule counts vs oracle", "oracle", _check_b_oracle, (posets.TypeBMinuscule, 5), (posets.TypeBMinuscule, 9)),
    ("B-root counts vs oracle", "oracle", _check_b_oracle, (posets.TypeBRoot, 3), (posets.TypeBRoot, 6)),
    ("type-A mirror counts vs oracle k<={}", "oracle", _check_type_a_mirrors, (5,), (5,)),
    ("ordinal-sum formula vs oracle", "oracle", _check_ordinal_sum_formula, (), ()),
    ("Narayana full/file counts", "oracle", _check_narayana, (6,), (8,)),
    ("rectangle worked example", "paper-table", _check_rect_example, (), ()),
    ("type-A worked example", "paper-table", _check_type_a_example, (), ()),
    ("truncated worked example", "paper-table", _check_truncated_example, (), ()),
    ("truncated series head", "paper-table", _check_truncated_series, (), ()),
    ("three-chain table small", "paper-table", _check_three_chain, (2,), (2,)),
    ("recurrence properties to z^40", "closed-form", _check_recurrence_properties, (), ()),
    ("F vs walk DP l<={}", "closed-form", _check_f_vs_walk_dp, (12,), (12,)),
    ("integer recurrences vs Fraction closed forms m,n<={}, order<={}", "closed-form", _check_integer_recurrences, (6, 20), (10, 40)),
    ("three-chain table full", "paper-table", _check_three_chain, None, (len(THREE_CHAIN_TABLE),)),
    ("Motzkin round trips m,n<={}", "oracle", _check_motzkin_roundtrips, (2,), (4,)),
    ("walk round trips m+n<={}", "oracle", _check_walk_roundtrips, (4,), (8,)),
    ("engine equivalence m+n<={}", "oracle", _check_engine_equivalence, (5,), (8,)),
    ("shift map bijection m+n<={}", "oracle", _check_shift_map, (4,), (7,)),
)


def run_checks(level: str = "quick") -> list[CheckRecord]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    records = []
    for name, source, check, quick, full in CHECKS:
        args = quick if level == "quick" else full
        if args is None:
            continue
        start = time.perf_counter()
        try:
            expected, actual = check(*args)
        except Exception as exc:  # a check that raises fails its record
            expected, actual = "no exception", f"{type(exc).__name__}: {exc}"
        records.append(
            CheckRecord(
                name=name.format(*args),
                expected=expected,
                actual=actual,
                source=source,
                passed=expected == actual,
                elapsed=time.perf_counter() - start,
            )
        )
    return records
