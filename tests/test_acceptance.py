"""Acceptance suite: every reference number and sweep, at its stated
tolerance (all exact), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v` (or `icsets verify --level
full` for the CLI equivalent).
"""

import time
from fractions import Fraction

from icsets import bijections, paths, posets, series
from icsets.verify import B_MINUSCULE_SEQUENCE as B_MINUSCULE
from icsets.verify import B_ROOT_SEQUENCE as B_ROOT
from icsets.verify import RECT_EXAMPLE_ICS as RECT_ICS
from icsets.verify import RECT_EXAMPLE_WORD as RECT_WORD
from icsets.verify import THREE_CHAIN_TABLE as THREE_CHAIN
from icsets.verify import TRUNCATED_EXAMPLE_ICS as TRUNCATED_ICS
from icsets.verify import TRUNCATED_EXAMPLE_WALK as TRUNCATED_WALK
from icsets.verify import TRUNCATED_SERIES_HEAD as SERIES_HEAD
from icsets.verify import TYPE_A_EXAMPLE_ICS as TRIANGLE_ICS
from icsets.verify import TYPE_A_EXAMPLE_WALK as TRIANGLE_WALK
from icsets.verify import TYPE_A_SEQUENCE as TYPE_A

class _Timer:
    def __init__(self, criterion, budget):
        self.criterion = criterion
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget, f"criterion over budget: {elapsed:.1f}s"
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def _oracle(spec):
    return posets.count_ics(posets.build_poset(spec))


def test_criterion_1_rectangle_counts():
    with _Timer("1 rectangle counts", 60):
        table = series.rectangle_counts(9, 9)
        for m in range(10):
            for n in range(10 - m):
                assert table[(m, n)] == _oracle(posets.ChainProduct(m, n)), (m, n)
                assert table[(m, n)] == len(paths.enumerate_motzkin(m, n)), (m, n)
        for n in range(7):
            assert table[(2, n)] == series.closed_form_count("two_by_n", n)
            assert table[(3, n)] == series.closed_form_count("three_by_n", n)


def test_criterion_2_type_a_sequence():
    with _Timer("2 type-A sequence", 5):
        assert [series.typeA_counts(n) for n in range(1, 11)] == TYPE_A
        for n in range(1, 7):
            assert series.typeA_counts(n) == _oracle(posets.TypeARoot(n - 1))


def test_criterion_3_b_minuscule_sequence():
    with _Timer("3 B-minuscule sequence", 5):
        assert series.b_minuscule_counts(10)[1:] == B_MINUSCULE
        for n in range(1, 7):
            want = series.b_minuscule_counts(n)[n]
            assert want == _oracle(posets.TypeBMinuscule(n))
            square = posets.build_poset(posets.ChainProduct(n, n))
            mirror = posets.vertical_involution(posets.ChainProduct(n, n))
            assert want == posets.enumerate_symmetric_ics(square, mirror)


def test_criterion_4_b_root_sequence():
    with _Timer("4 B-root sequence", 10):
        assert [series.b_root_counts(n) for n in range(1, 10)] == B_ROOT
        for n in range(1, 5):
            want = series.b_root_counts(n)
            assert want == _oracle(posets.TypeBRoot(n))
            triangle = posets.build_poset(posets.TypeARoot(2 * n - 1))
            mirror = posets.vertical_involution(posets.TypeARoot(2 * n - 1))
            assert want == posets.enumerate_symmetric_ics(triangle, mirror)


def test_criterion_5_truncated_rectangles():
    with _Timer("5 truncated rectangles", 120):
        table = series.truncated_counts(8, 8)
        assert table[(3, 2, 1)] == 24
        assert _oracle(posets.TruncatedRectangle(3, 2, 1)) == 24
        dp = series.walk_dp_counts(8, 8, 16)
        for m in range(9):
            for n in range(9 - m):
                for r in range(min(m, n) + 1):
                    brute = _oracle(posets.TruncatedRectangle(m, n, r))
                    assert table[(m, n, r)] == brute, (m, n, r)
                    assert dp[(n - r, m - r, m + n)] == brute, (m, n, r)
        head = series.truncated_series_head(2, 4)
        assert head[0] == SERIES_HEAD[0]
        assert head[1] == SERIES_HEAD[1]
        assert head[2] == SERIES_HEAD[2]


def test_criterion_6_narayana():
    with _Timer("6 Narayana", 120):
        for m in range(1, 8):
            for n in range(1, 9 - m):
                poset = posets.build_poset(posets.ChainProduct(m, n))
                fulls = sum(
                    1
                    for s in posets.enumerate_ics(poset)
                    if bijections.is_full_ics(m, n, poset.labels_of(s), poset)
                )
                assert fulls == series.full_count(m, n) == series.narayana(m + n - 1, n)
                if m + n <= 7:
                    hitting = sum(
                        1
                        for s in posets.enumerate_ics(poset)
                        if posets.subset_stats(poset, s).hits_all_files
                    )
                    assert hitting == series.narayana(m + n, n)
        # shift map: injective, onto the full ICS one column over, invertible
        for m in range(1, 6):
            for n in range(1, 8 - m):
                source = posets.build_poset(posets.ChainProduct(m, n))
                target = posets.build_poset(posets.ChainProduct(m + 1, n))
                eligible = [
                    source.labels_of(s)
                    for s in posets.enumerate_ics(source)
                    if posets.subset_stats(source, s).hits_all_files
                ]
                fulls = {
                    target.labels_of(s)
                    for s in posets.enumerate_ics(target)
                    if bijections.is_full_ics(m + 1, n, target.labels_of(s), target)
                }
                images = {
                    bijections.shift_map(m, n, labels, source) for labels in eligible
                }
                assert len(images) == len(eligible)
                assert images == fulls
                for labels in eligible:
                    image = bijections.shift_map(m, n, labels, source)
                    assert bijections.shift_map_inverse(m + 1, n, image, target) == labels


def test_criterion_7_round_trips_and_transport():
    with _Timer("7 round trips and statistics", 120):
        for m in range(5):
            for n in range(5):
                poset = posets.build_poset(posets.ChainProduct(m, n))
                for s in posets.enumerate_ics(poset):
                    labels = poset.labels_of(s)
                    word = bijections.ics_to_motzkin(m, n, labels, poset)
                    assert bijections.motzkin_to_ics(word) == (m, n, labels)
                    st = posets.subset_stats(poset, s)
                    ms = paths.motzkin_stats(word)
                    assert st.cardinality == ms.area
                    assert st.component_count == ms.returns
                    assert st.incomparable_count == ms.axis_run_product_sum
        specs = [posets.TypeARoot(k) for k in range(6)]
        specs += [
            posets.TruncatedRectangle(m, n, r)
            for m in range(9)
            for n in range(9 - m)
            for r in range(min(m, n) + 1)
        ]
        for spec in specs:
            poset = posets.build_poset(spec)
            for s in posets.enumerate_ics(poset):
                labels = poset.labels_of(s)
                walk = bijections.ics_to_walk(spec, labels, poset)
                assert bijections.walk_to_ics(walk)[1] == labels
                st = posets.subset_stats(poset, s)
                ws = paths.walk_stats(walk)
                assert st.cardinality == ws.height_sum
                assert st.component_count == ws.x_axis_returns
                assert st.minimal_in_subset == ws.y_axis_returns_excl_last


def test_criterion_8_worked_examples():
    with _Timer("8 worked examples", 60):
        word = bijections.ics_to_motzkin(13, 14, RECT_ICS)
        assert paths.motzkin_to_text(word) == RECT_WORD
        ms = paths.motzkin_stats(word)
        assert (ms.area, ms.returns, ms.axis_run_product_sum) == (20, 3, 5)
        assert bijections.motzkin_to_ics(word) == (13, 14, RECT_ICS)

        walk = bijections.ics_to_walk(posets.TypeARoot(5), TRIANGLE_ICS)
        assert paths.walk_to_text(walk) == TRIANGLE_WALK
        ws = paths.walk_stats(walk)
        assert (ws.height_sum, ws.x_axis_returns, ws.y_axis_returns_excl_last) == (3, 2, 1)

        walk = bijections.ics_to_walk(posets.TruncatedRectangle(4, 5, 1), TRUNCATED_ICS)
        assert paths.walk_to_text(walk) == TRUNCATED_WALK
        assert (walk.start_x, walk.endpoint) == (4, (3, 0))
        ws = paths.walk_stats(walk)
        assert (ws.height_sum, ws.x_axis_returns, ws.y_axis_returns_excl_last) == (11, 1, 1)


def test_criterion_9_three_chain_table():
    with _Timer("9 three-chain table", 300):
        for (l, m, n), want in sorted(THREE_CHAIN.items()):
            assert _oracle(posets.ChainProduct3(l, m, n)) == want, (l, m, n)


def test_criterion_10_property_suites():
    with _Timer("10 property suites", 120):
        # recurrence to z^40: every step asserts exponent cancellation and
        # integer non-negativity internally
        for f in series.typeA_F_coeffs(40):
            assert all(isinstance(c, int) and c > 0 for c in f.coeffs.values())
        # functional-equation residual vanishes on the independent DP tables
        dp = series.walk_dp_coeffs(12)
        for ell in range(1, 13):
            residual = {}

            def add(key, c):
                residual[key] = residual.get(key, Fraction(0)) + c

            for (i, j), c in dp[ell].items():
                add((i, j), Fraction(c))
            for (i, j), c in dp[ell - 1].items():
                add((i + 1, j), -Fraction(c))
                add((i - 1, j), -Fraction(c))
                add((i + 1, j - 1), -Fraction(c))
                add((i - 1, j + 1), -Fraction(c))
                if i == 0:
                    add((i - 1, j), Fraction(c))
                    add((i - 1, j + 1), Fraction(c))
                if j == 0:
                    add((i + 1, j - 1), Fraction(c))
            if ell >= 2:
                for (i, j), c in dp[ell - 2].items():
                    if j == 0 and i > 0:
                        add((i, j), Fraction(c))
            assert all(c == 0 for c in residual.values()), ell
        # sqrt and division invert themselves
        x = series.TruncatedSeries.variable(("x", "y"), (8, 8), "x")
        y = series.TruncatedSeries.variable(("x", "y"), (8, 8), "y")
        poly = (1 - x - y) * (1 - x - y) - 4 * x * y
        assert poly.sqrt() * poly.sqrt() == poly
        assert (1 - x * y) * (1 - x * y).inverse() == series.TruncatedSeries.constant(
            ("x", "y"), (8, 8)
        )
        # enumeration orders are deterministic and ascending
        poset = posets.build_poset(posets.ChainProduct(2, 3))
        first = list(posets.enumerate_ics(poset))
        assert first == list(posets.enumerate_ics(poset))
        masks = [poset.mask_of(s) for s in first]
        assert masks == sorted(masks)
        assert [w.steps for w in paths.enumerate_motzkin(3, 3)] == [
            w.steps for w in paths.enumerate_motzkin(3, 3)
        ]
        assert [w.steps for w in paths.enumerate_walks(1, 1, 6)] == [
            w.steps for w in paths.enumerate_walks(1, 1, 6)
        ]
