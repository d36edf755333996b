"""Series arithmetic, closed forms, recurrences, and the cross-check DP."""

from fractions import Fraction

import pytest

from icsets.posets import (
    ChainProduct,
    TruncatedRectangle,
    TypeARoot,
    TypeBMinuscule,
    TypeBRoot,
    build_poset,
    count_ics,
    enumerate_ics,
    enumerate_symmetric_ics,
    subset_stats,
    vertical_involution,
)
from icsets.bijections import is_full_ics
from icsets.paths import enumerate_walks
from icsets.series import (
    NegativeExponentError,
    SeriesBudgetExceeded,
    TruncatedSeries,
    b_minuscule_counts,
    b_minuscule_series,
    b_root_counts,
    bicolored_counts,
    bicolored_series,
    closed_form_count,
    full_count,
    narayana,
    rectangle_counts,
    rectangle_series,
    series_from_json,
    symmetric_typeA_counts,
    truncated_coeffs,
    truncated_counts,
    truncated_series_head,
    typeA_F_coeffs,
    typeA_counts,
    walk_dp_coeffs,
    walk_dp_counts,
)
from icsets.verify import B_MINUSCULE_SEQUENCE as B_MINUSCULE
from icsets.verify import B_ROOT_SEQUENCE as B_ROOT
from icsets.verify import TRUNCATED_SERIES_HEAD as SERIES_HEAD
from icsets.verify import TYPE_A_SEQUENCE as TYPE_A



# ---------------------------------------------------------------------------
# truncated series arithmetic


def test_sqrt_of_one():
    one = TruncatedSeries.constant(("x",), (5,))
    assert one.sqrt() == one


def test_sqrt_catalan():
    x = TruncatedSeries.variable(("x",), (3,), "x")
    s = (1 - 4 * x).sqrt()
    assert [s[(k,)] for k in range(4)] == [1, -2, -2, -4]
    assert s * s == 1 - 4 * x


def test_inverse_pair():
    x = TruncatedSeries.variable(("x",), (6,), "x")
    geom = (1 - x).inverse()
    assert all(geom[(k,)] == 1 for k in range(7))
    assert (1 - x) * geom == TruncatedSeries.constant(("x",), (6,))


def test_division_and_errors():
    x = TruncatedSeries.variable(("x",), (4,), "x")
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    with pytest.raises(ValueError):
        (2 + x).sqrt()  # constant term 2
    with pytest.raises(ValueError):
        (1 + x).shift_down(x=1)


def test_json_roundtrip():
    series = rectangle_series(3, 3)
    again = series_from_json(series.to_json_dict(), series.trunc)
    assert again == series


def test_budget():
    with pytest.raises(SeriesBudgetExceeded):
        rectangle_counts(41, 2)
    with pytest.raises(SeriesBudgetExceeded):
        typeA_counts(21)


# ---------------------------------------------------------------------------
# rectangle generating function


def test_rectangle_row_zero_and_symmetry():
    table = rectangle_counts(6, 6)
    assert all(table[(0, n)] == 1 for n in range(7))
    assert all(table[(m, n)] == table[(n, m)] for m in range(7) for n in range(7))


def test_rectangle_matches_oracle():
    table = rectangle_counts(4, 4)
    for m in range(5):
        for n in range(5):
            assert table[(m, n)] == count_ics(build_poset(ChainProduct(m, n)))


def test_rectangle_fixed_rows_match_polynomials():
    table = rectangle_counts(3, 7)
    for n in range(8):
        assert table[(2, n)] == closed_form_count("two_by_n", n)
        assert table[(3, n)] == closed_form_count("three_by_n", n)


def test_closed_forms():
    assert closed_form_count("chain", 4) == 11
    assert closed_form_count("ordinal_sum", [2, 1]) == 8
    assert closed_form_count("three_by_n", 3) == 114
    with pytest.raises(ValueError):
        closed_form_count("nope", 1)
    with pytest.raises(ValueError):
        closed_form_count("ordinal_sum", [0])


# ---------------------------------------------------------------------------
# Narayana and full ICS


def test_full_count_examples():
    assert full_count(1, 1) == 1
    assert full_count(2, 2) == 3
    assert narayana(3, 2) == 3


def test_full_count_matches_brute_force():
    for m in range(1, 5):
        for n in range(1, 5):
            poset = build_poset(ChainProduct(m, n))
            brute = sum(
                1
                for s in enumerate_ics(poset)
                if is_full_ics(m, n, poset.labels_of(s), poset)
            )
            assert full_count(m, n) == brute == narayana(m + n - 1, n)


def test_file_hitting_count_is_narayana():
    for m in range(1, 8):
        for n in range(1, 9 - m):
            poset = build_poset(ChainProduct(m, n))
            brute = sum(
                1
                for s in enumerate_ics(poset)
                if subset_stats(poset, s).hits_all_files
            )
            assert brute == narayana(m + n, n)


def _frame_coefficients(series, mmax, nmax):
    return {
        (m, n): series.integer_coefficient((m, n))
        for m in range(mmax + 1)
        for n in range(nmax + 1)
    }


@pytest.mark.parametrize("mmax,nmax", [(10, 10), (3, 9)])
def test_integer_tables_match_fraction_engine(mmax, nmax):
    assert rectangle_counts(mmax, nmax) == _frame_coefficients(
        rectangle_series(mmax, nmax), mmax, nmax
    )
    assert bicolored_counts(mmax, nmax) == _frame_coefficients(
        bicolored_series(mmax, nmax), mmax, nmax
    )


def test_rectangle_order_40_rows_and_symmetry():
    table = rectangle_counts(40, 40)
    for n in range(41):
        assert table[(2, n)] == closed_form_count("two_by_n", n)
        assert table[(3, n)] == closed_form_count("three_by_n", n)
    assert all(table[(m, n)] == table[(n, m)] for m in range(41) for n in range(41))


def test_bicolored_counts_are_nonnegative():
    table = bicolored_counts(5, 5)
    assert all(v >= 0 for v in table.values())
    assert table[(0, 0)] == 1


# ---------------------------------------------------------------------------
# staircase minuscule


def test_b_minuscule_sequence():
    assert b_minuscule_counts(10) == [1] + B_MINUSCULE


def test_b_minuscule_oracle():
    for n in range(1, 5):
        direct = count_ics(build_poset(TypeBMinuscule(n)))
        square = build_poset(ChainProduct(n, n))
        mirrored = enumerate_symmetric_ics(square, vertical_involution(ChainProduct(n, n)))
        assert b_minuscule_counts(n)[n] == direct == mirrored


def test_b_minuscule_integer_recurrence_matches_fraction_engine():
    series = b_minuscule_series(40)
    assert b_minuscule_counts(40) == [series.integer_coefficient((n,)) for n in range(41)]


def test_b_minuscule_series_has_integer_coefficients():
    series = b_minuscule_series(12)
    assert all(c.denominator == 1 for c in series.coeffs.values())


# ---------------------------------------------------------------------------
# type A functional equation


def test_f1_is_x():
    fs = typeA_F_coeffs(1)
    assert dict(fs[0].coeffs) == {(0, 0): 1}
    assert dict(fs[1].coeffs) == {(1, 0): 1}


def test_type_a_sequence():
    assert [typeA_counts(n) for n in range(1, 11)] == TYPE_A
    assert typeA_counts(0) == 1


def test_type_a_oracle():
    for n in range(1, 6):
        assert typeA_counts(n) == count_ics(build_poset(TypeARoot(n - 1)))


def test_coefficients_are_nonnegative_to_deep_order():
    for f in typeA_F_coeffs(40):
        assert all(isinstance(c, int) and c > 0 for c in f.coeffs.values())


def test_f_equals_walk_dp():
    fs = typeA_F_coeffs(12)
    dp = walk_dp_coeffs(12)
    for ell in range(13):
        assert dict(fs[ell].coeffs) == dp[ell]


def _axis_slice(table, axis):
    # axis 0: x = 0 slice as a function of y; axis 1: y = 0 slice of x
    return {k: c for k, c in table.items() if k[axis] == 0}


def test_functional_equation_residual_on_dp_tables():
    """The DP engine knows only the step rules; check it satisfies the
    functional equation coefficientwise, negative exponents cancelling."""
    dp = walk_dp_coeffs(10)
    for ell in range(1, 11):
        residual: dict[tuple[int, int], Fraction] = {}

        def add(key, c):
            residual[key] = residual.get(key, Fraction(0)) + c

        for (i, j), c in dp[ell].items():
            add((i, j), Fraction(c))
        for (i, j), c in dp[ell - 1].items():
            add((i + 1, j), -Fraction(c))  # z * x * F
            add((i - 1, j), -Fraction(c))  # z * (1/x) * F
            add((i + 1, j - 1), -Fraction(c))  # z * (x/y) * F
            add((i - 1, j + 1), -Fraction(c))  # z * (y/x) * F
        for (i, j), c in _axis_slice(dp[ell - 1], 0).items():
            add((i - 1, j), Fraction(c))  # + z * (1/x) * F(0, y)
            add((i - 1, j + 1), Fraction(c))  # + z * (y/x) * F(0, y)
        for (i, j), c in _axis_slice(dp[ell - 1], 1).items():
            add((i + 1, j - 1), Fraction(c))  # + z * (x/y) * F(x, 0)
        if ell >= 2:
            for (i, j), c in _axis_slice(dp[ell - 2], 1).items():
                if i > 0:
                    add((i, j), Fraction(c))  # + z^2 (F(x,0) - F(0,0))
        assert all(c == 0 for c in residual.values()), (ell, residual)


# ---------------------------------------------------------------------------
# symmetric walks and the type B root poset


def test_symmetric_counts_small():
    assert symmetric_typeA_counts(6) == [1, 1, 2, 4, 13, 33, 115]


def test_b_root_sequence():
    assert [b_root_counts(n) for n in range(1, 10)] == B_ROOT


def test_b_root_oracle():
    for n in range(1, 4):
        assert b_root_counts(n) == count_ics(build_poset(TypeBRoot(n)))
    for n in range(1, 4):
        tri = build_poset(TypeARoot(2 * n - 1))
        assert b_root_counts(n) == enumerate_symmetric_ics(
            tri, vertical_involution(TypeARoot(2 * n - 1))
        )


def test_symmetric_counts_match_mirror_oracle():
    for k in range(1, 7):
        tri = build_poset(TypeARoot(k - 1))
        sym = enumerate_symmetric_ics(tri, vertical_involution(TypeARoot(k - 1)))
        assert symmetric_typeA_counts(k)[k] == sym


# ---------------------------------------------------------------------------
# truncated rectangles


def test_printed_series_head():
    head = truncated_series_head(2, 4)
    assert head[0] == SERIES_HEAD[0]
    assert head[1] == SERIES_HEAD[1]
    assert head[2] == SERIES_HEAD[2]


def test_truncated_example_coefficient():
    assert truncated_counts(3, 2)[(3, 2, 1)] == 24
    assert truncated_counts(3, 2)[(3, 2, 1)] == count_ics(
        build_poset(TruncatedRectangle(3, 2, 1))
    )
    assert len(enumerate_walks(1, 2, 5)) == 24


def test_truncated_zero_truncation_is_rectangle():
    table = truncated_counts(4, 4)
    rect = rectangle_counts(4, 4)
    for m in range(5):
        for n in range(5):
            assert table[(m, n, 0)] == rect[(m, n)]


def test_truncated_diagonal_is_type_a():
    table = truncated_counts(5, 5)
    for n in range(6):
        assert table[(n, n, n)] == typeA_counts(n)


def test_truncated_symmetry():
    gs = truncated_coeffs(8, 8)
    for g in gs:
        for (h, i, j), c in g.coeffs.items():
            if j == 0 and i <= 8:
                assert g[(i, h, 0)] == c


def test_engine_equivalence_sweep():
    table = truncated_counts(6, 6)
    dp = walk_dp_counts(6, 6, 12)
    for m in range(7):
        for n in range(7 - m):
            for r in range(min(m, n) + 1):
                assert table[(m, n, r)] == dp[(n - r, m - r, m + n)]
                if m + n <= 7:
                    assert table[(m, n, r)] == count_ics(
                        build_poset(TruncatedRectangle(m, n, r))
                    )


@pytest.mark.parametrize("mmax,nmax", [(6, 6), (7, 3), (3, 7), (0, 5), (12, 12)])
def test_truncated_total_restricts_the_box(mmax, nmax):
    box = truncated_counts(mmax, nmax)
    dp = walk_dp_counts(nmax, mmax, mmax + nmax)
    for total in range(13):
        table = truncated_counts(mmax, nmax, total)
        assert list(table) == sorted(table)
        assert table == {k: c for k, c in box.items() if k[0] + k[1] <= total}
        for (m, n, r), c in table.items():
            assert c == dp[(n - r, m - r, m + n)]
    assert truncated_counts(mmax, nmax, mmax + nmax + 5) == box


def test_truncated_total_must_be_non_negative():
    with pytest.raises(ValueError, match="orders must be non-negative"):
        truncated_counts(3, 3, -1)


def test_truncated_counts_memory_to_printed_order():
    import tracemalloc

    tracemalloc.start()
    try:
        truncated_counts(20, 20, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_walk_dp_examples():
    dp = walk_dp_counts(1, 2, 6)
    assert dp[(0, 0, 2)] == 1
    assert dp[(0, 0, 6)] == 8
    assert dp[(1, 2, 5)] == 24


def test_advance_cancels_boundary_exponents():
    from icsets.series import _advance

    # mass on both axes exercises every 1/x and x/y shift; all the negative
    # exponents they create must be gone from the result
    out = _advance({(0, 0): 1, (0, 2): 3, (2, 0): 5}, {})
    assert all(i >= 0 and j >= 0 for i, j in out)
    assert _advance({(0, 0): 1}, {}) == {(1, 0): 1}  # origin can only step E


def test_advance_rejects_negative_counts():
    from icsets.series import _advance

    # prev2 carrying more axis mass than walks allow drives a count negative
    with pytest.raises(NegativeExponentError):
        _advance({(1, 0): 1}, {(2, 0): 99})
