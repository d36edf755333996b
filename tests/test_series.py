"""Series arithmetic, closed forms, recurrences, and the cross-check DP."""

import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

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
from icsets import series
from icsets.reference import (
    TruncatedSeries,
    b_minuscule_series,
    bicolored_series,
    enumerate_walks,
    rectangle_series,
)
from icsets.series import (
    NegativeExponentError,
    SeriesBudgetExceeded,
    _g_tables,
    b_minuscule_counts,
    b_root_counts,
    bicolored_counts,
    closed_form_count,
    full_count,
    narayana,
    rectangle_counts,
    symmetric_typeA_counts,
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


def test_sqrt_takes_no_inverse(monkeypatch):
    # one Newton loop on the inverse square root, three products a step
    def no_inverse(self):
        raise AssertionError("sqrt took an inverse")

    monkeypatch.setattr(TruncatedSeries, "inverse", no_inverse)
    frame = (("x", "y"), (6, 5))
    x = TruncatedSeries.variable(*frame, "x")
    y = TruncatedSeries.variable(*frame, "y")
    disc = (1 - x - y) * (1 - x - y) - 4 * x * y
    root = disc.sqrt()
    assert root * root == disc and root[(0, 0)] == 1
    # the root of 1 + 2x + x^2 is 1 + x, not -(1 + x)
    assert ((1 + x) * (1 + x)).sqrt() == 1 + x


def test_reference_series_handed_out_are_the_callers_own():
    # a cached series once handed its edits on to every later call
    rectangle_series(3, 3).coeffs[(3, 3)] = 7
    bicolored_series(3, 3).coeffs.clear()
    b_minuscule_series(3).coeffs.clear()
    assert rectangle_series(3, 3)[(3, 3)] == 114
    assert bicolored_series(3, 3)[(3, 3)] == 175
    assert b_minuscule_series(3)[(3,)] == 26


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


def test_budget():
    # each engine bounds the numbers it is given, not the z-order it steps to
    with pytest.raises(SeriesBudgetExceeded):
        rectangle_counts(41, 2)
    with pytest.raises(SeriesBudgetExceeded, match="^order 41 exceeds budget 40$"):
        typeA_counts(41)
    with pytest.raises(ValueError, match="^orders must be non-negative$"):
        truncated_counts(2, 2, -1)
    dp = walk_dp_coeffs(80)
    assert typeA_counts(40) == dp[80][(0, 0)]
    symmetric = sum(dp[80].values()) - sum(c for (i, j), c in dp[79].items() if j == 0 < i)
    assert b_root_counts(40) == symmetric


def test_ordinal_sum_formula_refuses_a_count_past_its_digit_budget():
    # checked from the sizes, before 2^99999999999 is computed
    with pytest.raises(
        SeriesBudgetExceeded,
        match=r"^ordinal-sum count of up to 30103000001 digits exceeds budget 100000 digits$",
    ):
        closed_form_count("ordinal_sum", [99999999999])
    assert closed_form_count("ordinal_sum", [20000]) == 2**20000


@pytest.mark.parametrize(
    "sizes", [(1,), (30,), (1, 1), (5, 3, 5), (1,) * 50, (200, 7), (64, 64, 64), (9, 1, 9, 1)]
)
def test_ordinal_sum_digit_bound_holds_and_is_close(sizes):
    digits = len(str(closed_form_count("ordinal_sum", sizes)))
    bound = series._ordinal_sum_digits(list(sizes))
    assert digits <= bound <= digits + 1 + len(sizes).bit_length()


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


@pytest.mark.parametrize("family", ["chain", "two_by_n", "three_by_n"])
@pytest.mark.parametrize("n", [-1, -5])
def test_closed_forms_refuse_a_negative_length(family, n):
    # two_by_n and three_by_n once gave 41 and 96 at n = -5, and 1 at n = -1
    with pytest.raises(ValueError, match=f"^{family} length must be >= 0$"):
        closed_form_count(family, n)


@pytest.mark.parametrize(
    "family, params, message",
    [
        # int() once read 2.5 as 2, True as 1, 3.0 as 3 and "2" as 2
        ("chain", 2.5, "chain length must be an int, got 2.5"),
        ("chain", True, "chain length must be an int, got True"),
        ("two_by_n", 3.0, "two_by_n length must be an int, got 3.0"),
        ("three_by_n", "2", "three_by_n length must be an int, got '2'"),
        # once a float, a count with True read as 1, and a TypeError from '<='
        ("ordinal_sum", [2.5], r"ordinal_sum sizes must be ints, got \[2.5\]"),
        ("ordinal_sum", [1, True], r"ordinal_sum sizes must be ints, got \[1, True\]"),
        ("ordinal_sum", ["3"], r"ordinal_sum sizes must be ints, got \['3'\]"),
        # once a bare TypeError: '...' object is not iterable
        ("ordinal_sum", 3, "ordinal_sum sizes must be a list of ints, got 3"),
        ("ordinal_sum", None, "ordinal_sum sizes must be a list of ints, got None"),
    ],
)
def test_closed_forms_refuse_a_value_that_is_no_int(family, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        closed_form_count(family, params)


# ---------------------------------------------------------------------------
# Narayana and full ICS


def test_full_count_examples():
    assert full_count(1, 1) == 1
    assert full_count(2, 2) == 3
    assert narayana(3, 2) == 3


def test_narayana_is_zero_outside_one_to_a():
    assert [narayana(3, b) for b in range(-2, 6)] == [0, 0, 0, 1, 3, 1, 0, 0]
    with pytest.raises(ValueError):
        narayana(0, 1)


def test_full_count_matches_brute_force():
    for m in range(1, 5):
        for n in range(1, 5):
            poset = build_poset(ChainProduct(m, n))
            brute = sum(
                1
                for s in enumerate_ics(poset)
                if is_full_ics(m, n, poset.labels_of(s))
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
    assert b_minuscule_counts(10) == [1, *B_MINUSCULE]


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


def test_b_minuscule_counts_reports_an_odd_halving(monkeypatch):
    # Cat(0) read as 2 instead of 1: the halvings give 1, 3, 13 and then
    # 2 * B_3 = 115, an odd number
    real = series.comb
    monkeypatch.setattr(series, "comb", lambda a, b: real(a, b) + (a == 0))
    with pytest.raises(ArithmeticError) as info:
        b_minuscule_counts(4)
    assert str(info.value) == "coefficient at (3,) is not an integer: 115/2"


# ---------------------------------------------------------------------------
# type A functional equation


def test_f1_is_x():
    assert typeA_F_coeffs(1) == [{(0, 0): 1}, {(1, 0): 1}]


def test_type_a_sequence():
    assert [typeA_counts(n) for n in range(1, 11)] == list(TYPE_A)
    assert typeA_counts(0) == 1


def test_type_a_oracle():
    for n in range(1, 6):
        assert typeA_counts(n) == count_ics(build_poset(TypeARoot(n - 1)))


def test_coefficients_are_nonnegative_to_deep_order():
    for f in typeA_F_coeffs(40):
        assert all(isinstance(c, int) and c > 0 for c in f.values())


def test_f_equals_walk_dp():
    assert typeA_F_coeffs(40) == walk_dp_coeffs(40)


def test_f_tables_handed_out_are_the_callers_own():
    fs = typeA_F_coeffs(6)
    fs[6][(0, 0)] = -1
    fs[5].clear()
    fs.append({})
    assert typeA_F_coeffs(6) == walk_dp_coeffs(6)
    assert typeA_counts(3) == TYPE_A[2]


def test_f_keeps_three_numbers_per_z_order():
    # in a fresh interpreter: every type A and B root count to n = 40 steps F
    # to z-order 80; keeping each of its tables held about 3 MiB
    script = (
        "import tracemalloc; tracemalloc.start()\n"
        "from icsets import series\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "for n in range(41): series.typeA_counts(n); series.b_root_counts(n)\n"
        "print(tracemalloc.get_traced_memory()[0] - base)\n"
    )
    src = str(Path(series.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20


def test_f_read_does_not_wait_for_a_pass_in_another_thread(monkeypatch):
    # a paused generator of F once raised "generator already executing" here
    monkeypatch.setattr(series, "_F_CACHE", [])
    entered, release = threading.Event(), threading.Event()
    advance = series._advance

    def first_step_waits(prev, prev2):
        if not entered.is_set():  # the worker's first step, before the main thread reads
            entered.set()
            release.wait(10)
        return advance(prev, prev2)

    monkeypatch.setattr(series, "_advance", first_step_waits)
    counts = {}
    worker = threading.Thread(target=lambda: counts.update(worker=typeA_counts(10)))
    worker.start()
    try:
        assert entered.wait(10)
        counts["main"] = typeA_counts(10)
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert counts == {"worker": 18448851, "main": 18448851}


def test_f_reads_from_more_threads_than_cores_agree(monkeypatch):
    # longer and shorter passes replace the cache while other threads read it
    ns = [16, 3, 11, 7, 14, 1, 9, 5, 12, 2, 15, 8, 4, 13, 6, 10]
    expected = {n: (typeA_counts(n), b_root_counts(n)) for n in ns}
    monkeypatch.setattr(series, "_F_CACHE", [])
    seen = []

    def reader(k):
        seen.append({n: (typeA_counts(n), b_root_counts(n)) for n in ns[k:] + ns[:k]})

    workers = [threading.Thread(target=reader, args=(k,)) for k in range(0, 16, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == [expected] * len(workers)


def test_f_reads_after_a_pass_that_raised(monkeypatch):
    # a paused generator of F was finished by one exception, and every later
    # read raised IndexError; RuntimeError stands in for Ctrl-C or MemoryError
    monkeypatch.setattr(series, "_F_CACHE", [])
    advance = series._advance

    def fail_once(prev, prev2):
        monkeypatch.setattr(series, "_advance", advance)
        raise RuntimeError("injected")

    monkeypatch.setattr(series, "_advance", fail_once)
    with pytest.raises(RuntimeError, match="^injected$"):
        typeA_counts(10)
    assert series._F_CACHE == []
    assert b_root_counts(12) == 728506957238
    assert typeA_counts(12) == 2126727740


def test_type_a_counts_equal_the_walk_dp_to_the_budget():
    # the walk DP shares no code with the G recurrence behind typeA_counts
    dp = walk_dp_counts(0, 0, 80)
    for n in range(41):
        assert typeA_counts(n) == dp[(0, 0, 2 * n)]


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
    assert [b_root_counts(n) for n in range(1, 10)] == list(B_ROOT)


def test_b_root_reads_the_symmetric_count_at_even_length():
    symmetric = symmetric_typeA_counts(40)
    assert [b_root_counts(n) for n in range(21)] == symmetric[::2]


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
    # the walks from (h, 0) to (i, 0) and from (i, 0) to (h, 0), per order
    for gs in zip(*(_g_tables(8, h) for h in range(9))):
        for h, g in enumerate(gs):
            for (i, j), c in g.items():
                if j == 0 and i <= 8:
                    assert gs[i].get((h, 0), 0) == c


def test_each_start_of_g_equals_the_walk_dp():
    for h in range(9):
        assert list(_g_tables(16, h)) == walk_dp_coeffs(16, h)


def test_one_start_count_equals_the_table():
    # count trunc:MxN:R's series engine steps only the start N - R
    table = truncated_counts(20, 20)
    for (m, n, r), c in table.items():
        assert truncated_counts(m, n, start=n - r)[(m, n, r)] == c
    for h in range(21):
        assert truncated_counts(20, 20, start=h) == {k: c for k, c in table.items() if k[1] - k[2] == h}


def test_one_start_table_keeps_the_budget():
    assert truncated_counts(3, 2, start=1)[(3, 2, 1)] == 24
    with pytest.raises(SeriesBudgetExceeded, match="^order 41 exceeds budget 40$"):
        truncated_counts(3, 41, start=1)


@pytest.mark.parametrize("start", [-1, 3, 9, True, 2.0, "1"])
def test_one_start_table_refuses_a_start_outside_the_table(start):
    # each of these once read as start 1 or 2, or gave {} without a word
    message = f"start must be an int from 0 to nmax = 2, got {start!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        truncated_counts(3, 2, start=start)


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


@pytest.mark.parametrize(
    "call, value",
    [
        # typeA_counts(2.5) once raised a slice-index TypeError, and typeA_counts(True) gave 1
        (lambda: typeA_counts(2.5), 2.5),
        (lambda: typeA_counts(True), True),
        (lambda: rectangle_counts(2, 2.0), 2.0),
        (lambda: truncated_counts(2, 2, True), True),
        (lambda: b_minuscule_counts("3"), "3"),
    ],
)
def test_the_budget_refuses_an_order_that_is_not_an_int(call, value):
    with pytest.raises(ValueError, match=f"^orders must be ints, got {re.escape(repr(value))}$"):
        call()


@pytest.mark.parametrize("args", [(2.0, 0), (2, 1.5), (True, 0)])
def test_walk_dp_coeffs_refuses_a_number_that_is_not_an_int(args):
    with pytest.raises(ValueError, match=re.escape(f"order and start must be ints, got {args[0]!r} and {args[1]!r}")):
        walk_dp_coeffs(*args)


@pytest.mark.parametrize("args", [(1.0, 2, 6), (1, True, 6), (1, 2, 6.0)])
def test_walk_dp_counts_refuses_a_number_that_is_not_an_int(args):
    message = f"hmax, smax and lmax must be ints, got {args[0]!r}, {args[1]!r} and {args[2]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        walk_dp_counts(*args)


@pytest.mark.parametrize("args", [(3.0, 2), (3, 2.0), (True, 1)])
def test_narayana_refuses_a_number_that_is_not_an_int(args):
    with pytest.raises(ValueError, match=re.escape(f"Narayana numbers need ints, got {args[0]!r} and {args[1]!r}")):
        narayana(*args)


@pytest.mark.parametrize("args", [(2.0, 2), (2, True)])
def test_full_count_refuses_a_number_that_is_not_an_int(args):
    with pytest.raises(ValueError, match=re.escape(f"full ICS counting needs ints, got {args[0]!r} and {args[1]!r}")):
        full_count(*args)


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


@pytest.mark.parametrize("args", [(-1, 2, 6), (1, -1, 6), (1, 2, -1)])
def test_walk_dp_counts_refuses_a_negative_argument(args):
    # a negative hmax or smax once gave {}, while walk_dp_coeffs refuses a negative start
    with pytest.raises(ValueError, match="^hmax, smax and lmax must be non-negative$"):
        walk_dp_counts(*args)


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
