"""Exact generating-function engines for interval-closed set counting.

Three independent routes to the same numbers live here:

  * closed forms -- the rectangle series
    A(x, y) = 2/(1 - x - y + 2xy + sqrt((1-x-y)^2 - 4xy)), the bicolored
    Motzkin series C with C = 1 + (x+y)C + xyC^2, Narayana numbers, the
    staircase-minuscule series, and per-family polynomial formulas.  The
    counts are read off integer convolution recurrences derived from the
    closed forms; icsets.reference evaluates the same formulas literally
    over exact rationals, and the tests and verify compare the two;

  * a per-z coefficient recurrence for the walk generating function
    G(t, x, y, z) of the walks from (h, 0), h tracked by t, driven by the
    functional equation

      G = 1/(1-tx) + z(x + 1/x + x/y + y/x) G
          - z(1/x + y/x) G(0,y) - z(x/y) G(x,0) - z^2 (G(x,0) - G(0,0)).

    F(x, y, z), which counts the walks from the origin, is G started at the
    origin: the t^0 slice, with [init] = 1.  One engine steps both, one
    start h at a time, on keys (x, y): the t^h slice of G counts the walks
    from (h, 0).  Multiplication by 1/x and x/y is carried out on an
    extended exponent range; every negative exponent must cancel exactly,
    and failure to cancel is a hard error, never a silent truncation.
    Between calls, F is kept as three numbers per z-order, the only ones
    its counts read: the walks back at the origin, all walks, and the
    walks that end on the x-axis off the origin.  A read past the kept
    orders steps F afresh, in one pass to the order it reads, and replaces
    them; so a loop of reads is cheapest largest order first.  Nothing else
    is kept between calls;

  * a boundary-flagged dynamic program over walk states (x, y, flag) that
    knows nothing about the functional equation and serves as the
    cross-check engine.

All arithmetic is over Python integers; exactness is asserted wherever a
count is read off a division.
"""

from __future__ import annotations

from math import comb
from operator import mul

ORDER_BUDGET = 40
# printing a count of 100,000 digits takes about 0.2 s (2-vCPU VM, Python 3.11)
ORDINAL_SUM_DIGIT_BUDGET = 100_000


class SeriesBudgetExceeded(RuntimeError):
    """A series engine was given an order, size or count past its budget."""


class NegativeExponentError(ArithmeticError):
    """A recurrence step left an uncancelled negative exponent (a sign or
    boundary bug, not a user error)."""


def _check_budget(*orders: int) -> None:
    for o in orders:
        if o < 0:
            raise ValueError("orders must be non-negative")
        if o > ORDER_BUDGET:
            raise SeriesBudgetExceeded(f"order {o} exceeds budget {ORDER_BUDGET}")


# ---------------------------------------------------------------------------
# Closed forms: rectangles, bicolored Motzkin paths, Narayana numbers
#
# The *_counts functions read the coefficients of the closed forms (evaluated
# literally in icsets.reference) off integer recurrences.  With C = 1 + (x+y)C + xyC^2 the discriminant root is
# sqrt((1-x-y)^2 - 4xy) = 1 - x - y - 2xyC, so A = 1/(1 - x - y + xy(1 - C))
# and both C and A satisfy T = [1] + xT + yT + xy(...) coefficientwise.


def _xy_convolution(p: list[list[int]], q: list[list[int]], m: int, n: int) -> int:
    """Coefficient of x^(m-1) y^(n-1) in P*Q for tables stored as rows
    p[i][j]; zero when m or n is zero."""
    if not (m and n):
        return 0
    return sum(sum(map(mul, p[a][:n], q[m - 1 - a][n - 1 :: -1])) for a in range(m))


def _bicolored_rows(mmax: int, nmax: int) -> list[list[int]]:
    """c[m][n] for m <= mmax, n <= nmax, from C = 1 + (x+y)C + xyC^2."""
    c = [[0] * (nmax + 1) for _ in range(mmax + 1)]
    for m in range(mmax + 1):
        for n in range(nmax + 1):
            c[m][n] = (
                (m == n == 0)
                + (c[m - 1][n] if m else 0)
                + (c[m][n - 1] if n else 0)
                + _xy_convolution(c, c, m, n)
            )
    return c


def rectangle_counts(mmax: int, nmax: int) -> dict[tuple[int, int], int]:
    """ICS counts of [m] x [n] for m <= mmax, n <= nmax, from
    A = 1 + xA + yA + xy(C - 1)A."""
    _check_budget(mmax, nmax)
    c = _bicolored_rows(mmax - 1, nmax - 1)
    a = [[0] * (nmax + 1) for _ in range(mmax + 1)]
    for m in range(mmax + 1):
        for n in range(nmax + 1):
            a[m][n] = (
                (m == n == 0)
                + (a[m - 1][n] if m else 0)
                + (a[m][n - 1] if n else 0)
                - (a[m - 1][n - 1] if m and n else 0)
                + _xy_convolution(c, a, m, n)
            )
    return {(m, n): a[m][n] for m in range(mmax + 1) for n in range(nmax + 1)}


def bicolored_counts(mmax: int, nmax: int) -> dict[tuple[int, int], int]:
    _check_budget(mmax, nmax)
    c = _bicolored_rows(mmax, nmax)
    return {(m, n): c[m][n] for m in range(mmax + 1) for n in range(nmax + 1)}


def narayana(a: int, b: int) -> int:
    """N(a, b) = C(a, b) * C(a, b - 1) / a, which is 0 for b outside 1..a."""
    if a <= 0:
        raise ValueError("Narayana numbers need a >= 1")
    num = comb(a, b) * comb(a, b - 1) if 1 <= b <= a else 0
    if num % a:
        raise ArithmeticError(f"Narayana division failed for ({a}, {b})")
    return num // a


def full_count(m: int, n: int) -> int:
    """Number of ICS of [m] x [n] whose bounding paths meet only at their
    endpoints; read off the bicolored path series, equals N(m+n-1, n)."""
    if m < 1 or n < 1:
        raise ValueError("full ICS counting needs m, n >= 1")
    return bicolored_counts(m, n)[(m - 1, n - 1)]


def _ordinal_sum_digits(sizes: list[int]) -> int:
    """An upper bound on the decimal digits of the ordinal-sum count, from
    the sizes alone.  One antichain of size a has 2^a ICS.  With k >= 2 and
    largest sizes a >= b, each of the at most k^2 terms of the formula is
    below 2^(a+b), so the count has at most a + b + 2 * bitlength(k) bits."""
    top = sorted(sizes)[-2:]
    bits = top[0] + 1 if len(top) == 1 else sum(top) + 2 * len(sizes).bit_length()
    return bits * 30103 // 100000 + 1  # log10(2) < 0.30103


def closed_form_count(family: str, params) -> int:
    """Per-family closed formulas: 'chain' n, 'ordinal_sum' sizes,
    'two_by_n' n, 'three_by_n' n."""
    # type() rather than int() or isinstance(): int() reads 2.5 and "2", and bool is an int
    if family in ("chain", "two_by_n", "three_by_n"):
        n = params
        if type(n) is not int:
            raise ValueError(f"{family} length must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"{family} length must be >= 0")
    if family == "chain":
        return n * (n + 1) // 2 + 1
    if family == "ordinal_sum":
        try:
            sizes = list(params)
        except TypeError:  # 3 or None, not a list
            raise ValueError(f"ordinal_sum sizes must be a list of ints, got {params!r}") from None
        if any(type(a) is not int for a in sizes):
            raise ValueError(f"ordinal_sum sizes must be ints, got {sizes!r}")
        if any(a <= 0 for a in sizes):
            raise ValueError("antichain sizes must be positive")
        digits = _ordinal_sum_digits(sizes)
        if digits > ORDINAL_SUM_DIGIT_BUDGET:
            raise SeriesBudgetExceeded(
                f"ordinal-sum count of up to {digits} digits exceeds budget {ORDINAL_SUM_DIGIT_BUDGET} digits"
            )
        # 1 + the sum of the s_i + the sum of s_i * s_j over pairs i < j
        singles = [2**a - 1 for a in sizes]
        total = sum(singles)
        return 1 + total + (total * total - sum(s * s for s in singles)) // 2
    if family == "two_by_n":
        num = n**4 + 4 * n**3 + 17 * n**2 + 14 * n + 12
        if num % 12:
            raise ArithmeticError(f"two_by_n numerator {num} not divisible by 12")
        return num // 12
    if family == "three_by_n":
        num = n**6 + 9 * n**5 + 61 * n**4 + 159 * n**3 + 370 * n**2 + 264 * n + 144
        if num % 144:
            raise ArithmeticError(f"three_by_n numerator {num} not divisible by 144")
        return num // 144
    raise ValueError(f"unknown closed-form family {family!r}")


# ---------------------------------------------------------------------------
# Staircase (type B minuscule) counts


def b_minuscule_counts(nmax: int) -> list[int]:
    """Coefficients of the staircase series, rewritten with
    sqrt(1 - 4x) = 1 - 2x Cat(x) as B = P/Q, P = 2 - 5x + 4x^2 and
    Q = 2 - 7x + 7x^2 - 4x^3 - (2x - 3x^2) Cat(x); Q has constant term 2,
    so each coefficient is one exact halving."""
    _check_budget(nmax)
    numer = [2, -5, 4] + [0] * nmax
    denom = [2, -7, 7, -4] + [0] * nmax
    for k in range(nmax):
        catalan = comb(2 * k, k) // (k + 1)
        denom[k + 1] -= 2 * catalan
        denom[k + 2] += 3 * catalan
    counts: list[int] = []
    for n in range(nmax + 1):
        twice = numer[n] - sum(denom[k] * counts[n - k] for k in range(1, n + 1))
        if twice % 2:
            raise ArithmeticError(
                f"coefficient at ({n},) is not an integer: {twice}/2"
            )
        counts.append(twice // 2)
    return counts


# ---------------------------------------------------------------------------
# Functional-equation coefficient recurrences


def _advance(
    prev: dict[tuple[int, int], int], prev2: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """One z-order of the walk functional equation on keys (x, y): the
    exponents of x and y in one t-slice of G, the walks from one start."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i, j), c in prev.items():
        for key in ((i + 1, j), (i - 1, j), (i + 1, j - 1), (i - 1, j + 1)):
            out[key] = get(key, 0) + c  # times x, 1/x, x/y, y/x; negative for now
        if i == 0:  # minus (1/x + y/x) times the x = 0 slice
            for key in ((-1, j), (-1, j + 1)):
                out[key] = get(key, 0) - c
        if j == 0:  # minus (x/y) times the y = 0 slice
            key = (i + 1, -1)
            out[key] = get(key, 0) - c
    for key, c in prev2.items():
        if key[1] == 0 and key[0] > 0:  # minus (g(x,0) - g(0,0)) one z-order back
            out[key] = get(key, 0) - c

    cleaned = {key: c for key, c in out.items() if c}
    for key, c in cleaned.items():
        if key[0] < 0 or key[1] < 0:
            raise NegativeExponentError(f"uncancelled exponent at {key} (coefficient {c})")
        if c < 0:
            raise NegativeExponentError(f"negative walk count {c} at {key}; boundary terms are wrong")
    return cleaned


def _g_tables(order: int, start: int, total: int | None = None):
    """Yield g_0..g_order of the t^start slice of G(t, x, y, z), the walks
    from (start, 0), holding only the two tables that _advance reads.  With
    a total, keys whose y-exponent exceeds total - l are dropped from g_l;
    the y = 0 coefficients up to z-order total stay exact:
      * each step lowers y by at most one (only the x/y term does);
      * the boundary terms cancel the 1/x and x/y images of their own
        source key, so a kept key's contribution never needs a dropped one;
      * the prev2 term reads y = 0 only, which is never dropped.
    So a key with y > total - l feeds only keys that are dropped as well,
    and never a y = 0 coefficient at z-order <= total."""
    prev2: dict[tuple[int, int], int] = {}
    prev = {(start, 0): 1}
    yield prev
    for ell in range(1, order + 1):
        nxt = _advance(prev, prev2)
        if total is not None:
            nxt = {key: c for key, c in nxt.items() if key[1] <= total - ell}
        prev2, prev = prev, nxt
        yield prev


# F is G from the origin.  cmd_series reads one n at a time, so F's three
# numbers per z-order are kept (see the module docstring).  A read past them
# steps F afresh to its own order and replaces the cache in one assignment,
# so a pass that raises leaves it as it was.  Each call reads its own list,
# so a shorter pass in another thread cannot cut a read short.
_F_CACHE: list[tuple[int, int, int]] = []


def _f_upto(order: int) -> list[tuple[int, int, int]]:
    """(origin, all, x-axis off the origin) walk counts of F per z-order."""
    fs = _F_CACHE[: order + 1]
    if len(fs) <= order:
        _F_CACHE[:] = fs = [
            (f.get((0, 0), 0), sum(f.values()), sum(c for (i, j), c in f.items() if j == 0 and i > 0))
            for f in _g_tables(order, 0)
        ]
    return fs


def typeA_F_coeffs(order: int) -> list[dict[tuple[int, int], int]]:
    """Coefficients f_0..f_order of the origin-walk series F(x, y, z): the
    endpoint counts of the walks of each length, keyed (x, y)."""
    _check_budget(order)
    return list(_g_tables(order, 0))


def typeA_counts(n: int) -> int:
    """Number of ICS of the root triangle with n - 1 minimal elements: the
    constant term at z-order 2n."""
    _check_budget(n)
    return _f_upto(2 * n)[2 * n][0]


def _symmetric_walks(fs: list[tuple[int, int, int]], ell: int) -> int:
    """Walks of length ell from the origin that do not end with W on the
    x-axis: all of them, less one W step appended to each walk of length
    ell - 1 that ends on the x-axis off the origin."""
    return fs[ell][1] - (fs[ell - 1][2] if ell else 0)


def symmetric_typeA_counts(order: int) -> list[int]:
    """Per length l, walks from the origin not ending with W on the x-axis:
    mirror-symmetric ICS of the root triangle with l - 1 minimal elements."""
    _check_budget(order)
    fs = _f_upto(order)
    return [_symmetric_walks(fs, ell) for ell in range(order + 1)]


def b_root_counts(n: int) -> int:
    """Number of ICS of the type B root poset of rank n: symmetric count at
    even length 2n."""
    _check_budget(n)
    return _symmetric_walks(_f_upto(2 * n), 2 * n)


def truncated_counts(
    mmax: int, nmax: int, total: int | None = None, start: int | None = None
) -> dict[tuple[int, int, int], int]:
    """Table of ICS counts of [m] x [n] minus its bottom r ranks, for all
    m <= mmax, n <= nmax with m + n <= total (default mmax + nmax) and
    r <= min(m, n), keyed (m, n, r) in sorted order, via the G recurrence:
    the count sits at t^(n-r) x^(m-r) z^(m+n).  G is stepped from each
    start h = n - r <= nmax in turn, only to z-order total, with keys
    beyond the y-horizon of _g_tables dropped.  With a start, only that one
    is stepped and only the entries with n - r = start are kept: one count
    of trunc:MxN:R is truncated_counts(M, N, start=N - R)[(M, N, R)]."""
    _check_budget(mmax, nmax, *(() if total is None else (total,)))
    total = mmax + nmax if total is None else min(total, mmax + nmax)
    out = {}
    for h in [h for h in range(nmax + 1) if start in (None, h)]:
        for ell, g in enumerate(_g_tables(total, h, total)):
            for m in range(max(0, ell - nmax), min(mmax, ell) + 1):
                r = ell - m - h  # n - h, with n = ell - m
                if 0 <= r <= m:
                    out[(m, ell - m, r)] = g.get((m - r, 0), 0)
    return dict(sorted(out.items()))


def truncated_series_head(order: int, hmax: int) -> list[dict[tuple[int, int], int]]:
    """Per z-order coefficients of (1 - tx) G(t, x, 0, z) for the starts
    h <= hmax: the series head with the start-shift factor divided out."""
    _check_budget(order, hmax)
    out = []
    for gs in zip(*(_g_tables(order, h) for h in range(hmax + 1))):
        slice_ = {(h, i): c for h, g in enumerate(gs) for (i, j), c in g.items() if j == 0}
        head = dict(slice_)
        for (h, i), c in slice_.items():
            head[(h + 1, i + 1)] = head.get((h + 1, i + 1), 0) - c
        out.append({k: c for k, c in head.items() if c and k[0] <= hmax})
    return out


# ---------------------------------------------------------------------------
# Independent engine: boundary-flagged walk dynamic program


def walk_dp_coeffs(order: int, start_x: int = 0) -> list[dict[tuple[int, int], int]]:
    """Endpoint count tables per length for restricted quarter-plane walks
    from (start_x, 0), via a DP over (x, y, just-stepped-W-on-axis) states.
    Knows nothing about the functional equation."""
    if order < 0 or start_x < 0:
        raise ValueError("order and start must be non-negative")
    state: dict[tuple[int, int, bool], int] = {(start_x, 0, False): 1}
    out = [{(start_x, 0): 1}]
    for _ in range(order):
        nxt: dict[tuple[int, int, bool], int] = {}

        def bump(x, y, flag, c):
            key = (x, y, flag)
            nxt[key] = nxt.get(key, 0) + c

        for (x, y, flag), c in state.items():
            if not flag:
                bump(x + 1, y, False, c)  # E
            if x > 0:
                bump(x - 1, y, y == 0, c)  # W
                bump(x - 1, y + 1, False, c)  # NW
            if y > 0:
                bump(x + 1, y - 1, False, c)  # SE
        state = nxt
        table: dict[tuple[int, int], int] = {}
        for (x, y, _), c in state.items():
            table[(x, y)] = table.get((x, y), 0) + c
        out.append(table)
    return out


def walk_dp_counts(
    hmax: int, smax: int, lmax: int
) -> dict[tuple[int, int, int], int]:
    """Counts of restricted walks from (h, 0) to (s, 0) of each length."""
    if min(hmax, smax, lmax) < 0:
        raise ValueError("hmax, smax and lmax must be non-negative")
    out = {}
    for h in range(hmax + 1):
        tables = walk_dp_coeffs(lmax, h)
        for ell, table in enumerate(tables):
            for s in range(smax + 1):
                out[(h, s, ell)] = table.get((s, 0), 0)
    return out
