"""The cross-check engines: the literal closed forms over exact rationals,
for the integer recurrences in icsets.series, and brute-force path
enumerators, for the maps in icsets.bijections.

TruncatedSeries is a multivariate power series with Fraction coefficients,
truncated per variable, with Newton iteration for inverses and inverse
square roots.  The *_series functions below evaluate the paper's closed
forms with it term by term; the *_counts functions of icsets.series read the
same coefficients off integer recurrences, and the tests and
`icsets verify` compare the two.  No command other than `verify` imports
this module, and it is the only one that uses rational arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .paths import MOTZKIN_AS_WALK, WALK_AS_MOTZKIN, WALK_MOVES, MotzkinWord, QuarterWalk
from .series import _check_budget

ENUMERATION_LENGTH_BOUND = 14


class PathScaleExceeded(RuntimeError):
    """Raised when a path enumeration is asked to run above its length bound."""


# ---------------------------------------------------------------------------
# Truncated multivariate power series over exact rationals


class TruncatedSeries:
    """Power series in named variables, truncated per variable.

    Coefficients are Fractions keyed by exponent tuples; absent keys are
    zero, and no stored exponent exceeds its variable's truncation order.
    """

    __slots__ = ("variables", "trunc", "coeffs")

    def __init__(
        self,
        variables: Sequence[str],
        trunc: Sequence[int],
        coeffs: Mapping[tuple[int, ...], Fraction | int] | None = None,
    ):
        self.variables = tuple(variables)
        self.trunc = tuple(trunc)
        if len(self.variables) != len(self.trunc):
            raise ValueError("one truncation order per variable")
        table: dict[tuple[int, ...], Fraction] = {}
        for exp, c in (coeffs or {}).items():
            if len(exp) != len(self.variables):
                raise ValueError(f"exponent {exp} has wrong arity")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent {exp}")
            if any(e > t for e, t in zip(exp, self.trunc)):
                continue
            c = Fraction(c)
            if c:
                table[exp] = c
        self.coeffs = table

    @classmethod
    def constant(cls, variables, trunc, value=1) -> "TruncatedSeries":
        return cls(variables, trunc, {(0,) * len(tuple(variables)): Fraction(value)})

    @classmethod
    def variable(cls, variables, trunc, name) -> "TruncatedSeries":
        variables = tuple(variables)
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, trunc, {exp: Fraction(1)})

    def __getitem__(self, exp: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(exp), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.variables == other.variables
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def _like(self, coeffs) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.trunc, coeffs)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.variables != other.variables or self.trunc != other.trunc:
            raise ValueError("series frames differ")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variables, self.trunc, other)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variables, self.trunc, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = Fraction(other)
            return self._like({e: v * c for e, v in self.coeffs.items()})
        self._check_compatible(other)
        trunc = self.trunc
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if any(e > t for e, t in zip(exp, trunc)):
                    continue
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse by Newton iteration X <- X(2 - SX)."""
        c0 = self[(0,) * len(self.variables)]
        if c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        x = TruncatedSeries.constant(self.variables, self.trunc, Fraction(1, 1) / c0)
        while True:
            nxt = x * (2 - self * x)
            if nxt == x:
                return x
            x = nxt

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = Fraction(other)
            return self._like({e: v / c for e, v in self.coeffs.items()})
        return self * other.inverse()

    def sqrt(self) -> "TruncatedSeries":
        """Square root AR, where R = A^(-1/2) comes from Newton iteration
        R <- R(3 - AR^2)/2 from R = 1: three products a step and no inverse.
        Needs constant term 1; iterated to the truncation-order fixpoint."""
        if self[(0,) * len(self.variables)] != 1:
            raise ValueError("series square root needs constant term 1")
        r = TruncatedSeries.constant(self.variables, self.trunc, 1)
        while True:
            nxt = r * (3 - self * (r * r)) * Fraction(1, 2)
            if nxt == r:
                return self * r
            r = nxt

    def shift_down(self, **monomial: int) -> "TruncatedSeries":
        """Exact division by a monomial, e.g. shift_down(x=1, y=1) divides
        by xy; raises when the series is not divisible."""
        delta = tuple(monomial.get(v, 0) for v in self.variables)
        out = {}
        for exp, c in self.coeffs.items():
            shifted = tuple(e - d for e, d in zip(exp, delta))
            if any(e < 0 for e in shifted):
                raise ValueError(f"series is not divisible: stray term {exp}")
            out[shifted] = c
        return self._like(out)

    def to_json_dict(self) -> dict:
        terms = [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in sorted(self.coeffs.items())
        ]
        return {"vars": list(self.variables), "terms": terms}

    def integer_coefficient(self, exp: tuple[int, ...]) -> int:
        c = self[exp]
        if c.denominator != 1:
            raise ArithmeticError(f"coefficient at {exp} is not an integer: {c}")
        return c.numerator

    def __repr__(self):
        head = ", ".join(
            f"{exp}: {c}" for exp, c in sorted(self.coeffs.items())[:6]
        )
        return f"TruncatedSeries({self.variables}, trunc={self.trunc}, {{{head}, ...}})"


# ---------------------------------------------------------------------------
# Closed forms: rectangles, bicolored Motzkin paths, staircases


def rectangle_series(mmax: int, nmax: int) -> TruncatedSeries:
    """Series whose (m, n) coefficient counts the ICS of [m] x [n]."""
    _check_budget(mmax, nmax)
    one = TruncatedSeries.constant(("x", "y"), (mmax, nmax))
    x = TruncatedSeries.variable(("x", "y"), (mmax, nmax), "x")
    y = TruncatedSeries.variable(("x", "y"), (mmax, nmax), "y")
    root = ((1 - x - y) * (1 - x - y) - 4 * x * y).sqrt()
    return (2 * one) / (1 - x - y + 2 * x * y + root)


def bicolored_series(mmax: int, nmax: int) -> TruncatedSeries:
    """Bicolored Motzkin path series C(x, y) with C = 1 + (x+y)C + xyC^2,
    x marking up/first-color steps and y down/second-color steps."""
    _check_budget(mmax, nmax)
    frame = (("x", "y"), (mmax + 1, nmax + 1))
    x = TruncatedSeries.variable(*frame, "x")
    y = TruncatedSeries.variable(*frame, "y")
    root = ((1 - x - y) * (1 - x - y) - 4 * x * y).sqrt()
    numer = 1 - x - y - root
    c = numer.shift_down(x=1, y=1) / 2
    return TruncatedSeries(("x", "y"), (mmax, nmax), c.coeffs)


def b_minuscule_series(nmax: int) -> TruncatedSeries:
    """Series counting ICS of the staircase half of [n] x [n], equivalently
    mirror-symmetric ICS of the square."""
    _check_budget(nmax)
    frame = (("x",), (nmax,))
    x = TruncatedSeries.variable(*frame, "x")
    root = (1 - 4 * x).sqrt()
    numer = 4 - 10 * x + 8 * x * x
    denom = 2 - 11 * x + 14 * x * x - 8 * x * x * x + (2 - 3 * x) * root
    return numer / denom


# ---------------------------------------------------------------------------
# Brute-force path enumeration


def enumerate_motzkin(m: int, n: int) -> list[MotzkinWord]:
    """All valid words with parameters (m, n) in lexicographic order under
    U < D < H1 < H2: the walks from (n, 0) to (m, 0) in m + n steps under
    NW < SE < E < W, renamed."""
    walks = _walk_search(n, m, m + n, tuple(MOTZKIN_AS_WALK.values()))
    return [MotzkinWord(WALK_AS_MOTZKIN[s] for s in steps) for steps in walks]


def enumerate_walks(h: int, s: int, length: int) -> list[QuarterWalk]:
    """All valid walks of the given length from (h, 0) to (s, 0), in
    lexicographic order under E < W < SE < NW."""
    return [QuarterWalk(h, steps) for steps in _walk_search(h, s, length, tuple(WALK_MOVES))]


def _walk_search(h: int, s: int, length: int, order: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The letters of every valid walk of the given length from (h, 0) to
    (s, 0), in lexicographic order under the letter order given."""
    if any(type(v) is not int for v in (h, s, length)):  # type(): bool is an int
        raise ValueError(f"parameters must be ints, got {h!r}, {s!r}, {length!r}")
    if h < 0 or s < 0 or length < 0:
        raise ValueError("parameters must be non-negative")
    if length > ENUMERATION_LENGTH_BOUND:
        raise PathScaleExceeded(
            f"enumeration bound exceeded: length {length} > {ENUMERATION_LENGTH_BOUND}"
        )
    steps: list[str] = []

    def rec(x: int, y: int, left: int, prev_w_on_axis: bool) -> Iterator[tuple[str, ...]]:
        # every step moves x by 1, so left and s - x must agree in parity;
        # reaching (s, 0) needs y net SE steps plus |s - x - y| free moves
        if y + abs(s - x - y) > left or (left - (s - x)) % 2:
            return
        if left == 0:
            yield tuple(steps)
            return
        for step in order:
            if step == "E" and prev_w_on_axis:
                continue
            dx, dy = WALK_MOVES[step]
            nx, ny = x + dx, y + dy
            if nx < 0 or ny < 0:
                continue
            steps.append(step)
            yield from rec(nx, ny, left - 1, step == "W" and ny == 0)
            steps.pop()

    return rec(h, 0, length, False)


def motzkin_area_by_trapezoids(word: MotzkinWord) -> int:
    """Independent area computation: sum of per-step trapezoids (full squares
    plus half triangles).  Agrees with MotzkinStats.area for these step sets."""
    h = word.heights()
    twice = sum(h[i] + h[i + 1] for i in range(len(word.steps)))
    if twice % 2:
        raise ArithmeticError(f"trapezoid area {twice}/2 is not an integer")
    return twice // 2
