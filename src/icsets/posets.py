"""Finite posets, interval-closed sets, and the brute-force enumeration oracle.

An interval-closed set (ICS) of a poset P is a subset I such that whenever
x, y are in I and x < z < y, then z is in I.  Equivalently, I contains the
whole order interval between any two of its comparable elements.  Order
ideals and order filters are special cases.

Poset families built here, one row of FAMILIES each.  The first five hold
pairs (a, b), componentwise, with lo <= b <= hi in column a (Family.files):

  ChainProduct(m, n)          [m] x [n]: 1 <= b <= n
  TruncatedRectangle(m, n, r) [m] x [n] without the bottom r ranks (the rank
                              of (a, b) is a + b - 2): max(1, r + 2 - a) <= b <= n
  TypeARoot(k)                positive-root triangle with k minimal elements:
                              TruncatedRectangle(k+1, k+1, k+1), column 1 empty
  TypeBMinuscule(n)           staircase half of [n] x [n]: a <= b <= n
  TypeBRoot(n)                rootA:2n-1 halved by its mirror: max(a, 2n+2-a) <= b <= 2n
  ChainProduct3(l, m, n)      [l] x [m] x [n]: triples, componentwise order
  OrdinalSumAntichains(a)     antichains a_1, ..., a_k stacked in a chain

Conventions:
  Elements are indexed 0..N-1 in sorted label order (row-major by (a, b) for
  chain products); this indexing is a linear extension, which the
  construction and the enumerator rely on.  Subsets at this layer are
  frozensets of element indices; the bitmask encoding of a subset uses bit k
  for element k.  Enumeration emits subsets in ascending bitmask order, so
  the empty set always comes first.  Labels and indices outside the poset
  raise ValueError.

Construction from covers:
  Each family names the upper covers of every element, and the order masks
  are their reflexive-transitive closure, built in two passes that cost one
  big-integer OR per cover each: up[i] = bit(i) | OR up[j] over the upper
  covers j of i, in reverse index order, then down likewise over the lower
  covers in index order.  The cover-graph adjacency (a tuple of neighbour
  indices per element) and the minimal elements are read off the same
  lists, and the cover set off the adjacency.
  - Ordinal sums: every element of the next block covers every element of
    its block.
  - Grid families (all others): the upper covers of a label are the unit
    steps (one coordinate plus 1) that stay inside the label set.  These
    generate the componentwise order because, for every family here, two
    comparable labels x <= y are joined by a monotone unit-step path inside
    the set.  The boxes, truncated rectangles and root triangles are order-
    convex (a box cut by an up-set), so any such path stays inside; the
    staircase halves add the condition a <= b, which holds all along the
    path that raises b to y's value before raising a.  A unit step has
    nothing strictly between its ends, so the unit steps are exactly the
    covers.

The oracle's interval test:
  The search decides elements N-1 down to 0 and carries two masks: D, the
  elements below some chosen element, and F, the elements below an excluded
  element that lies in D.  Excluding k ORs down(k) into F when k is in D;
  including k ORs down(k) into D; k may be included iff k is not in F.  Bit k
  itself is then cut or never read again, since every later decision reads
  only lower bits.  Including k breaks interval closure iff some excluded z
  and chosen y have k < z < y.  Since indexing is a linear extension, such y
  and z were both decided before k, y before z, so z was in D when it was
  excluded and k is in F; conversely every element of F lies under such a
  pair.  Every leaf of the search is therefore an ICS, and every ICS is a
  leaf.  F is a down-set inside D, so a forbidden element can only be
  excluded, and excluding it adds down(k), already in F, which changes
  nothing: the oracle skips forbidden elements outright, with the same leaves
  in the same order.

  Counting the leaves needs no leaf visited.  Once k is decided, what the
  search can still do reads D and F only below k: deciding j < k tests bit j
  of F (include) and bit j of D (exclude), and both updates OR in
  down(j), which lies at or below j.  Two search nodes whose masks agree
  below k therefore have the same completions, so (D, F) cut to the indices
  below k is a sufficient state.  count_ics keeps one layer per k, mapping
  each cut state to the number of nodes in it, applies the include, exclude
  and forbidden rules above to every state, and sums the last layer: the
  transfer-matrix method (Stanley, EC1 4.7), also called frontier-based
  search.  The symmetric count under an involution sigma is the same count
  with one partner rule and a third mask C, the undecided elements whose
  partner was chosen.  When sigma(k) > k the partner was decided first and k
  copies its decision: k may be included only if it is in C and not in F, and
  excluded only if it is not in C.  Otherwise k branches as in the oracle, and
  including it with sigma(k) < k adds sigma(k) to C.  The decision order and
  the D/F updates are the oracle's, so every leaf is an ICS; the partner rule
  makes every leaf sigma-invariant; and a sigma-invariant ICS takes only
  allowed branches, so it is a leaf.  C keeps the cut state sufficient
  because every update to C sets a bit below k and C is read only at that
  bit; without sigma, C stays empty.  Each state of layer k stands for at
  least one partial decision of N-1..k that the search makes, so no layer is
  wider than the search is at that depth and the count never does more steps
  than the enumeration; most families merge heavily (ordsum:30 has one state
  per layer against 2^30 leaves).

  The layered count bounds its own work, not the poset's size: it charges
  every state it steps and refuses (OracleScaleExceeded) once the running
  charge passes LAYERED_COUNT_WORK_BOUND.  A state of layer k holds three
  masks cut to k bits, and the big-integer ORs and ANDs on them cost in
  proportion to that length: on a 2-vCPU VM with Python 3.11 a state costs
  about 1 us while its masks are under about a thousand bits and about ten
  times that at 10,000 bits, and its memory grows the same way.  A state of layer k is therefore charged
  1 + k // 1024.  The layer width, and so the work, depends on the index
  order: rect:200x4 (files of 4 elements) takes about 12,000 states and
  rect:4x200 about ten million, so count reads each grid family in the
  spelling with its longest side first (Family.count_spec).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from operator import add, mul
from types import MappingProxyType

from . import series

ICS_ENUMERATION_BOUND = 30  # elements, for enumerate_ics, which visits every set
# states that _count_ics_layers steps, each charged by its mask length
LAYERED_COUNT_WORK_BOUND = 2_000_000
# build_poset refuses a spec past either count before it lists a label; each
# bound costs about 0.1 s to build on a 2-vCPU VM with Python 3.11
# (rect:100x100 has 10,000 elements; ordinal sums take about 1 us per cover)
BUILD_BOUNDS = {"elements": 10_000, "covers": 100_000}


class OracleScaleExceeded(RuntimeError):
    """Raised when the oracle's enumeration or count passes its bound."""


class PosetScaleExceeded(RuntimeError):
    """Raised when a spec describes a poset too large to build."""


class NotIntervalClosed(ValueError):
    """Input subset is not interval-closed; witness is a label triple (x, z, y)."""

    def __init__(self, witness: tuple[tuple, tuple, tuple]):
        self.witness = witness
        x, z, y = witness
        super().__init__(f"not interval-closed: {x} < {z} < {y} but {z} is missing")


# ---------------------------------------------------------------------------
# Poset specifications


class _Value:
    """The package's immutable record, standing in for a frozen dataclass
    (which costs about a millisecond of import time to define): positional or
    keyword construction with every field given, equality by field values
    and their types (so build_poset's cache never answers TypeARoot(2.0) with
    the poset of TypeARoot(2)) and hash by field values, within one class
    only, the dataclass repr, pickling by fields, and AttributeError on
    assignment.  The fields are the __slots__ of the class itself."""

    __slots__ = ("_key",)  # the field values in order, for equality, hash and pickling

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", args)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key and _types(self._key) == _types(other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key


def _types(value):
    """The type of a value, or of each item of a tuple, nested: 1, True and
    1.0 are equal, but their types are not."""
    return tuple(map(_types, value)) if type(value) is tuple else type(value)


class ChainProduct(_Value):
    __slots__ = ("m", "n")


class ChainProduct3(_Value):
    __slots__ = ("l", "m", "n")


class TruncatedRectangle(_Value):
    __slots__ = ("m", "n", "r")


class TypeARoot(_Value):
    __slots__ = ("k",)


class TypeBMinuscule(_Value):
    __slots__ = ("n",)


class TypeBRoot(_Value):
    __slots__ = ("n",)


class OrdinalSumAntichains(_Value):
    __slots__ = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        super().__init__(tuple(sizes))


PosetSpec = (
    ChainProduct
    | ChainProduct3
    | TruncatedRectangle
    | TypeARoot
    | TypeBMinuscule
    | TypeBRoot
    | OrdinalSumAntichains
)


class Family:
    """One poset family, described once: modules that treat families
    differently read these fields instead of testing a spec's class.  The
    engines look series functions up at call time, so patching the series
    module reaches them.  The counting engines are oracle, formula and
    series; formula and series return None where they do not apply."""

    def __init__(
        self,
        spec_class: type,
        form: str,  # CLI text form; the part before the colon is the prefix
        parse: Callable[[str], PosetSpec],  # text after the colon; ValueError if malformed
        check: Callable[[PosetSpec], PosetSpec],  # validated, normalised; ValueError if out of range
        size: Callable[[PosetSpec], int],  # len(labels(spec)), without listing them
        files: Callable[[PosetSpec], list] | None = None,  # non-empty columns (a, lo, hi): labels (a, lo..hi)
        labels: Callable[[PosetSpec], list[tuple]] | None = None,  # read from files if None
        # spec -> (label -> labels covering it; those outside the poset are dropped)
        upper_covers: Callable = lambda spec: _unit_steps,
        # number of covers, where they can outnumber the elements many times
        # over; unit steps are at most three per element, bounded with them
        covers: Callable[[PosetSpec], int] = lambda spec: 0,
        # (m, n, r): [m] x [n] minus its bottom r ranks, where the path maps apply
        frame: Callable[[PosetSpec], tuple[int, int, int] | None] = lambda spec: None,
        # an isomorphic spec whose index order keeps the layered count's layers
        # narrow: grids with the longest side first, so that files are short
        count_spec: Callable[[PosetSpec], PosetSpec] = lambda spec: spec,
        formula: Callable[[PosetSpec], int | None] = lambda spec: None,  # closed-formula count
        series: Callable[[PosetSpec], int | None] = lambda spec: None,  # generating-function count
    ):
        self.spec_class = spec_class
        self.form = form
        self.letters = [c for c in form.partition(":")[2] if c.isupper()]  # one per spec field
        self.parse = parse
        self.check = check
        self.size = size
        self.files = files or (lambda spec: None)
        self.labels = labels or (lambda spec: [(a, b) for a, lo, hi in files(spec) for b in range(lo, hi + 1)])
        self.upper_covers = upper_covers
        self.covers = covers
        self.frame = frame
        self.count_spec = count_spec
        self.formula = formula
        self.series = series

    def oracle(self, spec: PosetSpec) -> int:
        """The layered count of the oracle's search, on count_spec(spec)."""
        return count_ics(build_poset(self.count_spec(spec)))


def _int(text: str) -> int:
    """An optional ASCII '-' followed by ASCII digits; int() alone would also
    take '+', '_', surrounding spaces and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _ints(text: str, *separators: str) -> list[int]:
    """Integers between the separators, in order; a missing one leaves "" for _int() to reject."""
    fields = []
    for sep in separators:
        head, _, text = text.partition(sep)
        fields.append(head)
    return [_int(f) for f in fields + [text]]


def _check_ints(spec) -> None:
    """ValueError naming, in the letters of its family's form, the first
    field of the spec that is not an int."""
    for i, value in enumerate(spec._key):
        if type(value) is not int:  # type() rather than isinstance(): bool is an int
            family = family_of(spec)
            raise ValueError(f"{family.form} needs {family.letters[i]} to be an int, got {value!r}")


def _nonnegative(spec):
    """The check of a spec whose integer fields must all be >= 0, refused in
    the letters of its family's form: "cube:LxMxN needs L, M, N >= 0"."""
    _check_ints(spec)
    if min(spec._key) < 0:
        family = family_of(spec)
        raise ValueError(f"{family.form} needs {', '.join(family.letters)} >= 0")
    return spec


def _check_truncated(spec: TruncatedRectangle) -> TruncatedRectangle:
    _check_ints(spec)
    if spec.m < 0 or spec.n < 0:
        raise ValueError("trunc:MxN:R needs M, N >= 0")
    if spec.r > min(spec.m, spec.n):
        raise ValueError(
            f"truncation depth r={spec.r} exceeds min(m, n)={min(spec.m, spec.n)}"
        )
    return TruncatedRectangle(spec.m, spec.n, max(spec.r, 0))


def _check_ordinal_sum(spec: OrdinalSumAntichains) -> OrdinalSumAntichains:
    if any(type(a) is not int for a in spec.sizes):
        raise ValueError(f"antichain sizes must be ints, got {spec.sizes}")
    if any(a <= 0 for a in spec.sizes):
        raise ValueError(f"antichain sizes must be positive, got {spec.sizes}")
    return spec


def _next_block(spec: OrdinalSumAntichains):
    # every element of the next block covers the label; past the last block
    # the padded size 0 gives none
    sizes = (*spec.sizes, 0)
    return lambda label: [(label[0] + 1, pos) for pos in range(1, sizes[label[0]] + 1)]


def _rectangle_formula(m: int, n: int) -> int | None:
    # closed forms exist while the shorter side is at most 3 (0 and 1: chains)
    m, n = sorted((m, n))
    if m > 3:
        return None
    return series.closed_form_count(("chain", "chain", "two_by_n", "three_by_n")[m], n if m else 0)


FAMILIES = (
    Family(
        ChainProduct, "rect:MxN",
        parse=lambda text: ChainProduct(*_ints(text, "x")),
        check=_nonnegative,
        size=lambda s: s.m * s.n,
        files=lambda s: [(a, 1, s.n) for a in range(1, s.m + 1) if s.n],
        frame=lambda s: (s.m, s.n, 0),
        count_spec=lambda s: ChainProduct(max(s.m, s.n), min(s.m, s.n)),
        formula=lambda s: _rectangle_formula(s.m, s.n),
        series=lambda s: series.rectangle_counts(s.m, s.n)[(s.m, s.n)],
    ),
    Family(
        TruncatedRectangle, "trunc:MxN:R",
        parse=lambda text: TruncatedRectangle(*_ints(text, "x", ":")),
        check=_check_truncated,
        size=lambda s: s.m * s.n - s.r * (s.r + 1) // 2,  # r <= min(m, n): every a + b <= r + 1 is cut
        files=lambda s: [(a, max(1, s.r + 2 - a), s.n) for a in range(1, s.m + 1) if max(1, s.r + 2 - a) <= s.n],
        frame=lambda s: (s.m, s.n, s.r),
        count_spec=lambda s: TruncatedRectangle(max(s.m, s.n), min(s.m, s.n), s.r),
        formula=lambda s: _rectangle_formula(s.m, s.n) if s.r == 0 else None,
        series=lambda s: series.truncated_counts(s.m, s.n, start=s.n - s.r)[(s.m, s.n, s.r)],
    ),
    Family(
        TypeARoot, "rootA:K",
        parse=lambda text: TypeARoot(*_ints(text)),
        check=_nonnegative,
        size=lambda s: s.k * (s.k + 1) // 2,
        files=lambda s: [(a, max(1, s.k + 3 - a), s.k + 1) for a in range(2, s.k + 2)],  # column 1 is empty
        frame=lambda s: (s.k + 1, s.k + 1, s.k + 1),
        series=lambda s: series.typeA_counts(s.k + 1),
    ),
    Family(
        TypeBMinuscule, "minB:N",
        parse=lambda text: TypeBMinuscule(*_ints(text)),
        check=_nonnegative,
        size=lambda s: s.n * (s.n + 1) // 2,
        files=lambda s: [(a, a, s.n) for a in range(1, s.n + 1)],
        series=lambda s: series.b_minuscule_counts(s.n)[s.n],
    ),
    Family(
        TypeBRoot, "rootB:N",
        parse=lambda text: TypeBRoot(*_ints(text)),
        check=_nonnegative,
        size=lambda s: s.n * s.n,
        files=lambda s: [(a, max(a, 2 * s.n + 2 - a), 2 * s.n) for a in range(2, 2 * s.n + 1)],
        series=lambda s: series.b_root_counts(s.n),
    ),
    Family(
        OrdinalSumAntichains, "ordsum:2+3+1",
        parse=lambda text: OrdinalSumAntichains(_int(a) for a in text.split("+")),
        check=_check_ordinal_sum,
        size=lambda s: sum(s.sizes),
        labels=lambda s: [(blk, pos) for blk, size in enumerate(s.sizes, 1) for pos in range(1, size + 1)],
        upper_covers=_next_block,
        covers=lambda s: sum(map(mul, s.sizes, s.sizes[1:])),
        formula=lambda s: series.closed_form_count("ordinal_sum", s.sizes),
    ),
    Family(
        ChainProduct3, "cube:LxMxN",
        parse=lambda text: ChainProduct3(*_ints(text, "x", "x")),
        check=_nonnegative,
        size=lambda s: s.l * s.m * s.n,
        labels=lambda s: list(itertools.product(*(range(1, side + 1) for side in (s.l, s.m, s.n)))),
        count_spec=lambda s: ChainProduct3(*sorted((s.l, s.m, s.n), reverse=True)),
    ),
)
FAMILY_BY_PREFIX = MappingProxyType({family.form.partition(":")[0]: family for family in FAMILIES})
_FAMILY_BY_CLASS = {family.spec_class: family for family in FAMILIES}


def family_of(spec: PosetSpec) -> Family:
    try:
        return _FAMILY_BY_CLASS[type(spec)]
    except KeyError:
        raise TypeError(f"not a poset spec: {spec!r}") from None


def normalize_spec(spec: PosetSpec) -> PosetSpec:
    """Validate parameters and apply conventions (negative truncation -> 0)."""
    return family_of(spec).check(spec)


# ---------------------------------------------------------------------------
# The poset itself


class FinitePoset:
    """A finite poset over indexed elements with precomputed order masks.

    labels[i] is the coordinate label of element i; covers (the transitive
    reduction, as (lower, upper) index pairs) is read off the neighbour tuples
    of the cover graph.

    upper_covers(label) names the labels that cover label; names outside the
    label set are dropped.  Sorted label order must be a linear extension, so
    every cover has a larger index than the element it covers.  The masks are
    closed over the covers in two passes: up in reverse index order, down in
    index order.  build_poset hands one instance to every caller, so what it
    holds is read-only: its attributes cannot be rebound or deleted, index is
    a mapping proxy, and the masks and the cover adjacency are tuples.
    """

    # __weakref__ lets build_poset's cache drop an evicted poset
    __slots__ = ("n", "labels", "spec", "index", "_up", "_down", "_cover_adj", "minimal_mask", "__weakref__")
    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    def __init__(self, labels: Iterable[tuple], upper_covers, spec: PosetSpec | None = None):
        labels = tuple(sorted(labels))
        n = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != n:  # sorted, so a repeated label repeats in a run
            raise ValueError(f"repeated labels: {sorted({a for a, b in zip(labels, labels[1:]) if a == b})}")
        above = [[j for j in map(index.get, upper_covers(lab)) if j is not None] for lab in labels]
        below = [[] for _ in range(n)]
        for i, js in enumerate(above):
            for j in js:
                below[j].append(i)
        # cover-graph neighbours of each element, lower covers first; elements
        # with the same neighbours (a block of an ordinal sum) share one tuple
        shared: dict[tuple, tuple] = {}
        for name, value in (
            ("n", n),
            ("labels", labels),
            ("spec", spec),
            ("index", MappingProxyType(index)),
            ("_up", tuple(_close_over(above, reversed(range(n))))),
            ("_down", tuple(_close_over(below, range(n)))),
            ("_cover_adj", tuple([shared.setdefault(adj, adj) for adj in map(tuple, map(add, below, above))])),
            ("minimal_mask", sum(1 << i for i in range(n) if not below[i])),
        ):
            object.__setattr__(self, name, value)

    @property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The (lower, upper) cover pairs: the neighbours above each index."""
        return frozenset((i, j) for i, adj in enumerate(self._cover_adj) for j in adj if j > i)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def indices_of(self, labels: Iterable[tuple]) -> frozenset[int]:
        """Indices of the labelled elements; ValueError names any label that
        is not in the poset."""
        index = self.index
        labels = tuple(labels)
        try:
            return frozenset(map(index.__getitem__, labels))
        except KeyError:
            raise _not_in_poset(lab for lab in labels if lab not in index) from None

    def labels_of(self, indices: Iterable[int]) -> frozenset[tuple]:
        """Labels of the indexed elements; ValueError names indices outside 0..n-1."""
        labels = self.labels
        indices = sorted(indices)
        if indices and (indices[0] < 0 or indices[-1] >= self.n):
            raise _not_in_poset(i for i in indices if not 0 <= i < self.n)
        return frozenset([labels[i] for i in indices])

    def mask_of(self, members: Iterable[int]) -> int:
        """Bitmask of element indices; ValueError names any index outside
        0..n-1."""
        n = self.n
        mask = 0
        unknown = []
        for i in members:
            if 0 <= i < n:
                mask |= 1 << i
            else:
                unknown.append(i)
        if unknown:
            raise _not_in_poset(unknown)
        return mask

    def members_of(self, mask: int) -> frozenset[int]:
        return frozenset(_iter_bits(mask))

    def __repr__(self):
        return f"FinitePoset(n={self.n}, spec={self.spec!r})"


def _not_in_poset(elements: Iterable) -> ValueError:
    return ValueError(f"elements not in the poset: {sorted(elements)}")


def _close_over(steps: list[list[int]], order: Iterable[int]) -> list[int]:
    # reflexive-transitive closure masks; order visits every step target first
    masks = [0] * len(steps)
    for i in order:
        mask = 1 << i
        for j in steps[i]:
            mask |= masks[j]
        masks[i] = mask
    return masks


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _unit_steps(label: tuple) -> list[tuple]:
    # upper covers in every grid family: add 1 to one coordinate
    return [label[:d] + (label[d] + 1,) + label[d + 1 :] for d in range(len(label))]


def _check_build_scale(family: Family, spec: PosetSpec) -> None:
    for unit, count in (("elements", family.size(spec)), ("covers", family.covers(spec))):
        if count > BUILD_BOUNDS[unit]:
            raise PosetScaleExceeded(
                f"poset scale exceeded: {count} {unit} > bound {BUILD_BOUNDS[unit]}"
            )


@lru_cache(maxsize=16)
def build_poset(spec: PosetSpec) -> FinitePoset:
    """Build the poset described by spec; see the module docstring for families.
    A spec past BUILD_BOUNDS raises PosetScaleExceeded before any label is listed."""
    family = family_of(spec)
    spec = family.check(spec)
    _check_build_scale(family, spec)
    return FinitePoset(family.labels(spec), family.upper_covers(spec), spec)


# ---------------------------------------------------------------------------
# Interval-closure predicate and closures


def find_ics_violation(
    poset: FinitePoset, members: Iterable[int]
) -> tuple[int, int, int] | None:
    """Return indices (x, z, y) with x < z < y, x and y in the subset, z not;
    None when the subset is interval-closed.

    The witness is fixed: x is the lowest member index with a violation, y the
    lowest member index above x with a missing element between them, and z
    the lowest such missing index.  Cost: O(|I|^2) steps of one AND each."""
    mask = poset.mask_of(members)
    up, down = poset._up, poset._down
    outside = ~mask  # x and y are members, so their bits drop out of every gap
    for x in _iter_bits(mask):
        gaps = up[x] & outside
        if not gaps:
            continue
        for y in _iter_bits((mask & up[x]) ^ 1 << x):
            missing = gaps & down[y]
            if missing:
                return (x, (missing & -missing).bit_length() - 1, y)
    return None


def is_interval_closed(poset: FinitePoset, members: Iterable[int]) -> bool:
    return find_ics_violation(poset, members) is None


def require_ics(poset: FinitePoset, members: Iterable[int]) -> None:
    """Raise NotIntervalClosed, naming the label triple (x, z, y) of
    find_ics_violation, unless the subset is interval-closed: x the lowest
    violating member, y the lowest member above x with a gap, z the lowest
    missing element between them.  Cost: O(|I|^2) steps of one AND each."""
    witness = find_ics_violation(poset, members)
    if witness is not None:
        raise NotIntervalClosed(tuple(poset.labels[i] for i in witness))


def _union(masks: Sequence[int], members: Iterable[int]) -> int:
    """OR of masks[i] over the members: with poset._down, the bitmask of the
    ideal closure; with poset._up, of the filter closure."""
    mask = 0
    for i in members:
        mask |= masks[i]
    return mask


def ideal_closure(poset: FinitePoset, members: Iterable[int]) -> frozenset[int]:
    """Smallest order ideal containing the subset."""
    return poset.members_of(_union(poset._down, members))


def filter_closure(poset: FinitePoset, members: Iterable[int]) -> frozenset[int]:
    """Smallest order filter containing the subset."""
    return poset.members_of(_union(poset._up, members))


# ---------------------------------------------------------------------------
# Brute-force enumeration (the oracle)


def _ics_mask_stream(poset: FinitePoset) -> Iterator[int]:
    """All ICS bitmasks in ascending numeric order.

    Depth-first search deciding element N-1 down to 0, exclude branch first,
    carrying two masks: below, the elements under some chosen element, and
    forbidden, the elements under an excluded element of below.  Element k may
    be chosen iff it is not forbidden; see the module docstring for why that
    is exactly the interval test, and why forbidden elements are skipped.
    """
    down = poset._down
    stack = [(poset.n - 1, 0, 0, 0)]  # next index, chosen, below, forbidden
    while stack:
        k, mask, below, forbidden = stack.pop()
        k = (~forbidden & ((1 << k + 1) - 1)).bit_length() - 1  # skip forbidden elements
        if k < 0:
            yield mask
            continue
        bit = 1 << k
        stack.append((k - 1, mask | bit, below | down[k], forbidden))
        if below & bit:
            forbidden |= down[k]
        stack.append((k - 1, mask, below, forbidden))


def check_oracle_scale(size: int) -> None:
    """Raise OracleScaleExceeded past ICS_ENUMERATION_BOUND elements; callers
    may check a spec's size before building it."""
    if size > ICS_ENUMERATION_BOUND:
        raise OracleScaleExceeded(
            f"oracle scale exceeded: {size} elements > bound {ICS_ENUMERATION_BOUND}"
        )


def enumerate_ics(
    poset: FinitePoset, limit: int | None = None
) -> Iterator[frozenset[int]]:
    """Yield every ICS exactly once, ascending by bitmask encoding."""
    if limit is not None:
        # type() rather than isinstance(): islice reads neither 2.5 nor "3", and bool is an int
        if type(limit) is not int:
            raise ValueError(f"limit must be an int, got {limit!r}")
        if limit < 0:
            raise ValueError("limit must be non-negative")
    check_oracle_scale(poset.n)
    stream = _ics_mask_stream(poset)
    if limit is not None:
        stream = itertools.islice(stream, limit)
    for mask in stream:
        yield poset.members_of(mask)


def count_ics(poset: FinitePoset) -> int:
    """The number of ICS: the leaves of the oracle's search, counted layer by
    layer rather than visited one by one (see _count_ics_layers)."""
    return _count_ics_layers(poset)


def _count_ics_layers(poset: FinitePoset, perm: Sequence[int] | None = None) -> int:
    """Count the leaves of _ics_mask_stream's search without visiting them,
    or, under an involution perm, the perm-invariant ones.

    Layer k maps each search state (below, forbidden, copied), cut to the
    indices below k, to the number of search nodes in that state; copied holds
    the undecided elements whose partner was chosen, and stays 0 without perm.
    Deciding k applies the oracle's exclude and include rules and the partner
    rule to every state of the layer.  The count is the sum over the last
    layer.  See the module docstring for why the cut state suffices and how
    the work is bounded.
    """
    down = poset._down
    if perm is None:
        perm = range(poset.n)
    work = 0
    layer = {(0, 0, 0): 1}  # (below, forbidden, copied) -> multiplicity
    for k in reversed(range(poset.n)):
        work += len(layer) * (1 + k // 1024)
        if work > LAYERED_COUNT_WORK_BOUND:
            raise OracleScaleExceeded(
                f"oracle scale exceeded: layered count work {work} > bound "
                f"{LAYERED_COUNT_WORK_BOUND} with {k + 1} of {poset.n} elements left"
            )
        bit = 1 << k
        low = bit - 1
        partner = perm[k]
        free = partner <= k  # otherwise k copies its partner's decision
        partner_bit = 1 << partner
        nxt: dict[tuple[int, int, int], int] = {}
        for (below, forbidden, copied), ways in layer.items():
            if not forbidden & bit and (free or copied & bit):  # include k
                key = ((below | down[k]) & low, forbidden & low, (copied | partner_bit) & low)
                nxt[key] = nxt.get(key, 0) + ways
            if not copied & bit:  # exclude k
                if below & bit:
                    forbidden |= down[k]
                key = (below & low, forbidden & low, copied & low)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return sum(layer.values())


# ---------------------------------------------------------------------------
# Involutions and symmetric ICS


class Involution(_Value):
    """A poset automorphism equal to its own inverse, as an index permutation."""

    __slots__ = ("mapping",)

    def __call__(self, i: int) -> int:
        return self.mapping[i]


def make_involution(poset: FinitePoset, label_map) -> Involution:
    """Wrap a label-level map as a validated Involution on poset indices."""
    images = [label_map(lab) for lab in poset.labels]
    poset.indices_of(images)  # ValueError names the images outside the poset
    perm = tuple(map(poset.index.__getitem__, images))
    inv = Involution(perm)
    _check_involution(poset, inv)
    return inv


def _check_involution(poset: FinitePoset, sigma: Involution) -> None:
    perm = sigma.mapping
    if sorted(perm) != list(range(poset.n)):
        raise ValueError("not a permutation of the element indices")
    for i in range(poset.n):
        if perm[perm[i]] != i:
            raise ValueError("map is not an involution")
    # the order is the reflexive-transitive closure of the covers, so a
    # bijection that maps the cover set onto itself preserves it both ways
    covers = poset.covers
    if {(perm[i], perm[j]) for i, j in covers} != covers:
        raise ValueError("map is not an automorphism")


def vertical_involution(spec: PosetSpec) -> Involution:
    """Coordinate swap (a, b) -> (b, a) on a spec whose rectangle frame is square."""
    spec = normalize_spec(spec)
    frame = family_of(spec).frame(spec)
    if frame is None or frame[0] != frame[1]:
        raise ValueError(f"vertical involution needs a square rectangle frame, got {spec}")
    return make_involution(build_poset(spec), lambda lab: (lab[1], lab[0]))


def enumerate_symmetric_ics(poset: FinitePoset, sigma: Involution) -> int:
    """Count the ICS fixed setwise by the involution: the layered count of the
    oracle's search, in which an element whose partner was decided first
    copies that decision."""
    _check_involution(poset, sigma)
    return _count_ics_layers(poset, sigma.mapping)


# ---------------------------------------------------------------------------
# Subset statistics


class SubsetStats(_Value):
    __slots__ = (
        "cardinality",
        "component_count",
        "incomparable_count",
        "minimal_in_subset",
        "hits_all_files",  # bool, or None when the poset has no rectangle frame with r = 0
    )


def subset_stats(poset: FinitePoset, members: Iterable[int]) -> SubsetStats:
    """Statistics of a subset: size, cover-graph components, elements of the
    poset comparable with no member, minimal elements contained, and (in a
    rectangle frame with r = 0) whether every first coordinate is hit."""
    members = tuple(members)
    mask = poset.mask_of(members)
    cardinality = mask.bit_count()

    adj = poset._cover_adj
    components = 0
    unseen = set(members)
    while unseen:
        components += 1
        stack = [unseen.pop()]
        while stack:
            for j in adj[stack.pop()]:
                if j in unseen:
                    unseen.remove(j)
                    stack.append(j)

    comparable = _union(poset._up, members) | _union(poset._down, members)
    incomparable = poset.n - comparable.bit_count()

    minimal = (mask & poset.minimal_mask).bit_count()

    hits = None
    frame = None if poset.spec is None else family_of(poset.spec).frame(poset.spec)
    if frame is not None and frame[2] == 0:
        files = {poset.labels[i][0] for i in members}
        hits = all(a in files for a in range(1, frame[0] + 1))

    return SubsetStats(cardinality, components, incomparable, minimal, hits)
