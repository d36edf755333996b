"""Finite posets, interval-closed sets, and the brute-force enumeration oracle.

An interval-closed set (ICS) of a poset P is a subset I such that whenever
x, y are in I and x < z < y, then z is in I.  Equivalently, I contains the
whole order interval between any two of its comparable elements.  Order
ideals and order filters are special cases.

Poset families built here, one row of FAMILIES each:

  ChainProduct(m, n)          [m] x [n]: pairs (a, b), componentwise order
  ChainProduct3(l, m, n)      [l] x [m] x [n]: triples, componentwise order
  TruncatedRectangle(m, n, r) [m] x [n] with the bottom r ranks removed
                              (rank of (a, b) is a + b - 2)
  TypeARoot(k)                positive-root triangle with k minimal elements;
                              built as TruncatedRectangle(k+1, k+1, k+1)
  TypeBMinuscule(n)           staircase half {(a, b): a <= b} of [n] x [n]
  TypeBRoot(n)                half of the 2n-1 root triangle under its mirror
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
  covers in index order.  The cover set, the cover-graph adjacency and the
  minimal elements are read off the same list.
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
  element that lies in D.  Excluding k adds down_strict(k) to F when k is in
  D; including k adds down_strict(k) to D; k may be included iff k is not in
  F.  Including k breaks interval closure iff some excluded z and chosen y
  have k < z < y.  Since indexing is a linear extension, such y and z were
  both decided before k, y before z, so z was in D when it was excluded and
  k is in F; conversely every element of F lies under such a pair.  Every
  leaf of the search is therefore an ICS, and every ICS is a leaf.

  The symmetric count under an involution sigma runs the same search with
  one partner rule: when sigma(k) > k, the partner was decided first and k
  copies its decision (k may be included only if sigma(k) is chosen and k is
  not in F, excluded only if sigma(k) is excluded); otherwise k branches as in
  the oracle.  The decision order and the D/F updates are the oracle's, so
  every leaf is an ICS; the partner rule makes every leaf sigma-invariant;
  and a sigma-invariant ICS takes only allowed branches, so it is a leaf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import series

ICS_ENUMERATION_BOUND = 30


class OracleScaleExceeded(RuntimeError):
    """Raised when a brute-force enumeration is asked to run above its bound."""


# ---------------------------------------------------------------------------
# Poset specifications


@dataclass(frozen=True)
class ChainProduct:
    m: int
    n: int


@dataclass(frozen=True)
class ChainProduct3:
    l: int
    m: int
    n: int


@dataclass(frozen=True)
class TruncatedRectangle:
    m: int
    n: int
    r: int


@dataclass(frozen=True)
class TypeARoot:
    k: int


@dataclass(frozen=True)
class TypeBMinuscule:
    n: int


@dataclass(frozen=True)
class TypeBRoot:
    n: int


@dataclass(frozen=True)
class OrdinalSumAntichains:
    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        object.__setattr__(self, "sizes", tuple(sizes))


PosetSpec = (
    ChainProduct
    | ChainProduct3
    | TruncatedRectangle
    | TypeARoot
    | TypeBMinuscule
    | TypeBRoot
    | OrdinalSumAntichains
)


@dataclass(frozen=True)
class Family:
    """One poset family, described once: modules that treat families
    differently read these fields instead of testing a spec's class.  The
    engines look series functions up at call time, so patching the series
    module reaches them."""

    spec_class: type
    form: str  # CLI text form; the part before the colon is the prefix
    parse: Callable[[str], PosetSpec]  # text after the colon; ValueError if malformed
    check: Callable[[PosetSpec], PosetSpec]  # validated, normalised; ValueError if out of range
    labels: Callable[[PosetSpec], list[tuple]]  # element labels of a checked spec
    # spec -> (label -> labels covering it; those outside the poset are dropped)
    upper_covers: Callable = lambda spec: _unit_steps
    # (m, n, r): [m] x [n] minus its bottom r ranks, where the path maps apply
    frame: Callable[[PosetSpec], tuple[int, int, int] | None] = lambda spec: None
    formula: Callable[[PosetSpec], int | None] = lambda spec: None  # closed-formula count
    series: Callable[[PosetSpec], int | None] = lambda spec: None  # generating-function count


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


def _nonnegative(name: str):
    # check for specs whose integer fields must all be >= 0
    def check(spec):
        if min(vars(spec).values()) < 0:
            raise ValueError(f"{name} needs {', '.join(vars(spec))} >= 0, got {spec}")
        return spec

    return check


def _check_truncated(spec: TruncatedRectangle) -> TruncatedRectangle:
    if spec.m < 0 or spec.n < 0:
        raise ValueError(f"truncated rectangle needs m, n >= 0, got {spec}")
    if spec.r > min(spec.m, spec.n):
        raise ValueError(
            f"truncation depth r={spec.r} exceeds min(m, n)={min(spec.m, spec.n)}"
        )
    return TruncatedRectangle(spec.m, spec.n, max(spec.r, 0))


def _check_ordinal_sum(spec: OrdinalSumAntichains) -> OrdinalSumAntichains:
    if any(a <= 0 for a in spec.sizes):
        raise ValueError(f"antichain sizes must be positive, got {spec.sizes}")
    return spec


def _box(*sides: int) -> list[tuple]:
    return list(itertools.product(*(range(1, s + 1) for s in sides)))


def _truncated_box(m: int, n: int, r: int) -> list[tuple[int, int]]:
    # [m] x [n] without its bottom r ranks (the rank of (a, b) is a + b - 2)
    return [(a, b) for a, b in _box(m, n) if a + b - 2 >= r]


def _next_block(spec: OrdinalSumAntichains):
    # every element of the next block covers the label; positions beyond that
    # block's size, and blocks beyond the last, are not labels and are dropped
    positions = range(1, max(spec.sizes, default=0) + 1)
    return lambda label: [(label[0] + 1, pos) for pos in positions]


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
        check=_nonnegative("chain product"),
        labels=lambda s: _box(s.m, s.n),
        frame=lambda s: (s.m, s.n, 0),
        formula=lambda s: _rectangle_formula(s.m, s.n),
        series=lambda s: series.rectangle_counts(s.m, s.n)[(s.m, s.n)],
    ),
    Family(
        TruncatedRectangle, "trunc:MxN:R",
        parse=lambda text: TruncatedRectangle(*_ints(text, "x", ":")),
        check=_check_truncated,
        labels=lambda s: _truncated_box(s.m, s.n, s.r),
        frame=lambda s: (s.m, s.n, s.r),
        formula=lambda s: _rectangle_formula(s.m, s.n) if s.r == 0 else None,
        series=lambda s: series.truncated_counts(s.m, s.n)[(s.m, s.n, s.r)],
    ),
    Family(
        TypeARoot, "rootA:K",
        parse=lambda text: TypeARoot(*_ints(text)),
        check=_nonnegative("root triangle"),
        labels=lambda s: _truncated_box(s.k + 1, s.k + 1, s.k + 1),
        frame=lambda s: (s.k + 1, s.k + 1, s.k + 1),
        series=lambda s: series.typeA_counts(s.k + 1),
    ),
    Family(
        TypeBMinuscule, "minB:N",
        parse=lambda text: TypeBMinuscule(*_ints(text)),
        check=_nonnegative("TypeBMinuscule"),
        labels=lambda s: [(a, b) for a, b in _box(s.n, s.n) if a <= b],
        series=lambda s: series.b_minuscule_counts(s.n)[s.n],
    ),
    Family(
        TypeBRoot, "rootB:N",
        parse=lambda text: TypeBRoot(*_ints(text)),
        check=_nonnegative("TypeBRoot"),
        labels=lambda s: [(a, b) for a, b in _truncated_box(2 * s.n, 2 * s.n, 2 * s.n) if a <= b],
        series=lambda s: series.b_root_counts(s.n),
    ),
    Family(
        OrdinalSumAntichains, "ordsum:2+3+1",
        parse=lambda text: OrdinalSumAntichains(_int(a) for a in text.split("+")),
        check=_check_ordinal_sum,
        labels=lambda s: [(blk, pos) for blk, size in enumerate(s.sizes, 1) for pos in range(1, size + 1)],
        upper_covers=_next_block,
        formula=lambda s: series.closed_form_count("ordinal_sum", s.sizes),
    ),
    Family(
        ChainProduct3, "cube:LxMxN",
        parse=lambda text: ChainProduct3(*_ints(text, "x", "x")),
        check=_nonnegative("chain product"),
        labels=lambda s: _box(s.l, s.m, s.n),
    ),
)
FAMILY_BY_PREFIX = {family.form.partition(":")[0]: family for family in FAMILIES}
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

    labels[i] is the coordinate label of element i; covers is the transitive
    reduction as a frozenset of (lower, upper) index pairs.

    upper_covers(label) names the labels that cover label; names outside the
    label set are dropped.  Sorted label order must be a linear extension, so
    every cover has a larger index than the element it covers.  The masks are
    closed over the covers in two passes: up in reverse index order, down in
    index order.
    """

    def __init__(self, labels: Iterable[tuple], upper_covers, spec: PosetSpec | None = None):
        labels = tuple(sorted(labels))
        n = len(labels)
        self.n = n
        self.labels = labels
        self.spec = spec
        index = {lab: i for i, lab in enumerate(labels)}
        self.index = index
        above = [[index[c] for c in upper_covers(lab) if c in index] for lab in labels]
        below = [[] for _ in range(n)]
        for i, js in enumerate(above):
            for j in js:
                below[j].append(i)
        up = _close_over(above, reversed(range(n)))
        down = _close_over(below, range(n))
        self._up = up
        self._down = down
        self._up_strict = [up[i] ^ 1 << i for i in range(n)]
        self._down_strict = [down[i] ^ 1 << i for i in range(n)]
        self.covers = frozenset((i, j) for i, js in enumerate(above) for j in js)
        self._cover_adj = [sum(1 << j for j in above[i] + below[i]) for i in range(n)]
        self.minimal_mask = sum(1 << i for i in range(n) if not below[i])

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


@lru_cache(maxsize=128)
def build_poset(spec: PosetSpec) -> FinitePoset:
    """Build the poset described by spec; see the module docstring for families."""
    family = family_of(spec)
    spec = family.check(spec)
    return FinitePoset(family.labels(spec), family.upper_covers(spec), spec)


# ---------------------------------------------------------------------------
# Interval-closure predicate and closures


def find_ics_violation(
    poset: FinitePoset, members: Iterable[int]
) -> tuple[int, int, int] | None:
    """Return indices (x, z, y) with x < z < y, x and y in the subset, z not;
    None when the subset is interval-closed."""
    mask = poset.mask_of(members)
    for x in _iter_bits(mask):
        above = mask & poset._up_strict[x]
        for y in _iter_bits(above):
            missing = poset._up_strict[x] & poset._down_strict[y] & ~mask
            if missing:
                return (x, (missing & -missing).bit_length() - 1, y)
    return None


def is_interval_closed(poset: FinitePoset, members: Iterable[int]) -> bool:
    return find_ics_violation(poset, members) is None


def ideal_closure(poset: FinitePoset, members: Iterable[int]) -> frozenset[int]:
    """Smallest order ideal containing the subset."""
    mask = 0
    for i in members:
        mask |= poset._down[i]
    return poset.members_of(mask)


def filter_closure(poset: FinitePoset, members: Iterable[int]) -> frozenset[int]:
    """Smallest order filter containing the subset."""
    mask = 0
    for i in members:
        mask |= poset._up[i]
    return poset.members_of(mask)


# ---------------------------------------------------------------------------
# Brute-force enumeration (the oracle)


def _ics_mask_stream(poset: FinitePoset) -> Iterator[int]:
    """All ICS bitmasks in ascending numeric order.

    Depth-first search deciding element N-1 down to 0, exclude branch first,
    carrying two masks: below, the elements under some chosen element, and
    forbidden, the elements under an excluded element of below.  Element k may
    be chosen iff it is not forbidden; see the module docstring for why that
    is exactly the interval test.
    """
    down_strict = poset._down_strict
    stack = [(poset.n - 1, 0, 0, 0)]  # next index, chosen, below, forbidden
    while stack:
        k, mask, below, forbidden = stack.pop()
        if k < 0:
            yield mask
            continue
        bit = 1 << k
        if not forbidden & bit:
            stack.append((k - 1, mask | bit, below | down_strict[k], forbidden))
        if below & bit:
            forbidden |= down_strict[k]
        stack.append((k - 1, mask, below, forbidden))


def enumerate_ics(
    poset: FinitePoset, limit: int | None = None
) -> Iterator[frozenset[int]]:
    """Yield every ICS exactly once, ascending by bitmask encoding."""
    if poset.n > ICS_ENUMERATION_BOUND:
        raise OracleScaleExceeded(
            f"oracle scale exceeded: {poset.n} elements > bound {ICS_ENUMERATION_BOUND}"
        )
    stream = _ics_mask_stream(poset)
    if limit is not None:
        stream = itertools.islice(stream, limit)
    for mask in stream:
        yield poset.members_of(mask)


def count_ics(poset: FinitePoset) -> int:
    if poset.n > ICS_ENUMERATION_BOUND:
        raise OracleScaleExceeded(
            f"oracle scale exceeded: {poset.n} elements > bound {ICS_ENUMERATION_BOUND}"
        )
    return sum(1 for _ in _ics_mask_stream(poset))


# ---------------------------------------------------------------------------
# Involutions and symmetric ICS


@dataclass(frozen=True)
class Involution:
    """A poset automorphism equal to its own inverse, as an index permutation."""

    mapping: tuple[int, ...]

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
    for i in range(poset.n):
        for j in range(poset.n):
            if poset.leq(i, j) != poset.leq(perm[i], perm[j]):
                raise ValueError("map is not an automorphism")


def vertical_involution(spec: PosetSpec) -> Involution:
    """Coordinate swap (a, b) -> (b, a) on a spec whose rectangle frame is square."""
    spec = normalize_spec(spec)
    frame = family_of(spec).frame(spec)
    if frame is None or frame[0] != frame[1]:
        raise ValueError(f"vertical involution needs a square rectangle frame, got {spec}")
    return make_involution(build_poset(spec), lambda lab: (lab[1], lab[0]))


def enumerate_symmetric_ics(poset: FinitePoset, sigma: Involution) -> int:
    """Count the ICS fixed setwise by the involution: the oracle's search, in
    which an element whose partner was decided first copies that decision."""
    _check_involution(poset, sigma)
    perm = sigma.mapping
    orbits = sum(1 for i, p in enumerate(perm) if p <= i)
    if orbits > ICS_ENUMERATION_BOUND:
        raise OracleScaleExceeded(
            f"oracle scale exceeded: {orbits} orbits > bound {ICS_ENUMERATION_BOUND}"
        )
    down_strict = poset._down_strict
    total = 0
    stack = [(poset.n - 1, 0, 0, 0)]  # next index, chosen, below, forbidden
    while stack:
        k, mask, below, forbidden = stack.pop()
        if k < 0:
            total += 1
            continue
        bit = 1 << k
        partner = perm[k]
        free = partner <= k
        if not forbidden & bit and (free or mask >> partner & 1):
            stack.append((k - 1, mask | bit, below | down_strict[k], forbidden))
        if free or not mask >> partner & 1:
            if below & bit:
                forbidden |= down_strict[k]
            stack.append((k - 1, mask, below, forbidden))
    return total


# ---------------------------------------------------------------------------
# Subset statistics


@dataclass(frozen=True)
class SubsetStats:
    cardinality: int
    component_count: int
    incomparable_count: int
    minimal_in_subset: int
    hits_all_files: bool | None


def subset_stats(poset: FinitePoset, members: Iterable[int]) -> SubsetStats:
    """Statistics of a subset: size, cover-graph components, elements of the
    poset comparable with no member, minimal elements contained, and (for
    chain products) whether every value of the first coordinate is hit."""
    mask = poset.mask_of(members)
    cardinality = bin(mask).count("1")

    components = 0
    todo = mask
    while todo:
        components += 1
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for i in _iter_bits(frontier):
                nxt |= poset._cover_adj[i] & mask & ~comp
            comp |= nxt
            frontier = nxt
        todo &= ~comp

    incomparable = 0
    for z in range(poset.n):
        if not ((poset._up[z] | poset._down[z]) & mask):
            incomparable += 1

    minimal = bin(mask & poset.minimal_mask).count("1")

    hits = None
    if isinstance(poset.spec, ChainProduct):
        files = {lab[0] for lab in poset.labels_of(_iter_bits(mask))}
        hits = all(a in files for a in range(1, poset.spec.m + 1))

    return SubsetStats(cardinality, components, incomparable, minimal, hits)
