"""Constructive maps between interval-closed sets and lattice paths.

Geometry.  Elements (a, b) of [m] x [n] are drawn in path coordinates at
(a - b + n, a + b - 1): column index ("file") i = a - b + n running from 1
to m + n - 1, height j = a + b - 1.  An order ideal corresponds to the
unique monotone path from (0, n) to (m + n, m) over steps U = (1, 1) and
D = (1, -1) that leaves exactly the ideal below it: element (a, b) lies in
the ideal iff the path height at its file is at least a + b.  Truncating
the bottom r ranks of the rectangle turns into a floor: boundary paths of
ideals of the truncated poset stay weakly above y = r.

An ICS I determines the nested pair (B, T): T bounds the smallest order
ideal containing I and B bounds the order ideal of elements strictly below
I.  B and T coincide exactly over the files where I is empty; rewriting
each maximal shared block to put U steps first gives the canonical
representative, and the canonical B is also the highest path lying weakly
below all of I.

Letterwise recodings of the canonical pair give the two path images:

  (b_i, t_i):  (D,U) (U,D) (U,U) (D,D)
  Motzkin        U     D     H1    H2     (rectangles, r = 0)
  walk           NW    SE    E     W      (truncated rectangles)

The Motzkin word's height after i steps is half the gap between T and B;
the walk's position is (B height - r, half gap).  A walk image runs from
(n - r, 0) to (m - r, 0) in m + n steps, so (m, n, r) can be recovered
from a walk's frame via m = (l + s - h)/2, n = (l - s + h)/2,
r = (l - s - h)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable

from .paths import MotzkinWord, NestedPairBT, QuarterWalk, validate_nested_pair, validate_walk, validate_motzkin
from .posets import (  # noqa: F401  NotIntervalClosed is re-exported
    ChainProduct,
    FinitePoset,
    NotIntervalClosed,
    PosetSpec,
    TruncatedRectangle,
    _union,
    build_poset,
    family_of,
    filter_closure,
    ideal_closure,
    normalize_spec,
    require_ics,
)

Label = tuple[int, int]


_PAIR_TO_MOTZKIN = {("D", "U"): "U", ("U", "D"): "D", ("U", "U"): "H1", ("D", "D"): "H2"}
_MOTZKIN_TO_PAIR = {v: k for k, v in _PAIR_TO_MOTZKIN.items()}
_PAIR_TO_WALK = {("D", "U"): "NW", ("U", "D"): "SE", ("U", "U"): "E", ("D", "D"): "W"}
_WALK_TO_PAIR = {v: k for k, v in _PAIR_TO_WALK.items()}


def _rises(letter_to_pair: dict) -> tuple[dict, dict]:
    """For each letter of a path image, the height change of B and of T."""
    return tuple({s: 1 if bt[side] == "U" else -1 for s, bt in letter_to_pair.items()} for side in (0, 1))


_MOTZKIN_RISES = _rises(_MOTZKIN_TO_PAIR)
_WALK_RISES = _rises(_WALK_TO_PAIR)


# ---------------------------------------------------------------------------
# Rectangle-frame helpers


def _frame(spec: PosetSpec) -> tuple[int, int, int]:
    """(m, n, r) of the ambient rectangle; TypeARoot(k) sits in [k+1] x [k+1]."""
    spec = normalize_spec(spec)
    frame = family_of(spec).frame(spec)
    if frame is None:
        raise ValueError(f"no rectangle frame for {spec}")
    return frame


@lru_cache(maxsize=16)
def _files(poset: FinitePoset, m: int, n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each file i = 0..m+n: the floor height (of the lowest path from
    (0, n) to (m + n, m) on or above y = r) and the bitmask of the elements
    with a - b + n = i.  Labels are sorted, so the highest bit of a file's
    mask is its element with the largest a + b."""
    floor = tuple(abs(i - n) if abs(i - n) >= r else r + (r - n - i) % 2 for i in range(m + n + 1))
    masks = [0] * (m + n + 1)
    for k, (a, b) in enumerate(poset.labels):
        masks[a - b + n] |= 1 << k
    return floor, tuple(masks)


def _ideal_heights(m: int, n: int, r: int, poset: FinitePoset, ideal: int) -> list[int]:
    """Heights of the boundary path of the order ideal with bitmask ideal:
    the floor, raised at each file to a + b of the ideal's highest element
    there."""
    labels = poset.labels
    floor, masks = _files(poset, m, n, r)
    y = list(floor)
    for i, file in enumerate(masks):
        top = (ideal & file).bit_length() - 1
        if top >= 0:
            a, b = labels[top]
            y[i] = a + b
    return y


def _cells_between(m: int, n: int, r: int, lower: list[int], upper: list[int]) -> frozenset[Label]:
    """Cells (a, b) above the floor (a + b - 2 >= r) between two paths from
    (0, n) to (m + n, m): lower[i] < a + b <= upper[i] at file i = a - b + n.
    Heights at file i have the parity of a + b there, so a + b steps by 2."""
    cells = set()
    for i in range(1, m + n):
        if upper[i] > lower[i]:
            lo = max(lower[i], r + 1)
            for s in range(lo + 2 - (lo + i + n) % 2, upper[i] + 1, 2):
                cells.add(((s + i - n) // 2, (s - i + n) // 2))
    return frozenset(cells)


def _steps_from_heights(heights: list[int]) -> tuple[str, ...]:
    return tuple(["U" if b > a else "D" for a, b in zip(heights, heights[1:])])


def _heights_from_letters(steps: Iterable[str], start: int, rises: tuple[dict, dict]) -> list[list[int]]:
    """Heights of B and T, both starting at start, of the pair whose
    letterwise image is steps."""
    return [list(accumulate(map(rise.__getitem__, steps), initial=start)) for rise in rises]


def _canonicalize_shared_blocks(bh: list[int], th: list[int]) -> None:
    """Rewrite every maximal block where the two paths coincide so that its
    U steps come first; both height lists are edited in place."""
    ell = len(bh) - 1
    i = 0
    while i < ell:
        if bh[i] == th[i] and bh[i + 1] == th[i + 1]:
            j = i
            while j < ell and bh[j + 1] == th[j + 1]:
                j += 1
            ups = (j - i + th[j] - th[i]) // 2
            for k in range(i + 1, j):
                h = th[i] + (k - i) if k - i <= ups else th[i] + 2 * ups - (k - i)
                bh[k] = th[k] = h
            i = j
        else:
            i += 1


def _poset_for(spec: PosetSpec, poset: FinitePoset | None) -> FinitePoset:
    return poset if poset is not None else build_poset(spec)


# ---------------------------------------------------------------------------
# ICS <-> canonical nested pair


def ics_to_nested_pair(
    spec: PosetSpec, ics: Iterable[Label], poset: FinitePoset | None = None
) -> NestedPairBT:
    """Canonical (B, T) pair of an ICS of a rectangle, truncated rectangle, or
    root triangle."""
    m, n, r = _frame(spec)
    poset = _poset_for(spec, poset)
    members = poset.indices_of(ics)
    require_ics(poset, members)
    th = _ideal_heights(m, n, r, poset, _union(poset._down, members))
    # B bounds the ideal minus the ICS.  A file is a chain, and its members
    # are the top of the ideal's segment there (an element of the ideal above
    # a member lies below another member), so B runs just below the file's
    # lowest member: at its a + b minus 2, the floor if it is the file's
    # lowest element.
    bh = list(th)
    for a, b in map(poset.labels.__getitem__, members):
        if a + b - 2 < bh[a - b + n]:
            bh[a - b + n] = a + b - 2
    _canonicalize_shared_blocks(bh, th)
    return NestedPairBT(m, n, r, _steps_from_heights(bh), _steps_from_heights(th))


def nested_pair_to_ics(pair: NestedPairBT) -> frozenset[Label]:
    """Elements lying above B and below T (the ICS the pair encodes)."""
    problem = validate_nested_pair(pair)
    if problem is not None:
        raise ValueError(f"invalid nested pair: {problem}")
    return _cells_between(pair.m, pair.n, pair.r, pair.bottom_heights(), pair.top_heights())


# ---------------------------------------------------------------------------
# Nested pair <-> bicolored Motzkin word


def nested_pair_to_motzkin(pair: NestedPairBT) -> MotzkinWord:
    """Letterwise image of a canonical pair with no floor (r = 0)."""
    if pair.r != 0:
        raise ValueError(f"Motzkin image needs floor r = 0, got r = {pair.r}")
    problem = validate_nested_pair(pair)
    if problem is not None:
        raise ValueError(f"invalid nested pair: {problem}")
    return MotzkinWord(
        _PAIR_TO_MOTZKIN[bt] for bt in zip(pair.bottom, pair.top)
    )


def motzkin_to_nested_pair(word: MotzkinWord) -> NestedPairBT:
    verdict = validate_motzkin(word)
    if not verdict.valid:
        raise ValueError(f"invalid bicolored Motzkin word: {verdict.violation}")
    pairs = [_MOTZKIN_TO_PAIR[s] for s in word.steps]
    return NestedPairBT(
        verdict.m, verdict.n, 0, (b for b, _ in pairs), (t for _, t in pairs)
    )


# ---------------------------------------------------------------------------
# ICS <-> Motzkin word (rectangles)


def ics_to_motzkin(
    m: int, n: int, ics: Iterable[Label], poset: FinitePoset | None = None
) -> MotzkinWord:
    # the pair is canonical with floor 0 by construction: no validate_nested_pair
    pair = ics_to_nested_pair(ChainProduct(m, n), ics, poset)
    return MotzkinWord(map(_PAIR_TO_MOTZKIN.__getitem__, zip(pair.bottom, pair.top)))


def motzkin_to_ics(word: MotzkinWord) -> tuple[int, int, frozenset[Label]]:
    """Invert the Motzkin map.  The pair of a valid word is canonical (the
    round trips pin this), so the cells are read off its heights directly."""
    verdict = validate_motzkin(word)
    if not verdict.valid:
        raise ValueError(f"invalid bicolored Motzkin word: {verdict.violation}")
    m, n = verdict.m, verdict.n
    bh, th = _heights_from_letters(word.steps, n, _MOTZKIN_RISES)
    return m, n, _cells_between(m, n, 0, bh, th)


# ---------------------------------------------------------------------------
# ICS <-> quarter-plane walk (truncated rectangles and root triangles)


def ics_to_walk(
    spec: PosetSpec, ics: Iterable[Label], poset: FinitePoset | None = None
) -> QuarterWalk:
    pair = ics_to_nested_pair(spec, ics, poset)
    return QuarterWalk(pair.n - pair.r, map(_PAIR_TO_WALK.__getitem__, zip(pair.bottom, pair.top)))


def walk_frame(walk: QuarterWalk) -> tuple[int, int, int]:
    """(m, n, r) recovered from a walk's start, end, and length.  r may be
    negative, meaning the walk never touches the y-axis and its ICS lives in
    the plain rectangle."""
    verdict = validate_walk(walk)
    if not verdict.valid:
        raise ValueError(f"invalid quarter-plane walk: {verdict.violation}")
    h, (s, _), ell = walk.start_x, verdict.endpoint, len(walk.steps)
    if verdict.endpoint[1] != 0:
        raise ValueError(f"walk must end on the x-axis, ends at {verdict.endpoint}")
    if (ell - s - h) % 2:
        raise ValueError(f"walk frame (h={h}, s={s}, l={ell}) has odd parity")
    return (ell + s - h) // 2, (ell - s + h) // 2, (ell - s - h) // 2


def walk_to_ics(walk: QuarterWalk) -> tuple[PosetSpec, frozenset[Label]]:
    """Invert the walk map.  Returns the poset spec (truncation normalized to
    r >= 0) together with the ICS."""
    m, n, r = walk_frame(walk)
    bh, th = _heights_from_letters(walk.steps, n, _WALK_RISES)
    r_eff = max(r, 0)
    spec = ChainProduct(m, n) if r_eff == 0 else TruncatedRectangle(m, n, r_eff)
    return spec, _cells_between(m, n, r_eff, bh, th)


# ---------------------------------------------------------------------------
# Element classification (the four regions cut out by the L and U paths)


@dataclass(frozen=True)
class ElementClassification:
    in_ics: frozenset[Label]
    below_only: frozenset[Label]
    above_only: frozenset[Label]
    incomparable: frozenset[Label]


def classify_elements(
    spec: PosetSpec, ics: Iterable[Label], poset: FinitePoset | None = None
) -> ElementClassification:
    """Partition the poset into the ICS, the rest of its ideal closure, the
    rest of its filter closure, and the elements comparable with nothing in
    it."""
    _frame(spec)  # restrict to the rectangle-like families
    poset = _poset_for(spec, poset)
    members = poset.indices_of(ics)
    require_ics(poset, members)
    delta = ideal_closure(poset, members)
    nabla = filter_closure(poset, members)
    everything = frozenset(range(poset.n))
    return ElementClassification(
        in_ics=poset.labels_of(members),
        below_only=poset.labels_of(delta - members),
        above_only=poset.labels_of(nabla - members),
        incomparable=poset.labels_of(everything - delta - nabla),
    )


# ---------------------------------------------------------------------------
# Full ICS and the shift map


def is_full_ics(
    m: int, n: int, ics: Iterable[Label], poset: FinitePoset | None = None
) -> bool:
    """Whether the bounding paths of the ICS meet only at their endpoints,
    i.e. the Motzkin image leaves the x-axis immediately and for good."""
    word = ics_to_motzkin(m, n, ics, poset)
    heights = word.heights()
    return all(h > 0 for h in heights[1:-1])


def shift_map(
    m: int, n: int, ics: Iterable[Label], poset: FinitePoset | None = None
) -> frozenset[Label]:
    """Send an ICS of [m] x [n] touching every file a in 1..m to a full ICS
    of [m+1] x [n]: prepend a U step to the upper path, append one to the
    lower path."""
    ics = frozenset(ics)
    files = {a for a, _ in ics}
    if files != set(range(1, m + 1)):
        raise ValueError(
            f"shift map needs an element in every file 1..{m}, missing {sorted(set(range(1, m + 1)) - files)}"
        )
    poset = _poset_for(ChainProduct(m, n), poset)
    members = poset.indices_of(ics)
    require_ics(poset, members)
    # the upper path bounds the ideal closure, the lower one the elements above no member
    upper = _ideal_heights(m, n, 0, poset, _union(poset._down, members))
    lower = _ideal_heights(m, n, 0, poset, ~_union(poset._up, members))
    new_upper = [n] + [h + 1 for h in upper]
    new_lower = lower + [lower[-1] + 1]
    return _cells_between(m + 1, n, 0, new_lower, new_upper)


def shift_map_inverse(
    m: int, n: int, ics: Iterable[Label], poset: FinitePoset | None = None
) -> frozenset[Label]:
    """Inverse of the shift map: a full ICS of [m] x [n] (m >= 1) back to an
    ICS of [m-1] x [n] touching every file."""
    pair = ics_to_nested_pair(ChainProduct(m, n), ics, poset)
    top, bottom = pair.top_heights(), pair.bottom_heights()
    # full: the paths meet only at their endpoints (is_full_ics, on the pair)
    if any(t <= b for t, b in zip(top[1:-1], bottom[1:-1])):
        raise ValueError("shift map inverse is only defined on full ICS")
    if pair.top[0] != "U" or pair.bottom[-1] != "U":
        raise ValueError("full ICS paths do not start/end with the shift step")
    upper = [h - 1 for h in top[1:]]
    lower = bottom[:-1]
    out = _cells_between(m - 1, n, 0, lower, upper)
    files = {a for a, _ in out}
    if files != set(range(1, m)):
        raise AssertionError("inverse shift lost a file")  # pragma: no cover
    return out
