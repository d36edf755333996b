"""Constructive maps between interval-closed sets and lattice paths.

Geometry.  Elements (a, b) of [m] x [n] are drawn in path coordinates at
(a - b + n, a + b - 1): diagonal i = a - b + n running from 1
to m + n - 1, height j = a + b - 1.  An order ideal corresponds to the
unique monotone path from (0, n) to (m + n, m) over steps U = (1, 1) and
D = (1, -1) that leaves exactly the ideal below it: element (a, b) lies in
the ideal iff the path height at its diagonal is at least a + b.  Truncating
the bottom r ranks of the rectangle turns into a floor: boundary paths of
ideals of the truncated poset stay weakly above y = r.

An ICS I determines the nested pair (B, T): T bounds the smallest order
ideal containing I and B bounds the order ideal of elements strictly below
I.  They coincide exactly over the diagonals where I is empty, and the
canonical pair takes the U steps of each shared block first.  Both come
from two envelopes of I: under, the highest path lying below every member,
and over, the lowest path lying above every member and the floor.  The
canonical B is under, and T is max(over, under): over bounds the ideal
closure, and where it dips below under no member lies, so T runs with B.
Where nothing holds it down, the highest path below I climbs as early as
it can, so each shared block already takes its U steps first.  The
non-members under over are the rest of the ideal closure, those above under
the rest of the filter closure, and those between the two comparable with
no member.

Letterwise recodings of the canonical pair give the two path images: each
step's letter is read off the rises of B and of T at that step.

  (B rise, T rise):  (-1, +1) (+1, -1) (+1, +1) (-1, -1)
  walk                  NW       SE       E        W      (truncated rectangles)
  Motzkin               U        D        H1       H2     (rectangles, r = 0)

The walk's position is (B height - r, half gap); the Motzkin word is the
walk image of r = 0 renamed, so its height is the walk's y.  A walk image
runs from (n - r, 0) to (m - r, 0) in m + n steps, so (m, n, r) can be
recovered from a walk's frame via m = (l + s - h)/2, n = (l - s + h)/2,
r = (l - s - h)/2.

The maps read labels as coordinates; the poset build_poset(spec) caches
is read only by require_ics, which checks the labels against the spec, and
by classify_elements for the list of its elements.
"""

from __future__ import annotations

from typing import Iterable

from .paths import MOTZKIN_AS_WALK, WALK_AS_MOTZKIN, WALK_MOVES, MotzkinWord, NestedPairBT, QuarterWalk
from .paths import validate_motzkin, validate_nested_pair, validate_walk
from .posets import (  # noqa: F401  NotIntervalClosed is re-exported
    ChainProduct,
    NotIntervalClosed,
    PosetSpec,
    TruncatedRectangle,
    _Value,
    build_poset,
    family_of,
    normalize_spec,
    require_ics,
)

Label = tuple[int, int]


# the (B rise, T rise) of each walk letter, a move (dx, dy) raising B by dx
# and T by dx + 2 dy, and the walk letter of a step by its rises.  A Motzkin
# word is the walk image renamed, U D H1 H2 for NW SE E W; paths reads it as
# a walk from x = len(steps), which its one-unit x moves cannot take below 0.
_RISES_BY_WALK = {s: (dx, dx + 2 * dy) for s, (dx, dy) in WALK_MOVES.items()}
_WALK_BY_RISES = {v: k for k, v in _RISES_BY_WALK.items()}


# ---------------------------------------------------------------------------
# Rectangle-frame helpers


def _frame(spec: PosetSpec) -> tuple[int, int, int]:
    """(m, n, r) of the ambient rectangle; TypeARoot(k) sits in [k+1] x [k+1]."""
    spec = normalize_spec(spec)
    frame = family_of(spec).frame(spec)
    if frame is None:
        raise ValueError(f"no rectangle frame for {spec}")
    return frame


def _cells_between(m: int, n: int, r: int, lower: list[int], upper: list[int]) -> frozenset[Label]:
    """Cells (a, b) above the floor (a + b - 2 >= r) between two paths from
    (0, n) to (m + n, m): lower[i] < a + b <= upper[i] at diagonal i = a - b + n.
    Heights at diagonal i have the parity of a + b there, so a + b steps by 2."""
    cells = set()
    for i in range(1, m + n):
        if upper[i] > lower[i]:
            lo = max(lower[i], r + 1)
            for s in range(lo + 2 - (lo + i + n) % 2, upper[i] + 1, 2):
                cells.add(((s + i - n) // 2, (s - i + n) // 2))
    return frozenset(cells)


def _steps_from_heights(heights: list[int]) -> tuple[str, ...]:
    return tuple(["U" if b > a else "D" for a, b in zip(heights, heights[1:])])


def _letters(bh: list[int], th: list[int]) -> list[str]:
    """The walk letter of each step of the pair with heights bh and th."""
    return [_WALK_BY_RISES[b1 - b0, t1 - t0] for b0, b1, t0, t1 in zip(bh, bh[1:], th, th[1:])]


def _heights_from_letters(steps: Iterable[str], start: int) -> tuple[list[int], list[int]]:
    """Heights of B and T, both starting at start, of the pair whose walk
    image is steps."""
    bh, th = [start], [start]
    for db, dt in map(_RISES_BY_WALK.__getitem__, steps):
        bh.append(bh[-1] + db)
        th.append(th[-1] + dt)
    return bh, th


# ---------------------------------------------------------------------------
# ICS <-> canonical nested pair


def _envelopes(spec: PosetSpec, ics: Iterable[Label]) -> tuple[int, int, int, list[int], list[int]]:
    """(m, n, r) and the heights of the two envelopes of an ICS: under, the
    highest path lying below every member, and over, the lowest path lying
    above every member and the floor.  Each is one forward and one backward
    pass over per-diagonal bounds, both pinned to the frame's endpoints."""
    m, n, r = _frame(spec)
    poset = build_poset(spec)
    members = frozenset(ics)
    require_ics(poset, poset.indices_of(members))
    end = m + n
    # floor: a + b of the diagonal's highest member, else the floor r or r + 1
    # by parity; ceiling: a + b - 2 of its lowest member, else m + n
    over = [r + (r + i + n) % 2 for i in range(end + 1)]
    under = [end] * (end + 1)
    for a, b in members:
        i = a - b + n
        if a + b > over[i]:
            over[i] = a + b
        if a + b - 2 < under[i]:
            under[i] = a + b - 2
    over[0] = under[0] = n
    over[end] = under[end] = m
    for i in range(1, end + 1):
        if over[i] < over[i - 1] - 1:
            over[i] = over[i - 1] - 1
        if under[i] > under[i - 1] + 1:
            under[i] = under[i - 1] + 1
    for i in range(end - 1, -1, -1):
        if over[i] < over[i + 1] - 1:
            over[i] = over[i + 1] - 1
        if under[i] > under[i + 1] + 1:
            under[i] = under[i + 1] + 1
    return m, n, r, under, over


def _pair_heights(spec: PosetSpec, ics: Iterable[Label]) -> tuple[int, int, int, list[int], list[int]]:
    """(m, n, r) and the heights of B and of T of the canonical pair of an
    ICS of a rectangle, truncated rectangle, or root triangle."""
    m, n, r, under, over = _envelopes(spec, ics)
    return m, n, r, under, list(map(max, over, under))


def ics_to_nested_pair(spec: PosetSpec, ics: Iterable[Label]) -> NestedPairBT:
    """Canonical (B, T) pair of an ICS of a rectangle, truncated rectangle, or
    root triangle."""
    m, n, r, bh, th = _pair_heights(spec, ics)
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
    return MotzkinWord(map(WALK_AS_MOTZKIN.__getitem__, _letters(pair.bottom_heights(), pair.top_heights())))


def motzkin_to_nested_pair(word: MotzkinWord) -> NestedPairBT:
    verdict = validate_motzkin(word)
    if not verdict.valid:
        raise ValueError(f"invalid bicolored Motzkin word: {verdict.violation}")
    bh, th = _heights_from_letters(map(MOTZKIN_AS_WALK.__getitem__, word.steps), verdict.n)
    return NestedPairBT(verdict.m, verdict.n, 0, _steps_from_heights(bh), _steps_from_heights(th))


# ---------------------------------------------------------------------------
# ICS <-> Motzkin word (rectangles)


def ics_to_motzkin(m: int, n: int, ics: Iterable[Label]) -> MotzkinWord:
    _, _, _, bh, th = _pair_heights(ChainProduct(m, n), ics)
    return MotzkinWord(map(WALK_AS_MOTZKIN.__getitem__, _letters(bh, th)))


def motzkin_to_ics(word: MotzkinWord) -> tuple[int, int, frozenset[Label]]:
    """Invert the Motzkin map.  The pair of a valid word is canonical (the
    round trips pin this), so the cells are read off its heights directly."""
    verdict = validate_motzkin(word)
    if not verdict.valid:
        raise ValueError(f"invalid bicolored Motzkin word: {verdict.violation}")
    m, n = verdict.m, verdict.n
    bh, th = _heights_from_letters(map(MOTZKIN_AS_WALK.__getitem__, word.steps), n)
    return m, n, _cells_between(m, n, 0, bh, th)


# ---------------------------------------------------------------------------
# ICS <-> quarter-plane walk (truncated rectangles and root triangles)


def ics_to_walk(spec: PosetSpec, ics: Iterable[Label]) -> QuarterWalk:
    _, n, r, bh, th = _pair_heights(spec, ics)
    return QuarterWalk(n - r, _letters(bh, th))


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
    bh, th = _heights_from_letters(walk.steps, n)
    r_eff = max(r, 0)
    spec = ChainProduct(m, n) if r_eff == 0 else TruncatedRectangle(m, n, r_eff)
    return spec, _cells_between(m, n, r_eff, bh, th)


# ---------------------------------------------------------------------------
# Element classification (the four regions cut out by the two envelopes)


class ElementClassification(_Value):
    __slots__ = ("in_ics", "below_only", "above_only", "incomparable")  # frozensets of labels


def classify_elements(spec: PosetSpec, ics: Iterable[Label]) -> ElementClassification:
    """Partition the poset into the ICS, the rest of its ideal closure, the
    rest of its filter closure, and the elements comparable with nothing in
    it."""
    members = frozenset(ics)
    _, n, _, under, over = _envelopes(spec, members)
    below, above, incomparable = [], [], []
    for a, b in build_poset(spec).labels:
        if (a, b) not in members:
            i = a - b + n
            if over[i] >= a + b:
                below.append((a, b))
            elif under[i] < a + b:
                above.append((a, b))
            else:
                incomparable.append((a, b))
    return ElementClassification(members, frozenset(below), frozenset(above), frozenset(incomparable))


# ---------------------------------------------------------------------------
# Full ICS and the shift map


def is_full_ics(m: int, n: int, ics: Iterable[Label]) -> bool:
    """Whether the bounding paths of the ICS meet only at their endpoints,
    i.e. the Motzkin image leaves the x-axis immediately and for good."""
    _, _, _, bh, th = _pair_heights(ChainProduct(m, n), ics)
    return all(t > b for b, t in zip(bh[1:-1], th[1:-1]))


def shift_map(m: int, n: int, ics: Iterable[Label]) -> frozenset[Label]:
    """Send an ICS of [m] x [n] touching every file a in 1..m to a full ICS
    of [m+1] x [n]: prepend a U step to the upper path, append one to the
    lower path."""
    ics = frozenset(ics)
    files = {a for a, _ in ics}
    if files != set(range(1, m + 1)):
        raise ValueError(
            f"shift map needs an element in every file 1..{m}, missing {sorted(set(range(1, m + 1)) - files)}"
        )
    # each column is a chain holding a member, so every element is comparable
    # with one: over never dips below under, and (B, T) is (under, over)
    _, _, _, lower, upper = _pair_heights(ChainProduct(m, n), ics)
    return _cells_between(m + 1, n, 0, lower + [lower[-1] + 1], [n] + [h + 1 for h in upper])


def shift_map_inverse(m: int, n: int, ics: Iterable[Label]) -> frozenset[Label]:
    """Inverse of the shift map: a full ICS of [m] x [n] (m >= 1) back to an
    ICS of [m-1] x [n] touching every file."""
    _, _, _, bottom, top = _pair_heights(ChainProduct(m, n), ics)
    # full: the paths meet only at their endpoints (is_full_ics)
    if any(t <= b for t, b in zip(top[1:-1], bottom[1:-1])):
        raise ValueError("shift map inverse is only defined on full ICS")
    if top[1] < top[0] or bottom[-1] < bottom[-2]:
        raise ValueError("full ICS paths do not start/end with the shift step")
    out = _cells_between(m - 1, n, 0, bottom[:-1], [h - 1 for h in top[1:]])
    files = {a for a, _ in out}
    if files != set(range(1, m)):
        raise AssertionError("inverse shift lost a file")  # pragma: no cover
    return out
