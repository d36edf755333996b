"""Lattice-path value types: bicolored Motzkin words, quarter-plane walks,
nested path pairs, their validators and statistics.

Quarter-plane walks start at (start_x, 0) and use steps E=(1,0), W=(-1,0),
SE=(1,-1), NW=(-1,1).  A walk is valid when it stays in the quadrant
x >= 0, y >= 0 and no W step taken on the x-axis is immediately followed
by an E step.

Bicolored Motzkin words use letters U, D and two horizontal colors H1, H2.
A word is a walk in other letters, U D H1 H2 for NW SE E W, and its height
is the walk's y.  Read from (len(steps), 0) the walk never reaches x < 0,
as each step moves x by one, so only the height rules bind: a word is
valid when its height never drops below zero, ends at zero, and no H2
lying on the x-axis is immediately followed by an H1.  Its shape
parameters are m = #U + #H1, n = #D + #H2.

Nested pairs (B, T) are two paths over {U, D} read in a common frame: both
run from (0, n) to (m+n, m), stay weakly above the line y = r, B stays
weakly below T, and wherever the two paths coincide each maximal shared
block has all U steps before all D steps (the canonical form).

Text encodings (exact contract for the CLI):
  Motzkin words   whitespace-separated tokens U D 1 2
  walks           whitespace-separated tokens e w se nw
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .posets import _Value

# the move of each walk letter, and the walk letter of each Motzkin letter;
# their keys are the two alphabets, in the order the enumerators read them
WALK_MOVES = MappingProxyType({"E": (1, 0), "W": (-1, 0), "SE": (1, -1), "NW": (-1, 1)})
MOTZKIN_AS_WALK = MappingProxyType({"U": "NW", "D": "SE", "H1": "E", "H2": "W"})
WALK_AS_MOTZKIN = MappingProxyType({w: s for s, w in MOTZKIN_AS_WALK.items()})


def _as_walk(steps: Sequence[str]) -> list[str]:
    """The walk letters of Motzkin letters."""
    for s in steps:
        if s not in MOTZKIN_AS_WALK:
            raise ValueError(f"unknown letter {s!r}")
    return [MOTZKIN_AS_WALK[s] for s in steps]


# ---------------------------------------------------------------------------
# Value types


class MotzkinWord(_Value):
    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[str]):
        super().__init__(tuple(steps))

    def heights(self) -> list[int]:
        """Height after each step (length len(steps) + 1, starts at 0)."""
        return [y for _, y in QuarterWalk(0, _as_walk(self.steps)).positions()]


class QuarterWalk(_Value):
    __slots__ = ("start_x", "steps")

    def __init__(self, start_x: int, steps: Iterable[str]):
        super().__init__(start_x, tuple(steps))

    def positions(self) -> list[tuple[int, int]]:
        """Visited points including the start (length len(steps) + 1)."""
        pos = [(self.start_x, 0)]
        for s in self.steps:
            if s not in WALK_MOVES:
                raise ValueError(f"unknown letter {s!r}")
            dx, dy = WALK_MOVES[s]
            x, y = pos[-1]
            pos.append((x + dx, y + dy))
        return pos

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.positions()[-1]


class NestedPairBT(_Value):
    __slots__ = ("m", "n", "r", "bottom", "top")

    def __init__(self, m: int, n: int, r: int, bottom: Iterable[str], top: Iterable[str]):
        super().__init__(m, n, r, tuple(bottom), tuple(top))

    def bottom_heights(self) -> list[int]:
        return _ud_heights(self.n, self.bottom)

    def top_heights(self) -> list[int]:
        return _ud_heights(self.n, self.top)


def _ud_heights(start: int, steps: Sequence[str]) -> list[int]:
    h = [start]
    for s in steps:
        h.append(h[-1] + (1 if s == "U" else -1))
    return h


@dataclass(frozen=True)
class MotzkinStats:
    area: int
    returns: int
    axis_run_product_sum: int


class WalkStats(_Value):
    __slots__ = ("height_sum", "x_axis_returns", "y_axis_returns_excl_last")


class MotzkinVerdict(_Value):
    __slots__ = ("valid", "m", "n", "violation")  # (m, n) when valid, else the violation


class WalkVerdict(_Value):
    __slots__ = ("valid", "endpoint", "violation")  # the endpoint when valid, else the violation


# ---------------------------------------------------------------------------
# Validation


def _follow(start_x: int, steps: Sequence[str]) -> tuple[str | None, int, tuple[int, int]]:
    """Read walk letters from (start_x, 0) up to the first rule they break:
    that rule ("letter", "W then E" or "quadrant") or None, the number of
    steps read and the point reached."""
    x, y = start_x, 0
    w_on_axis = False
    for i, s in enumerate(steps, 1):
        if s not in WALK_MOVES:
            return "letter", i, (x, y)
        if w_on_axis and s == "E":
            return "W then E", i, (x, y)
        dx, dy = WALK_MOVES[s]
        x, y = x + dx, y + dy
        if x < 0 or y < 0:
            return "quadrant", i, (x, y)
        w_on_axis = s == "W" and y == 0
    return None, len(steps), (x, y)


def validate_motzkin(word: MotzkinWord | Iterable[str]) -> MotzkinVerdict:
    """Structured validity verdict; reports (m, n) when the word is valid.
    The word is a MotzkinWord or any other iterable of letters, read once."""
    steps = word.steps if isinstance(word, MotzkinWord) else tuple(word)
    try:
        walk = _as_walk(steps)  # every letter is checked before any rule
    except ValueError as e:
        return MotzkinVerdict(False, None, None, str(e))
    rule, i, (x, h) = _follow(len(walk), walk)
    if rule == "W then E":
        return MotzkinVerdict(False, None, None, f"H2 on the x-axis followed by H1 at step {i - 1}")
    if rule is not None:  # read from x = len(steps), x never binds
        return MotzkinVerdict(False, None, None, f"height drops below 0 at step {i}")
    if h != 0:
        return MotzkinVerdict(False, None, None, f"final height {h} is not 0")
    # from x = m + n the walk moves x by #H1 - #H2 = m - n, as #U = #D
    return MotzkinVerdict(True, x // 2, len(walk) - x // 2, None)


def validate_walk(walk: QuarterWalk) -> WalkVerdict:
    """Structured validity verdict; reports the endpoint when valid."""
    start_x, steps = walk.start_x, walk.steps
    if type(start_x) is not int:  # type() rather than isinstance(): bool is an int
        return WalkVerdict(False, None, f"start x {start_x!r} is not an int")
    if start_x < 0:
        return WalkVerdict(False, None, f"start x {start_x} is negative")
    rule, i, (x, y) = _follow(start_x, steps)
    if rule == "letter":
        return WalkVerdict(False, None, f"unknown letter {steps[i - 1]!r}")
    if rule == "W then E":
        return WalkVerdict(False, None, f"W on the x-axis followed by E at step {i}")
    if rule is not None:
        return WalkVerdict(False, None, f"leaves the quadrant at step {i} ({x}, {y})")
    return WalkVerdict(True, (x, y), None)


def _shared_blocks(bh: Sequence[int], th: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(i, j) for each maximal block of steps i + 1..j over which the paths
    with heights bh and th coincide."""
    for meet, run in groupby(range(len(bh)), lambda k: bh[k] == th[k]):
        run = list(run)
        if meet and len(run) > 1:
            yield run[0], run[-1]


def validate_nested_pair(pair: NestedPairBT) -> str | None:
    """None when the pair is a canonical nested pair, else a description."""
    ell = pair.m + pair.n
    for name, steps in (("B", pair.bottom), ("T", pair.top)):
        if len(steps) != ell:
            return f"{name} has {len(steps)} steps, expected {ell}"
        if any(s not in ("U", "D") for s in steps):
            return f"{name} has letters outside U/D"
        if sum(1 for s in steps if s == "U") != pair.m:
            return f"{name} does not have exactly {pair.m} U steps"
    bh = pair.bottom_heights()
    th = pair.top_heights()
    if min(bh) < pair.r:
        return f"B drops below the floor y = {pair.r}"
    if any(b > t for b, t in zip(bh, th)):
        return "B rises above T"
    for i, j in _shared_blocks(bh, th):
        block = pair.bottom[i:j]
        if "D" in block and "U" in block[block.index("D"):]:
            return f"shared block at steps {i + 1}..{j} is not U-steps-first"
    return None


# ---------------------------------------------------------------------------
# Statistics


def motzkin_stats(word: MotzkinWord | Iterable[str]) -> MotzkinStats:
    """Area below the word, D-step returns to the axis, and the sum of
    (#H1 * #H2) over maximal horizontal runs on the axis."""
    if not isinstance(word, MotzkinWord):
        word = MotzkinWord(word)
    verdict = validate_motzkin(word)
    if not verdict.valid:
        raise ValueError(f"invalid bicolored Motzkin word: {verdict.violation}")
    walk = _as_walk(word.steps)
    # the area is the walk's height sum, and the returns are its SE returns
    sums = _walk_stats(len(walk), walk)
    run_product_sum = run_h1 = run_h2 = h = 0
    for s in walk:
        if h == 0 and s in ("E", "W"):  # an H1 or an H2 on the axis
            run_h1 += s == "E"
            run_h2 += s == "W"
        else:
            run_product_sum += run_h1 * run_h2
            run_h1 = run_h2 = 0
            h += WALK_MOVES[s][1]
    return MotzkinStats(sums.height_sum, sums.x_axis_returns, run_product_sum + run_h1 * run_h2)


def walk_stats(walk: QuarterWalk) -> WalkStats:
    """Sum of heights after each step, SE returns to the x-axis, and W/NW
    returns to the y-axis not counting the final step."""
    verdict = validate_walk(walk)
    if not verdict.valid:
        raise ValueError(f"invalid quarter-plane walk: {verdict.violation}")
    return _walk_stats(walk.start_x, walk.steps)


def _walk_stats(x: int, steps: Sequence[str]) -> WalkStats:
    y = height_sum = x_returns = y_returns = 0
    for s in steps:
        dx, dy = WALK_MOVES[s]
        x += dx
        y += dy
        height_sum += y
        if y == 0 and s == "SE":
            x_returns += 1
        if x == 0:  # only W and NW steps reach the y-axis
            y_returns += 1
    if x == 0 and steps:  # the final step is not counted
        y_returns -= 1
    return WalkStats(height_sum, x_returns, y_returns)


# ---------------------------------------------------------------------------
# Text encodings

_MOTZKIN_TO_TOKEN = {"U": "U", "D": "D", "H1": "1", "H2": "2"}
_TOKEN_TO_MOTZKIN = {v: k for k, v in _MOTZKIN_TO_TOKEN.items()}


def motzkin_to_text(word: MotzkinWord) -> str:
    return " ".join(_MOTZKIN_TO_TOKEN[s] for s in word.steps)


def motzkin_from_text(text: str) -> MotzkinWord:
    tokens = text.split()
    try:
        return MotzkinWord(_TOKEN_TO_MOTZKIN[t] for t in tokens)
    except KeyError as e:
        raise ValueError(f"unknown Motzkin token {e.args[0]!r}") from None


def walk_to_text(walk: QuarterWalk) -> str:
    return " ".join(s.lower() for s in walk.steps)


def walk_from_text(start_x: int, text: str) -> QuarterWalk:
    tokens = text.split()
    upper = [t.upper() for t in tokens]
    for t in upper:
        if t not in WALK_MOVES:
            raise ValueError(f"unknown walk token {t.lower()!r}")
    return QuarterWalk(start_x, upper)

