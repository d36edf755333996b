"""Seeded inputs of the three workloads and the reference answers they are
checked against.

Every stream is drawn from ``random.Random(f"{workload}:{seed}")``, so a seed
gives the same requests in every process and under every hash seed.  The
streams rotate through the families and through each family's entries in
seeded order; a run therefore sees the same mix of light and heavy requests
whatever its seed, which keeps run-level aggregates steady.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

COUNT_FAMILIES = ("rect", "trunc", "rootA", "minB", "rootB", "ordsum", "cube")

# Highest order each `icsets series` family accepts today; orders are drawn
# from 1..max.  rectangle and bminuscule run the Fraction engine, the others
# the functional-equation recurrences.
SERIES_MAX_ORDER = {
    "rectangle": 10,
    "bminuscule": 40,
    "typeA": 20,
    "broot": 20,
    "truncated": 20,
}
SERIES_STRATA = 5

# The bijection_sweep ladder: (family, m, n, r) frames from 5x5 to 20x20.
# rect uses the Motzkin map, trunc and rootA the walk map; rootA:k sits in
# the frame (k+1, k+1, k+1).
SWEEP_LADDER = (
    ("rect", 5, 5, 0),
    ("rect", 10, 10, 0),
    ("rect", 15, 15, 0),
    ("rect", 20, 20, 0),
    ("trunc", 6, 5, 2),
    ("trunc", 10, 11, 4),
    ("trunc", 15, 16, 6),
    ("trunc", 20, 20, 8),
    ("rootA", 6, 6, 6),
    ("rootA", 11, 11, 11),
    ("rootA", 16, 16, 16),
    ("rootA", 21, 21, 21),
)
SWEEP_POOL_PER_FRAME = 256
SWEEP_OVERSAMPLE = 4


def load_reference() -> dict:
    """{"counts": {spec: int}, "series_sha256": {family: {order: hex}}}."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {
        "counts": {spec: int(v) for spec, v in data["counts"].items()},
        "series_sha256": {
            fam: {int(k): v for k, v in table.items()}
            for fam, table in data["series_sha256"].items()
        },
    }


def family_of(spec: str) -> str:
    return spec.partition(":")[0]


def _reorient(rng: random.Random, spec: str) -> str:
    """An isomorphic spelling of spec: transposed rectangles, permuted cube
    dimensions and ordinal-sum blocks.  The count is unchanged, the element
    order the engines see is not."""
    kind, _, rest = spec.partition(":")
    if kind in ("rect", "cube"):
        dims = rest.split("x")
        rng.shuffle(dims)
        return f"{kind}:{'x'.join(dims)}"
    if kind == "trunc":
        dims, _, r = rest.partition(":")
        m, n = dims.split("x")
        if rng.random() < 0.5:
            m, n = n, m
        return f"trunc:{m}x{n}:{r}"
    if kind == "ordsum":
        blocks = rest.split("+")
        rng.shuffle(blocks)
        return f"ordsum:{'+'.join(blocks)}"
    return spec


def _rotation(rng: random.Random, keys: list) -> "itertools.chain":
    """Endless stream over keys: each pass is a fresh seeded permutation."""

    def passes():
        while True:
            order = list(keys)
            rng.shuffle(order)
            yield order

    return itertools.chain.from_iterable(passes())


def _strata(rng: random.Random, keys: list):
    """Endless stream over keys sorted by cost: keys are cut into
    SERIES_STRATA consecutive blocks and every SERIES_STRATA draws take one
    key from each block, so any stretch of the stream covers the cost range
    evenly."""
    size = -(-len(keys) // SERIES_STRATA)
    blocks = [_rotation(rng, keys[i : i + size]) for i in range(0, len(keys), size)]
    for block in _rotation(rng, range(len(blocks))):
        yield next(blocks[block])


def _round_robin(rng: random.Random, streams: dict):
    for name in _rotation(rng, sorted(streams)):
        yield name, next(streams[name])


def count_requests(seed: int, counts: dict[str, int]):
    """Endless `count <spec> --json` requests: (argv, expected count)."""
    rng = random.Random(f"count_mix:{seed}")
    groups: dict[str, list] = {}
    for spec in counts:
        groups.setdefault(family_of(spec), []).append(spec)
    streams = {family: _rotation(rng, specs) for family, specs in groups.items()}
    for _, spec in _round_robin(rng, streams):
        yield ("count", _reorient(rng, spec), "--json"), counts[spec]


def series_requests(seed: int, digests: dict[str, dict[int, str]]):
    """Endless `series <family> --order K --format csv` requests:
    (argv, expected stdout sha256).  Cost grows with the order, so orders
    are drawn in strata."""
    rng = random.Random(f"series_tables:{seed}")
    streams = {
        family: _strata(rng, list(range(1, top + 1))) for family, top in SERIES_MAX_ORDER.items()
    }
    for family, order in _round_robin(rng, streams):
        argv = ("series", family, "--order", str(order), "--format", "csv")
        yield argv, digests[family][order]


def _staircase(m: int, tops) -> list[int]:
    """Row bounds of the down-set of tops in [m] x [n]: row a holds the
    elements (a, b) with b <= bound[a]; bound[0] is unused."""
    bound = [0] * (m + 2)
    for a, b in tops:
        bound[a] = max(bound[a], b)
    for a in range(m - 1, 0, -1):
        bound[a] = max(bound[a], bound[a + 1])
    return bound


def random_ics(rng: random.Random, frame: tuple) -> frozenset:
    """K \\ J for nested order ideals J <= K of the frame's poset ([m] x [n]
    minus its bottom r ranks), each the down-set of up to three random
    elements: a random staircase boundary.  Any such difference is
    interval-closed: z between two members lies below a member, so in K, and
    above a member, so not in J."""
    _, m, n, r = frame
    rows = [(a, max(1, r + 2 - a)) for a in range(1, m + 1) if r + 2 - a <= n]
    elements = [(a, b) for a, lo in rows for b in range(lo, n + 1)]
    upper = _staircase(m, rng.sample(elements, rng.randint(1, 3)))
    inside = [(a, b) for a, lo in rows for b in range(lo, upper[a] + 1)]
    lower = _staircase(m, rng.sample(inside, rng.randint(0, min(3, len(inside)))))
    return frozenset(
        (a, b) for a, lo in rows for b in range(max(lo, lower[a] + 1), upper[a] + 1)
    )


def sweep_pool(seed: int) -> list[tuple[tuple, frozenset]]:
    """Round-robin over the ladder: entry i is (ladder[i % len(ladder)], ICS).

    A request's cost grows steeply with the size of its ICS, so each frame's
    ICS are a systematic sample of candidates sorted by size: every seed
    gets nearly the same spread of sizes, which steadies the tail latency.
    """
    rng = random.Random(f"bijection_sweep:{seed}")
    per_frame = []
    for frame in SWEEP_LADDER:
        candidates = sorted(
            (random_ics(rng, frame) for _ in range(SWEEP_OVERSAMPLE * SWEEP_POOL_PER_FRAME)),
            key=len,
        )
        chosen = candidates[rng.randrange(SWEEP_OVERSAMPLE) :: SWEEP_OVERSAMPLE]
        rng.shuffle(chosen)
        per_frame.append(chosen)
    return [(frame, ics[i]) for i in range(SWEEP_POOL_PER_FRAME) for frame, ics in zip(SWEEP_LADDER, per_frame)]
