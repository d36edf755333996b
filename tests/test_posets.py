"""Poset builders, the ICS predicate, closures, and the enumeration oracle."""

import contextlib
import copy
import importlib.util
import itertools
import json
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsets import posets
from icsets.cli import parse_poset_spec
from icsets.posets import (
    ChainProduct,
    ChainProduct3,
    FAMILIES,
    FinitePoset,
    ICS_ENUMERATION_BOUND,
    Involution,
    NotIntervalClosed,
    OracleScaleExceeded,
    OrdinalSumAntichains,
    PosetScaleExceeded,
    SubsetStats,
    TruncatedRectangle,
    TypeARoot,
    TypeBMinuscule,
    TypeBRoot,
    _count_ics_layers,
    build_poset,
    count_ics,
    enumerate_ics,
    enumerate_symmetric_ics,
    family_of,
    filter_closure,
    find_ics_violation,
    ideal_closure,
    is_interval_closed,
    make_involution,
    normalize_spec,
    require_ics,
    subset_stats,
    vertical_involution,
)
from icsets.verify import THREE_CHAIN_TABLE


def labels(poset, members):
    return poset.labels_of(members)


# ---------------------------------------------------------------------------
# builders


@pytest.mark.parametrize(
    "spec,size",
    [
        (ChainProduct(1, 1), 1),
        (ChainProduct(0, 5), 0),
        (ChainProduct(7, 9), 63),
        (TruncatedRectangle(4, 5, 1), 19),
        (TruncatedRectangle(3, 3, 0), 9),
        (TypeARoot(0), 0),
        (TypeARoot(2), 3),
        (TypeARoot(5), 15),
        (TypeBMinuscule(4), 10),
        (TypeBRoot(3), 9),
        (OrdinalSumAntichains((2, 1)), 3),
        (ChainProduct3(2, 2, 2), 8),
    ],
)
def test_build_sizes(spec, size):
    assert build_poset(spec).n == size


def test_type_a_root_shape():
    poset = build_poset(TypeARoot(2))
    minimal = [poset.labels[i] for i in range(3) if poset._down[i] == 1 << i]
    maximal = [poset.labels[i] for i in range(3) if poset._up[i] == 1 << i]
    assert len(minimal) == 2 and len(maximal) == 1


def test_type_a_equals_truncated_square():
    for k in range(6):
        assert (
            build_poset(TypeARoot(k)).labels
            == build_poset(TruncatedRectangle(k + 1, k + 1, k + 1)).labels
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        build_poset(ChainProduct(-1, 2))
    with pytest.raises(ValueError):
        build_poset(TruncatedRectangle(3, 4, 4))
    with pytest.raises(ValueError):
        build_poset(OrdinalSumAntichains((2, 0)))
    # the convention: negative truncation is the plain rectangle
    assert normalize_spec(TruncatedRectangle(2, 3, -2)) == TruncatedRectangle(2, 3, 0)


def _refused(spec, message):
    # the family check, and build_poset past and through its cache
    for build in (normalize_spec, build_poset.__wrapped__, build_poset):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (TypeARoot(2.0), "rootA:K needs K to be an int, got 2.0"),
        (ChainProduct(True, 2), "rect:MxN needs M to be an int, got True"),
        (ChainProduct3(2, 2, "2"), "cube:LxMxN needs N to be an int, got '2'"),
        (TypeBMinuscule(1.5), "minB:N needs N to be an int, got 1.5"),
        (TypeBRoot(False), "rootB:N needs N to be an int, got False"),
    ],
)
def test_nonnegative_specs_refuse_a_field_that_is_not_an_int(spec, message):
    # TypeARoot(2.0) once raised range()'s "'float' object cannot be
    # interpreted as an integer"
    _refused(spec, message)


@pytest.mark.parametrize(
    "cached, spec, message",
    [
        (ChainProduct(1, 2), ChainProduct(True, 2), "rect:MxN needs M to be an int, got True"),
        (TypeARoot(2), TypeARoot(2.0), "rootA:K needs K to be an int, got 2.0"),
        (OrdinalSumAntichains((1, 2)), OrdinalSumAntichains((True, 2)), "antichain sizes must be ints, got (True, 2)"),
    ],
    ids=str,
)
def test_a_cached_poset_never_answers_an_equal_spec_of_other_types(cached, spec, message):
    # the cache once handed the poset of the int spec to the equal spec
    build_poset(cached)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_poset(spec)


def test_a_refused_spec_leaves_no_poset_in_the_cache():
    # after build_poset(ChainProduct(True, 2)), the cached poset of
    # ChainProduct(1, 2) once read m=True
    with contextlib.suppress(ValueError):  # raises unless ChainProduct(1, 11) is cached
        build_poset(ChainProduct(True, 11))
    assert type(build_poset(ChainProduct(1, 11)).spec.m) is int


@pytest.mark.parametrize("spec, letter", [(TruncatedRectangle(2.0, 2, 0), "M"), (TruncatedRectangle(2, 2, 0.5), "R")])
def test_truncated_specs_refuse_a_field_that_is_not_an_int(spec, letter):
    value = spec.m if letter == "M" else spec.r
    _refused(spec, f"trunc:MxN:R needs {letter} to be an int, got {value!r}")


@pytest.mark.parametrize("sizes", [(2.0,), (1, True), (2, "3")])
def test_ordinal_sums_refuse_a_size_that_is_not_an_int(sizes):
    _refused(OrdinalSumAntichains(sizes), f"antichain sizes must be ints, got {sizes!r}")


def test_a_poset_refuses_repeated_labels():
    # three elements once came with an index of two, so that the labels of
    # index 0 mapped back to index 1
    with pytest.raises(ValueError, match=re.escape("repeated labels: [(1,), (3,)]")):
        FinitePoset([(1,), (3,), (1,), (2,), (3,)], lambda label: [])


@pytest.mark.parametrize(
    "spec",
    [
        ChainProduct(3, 4),
        TruncatedRectangle(4, 4, 2),
        TypeARoot(4),
        TypeBMinuscule(4),
        TypeBRoot(3),
        OrdinalSumAntichains((2, 3, 1)),
        ChainProduct3(2, 2, 3),
    ],
)
def test_partial_order_and_transitive_reduction(spec):
    poset = build_poset(spec)
    n = poset.n
    for i in range(n):
        assert poset.leq(i, i)
        for j in range(n):
            if poset.leq(i, j) and poset.leq(j, i):
                assert i == j
            for k in range(n):
                if poset.leq(i, j) and poset.leq(j, k):
                    assert poset.leq(i, k)
    # covers have empty interior and generate leq by transitivity
    reach = [1 << i for i in range(n)]
    for lo, hi in poset.covers:
        assert poset._up[lo] & poset._down[hi] == 1 << lo | 1 << hi
    changed = True
    while changed:
        changed = False
        for lo, hi in poset.covers:
            new = reach[lo] | reach[hi]
            if new != reach[lo]:
                reach[lo] = new
                changed = True
    for i in range(n):
        assert reach[i] == poset._up[i]


def test_chain_product_order_is_componentwise():
    poset = build_poset(ChainProduct(3, 4))
    for (a, b), (c, d) in itertools.product(poset.labels, repeat=2):
        assert poset.leq(poset.index[(a, b)], poset.index[(c, d)]) == (
            a <= c and b <= d
        )


# ---------------------------------------------------------------------------
# interval-closure predicate and closures


def test_is_interval_closed_examples():
    poset = build_poset(ChainProduct(2, 2))
    assert is_interval_closed(poset, ())
    bad = poset.indices_of([(1, 1), (2, 2)])
    assert not is_interval_closed(poset, bad)
    witness = tuple(poset.labels[i] for i in find_ics_violation(poset, bad))
    assert witness == ((1, 1), (1, 2), (2, 2))
    triangle = build_poset(TypeARoot(2))
    both_minimal = triangle.indices_of([(2, 3), (3, 2)])
    assert is_interval_closed(triangle, both_minimal)


def first_violation(poset, members):
    """find_ics_violation's witness rule by brute force over leq: the lowest
    member x with a violation, the lowest member y above x with a missing
    element between them, and the lowest such missing z."""
    members = sorted(members)
    outside = sorted(set(range(poset.n)) - set(members))
    for x in members:
        above_x = [z for z in outside if poset.leq(x, z)]
        for y in members:
            if y != x and poset.leq(x, y):
                for z in above_x:
                    if poset.leq(z, y):
                        return (x, z, y)
    return None


WITNESS_SPECS = [
    ChainProduct(2, 5),
    TruncatedRectangle(4, 5, 4),
    TypeARoot(4),
    TypeBMinuscule(4),
    TypeBRoot(3),
    ChainProduct3(1, 2, 5),
    OrdinalSumAntichains((3, 1, 4, 2)),
]


@pytest.mark.parametrize("spec", WITNESS_SPECS, ids=str)
def test_violation_witness_follows_its_rule_on_every_subset(spec):
    poset = build_poset(spec)
    assert 9 <= poset.n <= 10
    for mask in range(1 << poset.n):
        members = poset.members_of(mask)
        assert find_ics_violation(poset, members) == first_violation(poset, members)


def _load_catalogue():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "catalogue.py"
    module_spec = importlib.util.spec_from_file_location("_bench_catalogue", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


CATALOGUE = _load_catalogue()


@pytest.mark.parametrize("frame", CATALOGUE.SWEEP_LADDER, ids=str)
def test_violation_witness_follows_its_rule_on_ladder_frames(frame):
    """Random subsets of each density, and sweep-style ICS whole, with one
    member dropped, and with one element added.  Each frame (family, m, n, r)
    has the labels and order of trunc:MxN:R (r is 0 for rect, and rootA:K is
    trunc:(K+1)x(K+1):(K+1))."""
    poset = build_poset(TruncatedRectangle(*frame[1:]))
    rng = random.Random(f"witness:{frame}")
    subsets = []
    for density in (0.05, 0.5, 0.95):
        subsets += [
            [i for i in range(poset.n) if rng.random() < density] for _ in range(4)
        ]
    for _ in range(4):
        ics = sorted(poset.indices_of(CATALOGUE.random_ics(rng, frame)))
        subsets.append(ics)
        if ics:
            subsets.append([i for i in ics if i != rng.choice(ics)])
        subsets.append(ics + [rng.randrange(poset.n)])
    witnesses = [find_ics_violation(poset, members) for members in subsets]
    assert witnesses == [first_violation(poset, members) for members in subsets]
    assert None in witnesses and any(witnesses)


def test_closures():
    poset = build_poset(ChainProduct(2, 2))
    assert ideal_closure(poset, ()) == frozenset()
    top = poset.indices_of([(2, 2)])
    assert ideal_closure(poset, top) == frozenset(range(4))
    assert filter_closure(poset, poset.indices_of([(1, 1)])) == frozenset(range(4))
    # idempotence and monotonicity on every subset of a small poset
    for bits in range(16):
        s = frozenset(i for i in range(4) if bits >> i & 1)
        down = ideal_closure(poset, s)
        assert ideal_closure(poset, down) == down
        up = filter_closure(poset, s)
        assert filter_closure(poset, up) == up
        assert s <= down and s <= up
    # an ICS is the intersection of its two closures
    for s in enumerate_ics(poset):
        assert ideal_closure(poset, s) & filter_closure(poset, s) == s


# ---------------------------------------------------------------------------
# enumeration oracle


@pytest.mark.parametrize(
    "spec,count",
    [
        (ChainProduct(1, 4), 11),  # (5 choose 2) + 1
        (ChainProduct(2, 2), 13),
        (ChainProduct(0, 0), 1),
        (ChainProduct3(2, 2, 2), 101),
        (OrdinalSumAntichains((2, 1)), 8),
    ],
)
def test_known_counts(spec, count):
    assert count_ics(build_poset(spec)) == count


def test_enumeration_order_and_uniqueness():
    poset = build_poset(ChainProduct(2, 2))
    seen = list(enumerate_ics(poset))
    assert len(seen) == len(set(seen)) == 13
    assert seen[0] == frozenset()
    masks = [poset.mask_of(s) for s in seen]
    assert masks == sorted(masks)
    assert seen == list(enumerate_ics(poset))  # deterministic
    assert len(list(enumerate_ics(poset, limit=5))) == 5


def test_enumeration_refuses_a_negative_limit():
    # not islice's own "Stop argument for islice() must be None or an integer"
    with pytest.raises(ValueError, match="^limit must be non-negative$"):
        next(enumerate_ics(build_poset(ChainProduct(2, 2)), limit=-1))


@pytest.mark.parametrize("limit", [2.5, 3.0, True, False, "3"])
def test_enumeration_refuses_a_limit_that_is_no_int(limit):
    # once islice's text for 2.5, one set for True and a TypeError for "3"
    sets = enumerate_ics(build_poset(ChainProduct(2, 2)), limit=limit)
    with pytest.raises(ValueError, match=f"^limit must be an int, got {re.escape(repr(limit))}$"):
        next(sets)


def test_enumeration_bound():
    with pytest.raises(OracleScaleExceeded, match=r"^oracle scale exceeded: 36 elements > bound 30$"):
        next(enumerate_ics(build_poset(ChainProduct(6, 6))))
    assert build_poset(ChainProduct(6, 6)).n > ICS_ENUMERATION_BOUND


def test_count_invariant_under_transpose():
    for m, n in [(2, 3), (1, 5), (3, 4)]:
        assert count_ics(build_poset(ChainProduct(m, n))) == count_ics(
            build_poset(ChainProduct(n, m))
        )


def test_ordinal_sum_formula():
    # every composition with small total, plus a few large tuples
    tuples = [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
        for total in range(1, 9)
        for k in range(total)
        for cuts in itertools.combinations(range(1, total), k)
    ]
    tuples += [(16,), (8, 8), (4, 4, 4, 4), (5, 6, 5), (1,) * 16]
    for t in tuples:
        singles = [2**a - 1 for a in t]
        expected = (
            1
            + sum(singles)
            + sum(
                singles[i] * singles[j]
                for i in range(len(t))
                for j in range(i + 1, len(t))
            )
        )
        assert count_ics(build_poset(OrdinalSumAntichains(t))) == expected, t


def test_two_by_n_and_three_by_n_polynomials():
    for n in range(8):
        quartic = (n**4 + 4 * n**3 + 17 * n**2 + 14 * n + 12) // 12
        assert count_ics(build_poset(ChainProduct(2, n))) == quartic
    for n in range(6):
        sextic = (
            n**6 + 9 * n**5 + 61 * n**4 + 159 * n**3 + 370 * n**2 + 264 * n + 144
        ) // 144
        assert count_ics(build_poset(ChainProduct(3, n))) == sextic


@pytest.mark.parametrize(
    "spec",
    [
        ChainProduct(2, 2),
        ChainProduct(1, 4),
        ChainProduct(3, 4),
        ChainProduct3(2, 2, 2),
        TypeARoot(3),
        TypeBMinuscule(3),
        TypeBRoot(2),
        OrdinalSumAntichains((2, 2)),
    ],
)
def test_full_oracle_equivalence(spec):
    # every one of the 2^N subsets passes the predicate iff it is enumerated
    poset = build_poset(spec)
    enumerated = set(enumerate_ics(poset))
    for mask in range(1 << poset.n):
        subset = poset.members_of(mask)
        assert is_interval_closed(poset, subset) == (subset in enumerated)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ChainProduct(4, 4), TypeARoot(4), ChainProduct3(2, 2, 4)]),
    st.integers(min_value=0),
)
def test_predicate_matches_enumeration_sampled(spec, seed):
    poset = build_poset(spec)
    mask = seed % (1 << poset.n)
    subset = poset.members_of(mask)
    enumerated = set(enumerate_ics(poset))
    assert is_interval_closed(poset, subset) == (subset in enumerated)


# ---------------------------------------------------------------------------
# involutions and symmetric counting


def test_vertical_involution_examples():
    sigma = vertical_involution(ChainProduct(2, 2))
    poset = build_poset(ChainProduct(2, 2))
    assert poset.labels[sigma(poset.index[(1, 2)])] == (2, 1)
    for n in range(1, 5):
        sig = vertical_involution(ChainProduct(n, n))
        p = build_poset(ChainProduct(n, n))
        fixed = {p.labels[i] for i in range(p.n) if sig(i) == i}
        assert fixed == {(a, a) for a in range(1, n + 1)}
    tri = build_poset(TypeARoot(2))
    sig = vertical_involution(TypeARoot(2))
    swapped = {tri.labels[i]: tri.labels[sig(i)] for i in range(3)}
    assert swapped[(2, 3)] == (3, 2) and swapped[(3, 3)] == (3, 3)
    with pytest.raises(ValueError):
        vertical_involution(ChainProduct(2, 3))
    with pytest.raises(ValueError):
        vertical_involution(TypeBMinuscule(3))


@pytest.mark.parametrize("spec", [TruncatedRectangle(3, 3, 1), TruncatedRectangle(4, 4, 2)], ids=str)
def test_vertical_involution_on_square_truncated_rectangles(spec):
    # every family with a square rectangle frame is mirror-symmetric
    poset = build_poset(spec)
    sigma = vertical_involution(spec)
    assert all(poset.labels[sigma(i)] == poset.labels[i][::-1] for i in range(poset.n))
    fixed = [s for s in enumerate_ics(poset) if {sigma(i) for i in s} == s]
    assert enumerate_symmetric_ics(poset, sigma) == len(fixed)


def test_involution_validation():
    chain = build_poset(ChainProduct(1, 3))
    with pytest.raises(ValueError):
        # swapping the chain's ends reverses order
        make_involution(chain, lambda lab: (lab[0], 4 - lab[1]))


def test_symmetric_counting_rejects_bad_involution():
    from icsets.posets import Involution

    chain = build_poset(ChainProduct(1, 3))
    with pytest.raises(ValueError):
        enumerate_symmetric_ics(chain, Involution((2, 1, 0)))
    with pytest.raises(ValueError):
        enumerate_symmetric_ics(chain, Involution((1, 2, 0)))  # not an involution


def test_symmetric_counts():
    assert enumerate_symmetric_ics(
        build_poset(ChainProduct(1, 1)), vertical_involution(ChainProduct(1, 1))
    ) == 2
    for n in range(1, 6):
        square = build_poset(ChainProduct(n, n))
        sym = enumerate_symmetric_ics(square, vertical_involution(ChainProduct(n, n)))
        assert sym == count_ics(build_poset(TypeBMinuscule(n)))
    for n in range(1, 4):
        tri = build_poset(TypeARoot(2 * n - 1))
        sym = enumerate_symmetric_ics(tri, vertical_involution(TypeARoot(2 * n - 1)))
        assert sym == count_ics(build_poset(TypeBRoot(n)))
    assert enumerate_symmetric_ics(
        build_poset(TypeARoot(3)), vertical_involution(TypeARoot(3))
    ) == 13


def _swap_positions_1_2(lab):
    return (lab[0], {1: 2, 2: 1}.get(lab[1], lab[1]))


@pytest.mark.parametrize(
    "spec,label_map,count",
    [
        (OrdinalSumAntichains((2, 3, 2)), _swap_positions_1_2, 13),
        (ChainProduct3(2, 2, 3), lambda lab: (lab[1], lab[0], lab[2]), 114),
        (ChainProduct3(2, 3, 2), lambda lab: lab[::-1], 114),
        (TypeARoot(4), lambda lab: lab[::-1], 33),
        (ChainProduct(2, 4), lambda lab: lab, 71),
    ],
    ids=["ordsum-swap", "cube-swap-12", "cube-swap-13", "rootA-mirror", "rect-identity"],
)
def test_symmetric_count_matches_brute_force(spec, label_map, count):
    poset = build_poset(spec)
    sigma = make_involution(poset, label_map)
    fixed = [s for s in enumerate_ics(poset) if {sigma(i) for i in s} == s]
    assert enumerate_symmetric_ics(poset, sigma) == len(fixed) == count
    if all(sigma(i) == i for i in range(poset.n)):
        assert count == count_ics(poset)


def test_symmetric_count_reach_is_bounded_by_its_work(monkeypatch):
    from icsets.verify import B_MINUSCULE_SEQUENCE, B_ROOT_SEQUENCE

    square = ChainProduct(10, 10)  # 100 elements, 55 orbits
    assert enumerate_symmetric_ics(build_poset(square), vertical_involution(square)) == (
        B_MINUSCULE_SEQUENCE[9]
    ) == 277058
    assert enumerate_symmetric_ics(
        build_poset(TypeARoot(9)), vertical_involution(TypeARoot(9))
    ) == B_ROOT_SEQUENCE[4] == 12883
    # the work bound, lowered here; tests/test_cli.py runs the real one
    monkeypatch.setattr(posets, "LAYERED_COUNT_WORK_BOUND", 1000)
    with pytest.raises(OracleScaleExceeded, match=r"^oracle scale exceeded: layered count work \d+ > bound 1000 "):
        enumerate_symmetric_ics(build_poset(square), vertical_involution(square))


@pytest.mark.parametrize(
    "square,half,count",
    [
        (ChainProduct(8, 8), TypeBMinuscule(8), 19006),
        (ChainProduct(9, 9), TypeBMinuscule(9), 72412),
        (TypeARoot(11), TypeBRoot(6), 150912),
    ],
    ids=str,
)
def test_layered_symmetric_count_past_the_orbit_bound_matches_series(square, half, count):
    mirror = vertical_involution(square)
    assert sum(1 for i, p in enumerate(mirror.mapping) if p <= i) > ICS_ENUMERATION_BOUND
    symmetric = enumerate_symmetric_ics(build_poset(square), mirror)
    assert symmetric == family_of(half).series(half) == count


# ---------------------------------------------------------------------------
# subset statistics


def test_stats_empty_rectangle():
    poset = build_poset(ChainProduct(7, 9))
    st_ = subset_stats(poset, ())
    assert st_.cardinality == 0
    assert st_.incomparable_count == 63
    assert st_.component_count == 0
    assert st_.hits_all_files is False


def test_stats_running_example():
    poset = build_poset(ChainProduct(13, 14))
    members = poset.indices_of(
        [
            (1, 13), (2, 13), (3, 13), (2, 12), (3, 12), (2, 11), (3, 11),
            (6, 9), (7, 9), (8, 9), (7, 8), (8, 8), (7, 7), (8, 7),
            (7, 6), (8, 6), (9, 6), (11, 4), (11, 3), (11, 2),
        ]
    )
    st_ = subset_stats(poset, members)
    assert (st_.cardinality, st_.component_count, st_.incomparable_count) == (20, 3, 5)


def test_stats_triangle_example():
    poset = build_poset(TypeARoot(5))
    members = poset.indices_of([(3, 5), (3, 6), (6, 3)])
    st_ = subset_stats(poset, members)
    assert st_.cardinality == 3
    assert st_.component_count == 2
    assert st_.minimal_in_subset == 1
    assert st_.hits_all_files is None


def test_stats_invariants():
    poset = build_poset(ChainProduct(3, 3))
    for s in enumerate_ics(poset):
        st_ = subset_stats(poset, s)
        assert st_.cardinality + st_.incomparable_count <= poset.n
        assert st_.component_count <= st_.cardinality


def _direct_stats(poset, subset):
    """Every field of subset_stats computed from poset.covers and leq alone."""
    adjacent = {i: set() for i in subset}
    for i, j in poset.covers:
        if i in subset and j in subset:
            adjacent[i].add(j)
            adjacent[j].add(i)
    components = 0
    unseen = set(subset)
    while unseen:
        components += 1
        frontier = [unseen.pop()]
        while frontier:
            nxt = adjacent[frontier.pop()] & unseen
            unseen -= nxt
            frontier.extend(nxt)
    incomparable = sum(
        1
        for z in range(poset.n)
        if not any(poset.leq(x, z) or poset.leq(z, x) for x in subset)
    )
    minimal = sum(1 for x in subset if not any(poset.leq(y, x) for y in range(poset.n) if y != x))
    hits = None
    if isinstance(poset.spec, ChainProduct):
        hits = {poset.labels[i][0] for i in subset} >= set(range(1, poset.spec.m + 1))
    return SubsetStats(len(subset), components, incomparable, minimal, hits)


@pytest.mark.parametrize(
    "spec",
    [
        ChainProduct(0, 3),
        ChainProduct(1, 5),
        ChainProduct(4, 5),
        TruncatedRectangle(5, 4, 2),
        TypeARoot(4),
        TypeBMinuscule(5),
        TypeBRoot(3),
        OrdinalSumAntichains((2, 3, 1, 4)),
        ChainProduct3(2, 3, 2),
    ],
    ids=str,
)
def test_stats_match_direct_computation_on_arbitrary_subsets(spec):
    poset = build_poset(spec)
    rng = random.Random(f"subset stats {spec}")
    subsets = [frozenset(), frozenset(range(poset.n))]
    subsets += [
        frozenset(rng.sample(range(poset.n), rng.randint(0, poset.n))) for _ in range(40)
    ]
    for subset in subsets:
        assert subset_stats(poset, subset) == _direct_stats(poset, subset)


# ---------------------------------------------------------------------------
# cover-built order masks against the pairwise reference


def _componentwise_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ordinal_sum_leq(a, b):
    return a[0] < b[0] or a == b


def _reference_order(poset, leq_labels):
    """Every mask, the covers, the cover adjacency and the minimal elements,
    from O(n^2) pairwise comparisons of the labels."""
    n = poset.n
    up = [0] * n
    down = [0] * n
    for i, a in enumerate(poset.labels):
        for j, b in enumerate(poset.labels):
            if leq_labels(a, b):
                up[i] |= 1 << j
                down[j] |= 1 << i
    up_strict = [up[i] & ~(1 << i) for i in range(n)]
    down_strict = [down[i] & ~(1 << i) for i in range(n)]
    covers = set()
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if up_strict[i] >> j & 1 and not (up_strict[i] & down_strict[j]):
                covers.add((i, j))
                adj[i].append(j)
                adj[j].append(i)
    minimal = sum(1 << i for i in range(n) if not down_strict[i])
    return up, down, frozenset(covers), [tuple(sorted(a)) for a in adj], minimal


GRID_SPECS = (
    [ChainProduct(m, n) for m in range(5) for n in range(5)]
    + [ChainProduct(0, 3), ChainProduct(1, 9), ChainProduct(9, 1), ChainProduct(6, 7)]
    + [
        TruncatedRectangle(m, n, r)
        for m in range(6)
        for n in range(6)
        for r in range(min(m, n) + 1)
    ]
    + [TypeARoot(k) for k in range(8)]
    + [TypeBMinuscule(n) for n in range(8)]
    + [TypeBRoot(n) for n in range(6)]
    + [
        ChainProduct3(*sides)
        for sides in [(1, 1, 1), (1, 3, 4), (3, 1, 2), (2, 3, 1), (0, 2, 2), (2, 2, 2), (2, 3, 4)]
    ]
)
ORDINAL_SUM_SPECS = [
    OrdinalSumAntichains(sizes)
    for sizes in [(1,), (5,), (1, 1), (2, 1), (1, 3), (3, 1, 4, 2), (1,) * 6, (4, 4, 4)]
]


COVER_REFERENCE_CASES = [(spec, _componentwise_leq) for spec in GRID_SPECS] + [
    (spec, _ordinal_sum_leq) for spec in ORDINAL_SUM_SPECS
]


# the ids read as ids=str did without the function's address, which changes
# from process to process
@pytest.mark.parametrize(
    "spec,leq_labels",
    COVER_REFERENCE_CASES,
    ids=[f"{spec}-<function {leq.__name__}>" for spec, leq in COVER_REFERENCE_CASES],
)
def test_cover_built_masks_match_pairwise_reference(spec, leq_labels):
    poset = build_poset(spec)
    built = (
        list(poset._up),
        list(poset._down),
        poset.covers,
        [tuple(sorted(adj)) for adj in poset._cover_adj],
        poset.minimal_mask,
    )
    reference = _reference_order(poset, leq_labels)
    assert built == reference
    # the poset keeps only the reflexive masks; its readers take the strict
    # relation as the mask with the element's own bit flipped
    for masks, reference_masks in zip(built[:2], reference[:2]):
        strict = [mask & ~(1 << i) for i, mask in enumerate(reference_masks)]
        assert [mask ^ 1 << i for i, mask in enumerate(masks)] == strict


FILE_SPECS = [spec for spec in GRID_SPECS if family_of(spec).files(spec) is not None]
# the label sets the files replaced: the box of the frame, filtered
FILE_REFERENCE = {
    ChainProduct: lambda s: [(a, b) for a in range(1, s.m + 1) for b in range(1, s.n + 1)],
    TruncatedRectangle: lambda s: [
        (a, b) for a in range(1, s.m + 1) for b in range(1, s.n + 1) if a + b - 2 >= s.r
    ],
    TypeARoot: lambda s: FILE_REFERENCE[TruncatedRectangle](TruncatedRectangle(s.k + 1, s.k + 1, s.k + 1)),
    TypeBMinuscule: lambda s: [(a, b) for a, b in FILE_REFERENCE[ChainProduct](ChainProduct(s.n, s.n)) if a <= b],
    TypeBRoot: lambda s: [
        (a, b)
        for a, b in FILE_REFERENCE[TruncatedRectangle](TruncatedRectangle(2 * s.n, 2 * s.n, 2 * s.n))
        if a <= b
    ],
}


@pytest.mark.parametrize("spec", FILE_SPECS, ids=str)
def test_files_describe_the_labels(spec):
    family = family_of(spec)
    files = family.files(spec)
    assert [a for a, _, _ in files] == sorted({a for a, _, _ in files})
    assert all(lo <= hi for _, lo, hi in files)
    labels = family.labels(spec)
    assert sorted(labels) == FILE_REFERENCE[type(spec)](spec)
    assert family.size(spec) == len(labels) == sum(hi - lo + 1 for _, lo, hi in files)


def test_only_the_pair_families_have_files():
    assert {type(spec) for spec in FILE_SPECS} == set(FILE_REFERENCE)
    for spec in (ChainProduct3(2, 2, 2), OrdinalSumAntichains((2, 1))):
        assert family_of(spec).files(spec) is None


@pytest.mark.parametrize("spec", GRID_SPECS + ORDINAL_SUM_SPECS, ids=str)
def test_size_and_covers_are_read_off_the_spec(spec):
    family = family_of(spec)
    poset = build_poset(spec)
    assert family.size(spec) == len(family.labels(spec)) == poset.n
    if isinstance(spec, OrdinalSumAntichains):
        assert family.covers(spec) == len(poset.covers)
    else:  # unit steps, bounded with the elements
        assert family.covers(spec) == 0 and len(poset.covers) <= 3 * poset.n


def test_build_refuses_a_spec_past_its_bounds_before_listing_labels(monkeypatch):
    for family in FAMILIES:
        monkeypatch.setattr(family, "labels", lambda spec: pytest.fail("labels listed"))
    with pytest.raises(
        PosetScaleExceeded, match=r"^poset scale exceeded: 199999999998 elements > bound 10000$"
    ):
        build_poset(ChainProduct(99999999999, 2))
    with pytest.raises(
        PosetScaleExceeded, match=r"^poset scale exceeded: 10001 elements > bound 10000$"
    ):
        build_poset(OrdinalSumAntichains((10001,)))
    with pytest.raises(
        PosetScaleExceeded, match=r"^poset scale exceeded: 100400 covers > bound 100000$"
    ):
        build_poset(OrdinalSumAntichains((251, 400)))


def test_build_accepts_a_spec_at_its_bounds():
    assert build_poset(OrdinalSumAntichains((10000,))).n == 10000
    assert len(build_poset(OrdinalSumAntichains((250, 400))).covers) == 100000


@pytest.mark.parametrize(
    "spec,bound",
    [(ChainProduct(100, 100), 30 * 2**20), (OrdinalSumAntichains((250, 400)), 2**20)],
    ids=str,
)
def test_a_built_poset_keeps_each_order_relation_once(spec, bound):
    import tracemalloc

    # build_poset's own work, past its cache; a second copy of the masks or a
    # stored cover set (100,000 pairs for the ordinal sum) would exceed bound
    tracemalloc.start()
    try:
        poset = build_poset.__wrapped__(spec)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poset.n == family_of(spec).size(spec)
    assert size < bound


def test_cover_graph_neighbours_are_index_tuples():
    import tracemalloc

    # one adjacency mask per element, as wide as its highest neighbour, took
    # 6.7 of the 27.7 MiB a built rect:100x100 held
    tracemalloc.start()
    try:
        poset = build_poset.__wrapped__(ChainProduct(100, 100))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 24 * 2**20
    i = poset.index[(2, 2)]
    assert sorted(poset._cover_adj[i]) == sorted(poset.index[lab] for lab in [(1, 2), (2, 1), (2, 3), (3, 2)])


def test_ordinal_sum_covers_list_only_the_next_block():
    spec = OrdinalSumAntichains((3, 1, 2))
    covers = family_of(spec).upper_covers(spec)
    assert covers((1, 2)) == [(2, 1)]
    assert covers((2, 1)) == [(3, 1), (3, 2)]
    assert covers((3, 2)) == []


def test_not_interval_closed_is_raised_by_posets_and_named_by_every_module():
    import icsets
    from icsets import bijections

    assert bijections.NotIntervalClosed is icsets.NotIntervalClosed is NotIntervalClosed
    poset = build_poset(ChainProduct(2, 2))
    assert require_ics(poset, poset.indices_of([(1, 1), (1, 2)])) is None
    with pytest.raises(NotIntervalClosed) as info:
        require_ics(poset, poset.indices_of([(1, 1), (2, 2)]))
    assert info.value.witness == ((1, 1), (1, 2), (2, 2))
    assert str(info.value) == "not interval-closed: (1, 1) < (1, 2) < (2, 2) but (1, 2) is missing"


# ---------------------------------------------------------------------------
# the oracle against brute force over every subset


SMALL_SPECS = [
    spec for spec in GRID_SPECS + ORDINAL_SUM_SPECS if build_poset(spec).n <= 12
]


def test_small_specs_cover_every_family():
    assert {type(spec) for spec in SMALL_SPECS} == {
        ChainProduct,
        ChainProduct3,
        TruncatedRectangle,
        TypeARoot,
        TypeBMinuscule,
        TypeBRoot,
        OrdinalSumAntichains,
    }


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_oracle_matches_brute_force_in_order(spec):
    poset = build_poset(spec)
    brute = [
        mask
        for mask in range(1 << poset.n)
        if is_interval_closed(poset, poset.members_of(mask))
    ]
    assert [poset.mask_of(s) for s in enumerate_ics(poset)] == brute
    assert count_ics(poset) == len(brute)


REFERENCE_COUNTS = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text()
)["counts"]


@pytest.mark.parametrize("text,count", sorted(REFERENCE_COUNTS.items()))
def test_layered_count_matches_enumeration(text, count):
    poset = build_poset(parse_poset_spec(text))
    assert count_ics(poset) == sum(1 for _ in enumerate_ics(poset)) == count


@pytest.mark.parametrize(
    "spec",
    [
        ChainProduct(15, 15),
        TruncatedRectangle(12, 12, 4),
        TypeARoot(12),
        TypeBMinuscule(14),
        TypeBRoot(8),
    ],
    ids=str,
)
def test_layered_count_past_the_bound_matches_series(spec):
    poset = build_poset(spec)
    assert poset.n > ICS_ENUMERATION_BOUND
    assert count_ics(poset) == family_of(spec).series(spec)


@pytest.mark.parametrize("sides", itertools.permutations((2, 3, 4)))
def test_layered_count_is_independent_of_the_linear_extension(sides):
    assert _count_ics_layers(build_poset(ChainProduct3(*sides))) == THREE_CHAIN_TABLE[(2, 3, 4)]


# ---------------------------------------------------------------------------
# elements outside the poset


def test_labels_outside_the_poset_are_value_errors():
    poset = build_poset(ChainProduct(2, 2))
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[\(0, 1\), \(3, 3\)\]$"):
        poset.indices_of([(1, 1), (3, 3), (0, 1)])
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[\(3, 3\)\]$"):
        poset.indices_of(lab for lab in [(3, 3), (1, 2)])
    assert poset.indices_of(lab for lab in [(1, 2), (2, 2)]) == frozenset({1, 3})
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[\(6, 1\), \(6, 2\), \(7, 1\), \(7, 2\)\]$"):
        make_involution(poset, lambda lab: (lab[1] + 5, lab[0]))


def test_indices_outside_the_poset_are_value_errors():
    poset = build_poset(ChainProduct(2, 2))
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[-1, 4, 7\]$"):
        poset.mask_of([7, 0, -1, 4])
    assert poset.mask_of(iter([0, 3])) == 0b1001
    with pytest.raises(ValueError, match=r"not in the poset: \[7\]"):
        subset_stats(poset, [0, 7])
    with pytest.raises(ValueError, match=r"not in the poset: \[7\]"):
        find_ics_violation(poset, [7])
    with pytest.raises(ValueError, match=r"not in the poset: \[7\]"):
        is_interval_closed(poset, [1, 7])
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[7\]$"):
        poset.labels_of([7])
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[-1\]$"):
        poset.labels_of([0, -1])
    assert poset.labels_of(iter([0, 3])) == frozenset({(1, 1), (2, 2)})


# ---------------------------------------------------------------------------
# spec and record values


@pytest.mark.parametrize(
    "classes, fields",
    [((TypeARoot, TypeBMinuscule, TypeBRoot), (3,)), ((ChainProduct3, TruncatedRectangle), (1, 2, 3))],
)
def test_equal_fields_make_equal_values_only_within_a_class(classes, fields):
    for a, b in itertools.product(classes, repeat=2):
        if a is b:
            assert a(*fields) == b(*fields) and hash(a(*fields)) == hash(b(*fields))
        else:
            assert a(*fields) != b(*fields)


def test_build_poset_cache_keeps_classes_apart():
    specs = [TypeARoot(3), TypeBMinuscule(3), TypeBRoot(3)]
    built = [build_poset(spec) for spec in specs]
    assert [type(p.spec) for p in built] == [type(spec) for spec in specs]
    assert [p.n for p in built] == [6, 6, 9]
    assert built[0].labels != built[1].labels
    assert build_poset(ChainProduct3(1, 2, 3)).n == 6
    with pytest.raises(ValueError, match="exceeds min"):
        build_poset(TruncatedRectangle(1, 2, 3))


@pytest.mark.parametrize(
    "value, text",
    [
        (ChainProduct(-1, 2), "ChainProduct(m=-1, n=2)"),
        (ChainProduct3(1, 2, 3), "ChainProduct3(l=1, m=2, n=3)"),
        (TruncatedRectangle(4, 5, 1), "TruncatedRectangle(m=4, n=5, r=1)"),
        (TypeARoot(3), "TypeARoot(k=3)"),
        (TypeBMinuscule(3), "TypeBMinuscule(n=3)"),
        (TypeBRoot(3), "TypeBRoot(n=3)"),
        (OrdinalSumAntichains([2, 3]), "OrdinalSumAntichains(sizes=(2, 3))"),
        (Involution((1, 0)), "Involution(mapping=(1, 0))"),
        (
            SubsetStats(1, 1, 0, 1, None),
            "SubsetStats(cardinality=1, component_count=1, incomparable_count=0,"
            " minimal_in_subset=1, hits_all_files=None)",
        ),
    ],
)
def test_value_repr(value, text):
    assert repr(value) == text


def test_values_are_immutable_and_take_keywords():
    spec = ChainProduct(2, 3)
    with pytest.raises(AttributeError):
        spec.m = 5
    with pytest.raises(AttributeError):
        del spec.n
    assert spec == ChainProduct(n=3, m=2) == ChainProduct(2, n=3)
    sizes = OrdinalSumAntichains((2, 3))
    assert copy.deepcopy(sizes) == pickle.loads(pickle.dumps(sizes)) == sizes
    assert OrdinalSumAntichains(sizes=iter([2, 3])) == OrdinalSumAntichains((2, 3))
    assert SubsetStats(1, 2, hits_all_files=True, minimal_in_subset=0, incomparable_count=4).component_count == 2
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"m": 2}), ((), {"m": 1, "k": 2})]:
        with pytest.raises(TypeError):
            ChainProduct(*args, **kwargs)
