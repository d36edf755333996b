"""Poset builders, the ICS predicate, closures, and the enumeration oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsets.posets import (
    ChainProduct,
    ChainProduct3,
    ICS_ENUMERATION_BOUND,
    OracleScaleExceeded,
    OrdinalSumAntichains,
    TruncatedRectangle,
    TypeARoot,
    TypeBMinuscule,
    TypeBRoot,
    build_poset,
    count_ics,
    enumerate_ics,
    enumerate_symmetric_ics,
    filter_closure,
    find_ics_violation,
    ideal_closure,
    is_interval_closed,
    make_involution,
    normalize_spec,
    subset_stats,
    vertical_involution,
)


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
    minimal = [poset.labels[i] for i in range(3) if not poset._down_strict[i]]
    maximal = [poset.labels[i] for i in range(3) if not poset._up_strict[i]]
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
        assert not (poset._up_strict[lo] & poset._down_strict[hi])
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
    x, z, y = (poset.labels[i] for i in find_ics_violation(poset, bad))
    assert (x, z, y) in {((1, 1), (1, 2), (2, 2)), ((1, 1), (2, 1), (2, 2))}
    triangle = build_poset(TypeARoot(2))
    both_minimal = triangle.indices_of([(2, 3), (3, 2)])
    assert is_interval_closed(triangle, both_minimal)


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


def test_enumeration_bound():
    with pytest.raises(OracleScaleExceeded):
        count_ics(build_poset(ChainProduct(6, 6)))
    assert build_poset(ChainProduct(6, 6)).n > ICS_ENUMERATION_BOUND


def test_count_invariant_under_transpose():
    for m, n in [(2, 3), (1, 5), (3, 4)]:
        assert count_ics(build_poset(ChainProduct(m, n))) == count_ics(
            build_poset(ChainProduct(n, m))
        )


def test_ordinal_sum_formula():
    # every composition with small total, plus a few large tuples
    tuples = [
        t
        for total in range(1, 9)
        for k in range(1, total + 1)
        for t in itertools.product(range(1, total + 1), repeat=k)
        if sum(t) == total
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


def test_symmetric_count_reach_is_bounded_by_orbits():
    from icsets.series import b_minuscule_counts
    from icsets.verify import B_ROOT_SEQUENCE

    square = ChainProduct(7, 7)  # 49 elements, 28 orbits
    assert build_poset(square).n > ICS_ENUMERATION_BOUND
    assert enumerate_symmetric_ics(build_poset(square), vertical_involution(square)) == (
        b_minuscule_counts(7)[7]
    ) == 5014
    assert enumerate_symmetric_ics(
        build_poset(TypeARoot(9)), vertical_involution(TypeARoot(9))
    ) == B_ROOT_SEQUENCE[4] == 12883
    with pytest.raises(OracleScaleExceeded, match=r"^oracle scale exceeded: 36 orbits > bound 30$"):
        enumerate_symmetric_ics(
            build_poset(ChainProduct(8, 8)), vertical_involution(ChainProduct(8, 8))
        )


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
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if up_strict[i] >> j & 1 and not (up_strict[i] & down_strict[j]):
                covers.add((i, j))
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    minimal = sum(1 << i for i in range(n) if not down_strict[i])
    return up, down, up_strict, down_strict, frozenset(covers), adj, minimal


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


@pytest.mark.parametrize(
    "spec,leq_labels",
    [(spec, _componentwise_leq) for spec in GRID_SPECS]
    + [(spec, _ordinal_sum_leq) for spec in ORDINAL_SUM_SPECS],
    ids=str,
)
def test_cover_built_masks_match_pairwise_reference(spec, leq_labels):
    poset = build_poset(spec)
    built = (
        poset._up,
        poset._down,
        poset._up_strict,
        poset._down_strict,
        poset.covers,
        poset._cover_adj,
        poset.minimal_mask,
    )
    assert built == _reference_order(poset, leq_labels)


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
