"""Round trips, worked examples, classification, full ICS, and the shift map."""

import gc
import itertools
import random
import weakref

import pytest

from icsets import posets
from icsets.bijections import (
    NotIntervalClosed,
    _cells_between,
    _steps_from_heights,
    classify_elements,
    ics_to_motzkin,
    ics_to_nested_pair,
    ics_to_walk,
    is_full_ics,
    motzkin_to_ics,
    motzkin_to_nested_pair,
    nested_pair_to_ics,
    nested_pair_to_motzkin,
    shift_map,
    shift_map_inverse,
    walk_frame,
    walk_to_ics,
)
from icsets.paths import (
    MotzkinWord,
    _shared_blocks,
    NestedPairBT,
    QuarterWalk,
    enumerate_motzkin,
    motzkin_from_text,
    motzkin_stats,
    motzkin_to_text,
    validate_motzkin,
    validate_nested_pair,
    validate_walk,
    walk_from_text,
    walk_stats,
    walk_to_text,
)
from icsets.posets import (
    ChainProduct,
    TruncatedRectangle,
    TypeARoot,
    build_poset,
    enumerate_ics,
    family_of,
    filter_closure,
    find_ics_violation,
    ideal_closure,
    normalize_spec,
    subset_stats,
)
from icsets.verify import RECT_EXAMPLE_ICS as RECT_ICS
from icsets.verify import RECT_EXAMPLE_WORD as RECT_M
from icsets.verify import TRUNCATED_EXAMPLE_ICS as TRUNCATED_ICS
from icsets.verify import TRUNCATED_EXAMPLE_WALK as TRUNCATED_W
from icsets.verify import TYPE_A_EXAMPLE_ICS as TRIANGLE_ICS
from icsets.verify import TYPE_A_EXAMPLE_WALK as TRIANGLE_W

# the bounding paths T (top) and B (bottom) of the worked examples
RECT_T = "DUUUDDDUUDUUUDDDUDUDUDDDUUD"
RECT_B = "DDUDDUUUUDDUDDDUUUUDDDDUUUD"
TRIANGLE_T = "UUUDDUUDUDDD"
TRIANGLE_B = "UUDDUUUDDUDD"
TRUNCATED_T = "UDUDDUUDD"
TRUNCATED_B = "DDDDUUDUU"

# the walk letter of each (B step, T step) of a nested pair, and back
PAIR_TO_WALK = {("D", "U"): "NW", ("U", "D"): "SE", ("U", "U"): "E", ("D", "D"): "W"}
WALK_TO_PAIR = {v: k for k, v in PAIR_TO_WALK.items()}


# ---------------------------------------------------------------------------
# reference path maps: the frame-scanning definitions the maps replaced


def _boundary_heights(m, n, r, ideal):
    """Heights of the boundary path of an order ideal, given by its labels:
    the envelope of the floor and of the ideal's elements."""
    y = []
    for i in range(m + n + 1):
        base = abs(i - n)
        if base < r:
            base = r if (r - n - i) % 2 == 0 else r + 1
        y.append(base)
    for a, b in ideal:
        if a + b > y[a - b + n]:
            y[a - b + n] = a + b
    return y


def _ideal_from_heights(m, n, r, heights):
    return {
        (a, b)
        for a in range(1, m + 1)
        for b in range(1, n + 1)
        if a + b - 2 >= r and heights[a - b + n] >= a + b
    }


def _box_scan(m, n, r, lower, upper):
    return frozenset(_ideal_from_heights(m, n, r, upper) - _ideal_from_heights(m, n, r, lower))


def _canonicalize_shared_blocks(bh, th):
    """Rewrite every maximal block where the two paths coincide so that its
    U steps come first; both height lists are edited in place."""
    for i, j in _shared_blocks(bh, th):
        ups = (j - i + th[j] - th[i]) // 2
        for k in range(i + 1, j):
            h = th[i] + (k - i) if k - i <= ups else th[i] + 2 * ups - (k - i)
            bh[k] = th[k] = h


def _column_top_pair(spec, labels):
    """The canonical pair built column by column: T from the column tops,
    B by lowering T to just below each file's lowest member, then the
    U-first rewrite of the shared blocks."""
    m, n, r = family_of(spec).frame(normalize_spec(spec))
    # in column a, T covers the b up to c_a = max(T_a, r + 1 - a), where T_a
    # is the largest b of a member in a column a' >= a.  Read back from
    # (m + n, m), the path climbs c_a - c_(a+1) D steps, then drops over
    # column a's U step
    top = [0] * (m + 1)
    for a, b in labels:
        top[a] = max(top[a], b)
    rises, c = [], 0
    for a in range(m, 0, -1):
        reach = max(top[a], r + 1 - a)
        if reach > c:
            rises += [1] * (reach - c)
            c = reach
        rises.append(-1)
    rises += [1] * (n - c)
    th = list(itertools.accumulate(rises, initial=m))[::-1]
    bh = list(th)
    for a, b in labels:
        bh[a - b + n] = min(bh[a - b + n], a + b - 2)
    _canonicalize_shared_blocks(bh, th)
    return NestedPairBT(m, n, r, _steps_from_heights(bh), _steps_from_heights(th))


def _reference_pair(spec, labels, poset):
    m, n, r = family_of(spec).frame(normalize_spec(spec))
    members = poset.indices_of(labels)
    delta = ideal_closure(poset, members)
    th = _boundary_heights(m, n, r, poset.labels_of(delta))
    bh = _boundary_heights(m, n, r, poset.labels_of(delta - members))
    _canonicalize_shared_blocks(bh, th)
    return NestedPairBT(m, n, r, _steps_from_heights(bh), _steps_from_heights(th))


def _check_against_references(spec, labels, poset):
    """The pair, its Motzkin word or walk, and every inverse equal those of
    the reference definitions."""
    pair = ics_to_nested_pair(spec, labels)
    ref = _reference_pair(spec, labels, poset)
    assert pair == ref
    m, n, r = ref.m, ref.n, ref.r
    cells = _box_scan(m, n, r, ref.bottom_heights(), ref.top_heights())
    assert nested_pair_to_ics(pair) == cells == labels
    walk = ics_to_walk(spec, labels)
    assert walk == QuarterWalk(n - r, (PAIR_TO_WALK[bt] for bt in zip(ref.bottom, ref.top)))
    assert walk_to_ics(walk)[1] == cells
    if r == 0:
        word = ics_to_motzkin(m, n, labels)
        assert word == nested_pair_to_motzkin(ref)
        assert motzkin_to_ics(word) == (m, n, cells)


def _lattice_paths(m, n):
    # heights of every path from (0, n) to (m + n, m) over U and D steps
    for ups in itertools.combinations(range(m + n), m):
        heights = [n]
        for k in range(m + n):
            heights.append(heights[-1] + (1 if k in ups else -1))
        yield heights


def test_cells_between_matches_the_box_scan():
    # every pair of paths, nested or not, over every floor; a lower path may
    # dip below the floor, which only the floor test then cuts off
    for m in range(4):
        for n in range(4):
            paths_ = list(_lattice_paths(m, n))
            for r in range(min(m, n) + 1):
                for lower, upper in itertools.product(paths_, repeat=2):
                    assert _cells_between(m, n, r, lower, upper) == _box_scan(m, n, r, lower, upper)


@pytest.mark.parametrize(
    "spec", [ChainProduct(12, 9), TruncatedRectangle(11, 13, 5), TypeARoot(12)], ids=str
)
def test_path_maps_match_references_on_random_ics(spec):
    # K minus J for down-sets K and J is always an ICS
    poset = build_poset(spec)
    rng = random.Random(f"path maps {spec}")
    for _ in range(100):
        k = ideal_closure(poset, rng.sample(range(poset.n), rng.randint(1, 3)))
        j = ideal_closure(poset, rng.sample(range(poset.n), rng.randint(0, 3)))
        _check_against_references(spec, poset.labels_of(k - j), poset)


# ---------------------------------------------------------------------------
# nested pairs


def test_empty_ics_gives_coinciding_canonical_pair():
    for m, n in [(3, 2), (1, 1), (4, 4)]:
        pair = ics_to_nested_pair(ChainProduct(m, n), ())
        assert pair.bottom == pair.top == ("U",) * m + ("D",) * n


def test_running_example_pair():
    pair = ics_to_nested_pair(ChainProduct(13, 14), RECT_ICS)
    assert "".join(pair.top) == RECT_T
    assert "".join(pair.bottom) == RECT_B
    assert nested_pair_to_ics(pair) == RECT_ICS


def test_triangle_example_pair():
    pair = ics_to_nested_pair(TypeARoot(5), TRIANGLE_ICS)
    assert "".join(pair.top) == TRIANGLE_T
    assert "".join(pair.bottom) == TRIANGLE_B
    assert (pair.m, pair.n, pair.r) == (6, 6, 6)
    assert nested_pair_to_ics(pair) == TRIANGLE_ICS


def test_truncated_example_pair():
    pair = ics_to_nested_pair(TruncatedRectangle(4, 5, 1), TRUNCATED_ICS)
    assert "".join(pair.top) == TRUNCATED_T
    assert "".join(pair.bottom) == TRUNCATED_B
    assert nested_pair_to_ics(pair) == TRUNCATED_ICS


def test_rejects_non_ics():
    with pytest.raises(NotIntervalClosed) as exc:
        ics_to_nested_pair(ChainProduct(2, 2), [(1, 1), (2, 2)])
    x, z, y = exc.value.witness
    assert x == (1, 1) and y == (2, 2)


# ---------------------------------------------------------------------------
# Motzkin maps


def test_single_cell():
    pair = ics_to_nested_pair(ChainProduct(1, 1), [(1, 1)])
    assert pair.bottom == ("D", "U") and pair.top == ("U", "D")
    assert motzkin_to_text(nested_pair_to_motzkin(pair)) == "U D"


def test_empty_maps_to_flat_word():
    word = ics_to_motzkin(3, 2, ())
    assert motzkin_to_text(word) == "1 1 1 2 2"


def test_running_example_word():
    word = ics_to_motzkin(13, 14, RECT_ICS)
    assert motzkin_to_text(word) == RECT_M
    assert motzkin_to_ics(word) == (13, 14, RECT_ICS)


def test_motzkin_rejections():
    pair = ics_to_nested_pair(TruncatedRectangle(2, 2, 1), [(2, 2)])
    with pytest.raises(ValueError):
        nested_pair_to_motzkin(pair)  # r != 0
    with pytest.raises(ValueError):
        nested_pair_to_motzkin(NestedPairBT(2, 2, 0, "UDUD", "UDUD"))  # not canonical
    with pytest.raises(ValueError):
        motzkin_to_nested_pair(motzkin_from_text("2 1"))


def test_motzkin_roundtrip_and_image_sweep():
    for m in range(4):
        for n in range(4):
            poset = build_poset(ChainProduct(m, n))
            images = set()
            for s in enumerate_ics(poset):
                labels = poset.labels_of(s)
                word = ics_to_motzkin(m, n, labels)
                assert motzkin_to_ics(word) == (m, n, labels)
                images.add(word.steps)
                _check_against_references(ChainProduct(m, n), labels, poset)
            assert images == {w.steps for w in enumerate_motzkin(m, n)}


def test_statistic_transport_small():
    for m, n in [(2, 3), (3, 3)]:
        poset = build_poset(ChainProduct(m, n))
        for s in enumerate_ics(poset):
            st = subset_stats(poset, s)
            ms = motzkin_stats(ics_to_motzkin(m, n, poset.labels_of(s)))
            assert st.cardinality == ms.area
            assert st.component_count == ms.returns
            assert st.incomparable_count == ms.axis_run_product_sum


# ---------------------------------------------------------------------------
# walk maps


def test_triangle_example_walk():
    walk = ics_to_walk(TypeARoot(5), TRIANGLE_ICS)
    assert walk.start_x == 0
    assert walk_to_text(walk) == TRIANGLE_W
    assert walk_stats(walk).height_sum == 3
    spec, back = walk_to_ics(walk)
    assert spec == TruncatedRectangle(6, 6, 6) and back == TRIANGLE_ICS


def test_truncated_example_walk():
    walk = ics_to_walk(TruncatedRectangle(4, 5, 1), TRUNCATED_ICS)
    assert (walk.start_x, walk.endpoint) == (4, (3, 0))
    assert walk_to_text(walk) == TRUNCATED_W
    spec, back = walk_to_ics(walk)
    assert spec == TruncatedRectangle(4, 5, 1) and back == TRUNCATED_ICS


def test_empty_ics_walk_is_out_and_back():
    for k in range(1, 5):
        walk = ics_to_walk(TypeARoot(k - 1), ())
        assert walk_to_text(walk) == " ".join(["e"] * k + ["w"] * k)


def test_walk_frame_recovery():
    walk = walk_from_text(4, TRUNCATED_W)
    assert walk_frame(walk) == (4, 5, 1)
    with pytest.raises(ValueError):
        walk_frame(QuarterWalk(0, ["E", "NW"]))  # ends off the x-axis
    with pytest.raises(ValueError):
        walk_to_ics(QuarterWalk(0, ["W"]))


def test_negative_truncation_walks_decode():
    # walks that never touch the y-axis decode into the plain rectangle
    spec, labels = walk_to_ics(QuarterWalk(2, ["E", "W"]))
    assert spec == ChainProduct(1, 1) and labels == frozenset()
    spec, labels = walk_to_ics(QuarterWalk(2, ["NW", "SE"]))
    assert spec == ChainProduct(1, 1) and labels == frozenset([(1, 1)])


def test_walk_roundtrip_sweep():
    specs = [TypeARoot(k) for k in range(5)]
    specs += [
        TruncatedRectangle(m, n, r)
        for m in range(4)
        for n in range(4)
        for r in range(min(m, n) + 1)
    ]
    for spec in specs:
        poset = build_poset(spec)
        for s in enumerate_ics(poset):
            labels = poset.labels_of(s)
            walk = ics_to_walk(spec, labels)
            _, back = walk_to_ics(walk)
            assert back == labels
            _check_against_references(spec, labels, poset)
            st = subset_stats(poset, s)
            ws = walk_stats(walk)
            assert st.cardinality == ws.height_sum
            assert st.component_count == ws.x_axis_returns
            assert st.minimal_in_subset == ws.y_axis_returns_excl_last


# ---------------------------------------------------------------------------
# classification


def test_classify_empty_and_everything():
    cl = classify_elements(ChainProduct(2, 3), ())
    assert cl.in_ics == cl.below_only == cl.above_only == frozenset()
    assert len(cl.incomparable) == 6
    everything = {(a, b) for a in (1, 2) for b in (1, 2, 3)}
    cl = classify_elements(ChainProduct(2, 3), everything)
    assert cl.in_ics == frozenset(everything)
    assert cl.below_only == cl.above_only == cl.incomparable == frozenset()


def test_classify_single_incomparable_example():
    ics = {(6, 1), (5, 2), (4, 2), (4, 3), (1, 6), (2, 6), (2, 5)}
    cl = classify_elements(ChainProduct(6, 7), ics)
    assert cl.incomparable == frozenset([(3, 4)])
    total = sum(len(part) for part in (cl.in_ics, cl.below_only, cl.above_only, cl.incomparable))
    assert total == 42


def test_classification_is_a_partition():
    poset = build_poset(ChainProduct(3, 3))
    for s in enumerate_ics(poset):
        cl = classify_elements(ChainProduct(3, 3), poset.labels_of(s))
        assert cl.in_ics == poset.labels_of(s)
        parts = [cl.in_ics, cl.below_only, cl.above_only, cl.incomparable]
        assert sum(len(p) for p in parts) == 9
        union = set()
        for p in parts:
            assert not (union & p)
            union |= p


def test_classify_matches_path_geometry():
    # elements strictly between the two boundary paths are exactly the ICS
    m, n = 3, 4
    poset = build_poset(ChainProduct(m, n))
    for s in enumerate_ics(poset):
        labels = poset.labels_of(s)
        cl = classify_elements(ChainProduct(m, n), labels)
        pair = ics_to_nested_pair(ChainProduct(m, n), labels)
        bh, th = pair.bottom_heights(), pair.top_heights()
        geometric = {
            (a, b)
            for a in range(1, m + 1)
            for b in range(1, n + 1)
            if bh[a - b + n] <= a + b - 2 and th[a - b + n] >= a + b
        }
        assert geometric == cl.in_ics


def _closure_classification(spec, labels):
    """The four regions from the ideal and filter closures on the poset."""
    poset = build_poset(spec)
    members = poset.indices_of(labels)
    delta = ideal_closure(poset, members)
    nabla = filter_closure(poset, members)
    rest = frozenset(range(poset.n)) - delta - nabla
    return tuple(map(poset.labels_of, (members, delta - members, nabla - members, rest)))


def _classification_cases():
    # every ICS of six frames, empty ones included, then random ICS of the
    # sweep ladder's frames
    for spec in (
        ChainProduct(4, 4),
        TruncatedRectangle(5, 5, 2),
        TruncatedRectangle(4, 6, 3),
        TypeARoot(5),
        TypeARoot(0),
        ChainProduct(0, 3),
    ):
        poset = build_poset(spec)
        for s in enumerate_ics(poset):
            yield spec, poset.labels_of(s)
    rng = random.Random("classification against the closures")
    for frame in SWEEP_LADDER:
        for _ in range(200):
            yield _ladder_spec(frame), _random_ics(rng, frame)


def test_classify_matches_the_closures():
    # classify_elements reads its regions from the two envelopes; the
    # closures on the built poset are the reference
    for spec, labels in _classification_cases():
        cl = classify_elements(spec, labels)
        assert (cl.in_ics, cl.below_only, cl.above_only, cl.incomparable) == _closure_classification(spec, labels)


# ---------------------------------------------------------------------------
# full ICS and the shift map


def test_is_full_examples():
    assert is_full_ics(1, 1, [(1, 1)])
    assert not is_full_ics(2, 2, ())
    poset = build_poset(ChainProduct(2, 2))
    fulls = [
        poset.labels_of(s)
        for s in enumerate_ics(poset)
        if is_full_ics(2, 2, poset.labels_of(s))
    ]
    assert len(fulls) == 3


def test_shift_map_smallest():
    image = shift_map(1, 1, [(1, 1)])
    assert is_full_ics(2, 1, image)
    assert shift_map_inverse(2, 1, image) == frozenset([(1, 1)])


def test_shift_map_bijection_sweep():
    for m in range(1, 4):
        for n in range(1, 4):
            source = build_poset(ChainProduct(m, n))
            target = build_poset(ChainProduct(m + 1, n))
            eligible = [
                source.labels_of(s)
                for s in enumerate_ics(source)
                if subset_stats(source, s).hits_all_files
            ]
            fulls = {
                target.labels_of(s)
                for s in enumerate_ics(target)
                if is_full_ics(m + 1, n, target.labels_of(s))
            }
            images = {shift_map(m, n, labels) for labels in eligible}
            assert len(images) == len(eligible)  # injective
            assert images == fulls  # onto
            for labels in eligible:
                assert shift_map_inverse(m + 1, n, shift_map(m, n, labels)) == labels


def _reference_shift_map(m, n, labels, poset):
    members = poset.indices_of(labels)
    complement = frozenset(range(poset.n)) - filter_closure(poset, members)
    upper = _boundary_heights(m, n, 0, poset.labels_of(ideal_closure(poset, members)))
    lower = _boundary_heights(m, n, 0, poset.labels_of(complement))
    new_upper = [n] + [h + 1 for h in upper]
    new_lower = lower + [lower[-1] + 1]
    return frozenset(
        (a, b)
        for a in range(1, m + 2)
        for b in range(1, n + 1)
        if new_lower[a - b + n] <= a + b - 2 and new_upper[a - b + n] >= a + b
    )


def _reference_shift_map_inverse(m, n, labels, poset):
    pair = _reference_pair(ChainProduct(m, n), labels, poset)
    upper = [h - 1 for h in pair.top_heights()[1:]]
    lower = pair.bottom_heights()[:-1]
    return frozenset(
        (a, b)
        for a in range(1, m)
        for b in range(1, n + 1)
        if lower[a - b + n] <= a + b - 2 and upper[a - b + n] >= a + b
    )


def test_shift_maps_match_references():
    for m in range(1, 5):
        for n in range(1, 5):
            poset = build_poset(ChainProduct(m, n))
            for s in enumerate_ics(poset):
                labels = poset.labels_of(s)
                if {a for a, _ in labels} == set(range(1, m + 1)):
                    assert shift_map(m, n, labels) == _reference_shift_map(m, n, labels, poset)
                if is_full_ics(m, n, labels):
                    assert shift_map_inverse(m, n, labels) == _reference_shift_map_inverse(
                        m, n, labels, poset
                    )


def test_shift_map_rejections():
    with pytest.raises(ValueError):
        shift_map(2, 2, [(1, 1)])  # misses file 2
    with pytest.raises(ValueError):
        shift_map_inverse(2, 2, [])  # empty set is not full
    with pytest.raises(ValueError, match=r"^shift map inverse is only defined on full ICS$"):
        shift_map_inverse(2, 2, [(1, 1)])  # the paths meet at files 1 and 3
    with pytest.raises(ValueError, match=r"^full ICS paths do not start/end with the shift step$"):
        shift_map_inverse(0, 1, [])  # one D step: no inner file, no shift step


def test_shift_map_inverse_tests_the_interval_once(monkeypatch):
    image = shift_map(3, 3, [(1, 1), (2, 1), (3, 1)])
    calls = []

    def counting(poset, members):
        calls.append(members)
        return find_ics_violation(poset, members)

    monkeypatch.setattr(posets, "find_ics_violation", counting)  # the check require_ics runs
    assert shift_map_inverse(4, 3, image) == frozenset([(1, 1), (2, 1), (3, 1)])
    assert len(calls) == 1


def test_poset_caches_let_an_evicted_poset_go():
    # build_poset caches 16 posets, and the maps keep none of their own:
    # after 16 other specs pass through the maps, the first poset is freed
    poset = build_poset(ChainProduct(3, 17))
    ics_to_motzkin(3, 17, [(1, 1)])
    freed = weakref.ref(poset)
    del poset
    for m in range(1, 17):
        ics_to_motzkin(m, 19, [])
    gc.collect()
    assert freed() is None


def test_labels_outside_the_poset_are_value_errors():
    # the maps take a spec, not a built poset: a label outside the spec is
    # refused even while a larger poset holding it is cached
    larger = build_poset(ChainProduct(3, 3))
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[\(3, 3\)\]$"):
        ics_to_motzkin(2, 2, [(3, 3)])
    with pytest.raises(TypeError):
        ics_to_motzkin(2, 2, [(1, 1)], larger)
    cl = classify_elements(ChainProduct(2, 2), [(1, 1)])
    assert cl.above_only == frozenset([(1, 2), (2, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"^elements not in the poset: \[\(0, 1\)\]$"):
        classify_elements(ChainProduct(2, 2), [(0, 1)])
    with pytest.raises(ValueError, match=r"not in the poset: \[\(1, 1\)\]"):
        ics_to_walk(TypeARoot(2), [(1, 1)])


# ---------------------------------------------------------------------------
# the direct maps against the validated compositions

# the bijection_sweep benchmark's frames (family, m, n, r); rootA:k sits in
# the frame (k + 1, k + 1, k + 1)
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


def _staircase(m, tops):
    # row bounds of the down-set of tops: row a holds (a, b) for b <= bound[a]
    bound = [0] * (m + 2)
    for a, b in tops:
        bound[a] = max(bound[a], b)
    for a in range(m - 1, 0, -1):
        bound[a] = max(bound[a], bound[a + 1])
    return bound


def _random_ics(rng, frame):
    """K minus J for nested order ideals J <= K of the frame's poset, each the
    down-set of up to three random elements (the benchmark's sampler)."""
    _, m, n, r = frame
    rows = [(a, max(1, r + 2 - a)) for a in range(1, m + 1) if r + 2 - a <= n]
    elements = [(a, b) for a, lo in rows for b in range(lo, n + 1)]
    upper = _staircase(m, rng.sample(elements, rng.randint(1, 3)))
    inside = [(a, b) for a, lo in rows for b in range(lo, upper[a] + 1)]
    lower = _staircase(m, rng.sample(inside, rng.randint(0, min(3, len(inside)))))
    return frozenset((a, b) for a, lo in rows for b in range(max(lo, lower[a] + 1), upper[a] + 1))


def _ladder_spec(frame):
    family, m, n, r = frame
    if family == "rect":
        return ChainProduct(m, n)
    return TypeARoot(m - 1) if family == "rootA" else TruncatedRectangle(m, n, r)


def _composition_cases():
    """(spec, labels, whether the case is one of every ICS of a small spec)"""
    for spec in (ChainProduct(4, 4), TruncatedRectangle(5, 5, 2), TypeARoot(5)):
        poset = build_poset(spec)
        for s in enumerate_ics(poset):
            yield spec, poset.labels_of(s), True
    rng = random.Random("direct maps against the validated compositions")
    for frame in SWEEP_LADDER:
        for _ in range(200):
            yield _ladder_spec(frame), _random_ics(rng, frame), False


def test_pair_matches_the_column_top_construction():
    # every ICS of rect:4x4, of each trunc frame with m, n <= 3 and every
    # floor, and of rootA:0..5, then seeded ICS of the sweep ladder's frames
    specs = [ChainProduct(4, 4), *(TypeARoot(k) for k in range(6))]
    specs += [TruncatedRectangle(m, n, r) for m in range(4) for n in range(4) for r in range(min(m, n) + 1)]
    for spec in specs:
        poset = build_poset(spec)
        for s in enumerate_ics(poset):
            labels = poset.labels_of(s)
            assert ics_to_nested_pair(spec, labels) == _column_top_pair(spec, labels)
    rng = random.Random("pair against the column-top construction")
    for frame in SWEEP_LADDER:
        for _ in range(200):
            spec, labels = _ladder_spec(frame), _random_ics(rng, frame)
            assert ics_to_nested_pair(spec, labels) == _column_top_pair(spec, labels)


def test_direct_maps_equal_the_validated_compositions():
    # the direct maps validate no pair they build; the compositions validate
    # every pair they pass on (nested_pair_to_ics and nested_pair_to_motzkin
    # check the pair, and the recoded pairs equal it)
    for spec, labels, every_ics in _composition_cases():
        m, n, r = family_of(spec).frame(normalize_spec(spec))
        pair = ics_to_nested_pair(spec, labels)
        cells = nested_pair_to_ics(pair)
        assert cells == labels
        walk = ics_to_walk(spec, labels)
        assert walk == QuarterWalk(n - r, (PAIR_TO_WALK[bt] for bt in zip(pair.bottom, pair.top)))
        recoded = [WALK_TO_PAIR[s] for s in walk.steps]
        assert NestedPairBT(m, n, r, (b for b, _ in recoded), (t for _, t in recoded)) == pair
        assert walk_to_ics(walk) == (TruncatedRectangle(m, n, r) if r else ChainProduct(m, n), cells)
        if r == 0:
            word = ics_to_motzkin(m, n, labels)
            assert word == nested_pair_to_motzkin(pair)
            assert motzkin_to_nested_pair(word) == pair
            assert motzkin_to_ics(word) == (m, n, cells)
        if every_ics:
            _check_full_ics_and_shift_map(m, n, labels)


def _check_full_ics_and_shift_map(m, n, labels):
    # an ICS of a truncated rectangle or root triangle is one of its frame's
    # rectangle too, as those posets are up-sets of it
    rect = build_poset(ChainProduct(m, n))
    heights = ics_to_motzkin(m, n, labels).heights()
    full = all(h > 0 for h in heights[1:-1])  # the word-based definition
    assert is_full_ics(m, n, labels) == full
    if full:
        assert shift_map_inverse(m, n, labels) == _reference_shift_map_inverse(m, n, labels, rect)
    if {a for a, _ in labels} == set(range(1, m + 1)):
        image = shift_map(m, n, labels)
        assert image == _reference_shift_map(m, n, labels, rect)
        assert is_full_ics(m + 1, n, image)
        assert shift_map_inverse(m + 1, n, image) == labels


# ---------------------------------------------------------------------------
# rejections, on the first call and on a repeated one with the same value

BAD_WORDS = [
    (["U", "X", "D"], "unknown letter 'X'"),
    (["D", "X"], "unknown letter 'X'"),  # the letters are checked first
    (["D", "U"], "height drops below 0 at step 1"),
    (["U", "H2", "D", "H2", "H1"], "H2 on the x-axis followed by H1 at step 4"),
    (["U", "U", "D"], "final height 1 is not 0"),
]
BAD_WALKS = [
    ((-1, []), "start x -1 is negative"),
    ((2, ["W", "X"]), "unknown letter 'X'"),
    ((1, ["W", "E"]), "W on the x-axis followed by E at step 2"),
    ((0, ["SE"]), "leaves the quadrant at step 1 (1, -1)"),
    ((0, ["SE", "X"]), "leaves the quadrant at step 1 (1, -1)"),  # the rules in step order
]
BAD_PAIRS = [
    ((2, 2, 0, "UDUD", "UDUD"), "shared block at steps 1..4 is not U-steps-first"),
    ((2, 2, 0, "UUDD", "UDUD"), "B rises above T"),
    ((2, 2, 0, "UUD", "UUDD"), "B has 3 steps, expected 4"),
    ((1, 1, 0, "UX", "UD"), "B has letters outside U/D"),
    ((1, 1, 0, "UU", "UD"), "B does not have exactly 1 U steps"),
    ((2, 2, 2, "DUUD", "UUDD"), "B drops below the floor y = 2"),
]


def _rejections():
    """(entry, value, the parent's text of the rejection) for each public entry."""
    for letters, problem in BAD_WORDS:
        word = MotzkinWord(letters)
        yield validate_motzkin, word, problem
        yield validate_motzkin, letters, problem
        for entry in (motzkin_to_ics, motzkin_to_nested_pair, motzkin_stats):
            yield entry, word, f"invalid bicolored Motzkin word: {problem}"
        yield motzkin_stats, letters, f"invalid bicolored Motzkin word: {problem}"
    for (start, steps), problem in BAD_WALKS:
        walk = QuarterWalk(start, steps)
        yield validate_walk, walk, problem
        for entry in (walk_frame, walk_to_ics, walk_stats):
            yield entry, walk, f"invalid quarter-plane walk: {problem}"
    for entry in (walk_frame, walk_to_ics):
        yield entry, QuarterWalk(0, ["E", "NW"]), "walk must end on the x-axis, ends at (0, 1)"
    for fields, problem in BAD_PAIRS:
        pair = NestedPairBT(*fields)
        yield validate_nested_pair, pair, problem
        yield nested_pair_to_ics, pair, f"invalid nested pair: {problem}"
        if pair.r == 0:
            yield nested_pair_to_motzkin, pair, f"invalid nested pair: {problem}"
    yield nested_pair_to_motzkin, NestedPairBT(2, 2, 1, "DUUD", "UUDD"), "Motzkin image needs floor r = 0, got r = 1"


def test_public_entries_reject_invalid_values_on_every_call():
    for entry, value, text in _rejections():
        for _ in range(2):
            if entry in (validate_motzkin, validate_walk):
                verdict = entry(value)
                assert not verdict.valid and verdict.violation == text
            elif entry is validate_nested_pair:
                assert entry(value) == text
            else:
                with pytest.raises(ValueError) as exc:
                    entry(value)
                assert str(exc.value) == text, entry
