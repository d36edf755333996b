"""Path validators, statistics, enumerators, and text encodings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsets import paths
from icsets.paths import (
    MotzkinWord,
    NestedPairBT,
    PathScaleExceeded,
    QuarterWalk,
    enumerate_motzkin,
    enumerate_walks,
    motzkin_area_by_trapezoids,
    motzkin_from_text,
    motzkin_stats,
    motzkin_to_text,
    nested_pair_from_text,
    nested_pair_to_text,
    validate_motzkin,
    validate_nested_pair,
    validate_walk,
    walk_from_text,
    walk_stats,
    walk_to_text,
)
from icsets.posets import ChainProduct, TruncatedRectangle, build_poset, count_ics
from icsets.verify import RECT_EXAMPLE_WORD as RUNNING_EXAMPLE_WORD
from icsets.verify import TRUNCATED_EXAMPLE_WALK, TYPE_A_EXAMPLE_WALK



# ---------------------------------------------------------------------------
# Motzkin words


def test_validate_motzkin_basics():
    assert validate_motzkin(["H1", "H1", "H2"]) == validate_motzkin(
        motzkin_from_text("1 1 2")
    )
    v = validate_motzkin(["H1", "H1", "H2"])
    assert v.valid and (v.m, v.n) == (2, 1)
    assert not validate_motzkin(["H2", "H1"]).valid
    assert not validate_motzkin(["D", "U"]).valid
    assert not validate_motzkin(["U"]).valid
    assert not validate_motzkin(["U", "H2", "D", "H2", "H1"]).valid  # H2 at 0 then H1
    assert validate_motzkin(["U", "H2", "H1", "D"]).valid  # H2 then H1 off the axis


def test_validate_running_example():
    word = motzkin_from_text(RUNNING_EXAMPLE_WORD)
    v = validate_motzkin(word)
    assert v.valid and (v.m, v.n) == (13, 14)
    assert motzkin_to_text(word) == RUNNING_EXAMPLE_WORD


def test_motzkin_stats():
    assert motzkin_stats(["U", "D"]) == motzkin_stats(motzkin_from_text("U D"))
    s = motzkin_stats(["U", "D"])
    assert (s.area, s.returns, s.axis_run_product_sum) == (1, 1, 0)
    flat = motzkin_stats(["H1"] * 3 + ["H2"] * 4)
    assert (flat.area, flat.returns, flat.axis_run_product_sum) == (0, 0, 12)
    ex = motzkin_stats(motzkin_from_text(RUNNING_EXAMPLE_WORD))
    assert (ex.area, ex.returns, ex.axis_run_product_sum) == (20, 3, 5)
    with pytest.raises(ValueError):
        motzkin_stats(["H2", "H1"])


def test_area_definitions_agree():
    for m, n in [(2, 2), (3, 2), (3, 3), (1, 4)]:
        for word in enumerate_motzkin(m, n):
            stats = motzkin_stats(word)
            assert motzkin_area_by_trapezoids(word) == stats.area
            assert stats.returns <= sum(1 for s in word.steps if s == "D")


def test_enumerate_motzkin():
    assert [w.steps for w in enumerate_motzkin(0, 0)] == [()]
    assert [motzkin_to_text(w) for w in enumerate_motzkin(1, 1)] == ["U D", "1 2"]
    assert len(enumerate_motzkin(2, 2)) == 13
    with pytest.raises(PathScaleExceeded):
        enumerate_motzkin(8, 8)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(5) for n in range(5) if m + n <= 7])
def test_motzkin_count_matches_oracle(m, n):
    assert len(enumerate_motzkin(m, n)) == count_ics(build_poset(ChainProduct(m, n)))


def test_reversal_symmetry():
    # reversing with U<->D, H1<->H2 swaps the shape parameters and carries
    # canonical words to canonical words, a bijection onto the (n, m) set
    flip = {"U": "D", "D": "U", "H1": "H2", "H2": "H1"}
    for m in range(5):
        for n in range(5):
            images = set()
            for word in enumerate_motzkin(m, n):
                rev = tuple(flip[s] for s in reversed(word.steps))
                v = validate_motzkin(rev)
                assert v.valid and (v.m, v.n) == (n, m)
                images.add(rev)
            assert images == {w.steps for w in enumerate_motzkin(n, m)}


def test_enumeration_is_deterministic():
    a = [w.steps for w in enumerate_motzkin(3, 2)]
    b = [w.steps for w in enumerate_motzkin(3, 2)]
    assert a == b == sorted(a, key=lambda s: [("U", "D", "H1", "H2").index(c) for c in s])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["U", "D", "H1", "H2"]), max_size=6))
def test_validity_matches_enumeration(steps):
    word = MotzkinWord(steps)
    v = validate_motzkin(word)
    if v.valid:
        assert word.steps in {w.steps for w in enumerate_motzkin(v.m, v.n)}
    else:
        m = sum(1 for s in steps if s in ("U", "H1"))
        n = len(steps) - m
        assert word.steps not in {w.steps for w in enumerate_motzkin(m, n)}


# ---------------------------------------------------------------------------
# a Motzkin word is a quarter-plane walk in other letters

RENAMED = {"U": "NW", "D": "SE", "H1": "E", "H2": "W"}


def test_a_motzkin_word_is_a_walk_renamed():
    # from (n, 0) to (m, 0) in m + n steps, in the order U < D < H1 < H2
    # renamed, with area and returns read as height sum and SE returns
    rank = {RENAMED[s]: i for i, s in enumerate(("U", "D", "H1", "H2"))}
    for m in range(11):
        for n in range(11 - m):
            words = enumerate_motzkin(m, n)
            renamed = [tuple(RENAMED[s] for s in word.steps) for word in words]
            walks = [w.steps for w in enumerate_walks(n, m, m + n)]
            assert renamed == sorted(walks, key=lambda ss: [rank[s] for s in ss])
            for word, steps in zip(words, renamed):
                ms, ws = motzkin_stats(word), walk_stats(QuarterWalk(n, steps))
                assert (ms.area, ms.returns) == (ws.height_sum, ws.x_axis_returns)


@pytest.mark.parametrize(
    "read",
    [
        lambda: QuarterWalk(0, ["X"]).endpoint,
        lambda: QuarterWalk(1, ["NW", "X"]).positions(),
        lambda: MotzkinWord(["U", "X", "D"]).heights(),
        lambda: MotzkinWord(["H1", "X"]).heights(),
    ],
    ids=["walk endpoint", "walk positions", "word heights", "word heights, last letter"],
)
def test_path_values_reject_unknown_letters(read):
    with pytest.raises(ValueError) as exc:
        read()
    assert str(exc.value) == "unknown letter 'X'"


# ---------------------------------------------------------------------------
# quarter-plane walks


def test_validate_walk_basics():
    assert validate_walk(QuarterWalk(0, ["E"] * 3 + ["W"] * 3)).valid
    assert not validate_walk(QuarterWalk(0, ["W"])).valid
    assert not validate_walk(QuarterWalk(0, ["SE"])).valid
    assert not validate_walk(QuarterWalk(1, ["W", "E"])).valid  # W on axis then E
    assert validate_walk(QuarterWalk(1, ["NW", "SE"])).valid
    v = validate_walk(walk_from_text(4, TRUNCATED_EXAMPLE_WALK))
    assert v.valid and v.endpoint == (3, 0)


def test_walk_stats_examples():
    triangle_walk = walk_from_text(0, TYPE_A_EXAMPLE_WALK)
    s = walk_stats(triangle_walk)
    assert (s.height_sum, s.x_axis_returns, s.y_axis_returns_excl_last) == (3, 2, 1)
    truncated_walk = walk_from_text(4, TRUNCATED_EXAMPLE_WALK)
    s = walk_stats(truncated_walk)
    assert (s.height_sum, s.x_axis_returns, s.y_axis_returns_excl_last) == (11, 1, 1)
    # the final W lands on the y-axis but is excluded
    s = walk_stats(QuarterWalk(0, ["E", "W"]))
    assert (s.height_sum, s.x_axis_returns, s.y_axis_returns_excl_last) == (0, 0, 0)
    with pytest.raises(ValueError):
        walk_stats(QuarterWalk(0, ["W"]))


def test_enumerate_walks():
    assert [w.steps for w in enumerate_walks(0, 0, 0)] == [()]
    assert [walk_to_text(w) for w in enumerate_walks(0, 0, 4)] == [
        "e e w w",
        "e nw se w",
    ]
    assert len(enumerate_walks(0, 0, 4)) == 2
    assert len(enumerate_walks(1, 2, 5)) == 24
    with pytest.raises(PathScaleExceeded):
        enumerate_walks(0, 0, 16)


@pytest.mark.parametrize("h", range(5))
@pytest.mark.parametrize("s", range(5))
def test_walk_counts_match_oracle(h, s):
    from icsets.series import truncated_counts

    for length in range(0, 13):
        if (length - s - h) % 2 or length < abs(s - h):
            continue
        m = (length + s - h) // 2
        n = (length - s + h) // 2
        r = (length - s - h) // 2
        if r < 0 or r > min(m, n):
            continue
        walks = enumerate_walks(h, s, length)
        poset = build_poset(TruncatedRectangle(m, n, r))
        if poset.n <= 30:
            want = count_ics(poset)
        else:  # above the oracle bound; the series engine is oracle-backed below it
            want = truncated_counts(m, n)[(m, n, r)]
        assert len(walks) == want
        assert [w.steps for w in walks] == sorted(
            [w.steps for w in walks],
            key=lambda ss: [("E", "W", "SE", "NW").index(c) for c in ss],
        )


# ---------------------------------------------------------------------------
# nested pairs


def test_nested_pair_validation():
    good = NestedPairBT(2, 2, 0, "UUDD", "UUDD")
    assert validate_nested_pair(good) is None
    assert validate_nested_pair(NestedPairBT(2, 2, 0, "UDUD", "UUDD")) is None
    # shared block with D before U is not canonical
    assert validate_nested_pair(NestedPairBT(2, 2, 0, "UDUD", "UDUD")) is not None
    assert validate_nested_pair(NestedPairBT(2, 2, 0, "UUDD", "UDUD")) is not None  # B above T
    assert validate_nested_pair(NestedPairBT(2, 2, 0, "UUD", "UUDD")) is not None
    assert validate_nested_pair(NestedPairBT(2, 2, 1, "DUUD", "UUDD")) is None  # touches floor
    assert validate_nested_pair(NestedPairBT(2, 2, 2, "DUUD", "UUDD")) is not None  # floor


def test_nested_pair_text_roundtrip():
    pair = NestedPairBT(2, 3, 1, "DUDUD", "UDUDD")
    assert nested_pair_from_text(nested_pair_to_text(pair)) == pair
    with pytest.raises(ValueError):
        nested_pair_from_text("1 2\nUD")
    with pytest.raises(ValueError):
        nested_pair_from_text("1 1 0\nUX\nUD")


@pytest.mark.parametrize("name", ["WALK_MOVES", "MOTZKIN_AS_WALK", "WALK_AS_MOTZKIN"])
def test_the_letter_tables_cannot_be_edited(name):
    # every map reads these tables, so an edit would change every later map
    table = getattr(paths, name)
    with pytest.raises(TypeError):
        table[next(iter(table))] = None


# ---------------------------------------------------------------------------
# path values hold only their fields


@pytest.mark.parametrize(
    "value",
    [
        MotzkinWord(["U", "H2", "D"]),
        MotzkinWord(["H2", "H1"]),
        QuarterWalk(1, ["NW", "SE", "E", "W"]),
        QuarterWalk(0, ["W"]),
    ],
    ids=repr,
)
def test_validating_a_path_value_leaves_only_its_fields(value):
    import copy
    import pickle

    from icsets.posets import _Value

    validate = validate_motzkin if isinstance(value, MotzkinWord) else validate_walk
    assert type(value).__mro__ == (type(value), _Value, object)
    before = (repr(value), hash(value), pickle.dumps(value), pickle.dumps(value, 0))
    verdict = validate(value)
    assert validate(value) == verdict
    # the slots that hold a value are its fields and _Value's tuple of them
    held = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ()) if hasattr(value, name)]
    assert held == [*type(value).__slots__, "_key"] and not hasattr(value, "__dict__")
    assert (repr(value), hash(value), pickle.dumps(value), pickle.dumps(value, 0)) == before
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and repr(other) == repr(value) and validate(other) == verdict


def test_each_path_value_is_checked_once(monkeypatch):
    # a path value keeps no verdict, so every call checks it, and no call
    # follows its steps twice
    from icsets.bijections import motzkin_to_ics, walk_frame, walk_to_ics

    followed = []
    real = paths._follow
    monkeypatch.setattr(paths, "_follow", lambda *args: followed.append(args) or real(*args))
    word = MotzkinWord(["U", "H1", "H2", "D"])
    walk = QuarterWalk(1, ["NW", "SE", "E", "W"])
    for value, calls in (
        (word, (validate_motzkin, motzkin_to_ics, motzkin_stats, validate_motzkin)),
        (walk, (validate_walk, walk_frame, walk_to_ics, walk_stats, validate_walk)),
    ):
        for call in calls:
            followed.clear()
            call(value)
            assert len(followed) == 1, call.__name__
    # a list of letters is read afresh on every call, so it reflects later edits
    letters = ["U", "D"]
    assert validate_motzkin(letters).valid
    letters.append("D")
    assert validate_motzkin(letters).violation == "height drops below 0 at step 3"
    assert motzkin_stats(("U", "D")).area == 1
    # a one-shot iterable is read once, so its statistics are not of an empty word
    assert motzkin_stats(iter(["U", "U", "D", "D"])).area == 4
    assert validate_motzkin(iter(["U", "D"])) == validate_motzkin(MotzkinWord(["U", "D"]))


# ---------------------------------------------------------------------------
# one-pass statistics against per-position references


def _reference_walk_stats(walk):
    pos = walk.positions()
    height_sum = sum(y for _, y in pos[1:])
    x_returns = sum(1 for i, s in enumerate(walk.steps) if s == "SE" and pos[i + 1][1] == 0)
    y_returns = sum(
        1
        for i, s in enumerate(walk.steps)
        if s in ("W", "NW") and pos[i + 1][0] == 0 and i != len(walk.steps) - 1
    )
    return height_sum, x_returns, y_returns


def _reference_motzkin_stats(word):
    heights = word.heights()
    area = sum(heights[1:])
    returns = sum(1 for i, s in enumerate(word.steps) if s == "D" and heights[i + 1] == 0)
    # maximal runs of horizontal steps taken on the axis
    run_product_sum = 0
    for on_axis, run in itertools.groupby(
        range(len(word.steps)), key=lambda i: word.steps[i] in ("H1", "H2") and heights[i] == 0
    ):
        if on_axis:
            letters = [word.steps[i] for i in run]
            run_product_sum += letters.count("H1") * letters.count("H2")
    return area, returns, run_product_sum


def test_walk_stats_match_the_per_position_reference():
    walks = [
        walk
        for h in range(5)
        for s in range(5)
        for length in range(11)
        for walk in enumerate_walks(h, s, length)
    ]
    # these end on the x-axis, so a last NW step onto the y-axis shows only
    # in their prefixes, which are valid walks too
    walks += {
        QuarterWalk(walk.start_x, walk.steps[:k])
        for walk in walks
        for k, (x, _) in enumerate(walk.positions())
        if x == 0 and k and walk.steps[k - 1] == "NW"
    }
    last_steps_onto_the_y_axis = set()
    for walk in walks:
        st = walk_stats(walk)
        assert (st.height_sum, st.x_axis_returns, st.y_axis_returns_excl_last) == _reference_walk_stats(walk)
        if walk.steps and walk.endpoint[0] == 0:
            last_steps_onto_the_y_axis.add(walk.steps[-1])
    assert last_steps_onto_the_y_axis == {"W", "NW"}


def test_motzkin_stats_match_the_per_position_reference():
    for m in range(6):
        for n in range(6):
            for word in enumerate_motzkin(m, n):
                st = motzkin_stats(word)
                assert (st.area, st.returns, st.axis_run_product_sum) == _reference_motzkin_stats(word)
