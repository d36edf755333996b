"""The package surface: every public name resolves, and submodules load lazily."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import icsets

# The names `icsets` exported when its __init__ imported every submodule.
PUBLIC_NAMES = """
ChainProduct ChainProduct3 FinitePoset Involution OracleScaleExceeded OrdinalSumAntichains
PosetSpec SubsetStats TruncatedRectangle TypeARoot TypeBMinuscule TypeBRoot build_poset
count_ics enumerate_ics enumerate_symmetric_ics filter_closure ideal_closure
is_interval_closed subset_stats vertical_involution
MotzkinStats MotzkinWord NestedPairBT QuarterWalk WalkStats enumerate_motzkin
enumerate_walks motzkin_stats validate_motzkin validate_walk walk_stats
ElementClassification NotIntervalClosed classify_elements ics_to_motzkin
ics_to_nested_pair ics_to_walk is_full_ics motzkin_to_ics motzkin_to_nested_pair
nested_pair_to_ics nested_pair_to_motzkin shift_map shift_map_inverse walk_to_ics
NegativeExponentError SeriesBudgetExceeded TruncatedSeries
b_minuscule_counts b_root_counts bicolored_counts closed_form_count full_count narayana
rectangle_counts symmetric_typeA_counts truncated_counts typeA_F_coeffs typeA_counts
walk_dp_counts
""".split()
SUBMODULES = ["posets", "paths", "bijections", "series", "reference"]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from icsets import *", namespace)
    assert set(PUBLIC_NAMES + SUBMODULES) <= set(namespace)
    assert set(icsets.__all__) == set(PUBLIC_NAMES + SUBMODULES)


def test_each_name_is_its_submodule_attribute():
    for name in PUBLIC_NAMES:
        module = getattr(icsets, icsets._MODULE_OF[name])
        assert getattr(icsets, name) is getattr(module, name)
        assert name in dir(icsets)
    assert icsets.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    assert getattr(icsets, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        icsets.no_such_name


def test_the_records_are_values_not_dataclasses():
    # posets._Value is the package's record type: a frozen dataclass costs
    # about a millisecond of import time to define.  MotzkinStats is the one
    # exception left.
    names = [path.stem for path in Path(icsets.__file__).parent.glob("*.py") if path.stem != "__init__"]
    found = set()
    for name in names:
        module = importlib.import_module(f"icsets.{name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(f"{name}.{obj.__qualname__}")
    assert found == {"paths.MotzkinStats"}
    for name in ("bijections", "verify"):
        tree = ast.parse((Path(icsets.__file__).parent / f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, name
