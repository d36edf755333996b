"""Interval-closed sets of chain products, truncated rectangles, and
root/minuscule posets: enumeration, bijections to bicolored Motzkin paths
and quarter-plane walks, and exact generating-function engines.

The names below are exported lazily (PEP 562): `import icsets` loads no
submodule, and each one is imported the first time one of its names is read.
"""

_EXPORTS = {
    "posets": (
        "ChainProduct",
        "ChainProduct3",
        "FinitePoset",
        "Involution",
        "NotIntervalClosed",
        "OracleScaleExceeded",
        "OrdinalSumAntichains",
        "PosetSpec",
        "SubsetStats",
        "TruncatedRectangle",
        "TypeARoot",
        "TypeBMinuscule",
        "TypeBRoot",
        "build_poset",
        "count_ics",
        "enumerate_ics",
        "enumerate_symmetric_ics",
        "filter_closure",
        "ideal_closure",
        "is_interval_closed",
        "subset_stats",
        "vertical_involution",
    ),
    "paths": (
        "MotzkinStats",
        "MotzkinWord",
        "NestedPairBT",
        "QuarterWalk",
        "WalkStats",
        "motzkin_stats",
        "validate_motzkin",
        "validate_walk",
        "walk_stats",
    ),
    "bijections": (
        "ElementClassification",
        "classify_elements",
        "ics_to_motzkin",
        "ics_to_nested_pair",
        "ics_to_walk",
        "is_full_ics",
        "motzkin_to_ics",
        "motzkin_to_nested_pair",
        "nested_pair_to_ics",
        "nested_pair_to_motzkin",
        "shift_map",
        "shift_map_inverse",
        "walk_to_ics",
    ),
    "series": (
        "NegativeExponentError",
        "SeriesBudgetExceeded",
        "b_minuscule_counts",
        "b_root_counts",
        "bicolored_counts",
        "closed_form_count",
        "full_count",
        "narayana",
        "rectangle_counts",
        "symmetric_typeA_counts",
        "truncated_counts",
        "typeA_F_coeffs",
        "typeA_counts",
        "walk_dp_counts",
    ),
    "reference": ("TruncatedSeries", "enumerate_motzkin", "enumerate_walks"),
}
# exported name -> the submodule that defines it; a submodule name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module: -X importtime then
    # reports the submodule instead of charging it to the importer
    __import__(f"{__name__}.{module}")
    value = globals()[module]  # the import bound the submodule here
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
