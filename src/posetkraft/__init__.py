"""Kraft/LYM-type inequalities on level-regular graded posets.

A small exact-arithmetic toolkit for prefix/subsequence/substring/pattern
orders on strings and permutations: build the induced graded posets, audit
their level-regularity, compute Kraft numbers, permutation constants and LYM
numbers as exact rationals, construct prefix-free codes greedily, and verify
by exhaustive search that the greedy converse fails outside of trees.

Importing the package loads none of its modules.  Each name below is
imported from its home module on first use (PEP 562), and so is each of
the modules ``perm``, ``poset``, ``codes`` and ``lym`` read as an
attribute, so ``from posetkraft import kraft_number`` loads ``perm`` and
``codes`` only.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name by the module that defines it.
_HOMES = {
    "perm": (
        "BudgetExceededError",
        "PartialPermutation",
        "Str",
        "format_element",
        "full_permutations",
        "is_pattern_in",
        "is_prefix",
        "is_subsequence",
        "is_substring",
        "is_substring_pattern_in",
        "partial_permutations",
        "pattern_of",
        "strings",
    ),
    "poset": (
        "GradedPoset",
        "RegularityReport",
        "build_partial_perm_poset",
        "build_pattern_poset",
        "build_string_poset",
        "build_subset_poset",
        "lower_shadow",
        "regularity_check",
        "upper_shadow",
    ),
    "codes": (
        "Code",
        "Codomain",
        "ParameterSequence",
        "brute_force_uniquely_decodable",
        "decode_prefix_free",
        "density",
        "encode",
        "full_perm_constant",
        "is_free",
        "is_uniquely_decodable",
        "kraft_number",
        "mcmillan_construct",
        "parameter_sequence",
        "partial_perm_constant",
        "ulam_subsequence_condition",
    ),
    "lym": (
        "Antichain",
        "antichain_exists",
        "counterexample_params",
        "is_antichain",
        "local_lym_check",
        "lym_number",
        "reduce_top_level",
        "sample_antichain",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_HOMES))
