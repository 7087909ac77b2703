"""Kraft/LYM-type inequalities on level-regular graded posets.

A small exact-arithmetic toolkit for prefix/subsequence/substring/pattern
orders on strings and permutations: build the induced graded posets, audit
their level-regularity, compute Kraft numbers, permutation constants and LYM
numbers as exact rationals, construct prefix-free codes greedily, and verify
by exhaustive search that the greedy converse fails outside of trees.
"""

from .perm import (
    PartialPermutation,
    Str,
    format_element,
    full_permutations,
    is_pattern_in,
    is_prefix,
    is_subsequence,
    is_substring,
    is_substring_pattern_in,
    partial_permutations,
    pattern_of,
    strings,
)
from .poset import (
    BudgetExceededError,
    GradedPoset,
    RegularityReport,
    build_partial_perm_poset,
    build_pattern_poset,
    build_string_poset,
    build_subset_poset,
    lower_shadow,
    regularity_check,
    upper_shadow,
)
from .codes import (
    Code,
    Codomain,
    ParameterSequence,
    brute_force_uniquely_decodable,
    decode_prefix_free,
    density,
    encode,
    full_perm_constant,
    is_free,
    is_uniquely_decodable,
    kraft_number,
    parameter_sequence,
    partial_perm_constant,
    ulam_subsequence_condition,
)
from .lym import (
    Antichain,
    antichain_exists,
    counterexample_params,
    is_antichain,
    local_lym_check,
    lym_number,
    mcmillan_construct,
    reduce_top_level,
    sample_antichain,
)

__version__ = "0.1.0"
