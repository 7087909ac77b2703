"""
Codes, exact constants, and greedy construction
===============================================

A code assigns distinct codewords to source symbols.  Summing, over all
lengths, the fraction of available words of that length the code uses gives
its Kraft number (strings) or permutation constant (permutation codomains);
prefix-free codes always stay at or below 1.  The converse direction, from a
feasible length profile back to a concrete prefix-free code, is a greedy
walk of the code tree.  Everything is exact rational arithmetic.
"""

from posetkraft import codes
from posetkraft.codes import (
    Code,
    brute_force_uniquely_decodable,
    decode_prefix_free,
    encode,
    full_perm_constant,
    is_free,
    is_uniquely_decodable,
    kraft_number,
    mcmillan_construct,
    parameter_sequence,
    partial_perm_constant,
    ulam_subsequence_condition,
)

# the classic binary example
code = Code.of_strings(2, ["0", "10", "11"])
params = parameter_sequence(code)
print("codewords:", [str(w) for w in code.codewords])
print("parameters:", params.counts)
print("Kraft number:", kraft_number(params, 2))
print("prefix-free:", bool(is_free(code, "prefix")))
print()

# prefix-free codes decode instantaneously, left to right
out = encode(code, (1, 2, 3, 1))
print("encode 1,2,3,1 ->", out)
print("decode back    ->", decode_prefix_free(code, out))
print()

# unique decodability beyond prefix-freeness: a suffix code
suffix_code = Code.of_strings(2, ["0", "01", "11"])
print("suffix code prefix-free:", bool(is_free(suffix_code, "prefix")))
print("suffix code uniquely decodable:", is_uniquely_decodable(suffix_code))
print("  (brute force agrees:", brute_force_uniquely_decodable(suffix_code), ")")
print("{0, 00} uniquely decodable:", is_uniquely_decodable(Code.of_strings(2, ["0", "00"])))
print()

# the greedy construction realizes any feasible length profile
result = mcmillan_construct(2, (0, 1, 2))
print("greedy for lengths (0,1,2):", [str(w) for w in result.code.codewords])
result = mcmillan_construct(2, (0, 2, 1))
print("greedy for lengths (0,2,1): infeasible at level", result.failed_level,
      "- Kraft number", kraft_number((0, 2, 1), 2), "> 1")
print()

# permutation codes use the same density idea against their own universes
perm_code = Code.of_partial_perms(3, ["1", "2", "12", "21"])
print("partial-perm code constant:",
      partial_perm_constant(parameter_sequence(perm_code), 3))
layered = Code.of_full_perms(3, ["21", "123"])
print("layered-perm code constant:",
      full_perm_constant(parameter_sequence(layered), 3))
print("{21, 123} pattern-free:", bool(is_free(layered, "pattern")))
clash = Code.of_full_perms(3, ["12", "123"])
verdict = is_free(clash, "pattern")
print("{12, 123} pattern-free:", bool(verdict),
      "- witness:", tuple(str(w) for w in verdict.witness))
print()

# fixed-length permutation codes and the Ulam metric: minimum distance >= d
# means no two codewords share a subsequence of length k-d+1
good = Code.of_partial_perms(3, ["123", "321"])
bad = Code.of_partial_perms(3, ["123", "132"])
print("{123, 321} has Ulam distance >= 2:", ulam_subsequence_condition(good, 2))
print("{123, 132} has Ulam distance >= 2:", ulam_subsequence_condition(bad, 2))
