"""
Orders on strings and partial permutations
==========================================

A partial permutation is an injective sequence of symbols from [1..k];
strings may repeat symbols.  Five containment orders matter here: prefix,
subsequence and substring compare symbols directly, while pattern and
substring-pattern only compare relative order.  This script walks through
the worked examples and the enumeration counts.
"""

from posetkraft import codes, perm

# 2513 over universe 6 is our running example
tau = perm.parse_partial_permutation("2513", 6)
t253 = perm.parse_partial_permutation("253", 6)
t51 = perm.parse_partial_permutation("51", 6)

print("tau =", tau, " over [1..6]")
print()

# 253 appears inside 2513 if we may skip symbols, but not as a block
print("253 subsequence of 2513:", perm.is_subsequence(t253, tau))
print("253 substring   of 2513:", perm.is_substring(t253, tau))
print("51  substring   of 2513:", perm.is_substring(t51, tau))
print("25  prefix      of 2513:", perm.is_prefix(perm.parse_partial_permutation("25", 6), tau))
print()

# the pattern of a partial permutation records only the relative order
print("pattern of 253:", perm.pattern_of(t253))   # 2 < 5 > 3  ->  1 3 2
print("pattern of 51 :", perm.pattern_of(t51))
print()

# pattern containment = being the pattern of some subsequence
sigma = perm.parse_partial_permutation("132")
print("132 is a pattern in 2513:", perm.is_pattern_in(sigma, tau))
print("21 is a substring pattern in 2513:",
      perm.is_substring_pattern_in(perm.parse_partial_permutation("21"), tau))
print()

# enumeration in lexicographic order, counts match the closed forms
print("injective 2-sequences over [1..3]:",
      [str(x) for x in perm.partial_permutations(3, 2)])
for k in range(1, 7):
    t_k = len(codes.Codomain("partial_perm", k).codewords())
    s_k = len(codes.Codomain("perm_pattern", k).codewords())
    print(f"k={k}: {t_k:5d} injective sequences, {s_k:4d} layered permutations")
