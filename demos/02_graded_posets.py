"""
Graded posets from containment orders
=====================================

Each containment order induces a graded poset on the elements it compares,
levels indexed by length (or subset size).  Stored as explicit levels plus a
cover multigraph, these posets can be audited for level-regularity: every
element of a level has the same up-degree and the same down-degree, counted
with multiplicity.  That uniformity is exactly what makes the density
argument of the next demos work.  The last poset is given as plain lists,
the divisors of 12, and need not be regular.
"""

import json

from posetkraft import poset
from posetkraft.poset import (
    GradedPoset,
    build_partial_perm_poset,
    build_pattern_poset,
    build_string_poset,
    build_subset_poset,
    regularity_check,
)


def show(host):
    report = regularity_check(host)
    sizes = ",".join(str(len(level)) for level in host.levels)
    print(f"{host.family:45s} levels {sizes}")
    for pair in report.pairs:
        print(
            f"    ({pair.lower_rank},{pair.upper_rank}): up {pair.up_degree}, "
            f"down {pair.down_degree}, edges {pair.edge_count}"
        )
    assert report.is_level_regular


# subsets of {1,2}: the smallest interesting diagram
subsets = build_subset_poset(2)
show(subsets)
print()
print(subsets.to_dot())
print()

# binary strings under the three symbol orders
for rel in poset.STRING_RELATIONS:
    show(build_string_poset(2, rel, 3))
print()

# partial permutations over [1..3]
for rel in poset.STRING_RELATIONS:
    show(build_partial_perm_poset(3, rel))
print()

# pattern orders need helper levels: between the permutations of [l] and of
# [l+1] sits the level of injective l-sequences over [l+1]; one step deletes
# a symbol, the other step takes the relative order
for rel in poset.PATTERN_RELATIONS:
    show(build_pattern_poset(3, rel))
print()

# shadows: which elements sit directly below a set
strings = build_string_poset(2, "subsequence", 2)
level2 = [x for x in strings.level(2)]
print("level 2:", [str(x) for x in level2])
shadow = strings.lower_shadow(2, level2[:2])
print("lower shadow of the first two:", sorted(str(x) for x in shadow))
print()

# any graded poset given as plain lists of elements: the divisors of 12 under
# divisibility, level k holding those with k prime factors (with repeats);
# one divides the next level's element exactly when it covers it
divisors = [[1], [2, 3], [4, 6], [12]]
covers = [{(i, j): 1 for j, hi in enumerate(upper) for i, lo in enumerate(lower) if hi % lo == 0}
          for lower, upper in zip(divisors, divisors[1:])]
divides = GradedPoset(divisors, covers, family="divisors(12)")
report = regularity_check(divides)
print(f"{divides.family}: level-regular {report.is_level_regular}")
for pair in report.pairs:
    print(f"    ({pair.lower_rank},{pair.upper_rank}): up degrees {pair.up_degrees}, "
          f"down degrees {pair.down_degrees}, edges {pair.edge_count}")
print(json.dumps(divides.to_json_dict()))
print("resolve_element(2, '6'):", repr(divides.resolve_element(2, "6")))
