import itertools
import random
from collections import Counter

import pytest

from posetkraft import lym, perm, poset
from posetkraft.perm import PartialPermutation, Str
from posetkraft.poset import (
    GradedPoset,
    build_partial_perm_poset,
    build_pattern_poset,
    build_string_poset,
    build_subset_poset,
    format_poset_element,
    regularity_check,
)

ALL_FAMILY_INSTANCES = (
    [build_subset_poset(n) for n in range(9)]
    + [build_string_poset(r, rel, 4) for r in (2, 3) for rel in poset.STRING_RELATIONS]
    + [build_partial_perm_poset(k, rel) for k in range(1, 6) for rel in poset.STRING_RELATIONS]
    + [build_pattern_poset(k, rel) for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
)


# ---------------------------------------------------------------------------
# Oracles

def oracle_insertions(lower, upper, r_symbols, positions=None):
    """Count (position, symbol) insertions turning lower into upper, at the
    given insertion positions (default: every position)."""
    count = 0
    for p in range(len(lower) + 1) if positions is None else positions:
        for s in r_symbols:
            if lower[:p] + (s,) + lower[p:] == upper:
                count += 1
    return count


def direct_relation(rel):
    return {
        "prefix": perm.is_prefix,
        "subsequence": perm.is_subsequence,
        "substring": perm.is_substring,
    }[rel]


# ---------------------------------------------------------------------------
# String posets

def test_string_prefix_poset_shape():
    P = build_string_poset(2, "prefix", 3)
    assert [len(level) for level in P.levels] == [1, 2, 4, 8]
    rep = regularity_check(P)
    assert rep.is_level_regular
    assert all(p.up_degree == 2 and p.down_degree == 1 for p in rep.pairs)


def test_string_subsequence_multiplicity():
    P = build_string_poset(2, "subsequence", 2)
    one = Str((1,), 2)
    oneone = Str((1, 1), 2)
    cov = P.covers[1]
    lo = P.index_of(1, one)
    hi = P.index_of(2, oneone)
    assert cov[(lo, hi)] == 2  # remove either position
    # multiplicity equals the insertion count for every edge
    for (i, j), mult in cov.items():
        lower, upper = P.levels[1][i], P.levels[2][j]
        assert mult == oracle_insertions(lower.symbols, upper.symbols, range(2))


def test_string_substring_multiplicity_and_bottom_pair():
    P = build_string_poset(2, "substring", 2)
    # 0 -> 00 arises by prepending and by appending: multiplicity 2
    lo = P.index_of(1, Str((0,), 2))
    hi = P.index_of(2, Str((0, 0), 2))
    assert P.covers[1][(lo, hi)] == 2
    rep = regularity_check(P)
    assert rep.pair(0).up_degree == 2 and rep.pair(0).down_degree == 1
    assert rep.pair(1).up_degree == 4 and rep.pair(1).down_degree == 2


def test_string_poset_degree_formulas():
    # up (l+1)r / down l+1 for subsequence, 2r / 2 for substring above level 0
    for r in (2, 3):
        sub = regularity_check(build_string_poset(r, "subsequence", 4))
        for pair in sub.pairs:
            l = pair.lower_rank
            assert pair.up_degree == (l + 1) * r
            assert pair.down_degree == l + 1
        ss = regularity_check(build_string_poset(r, "substring", 4))
        assert ss.pair(0).up_degree == r and ss.pair(0).down_degree == 1
        for pair in ss.pairs[1:]:
            assert pair.up_degree == 2 * r and pair.down_degree == 2


def test_single_level_string_poset():
    P = build_string_poset(3, "subsequence", 0)
    assert P.num_levels == 1
    assert P.levels[0] == (Str((), 3),)
    assert regularity_check(P).is_level_regular  # vacuous


# ---------------------------------------------------------------------------
# Partial permutation posets

def test_perm_poset_shapes_and_degrees():
    P = build_partial_perm_poset(3, "subsequence")
    assert [len(level) for level in P.levels] == [3, 6, 6]
    rep = regularity_check(P)
    assert rep.is_level_regular
    assert (rep.pair(1).up_degree, rep.pair(1).down_degree) == (4, 2)
    assert (rep.pair(2).up_degree, rep.pair(2).down_degree) == (3, 3)
    sub = regularity_check(build_partial_perm_poset(3, "substring"))
    assert (sub.pair(1).up_degree, sub.pair(1).down_degree) == (4, 2)
    assert (sub.pair(2).up_degree, sub.pair(2).down_degree) == (2, 2)


def test_perm_prefix_covers():
    P = build_partial_perm_poset(3, "prefix")
    t312 = PartialPermutation((3, 1, 2), 3)
    assert P.lower_shadow(3, [t312]) == {PartialPermutation((3, 1), 3)}


def test_perm_poset_first_rank_and_single_level():
    P = build_partial_perm_poset(1, "prefix")
    assert P.num_levels == 1
    assert list(P.ranks) == [1]
    assert P.level(1) == (PartialPermutation((1,), 1),)
    with pytest.raises(ValueError):
        P.level(0)


def test_perm_poset_degree_formulas():
    for k in (3, 4, 5):
        pre = regularity_check(build_partial_perm_poset(k, "prefix"))
        sub = regularity_check(build_partial_perm_poset(k, "subsequence"))
        ss = regularity_check(build_partial_perm_poset(k, "substring"))
        for l in range(1, k):
            assert (pre.pair(l).up_degree, pre.pair(l).down_degree) == (k - l, 1)
            assert (sub.pair(l).up_degree, sub.pair(l).down_degree) == ((k - l) * (l + 1), l + 1)
            assert (ss.pair(l).up_degree, ss.pair(l).down_degree) == (2 * (k - l), 2)


# ---------------------------------------------------------------------------
# Pattern posets

def test_pattern_poset_level_sizes():
    P = build_pattern_poset(3, "pattern")
    assert [len(level) for level in P.levels] == [1, 2, 2, 6, 6]
    P1 = build_pattern_poset(1, "pattern")
    assert P1.num_levels == 1 and len(P1.levels[0]) == 1


def test_pattern_poset_helper_level_degrees():
    # each permutation of [l] is covered by l+1 helpers, each helper covers
    # exactly its relative-order permutation
    for k in (2, 3, 4):
        for rel in poset.PATTERN_RELATIONS:
            rep = regularity_check(build_pattern_poset(k, rel))
            assert rep.is_level_regular
            for l in range(1, k):
                pair = rep.pair(2 * l - 2)
                assert pair.up_degree == l + 1
                assert pair.down_degree == 1


def test_pattern_poset_reachability_equals_direct_relation():
    for k in (2, 3, 4):
        for rel, direct in (
            ("pattern", perm.is_pattern_in),
            ("substring_pattern", perm.is_substring_pattern_in),
        ):
            P = build_pattern_poset(k, rel)
            for l in range(1, k + 1):
                for m in range(l + 1, k + 1):
                    for s in perm.full_permutations(l):
                        for t in perm.full_permutations(m):
                            assert P.less_than(2 * l - 2, s, 2 * m - 2, t) == direct(s, t)


def test_string_and_perm_reachability_equals_direct_relation():
    for rel in poset.STRING_RELATIONS:
        direct = direct_relation(rel)
        P = build_string_poset(2, rel, 4)
        for la, lb in itertools.combinations(range(5), 2):
            for a in P.level(la):
                for b in P.level(lb):
                    assert P.less_than(la, a, lb, b) == direct(a, b)
        Q = build_partial_perm_poset(4, rel)
        for la, lb in itertools.combinations(range(1, 5), 2):
            for a in Q.level(la):
                for b in Q.level(lb):
                    assert Q.less_than(la, a, lb, b) == direct(a, b)


# ---------------------------------------------------------------------------
# Subset posets

def test_subset_poset_matches_inclusion_diagram():
    P = build_subset_poset(2)
    assert [len(level) for level in P.levels] == [1, 2, 1]
    assert sum(len(c) for c in P.covers) == 4
    assert P.lower_shadow(2, [frozenset({1, 2})]) == {frozenset({1}), frozenset({2})}


def test_subset_poset_sizes_and_degrees():
    P = build_subset_poset(4)
    assert [len(level) for level in P.levels] == [1, 4, 6, 4, 1]
    rep = regularity_check(P)
    for i in range(4):
        assert rep.pair(i).up_degree == 4 - i
        assert rep.pair(i).down_degree == i + 1
    assert build_subset_poset(0).num_levels == 1


def test_per_element_degrees():
    P = build_string_poset(2, "subsequence", 2)
    eps = Str((), 2)
    assert P.up_degree(0, eps) == 2
    assert P.down_degree(0, eps) == 0
    one = Str((1,), 2)
    assert P.up_degree(1, one) == 4  # includes the multiplicity-2 edge to 11
    assert P.down_degree(1, one) == 1
    assert P.up_degree(2, Str((1, 1), 2)) == 0  # top level
    assert P.down_degree(2, Str((1, 1), 2)) == 2


def test_subset_poset_edge_identity():
    rep = regularity_check(build_subset_poset(3))
    pair = rep.pair(1)
    assert pair.up_degree == 2 and pair.down_degree == 2
    assert pair.up_degree * pair.lower_size == pair.down_degree * pair.upper_size == pair.edge_count


# ---------------------------------------------------------------------------
# Exact cover maps, multiplicities included, from each order's definition

def insertion_positions(relation, length):
    """Where one symbol may be inserted: at the end, anywhere, or at either end."""
    return {"prefix": {length}, "subsequence": range(length + 1), "substring": {0, length}}[relation]


def defined_covers(host, multiplicity):
    """Every level pair's cover map, with ``multiplicity(p, lower, upper)``
    evaluated on all pairs of elements of levels p and p+1."""
    return [
        {
            (i, j): m
            for i, x in enumerate(host.levels[p])
            for j, y in enumerate(host.levels[p + 1])
            if (m := multiplicity(p, x, y))
        }
        for p in range(host.num_levels - 1)
    ]


def symbol_insertions(relation, alphabet):
    def multiplicity(p, x, y):
        lower, upper = perm.symbols_of(x), perm.symbols_of(y)
        return oracle_insertions(lower, upper, alphabet, insertion_positions(relation, len(lower)))
    return multiplicity


def pattern_covers(relation):
    """Helper -> permutation: 1 iff the permutation is the helper's pattern.
    Permutation -> helper: the positions whose deletion leaves the helper
    (any position for the pattern order, first or last for substring-pattern)."""
    def multiplicity(p, x, y):
        if p % 2 == 0:
            return int(perm.pattern_of(y) == x)
        n = len(y)
        positions = range(n) if relation == "pattern" else (0, n - 1)
        return sum(y.entries[:q] + y.entries[q + 1 :] == x.entries for q in positions)
    return multiplicity


EXACT_COVER_CASES = (
    [(build_subset_poset(n), lambda p, x, y: int(x < y)) for n in range(6)]
    + [
        (build_string_poset(r, rel, L), symbol_insertions(rel, range(r)))
        for r in (1, 2, 3) for rel in poset.STRING_RELATIONS for L in range(4)
    ]
    + [
        (build_partial_perm_poset(k, rel), symbol_insertions(rel, range(1, k + 1)))
        for k in range(1, 5) for rel in poset.STRING_RELATIONS
    ]
    + [(build_pattern_poset(k, rel), pattern_covers(rel)) for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
)


@pytest.mark.parametrize(
    "host, multiplicity", [pytest.param(*case, id=repr(case[0])) for case in EXACT_COVER_CASES]
)
def test_cover_maps_match_order_definitions(host, multiplicity):
    assert list(host.covers) == defined_covers(host, multiplicity)
    # the derived covers rebuild the same poset, edge order included
    clone = GradedPoset(host.levels, host.covers, host.family, host.first_rank)
    assert clone.to_json_dict() == host.to_json_dict()
    assert clone.to_dot() == host.to_dot()
    assert [list(c.items()) for c in clone.covers] == [list(c.items()) for c in host.covers]


def test_covers_is_a_fresh_view():
    P, fresh = build_subset_poset(2), build_subset_poset(2)
    covers = P.covers
    covers[0][(0, 0)] = 5
    del covers[1][(0, 0)]
    assert P.covers == fresh.covers
    assert P.pair_regularity(0) == fresh.pair_regularity(0)
    assert P.to_json_dict() == fresh.to_json_dict()
    assert P.down_closure(2, {0}, 1) == {0, 1}
    with pytest.raises(AttributeError):
        P.covers = covers


# ---------------------------------------------------------------------------
# Regularity across every family

def test_all_families_level_regular_with_edge_identity():
    for P in ALL_FAMILY_INSTANCES:
        rep = regularity_check(P)
        assert rep.is_level_regular, P.family
        for pair in rep.pairs:
            assert pair.edge_identity_holds


def test_broken_poset_is_not_biregular():
    P = build_subset_poset(2)
    covers = [dict(c) for c in P.covers]
    removed = next(iter(covers[0]))
    del covers[0][removed]
    broken = GradedPoset(P.levels, covers, family="broken")
    rep = regularity_check(broken)
    assert not rep.is_level_regular
    assert not rep.pair(0).is_biregular
    with pytest.raises(ValueError, match="no level pair starting at rank 99"):
        rep.pair(99)


# ---------------------------------------------------------------------------
# Shadows

def test_lower_shadow_examples():
    P = build_string_poset(2, "subsequence", 2)
    zz, zo = Str((0, 0), 2), Str((0, 1), 2)
    assert P.lower_shadow(2, [zz, zo]) == {Str((0,), 2), Str((1,), 2)}
    assert P.lower_shadow(0, [Str((), 2)]) == set()


def test_shadow_round_trip_contains_start():
    for P in (build_subset_poset(3), build_string_poset(2, "substring", 3)):
        for rank in list(P.ranks)[:-1]:
            for x in P.level(rank):
                up = P.upper_shadow(rank, [x])
                assert x in P.lower_shadow(rank + 1, up)


def test_upper_shadow_matches_covers():
    rng = random.Random(6)
    for P in ALL_FAMILY_INSTANCES:
        covers = P.covers + ({},)  # nothing lies above the top level
        for p, level in enumerate(P.levels):
            for _ in range(3):
                chosen = set(rng.sample(range(len(level)), rng.randint(0, len(level))))
                expected = {P.levels[p + 1][hi] for lo, hi in covers[p] if lo in chosen}
                shadow = P.upper_shadow(P.rank_of_position(p), [level[i] for i in chosen])
                assert shadow == expected, (P, p, chosen)


def test_shadow_rejects_foreign_and_mixed_level_input():
    P = build_subset_poset(2)
    with pytest.raises(ValueError):
        P.lower_shadow(1, [frozenset({1, 2})])  # element of level 2, not 1
    with pytest.raises(ValueError):
        P.lower_shadow(1, [frozenset({9})])
    with pytest.raises(ValueError, match="5 is not an element"):
        P.lower_shadow(1, [5])  # not even a subset


# ---------------------------------------------------------------------------
# Connectivity

def test_weak_connectivity_of_family_pairs():
    P = build_string_poset(2, "subsequence", 2)
    assert P.is_weakly_connected_pair(1)
    Q = build_partial_perm_poset(3, "substring")
    assert Q.is_weakly_connected_pair(1)


def test_prefix_pairs_are_forests_but_connected_only_with_root():
    P = build_string_poset(2, "prefix", 2)
    # level pair (0,1) is a star around the empty string
    assert P.is_weakly_connected_pair(0)
    # level pair (1,2) splits into the subtrees below 0 and 1
    assert not P.is_weakly_connected_pair(1)


def test_two_component_poset_is_disconnected():
    levels = [["a", "b"], ["c", "d"]]
    covers = [{(0, 0): 1, (1, 1): 1}]
    P = GradedPoset(levels, covers, family="two-components")
    assert not P.is_weakly_connected_pair(0)
    with pytest.raises(ValueError, match="upper rank must be above"):
        P.is_weakly_connected_pair(1, 0)


def test_non_adjacent_pair_counts_cover_chains():
    # a and b meet only in m, which nothing covers: no chain joins the two
    # halves a-n-x and b-o-y, so ranks 0 and 2 are not connected
    levels = [["a", "b"], ["m", "n", "o"], ["x", "y"]]
    covers = [{(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 2): 1}, {(1, 0): 1, (2, 1): 1}]
    P = GradedPoset(levels, covers, family="dead-end")
    assert P.is_weakly_connected_pair(0) and not P.is_weakly_connected_pair(0, 2)
    reg = P.pair_regularity(0, 2)
    assert (reg.up_degrees, reg.down_degrees, reg.edge_count) == ((1, 2), (1, 2), 3)
    assert P.down_closure(2, {0}, 0) == {0} and P.down_closure(1, [0, 2], 0) == {0, 1}
    # subsets: each singleton lies below three 3-sets, through two chains each
    Q = build_subset_poset(4)
    reg = Q.pair_regularity(1, 3)
    assert (reg.up_degree, reg.down_degree, reg.edge_count) == (6, 6, 24)
    assert Q.is_weakly_connected_pair(1, 3)
    with pytest.raises(ValueError):
        Q.pair_regularity(3, 1)
    with pytest.raises(ValueError):
        Q.down_closure(1, {0}, 1)


# ---------------------------------------------------------------------------
# Exports

def test_dot_export_figure_shape():
    dot = build_subset_poset(2).to_dot()
    assert dot.count("rank=same") == 3
    assert dot.count("->") == 4
    assert '"∅"' in dot and '"{1,2}"' in dot


def test_dot_multiplicity_labels_and_epsilon():
    P = build_string_poset(2, "subsequence", 2)
    dot = P.to_dot()
    assert 'label="ε"' in dot
    assert 'label="2"' in dot  # the 1 -> 11 edge carries multiplicity 2


def test_dot_single_level_and_vertex_cap():
    dot = build_subset_poset(0).to_dot()
    assert "->" not in dot
    with pytest.raises(ValueError):
        build_subset_poset(4).to_dot(max_vertices=10)


def test_json_export_round_trips_edge_triples():
    P = build_partial_perm_poset(2, "prefix")
    data = P.to_json_dict()
    assert data["levels"] == [["1@2", "2@2"], ["12", "21"]]
    assert ["1@2", "12", 1] in data["edges"]
    assert data["first_rank"] == 1
    # element names are unique across the whole poset
    flat = [name for level in data["levels"] for name in level]
    assert len(set(flat)) == len(flat)


def test_json_names_unique_for_pattern_poset():
    data = build_pattern_poset(3, "pattern").to_json_dict()
    flat = [name for level in data["levels"] for name in level]
    assert len(set(flat)) == len(flat)


def test_format_poset_element():
    assert format_poset_element(frozenset()) == "∅"
    assert format_poset_element(frozenset({2, 1})) == "{1,2}"
    assert format_poset_element(PartialPermutation((1,), 2)) == "1@2"
    assert format_poset_element(PartialPermutation((1, 2), 2)) == "12"
    assert format_poset_element(Str((0, 1), 2)) == "01"
    assert format_poset_element("a") == "a"
    assert format_poset_element(5) == "5"


def test_custom_poset_exports_and_resolves_names():
    P = GradedPoset([["a"], ["b", "c"]], [{(0, 0): 1, (0, 1): 1}])
    data = P.to_json_dict()
    assert data["levels"] == [["a"], ["b", "c"]]
    assert data["edges"] == [["a", "b", 1], ["a", "c", 1]]
    assert P.resolve_element(1, "c") == "c"
    assert 'n1_1 [label="c"]' in P.to_dot()


def test_element_names_formatted_once_per_poset(monkeypatch):
    P = build_partial_perm_poset(3, "subsequence")
    calls = []

    def counting_format(x):
        calls.append(x)
        return format_poset_element(x)

    monkeypatch.setattr(poset, "format_poset_element", counting_format)
    for _ in range(2):
        P.to_json_dict()
        P.to_dot()
        assert P.resolve_element(1, "1") == PartialPermutation((1,), 3)
        assert P.resolve_element(3, "231") == PartialPermutation((2, 3, 1), 3)
    assert Counter(calls) == Counter(x for level in P.levels for x in level)


def test_resolve_element_exact_then_bare_and_unique():
    level = [
        PartialPermutation((1, 2), 3),
        PartialPermutation((1, 2), 4),
        PartialPermutation((2, 1), 3),
        Str((1,), 2),
        PartialPermutation((1,), 1),
        PartialPermutation((1,), 3),
    ]
    P = GradedPoset([level], [])
    assert P.resolve_element(0, "12@4") == level[1]
    assert P.resolve_element(0, " 21 ") == level[2]  # bare name, unique
    assert P.resolve_element(0, "1@3") == level[5]
    # "12" has two bare matches; "1" names two elements exactly, which the
    # bare name of 1@3 does not settle
    for text in ("12", "1", "99", "21@4"):
        with pytest.raises(ValueError):
            P.resolve_element(0, text)
    assert P.resolve_element(0, "12@3") == level[0]


# ---------------------------------------------------------------------------
# Constructor validation

def test_poset_constructor_validation():
    with pytest.raises(ValueError):
        GradedPoset([], [])
    with pytest.raises(ValueError):
        GradedPoset([["a", "a"]], [])
    with pytest.raises(ValueError):
        GradedPoset([["a"], ["b"]], [{(0, 5): 1}])
    with pytest.raises(ValueError):
        GradedPoset([["a"], ["b"]], [{(0, 0): 0}])
    for mult in (1.5, True):
        with pytest.raises(ValueError, match="integers"):
            GradedPoset([["a"], ["b"]], [{(0, 0): mult}])
    with pytest.raises(ValueError):
        GradedPoset([["a"], []], [{}])
    with pytest.raises(ValueError, match="one cover map per"):
        GradedPoset([["a"], ["b"]], [])
    for edge in ((0.0, 0), (True, 0)):
        with pytest.raises(ValueError, match="endpoints must be integers"):
            GradedPoset([["a", "c"], ["b"]], [{edge: 1}])


@pytest.mark.parametrize("call", [
    lambda: GradedPoset([["a"], ["b"]], [{(0, 0): 1}], first_rank=0.5),
    lambda: build_subset_poset(2).position(True),
    lambda: build_subset_poset(2).position(1.0),
    lambda: lym.counterexample_params(build_subset_poset(2), True),
    lambda: build_subset_poset(2).to_dot(max_vertices=True),
])
def test_ranks_and_caps_refuse_bool_and_float(call):
    with pytest.raises(ValueError, match="need a plain int"):
        call()
