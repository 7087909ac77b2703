import functools
import hashlib
import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

ALL_FAMILY_BUILDS = (
    [functools.partial(build_subset_poset, n) for n in range(9)]
    + [functools.partial(build_string_poset, r, rel, 4) for r in (2, 3) for rel in poset.STRING_RELATIONS]
    + [functools.partial(build_partial_perm_poset, k, rel) for k in range(1, 6) for rel in poset.STRING_RELATIONS]
    + [functools.partial(build_pattern_poset, k, rel) for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
)
ALL_FAMILY_INSTANCES = [build() for build in ALL_FAMILY_BUILDS]


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


def exact_case(multiplicity, build, *args):
    """A host, the multiplicity its covers must have, and a maker of fresh copies."""
    return build(*args), multiplicity, functools.partial(build, *args)


EXACT_COVER_CASES = (
    [exact_case(lambda p, x, y: int(x < y), build_subset_poset, n) for n in range(6)]
    + [
        exact_case(symbol_insertions(rel, range(r)), build_string_poset, r, rel, L)
        for r in (1, 2, 3) for rel in poset.STRING_RELATIONS for L in range(4)
    ]
    + [
        exact_case(symbol_insertions(rel, range(1, k + 1)), build_partial_perm_poset, k, rel)
        for k in range(1, 5) for rel in poset.STRING_RELATIONS
    ]
    + [exact_case(pattern_covers(rel), build_pattern_poset, k, rel)
       for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
)


def position_pairs(P):
    return [(lo, hi) for hi in range(P.num_levels) for lo in range(hi)]


# Every reader of the covers, over every level pair, adjacent or not.
READ_PATHS = {
    "down_closure": lambda P: [P.down_closure(hi, {i}, lo) for lo, hi in position_pairs(P)
                               for i in range(len(P.levels[hi]))],
    "down_masks": lambda P: [P.down_masks(hi, lo) for lo, hi in position_pairs(P)],
    "upper_shadow": lambda P: [P.upper_shadow(rank, [x]) for rank in P.ranks for x in P.level(rank)],
    "less_than": lambda P: [P.less_than(ra, a, rb, b) for ra in P.ranks for a in P.level(ra)
                            for rb in P.ranks for b in P.level(rb)],
    "pair_regularity": lambda P: [P.pair_regularity(lo, hi) for lo, hi in position_pairs(P)],
    "is_weakly_connected_pair": lambda P: [
        P.is_weakly_connected_pair(P.rank_of_position(lo), P.rank_of_position(hi))
        for lo, hi in position_pairs(P)
    ],
    "to_json_dict": GradedPoset.to_json_dict,
    "to_dot": GradedPoset.to_dot,
}


@pytest.mark.parametrize(
    "host, multiplicity, rebuild", [pytest.param(*case, id=repr(case[0])) for case in EXACT_COVER_CASES]
)
def test_cover_maps_match_order_definitions(host, multiplicity, rebuild):
    assert list(host.covers) == defined_covers(host, multiplicity)
    # the derived covers rebuild the same poset, edge order included
    clone = GradedPoset(host.levels, host.covers, host.family, host.first_rank)
    assert clone.to_json_dict() == host.to_json_dict()
    assert clone.to_dot() == host.to_dot()
    assert [list(c.items()) for c in clone.covers] == [list(c.items()) for c in host.covers]
    # each reader, as the first to make a fresh poset's covers, reads what
    # it reads once every pair is made
    made = rebuild()
    assert made.covers == host.covers
    for name, path in READ_PATHS.items():
        assert path(rebuild()) == path(made), name


@pytest.fixture
def made_levels(monkeypatch):
    """The levels, as (family, rank), that hosts built after this make:
    ``_level`` is the one place a builder level is made."""
    made, read = [], GradedPoset._level

    def counted(self, p):
        if self._levels[p] is None:
            made.append((self.family, self.first_rank + p))
        return read(self, p)
    monkeypatch.setattr(GradedPoset, "_level", counted)
    return made


def symbol_tuples(level):
    return tuple(map(perm.symbols_of, level))


def test_covers_are_made_per_pair_on_first_read(monkeypatch, made_levels):
    made, make = [], poset._cover_rows

    def counted(index, upper, *args):
        upper = tuple(upper)
        made.append((tuple(index), upper))
        return make(index, upper, *args)

    monkeypatch.setattr(poset, "_cover_rows", counted)
    P = build_string_poset(2, "subsequence", 10)
    assert made == []
    found = lym.counterexample_params(P, 2)
    assert found.accepted
    assert not lym.antichain_exists(P, found.counts).exists
    # the pair's rows come from the symbol tuples of its two levels, in the
    # levels' order, and no element was made for them
    assert made_levels == []
    assert made == [(symbol_tuples(P.level(2)), symbol_tuples(P.level(3)))]
    assert made_levels == [(P.family, 2), (P.family, 3)]
    with pytest.raises(poset.BudgetExceededError):
        build_subset_poset(13).to_dot()
    assert len(made) == 1


def test_refutation_makes_no_element(made_levels):
    P = build_partial_perm_poset(5, "subsequence")
    found = lym.counterexample_params(P, 2, 3)
    assert found.accepted and found.counts.counts == (0, 19, 3, 0, 0)
    assert not lym.antichain_exists(P, found.counts).exists
    assert P.sizes == (5, 20, 60, 120, 120)
    assert repr(P) == "GradedPoset(partial_perm(subsequence, k=5); sizes 5,20,60,120,120)"
    assert made_levels == []


def test_lookups_and_witnesses_make_no_level(made_levels):
    P = build_string_poset(2, "subsequence", 6)
    assert P.index_of(3, Str((0, 1, 0), 2)) == 2 and P.index_of(3, Str((1, 1, 1), 2)) == 7
    assert P.resolve_element(5, "01010") == Str((0, 1, 0, 1, 0), 2)
    Q = build_pattern_poset(4, "pattern")
    assert Q.resolve_element(3, "21") == PartialPermutation((2, 1), 3)
    assert Q.index_of(3, Q.resolve_element(3, "32@3")) == 5
    S = build_subset_poset(6)
    assert S.resolve_element(3, "{2,4,6}") == {2, 4, 6} and S.index_of(3, frozenset({4, 5, 6})) == 19
    chain = lym.antichain_from_json_dict(P, {"antichain": [[2, "01"], [3, "111"], [4, "0000"]]})
    assert lym.is_antichain(P, chain) and lym.lym_number(P, chain) == Fraction(7, 16)
    assert lym.local_lym_check(P, 3, [Str((0, 1, 0), 2)]).holds
    # witnesses, shadows and reductions pick their elements from the key stream
    found = lym.antichain_exists(P, {2: 1, 4: 1})
    assert found.antichain.members == {(2, Str((0, 1), 2)), (4, Str((0, 0, 0, 0), 2))}
    found = lym.antichain_exists(Q, [0, 0, 1, 0, 0, 0, 1])
    assert found.antichain.members == {(2, PartialPermutation((2, 1), 2)),
                                       (6, PartialPermutation((1, 2, 3, 4), 4))}
    check = lym.is_antichain(P, [(3, Str((0, 1, 1), 2)), (5, Str((0, 1, 1, 0, 1), 2))])
    assert check.witness == ((3, Str((0, 1, 1), 2)), (5, Str((0, 1, 1, 0, 1), 2)))
    assert P.lower_shadow(3, [Str((1, 0, 1), 2)]) == {Str((1, 0), 2), Str((1, 1), 2), Str((0, 1), 2)}
    assert S.upper_shadow(5, [frozenset({1, 2, 3, 4, 5})]) == {frozenset(range(1, 7))}
    reduced = lym.reduce_top_level(S, [(3, frozenset({1, 2, 3})), (1, frozenset({6}))])
    assert reduced.members == {(1, frozenset({6}))} | {(2, frozenset(pair)) for pair in ((1, 2), (1, 3), (2, 3))}
    assert lym.sample_antichain(Q, random.Random(5)).members
    for host in (P, Q, S):
        host.to_json_dict(), host.to_dot()
    assert made_levels == []
    assert Q.levels == Q.levels and len(made_levels) == 7  # levels makes every level, once


@pytest.mark.parametrize("build, t, lo", [
    (functools.partial(build_string_poset, 3, "substring", 4), 4, 2),
    (functools.partial(build_partial_perm_poset, 4, "subsequence"), 2, 1),
    (functools.partial(build_pattern_poset, 4, "substring_pattern"), 6, 4),
    (functools.partial(build_subset_poset, 6), 4, 2),
])
def test_a_build_and_audit_makes_no_level(made_levels, build, t, lo):
    host = build()
    top = host.elements(t, [0, host.sizes[t] - 1])
    blocked = host.down_closure(t, {0, host.sizes[t] - 1}, lo)
    low = host.elements(lo, [i for i in range(host.sizes[lo]) if i not in blocked][:2])
    rank_t, rank_lo = host.rank_of_position(t), host.rank_of_position(lo)
    chain = lym.Antichain(frozenset([(rank_t, x) for x in top] + [(rank_lo, y) for y in low]))
    chain = lym.antichain_from_json_dict(host, lym.antichain_to_json_dict(chain))
    assert regularity_check(host).is_level_regular
    assert host.to_json_dict()["levels"] and host.to_dot()
    assert lym.is_antichain(host, chain) and lym.lym_number(host, chain) > 0
    assert lym.reduce_top_level(host, chain) and lym.local_lym_check(host, rank_t, top)
    below = host.lower_shadow(rank_t, top[:1])
    assert below and host.upper_shadow(rank_lo, low)
    witness = lym.is_antichain(host, [(rank_t, top[0]), (rank_t - 1, min(below, key=format_poset_element))])
    assert witness.witness[1] == (rank_t, top[0])
    assert host.less_than(rank_t - 1, witness.witness[0][1], rank_t, top[0])
    assert made_levels == []


class ListedLevel(perm.Level):
    """A builder-style level of size 2 whose streams a test gives: keys
    that are their own elements, and names; its lookups know "b" and "c"."""

    element, find, parse, key_at = str, {"b": 0, "c": 1}.get, str, ("b", "c").__getitem__

    def __init__(self, keys, names):
        self.size, self.keys, self.names = 2, keys, names


@pytest.mark.parametrize("elements, message", [
    (["b"], "level 1 has 1 elements, not its size 2"),
    (["b", "c", "d"], "level 1 has 3 elements, not its size 2"),
    (["b", "b"], "level 1 has duplicate elements"),
    ([], "level 1 is empty"),
])
def test_level_calls_are_checked_on_first_read(made_levels, elements, message):
    calls = []

    def keys():
        calls.append(elements)
        return iter(elements)

    P = GradedPoset([["a"], ListedLevel(keys, lambda: map(str, keys()))], [{(0, 0): 1, (0, 1): 1}])
    assert calls == [] and P.index_of(1, "c") == 1 and P.resolve_element(1, "b") == "b"
    assert P.elements(1, [1]) == ["c"] and calls == [] and made_levels == []  # unranked: no level made
    for read in (lambda: P.level(1), P.to_json_dict, lambda: P.levels):
        with pytest.raises(ValueError, match=message):  # a level whose call fails stays unmade
            read()
    assert len(calls) == 3
    assert P.sizes == (1, 2) and repr(P) == "GradedPoset(custom; sizes 1,2)"
    assert P.level(0) == ("a",) and P.down_closure(1, {1}, 0) == {0}
    assert lym.counterexample_params(P, 0).reason == "down-degree not > 1"


@pytest.mark.parametrize("names, message", [
    (["b"], "level 1 has 1 elements, not its size 2"),
    (["b", "c", "d"], "level 1 has 3 elements, not its size 2"),
    (["c", "c"], "level 1 has duplicate elements"),
    ([], "level 1 is empty"),
])
def test_name_streams_are_checked_on_first_export(names, message):
    level = ListedLevel(functools.partial(iter, ("b", "c")), functools.partial(iter, names))
    P = GradedPoset([["a"], level], [{(0, 0): 1, (0, 1): 1}])
    for export in (P.to_json_dict, P.to_dot, P.to_json_dict):  # names that fail stay unstored
        with pytest.raises(ValueError, match=message):
            export()
    assert P.level(1) == ("b", "c")  # the elements pass the check the names failed


# made_levels is shared by the examples, so each compares it before and after
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_picked_elements_match_the_levels_and_make_none(made_levels, data):
    build = data.draw(st.sampled_from(ALL_FAMILY_BUILDS))
    host, made = build(), build()
    pos = data.draw(st.integers(0, host.num_levels - 1))
    size = host.sizes[pos]
    index = st.integers(0, size - 1)
    indices = data.draw(st.lists(index, max_size=6) | st.lists(st.sampled_from([0, size - 1]), max_size=3))
    made_before = list(made_levels)
    picked = host.elements(pos, indices)
    assert made_levels == made_before  # unranked by the level: no level made
    level = made.levels[pos]
    assert picked == [level[i] for i in indices] == made.elements(pos, indices)


@pytest.mark.parametrize("indices", [[-1], [0, -2], [3], [0, 7], [1.0], [True]])
def test_picked_indices_outside_the_level_are_refused(made_levels, indices):
    unmade, made = build_string_poset(2, "prefix", 2), build_string_poset(2, "prefix", 2)
    made.levels
    for host in (unmade, made):
        with pytest.raises(ValueError):
            host.elements(1, indices)
    for pos in (-1, 3, 1.0):
        with pytest.raises(ValueError):
            unmade.elements(pos, [0])
    # only made's levels are made
    assert made_levels == [(made.family, rank) for rank in made.ranks]
    assert made.elements(1, [1, 0]) == [Str((1,), 2), Str((0,), 2)]


LONG_KEYS = functools.partial(iter, ("b", "c", "d"))  # three keys for a ListedLevel's two elements
TWO_NAMES = functools.partial(iter, ("b", "c"))


@pytest.mark.parametrize("levels, step, message", [
    ([["a"], ListedLevel(LONG_KEYS, TWO_NAMES)], lambda k: ["a"],
     "need one dict row per element of level 1, got 3 rows between levels 0 and 1"),
    ([ListedLevel(LONG_KEYS, TWO_NAMES), ["x"]], lambda k: ["d"], "level 0 has 3 elements, not its size 2"),
    ([ListedLevel(functools.partial(iter, ("b", "b")), TWO_NAMES), ["x"]], lambda k: ["b"],
     "level 0 has duplicate elements"),
    ([ListedLevel(functools.partial(iter, ("b",)), TWO_NAMES), ["x"]], lambda k: ["b"],
     "level 0 has 1 elements, not its size 2"),
    ([["a"], ["b", "c"]], lambda k: ["z"], "the cover step between levels 0 and 1 maps 'b' to 'z', which is no key"),
    ([["a"], ["b", "c"]], lambda k: [["a"]], r"maps 'b' to \['a'\], which is no key of level 0"),
], ids=["upper keys", "lower keys", "repeated lower key", "missing lower key", "no key", "unhashable"])
def test_cover_rows_are_checked_on_first_read(levels, step, message):
    P = GradedPoset(levels, [step])
    reads = [lambda: P.down_closure(1, {0}, 0), lambda: P.covers, lambda: regularity_check(P), P.to_json_dict,
             P.to_dot]
    for read in reads * 2:  # a pair whose rows fail stays unread
        with pytest.raises(ValueError, match=message):
            read()


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
            assert pair.up_degree * pair.lower_size == pair.edge_count == pair.down_degree * pair.upper_size


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
    assert poset.lower_shadow(P, 2, [zz, zo]) == P.lower_shadow(2, [zz, zo])


def test_module_shadows_are_the_methods():
    assert poset.lower_shadow is GradedPoset.lower_shadow
    assert poset.upper_shadow is GradedPoset.upper_shadow


def test_shadow_round_trip_contains_start():
    for P in (build_subset_poset(3), build_string_poset(2, "substring", 3)):
        for rank in list(P.ranks)[:-1]:
            for x in P.level(rank):
                up = P.upper_shadow(rank, [x])
                assert poset.upper_shadow(P, rank, [x]) == up
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


@pytest.mark.parametrize("host", [
    build_subset_poset(4),
    build_string_poset(2, "subsequence", 3),
    build_string_poset(3, "prefix", 2),
    build_partial_perm_poset(3, "substring"),
    build_pattern_poset(3, "pattern"),  # helper levels between the original ranks
    build_pattern_poset(4, "substring_pattern"),
    # multiplicity 2 on a-n; m is covered by nothing and p covers nothing, so
    # chains from rank 3 stop short of rank 0
    GradedPoset([["a", "b"], ["m", "n", "o"], ["x", "y"], ["p", "q"]],
                [{(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 2): 1}, {(1, 0): 1, (2, 1): 1},
                 {(0, 1): 1, (1, 1): 1}]),
], ids=repr)
def test_down_masks_are_the_down_closures_as_bits(host):
    for to_pos, pos in itertools.combinations(range(host.num_levels), 2):
        masks = host.down_masks(pos, to_pos)
        assert len(masks) == len(host.levels[pos])
        for i, mask in enumerate(masks):
            closure = host.down_closure(pos, {i}, to_pos)
            assert mask == sum(1 << j for j in closure)
    for pos, to_pos in ((0, 0), (1, 1), (0, 1), (host.num_levels, 0), (1, -1)):
        with pytest.raises(ValueError, match="cannot close downward"):
            host.down_masks(pos, to_pos)


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


def test_dot_single_level_and_vertex_cap(monkeypatch):
    dot = build_subset_poset(0).to_dot()
    assert "->" not in dot
    monkeypatch.setattr(poset, "MAX_VERTICES", 10)
    with pytest.raises(poset.BudgetExceededError, match="16 vertices, above the cap of 10"):
        build_subset_poset(4).to_dot()
    assert lym.BudgetExceededError is poset.BudgetExceededError


def test_dot_escapes_backslashes_and_quotes_in_labels():
    P = GradedPoset([["plain"], ['a"b', "c\\d"]], [{(0, 0): 1, (0, 1): 1}])
    dot = P.to_dot()
    assert 'n0_0 [label="plain"]' in dot
    assert 'n1_0 [label="a\\"b"]' in dot
    assert 'n1_1 [label="c\\\\d"]' in dot


def test_json_export_round_trips_edge_triples():
    P = build_partial_perm_poset(2, "prefix")
    data = P.to_json_dict()
    assert data["levels"] == [["1@2", "2@2"], ["12", "21"]]
    assert ["1@2", "12", 1] in data["edges"]
    assert data["first_rank"] == 1
    # element names are unique across the whole poset
    flat = [name for level in data["levels"] for name in level]
    assert len(set(flat)) == len(flat)


def _reference_edges(P):
    """Every edge as (lower position, lower index, upper index, multiplicity),
    sorted: the order both exports list edges in."""
    return sorted((p, lo, hi, mult) for p, cov in enumerate(P.covers) for (lo, hi), mult in cov.items())


def check_exports_against_reference(P):
    data = P.to_json_dict()
    names = data["levels"]
    edges = _reference_edges(P)
    assert data["edges"] == [[names[p][lo], names[p + 1][hi], mult] for p, lo, hi, mult in edges]
    dot = P.to_dot()
    head = dot.split("\n")[: 2 + P.num_levels]  # the header and one rank line per level
    assert dot == "\n".join(head + [
        f"  n{p}_{lo} -> n{p + 1}_{hi}" + (f' [label="{mult}"]' if mult > 1 else "") + ";"
        for p, lo, hi, mult in edges
    ] + ["}"])


SHUFFLED_CUSTOM_POSET = GradedPoset(  # covers listed out of order, multiplicities, isolated "x"
    [["a", 'q"', "x"], ["b\\", "c"], [1, 2, 3]],
    [{(1, 1): 2, (0, 1): 1, (1, 0): 3}, {(1, 2): 1, (0, 0): 4, (1, 0): 1, (0, 1): 2}],
)


def test_exports_match_the_sorted_reference():
    hosts = (
        [build_subset_poset(n) for n in range(7)]
        + [build_string_poset(r, rel, L) for r in (1, 2, 3) for L in range(5)
           for rel in poset.STRING_RELATIONS]
        + [build_partial_perm_poset(k, rel) for k in range(1, 5) for rel in poset.STRING_RELATIONS]
        + [build_pattern_poset(k, rel) for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
        + [SHUFFLED_CUSTOM_POSET]
    )
    for P in hosts:
        check_exports_against_reference(P)


# sha256 of to_dot() (None past its vertex cap) and of json.dumps(to_json_dict())
# on the hosts that bench/workloads.py's build round exports
BUILD_HOST_DIGESTS = [
    (functools.partial(build_partial_perm_poset, 6, "subsequence"),
     "21d2ce598362c63b489af80c968a7ace104a21a137478929afac6068cf0c6efc",
     "f275bc032ab709d14af44eef38710cfcdf13eb8c7edb9e553a3ac5bfd42f96ae"),
    (functools.partial(build_pattern_poset, 6, "pattern"),
     "dab16af0acc0ab4b82243650471ef88a8f1bfdd896777218170dadbeffdf2f8e",
     "d4b36cf914279b4aebf94b4edf9d85c8b343f290e3b092b04ffe08a80c3375b8"),
    (functools.partial(build_string_poset, 3, "substring", 7),
     "d93dee09ebc6558dff37e4bdfc7f521a92f5b2b5ec78c020f8ccc7b11c0bcad7",
     "ccb1074efd41d9344a52af85f97ff80edd913945ea0a32b326f802cf50545b2e"),
    (functools.partial(build_subset_poset, 12),
     "571cb367b1566a0f825bab270213503b14f0e789572c34b77cc012ed23486e58",
     "0df82c94e37be64a9659d5606e2a47d1168f773ecde365ba2520705ea02cdb46"),
    (functools.partial(build_string_poset, 2, "subsequence", 11),
     "dc1a2cd3677bc9b18804a37f31803256cfe5b12c8c1bae274f62a66a35bffbf9",
     "993cafe23cc5175ce429229ae47cc1d8212c038573eac65e156e30d7bd8645c9"),
    (functools.partial(build_pattern_poset, 7, "substring_pattern"),
     None,
     "e4cf81e86ed964ef475fcc7fe3ecebb9dd8f60396acf1150ef3b2889708ea697"),
]


@pytest.mark.parametrize("build, dot_digest, json_digest", BUILD_HOST_DIGESTS,
                         ids=["pperm6", "pattern6", "str3-7", "subsets12", "str2-11", "subpattern7"])
def test_exports_keep_their_bytes_on_the_build_hosts(build, dot_digest, json_digest):
    P = build()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    if dot_digest is None:
        with pytest.raises(poset.BudgetExceededError):
            P.to_dot()
    else:
        assert digest(P.to_dot()) == dot_digest
    assert digest(json.dumps(P.to_json_dict())) == json_digest


@st.composite
def shuffled_custom_parts(draw):
    """The levels, cover dicts and first rank of a poset whose cover dicts
    list their edges in a drawn order, with multiplicities up to 3 and
    possibly elements without edges."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    covers = []
    for n_lo, n_hi in zip(sizes, sizes[1:]):
        pairs = sorted(draw(st.sets(st.tuples(st.integers(0, n_lo - 1), st.integers(0, n_hi - 1)))))
        covers.append({pair: draw(st.integers(1, 3)) for pair in draw(st.permutations(pairs))})
    levels = [[f"{p}.{i}" for i in range(n)] for p, n in enumerate(sizes)]
    return levels, covers, draw(st.integers(-2, 2))


def cover_step(lower, upper, cover):
    """The cover step of a pair given as a cover dict: each upper element's
    lower covers in the dict's order, repeated by multiplicity."""
    below = {x: [] for x in upper}
    for (lo, hi), mult in cover.items():
        below[upper[hi]] += [lower[lo]] * mult
    return below.__getitem__


@st.composite
def shuffled_custom_posets(draw):
    """Posets from ``shuffled_custom_parts``, each pair given as its cover
    dict or as the cover step that yields the same rows."""
    levels, covers, first_rank = draw(shuffled_custom_parts())
    pairs = [cover_step(lower, upper, cover) if draw(st.booleans()) else cover
             for lower, upper, cover in zip(levels, levels[1:], covers)]
    return GradedPoset(levels, pairs, first_rank=first_rank)


@settings(max_examples=150, deadline=None)
@given(shuffled_custom_parts())
def test_step_pairs_match_their_cover_dicts(parts):
    levels, covers, first_rank = parts
    steps = [cover_step(lower, upper, cover) for lower, upper, cover in zip(levels, levels[1:], covers)]
    listed, stepped = (GradedPoset(levels, pairs, first_rank=first_rank) for pairs in (covers, steps))
    assert {name: read(stepped) for name, read in HOST_READS.items()} == {
        name: read(listed) for name, read in HOST_READS.items()}


@settings(max_examples=150, deadline=None)
@given(shuffled_custom_posets())
def test_exports_match_the_sorted_reference_on_shuffled_custom_posets(P):
    check_exports_against_reference(P)


@settings(max_examples=150, deadline=None)
@given(shuffled_custom_posets())
def test_biregular_pairs_satisfy_the_edge_identity(P):
    # is_level_regular reads only biregularity: the counting identity
    # u * #lower = edges = d * #upper follows, adjacent pairs or not
    for pos, upper_pos in itertools.combinations(range(P.num_levels), 2):
        pair = P.pair_regularity(pos, upper_pos)
        if pair.is_biregular:
            assert pair.up_degree * pair.lower_size == pair.edge_count == pair.down_degree * pair.upper_size


def chain_count_reference(P, pos, upper_pos):
    """The degree audit by brute force: every cover chain from level pos up
    to level upper_pos, enumerated one edge at a time, counts with the
    product of its edges' multiplicities."""
    up_edges = [[[] for _ in range(n)] for n in P.sizes]
    for p, cov in enumerate(P.covers):
        for (lo, hi), mult in cov.items():
            up_edges[p][lo].append((hi, mult))

    def chain_ends(q, i, weight):
        if q == upper_pos:
            yield i, weight
            return
        for hi, mult in up_edges[q][i]:
            yield from chain_ends(q + 1, hi, weight * mult)

    up, down = [0] * P.sizes[pos], [0] * P.sizes[upper_pos]
    for a in range(P.sizes[pos]):
        for b, weight in chain_ends(pos, a, 1):
            up[a] += weight
            down[b] += weight
    return poset.LevelPairRegularity(
        lower_rank=P.rank_of_position(pos), upper_rank=P.rank_of_position(upper_pos),
        lower_size=P.sizes[pos], upper_size=P.sizes[upper_pos],
        up_degrees=tuple(sorted(set(up))), down_degrees=tuple(sorted(set(down))), edge_count=sum(up),
    )


def check_audit_against_chain_counts(P):
    for pos, upper_pos in itertools.combinations(range(P.num_levels), 2):
        assert P.pair_regularity(pos, upper_pos) == chain_count_reference(P, pos, upper_pos), (P, pos, upper_pos)


@settings(max_examples=200, deadline=None)
@given(shuffled_custom_posets())
def test_pair_audits_match_the_chain_counts(P):
    check_audit_against_chain_counts(P)


# ---------------------------------------------------------------------------
# Lazy hosts against eager ones

def element_keyed_rows(lower, upper, deletions, key=perm.symbols_of):
    """The rows of a pair as they were made from element objects: the
    reference for ``_cover_rows`` on symbol tuples."""
    index = {k: i for i, k in enumerate(map(key, lower))}
    rows = []
    for k in map(key, upper):
        row = {}
        for word in deletions(k):
            row[index[word]] = row.get(index[word], 0) + 1
        rows.append(row)
    return rows


def reference_covers(P, relation):
    """Every pair's cover map made by ``element_keyed_rows`` from P's levels."""
    if P.family.startswith("subsets"):
        steps = [(perm.ORDERS["subsequence"].deletions, lambda x: tuple(sorted(x)))] * (P.num_levels - 1)
    elif P.family.startswith("perm_pattern"):
        to_pattern = (lambda key: (perm.order_pattern(key),), perm.symbols_of)
        steps = [to_pattern, (perm.ORDERS[perm.ORDERS[relation].base].deletions, perm.symbols_of)]
        steps = steps * (P.num_levels // 2)
    else:
        steps = [(perm.ORDERS[relation].deletions, perm.symbols_of)] * (P.num_levels - 1)
    levels = P.levels
    return tuple(
        {(lo, hi): m for hi, row in enumerate(element_keyed_rows(levels[p], levels[p + 1], *step))
         for lo, m in row.items()}
        for p, step in enumerate(steps)
    )


LAZY_CASES = (
    [(functools.partial(build_subset_poset, n), None) for n in range(7)]
    + [(functools.partial(build_string_poset, r, rel, L), rel)
       for r in (1, 2, 3) for rel in poset.STRING_RELATIONS for L in range(5 if r < 3 else 4)]
    + [(functools.partial(build_partial_perm_poset, k, rel), rel)
       for k in range(1, 5) for rel in poset.STRING_RELATIONS]
    + [(functools.partial(build_pattern_poset, k, rel), rel)
       for k in range(1, 5) for rel in poset.PATTERN_RELATIONS]
)


HOST_READS = {
    "repr": repr,
    "covers": lambda P: [list(c.items()) for c in P.covers],
    "levels": lambda P: P.levels,
    "json": GradedPoset.to_json_dict,
    "dot": GradedPoset.to_dot,
    "regularity": regularity_check,
}


@pytest.mark.parametrize("build, relation", [pytest.param(*case, id=repr(case[0]())) for case in LAZY_CASES])
def test_lazy_hosts_match_eager_rebuilds(build, relation):
    host = build()
    eager = GradedPoset(host.levels, host.covers, host.family, host.first_rank)
    want = {name: read(eager) for name, read in HOST_READS.items()}
    # each read first on a fresh lazy host, then every read in turn on one
    assert {name: read(build()) for name, read in HOST_READS.items()} == want
    lazy = build()
    assert {name: read(lazy) for name, read in HOST_READS.items()} == want
    # the rows made from symbol tuples are the rows made from the elements
    assert [list(c.items()) for c in reference_covers(host, relation)] == want["covers"]
    # every pair's audit, adjacent or not, counts the cover chains
    check_audit_against_chain_counts(build())


def outcome(call, *args):
    """What a lookup returns, or the type of error it raises."""
    try:
        return call(*args)
    except (ValueError, TypeError) as error:
        return type(error)


# Names that spell no element, or a non-canonical spelling of one
NEAR_MISS_NAMES = ["", "ε", "eps", "∅", "{}", "{1, 2}", "{2,1}", "{0}", "{1,1}", "{1,2", "(1,2)", "(0)",
                   "(10,0)", "(1,0)", "0@1", "01@2", "01@3", "1@2", "12@3", "12@4", "21@2", "213@5", "1@",
                   "@3", "x", "9", "00", "11", "123", "1,2", "(01)", "1 2", "{1,2,3}", "{1,2}@3"]


@pytest.mark.parametrize("build", [pytest.param(case[0], id=repr(case[0]())) for case in LAZY_CASES])
def test_lazy_lookups_match_eager_rebuilds(made_levels, build):
    host = build()
    eager = GradedPoset(host.levels, host.covers, host.family, host.first_rank)
    lazy = build()  # never made: its lookups go by rank arithmetic and parsing
    names = {name for level in host.to_json_dict()["levels"] for name in level}
    texts = sorted(names | {name.split("@")[0] for name in names} | set(NEAR_MISS_NAMES))
    foreign = [x for other in (build_string_poset(2, "prefix", 2), build_string_poset(3, "prefix", 1),
                               build_partial_perm_poset(3, "prefix"), build_partial_perm_poset(2, "prefix"),
                               build_subset_poset(3))
               for x in itertools.chain.from_iterable(other.levels)]
    foreign += [frozenset({True, 2}), frozenset({1.0}), frozenset({2.5}), "01", (0, 1), 5, None,
                [0, 1], {1, 2}, {"01": 1}]
    made_before = list(made_levels)
    for rank in host.ranks:
        for x in itertools.chain(host.level(rank), foreign):
            assert outcome(lazy.index_of, rank, x) == outcome(eager.index_of, rank, x), (rank, x)
        for text in texts:
            got = outcome(lazy.resolve_element, rank, f" {text} ")
            assert got == outcome(eager.resolve_element, rank, text), (rank, text)
            assert type(got) is type(outcome(eager.resolve_element, rank, text))
    assert made_levels == made_before  # the lazy host's lookups made no level


# ---------------------------------------------------------------------------
# Subsequence rows from the pair below

@pytest.fixture
def step_pairs(monkeypatch):
    """The positions of the pairs that ``_cover_rows`` makes after this;
    every other step pair is made from the pair below it."""
    made, make = [], poset._cover_rows

    def counted(index, upper, step, p):
        made.append(p)
        return make(index, upper, step, p)
    monkeypatch.setattr(poset, "_cover_rows", counted)
    return made


def cover_rows_of(P, p):
    """The rows of the pair (p, p+1) as ``_cover_rows`` makes them from the
    two levels' key streams, each row as its list of items, so order counts."""
    lower, upper = P._sources[p], P._sources[p + 1]
    index = {k: i for i, k in enumerate(lower.keys())}
    rows = poset._cover_rows(index, upper.keys(), perm.ORDERS["subsequence"].deletions, p)
    return [list(row.items()) for row in rows]


FROM_BELOW_HOSTS = ([functools.partial(build_string_poset, r, "subsequence", L) for r in (1, 2, 3) for L in range(7)]
                    + [functools.partial(build_subset_poset, n) for n in range(11)])


@pytest.mark.parametrize("build", FROM_BELOW_HOSTS, ids=lambda build: repr(build()))
def test_rows_from_below_match_the_cover_rows(step_pairs, build):
    pairs = list(range(build().num_levels - 1))
    want = {p: cover_rows_of(build(), p) for p in pairs}
    step_pairs.clear()
    shuffled = random.Random(len(pairs)).sample(pairs, len(pairs))
    for order in (pairs, pairs[::-1], shuffled):
        P = build()
        assert {p: [list(row.items()) for row in P._down_rows(p)] for p in order} == want
    # bottom-up, only the lowest pair is made from the key streams; top-down, every pair is
    assert step_pairs[: len(pairs) + 1] == pairs[:1] + pairs[::-1]


@pytest.mark.parametrize("build", FROM_BELOW_HOSTS, ids=lambda build: repr(build()))
def test_level_heads_split_the_key_stream(build):
    levels = build()._sources
    for below, level in zip(levels, levels[1:]):
        keys, tails = list(level.keys()), list(below.keys())
        heads = level.heads(below)
        assert [c for c, *_ in heads] == sorted({k[0] for k in keys})
        assert [(c, *tails[j]) for c, start, stop, _ in heads for j in range(start, stop)] == keys
        for c, start, stop, shift in heads:
            assert all(keys[j + shift] == (c, *tails[j]) for j in range(start, stop))
    for q, level in enumerate(levels):  # a level splits over the level right beneath it only
        assert all(level.heads(other) is None for other in levels[: max(q - 1, 0)] + levels[q:])
    assert perm.SequenceLevel(3, 2, 6).heads(perm.SequenceLevel(3, 1, 3)) is None
    assert perm.StringLevel(2, 2, 4).heads(perm.StringLevel(3, 1, 3)) is None


@pytest.mark.parametrize("build, p", [
    (functools.partial(build_subset_poset, 14), 7), (functools.partial(build_subset_poset, 14), 13),
    (functools.partial(build_string_poset, 2, "subsequence", 12), 8),
    (functools.partial(build_string_poset, 2, "subsequence", 12), 11),
], ids=["subsets 14, pair 7", "subsets 14, top pair", "strings L=12, pair 8", "strings L=12, top pair"])
def test_a_lone_pair_read_makes_that_pair_only(step_pairs, build, p):
    P = build()
    assert P.down_closure(p + 1, {0}, p) == set(P._down_rows(p)[0])
    assert step_pairs == [p]
    assert [not callable(rows) for rows in P._down] == [q == p for q in range(P.num_levels - 1)]
    # an audit afterwards makes the lowest pair from the key streams and the rest from below
    audit = regularity_check(P)
    assert step_pairs == [p, 0]
    fresh = build()
    assert regularity_check(fresh) == audit
    assert [list(cover.items()) for cover in P.covers] == [list(cover.items()) for cover in fresh.covers]


def test_rows_come_from_below_only_over_a_subsequence_pair(step_pairs):
    levels = [perm.StringLevel(2, l, 2**l) for l in range(3)]
    want = list(build_string_poset(2, "subsequence", 2).covers[1].items())
    step_pairs.clear()
    for below in (lambda k: [(), ()], {(0, 0): 2, (0, 1): 2}):  # two covers of the empty string each
        P = GradedPoset(levels, [below, perm.ORDERS["subsequence"].deletions])
        assert list(P.covers[1].items()) == want
    assert step_pairs == [0, 1, 1]  # the step below, then the pair above it twice


def test_step_pairs_on_table_levels_reuse_the_level_check(monkeypatch):
    checked, check = [], GradedPoset._checked_level

    def counted(self, p, level):
        checked.append(p)
        return check(self, p, level)
    monkeypatch.setattr(GradedPoset, "_checked_level", counted)
    levels = [["a"], ["b", "c"], ["d", "e", "f"]]
    steps = [lambda k: ["a"], {"d": ["b"], "e": ["b", "c", "b"], "f": ["c"]}.__getitem__]
    P = GradedPoset(levels, steps)
    assert checked == [0, 1, 2]  # each table level once, as the poset is made
    assert [list(cover.items()) for cover in P.covers] == [
        [((0, 0), 1), ((0, 1), 1)], [((0, 0), 1), ((0, 1), 2), ((1, 1), 1), ((1, 2), 1)]]
    regularity_check(P), P.to_json_dict(), P.to_dot()
    assert checked == [0, 1, 2]


def union_find_connected(P, rank, upper_rank):
    """The connectivity check as it was: one union-find over the pair's
    down-closures, kept as the reference for the mask merge."""
    p_lo, p_hi = P.position(rank), P.position(upper_rank)
    n_lo, n_hi = P.sizes[p_lo], P.sizes[p_hi]
    parent = list(range(n_lo + n_hi))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for hi in range(n_hi):
        for lo in P.down_closure(p_hi, (hi,), p_lo):
            a, b = find(lo), find(n_lo + hi)
            if a != b:
                parent[a] = b
    return len({find(v) for v in range(n_lo + n_hi)}) == 1


def check_connectivity_against_union_find(P):
    for lo, hi in itertools.combinations(P.ranks, 2):
        assert P.is_weakly_connected_pair(lo, hi) == union_find_connected(P, lo, hi), (P, lo, hi)


@settings(max_examples=300, deadline=None)
@given(shuffled_custom_posets())
def test_connectivity_matches_the_union_find(P):
    check_connectivity_against_union_find(P)


@st.composite
def sparse_pairs(draw):
    """One level pair of up to 40 elements a side whose upper elements each
    cover up to three lower ones: many components, merged in a drawn order."""
    n_lo, n_hi = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = draw(st.lists(st.sets(st.integers(0, n_lo - 1), max_size=3), min_size=n_hi, max_size=n_hi))
    return GradedPoset([range(n_lo), range(100, 100 + n_hi)],
                       [{(lo, hi): 1 for hi, row in enumerate(rows) for lo in row}])


@settings(max_examples=300, deadline=None)
@given(sparse_pairs())
def test_connectivity_matches_the_union_find_on_sparse_pairs(P):
    check_connectivity_against_union_find(P)


def disjoint_blocks(blocks: int, joined: bool = False) -> GradedPoset:
    """Copies of K_{2,2}, the last upper element of each block also covering
    the first lower one of the next when ``joined``."""
    covers = {(2 * b + lo, 2 * b + hi): 1 for b in range(blocks) for lo in (0, 1) for hi in (0, 1)}
    if joined:
        covers.update({(2 * b + 2, 2 * b + 1): 1 for b in range(blocks - 1)})
    return GradedPoset([range(2 * blocks), range(2 * blocks, 4 * blocks)], [covers])


def test_connectivity_matches_the_union_find_on_fixed_hosts():
    two_components = GradedPoset([["a", "b"], ["c", "d"]], [{(0, 0): 1, (1, 1): 1}])
    dead_end = GradedPoset([["a", "b"], ["m", "n", "o"], ["x", "y"]],
                           [{(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 2): 1}, {(1, 0): 1, (2, 1): 1}])
    blocks = [disjoint_blocks(n, joined) for n in (1, 2, 50) for joined in (False, True)]
    for P in [two_components, dead_end, *blocks, *ALL_FAMILY_INSTANCES]:
        check_connectivity_against_union_find(P)
    assert [P.is_weakly_connected_pair(0) for P in blocks] == [True, True, False, True, False, True]


def test_connectivity_refuses_pairs_past_the_mask_cap(monkeypatch):
    Q = build_subset_poset(4)  # levels 1 and 2 hold 4 and 6 elements: 24 mask bits
    monkeypatch.setattr(poset, "MAX_MASK_BITS", 24)
    assert Q.is_weakly_connected_pair(1) and lym.counterexample_params(Q, 1).accepted
    monkeypatch.setattr(poset, "MAX_MASK_BITS", 23)
    message = ("the masks between levels 1 and 2 take 24 bits, above the cap of 23; "
               "search a smaller instance")
    for call in (lambda: Q.is_weakly_connected_pair(1), lambda: lym.counterexample_params(Q, 1),
                 lambda: lym.antichain_exists(Q, [0, 3, 1, 0, 0])):
        with pytest.raises(poset.BudgetExceededError, match=re.escape(message)):
            call()
    # the checks before connectivity still reject first
    assert lym.counterexample_params(Q, 0).reason == "down-degree not > 1"


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


@pytest.mark.parametrize("value", [["b"], {"b"}, {"b": 0}])
def test_custom_level_refuses_an_unhashable_value(value):
    P = GradedPoset([["a"], ["b", "c"]], [{(0, 0): 1, (0, 1): 1}])
    with pytest.raises(ValueError, match=re.escape(f"{value} is not an element of level 1 of this poset")):
        P.index_of(1, value)
    for call in (lambda: lym.is_antichain(P, [(1, value)]), lambda: P.lower_shadow(1, [value]),
                 lambda: P.upper_shadow(0, [value]), lambda: P.less_than(0, "a", 1, value),
                 lambda: lym.local_lym_check(P, 1, [value])):
        with pytest.raises(ValueError, match="is not an element of level"):
            call()


@pytest.fixture
def formatted(monkeypatch):
    """The elements formatted after this: by ``format_poset_element`` for
    ``poset``, or by ``format_element`` for ``perm``'s name streams."""
    calls = []
    for module, name in ((poset, "format_poset_element"), (perm, "format_element")):
        def counting_format(x, format=getattr(module, name)):
            calls.append(x)
            return format(x)
        monkeypatch.setattr(module, name, counting_format)
    return calls


def test_builder_exports_format_no_element(formatted):
    P = build_partial_perm_poset(3, "subsequence")
    for _ in range(2):
        P.to_json_dict()
        P.to_dot()
        assert P.resolve_element(1, "1") == PartialPermutation((1,), 3)
        assert P.resolve_element(3, "231") == PartialPermutation((2, 3, 1), 3)
    # the exports read name streams; a builder level's lookup parses its name
    # and formats only the element it parsed
    assert formatted == [PartialPermutation((1,), 3), PartialPermutation((2, 3, 1), 3)] * 2
    formatted.clear()
    for build in (functools.partial(build_string_poset, 10, "prefix", 3), *ALL_FAMILY_BUILDS):
        host = build()
        host.to_json_dict(), host.to_dot()
    assert formatted == []


def test_custom_poset_exports_format_each_element_once(formatted):
    level = [PartialPermutation((1, 2), 3), Str((1, 2), 3), frozenset({1, 2}), "a"]
    P = GradedPoset([["x"], level], [{(0, i): 1 for i in range(4)}])
    for _ in range(2):
        assert P.to_json_dict()["levels"] == [["x"], ["12@3", "12", "{1,2}", "a"]]
        P.to_dot()
        assert P.resolve_element(1, "12") == level[1]
    assert Counter(formatted) == Counter(["x", *level])


# past ALL_FAMILY_BUILDS, which hold ∅ (n = 0), k = 1 and the "@m" helper
# levels: the one-digit boundary r = 10, ε alone, and two-digit symbols
NAME_BOUNDARY_HOSTS = (
    [functools.partial(build_string_poset, r, "prefix", 2) for r in (9, 10, 11, 12)]
    + [functools.partial(build_string_poset, r, rel, 0) for r in (1, 2, 11) for rel in poset.STRING_RELATIONS]
    + [functools.partial(build_subset_poset, 12)]
    + [functools.partial(build_pattern_poset, 5, rel) for rel in poset.PATTERN_RELATIONS]
)


@pytest.mark.parametrize("build", ALL_FAMILY_BUILDS + NAME_BOUNDARY_HOSTS, ids=lambda build: repr(build()))
def test_name_streams_match_formatted_elements(formatted, made_levels, build):
    host = build()
    names = host.to_json_dict()["levels"]  # read before any level is made
    assert made_levels == []
    for p, level in enumerate(host.levels):
        assert tuple(names[p]) == tuple(map(format_poset_element, level))
    # the names of a level that holds a string with a symbol past 9 are
    # formatted element by element; every other level's come from joining
    # its symbols' digits
    assert formatted == [x for level in host.levels
                         if any(type(y) is Str and max(y.symbols, default=0) > 9 for y in level) for x in level]


def test_every_exact_and_unique_bare_name_resolves_on_built_families():
    bare_checked = 0
    for P in ALL_FAMILY_INSTANCES:
        for rank, level in zip(P.ranks, P.levels):
            names = [format_poset_element(x) for x in level]
            exact = set(names)
            bare = Counter(name.split("@")[0] for name in names if "@" in name)
            for x, name in zip(level, names):
                assert P.resolve_element(rank, name) == x
                stem = name.split("@")[0]
                if bare[stem] == 1 and stem not in exact:
                    assert P.resolve_element(rank, stem) == x
                    bare_checked += 1
    # the partial permutations below the top level and the pattern posets'
    # helper levels carry "@k" names
    assert bare_checked > 0


def test_exact_name_wins_over_a_bare_one():
    level = [PartialPermutation((1, 2), 3), Str((1, 2), 3)]  # "12@3", "12"
    P = GradedPoset([level], [])
    assert P.resolve_element(0, "12") == level[1]
    assert P.resolve_element(0, "12@3") == level[0]


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
# Size caps

def test_builders_refuse_more_elements_than_the_cap_at_once():
    start = time.perf_counter()
    with pytest.raises(poset.BudgetExceededError,
                       match="the poset has 11111111111 elements, above the cap of 500000;"):
        build_string_poset(10, "prefix", 10)
    assert time.perf_counter() - start < 0.1
    for build in (lambda: build_string_poset(3, "substring", 10**9),
                  lambda: build_partial_perm_poset(10**7, "prefix"),
                  lambda: build_pattern_poset(10**7, "pattern"),
                  lambda: build_subset_poset(10**9)):
        with pytest.raises(poset.BudgetExceededError, match="the poset has at least 2\\^"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: build_string_poset(0, "prefix", 2), "need r >= 1 and max_level >= 0"),
    (lambda: build_string_poset(2, "prefix", -1), "need r >= 1 and max_level >= 0"),
    (lambda: build_pattern_poset(0, "pattern"), "need k >= 1"),
    (lambda: build_subset_poset(-1), "need n >= 0"),
])
def test_builders_refuse_sizes_below_their_least(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda: build_string_poset(3, "substring", 3),
    lambda: build_string_poset(1, "prefix", 4),
    lambda: build_partial_perm_poset(4, "prefix"),
    lambda: build_pattern_poset(4, "pattern"),
    lambda: build_subset_poset(5),
])
def test_builder_cap_counts_the_elements_exactly(monkeypatch, build):
    total = sum(map(len, build().levels))
    monkeypatch.setattr(poset, "MAX_ELEMENTS", total)
    assert sum(map(len, build().levels)) == total
    monkeypatch.setattr(poset, "MAX_ELEMENTS", total - 1)
    with pytest.raises(poset.BudgetExceededError, match=f"has {total} elements, above the cap of {total - 1};"):
        build()


@pytest.mark.parametrize("build", [
    lambda: build_string_poset(1, "subsequence", 4),
    lambda: build_string_poset(2, "prefix", 3),
    lambda: build_partial_perm_poset(4, "substring"),
    lambda: build_pattern_poset(3, "pattern"),
])
def test_builder_level_cap_counts_the_levels_exactly(monkeypatch, build):
    levels = build().num_levels
    monkeypatch.setattr(poset, "MAX_LEVELS", levels)
    assert build().num_levels == levels
    monkeypatch.setattr(poset, "MAX_LEVELS", levels - 1)
    with pytest.raises(poset.BudgetExceededError, match=f"has {levels} levels, above the cap of {levels - 1};"):
        build()


def test_unary_strings_past_the_level_cap_are_refused_at_once():
    start = time.perf_counter()
    for relation in poset.STRING_RELATIONS:
        assert build_string_poset(1, relation, poset.MAX_LEVELS - 1).num_levels == poset.MAX_LEVELS
        with pytest.raises(poset.BudgetExceededError, match="the poset has 100001 levels, above the cap of 64;"):
            build_string_poset(1, relation, 100_000)
    # the element cap is checked first, so its message is unchanged
    with pytest.raises(poset.BudgetExceededError, match="elements, above the cap of 500000;"):
        build_string_poset(1, "prefix", 10**6)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# Constructor validation

def test_poset_constructor_validation():
    with pytest.raises(ValueError):
        GradedPoset([], [])
    with pytest.raises(ValueError):
        GradedPoset([["a", "a"]], [])
    with pytest.raises(ValueError):
        GradedPoset([["a"], ["b"]], [{(0, 5): 1}])
    with pytest.raises(ValueError, match="edge multiplicities must be >= 1"):
        GradedPoset([["a"], ["b"]], [{(0, 0): 0}])
    for mult in (1.5, True):
        with pytest.raises(ValueError, match="integers"):
            GradedPoset([["a"], ["b"]], [{(0, 0): mult}])
    with pytest.raises(ValueError):
        GradedPoset([["a"], []], [{}])
    with pytest.raises(ValueError, match="one cover map per"):
        GradedPoset([["a"], ["b"]], [])
    for edge in ((0.0, 0), (True, 0), (0, 0.0), (0, True)):
        with pytest.raises(ValueError, match=re.escape(f"endpoints must be integers, not {edge}")):
            GradedPoset([["a", "c"], ["b", "d"]], [{edge: 1}])
    for key in (5, (0, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(f"cover key {key!r} is not a (lower, upper)")):
            GradedPoset([["a"], ["b"]], [{key: 1}])


def _chained_rejects_edges(edges, n_lo: int, n_hi: int) -> bool:
    """The check on a pair's cover dict as it was before the one-pass loop:
    every endpoint at once, then every multiplicity."""
    for n, ends in ((n_lo, [lo for lo, _ in edges]), (n_hi, [hi for _, hi in edges])):
        if not set(map(type, ends)) <= {int} or (ends and (min(ends) < 0 or max(ends) >= n)):
            return True
    mults = list(edges.values())
    return not set(map(type, mults)) <= {int} or (bool(mults) and min(mults) < 1)


@st.composite
def faulty_edges(draw, n_lo: int) -> tuple[dict, int]:
    """A cover dict from n_lo lower elements to one to three upper ones, and
    the upper count, valid but for up to two faults: an endpoint that is a
    float, a bool or out of range, or a multiplicity that is a float, a bool
    or zero."""
    n_hi = draw(st.integers(1, 3))
    edges = draw(st.dictionaries(st.tuples(st.integers(0, n_lo - 1), st.integers(0, n_hi - 1)),
                                 st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["lower", "upper", "mult"]))
        lo, hi = draw(st.integers(0, n_lo - 1)), draw(st.integers(0, n_hi - 1))
        if fault == "mult":
            edges[lo, hi] = draw(st.sampled_from([0, 1.0, 2.5, True, False]))
        else:
            bad = draw(st.sampled_from([0.5, True, False, -1, n_lo if fault == "lower" else n_hi]))
            key = (bad, hi) if fault == "lower" else (lo, bad)
            edges.pop(key, None)  # True and False would otherwise keep an equal int key
            edges[key] = 1
    return edges, n_hi


@settings(max_examples=400)
@given(st.integers(1, 3), st.data())
def test_row_check_matches_the_chained_check(n_lo, data):
    edges, n_hi = data.draw(faulty_edges(n_lo))
    levels = [[f"l{i}" for i in range(n_lo)], [f"u{j}" for j in range(n_hi)]]
    if _chained_rejects_edges(edges, n_lo, n_hi):
        with pytest.raises(ValueError):
            GradedPoset(levels, [edges])
    else:
        assert GradedPoset(levels, [edges]).covers == (edges,)


@pytest.mark.parametrize("call", [
    lambda: GradedPoset([["a"], ["b"]], [{(0, 0): 1}], first_rank=0.5),
    lambda: build_subset_poset(2).position(True),
    lambda: build_subset_poset(2).position(1.0),
    lambda: lym.counterexample_params(build_subset_poset(2), True),
])
def test_ranks_and_caps_refuse_bool_and_float(call):
    with pytest.raises(ValueError, match="need a plain int"):
        call()
