import itertools
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetkraft import cli, codes, lym, perm, poset
from posetkraft.codes import kraft_number, parameter_sequence
from posetkraft.lym import (
    Antichain,
    BudgetExceededError,
    antichain_exists,
    antichain_from_json_dict,
    antichain_to_json_dict,
    counterexample_params,
    is_antichain,
    local_lym_check,
    lym_number,
    mcmillan_construct,
    reduce_top_level,
    sample_antichain,
)
from posetkraft.perm import PartialPermutation, Str
from posetkraft.poset import (
    GradedPoset,
    build_partial_perm_poset,
    build_pattern_poset,
    build_string_poset,
    build_subset_poset,
)


def fs(*xs):
    return frozenset(xs)


# ---------------------------------------------------------------------------
# is_antichain

def test_is_antichain_examples():
    P = build_subset_poset(2)
    assert is_antichain(P, [(1, fs(1)), (1, fs(2))])
    res = is_antichain(P, [(0, fs()), (1, fs(1))])
    assert not res
    assert res.witness == ((0, fs()), (1, fs(1)))
    assert is_antichain(P, [(2, fs(1, 2))])
    assert is_antichain(P, [])


def test_is_antichain_rejects_foreign_members():
    P = build_subset_poset(2)
    with pytest.raises(ValueError):
        is_antichain(P, [(1, fs(3))])
    with pytest.raises(ValueError):
        is_antichain(P, [(2, fs(1))])  # wrong level claim


def test_is_antichain_across_gap_levels():
    P = build_subset_poset(3)
    # {1} < {1,2,3} across two levels
    res = is_antichain(P, [(1, fs(1)), (3, fs(1, 2, 3))])
    assert not res and res.witness == ((1, fs(1)), (3, fs(1, 2, 3)))
    # "d" covers nothing, so its down-closure empties before level 0
    Q = GradedPoset([["a"], ["b"], ["c", "d"]], [{(0, 0): 1}, {(0, 0): 1}])
    assert is_antichain(Q, [(0, "a"), (2, "d")])
    assert is_antichain(Q, [(0, "a"), (2, "c")]).witness == ((0, "a"), (2, "c"))


# ---------------------------------------------------------------------------
# LYM numbers

def test_lym_number_examples():
    P = build_subset_poset(2)
    assert lym_number(P, [(1, fs(1)), (1, fs(2))]) == 1
    assert lym_number(P, []) == 0
    S = build_string_poset(2, "prefix", 2)
    members = [(1, Str((0,), 2)), (2, Str((1, 0), 2)), (2, Str((1, 1), 2))]
    assert lym_number(S, members) == 1
    assert lym_number(S, members) == kraft_number((0, 1, 2), 2)


def test_lym_number_is_exact():
    P = build_subset_poset(3)
    assert lym_number(P, [(1, fs(1)), (2, fs(2, 3))]) == Fraction(1, 3) + Fraction(1, 3)


def test_code_constants_are_the_poset_density():
    """Each code constant is the LYM number of the code's antichain in the
    host whose levels hold the codomain's words of each length: the words of
    length l sit at rank l, or at rank 2l - 2 in a pattern poset."""
    sweeps = [
        ("string", 2, {rel: build_string_poset(2, rel, 3) for rel in perm.STRING_RELATIONS},
         [w for l in range(4) for w in perm.strings(2, l)], lambda l: l),
        ("partial_perm", 3, {rel: build_partial_perm_poset(3, rel) for rel in perm.STRING_RELATIONS},
         codes.Codomain("partial_perm", 3).codewords(), lambda l: l),
        ("perm_pattern", 3, {rel: build_pattern_poset(3, rel) for rel in perm.PATTERN_RELATIONS},
         codes.Codomain("perm_pattern", 3).codewords(), lambda l: 2 * l - 2),
    ]
    free_codes = 0
    for kind, size, hosts, words, rank in sweeps:
        level_size = codes.CODOMAINS[kind].level_size
        for host in hosts.values():
            for l in sorted({len(w) for w in words}):
                assert level_size(l, size) == len(host.levels[host.position(rank(l))])
        for n in (1, 2, 3):
            for combo in itertools.combinations(words, n):
                code = codes.Code(codes.Codomain(kind, size), combo)
                constant = codes.code_constant(kind, parameter_sequence(code), size)
                for rel, host in hosts.items():
                    if codes.is_free(code, rel):
                        free_codes += 1
                        assert constant == lym_number(host, [(rank(len(w)), w) for w in combo])
    assert free_codes == 1379


# ---------------------------------------------------------------------------
# Local LYM

def test_local_lym_examples():
    P = build_subset_poset(2)
    res = local_lym_check(P, 2, [fs(1, 2)])
    assert (res.lhs, res.rhs, res.holds, bool(res)) == (Fraction(1), Fraction(1), True, True)
    # a full level: shadow is the whole lower level, equality again
    res = local_lym_check(P, 1, [fs(1), fs(2)])
    assert res.lhs == res.rhs == 1 and res.holds
    S = build_string_poset(2, "subsequence", 2)
    res = local_lym_check(S, 2, [Str((0, 0), 2)])
    assert (res.lhs, res.rhs) == (Fraction(1, 2), Fraction(1, 4))
    assert res.holds


def test_local_lym_preconditions():
    P = build_subset_poset(2)
    with pytest.raises(ValueError):
        local_lym_check(P, 0, [fs()])  # nothing below the bottom level
    with pytest.raises(ValueError):
        local_lym_check(P, 1, [])
    levels = [["a", "b"], ["c", "d"]]
    lopsided = GradedPoset(levels, [{(0, 0): 1, (0, 1): 1, (1, 1): 1}], family="lopsided")
    with pytest.raises(ValueError, match="not biregular"):
        local_lym_check(lopsided, 1, ["c"])


def test_local_lym_exhaustive_on_small_levels():
    hosts = [
        build_subset_poset(4),
        build_string_poset(2, "substring", 3),
        build_partial_perm_poset(3, "subsequence"),
        build_pattern_poset(3, "substring_pattern"),
    ]
    for P in hosts:
        for pos in range(1, P.num_levels):
            level = P.levels[pos]
            if len(level) > 12:
                continue
            rank = P.rank_of_position(pos)
            for size in range(1, len(level) + 1):
                for sub in itertools.combinations(level, size):
                    assert local_lym_check(P, rank, sub).holds


# ---------------------------------------------------------------------------
# Top-level reduction

def test_reduce_top_level_examples():
    P = build_subset_poset(2)
    reduced = reduce_top_level(P, [(2, fs(1, 2))])
    assert reduced.members == fs((1, fs(1)), (1, fs(2)))
    assert lym_number(P, reduced) == 1
    S = build_string_poset(2, "subsequence", 2)
    reduced = reduce_top_level(S, [(2, Str((0, 0), 2))])
    assert reduced.members == fs((1, Str((0,), 2)))
    assert lym_number(S, reduced) == Fraction(1, 2)


def test_reduce_top_level_preconditions():
    P = build_subset_poset(2)
    with pytest.raises(ValueError):
        reduce_top_level(P, [(0, fs())])  # already at the bottom
    with pytest.raises(ValueError):
        reduce_top_level(P, [])
    with pytest.raises(ValueError):
        reduce_top_level(P, [(0, fs()), (1, fs(1))])  # not an antichain


def test_reduce_top_level_on_a_pair_that_is_not_biregular():
    # x covers a; y covers a, b and c
    P = GradedPoset([["a", "b", "c"], ["x", "y"]], [{(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1}])
    with pytest.raises(ValueError, match=r"level pair \(0, 1\) is not biregular"):
        reduce_top_level(P, [(1, "x")])
    # the LYM number rises from 1/2 to 1
    assert reduce_top_level(P, [(1, "y")]).members == fs((0, "a"), (0, "b"), (0, "c"))


def test_reduce_keeps_lower_members():
    P = build_subset_poset(3)
    start = [(1, fs(1)), (2, fs(2, 3))]
    reduced = reduce_top_level(P, start)
    assert (1, fs(1)) in reduced.members
    assert (1, fs(2)) in reduced.members and (1, fs(3)) in reduced.members


def test_reduce_iteration_terminates_at_single_level():
    rng = random.Random(4242)
    hosts = [
        build_subset_poset(6),
        build_string_poset(2, "subsequence", 4),
        build_partial_perm_poset(4, "substring"),
        build_pattern_poset(3, "pattern"),
    ]
    reduced_count = 0
    for P in hosts:
        while reduced_count < 40:
            A = sample_antichain(P, rng)
            by_pos = {P.position(rank) for rank, _ in A.members}
            if not by_pos or max(by_pos) == 0:
                continue
            current = A
            before = lym_number(P, current)
            steps = 0
            while max(P.position(rank) for rank, _ in current.members) > 0:
                current = reduce_top_level(P, current)
                steps += 1
                assert steps <= P.num_levels
            assert lym_number(P, current) >= before
            positions = {P.position(rank) for rank, _ in current.members}
            assert len(positions) == 1
            reduced_count += 1
        reduced_count = 0


# ---------------------------------------------------------------------------
# Greedy prefix-code construction

def test_mcmillan_examples():
    res = mcmillan_construct(2, (0, 1, 2))
    assert [perm.format_element(w) for w in res.code.codewords] == ["0", "10", "11"]
    res = mcmillan_construct(2, (1,))
    assert [perm.format_element(w) for w in res.code.codewords] == ["ε"]
    res = mcmillan_construct(2, (0, 2, 1))
    assert not res and res.failed_level == 2


def test_mcmillan_r1_and_empty():
    assert mcmillan_construct(1, ()).code.codewords == ()
    res = mcmillan_construct(1, (0, 1))
    assert [w.symbols for w in res.code.codewords] == [(0,)]
    res = mcmillan_construct(1, (0, 1, 1))
    assert res.failed_level == 2
    with pytest.raises(ValueError, match="need r >= 1"):
        mcmillan_construct(0, [1])


def frontier_greedy(r, counts):
    """The greedy tree walk that ``mcmillan_construct`` replaced, kept as the
    reference: it grows every unchosen, extendable string one symbol at a
    time, so its cost is exponential in the longest length.  Returns the
    codewords' symbol tuples and the failed length."""
    frontier = [()]
    chosen = []
    for length, need in enumerate(counts):
        if need > len(frontier):
            return None, length
        chosen.extend(frontier[:need])
        frontier = [w + (s,) for w in frontier[need:] for s in range(r)]
    return chosen, None


def assert_matches_frontier_greedy(r, counts):
    res = mcmillan_construct(r, counts)
    words = None if res.code is None else [w.symbols for w in res.code.codewords]
    assert (words, res.failed_level) == frontier_greedy(r, counts), (r, counts)


def test_mcmillan_succeeds_iff_kraft_at_most_one_small():
    for r in (1, 2, 3):
        for a in itertools.product(range(4), repeat=5):
            assert_matches_frontier_greedy(r, a)
            res = mcmillan_construct(r, a)
            expected = kraft_number(a, r) <= 1
            assert bool(res) == expected, (r, a)
            if res:
                assert codes.is_free(res.code, "prefix")
                got = parameter_sequence(res.code)
                want = list(a)
                while want and want[-1] == 0:
                    want.pop()
                assert list(got.counts) == want


def test_mcmillan_greedy_is_lexicographic():
    res = mcmillan_construct(2, (0, 1, 0, 2))
    assert [perm.format_element(w) for w in res.code.codewords] == ["0", "100", "101"]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r * r), max_size=8))
    )
)
def test_mcmillan_matches_frontier_greedy_on_random_profiles(case):
    assert_matches_frontier_greedy(*case)


def test_mcmillan_deep_profiles():
    # the frontier greedy would hold 2^64 and 2^50 strings here
    res = mcmillan_construct(2, [0] * 64 + [2])
    assert [w.symbols for w in res.code.codewords] == [(0,) * 64, (0,) * 63 + (1,)]
    res = mcmillan_construct(2, [0] * 50 + [2**50 + 1])
    assert not res and res.failed_level == 50


def test_mcmillan_decides_then_refuses_more_codewords_than_the_cap(monkeypatch):
    monkeypatch.setattr(codes, "MAX_CODEWORDS", 3)
    assert len(mcmillan_construct(2, (0, 1, 2)).code) == 3
    assert mcmillan_construct(2, (0, 1, 2, 1)).failed_level == 3  # infeasible wins over the cap

    def no_words(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(lym, "_base_r_digits", no_words)
    with pytest.raises(BudgetExceededError, match="the code has 4 codewords, above the cap of 3;"):
        mcmillan_construct(2, (0, 1, 1, 2))


# ---------------------------------------------------------------------------
# Counterexample parameter vectors

def test_counterexample_string_subsequence():
    P = build_string_poset(2, "subsequence", 2)
    out = counterexample_params(P, 1)
    assert out.accepted
    assert (out.up_degree, out.down_degree, out.gcd) == (4, 2, 2)
    assert out.counts.by_rank(P) == {1: 1, 2: 2}
    assert out.lym_sum == 1


def test_counterexample_prefix_rejection():
    P = build_string_poset(2, "prefix", 2)
    out = counterexample_params(P, 1)
    assert not out
    assert out.reason == "down-degree not > 1"


def test_counterexample_pattern_poset_between_original_levels():
    P = build_pattern_poset(3, "pattern")
    out = counterexample_params(P, 2, 4)
    assert out.accepted
    assert (out.up_degree, out.down_degree, out.gcd) == (9, 3, 2)
    assert out.counts.by_rank(P) == {2: 1, 4: 3}
    assert out.lym_sum == 1
    Q = build_pattern_poset(3, "substring_pattern")
    out = counterexample_params(Q, 2, 4)
    assert out.accepted
    assert (out.up_degree, out.down_degree, out.gcd) == (6, 2, 2)
    assert out.counts.by_rank(Q) == {2: 1, 4: 3}


def test_counterexample_gcd_rejection():
    # complete bipartite K_{2,3}: biregular (3, 2), connected, coprime sizes
    levels = [["a", "b"], ["c", "d", "e"]]
    covers = [{(i, j): 1 for i in range(2) for j in range(3)}]
    P = GradedPoset(levels, covers, family="K23")
    out = counterexample_params(P, 0)
    assert not out and out.reason == "level sizes have gcd 1"


def test_counterexample_disconnected_rejection():
    # two disjoint 4-cycles: biregular (2, 2) but not weakly connected
    levels = [["a", "b", "c", "d"], ["w", "x", "y", "z"]]
    edges = {}
    for base in (0, 2):
        for i in (base, base + 1):
            for j in (base, base + 1):
                edges[(i, j)] = 1
    P = GradedPoset(levels, [edges], family="two-cycles")
    out = counterexample_params(P, 0)
    assert not out and out.reason == "level pair not weakly connected"


def test_counterexample_non_biregular_rejection():
    levels = [["a", "b"], ["c", "d"]]
    P = GradedPoset(levels, [{(0, 0): 1, (0, 1): 1, (1, 1): 1}], family="lopsided")
    out = counterexample_params(P, 0)
    assert not out and out.reason == "level pair not biregular"


def test_counterexample_rank_validation():
    P = build_subset_poset(2)
    with pytest.raises(ValueError):
        counterexample_params(P, 2)  # no level above
    with pytest.raises(ValueError):
        counterexample_params(P, 1, 1)


# ---------------------------------------------------------------------------
# Exhaustive antichain search

def test_search_witness_example():
    P = build_subset_poset(2)
    out = antichain_exists(P, (0, 2, 0))
    assert out.exists
    assert out.antichain.members == fs((1, fs(1)), (1, fs(2)))
    assert is_antichain(P, out.antichain)


def test_search_zero_counts():
    P = build_subset_poset(2)
    out = antichain_exists(P, (0, 0, 0))
    assert out.exists and len(out.antichain) == 0 and out.nodes == 0


def test_search_proof_of_none_string_subsequence():
    P = build_string_poset(2, "subsequence", 2)
    out = antichain_exists(P, (0, 1, 2))
    assert not out.exists
    assert out.nodes == 6  # C(4,2) upper choices, all with full shadow
    assert out.to_json_dict() == {"exists": False, "search_nodes": 6}


def test_search_respects_counts_and_validates():
    P = build_subset_poset(3)
    with pytest.raises(ValueError):
        antichain_exists(P, (0, 9, 0, 0))
    with pytest.raises(ValueError):
        antichain_exists(P, (0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        antichain_exists(P, (-1,))
    with pytest.raises(ValueError):
        antichain_exists(P, [0, 1.7, 0, 0])  # never truncated to a count of 1
    with pytest.raises(ValueError):
        antichain_exists(P, [0, True, 0, 0])  # a bool is not a count of 1
    with pytest.raises(ValueError):
        codes.ParameterSequence((0, True))
    with pytest.raises(ValueError):
        antichain_exists(P, (0, 1, 0, 0), budget=-1)
    # zeros past the top level are dropped
    assert antichain_exists(build_subset_poset(1), [0, 1, 0, 0])


def test_search_multi_level_backtracking():
    P = build_subset_poset(5)
    out = antichain_exists(P, {1: 1, 2: 1, 3: 1})
    assert out.exists
    assert out.antichain.members == fs(
        (3, fs(1, 2, 3)), (2, fs(1, 4)), (1, fs(5))
    )
    assert is_antichain(P, out.antichain)
    # a whole top level blocks everything below it
    Q = build_subset_poset(3)
    out = antichain_exists(Q, {1: 1, 2: 1, 3: 1})
    assert not out.exists


def test_search_single_level_support():
    P = build_partial_perm_poset(3, "subsequence")
    out = antichain_exists(P, {2: 6})
    assert out.exists and len(out.antichain) == 6


def test_search_is_deterministic():
    P = build_subset_poset(5)
    a = antichain_exists(P, {1: 2, 2: 2})
    b = antichain_exists(P, {1: 2, 2: 2})
    assert a.exists and a.antichain.members == b.antichain.members
    assert a.nodes == b.nodes
    # two singletons demand two pairs inside a 2-element complement: impossible
    none_a = antichain_exists(build_subset_poset(4), {1: 2, 2: 2})
    none_b = antichain_exists(build_subset_poset(4), {1: 2, 2: 2})
    assert not none_a.exists and none_a.nodes == none_b.nodes


def test_two_level_witness_counts_its_lower_choice():
    P = build_subset_poset(4)
    out = antichain_exists(P, {1: 1, 2: 3})
    assert out.antichain.members == fs(
        (2, fs(1, 2)), (2, fs(1, 3)), (2, fs(2, 3)), (1, fs(4))
    )
    # {12,13,14} blocks every singleton, {12,13,23} leaves {4}: two upper
    # choices tried, plus the lower-level choice
    assert out.nodes == 2 + 1


def _brute_force_count_vectors(P):
    """Per-level counts of every antichain, listed from the order relation."""
    elements = [(rank, x) for rank in P.ranks for x in P.level(rank)]
    below = {
        (a, b)
        for a, (ra, x) in enumerate(elements)
        for b, (rb, y) in enumerate(elements)
        if P.less_than(ra, x, rb, y)
    }
    incomparable = [
        {b for b in range(len(elements)) if (a, b) not in below and (b, a) not in below}
        for a in range(len(elements))
    ]
    vectors = set()

    def extend(start, allowed, counts):
        vectors.add(tuple(counts))
        for e in range(start, len(elements)):
            if e in allowed:
                p = P.position(elements[e][0])
                counts[p] += 1
                extend(e + 1, allowed & incomparable[e], counts)
                counts[p] -= 1

    extend(0, set(range(len(elements))), [0] * P.num_levels)
    return vectors, below, elements


@pytest.mark.parametrize(
    "P",
    [build_subset_poset(n) for n in range(5)]
    + [build_string_poset(2, rel, L) for rel in ("subsequence", "substring") for L in (1, 2, 3)]
    + [build_pattern_poset(3, rel) for rel in ("pattern", "substring_pattern")],
    ids=repr,
)
def test_search_matches_brute_force(P):
    vectors, below, elements = _brute_force_count_vectors(P)
    position = {(rank, x): e for e, (rank, x) in enumerate(elements)}
    sizes = [len(level) for level in P.levels]
    for counts in itertools.product(*(range(n + 1) for n in sizes)):
        out = antichain_exists(P, counts)
        assert out.exists == (counts in vectors), counts
        if out.exists:
            got = [0] * P.num_levels
            for rank, _ in out.antichain:
                got[P.position(rank)] += 1
            assert tuple(got) == counts
            members = [position[m] for m in out.antichain]
            assert not any((a, b) in below for a in members for b in members)


def _reference_search(P, dense, budget):
    """The search over Python sets that the bit-mask search replaced: the
    same order of levels and combinations, each node closing its chosen
    set and the forbidden one with ``down_closure``."""
    order = [p for p in range(P.num_levels - 1, -1, -1) if dense[p] > 0]
    if not order:
        return True, 0, Antichain(frozenset())
    last = len(order) - 1
    nodes = 0
    chosen = {}

    def search(step, forbidden):
        nonlocal nodes
        p = order[step]
        candidates = [i for i in range(len(P.levels[p])) if i not in forbidden]
        if step < last:
            next_p = order[step + 1]
            max_blocked = len(P.levels[next_p]) - dense[next_p]
        for combo in itertools.combinations(candidates, dense[p]):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes)
            chosen[p] = combo
            if step == last:
                return True
            blocked = P.down_closure(p, forbidden.union(combo), next_p)
            if len(blocked) <= max_blocked and search(step + 1, blocked):
                return True
        return False

    if search(0, set()):
        members = {(P.rank_of_position(p), P.levels[p][i]) for p, idx in chosen.items() for i in idx}
        return True, nodes, Antichain(frozenset(members))
    return False, nodes, None


CROSS_CHECK_HOSTS = (
    [build_subset_poset(n) for n in range(2, 6)]
    + [build_string_poset(2, rel, L) for rel in ("prefix", "subsequence", "substring") for L in range(2, 5)]
    + [build_partial_perm_poset(4, rel) for rel in ("prefix", "subsequence", "substring")]
    + [build_pattern_poset(4, rel) for rel in ("pattern", "substring_pattern")]
)
CROSS_CHECK_BUDGET = 3000


def _draw_counts(data, P, spread):
    """Mostly small counts, which leave room for multi-level witnesses.  With
    ``spread``, three drawn levels are populated, so the search has middle
    steps and meets some of their failed subtrees again."""
    sizes = [len(level) for level in P.levels]
    populated = set()
    if spread:
        populated = data.draw(st.sets(st.sampled_from(range(len(sizes))), min_size=3, max_size=3),
                              label="populated")
    return [
        data.draw(st.integers(1, min(n, 3)) if p in populated else st.integers(0, min(n, 3)) | st.integers(0, n),
                  label=f"a_{p}")
        for p, n in enumerate(sizes)
    ]


def _check_against_reference(P, dense, budget):
    """The search and ``_reference_search`` agree on the verdict, ``nodes``
    and witness, and both trip one node before the end; over ``budget``,
    both refuse."""
    try:
        expected = _reference_search(P, dense, budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            antichain_exists(P, dense, budget=budget)
        return
    exists, nodes, _ = expected
    out = antichain_exists(P, dense, budget=nodes)
    assert (out.exists, out.nodes, out.antichain) == expected
    # one node fewer trips the budget in both, so both count the same nodes
    if nodes:
        with pytest.raises(BudgetExceededError):
            _reference_search(P, dense, nodes - 1)
        with pytest.raises(BudgetExceededError):
            antichain_exists(P, dense, budget=nodes - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_matches_the_set_based_reference(data):
    P = data.draw(st.sampled_from(CROSS_CHECK_HOSTS), label="host")
    dense = _draw_counts(data, P, data.draw(st.booleans(), label="spread"))
    _check_against_reference(P, dense, CROSS_CHECK_BUDGET)


WALK_MEMO_HOSTS = [build_pattern_poset(4, rel) for rel in ("pattern", "substring_pattern")] + [build_subset_poset(5)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_matches_the_reference_with_three_to_five_picks_on_top(data):
    """Three to five picks on the highest populated level give prefixes of
    two or more picks, whose sub-walks the walk meets again and counts in
    one step; the levels below keep small counts."""
    P = data.draw(st.sampled_from(WALK_MEMO_HOSTS), label="host")
    sizes = P.sizes
    top = data.draw(st.sampled_from([p for p, n in enumerate(sizes) if n >= 5]), label="top")
    dense = [data.draw(st.integers(0, min(n, 3)), label=f"a_{p}") for p, n in enumerate(sizes[:top])]
    dense += [data.draw(st.integers(3, 5), label=f"a_{top}")] + [0] * (len(sizes) - top - 1)
    _check_against_reference(P, dense, 20_000)


def test_large_refutations_keep_their_node_counts():
    P = build_string_poset(3, "subsequence", 4)
    out = antichain_exists(P, counterexample_params(P, 3, 4).counts)
    assert (out.exists, out.nodes) == (False, 85_320)
    out = antichain_exists(build_string_poset(2, "subsequence", 5), (0, 0, 1, 1, 2, 3))
    assert (out.exists, out.nodes) == (False, 207_226)
    # the benchmark's three-level profiles, whose walks meet many sub-walks again
    for relation, nodes in (("pattern", 43_148), ("substring_pattern", 47_152)):
        out = antichain_exists(build_pattern_poset(4, relation), (0, 0, 1, 0, 2, 0, 5))
        assert (out.exists, out.nodes) == (False, nodes)


def test_memo_keeps_the_node_counts_of_multi_level_refutations():
    P = build_string_poset(2, "subsequence", 5)
    out = antichain_exists(P, (0, 1, 0, 2, 3, 6))
    assert (out.exists, out.nodes) == (False, 7_949_166)
    assert not antichain_exists(P, (0, 0, 1, 1, 2, 3), budget=207_226)
    with pytest.raises(BudgetExceededError, match="visited more than 207225 assignments"):
        antichain_exists(P, (0, 0, 1, 1, 2, 3), budget=207_225)


def _outcomes_at_memo_sizes(P, dense, budget):
    """The search's (exists, nodes, antichain), or its budget message, with
    the default memos, with no room for an entry and with room for one
    entry of either memo.  A failed subtree is charged the width of its
    level and a failed sub-walk that of the level below, each plus
    ``_MEMO_ENTRY_BITS``, so the widest level's charge admits one entry of
    either kind, and two entries take at least twice the smallest charge."""
    one_entry = lym._MEMO_ENTRY_BITS + max(P.sizes)
    outcomes = []
    for bits in (lym._MEMO_BITS, 0, one_entry):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lym, "_MEMO_BITS", bits)
            try:
                out = antichain_exists(P, dense, budget=budget)
                outcomes.append((out.exists, out.nodes, out.antichain))
            except BudgetExceededError as e:
                outcomes.append(str(e))
    return outcomes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memo_size_changes_no_outcome(data):
    P = data.draw(st.sampled_from(CROSS_CHECK_HOSTS), label="host")
    default, *bounded = _outcomes_at_memo_sizes(P, _draw_counts(data, P, spread=True), CROSS_CHECK_BUDGET)
    assert bounded == [default, default]


@pytest.mark.parametrize("P, dense, exists", [
    # witnesses found after the search met failed middle subtrees again
    (build_partial_perm_poset(4, "subsequence"), (1, 1, 3, 0), True),
    (build_partial_perm_poset(4, "substring"), (1, 2, 3, 0), True),
    (build_pattern_poset(4, "substring_pattern"), (0, 0, 0, 2, 1, 2, 2), True),
    (build_string_poset(2, "subsequence", 5), (0, 0, 1, 1, 2, 3), False),
    # witnesses found after the walk counted failed sub-walks in one step
    (build_subset_poset(6), (0, 1, 4, 3, 0, 0, 0), True),
    (build_pattern_poset(4, "substring_pattern"), (0, 0, 0, 1, 1, 0, 6), True),
    # two levels: only sub-walks are stored, so room for one entry holds one sub-walk
    (build_subset_poset(5), (0, 0, 2, 6, 0, 0), False),
    # the benchmark's profile, whose walk counts 336 sub-walks in one step each
    (build_pattern_poset(4, "pattern"), (0, 0, 1, 0, 2, 0, 5), False),
], ids=repr)
def test_memo_size_changes_no_witness_or_budget_point(P, dense, exists):
    default, *bounded = _outcomes_at_memo_sizes(P, dense, None)
    assert default[0] == exists and bounded == [default, default]
    nodes = default[1]
    if exists:  # the lexicographically least witness, as the reference finds it
        assert default[2] == _reference_search(P, dense, nodes)[2]
    assert _outcomes_at_memo_sizes(P, dense, nodes) == [default] * 3
    tripped = _outcomes_at_memo_sizes(P, dense, nodes - 1)
    assert tripped == [f"visited more than {nodes - 1} assignments; rerun with a larger budget or a smaller instance"] * 3


def _memo_work(P, dense, bits):
    """The search's nodes, its ``search`` calls and the C calls that a memo
    hit skips, with the memos capped at ``bits``: a failed subtree counted
    again skips its ``format`` of the forbidden mask, and a failed sub-walk
    counted again skips its ``int.bit_count`` calls."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ in ("format", "bit_count"):
            calls[arg.__name__] += 1
        elif event == "call" and frame.f_code.co_name == "search":
            calls["search"] += 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lym, "_MEMO_BITS", bits)
        sys.setprofile(profile)
        try:
            nodes = antichain_exists(P, dense).nodes
        finally:
            sys.setprofile(None)
    return nodes, calls["search"], calls["format"], calls["bit_count"]


def test_memo_caps_stop_storing():
    """The caps change no outcome, so only the work they save shows them:
    at 0 neither memo stores an entry, and every subtree formats its mask;
    with room for one entry the subtree memo hits, and the default memos
    save most of the walk."""
    P = build_pattern_poset(4, "substring_pattern")
    one_entry = lym._MEMO_ENTRY_BITS + max(P.sizes)
    work = {bits: _memo_work(P, (0, 0, 1, 0, 2, 0, 5), bits) for bits in (lym._MEMO_BITS, one_entry, 0)}
    assert work[0] == (47_152, 4_337, 4_337, 24_113)
    assert work[one_entry] == (47_152, 4_337, 4_099, 23_875)
    assert work[lym._MEMO_BITS] == (47_152, 507, 32, 3_547)


@pytest.mark.parametrize("P", [
    *(build_string_poset(r, "subsequence", L) for r, L in ((2, 5), (3, 4))),
    *(build_partial_perm_poset(k, "subsequence") for k in (4, 5)),
    *(build_subset_poset(n) for n in range(4, 9)),
    build_pattern_poset(4, "pattern"),
], ids=repr)
def test_counterexample_refutations_try_every_upper_choice(P):
    """Every upper choice of an accepted vector blocks more of the lower
    level than the vector leaves free, so a refutation tries all C(n_hi,
    a_hi) of them and descends into none; the pruned walk counts them in
    closed form, most without building a single combination."""
    accepted = [c for lo, hi in itertools.combinations(P.ranks, 2) if (c := counterexample_params(P, lo, hi))]
    assert accepted
    for c in accepted:
        combinations = math.comb(len(P.level(c.upper_rank)), c.counts.by_rank(P)[c.upper_rank])
        out = antichain_exists(P, c.counts, budget=combinations)
        assert (out.exists, out.nodes) == (False, combinations)
        with pytest.raises(BudgetExceededError):
            antichain_exists(P, c.counts, budget=combinations - 1)


@pytest.mark.parametrize("P, lower_rank, upper_rank, nodes", [
    # the paper's counterexample on strings, (a_2, a_4) = (8, 9)
    (build_string_poset(3, "subsequence", 4), 2, 4, math.comb(81, 9)),
    # subsets n=10, (a_4, a_5) = (205, 6)
    (build_subset_poset(10), 4, 5, math.comb(252, 6)),
])
def test_large_budgets_refute_in_closed_form(P, lower_rank, upper_rank, nodes):
    start = time.perf_counter()
    out = antichain_exists(P, counterexample_params(P, lower_rank, upper_rank).counts, budget=10**18)
    assert (out.exists, out.nodes) == (False, nodes)
    assert time.perf_counter() - start < 2


def test_deep_prefixes_walk_without_recursion():
    # the first 1024 strings of length 11 all block only the string "0"
    # below, so a prefix grows 1024 deep before it blocks too much
    P = build_string_poset(2, "prefix", 11)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="visited more than 10000000 assignments"):
        antichain_exists(P, {1: 1, 11: 1100})
    assert time.perf_counter() - start < 1


def test_search_builds_masks_only_for_the_steps_it_reaches(monkeypatch):
    P = build_subset_poset(4)
    built = []
    down_masks = GradedPoset.down_masks
    monkeypatch.setattr(GradedPoset, "down_masks",
                        lambda self, pos, to_pos: built.append((pos, to_pos)) or down_masks(self, pos, to_pos))
    assert antichain_exists(P, {2: 6}).exists and built == []
    # the whole top level blocks rank 1, so the search never enters it and
    # builds no masks from rank 1 down to rank 0
    assert not antichain_exists(P, {0: 1, 1: 1, 4: 1})
    assert built == [(4, 1)]


def test_search_refuses_masks_above_the_cap(monkeypatch, capsys):
    P = build_subset_poset(4)
    # the masks from rank 2 (6 elements) down to rank 1 (4 elements) take 24 bits
    monkeypatch.setattr(poset, "MAX_MASK_BITS", 24)
    assert antichain_exists(P, {1: 1, 2: 1}).exists
    monkeypatch.setattr(poset, "MAX_MASK_BITS", 23)
    with pytest.raises(BudgetExceededError, match="24 bits, above the cap of 23"):
        antichain_exists(P, {1: 1, 2: 1})
    assert antichain_exists(P, {2: 6}).exists  # a single level builds no masks
    assert cli.main(["antichain-search", "--subsets", "--n", "4", "--counts", "0,1,1"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "above the cap of 23" in out.err


def test_search_budget_exceeded():
    P = build_string_poset(2, "subsequence", 2)
    with pytest.raises(BudgetExceededError, match="smaller instance"):
        antichain_exists(P, (0, 1, 2), budget=3)
    with pytest.raises(BudgetExceededError):
        # success takes three assignments (one per populated level)
        antichain_exists(build_subset_poset(5), {1: 1, 2: 1, 3: 1}, budget=2)


@pytest.mark.parametrize("call", [
    lambda: build_subset_poset(True),
    lambda: build_subset_poset(2.0),
    lambda: build_partial_perm_poset(2.0, "prefix"),
    lambda: build_string_poset(2, "prefix", True),
    lambda: build_string_poset(2, "prefix", 1.0),
    lambda: build_pattern_poset(True, "pattern"),
    lambda: build_pattern_poset(2.0, "pattern"),
    lambda: kraft_number([0, 1], True),
    lambda: kraft_number([0, 1], 2.0),
    lambda: codes.partial_perm_constant([0, 1], True),
    lambda: codes.full_perm_constant([0, 1], True),
    lambda: mcmillan_construct(2.0, [0, 1]),
    lambda: antichain_exists(build_subset_poset(2), [0, 1], budget=True),
    lambda: antichain_exists(build_subset_poset(2), [0, 1], budget=2.5),
    lambda: codes.Codomain("partial_perm", 2).codewords(2.0),
    lambda: codes.Codomain("string", 2).codewords(True),
    lambda: codes.ulam_subsequence_condition(codes.Code.of_partial_perms(3, ["123", "132"]), 2.5),
    lambda: codes.ulam_subsequence_condition(codes.Code.of_partial_perms(3, ["123", "132"]), True),
    lambda: codes.encode(codes.Code.of_strings(2, ["0", "10", "11"]), [True, 2]),
    lambda: codes.encode(codes.Code.of_strings(2, ["0", "10", "11"]), [1.0]),
    lambda: codes.encode(codes.Code.of_strings(2, ["0", "10", "11"]), ["1"]),
])
def test_sizes_and_budgets_refuse_bool_and_float(call):
    with pytest.raises(ValueError, match="need a plain int"):
        call()


def test_level_counts_helpers():
    P = build_partial_perm_poset(3, "substring")
    counts = codes.ParameterSequence.at_ranks(P, {1: 2, 2: 2})
    assert counts.counts == (2, 2, 0)
    assert counts.by_rank(P) == {1: 2, 2: 2}
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        codes.ParameterSequence((-1,))
    with pytest.raises(ValueError):
        codes.ParameterSequence.at_ranks(P, {7: 1})


@pytest.mark.parametrize("host, by_rank", [
    (build_string_poset(2, "subsequence", 2), {1: 1, 2: 1}),
    (build_partial_perm_poset(3, "substring"), {1: 1, 2: 2}),
    (build_pattern_poset(3, "pattern"), {2: 1, 3: 2}),
    (build_subset_poset(4), {1: 1, 2: 3}),
])
def test_search_reads_one_profile_four_ways(host, by_rank):
    dense = [by_rank.get(host.rank_of_position(p), 0) for p in range(host.num_levels)]
    ways = (dense, by_rank, codes.ParameterSequence.at_ranks(host, by_rank),
            codes.ParameterSequence(tuple(dense)))
    outcomes = {(o.exists, o.nodes, o.antichain) for o in (antichain_exists(host, c) for c in ways)}
    assert len(outcomes) == 1 and outcomes.pop()[0]


# ---------------------------------------------------------------------------
# Sampling

def test_sample_antichain_is_always_an_antichain():
    rng = random.Random(77)
    for P in (
        build_subset_poset(6),
        build_string_poset(3, "subsequence", 4),
        build_pattern_poset(4, "pattern"),
    ):
        for _ in range(200):
            A = sample_antichain(P, rng)
            assert is_antichain(P, A)
            assert lym_number(P, A) <= 1


def test_sample_antichain_deterministic_under_seed():
    P = build_subset_poset(5)
    a = sample_antichain(P, random.Random(123))
    b = sample_antichain(P, random.Random(123))
    assert a.members == b.members


# ---------------------------------------------------------------------------
# Interchange

def test_antichain_json_round_trip():
    P = build_pattern_poset(3, "pattern")
    A = Antichain(fs((2, PartialPermutation((1, 2), 2)), (4, PartialPermutation((3, 2, 1), 3))))
    data = antichain_to_json_dict(A)
    assert data == {"antichain": [[2, "12"], [4, "321"]]}
    assert antichain_from_json_dict(P, data).members == A.members
    with pytest.raises(ValueError):
        antichain_from_json_dict(P, {"antichain": [[2, "99"]]})


def test_antichain_json_accepts_names_without_universe_suffix():
    # helper-level elements format with an @universe suffix but may be
    # written without it when unambiguous at their level
    P = build_pattern_poset(3, "pattern")
    got = antichain_from_json_dict(P, {"antichain": [[3, "12"]]})
    assert got.members == fs((3, PartialPermutation((1, 2), 3)))
    explicit = antichain_from_json_dict(P, {"antichain": [[3, "12@3"]]})
    assert explicit.members == got.members


def test_search_outcome_witness_json():
    P = build_subset_poset(2)
    out = antichain_exists(P, (0, 2, 0))
    assert out.to_json_dict() == {"exists": True, "antichain": [[1, "{1}"], [1, "{2}"]]}
