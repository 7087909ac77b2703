"""Acceptance suite.

One test per acceptance criterion; each measures its own body, enforces the
stated exactness (all equality checks are on exact integers/rationals) and
time limit, and prints one pass/fail line.
"""

import itertools
import math
import random
import time

from posetkraft import perm, poset
from posetkraft.codes import (
    Code,
    Codomain,
    ParameterSequence,
    brute_force_uniquely_decodable,
    full_perm_constant,
    is_free,
    is_uniquely_decodable,
    kraft_number,
    parameter_sequence,
    partial_perm_constant,
)
from posetkraft.lym import (
    antichain_exists,
    counterexample_params,
    is_antichain,
    local_lym_check,
    lym_number,
    mcmillan_construct,
    reduce_top_level,
    sample_antichain,
)
from posetkraft.poset import (
    build_partial_perm_poset,
    build_pattern_poset,
    build_string_poset,
    build_subset_poset,
    regularity_check,
)


class criterion:
    """Times the criterion body, enforces its limit, prints the verdict."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"criterion {self.number} ({self.label}): {status} [{elapsed:.3f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded {self.seconds}s"
        return False


def pp(text, universe=None):
    return perm.parse_partial_permutation(text, universe)


def graded_family_instances():
    for n in range(9):
        yield build_subset_poset(n)
    for r in (2, 3):
        for rel in poset.STRING_RELATIONS:
            yield build_string_poset(r, rel, 5)
    for k in range(1, 5):
        for rel in poset.STRING_RELATIONS:
            yield build_partial_perm_poset(k, rel)
    for k in range(1, 5):
        for rel in poset.PATTERN_RELATIONS:
            yield build_pattern_poset(k, rel)


def test_criterion_1_worked_relation_examples():
    with criterion(1, "worked relation examples, exact", 0.001):
        assert perm.pattern_of(pp("253", 6)) == pp("132")
        assert perm.is_subsequence(pp("253", 6), pp("2513", 6))
        assert perm.is_substring(pp("51", 6), pp("2513", 6))
        assert not perm.is_substring(pp("253", 6), pp("2513", 6))
        assert perm.is_pattern_in(pp("132"), pp("2513", 6))
        assert perm.is_substring_pattern_in(pp("21"), pp("2513", 6))


def test_criterion_2_cardinalities():
    with criterion(2, "enumeration counts match closed forms", 1.0):
        for k in range(1, 7):
            t_count = len(Codomain("partial_perm", k).codewords())
            s_count = len(Codomain("perm_pattern", k).codewords())
            assert t_count == sum(math.comb(k, l) * math.factorial(l) for l in range(1, k + 1))
            assert s_count == sum(math.factorial(l) for l in range(1, k + 1))
        assert len(Codomain("partial_perm", 4).codewords()) == 64
        assert len(Codomain("perm_pattern", 4).codewords()) == 33


def test_criterion_3_graded_inequality_property_suite():
    with criterion(3, "level-regularity, sampled LYM <= 1, exhaustive local step", 60.0):
        for host in graded_family_instances():
            report = regularity_check(host)
            assert report.is_level_regular, host.family
            rng = random.Random(0xC0FFEE)
            for _ in range(1000):
                antichain = sample_antichain(host, rng)
                assert lym_number(host, antichain) <= 1, host.family
            for pos in range(1, host.num_levels):
                level = host.levels[pos]
                if len(level) > 12:
                    continue
                rank = host.rank_of_position(pos)
                for size in range(1, len(level) + 1):
                    for subset in itertools.combinations(level, size):
                        assert local_lym_check(host, rank, subset).holds, host.family


def test_criterion_4_greedy_construction_iff_kraft():
    with criterion(4, "greedy prefix code exists iff Kraft sum <= 1", 30.0):
        scale = 2**5
        checked = 0
        for a in itertools.product(range(9), repeat=6):
            # integer form of the exact comparison K <= 1
            kraft_le_1 = sum(ai * 2 ** (5 - i) for i, ai in enumerate(a)) <= scale
            result = mcmillan_construct(2, a)
            assert bool(result) == kraft_le_1, a
            if checked % 10007 == 0:
                assert kraft_le_1 == (kraft_number(a, 2) <= 1)
            if result:
                assert is_free(result.code, "prefix"), a
                got = list(parameter_sequence(result.code).counts)
                want = list(a)
                while want and want[-1] == 0:
                    want.pop()
                assert got == want, a
            checked += 1
        assert checked == 9**6


def test_criterion_5_unique_decodability():
    with criterion(5, "dangling-suffix test vs brute force; UD implies K <= 1", 60.0):
        words = [""]
        for l in (1, 2, 3):
            words += ["".join(w) for w in itertools.product("01", repeat=l)]
        assert len(words) == 15
        total = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations(words, size):
                code = Code.of_strings(2, combo)
                ud = is_uniquely_decodable(code)
                assert ud == brute_force_uniquely_decodable(code, 12), combo
                if ud:
                    assert kraft_number(parameter_sequence(code), 2) <= 1, combo
                total += 1
        assert total == 15 + 105 + 455


def test_criterion_6_converse_failure_for_strings():
    with criterion(6, "string-level counterexample reproduction", 1.0):
        for rel in ("subsequence", "substring"):
            host = build_string_poset(2, rel, 2)
            outcome = counterexample_params(host, 1)
            assert outcome.accepted, rel
            assert outcome.counts.by_rank(host) == {1: 1, 2: 2}
            assert outcome.lym_sum == 1
            search = antichain_exists(host, outcome.counts)
            assert not search.exists
            assert search.nodes == 6


def test_criterion_7_converse_failure_for_permutations():
    with criterion(7, "permutation-level counterexample reproduction", 5.0):
        for rel in ("pattern", "substring_pattern"):
            host = build_pattern_poset(3, rel)
            counts = ParameterSequence.at_ranks(host, {2: 1, 4: 3})
            assert full_perm_constant((0, 0, 1, 3), 3) == 1
            search = antichain_exists(host, counts)
            assert not search.exists, rel
            assert search.nodes == 20
        for rel in ("subsequence", "substring"):
            host = build_partial_perm_poset(3, rel)
            assert partial_perm_constant((0, 2, 2), 3) == 1
            search = antichain_exists(host, {1: 2, 2: 2})
            assert not search.exists, rel


def test_criterion_8_freeness_is_antichain_membership():
    with criterion(8, "freeness agrees with antichain checks", 60.0):
        elements = Codomain("partial_perm", 3).codewords()
        hosts = {rel: build_partial_perm_poset(3, rel) for rel in poset.STRING_RELATIONS}
        for size in (1, 2, 3):
            for combo in itertools.combinations(elements, size):
                code = Code(Codomain("partial_perm", 3), combo)
                members = [(len(w), w) for w in combo]
                for rel, host in hosts.items():
                    assert is_free(code, rel).free == is_antichain(host, members).ok
        elements = Codomain("perm_pattern", 3).codewords()
        hosts = {rel: build_pattern_poset(3, rel) for rel in poset.PATTERN_RELATIONS}
        for size in (1, 2, 3):
            for combo in itertools.combinations(elements, size):
                code = Code(Codomain("perm_pattern", 3), combo)
                members = [(2 * len(w) - 2, w) for w in combo]
                for rel, host in hosts.items():
                    assert is_free(code, rel).free == is_antichain(host, members).ok


def test_criterion_9_reduction_preserves_antichains():
    with criterion(9, "top-level reduction never loses density", 10.0):
        hosts = [
            build_subset_poset(6),
            build_string_poset(2, "subsequence", 4),
            build_string_poset(3, "substring", 3),
            build_partial_perm_poset(4, "subsequence"),
            build_pattern_poset(4, "pattern"),
            build_pattern_poset(3, "substring_pattern"),
        ]
        rng = random.Random(314159)
        reduced = 0
        while reduced < 500:
            host = hosts[reduced % len(hosts)]
            antichain = sample_antichain(host, rng)
            positions = {host.position(rank) for rank, _ in antichain.members}
            if not positions or max(positions) == 0:
                continue
            before = lym_number(host, antichain)
            result = reduce_top_level(host, antichain)
            assert is_antichain(host, result)
            assert lym_number(host, result) >= before
            # iterated reduction must land on a single bottom-level antichain
            current = result
            steps = 0
            while max(host.position(rank) for rank, _ in current.members) > 0:
                current = reduce_top_level(host, current)
                steps += 1
                assert steps <= host.num_levels
            reduced += 1
