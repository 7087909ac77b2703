import itertools
import math
import random

import pytest

from posetkraft import codes, perm, poset
from posetkraft.codes import Code, Codomain
from posetkraft.perm import PartialPermutation, Str


# ---------------------------------------------------------------------------
# Independent oracles

def oracle_subsequence(a, b):
    """Exhaustive index-set search."""
    for idx in itertools.combinations(range(len(b)), len(a)):
        if all(a[i] == b[j] for i, j in zip(range(len(a)), idx)):
            return True
    return len(a) == 0


def oracle_substring(a, b):
    return a in [b[n : n + len(a)] for n in range(len(b) - len(a) + 1)]


def oracle_rank_pattern(seq):
    return tuple(sorted(seq).index(x) + 1 for x in seq)


def oracle_pattern_in(sigma, tau):
    """Enumerate all subsequences and take their patterns."""
    m = len(sigma)
    return any(
        oracle_rank_pattern(sub) == sigma
        for sub in itertools.combinations(tau, m)
    )


def pp(text, universe=None):
    return perm.parse_partial_permutation(text, universe)


# ---------------------------------------------------------------------------
# Element types

def test_partial_permutation_validation():
    with pytest.raises(ValueError):
        PartialPermutation((), 3)
    with pytest.raises(ValueError):
        PartialPermutation((1, 1), 3)
    with pytest.raises(ValueError):
        PartialPermutation((0,), 3)
    with pytest.raises(ValueError):
        PartialPermutation((4,), 3)
    assert PartialPermutation((3, 1), 3).universe == 3


def test_str_validation_and_empty():
    assert len(Str((), 2)) == 0
    with pytest.raises(ValueError):
        Str((2,), 2)
    with pytest.raises(ValueError):
        Str((-1,), 2)
    assert Str((0, 1, 1), 2).symbols == (0, 1, 1)


@pytest.mark.parametrize("make", [
    lambda: Str((True, 0), 2),
    lambda: Str((), True),
    lambda: Str((0,), 2.5),
    lambda: PartialPermutation((1,), True),
    lambda: PartialPermutation((2, True), 2),
    lambda: PartialPermutation((1,), 1.5),
    lambda: perm.strings(2, True),
    lambda: perm.strings(2, 1.0),
    lambda: perm.partial_permutations(2, True),
    lambda: Codomain("partial_perm", 2.0),
    lambda: Codomain("perm_pattern", 2.0),
])
def test_elements_refuse_bool_and_float(make):
    with pytest.raises(ValueError):
        make()


def test_universe_is_part_of_identity():
    assert pp("253", 6) != pp("253", 5)
    with pytest.raises(ValueError):
        perm.is_subsequence(pp("25", 6), pp("2513", 5))
    with pytest.raises(TypeError):
        perm.is_prefix(Str((0,), 2), pp("1", 2))


# ---------------------------------------------------------------------------
# pattern_of

def test_pattern_of_worked_examples():
    assert perm.pattern_of(pp("253", 6)) == pp("132")
    assert perm.pattern_of(pp("123", 3)) == pp("123")
    assert perm.pattern_of(pp("51", 6)) == pp("21")


def test_pattern_of_result_is_full_permutation():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 8)
        l = rng.randint(1, k)
        tau = PartialPermutation(tuple(rng.sample(range(1, k + 1), l)), k)
        sigma = perm.pattern_of(tau)
        assert sigma.universe == l and sigma.is_full_permutation
        assert sigma.entries == oracle_rank_pattern(tau.entries)
        # idempotence
        assert perm.pattern_of(sigma) == sigma


def test_order_pattern_matches_the_rank_scan():
    # every full permutation of length <= 7 and every injective l-sequence
    # over [l+1] (the pattern posets' helper keys)
    for l in range(1, 8):
        for seq in itertools.chain(itertools.permutations(range(1, l + 1)),
                                   itertools.permutations(range(1, l + 2), l)):
            assert perm.order_pattern(seq) == oracle_rank_pattern(seq), seq
    assert perm.order_pattern(()) == ()
    assert perm.order_pattern((0, -3, 9)) == (2, 1, 3)  # no entry is taken for the placeholder


# ---------------------------------------------------------------------------
# The five relations

def test_prefix_examples():
    assert perm.is_prefix(pp("25", 6), pp("2513", 6))
    t = pp("2513", 6)
    assert perm.is_prefix(t, t)
    assert not perm.is_prefix(pp("13", 6), pp("2513", 6))


def test_subsequence_examples():
    assert perm.is_subsequence(pp("253", 6), pp("2513", 6))
    s = pp("253", 6)
    assert perm.is_subsequence(s, s)
    assert not perm.is_subsequence(pp("15", 6), pp("2513", 6))


def test_substring_examples():
    assert perm.is_substring(pp("51", 6), pp("2513", 6))
    assert not perm.is_substring(pp("253", 6), pp("2513", 6))
    t = pp("2513", 6)
    assert perm.is_substring(t, t)


def test_pattern_in_examples():
    assert perm.is_pattern_in(pp("132"), pp("2513", 6))
    assert perm.is_pattern_in(pp("1"), pp("2513", 6))
    assert not perm.is_pattern_in(pp("21"), pp("12"))
    with pytest.raises(ValueError):
        perm.is_pattern_in(pp("25", 6), pp("2513", 6))  # not a full permutation


@pytest.mark.parametrize("contains", [perm.is_pattern_in, perm.is_substring_pattern_in])
@pytest.mark.parametrize("sigma", ["1", "12"])
def test_pattern_orders_refuse_a_tau_of_another_kind(contains, sigma):
    with pytest.raises(TypeError, match="cannot relate PartialPermutation to Str"):
        contains(pp(sigma), Str((0,), 2))


def test_substring_pattern_examples():
    assert perm.is_substring_pattern_in(pp("21"), pp("2513", 6))
    tau = pp("2513", 6)
    assert perm.is_substring_pattern_in(perm.pattern_of(tau), tau)
    assert not perm.is_substring_pattern_in(pp("123"), pp("321"))


def test_relations_against_oracles_randomized():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randint(2, 6)
        lt = rng.randint(1, k)
        ls = rng.randint(1, lt)
        tau = PartialPermutation(tuple(rng.sample(range(1, k + 1), lt)), k)
        sigma = PartialPermutation(tuple(rng.sample(range(1, k + 1), ls)), k)
        assert perm.is_subsequence(sigma, tau) == oracle_subsequence(sigma.entries, tau.entries)
        assert perm.is_substring(sigma, tau) == oracle_substring(sigma.entries, tau.entries)
        full = perm.pattern_of(sigma)
        assert perm.is_pattern_in(full, tau) == oracle_pattern_in(full.entries, tau.entries)


def test_string_relations_with_repeats():
    a = Str((0, 0), 2)
    b = Str((0, 1, 0), 2)
    assert perm.is_subsequence(a, b)
    assert not perm.is_substring(a, b)
    assert perm.is_prefix(Str((0,), 2), b)
    assert perm.is_subsequence(Str((), 2), b)  # empty string sits inside everything


SYMBOL_ORDERS = {"prefix", "subsequence", "substring"}
PATTERN_ORDERS = {"pattern", "substring_pattern"}
ENTRY_POINTS = {
    "is_free on strings": (lambda rel: codes.is_free(Code.of_strings(2, ["0", "01"]), rel), SYMBOL_ORDERS),
    "is_free on partial perms": (
        lambda rel: codes.is_free(Code.of_partial_perms(3, ["1", "12"]), rel), SYMBOL_ORDERS),
    "is_free on full perms": (
        lambda rel: codes.is_free(Code.of_full_perms(3, ["1", "12"]), rel), SYMBOL_ORDERS | PATTERN_ORDERS),
    "string poset": (lambda rel: poset.build_string_poset(2, rel, 2), SYMBOL_ORDERS),
    "partial perm poset": (lambda rel: poset.build_partial_perm_poset(3, rel), SYMBOL_ORDERS),
    "pattern poset": (lambda rel: poset.build_pattern_poset(3, rel), PATTERN_ORDERS),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "name", sorted(SYMBOL_ORDERS | PATTERN_ORDERS) + ["substring-pattern", "Prefix", "bogus", ""]
)
def test_order_names_each_entry_point_accepts(entry, name):
    call, accepted = ENTRY_POINTS[entry]
    if name in accepted:
        call(name)
    else:
        with pytest.raises(ValueError):
            call(name)


def test_subsequence_deletions_match_the_slicing_reference():
    # the one independent oracle of the cover step: order included, since it
    # fixes the order of every cover row's items
    deletions = perm.ORDERS["subsequence"].deletions
    words = [ts for l in range(1, 7) for ts in itertools.product(range(3), repeat=l)]  # repeats
    words += [ts for l in range(1, 6) for ts in itertools.permutations(range(1, 6), l)]
    for ts in words:
        assert list(deletions(ts)) == [ts[:p] + ts[p + 1 :] for p in range(len(ts))], ts
    assert list(deletions(())) == []


def test_relation_name_lists_are_the_order_table():
    assert perm.CODE_RELATIONS == tuple(perm.ORDERS)
    assert perm.CODE_RELATIONS == ("prefix", "subsequence", "substring", "pattern", "substring_pattern")
    assert poset.STRING_RELATIONS is perm.STRING_RELATIONS == perm.CODE_RELATIONS[:3]
    assert poset.PATTERN_RELATIONS is perm.PATTERN_RELATIONS == perm.CODE_RELATIONS[3:]
    assert codes.CODE_RELATIONS is perm.CODE_RELATIONS


# ---------------------------------------------------------------------------
# Relation hierarchy and factorization invariants

def test_substring_implies_subsequence_and_prefix_implies_substring():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 6)
        lt = rng.randint(1, k)
        ls = rng.randint(1, lt)
        tau = PartialPermutation(tuple(rng.sample(range(1, k + 1), lt)), k)
        sigma = PartialPermutation(tuple(rng.sample(range(1, k + 1), ls)), k)
        if perm.is_prefix(sigma, tau):
            assert perm.is_substring(sigma, tau)
        if perm.is_substring(sigma, tau):
            assert perm.is_subsequence(sigma, tau)


def test_pattern_factorization():
    # pattern containment == pattern of some subsequence
    for tau in perm.partial_permutations(5, 4):
        for sigma in perm.full_permutations(3):
            direct = perm.is_pattern_in(sigma, tau)
            via_subsequences = any(
                perm.pattern_of(PartialPermutation(sub, 5)) == sigma
                for sub in itertools.combinations(tau.entries, 3)
            )
            assert direct == via_subsequences


def test_equal_length_relatedness_is_equality():
    for rel in (perm.is_prefix, perm.is_subsequence, perm.is_substring):
        for a in perm.partial_permutations(4, 2):
            for b in perm.partial_permutations(4, 2):
                assert rel(a, b) == (a == b)


def test_transitivity_spot_checks():
    rng = random.Random(11)
    elems = [
        PartialPermutation(tuple(rng.sample(range(1, 6), rng.randint(1, 5))), 5)
        for _ in range(40)
    ]
    for rel in (perm.is_prefix, perm.is_subsequence, perm.is_substring):
        for a, b, c in itertools.product(elems, repeat=3):
            if rel(a, b) and rel(b, c):
                assert rel(a, c)


# ---------------------------------------------------------------------------
# Size limits

def test_count_above_sums_exactly_below_2_to_the_64():
    def never(l):
        raise AssertionError(f"level {l} was evaluated")

    powers, bits = (lambda l: 2**l), (lambda l: l)
    assert perm.count_above(7, range(3), powers, bits) is None
    assert perm.count_above(6, range(3), powers, bits) == "7"
    assert perm.count_above(100, range(64), powers, bits) == str(2**64 - 1)
    assert perm.count_above(100, range(10**9), powers, bits) == "at least 2^64"
    assert perm.count_above(6, (10**9,), never, bits) == "at least 2^1000000000"
    assert perm.count_above(6, (1, 2), lambda l: 2**63, lambda l: 0) == "at least 2^64"
    # nonempty levels: more of them than the cap pass it without a full sum
    assert perm.count_above(5, range(10**18), lambda l: 1, lambda l: 0) == "at least 6"


def test_factorial_bits_bound_the_factorials():
    for l in range(40):
        assert 1 << perm.factorial_bits(l) <= math.factorial(l)
        if l <= 21:
            assert perm.factorial_bits(l) == math.factorial(l).bit_length() - 1


# ---------------------------------------------------------------------------
# Enumeration

def test_enumerate_partial_permutations():
    got = perm.partial_permutations(3, 2)
    assert [perm.format_element(x) for x in got] == ["12", "13", "21", "23", "31", "32"]
    assert len(got) == math.comb(3, 2) * math.factorial(2)


@pytest.mark.parametrize("make, message", [
    (lambda: perm.strings(0, 1), "need r >= 1 and l >= 0"),
    (lambda: perm.strings(2, -1), "need r >= 1 and l >= 0"),
    (lambda: perm.partial_permutations(2, 3), "need 1 <= l <= k, got l=3, k=2"),
    (lambda: perm.partial_permutations(2, 0), "need 1 <= l <= k, got l=0, k=2"),
])
def test_enumerations_refuse_sizes_out_of_range(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_enumerate_counts_match_closed_forms():
    for k in range(1, 6):
        for l in range(1, k + 1):
            assert len(perm.partial_permutations(k, l)) == math.comb(k, l) * math.factorial(l)
        assert len(Codomain("partial_perm", k).codewords()) == sum(
            math.comb(k, l) * math.factorial(l) for l in range(1, k + 1)
        )
        assert len(Codomain("perm_pattern", k).codewords()) == sum(
            math.factorial(l) for l in range(1, k + 1)
        )
    for r in range(1, 4):
        for l in range(4):
            assert len(perm.strings(r, l)) == r**l


def test_enumerate_t4_totals_64():
    assert len(Codomain("partial_perm", 4).codewords()) == 4 + 12 + 24 + 24 == 64


def test_enumeration_is_lexicographic_and_duplicate_free():
    for elems in (perm.partial_permutations(4, 2), perm.strings(3, 3)):
        keys = [x.entries if isinstance(x, PartialPermutation) else x.symbols for x in elems]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_dispatcher():
    assert len(Codomain("partial_perm", 3).codewords(2)) == 6
    assert len(Codomain("perm_pattern", 1).codewords(1)) == 1
    assert len(Codomain("string", 2).codewords(3)) == 8
    assert len(Codomain("partial_perm", 4).codewords()) == 64
    with pytest.raises(ValueError, match="partial_perm codomain of size 3 has codeword lengths 1..3, not 4"):
        Codomain("partial_perm", 3).codewords(4)
    with pytest.raises(ValueError, match="perm_pattern codomain of size 3"):
        Codomain("perm_pattern", 3).codewords(4)
    with pytest.raises(ValueError, match="not 0"):
        Codomain("partial_perm", 3).codewords(0)
    with pytest.raises(ValueError, match="0 and up, so name one"):
        Codomain("string", 2).codewords()


# ---------------------------------------------------------------------------
# Textual syntax

def test_format_element():
    assert perm.format_element(pp("2513", 6)) == "2513"
    assert perm.format_element(pp("2513", 6), with_universe=True) == "2513@6"
    assert perm.format_element(Str((), 2)) == "ε"
    assert str(Str((0, 1, 1), 2)) == "011"
    big = PartialPermutation((2, 11, 5), 12)
    assert perm.format_element(big) == "(2,11,5)"


def test_parse_round_trip():
    for text, universe in (("2513", 6), ("51", 6), ("1", 1)):
        x = pp(text, universe)
        assert pp(perm.format_element(x), universe) == x
    assert perm.parse_symbols("(2,11,5)@12") == ((2, 11, 5), 12)
    assert perm.parse_symbols("ε") == ((), None)
    assert perm.parse_symbols("") == ((), None)
    assert perm.parse_symbols("()") == perm.parse_symbols("eps") == ((), None)
    assert perm.parse_symbols(" ( 1, 12 ) @ 13 ") == ((1, 12), 13)
    assert perm.parse_str("010", 2) == Str((0, 1, 0), 2)
    # without a universe, entries are read as a full permutation
    assert pp("321") == PartialPermutation((3, 2, 1), 3)
    with pytest.raises(ValueError):
        perm.parse_symbols("12a")
    with pytest.raises(ValueError, match="unbalanced"):
        perm.parse_symbols("(1,2")
    with pytest.raises(ValueError, match="declared universe 3"):
        perm.parse_str("01@3", 2)
    with pytest.raises(ValueError):
        pp("12@5", 6)


@pytest.mark.parametrize("text", ["(1,,2)", "(1,2,)", "(,)", "(+1,2)", "12@+3", "１２", "(1_0,2)"])
def test_parse_symbols_coerces_nothing(text):
    with pytest.raises(ValueError, match="cannot parse"):
        perm.parse_symbols(text)


def test_key_at_inverts_find_on_every_level():
    levels = [perm.StringLevel(r, l, r**l) for r in (1, 2, 3, 11) for l in range(4)]
    levels += [perm.SequenceLevel(k, l, math.perm(k, l)) for k in range(1, 7) for l in range(1, k + 1)]
    levels += [perm.SequenceLevel(l + 1, l, math.factorial(l + 1)) for l in range(1, 6)]  # pattern helpers
    levels += [poset._SubsetLevel(frozenset(range(1, n + 1)), i, math.comb(n, i))
               for n in range(9) for i in range(n + 1)]
    table = ("b", frozenset({2}), Str((0, 1), 2))
    levels.append(poset._TableLevel(table, {x: i for i, x in enumerate(table)}))
    for level in levels:
        keys = list(level.keys())
        assert len(keys) == level.size
        for i, key in enumerate(keys):
            assert level.key_at(i) == key
            assert level.find(level.element(level.key_at(i))) == i
    for r in (1, 2, 3, 11):
        for l in range(4):
            assert [x.symbols for x in perm.strings(r, l)] == list(itertools.product(range(r), repeat=l))
    for k in range(1, 7):
        for l in range(1, k + 1):
            syms = list(itertools.permutations(range(1, k + 1), l))
            assert [x.entries for x in perm.partial_permutations(k, l)] == syms
