import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetkraft import codes, perm
from posetkraft.codes import (
    Code,
    Codomain,
    FreenessResult,
    ParameterSequence,
    brute_force_uniquely_decodable,
    code_from_json_dict,
    code_to_json_dict,
    decode_prefix_free,
    encode,
    full_perm_constant,
    is_free,
    is_uniquely_decodable,
    kraft_number,
    parameter_sequence,
    partial_perm_constant,
    ulam_subsequence_condition,
)
from posetkraft.perm import PartialPermutation, Str


def scode(*texts, r=2):
    return Code.of_strings(r, texts)


# ---------------------------------------------------------------------------
# Code construction

def test_code_rejects_duplicates_and_foreign_words():
    with pytest.raises(ValueError):
        scode("0", "0")
    with pytest.raises(ValueError):
        Code(Codomain("string", 2), (PartialPermutation((1,), 2),))
    with pytest.raises(ValueError):
        Code(Codomain("partial_perm", 3), (PartialPermutation((1, 2), 2),))
    with pytest.raises(ValueError):
        # not a full permutation: universe exceeds length
        Code(Codomain("perm_pattern", 3), (PartialPermutation((1, 3), 3),))
    with pytest.raises(ValueError):
        Codomain("word", 2)
    for kind in ("string", "partial_perm", "perm_pattern"):
        with pytest.raises(ValueError, match="integer"):
            Codomain(kind, True)


def test_code_json_round_trip():
    for code in (
        scode("0", "10", "11"),
        Code.of_partial_perms(6, ["2513", "51"]),
        Code.of_full_perms(3, ["1", "21", "321"]),
        scode("ε", r=2),
    ):
        data = code_to_json_dict(code)
        assert code_from_json_dict(json.loads(json.dumps(data))) == code
    data = code_to_json_dict(scode("0", "10", "11"))
    assert data == {"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "10", "11"]}


@pytest.mark.parametrize(
    "data, key",
    [
        ({"codomain": {"kind": "string"}, "codewords": ["0"]}, "'r'"),
        ({"codomain": {"kind": "perm_pattern", "r": 2}, "codewords": ["1"]}, "'k'"),
        ({"codomain": {"r": 2}, "codewords": ["0"]}, "'kind'"),
        ({"codomain": {"kind": "string", "r": 2}}, "'codewords'"),
    ],
)
def test_code_file_missing_key_is_named(data, key):
    with pytest.raises(ValueError, match=key):
        code_from_json_dict(data)


# ---------------------------------------------------------------------------
# Parameter sequences

def test_parameter_sequence_examples():
    assert parameter_sequence(scode("0", "10", "11")).counts == (0, 1, 2)
    assert parameter_sequence(Code(Codomain("string", 2), ())).counts == ()
    code = Code.of_full_perms(3, ["1", "21", "321"])
    assert parameter_sequence(code).counts == (0, 1, 1, 1)


def test_parameter_sequence_normalization_and_validation():
    assert ParameterSequence((0, 1, 0, 0)).counts == (0, 1)
    assert ParameterSequence(())[5] == 0
    assert ParameterSequence((1, 2)).total == 3
    with pytest.raises(ValueError):
        ParameterSequence((-1,))


# ---------------------------------------------------------------------------
# Exact constants

def test_kraft_number_examples():
    assert kraft_number((0, 1, 2), 2) == 1
    assert kraft_number((), 2) == 0
    assert kraft_number((1,), 2) == 1  # the empty string alone saturates
    assert kraft_number((0, 1, 1), 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        kraft_number((1,), 0)


def test_partial_perm_constant_examples():
    assert partial_perm_constant((0, 2, 3), 3) == Fraction(7, 6)
    assert partial_perm_constant((), 3) == 0
    assert partial_perm_constant((0, 2, 2), 3) == 1
    with pytest.raises(ValueError):
        partial_perm_constant((1,), 3)  # length-0 support
    with pytest.raises(ValueError):
        partial_perm_constant((0, 0, 0, 0, 5), 3)  # support above k


def test_full_perm_constant_examples():
    assert full_perm_constant((0, 0, 1, 3), 3) == 1
    assert full_perm_constant((), 3) == 0
    assert full_perm_constant((0, 1, 1), 2) == Fraction(3, 2)


def test_constants_monotone_and_additive():
    base = (0, 1, 2, 1)
    bumped = (0, 2, 2, 1)
    for fn, arg in ((kraft_number, 2), (partial_perm_constant, 4), (full_perm_constant, 4)):
        assert fn(bumped, arg) > fn(base, arg)
    a, b = (0, 2, 0, 0), (0, 0, 1, 3)
    joint = tuple(x + y for x, y in zip(a, b))
    for fn, arg in ((kraft_number, 2), (partial_perm_constant, 4), (full_perm_constant, 4)):
        assert fn(joint, arg) == fn(a, arg) + fn(b, arg)


def test_constants_match_code_parameter_sequences():
    code = Code.of_partial_perms(3, ["1", "21", "312"])
    assert partial_perm_constant(parameter_sequence(code), 3) == Fraction(1, 3) + Fraction(1, 6) + Fraction(1, 6)


# ---------------------------------------------------------------------------
# Freeness

def test_is_free_examples():
    assert is_free(scode("0", "10", "11"), "prefix")
    res = is_free(Code.of_full_perms(2, ["1", "21"]), "pattern")
    assert not res
    assert res.witness == (PartialPermutation((1,), 1), PartialPermutation((2, 1), 2))
    assert is_free(scode("0"), "prefix")
    assert is_free(Code.of_partial_perms(5, ["123"]), "subsequence")


def test_is_free_relation_codomain_mismatch():
    with pytest.raises(ValueError):
        is_free(scode("0", "1"), "pattern")
    with pytest.raises(ValueError):
        is_free(Code.of_partial_perms(3, ["12"]), "substring_pattern")
    with pytest.raises(ValueError):
        is_free(scode("0"), "sideways")


def test_is_free_string_relations():
    assert not is_free(scode("0", "00"), "prefix")
    assert not is_free(scode("11", "101"), "subsequence")
    assert is_free(scode("11", "101"), "substring")
    assert not is_free(scode("ε", "0"), "prefix")  # empty word prefixes everything
    assert is_free(scode("ε"), "prefix")


def test_is_free_on_full_perm_codomain_uses_string_view():
    # 1 is a string prefix of 12 even though their universes differ
    code = Code.of_full_perms(3, ["1", "12"])
    assert not is_free(code, "prefix")
    assert not is_free(code, "subsequence")
    # 21 and 312: 21 is not a substring but is a substring pattern (31)
    code2 = Code.of_full_perms(3, ["21", "312"])
    assert is_free(code2, "substring")
    assert not is_free(code2, "substring_pattern")


def test_freeness_witness_direction():
    res = is_free(Code.of_partial_perms(4, ["231", "23"]), "prefix")
    inner, outer = res.witness
    assert perm.format_element(inner) == "23"
    assert perm.format_element(outer) == "231"


def all_pairs_is_free(code, relation):
    """The all-pairs scan that ``is_free`` replaced, kept as the reference."""
    rel = {
        "prefix": perm.is_prefix,
        "subsequence": perm.is_subsequence,
        "substring": perm.is_substring,
        "pattern": perm.is_pattern_in,
        "substring_pattern": perm.is_substring_pattern_in,
    }[relation]
    views = code.codewords
    if code.codomain.kind == "perm_pattern" and relation in ("prefix", "subsequence", "substring"):
        views = tuple(Str(w.entries, code.codomain.size + 1) for w in views)
    for i, a in enumerate(views):
        for j, b in enumerate(views):
            if i != j and rel(a, b):
                return FreenessResult(False, (code.codewords[i], code.codewords[j]))
    return FreenessResult(True, None)


def string_codes():
    return st.integers(1, 3).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(0, r - 1), max_size=5).map(tuple), unique=True, max_size=8
        ).map(lambda ws: Code(Codomain("string", r), tuple(Str(w, r) for w in ws)))
    )


def partial_perm_codes():
    return st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.tuples(st.permutations(range(1, k + 1)), st.integers(1, k)).map(
                lambda t: tuple(t[0][: t[1]])
            ),
            unique=True,
            max_size=8,
        ).map(lambda ws: Code(Codomain("partial_perm", k), tuple(PartialPermutation(w, k) for w in ws)))
    )


def perm_pattern_codes():
    return st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.integers(1, k).flatmap(lambda l: st.permutations(range(1, l + 1))).map(tuple),
            unique=True,
            max_size=8,
        ).map(lambda ws: Code(Codomain("perm_pattern", k), tuple(PartialPermutation(w, len(w)) for w in ws)))
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(string_codes(), partial_perm_codes(), perm_pattern_codes()))
def test_is_free_matches_all_pairs_scan(code):
    relations = codes.CODE_RELATIONS if code.codomain.kind == "perm_pattern" else codes.CODE_RELATIONS[:3]
    for relation in relations:
        assert is_free(code, relation) == all_pairs_is_free(code, relation), relation


# ---------------------------------------------------------------------------
# Extension and decoding

def test_encode_decode_round_trip_example():
    code = scode("0", "10", "11")
    out = encode(code, (1, 2, 3))
    assert out == Str((0, 1, 0, 1, 1), 2)
    assert decode_prefix_free(code, out) == (1, 2, 3)
    assert encode(code, ()) == Str((), 2)


def test_decode_round_trip_all_short_messages():
    for code in (scode("0", "10", "110", "111"), scode("0", "1", "20", "21", r=3)):
        n_words = len(code.codewords)
        for n in range(7):
            for msg in itertools.product(range(1, n_words + 1), repeat=n):
                assert decode_prefix_free(code, encode(code, msg)) == msg


def test_decode_rejects_non_prefix_free_and_residue():
    with pytest.raises(ValueError, match="not prefix-free"):
        decode_prefix_free(scode("1", "10"), Str((1,), 2))
    with pytest.raises(ValueError, match="residue"):
        decode_prefix_free(scode("0", "10", "11"), Str((1,), 2))
    with pytest.raises(ValueError, match="empty codeword"):
        decode_prefix_free(scode("ε"), Str((), 2))


def test_encode_validates_source_symbols():
    with pytest.raises(ValueError):
        encode(scode("0", "1"), (3,))


def test_encode_partial_perm_codomain():
    code = Code.of_partial_perms(4, ["12", "34"])
    assert encode(code, (1, 2)) == PartialPermutation((1, 2, 3, 4), 4)
    with pytest.raises(ValueError, match="leaves codomain"):
        encode(code, (1, 1))


# ---------------------------------------------------------------------------
# Unique decodability

def test_unique_decodability_examples():
    assert is_uniquely_decodable(scode("0", "10", "11"))
    assert not is_uniquely_decodable(scode("0", "00"))  # 0·0 = 00
    assert is_uniquely_decodable(scode("0"))
    assert not is_uniquely_decodable(scode("ε", "0"))
    assert not is_uniquely_decodable(scode("ε"))
    assert is_uniquely_decodable(Code(Codomain("string", 2), ()))
    with pytest.raises(ValueError):
        is_uniquely_decodable(Code.of_partial_perms(3, ["12"]))


def test_unique_decodability_classic_non_prefix_example():
    # suffix code: uniquely decodable but not prefix-free
    code = scode("0", "01", "11")
    assert not is_free(code, "prefix")
    assert is_uniquely_decodable(code)
    assert brute_force_uniquely_decodable(code)


def test_sardinas_patterson_agrees_with_brute_force_exhaustively():
    words = [""]
    for l in (1, 2, 3):
        words += ["".join(w) for w in itertools.product("01", repeat=l)]
    assert len(words) == 15
    for size in (1, 2, 3):
        for combo in itertools.combinations(words, size):
            code = Code.of_strings(2, combo)
            assert is_uniquely_decodable(code) == brute_force_uniquely_decodable(code, 12), combo


# Every binary code of 4-7 words of lengths 1-3, and every ternary one of
# lengths 1-2, that is not uniquely decodable has two messages with one
# output of at most 8 symbols (checked exhaustively), so within these bounds
# the brute force is exact.
BRUTE_FORCE_OUTPUT_BOUND = {2: 12, 3: 8}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2)]).flatmap(
        lambda rl: st.lists(
            st.lists(st.integers(0, rl[0] - 1), min_size=1, max_size=rl[1]).map(tuple),
            unique=True,
            min_size=4,
            max_size=7,
        ).map(lambda ws: Code(Codomain("string", rl[0]), tuple(Str(w, rl[0]) for w in ws)))
    )
)
def test_sardinas_patterson_agrees_with_brute_force_beyond_size_3(code):
    bound = BRUTE_FORCE_OUTPUT_BOUND[code.codomain.size]
    assert is_uniquely_decodable(code) == brute_force_uniquely_decodable(code, bound)


def test_brute_force_is_exact_only_up_to_its_output_bound():
    # 0101·0000·1000·0111 == 010·1000·010·0001·11: the shortest ambiguity
    # has 16 symbols, so a brute force bounded by 15 misses it
    code = scode("010", "0101", "0000", "0111", "11", "1000", "0001")
    assert encode(code, [2, 3, 6, 4]) == encode(code, [1, 6, 1, 7, 5])
    assert not is_uniquely_decodable(code)
    assert not brute_force_uniquely_decodable(code, max_total_length=16)
    assert brute_force_uniquely_decodable(code, max_total_length=15)


def test_uniquely_decodable_implies_kraft_at_most_one():
    words = [""]
    for l in (1, 2, 3):
        words += ["".join(w) for w in itertools.product("01", repeat=l)]
    for size in (1, 2, 3):
        for combo in itertools.combinations(words, size):
            code = Code.of_strings(2, combo)
            if is_uniquely_decodable(code):
                assert kraft_number(parameter_sequence(code), 2) <= 1


def test_prefix_free_implies_uniquely_decodable_without_empty_word():
    words = []
    for l in (1, 2, 3):
        words += ["".join(w) for w in itertools.product("01", repeat=l)]
    for size in (1, 2, 3):
        for combo in itertools.combinations(words, size):
            code = Code.of_strings(2, combo)
            if is_free(code, "prefix"):
                assert is_uniquely_decodable(code)
    # the lone exception: the empty word alone is prefix-free yet its
    # extension collapses every message to the empty output
    eps = scode("ε")
    assert is_free(eps, "prefix")
    assert not is_uniquely_decodable(eps)


# ---------------------------------------------------------------------------
# Ulam subsequence condition

def subsequences_of(entries, m):
    return {sub for sub in itertools.combinations(entries, m)}


def oracle_ulam(code, d):
    k = code.codomain.size
    m = k - d + 1
    seen = {}
    for w in code.codewords:
        for s in subsequences_of(w.entries, m):
            if s in seen and seen[s] != w:
                return False
            seen[s] = w
    return True


def test_ulam_condition_examples():
    single = Code.of_partial_perms(3, ["123"])
    for d in (1, 2, 3):
        assert ulam_subsequence_condition(single, d)
    good = Code.of_partial_perms(3, ["123", "321"])
    assert ulam_subsequence_condition(good, 2)
    bad = Code.of_partial_perms(3, ["123", "132"])
    assert not ulam_subsequence_condition(bad, 2)  # 13 sits in both


def test_ulam_condition_matches_exhaustive_oracle():
    words = ["".join(str(x) for x in p) for p in itertools.permutations("1234")]
    for combo in itertools.combinations(words, 2):
        code = Code.of_partial_perms(4, combo)
        for d in (1, 2, 3, 4):
            assert ulam_subsequence_condition(code, d) == oracle_ulam(code, d)


def test_ulam_condition_preconditions():
    with pytest.raises(ValueError):
        ulam_subsequence_condition(scode("0"), 1)
    with pytest.raises(ValueError):
        ulam_subsequence_condition(Code.of_partial_perms(3, ["12"]), 1)
    with pytest.raises(ValueError):
        ulam_subsequence_condition(Code.of_partial_perms(3, ["123"]), 4)
