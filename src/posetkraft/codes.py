"""Codes into strings and permutations.

A code is an injective assignment of codewords to source symbols 1..n; only
the codeword list is stored.  Three codomains are supported: strings over a
digit alphabet of size r, partial permutations over [1..k], and full
permutations of every size up to k (the codomain where the pattern relations
make sense).  ``CODOMAINS`` is the one table of them, keyed by codomain
kind: the size key of the JSON form, the codeword parser and membership
test, the orders freeness is decided under, the code constant's label, the
level sizes, the codewords of each length and the lengths a parameter
sequence may use.  The orders themselves live in ``perm.ORDERS``.

``ParameterSequence`` is the one count vector, dense as given: a code's
length histogram or a poset's level counts.  Each code
constant is ``density`` against those level sizes, the sum
``lym.lym_number`` takes over a poset's levels, as an exact rational.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .perm import (
    CODE_RELATIONS,
    ORDERS,
    STRING_RELATIONS,
    PartialPermutation,
    Str,
    format_element,
    full_permutations,
    parse_partial_permutation,
    parse_str,
    partial_permutations,
    require_ints,
    strings,
    symbols_of,
)
from .poset import BudgetExceededError, count_above, factorial_bits

MAX_CODEWORDS = 1_000_000  # the most words in one Codomain.codewords listing, and the longest word


@dataclass(frozen=True)
class Codomain:
    """Output space of a code: kind plus its size parameter (r or k)."""

    kind: str  # "string" | "partial_perm" | "perm_pattern"
    size: int

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in CODOMAINS:
            raise ValueError(f"unknown codomain kind {self.kind!r}")
        if type(self.size) is not int or self.size < 1:
            raise ValueError("codomain size must be an integer >= 1")

    def codewords(self, length: int | None = None) -> list:
        """The codewords of one length, or of every length when the support
        is bounded: by length, then lexicographically.  Raises
        BudgetExceededError, before any word is built, when the listing has
        more than ``MAX_CODEWORDS`` words or a word longer than that."""
        entry = CODOMAINS[self.kind]
        lo, hi = entry.support(self.size)
        if length is not None:
            require_ints(length)
        if length is None and hi is not None:
            lengths = range(lo, hi + 1)
        elif length is not None and lo <= length and (hi is None or length <= hi):
            lengths = (length,)
        else:
            support = f"{lo} and up" if hi is None else f"{lo}..{hi}"
            asked = "so name one" if length is None else f"not {length}"
            raise ValueError(f"a {self.kind} codomain of size {self.size} has codeword lengths {support}, {asked}")
        many = count_above(MAX_CODEWORDS, lengths, lambda l: entry.level_size(l, self.size),
                           lambda l: entry.size_bits(l, self.size))
        if many is not None:
            raise BudgetExceededError(f"the listing has {many} codewords, above the cap of "
                                      f"{MAX_CODEWORDS}; ask for a smaller size or length")
        if lengths[-1] > MAX_CODEWORDS:
            raise BudgetExceededError(f"the listing has a codeword of length {lengths[-1]}, above the "
                                      f"cap of {MAX_CODEWORDS}; ask for a smaller length")
        return [w for l in lengths for w in entry.words(l, self.size)]


@dataclass(frozen=True)
class Code:
    """An injective code given by its ordered, duplicate-free codeword list."""

    codomain: Codomain
    codewords: tuple

    def __post_init__(self):
        object.__setattr__(self, "codewords", tuple(self.codewords))
        if len(set(self.codewords)) != len(self.codewords):
            raise ValueError("codewords must be distinct (codes are injective)")
        kind, size = CODOMAINS[self.codomain.kind], self.codomain.size
        for w in self.codewords:
            if not kind.holds(w, size):
                raise ValueError(f"{w!r} is not {kind.members.format(size)}")

    def __len__(self) -> int:
        return len(self.codewords)

    @classmethod
    def of_strings(cls, r: int, texts: Sequence[str]) -> "Code":
        return _parse_code(Codomain("string", r), texts)

    @classmethod
    def of_partial_perms(cls, k: int, texts: Sequence[str]) -> "Code":
        return _parse_code(Codomain("partial_perm", k), texts)

    @classmethod
    def of_full_perms(cls, k: int, texts: Sequence[str]) -> "Code":
        return _parse_code(Codomain("perm_pattern", k), texts)


def _parse_code(codomain: Codomain, texts: Sequence[str]) -> Code:
    return Code(codomain, tuple(CODOMAINS[codomain.kind].parse(t, codomain.size) for t in texts))


def code_to_json_dict(code: Code) -> dict:
    dom = code.codomain
    dom_json = {"kind": dom.kind, CODOMAINS[dom.kind].size_key: dom.size}
    return {"codomain": dom_json, "codewords": [format_element(w) for w in code.codewords]}


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} key")
    return obj[key]


def code_from_json_dict(data: dict) -> Code:
    if not isinstance(data, dict) or not isinstance(data.get("codomain"), dict):
        raise ValueError('a code file holds {"codomain": {...}, "codewords": [...]}')
    dom = data["codomain"]
    kind = _required(dom, "kind", "codomain")
    if not isinstance(kind, str) or kind not in CODOMAINS:
        raise ValueError(f"unknown codomain kind {kind!r}")
    size = _required(dom, CODOMAINS[kind].size_key, "codomain")
    texts = _required(data, "codewords", "code file")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("codewords must be a list of element strings")
    return _parse_code(Codomain(kind, size), texts)


# ---------------------------------------------------------------------------
# Parameter sequences and exact constants

@dataclass(frozen=True)
class ParameterSequence:
    """Non-negative counts by level index, stored as given: codewords by
    length, or members by level position of any graded poset."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.counts, (Mapping, Set)):
            raise ValueError("counts are read in level order, not from a mapping or a set; "
                             "use ParameterSequence.at_ranks for counts by rank")
        counts = tuple(self.counts)
        for c in counts:
            if type(c) is not int or c < 0:
                raise ValueError("counts must be non-negative integers")
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, j: int) -> int:
        return self.counts[j] if 0 <= j < len(self.counts) else 0

    def __iter__(self):
        return iter(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def at_ranks(cls, poset, by_rank: Mapping[int, int]) -> "ParameterSequence":
        dense = [0] * poset.num_levels
        for rank, count in by_rank.items():
            dense[poset.position(rank)] = count
        return cls(tuple(dense))

    def by_rank(self, poset) -> dict[int, int]:
        return {poset.rank_of_position(p): c for p, c in enumerate(self.counts) if c != 0}


def parameter_sequence(code: Code) -> ParameterSequence:
    """Length histogram of the codewords."""
    counts = [0] * (max((len(w) for w in code.codewords), default=-1) + 1)
    for w in code.codewords:
        counts[len(w)] += 1
    return ParameterSequence(tuple(counts))


def density(counts: Sequence[int], sizes: Sequence[int]) -> Fraction:
    """Exact sum of count / size over paired entries: the Kraft number against
    r^l, the partial and full permutation constants against k!/(k-l)! and l!,
    and the LYM number against a graded poset's level sizes.

    The terms are summed in balanced halves, each sum kept in lowest terms,
    so no operand outgrows the part sum it holds; one lcm of every size
    would cost about L^3 digit operations on L dense terms."""
    return Fraction(*_sum_halves(list(zip(counts, sizes, strict=True))))


def _sum_halves(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions a/n of the (a, n) pairs, in lowest terms.
    For p/q + s/t in lowest terms and g = gcd(q, t), a common factor of the
    numerator p(t/g) + s(q/g) and the denominator (q/g)t divides g
    (Henrici), so dividing by its gcd with g reduces each merge."""
    if len(terms) < 2:
        a, n = terms[0] if terms else (0, 1)
        g = math.gcd(a, n)
        return a // g, n // g
    mid = len(terms) // 2
    (p, q), (s, t) = _sum_halves(terms[:mid]), _sum_halves(terms[mid:])
    g = math.gcd(q, t)
    num = p * (t // g) + s * (q // g)
    g2 = math.gcd(num, g)
    return num // g2, q // g * (t // g2)


def code_constant(kind: str, params, size: int) -> Fraction:
    """The density of a parameter sequence against a codomain's level sizes;
    the size must be valid and the sequence use only supported lengths."""
    require_ints(size)
    Codomain(kind, size)  # the kind and size rule of every codomain
    entry, seq = CODOMAINS[kind], ParameterSequence(params)
    lo, hi = entry.support(size)
    counts = seq.counts[: None if hi is None else hi + 1]  # zeros past hi are dropped
    if any(seq.counts[:lo]) or any(seq.counts[len(counts):]):
        raise ValueError(f"parameter support must lie within lengths {lo}..{hi}")
    used = [l for l, a in enumerate(counts) if a]  # a zero count adds nothing, but its size costs
    return density([counts[l] for l in used], entry.level_sizes(used, size))


def kraft_number(params, r: int) -> Fraction:
    """Sum of codeword-length densities a_i / r^i, exact."""
    return code_constant("string", params, r)


def partial_perm_constant(params, k: int) -> Fraction:
    """Density sum against the counts of injective l-sequences over [1..k]:
    sum of a_l / (C(k,l) * l!)."""
    return code_constant("partial_perm", params, k)


def full_perm_constant(params, k: int) -> Fraction:
    """Density sum against the counts of full permutations: sum of a_l / l!."""
    return code_constant("perm_pattern", params, k)


# ---------------------------------------------------------------------------
# The codomain table

class CodomainKind(NamedTuple):
    """Everything that differs between the codomain kinds."""

    size_key: str  # "r" or "k" in the JSON form
    parse: Callable  # (codeword text, size) -> codeword
    holds: Callable  # (codeword, size) -> membership
    members: str  # what the members are, formatted with the size
    orders: tuple[str, ...]  # the orders is_free accepts
    label: str  # the code constant's label
    size_ratio: Callable  # (shorter, longer, size) -> level_size(longer) / level_size(shorter)
    size_bits: Callable  # (length, size) -> an N with 2^N <= level_size, found cheaply
    words: Callable  # (length, size) -> the codewords of that length, lexicographically
    support: Callable  # size -> (shortest, longest or None) parameter length

    def level_size(self, length: int, size: int) -> int:
        """The number of codewords of one length."""
        return self.size_ratio(0, length, size)

    def level_sizes(self, lengths: Sequence[int], size: int) -> list[int]:
        """The level sizes at increasing lengths, as running products: each
        is the one before times the ratio between them, so a dense run of
        lengths costs one small multiplication each, not a fresh power."""
        sizes, shorter, n = [], 0, 1  # every codomain has one word of length 0
        for length in lengths:
            n *= self.size_ratio(shorter, length, size)
            sizes.append(n)
            shorter = length
        return sizes


CODOMAINS = {
    "string": CodomainKind(
        "r", parse_str, lambda w, r: isinstance(w, Str) and w.universe == r,
        "a string over a {}-digit alphabet", STRING_RELATIONS, "K",
        lambda l0, l, r: r ** (l - l0), lambda l, r: (r.bit_length() - 1) * l,
        lambda l, r: strings(r, l), lambda r: (0, None),
    ),
    "partial_perm": CodomainKind(
        "k", parse_partial_permutation,
        lambda w, k: isinstance(w, PartialPermutation) and w.universe == k,
        "a partial permutation over [1..{}]", STRING_RELATIONS, "P_partial",
        lambda l0, l, k: math.perm(k - l0, l - l0),  # k!/(k-l)! over k!/(k-l0)!
        lambda l, k: factorial_bits(l),  # k!/(k-l)! >= l!
        lambda l, k: partial_permutations(k, l), lambda k: (1, k),
    ),
    "perm_pattern": CodomainKind(
        "k", lambda text, k: parse_partial_permutation(text),
        lambda w, k: isinstance(w, PartialPermutation) and w.is_full_permutation and len(w) <= k,
        "a full permutation of size <= {}", CODE_RELATIONS, "P_full",
        lambda l0, l, k: math.perm(l, l - l0), lambda l, k: factorial_bits(l),  # l!/l0!
        lambda l, k: full_permutations(l), lambda k: (1, k),
    ),
}


# ---------------------------------------------------------------------------
# Freeness

@dataclass(frozen=True)
class FreenessResult:
    free: bool
    witness: tuple | None  # (inner, outer): inner sits inside outer

    def __bool__(self) -> bool:
        return self.free


def is_free(code: Code, relation: str) -> FreenessResult:
    """True iff no codeword sits inside a different codeword under the relation.

    Codewords compare as symbol tuples under the order's ``perm.ORDERS``
    test, so full permutations of any sizes compare as words over [1..k]
    under the symbol orders.  On failure the witness pair is (inner, outer)
    for the least offending (inner index, outer index) pair in codeword order.

    Under all five orders a word sits only inside words at least as long,
    and inside one of the same length only when the two are equal; codewords
    are distinct, so only strictly shorter inner words are tried.  When the
    order's entry gives ``blocks`` (prefix and substring), each word's blocks
    at the codeword lengths below its own are looked up in one table of the
    codewords: O(sum of L*D) symbols hashed for prefix and O(sum of L^2*D)
    for substring, with D distinct codeword lengths, so O(sum of L) for
    prefix on a fixed-length code.  The other orders (subsequence and the
    pattern orders) test each pair of a shorter and a longer word, at most
    n^2 pair tests.
    """
    kind = code.codomain.kind
    if relation not in ORDERS:
        raise ValueError(f"unknown relation {relation!r}")
    if relation not in CODOMAINS[kind].orders:
        homes = " or ".join(name for name, c in CODOMAINS.items() if relation in c.orders)
        raise ValueError(f"relation {relation!r} needs a {homes} codomain, not {kind!r}")
    words = [symbols_of(w) for w in code.codewords]
    lengths = [len(w) for w in words]
    witness = None
    blocks = ORDERS[relation].blocks
    if blocks:
        index = {w: i for i, w in enumerate(words)}
        shorter = sorted(set(lengths))
        for j, outer in enumerate(words):
            for m in shorter:
                if m >= len(outer):
                    break
                for block in blocks(outer, m):
                    i = index.get(block)
                    if i is not None and (witness is None or (i, j) < witness):
                        witness = (i, j)
    else:
        contains = ORDERS[relation].contains
        longer = {m: [j for j, l in enumerate(lengths) if l > m] for m in set(lengths)}
        witness = next(
            ((i, j) for i, a in enumerate(words) for j in longer[lengths[i]] if contains(a, words[j])),
            None,
        )
    if witness is None:
        return FreenessResult(True, None)
    i, j = witness
    return FreenessResult(False, (code.codewords[i], code.codewords[j]))


# ---------------------------------------------------------------------------
# Extension, decoding, unique decodability

def encode(code: Code, message: Sequence[int]):
    """Concatenate the codewords selected by 1-based source indices."""
    message = tuple(message)
    require_ints(*message)
    words = []
    for s in message:
        if not 1 <= s <= len(code.codewords):
            raise ValueError(f"source symbol {s} outside 1..{len(code.codewords)}")
        words.append(code.codewords[s - 1])
    joined = tuple(itertools.chain.from_iterable(symbols_of(w) for w in words))
    kind, size = code.codomain.kind, code.codomain.size
    if kind == "string":
        return Str(joined, size)
    if len(set(joined)) != len(joined) or not joined:
        raise ValueError("concatenation leaves codomain")
    return PartialPermutation(joined, size)


def decode_prefix_free(code: Code, output) -> tuple[int, ...]:
    """Invert the extension of a prefix-free code by left-to-right scanning."""
    freeness = is_free(code, "prefix")
    if not freeness:
        inner, outer = freeness.witness
        raise ValueError(
            f"code is not prefix-free: {format_element(inner)} is a prefix of {format_element(outer)}"
        )
    if any(len(w) == 0 for w in code.codewords):
        raise ValueError("a code containing the empty codeword cannot be decoded")
    lookup = {symbols_of(w): i + 1 for i, w in enumerate(code.codewords)}
    message = []
    block: tuple[int, ...] = ()
    for s in symbols_of(output):
        block += (s,)
        if block in lookup:
            message.append(lookup[block])
            block = ()
    if block:
        raise ValueError(f"unparseable residue {block} at end of output")
    return tuple(message)


def is_uniquely_decodable(code: Code) -> bool:
    """Decide extension injectivity by the dangling-suffix iteration
    (Sardinas and Patterson, 1953).

    Starting from the suffixes that witness one codeword being a proper
    prefix of another, repeatedly split dangling suffixes against codewords;
    the code fails to be uniquely decodable exactly when some dangling
    suffix is itself a codeword.

    The codewords that extend a suffix d form one run of the sorted codeword
    list, found by bisection, and the codewords that are prefixes of d are
    looked up at the D codeword lengths below |d|.  Each dangling suffix so
    costs O(L * (log n + D)) plus the suffixes it leaves, not a scan over
    every codeword, and the memory stays O(sum of L).
    """
    if code.codomain.kind != "string":
        raise ValueError("unique decodability is defined for string codomains")
    words = {w.symbols for w in code.codewords}
    if not words:
        return True
    if () in words:
        # appending the empty codeword changes the message but not the output
        return False
    ordered = sorted(words)
    lengths = sorted({len(w) for w in words})

    def danglings(d):
        """The suffixes left when d and a codeword, one a proper prefix of
        the other, are split against each other."""
        k = len(d)
        i = bisect.bisect_left(ordered, d)
        while i < len(ordered) and ordered[i][:k] == d:
            if len(ordered[i]) > k:
                yield ordered[i][k:]
            i += 1
        for m in lengths:
            if m >= k:
                break
            if d[:m] in words:
                yield d[m:]

    # the suffixes left by codeword pairs, one a proper prefix of the other
    seen = {w for u in words for w in danglings(u)}
    work = list(seen)
    while work:
        d = work.pop()
        if d in words:
            return False
        for w in danglings(d):
            if w not in seen:
                seen.add(w)
                work.append(w)
    return True


def brute_force_uniquely_decodable(code: Code, max_total_length: int = 12) -> bool:
    """Extension injectivity checked by enumerating messages outright.

    All messages whose encoded output (and message length) stay within the
    bound are generated breadth-first; any two distinct messages hitting the
    same output is a counterexample.  The answer is exact only when every
    ambiguity of the code has an output of at most ``max_total_length``
    symbols; a code whose shortest ambiguity is longer may get True.
    """
    if code.codomain.kind != "string":
        raise ValueError("unique decodability is defined for string codomains")
    words = [w.symbols for w in code.codewords]
    if not words:
        return True
    outputs: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for _ in range(max_total_length):
        grown = []
        for msg, out in frontier:
            for i, w in enumerate(words, start=1):
                new_out = out + w
                if len(new_out) > max_total_length:
                    continue
                new_msg = msg + (i,)
                if new_out in outputs:
                    return False
                outputs[new_out] = new_msg
                grown.append((new_msg, new_out))
        frontier = grown
        if not frontier:
            break
    return True


# ---------------------------------------------------------------------------
# Ulam distance condition

def _lcs_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(cur[j], prev[j + 1]))
        prev = cur
    return prev[-1]


def ulam_subsequence_condition(code: Code, d: int) -> bool:
    """For a fixed-length code of full-length partial permutations: is every
    length-(k-d+1) string a subsequence of at most one codeword?

    Equivalent to minimum Ulam distance >= d.  Strings with repeated symbols
    are never subsequences of a partial permutation, so it suffices that no
    two codewords share a common subsequence of length k-d+1.
    """
    if code.codomain.kind != "partial_perm":
        raise ValueError("the Ulam condition applies to partial_perm codomains")
    k = code.codomain.size
    if any(len(w) != k for w in code.codewords):
        raise ValueError("the Ulam condition applies to codes of full-length codewords")
    require_ints(d)
    if not 1 <= d <= k:
        raise ValueError(f"need 1 <= d <= {k}")
    target = k - d + 1
    words = [w.entries for w in code.codewords]
    for a, b in itertools.combinations(words, 2):
        if _lcs_length(a, b) >= target:
            return False
    return True
