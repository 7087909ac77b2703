"""The benchmark's own answers, computed without posetkraft.

Level sizes and degrees come from closed forms, comparability from the
definitions of the orders, and code properties from integer arithmetic.
A wrong answer from the package therefore cannot be confirmed by the
package itself.  Elements are plain tuples of ints: digits 0..r-1 for
strings, values 1..k for (partial) permutations, sorted values for subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own answer."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# The orders, from their definitions

def is_prefix(a, b) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def is_subsequence(a, b) -> bool:
    it = iter(b)
    return all(any(x == y for y in it) for x in a)


def is_substring(a, b) -> bool:
    return any(b[i : i + len(a)] == a for i in range(len(b) - len(a) + 1))


def order_pattern(seq) -> tuple:
    """Relative order of distinct values, as a permutation of 1..len."""
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


def is_pattern(sigma, tau) -> bool:
    return any(order_pattern(sub) == sigma for sub in combinations(tau, len(sigma)))


def is_substring_pattern(sigma, tau) -> bool:
    m = len(sigma)
    return any(order_pattern(tau[i : i + m]) == sigma for i in range(len(tau) - m + 1))


SYMBOL_ORDERS = {"prefix": is_prefix, "subsequence": is_subsequence, "substring": is_substring}
PATTERN_ORDERS = {"pattern": is_pattern, "substring_pattern": is_substring_pattern}


def deletions(syms: tuple, relation: str) -> list:
    """One-symbol deletions that the cover relation allows, with repeats."""
    if relation == "prefix":
        return [syms[:-1]]
    if relation == "subsequence":
        return [syms[:i] + syms[i + 1 :] for i in range(len(syms))]
    if len(syms) == 1:  # substring: drop the first or the last symbol
        return [()]
    return [syms[1:], syms[:-1]]


def insertions(syms: tuple, relation: str, alphabet) -> set:
    """Distinct one-symbol extensions that the cover relation allows."""
    if relation == "prefix":
        return {syms + (a,) for a in alphabet}
    if relation == "subsequence":
        return {syms[:i] + (a,) + syms[i:] for a in alphabet for i in range(len(syms) + 1)}
    return {(a,) + syms for a in alphabet} | {syms + (a,) for a in alphabet}


def element_name(syms: tuple, universe: int | None = None, subset: bool = False) -> str:
    """The text syntax: digits, '(..,..)' above 9, 'ε', '{..}' for subsets,
    and an '@k' suffix on permutations shorter than their universe."""
    if subset:
        return "{" + ",".join(map(str, syms)) + "}" if syms else "∅"
    if not syms:
        body = "ε"
    elif max(syms) <= 9:
        body = "".join(map(str, syms))
    else:
        body = "(" + ",".join(map(str, syms)) + ")"
    if universe is not None and len(syms) != universe:
        body += f"@{universe}"
    return body


def parse_name(text: str) -> tuple:
    text = text.split("@")[0]
    if text in ("ε", "∅"):
        return ()
    if text[0] in "({":
        return tuple(int(v) for v in text[1:-1].split(","))
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------------------
# Poset families: sizes, degrees and covers in closed form

class Family:
    """One poset instance as the builders define it, addressed by position
    (level index from the bottom); ranks are first_rank + position."""

    def __init__(self, kind: str, size: int, relation: str | None = None, top: int | None = None):
        self.kind, self.size, self.relation, self.top = kind, size, relation, top
        self.first_rank = 1 if kind == "pperm" else 0
        self.num_levels = {
            "str": (top or 0) + 1,
            "pperm": size,
            "pattern": 2 * size - 1,
            "subsets": size + 1,
        }[kind]
        base = {"pattern": "subsequence", "substring_pattern": "substring"}
        self.base = base.get(relation, relation)

    def __repr__(self):
        extra = f", L={self.top}" if self.kind == "str" else ""
        rel = f", {self.relation}" if self.relation else ""
        return f"{self.kind}({self.size}{rel}{extra})"

    # -- levels ---------------------------------------------------------------

    def length(self, pos: int) -> int:
        if self.kind == "pperm":
            return pos + 1
        if self.kind == "pattern":
            return pos // 2 + 1 if pos % 2 == 0 else (pos + 1) // 2
        return pos

    def universe(self, pos: int) -> int:
        if self.kind == "pattern":
            return self.length(pos) + pos % 2
        return self.size

    def position_of(self, name: str) -> int:
        """Level position of an element name of this family."""
        l = len(parse_name(name))
        if self.kind == "pperm":
            return l - 1
        if self.kind == "pattern":
            return 2 * l - 1 if "@" in name else 2 * l - 2
        return l

    def level_size(self, pos: int) -> int:
        l, n = self.length(pos), self.universe(pos)
        if self.kind == "str":
            return n**l
        if self.kind == "subsets":
            return math.comb(n, l)
        return math.perm(n, l)

    def total_size(self) -> int:
        return sum(self.level_size(p) for p in range(self.num_levels))

    def first_last(self, pos: int) -> tuple[tuple, tuple]:
        """Lexicographically first and last elements of a level."""
        l, n = self.length(pos), self.universe(pos)
        if self.kind == "str":
            return (0,) * l, (n - 1,) * l
        if self.kind == "subsets":
            return tuple(range(1, l + 1)), tuple(range(n - l + 1, n + 1))
        return tuple(range(1, l + 1)), tuple(range(n, n - l, -1))

    def name(self, pos: int, syms: tuple) -> str:
        if self.kind == "subsets":
            return element_name(syms, subset=True)
        if self.kind == "str":
            return element_name(syms)
        return element_name(syms, self.universe(pos))

    def random_element(self, rng, pos: int) -> tuple:
        l, n = self.length(pos), self.universe(pos)
        if self.kind == "str":
            return tuple(rng.randrange(n) for _ in range(l))
        if self.kind == "subsets":
            return tuple(sorted(rng.sample(range(1, n + 1), l)))
        return tuple(rng.sample(range(1, n + 1), l))

    # -- covers ---------------------------------------------------------------

    def degrees(self, pos: int) -> tuple[int, int]:
        """(up-degree of level pos, down-degree of level pos+1), with
        multiplicity, from the counting argument for each family."""
        l = self.length(pos)
        if self.kind == "subsets":
            return self.size - l, l + 1
        if self.kind == "pattern":
            if pos % 2 == 0:  # perms of [l] -> helpers: each helper covers its pattern
                return l + 1, 1
            return (l + 1, l + 1) if self.base == "subsequence" else (2, 2)
        free = self.size if self.kind == "str" else self.size - l  # symbols that can be added
        if self.base == "prefix":
            return free, 1
        if self.base == "subsequence":
            return free * (l + 1), l + 1
        return (free, 1) if l == 0 else (2 * free, 2)

    def edges(self, pos: int) -> int:
        return self.degrees(pos)[0] * self.level_size(pos)

    def lower_covers(self, pos: int, syms: tuple) -> list:
        """Elements of level pos-1 covered by syms, with multiplicity."""
        if self.kind == "subsets":
            return [syms[:i] + syms[i + 1 :] for i in range(len(syms))]
        if self.kind == "pattern" and pos % 2 == 1:
            return [order_pattern(syms)]
        return deletions(syms, self.base)

    def upper_covers(self, pos: int, syms: tuple) -> set:
        """Distinct elements of level pos+1 that cover syms."""
        if self.kind == "subsets":
            return {tuple(sorted(syms + (v,))) for v in range(1, self.size + 1) if v not in syms}
        if self.kind == "pattern":
            if pos % 2 == 0:  # helpers over [l+1] whose pattern is syms
                return {tuple(x + (x >= v) for x in syms) for v in range(1, len(syms) + 2)}
            missing = set(range(1, len(syms) + 2)) - set(syms)
            return insertions(syms, self.base, missing)
        if self.kind == "str":
            return insertions(syms, self.base, range(self.size))
        unused = [a for a in range(1, self.size + 1) if a not in syms]
        return insertions(syms, self.base, unused)

    def below(self, pa: int, a: tuple, pb: int, b: tuple) -> bool:
        """Strict comparability from the order's definition.  Pattern posets
        are only queried between permutation (even) positions."""
        if pa >= pb:
            return False
        if self.kind == "subsets":
            return set(a) < set(b)
        if self.kind == "pattern":
            return PATTERN_ORDERS[self.relation](a, b)
        return SYMBOL_ORDERS[self.base](a, b)

    def down_from(self, pos: int, members, target: int) -> set:
        """Everything at level target below some member of level pos."""
        current = set(members)
        for p in range(pos, target, -1):
            current = {x for y in current for x in self.lower_covers(p, y)}
        return current


# ---------------------------------------------------------------------------
# Codes

def kraft_fraction(params, r: int) -> Fraction:
    top = len(params) - 1
    return Fraction(sum(a * r ** (top - i) for i, a in enumerate(params)), r**top)


def greedy_fail_level(params, r: int):
    """First length at which the lengths so far need more than r^l leaves,
    so a greedy prefix code runs out of strings; None when it never does."""
    used = 0
    for l, a in enumerate(params):
        used = used * r + a
        if used > r**l:
            return l
    return None


def canonical_code(params, r: int) -> list:
    """The canonical prefix code: consecutive integers at each length."""
    words, value = [], 0
    for l, a in enumerate(params):
        for _ in range(a):
            words.append(tuple(value // r ** (l - 1 - i) % r for i in range(l)))
            value += 1
        value *= r
    return words


def histogram(words) -> list:
    counts = [0] * (max((len(w) for w in words), default=-1) + 1)
    for w in words:
        counts[len(w)] += 1
    return counts


def sorted_neighbours_prefix_free(words) -> bool:
    """A word that is a prefix of another is a prefix of its successor in
    sorted order, so checking neighbours decides prefix-freeness."""
    ordered = sorted(words)
    return all(not is_prefix(u, v) for u, v in zip(ordered, ordered[1:]))


def first_containment(words, relation: str):
    """First ordered pair (i, j), i != j, with words[i] inside words[j]."""
    rel = SYMBOL_ORDERS.get(relation) or PATTERN_ORDERS[relation]
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            if i != j and rel(a, b):
                return i, j
    return None


def partial_perm_density(params, k: int) -> Fraction:
    return sum(
        (Fraction(a, math.perm(k, l)) for l, a in enumerate(params) if l >= 1),
        Fraction(0),
    )


def full_perm_density(params) -> Fraction:
    return sum(
        (Fraction(a, math.factorial(l)) for l, a in enumerate(params) if l >= 1),
        Fraction(0),
    )


def random_tree_profile(rng, r: int, leaves: int, max_depth: int) -> list:
    """Leaf depths of a random full r-ary tree, as a length histogram whose
    Kraft sum is exactly 1."""
    depths = [0]
    while len(depths) < leaves:
        splittable = [i for i, d in enumerate(depths) if d < max_depth]
        d = depths.pop(rng.choice(splittable))
        depths.extend([d + 1] * r)
    return histogram([(0,) * d for d in depths])
