"""Strings, partial permutations, and the containment relations between them.

Elements are immutable values over a declared symbol universe: partial
permutations draw distinct symbols from [1..k], strings draw (possibly
repeating) digits from {0, .., r-1}.  The universe is part of an element's
identity: ``253`` over universe 6 and ``253`` over universe 5 are different
objects, and the symbol-comparing relations refuse to mix universes.

Five relations are provided: prefix, subsequence, substring (these compare
symbols and require equal universes) and pattern / substring-pattern (these
compare relative order only, so the left side must be a full permutation).
``ORDERS`` is the one table of them: it maps each order's name to its
containment test on symbol tuples; for a symbol order, to its cover step
(the one-shorter words a word covers, in the order of the deleted
position, which fixes the order of each cover row) and, for prefix and
substring, to the blocks that freeness looks up; and for a pattern order,
to the symbol order whose sub-words it compares by relative order.  The
predicates below, the poset builders and ``codes.is_free`` all read it;
``CODE_RELATIONS`` lists its names, ``STRING_RELATIONS`` and
``PATTERN_RELATIONS`` the two halves.

The elements of one length are enumerated as symbol tuples in
lexicographic order.  ``StringLevel`` and ``SequenceLevel`` hand such a
level to the poset builders: its symbol stream, its element names (where
each symbol is one digit, the digits joined in the same order, with no
element made), and lookups by rank arithmetic both ways: ``key_at``
unranks an index to its symbol tuple and ``find`` ranks an element back.
The element lists ``strings`` and ``partial_permutations`` map over a
level's stream, so each family's order lives in its level class alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Iterable, NamedTuple, Sequence, Union


def require_ints(*values) -> None:
    """Raise ValueError, naming the first bad value, unless every value is a
    plain ``int`` (no ``bool``, float or string): the one int check for the
    sizes, budgets, ranks and symbols a caller or a file supplies."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"need a plain int, not {v!r} ({type(v).__name__})")


# ---------------------------------------------------------------------------
# Size limits: the one error every cap raises, and the sum the caps on
# level sizes are checked with before anything is enumerated.

COUNT_BITS = 64  # a size total is summed exactly only below 2^64, past every cap


class BudgetExceededError(RuntimeError):
    """Raised when a request would pass a size limit: a search's budget,
    ``poset.MAX_VERTICES``, ``poset.MAX_MASK_BITS``, ``poset.MAX_ELEMENTS``,
    ``poset.MAX_LEVELS``, ``codes.MAX_CODEWORDS`` or the interpreter's digit
    limit on printing an exact value."""


def count_above(cap: int, lengths, size, size_bits) -> str | None:
    """The total of ``size(l)`` over ``lengths`` as text when it passes
    ``cap``, else None.  The sum stops once it reaches 2^64, and a level
    whose lower bound ``2^size_bits(l)`` does is never evaluated; such a
    total prints as "at least 2^N".  Levels are nonempty, so the sum also
    stops after ``cap + 1`` of them, at "at least" the total so far.  So a
    huge size or length costs little; every cap must sit below 2^64."""
    total = 0
    for count, l in enumerate(lengths):
        if count > cap:  # the levels summed so far already pass it
            return f"at least {total}"
        bits = size_bits(l)
        if bits >= COUNT_BITS:
            return f"at least 2^{bits}"
        total += size(l)
        if total.bit_length() > COUNT_BITS:
            return f"at least 2^{total.bit_length() - 1}"
    return str(total) if total > cap else None


def factorial_bits(l: int) -> int:
    """An N with 2^N <= l!: exact below 21 and 65 from there (21! > 2^65)."""
    return math.factorial(min(l, 21)).bit_length() - 1


@dataclass(frozen=True)
class Str:
    """A string over the digit alphabet {0, .., universe-1}; symbols may
    repeat and the length may be 0 (the empty string)."""

    symbols: tuple[int, ...]
    universe: int

    def __post_init__(self):
        universe, symbols = self.universe, self.symbols
        if type(universe) is not int or universe < 1:
            raise ValueError("universe size must be an integer >= 1")
        if type(symbols) is not tuple:
            symbols = tuple(symbols)
            object.__setattr__(self, "symbols", symbols)
        for s in symbols:
            if not (type(s) is int and 0 <= s < universe):
                raise ValueError(f"symbol {s!r} outside 0..{universe - 1}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return format_element(self)


@dataclass(frozen=True)
class PartialPermutation:
    """An injective nonempty sequence of symbols from [1..universe]."""

    entries: tuple[int, ...]
    universe: int

    def __post_init__(self):
        universe, entries = self.universe, self.entries
        if type(universe) is not int or universe < 1:
            raise ValueError("universe size must be an integer >= 1")
        if type(entries) is not tuple:
            entries = tuple(entries)
            object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("empty partial permutation")
        if len(set(entries)) != len(entries):
            raise ValueError(f"entries {entries} are not distinct")
        for s in entries:
            if not (type(s) is int and 1 <= s <= universe):
                raise ValueError(f"entry {s!r} outside [1, {universe}]")

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_element(self)

    @property
    def is_full_permutation(self) -> bool:
        """True when the entries are a permutation of the whole universe."""
        return len(self.entries) == self.universe


Element = Union[Str, PartialPermutation]


def symbols_of(x: Element) -> tuple[int, ...]:
    """The symbol tuple of a string or a partial permutation."""
    return x.symbols if isinstance(x, Str) else x.entries


def pattern_of(tau: PartialPermutation) -> PartialPermutation:
    """The full permutation recording the relative order of tau's entries.

    Entry i of the result is the rank of tau's i-th entry among all entries,
    so the result lives in the universe of size len(tau).
    """
    return PartialPermutation(order_pattern(tau.entries), len(tau.entries))


def order_pattern(seq: Sequence[int]) -> tuple[int, ...]:
    """The ranks of seq's distinct entries among themselves, in seq's order:
    ``order_pattern((5, 2, 7)) == (2, 1, 3)``.  One C-level ``map`` looks
    each entry up in a sorted copy behind a placeholder, so the index found
    is the one-based rank; at the lengths the builders reach (at most 8) the
    linear ``index`` scan costs less than a rank dict."""
    order = [None, *sorted(seq)]
    return tuple(map(order.index, seq))


# ---------------------------------------------------------------------------
# The order table.  Each test takes the inner, then the outer symbol tuple;
# a pattern order compares the relative orders of its base order's sub-words.

def _blocks(ts: tuple, m: int):
    return (ts[n : n + m] for n in range(len(ts) - m + 1))


def _subsequence_in(ss: tuple, ts: tuple) -> bool:
    it = iter(ts)  # each membership test consumes ts up to the match
    return all(s in it for s in ss)


def _one_deletions(ts: tuple):
    """The words one deletion makes from ts, deleting position 0 first:
    ``combinations`` gives them from the last position to the first, so
    the reversed list is the order of ``ts[:p] + ts[p+1:]`` over p."""
    return reversed(list(itertools.combinations(ts, len(ts) - 1))) if ts else ()


class Order(NamedTuple):
    """An order's test on (inner, outer) symbol tuples; for a symbol order,
    the one-shorter words a word covers (one per deletion, so a repeat is a
    multiplicity, in a fixed order that fixes each cover row's order) and,
    for prefix and substring, the length-m words inside a word, which
    freeness looks up; for a pattern order, its base order."""

    contains: Callable[[tuple, tuple], bool]
    deletions: Callable[[tuple], Iterable[tuple]] | None = None
    blocks: Callable[[tuple, int], Iterable[tuple]] | None = None
    base: str | None = None


ORDERS = {
    "prefix": Order(lambda ss, ts: ts[: len(ss)] == ss, lambda ts: (ts[:-1],), lambda ts, m: (ts[:m],)),
    "subsequence": Order(_subsequence_in, _one_deletions),
    "substring": Order(lambda ss, ts: ss in _blocks(ts, len(ss)),
                       lambda ts: (ts[1:], ts[:-1]) if len(ts) > 1 else ((),), _blocks),
    "pattern": Order(lambda ss, ts: ss in map(order_pattern, itertools.combinations(ts, len(ss))),
                     base="subsequence"),
    "substring_pattern": Order(lambda ss, ts: ss in map(order_pattern, _blocks(ts, len(ss))),
                               base="substring"),
}
CODE_RELATIONS = tuple(ORDERS)
STRING_RELATIONS = tuple(name for name, o in ORDERS.items() if o.base is None)
PATTERN_RELATIONS = tuple(name for name, o in ORDERS.items() if o.base is not None)


def _related(relation: str, t: Element, u: Element) -> bool:
    """A symbol order's test, on two elements of one type and universe."""
    if type(t) is not type(u):
        raise TypeError(f"cannot relate {type(t).__name__} to {type(u).__name__}")
    if t.universe != u.universe:
        raise ValueError(f"universe mismatch: {t.universe} vs {u.universe}")
    return ORDERS[relation].contains(symbols_of(t), symbols_of(u))


def is_prefix(t: Element, u: Element) -> bool:
    """True iff u = t followed by a possibly empty suffix."""
    return _related("prefix", t, u)


def is_subsequence(sigma: Element, tau: Element) -> bool:
    """True iff sigma's symbols appear in tau in order, not necessarily adjacent."""
    return _related("subsequence", sigma, tau)


def is_substring(sigma: Element, tau: Element) -> bool:
    """True iff sigma occurs in tau as a consecutive block."""
    return _related("substring", sigma, tau)


def _contains_pattern(relation: str, sigma: PartialPermutation, tau: PartialPermutation) -> bool:
    """A pattern order's test; sigma must be a full permutation."""
    if not isinstance(sigma, PartialPermutation) or not sigma.is_full_permutation:
        raise ValueError(f"{sigma} is not a full permutation")
    if not isinstance(tau, PartialPermutation):
        raise TypeError(f"cannot relate {type(sigma).__name__} to {type(tau).__name__}")
    return len(sigma) <= len(tau) and ORDERS[relation].contains(sigma.entries, tau.entries)


def is_pattern_in(sigma: PartialPermutation, tau: PartialPermutation) -> bool:
    """True iff some subsequence of tau has the relative order sigma.

    sigma must be a full permutation; universes need not match since only
    relative order is compared.
    """
    return _contains_pattern("pattern", sigma, tau)


def is_substring_pattern_in(sigma: PartialPermutation, tau: PartialPermutation) -> bool:
    """True iff sigma is the relative order of some consecutive block of tau."""
    return _contains_pattern("substring_pattern", sigma, tau)


# ---------------------------------------------------------------------------
# Levels: what a poset builder hands ``poset.GradedPoset`` for one level.
# A level's keys run in lexicographic order, and its class alone streams,
# ranks and unranks them; the element lists below map over a level.

DIGITS = "0123456789"  # the texts of the one-digit symbols, which name streams join


class Level:
    """The one protocol of a ``poset.GradedPoset`` level.  A subclass holds
    the level's size, trusted until the poset makes the level, and what
    fixes it, and makes nothing until asked: ``keys()`` streams the keys of
    the elements in level order, ``element`` makes the element of a key,
    ``names()`` streams their names in the same order, and three lookups
    make nothing: ``key_at(i)``, the key at index i, ``find(x)``, its
    inverse, the index of element x or None, and ``named``, below, which a
    builder's level answers with ``parse(text)``, the element a name spells
    (ValueError when it spells none)."""

    __slots__ = ("size",)

    def named(self, text: str, name_of):
        """The element that ``name_of`` names ``text``, with or without its
        ``@k`` universe suffix, or None: parsed and found, so nothing is made."""
        try:
            x = self.parse(text)
        except ValueError:
            return None
        name = name_of(x)
        return x if text in (name, name.partition("@")[0]) and self.find(x) is not None else None


class StringLevel(Level):
    """The strings of length l over {0, .., r-1}; a string's index is its
    digits read in base r."""

    __slots__ = ("r", "l")

    def __init__(self, r: int, l: int, size: int):
        self.r, self.l, self.size = r, l, size

    def keys(self):
        return itertools.product(range(self.r), repeat=self.l)

    @property
    def element(self):
        return partial(Str, universe=self.r)

    def names(self):
        if not self.l:
            return iter(("ε",))
        if self.r > 10:  # a symbol past 9 is written in parentheses
            return map(format_element, map(self.element, self.keys()))
        return map("".join, itertools.product(DIGITS[: self.r], repeat=self.l))

    def key_at(self, i: int) -> tuple[int, ...]:
        digits = [0] * self.l
        for t in range(self.l - 1, -1, -1):
            i, digits[t] = divmod(i, self.r)
        return tuple(digits)

    def find(self, x):
        if type(x) is Str and x.universe == self.r and len(x.symbols) == self.l:
            return reduce(lambda i, s: i * self.r + s, x.symbols, 0)
        return None

    def parse(self, text: str) -> Str:
        return parse_str(text, self.r)


class SequenceLevel(Level):
    """The injective l-sequences over [1..k], as partial permutations of
    universe k, named with their universe unless l = k.  In a sequence's
    index, each entry counts the unused entries below it times the number
    of ways to fill the positions after it."""

    __slots__ = ("k", "l")

    def __init__(self, k: int, l: int, size: int):
        self.k, self.l, self.size = k, l, size

    def keys(self):
        return itertools.permutations(range(1, self.k + 1), self.l)

    @property
    def element(self):
        return partial(PartialPermutation, universe=self.k)

    def names(self):
        # poset.MAX_ELEMENTS keeps k <= 8, so every symbol is one digit
        names = map("".join, itertools.permutations(DIGITS[1 : self.k + 1], self.l))
        return names if self.l == self.k else map(f"%s@{self.k}".__mod__, names)

    def key_at(self, i: int) -> tuple[int, ...]:
        unused, key = list(range(1, self.k + 1)), []
        for t in range(self.l):
            below, i = divmod(i, math.perm(self.k - t - 1, self.l - t - 1))
            key.append(unused.pop(below))
        return tuple(key)

    def find(self, x):
        if type(x) is PartialPermutation and x.universe == self.k and len(x.entries) == self.l:
            syms, i = x.entries, 0
            for t, s in enumerate(syms):
                unused_below = s - 1 - sum(u < s for u in syms[:t])
                i += unused_below * math.perm(self.k - t - 1, self.l - t - 1)
            return i
        return None

    def parse(self, text: str) -> PartialPermutation:
        return parse_partial_permutation(text, self.k)


def strings(r: int, l: int) -> list[Str]:
    """All strings of length l over {0, .., r-1}, lexicographically."""
    require_ints(r, l)
    if r < 1 or l < 0:
        raise ValueError("need r >= 1 and l >= 0")
    level = StringLevel(r, l, r**l)
    return list(map(level.element, level.keys()))


def partial_permutations(k: int, l: int) -> list[PartialPermutation]:
    """All injective length-l sequences over [1..k], lexicographically."""
    require_ints(k, l)
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    level = SequenceLevel(k, l, math.perm(k, l))
    return list(map(level.element, level.keys()))


def full_permutations(l: int) -> list[PartialPermutation]:
    """All permutations of [1..l], lexicographically."""
    return partial_permutations(l, l)


# ---------------------------------------------------------------------------
# Textual element syntax: digits when all symbols are <= 9, otherwise
# comma-separated in parentheses; optional '@k' universe suffix.  The empty
# string renders as 'ε'.

def format_element(x: Element, with_universe: bool = False) -> str:
    syms = symbols_of(x)
    if not syms:
        body = "ε"
    elif max(syms) <= 9:
        body = "".join(map(str, syms))
    else:
        body = "(" + ",".join(map(str, syms)) + ")"
    if with_universe:
        return f"{body}@{x.universe}"
    return body


def parse_number(text: str) -> int:
    """An unsigned ASCII decimal, spaces around it allowed: no sign, no
    empty field, no underscore and no non-ASCII digit is coerced."""
    field = text.strip()
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"cannot parse number {text!r}")
    return int(field)


def parse_symbols(text: str) -> tuple[tuple[int, ...], int | None]:
    """Parse element syntax into (symbols, universe-or-None)."""
    text = text.strip()
    universe = None
    if "@" in text:
        body, _, suffix = text.rpartition("@")
        universe = parse_number(suffix)
        text = body.strip()
    if text in ("", "ε", "eps"):
        return (), universe
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        inner = text[1:-1]
        return (tuple(map(parse_number, inner.split(","))) if inner.strip() else ()), universe
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"cannot parse element {text!r}")
    return tuple(int(ch) for ch in text), universe


def parse_str(text: str, universe: int) -> Str:
    syms, declared = parse_symbols(text)
    if declared is not None and declared != universe:
        raise ValueError(f"declared universe {declared} != expected {universe}")
    return Str(syms, universe)


def parse_partial_permutation(text: str, universe: int | None = None) -> PartialPermutation:
    """Parse a partial permutation; without an explicit or '@' universe the
    entries are taken to be a full permutation."""
    syms, declared = parse_symbols(text)
    if universe is not None and declared is not None and universe != declared:
        raise ValueError(f"declared universe {declared} != expected {universe}")
    k = universe if universe is not None else declared
    if k is None:
        k = len(syms)
    return PartialPermutation(syms, k)
