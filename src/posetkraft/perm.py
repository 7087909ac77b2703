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
(the one-shorter words a word covers) and, for prefix and substring, to the
blocks that freeness looks up; and for a pattern order, to the symbol order
whose sub-words it compares by relative order.  The predicates below, the
poset builders and ``codes.is_free`` all read it; ``CODE_RELATIONS`` lists
its names, ``STRING_RELATIONS`` and ``PATTERN_RELATIONS`` the two halves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union


def are_ints(values) -> bool:
    """True when every value is a plain ``int`` (no ``bool``, float or
    string): the one check for the sizes, counts, ranks and multiplicities
    a caller or a file supplies.  It runs at C speed over many values."""
    return set(map(type, values)) <= {int}


def require_ints(*values) -> None:
    """Raise ValueError unless every value is a plain ``int``: the check,
    made once per call, for the sizes, budgets and ranks a caller passes."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"need a plain int, not {v!r} ({type(v).__name__})")


@dataclass(frozen=True)
class Str:
    """A string over the digit alphabet {0, .., universe-1}; symbols may
    repeat and the length may be 0 (the empty string)."""

    symbols: tuple[int, ...]
    universe: int

    def __post_init__(self):
        if type(self.universe) is not int or self.universe < 1:
            raise ValueError("universe size must be an integer >= 1")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not (type(s) is int and 0 <= s < self.universe):
                raise ValueError(f"symbol {s!r} outside 0..{self.universe - 1}")

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
        if type(self.universe) is not int or self.universe < 1:
            raise ValueError("universe size must be an integer >= 1")
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("empty partial permutation")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError(f"entries {self.entries} are not distinct")
        for s in self.entries:
            if not (type(s) is int and 1 <= s <= self.universe):
                raise ValueError(f"entry {s!r} outside [1, {self.universe}]")

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
    ``order_pattern((5, 2, 7)) == (2, 1, 3)``."""
    order = sorted(seq)
    return tuple(order.index(e) + 1 for e in seq)


# ---------------------------------------------------------------------------
# The order table.  Each test takes the inner, then the outer symbol tuple;
# a pattern order compares the relative orders of its base order's sub-words.

def _blocks(ts: tuple, m: int):
    return (ts[n : n + m] for n in range(len(ts) - m + 1))


def _subsequence_in(ss: tuple, ts: tuple) -> bool:
    it = iter(ts)  # each membership test consumes ts up to the match
    return all(s in it for s in ss)


class Order(NamedTuple):
    """An order's test on (inner, outer) symbol tuples; for a symbol order,
    the one-shorter words a word covers (one per deletion, so a repeat is a
    multiplicity) and, for prefix and substring, the length-m words inside a
    word, which freeness looks up; for a pattern order, its base order."""

    contains: Callable[[tuple, tuple], bool]
    deletions: Callable[[tuple], Iterable[tuple]] | None = None
    blocks: Callable[[tuple, int], Iterable[tuple]] | None = None
    base: str | None = None


ORDERS = {
    "prefix": Order(lambda ss, ts: ts[: len(ss)] == ss, lambda ts: (ts[:-1],), lambda ts, m: (ts[:m],)),
    "subsequence": Order(_subsequence_in, lambda ts: (ts[:p] + ts[p + 1 :] for p in range(len(ts)))),
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


def is_prefix(t: Element, u: Element, proper: bool = False) -> bool:
    """True iff u = t followed by a suffix (required nonempty when proper)."""
    return _related("prefix", t, u) and not (proper and len(t) == len(u))


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
# Enumeration (always in lexicographic order)

def strings(r: int, l: int) -> list[Str]:
    """All strings of length l over {0, .., r-1}, lexicographically."""
    require_ints(r, l)
    if r < 1 or l < 0:
        raise ValueError("need r >= 1 and l >= 0")
    return [Str(p, r) for p in itertools.product(range(r), repeat=l)]


def partial_permutations(k: int, l: int) -> list[PartialPermutation]:
    """All injective length-l sequences over [1..k], lexicographically."""
    require_ints(k, l)
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    return [PartialPermutation(p, k) for p in itertools.permutations(range(1, k + 1), l)]


def full_permutations(l: int) -> list[PartialPermutation]:
    """All permutations of [1..l], lexicographically."""
    return partial_permutations(l, l)


def all_partial_permutations(k: int) -> Iterator[PartialPermutation]:
    """Every partial permutation over [1..k], by length then lexicographically."""
    require_ints(k)
    for l in range(1, k + 1):
        yield from partial_permutations(k, l)


def all_full_permutations(k: int) -> Iterator[PartialPermutation]:
    """Every full permutation of [1..l] for l = 1..k, by length then lexicographically."""
    require_ints(k)
    for l in range(1, k + 1):
        yield from full_permutations(l)


def enumerate_elements(kind: str, k: int, l: int | None = None) -> list[Element]:
    """Dispatching enumerator: kind 'T' (injective sequences over [1..k]),
    'S' (full permutations, all sizes up to k), or 'str' (strings over a
    k-digit alphabet).

    With l=None the permutation kinds return the whole union over lengths.
    """
    require_ints(k)
    if kind in ("T", "S") and k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if kind == "T":
        if l is None:
            return list(all_partial_permutations(k))
        return partial_permutations(k, l)
    if kind == "S":
        if l is None:
            return list(all_full_permutations(k))
        if l > k:
            raise ValueError(f"need l <= k, got l={l}, k={k}")
        return full_permutations(l)
    if kind == "str":
        if l is None:
            raise ValueError("string enumeration needs an explicit length")
        return strings(k, l)
    raise ValueError(f"unknown element kind {kind!r}")


# ---------------------------------------------------------------------------
# Textual element syntax: digits when all symbols are <= 9, otherwise
# comma-separated in parentheses; optional '@k' universe suffix.  The empty
# string renders as 'ε'.

def format_element(x: Element, with_universe: bool = False) -> str:
    syms = symbols_of(x)
    if not syms:
        body = "ε"
    elif all(s <= 9 for s in syms):
        body = "".join(str(s) for s in syms)
    else:
        body = "(" + ",".join(str(s) for s in syms) + ")"
    if with_universe:
        return f"{body}@{x.universe}"
    return body


def _number(text: str) -> int:
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
        universe = _number(suffix)
        text = body.strip()
    if text in ("", "ε", "eps"):
        return (), universe
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        inner = text[1:-1]
        return (tuple(map(_number, inner.split(","))) if inner.strip() else ()), universe
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
