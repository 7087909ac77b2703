"""Antichains, level-density (LYM) numbers, and the converse-construction
machinery: greedy prefix-code building, counterexample parameter vectors,
and exhaustive antichain-existence search.

All densities are exact rationals.  Searches are deterministic: elements are
explored in the lexicographic order their level lists were built in, so the
returned witness (when one exists) is always the lexicographically least
antichain, and certificates of nonexistence report how many partial
assignments were visited.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping

from .codes import Code, Codomain, as_parameter_sequence
from .perm import Str, are_ints
from .poset import GradedPoset, format_poset_element

DEFAULT_SEARCH_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a search would visit more partial assignments than allowed."""


class InternalInvariantError(RuntimeError):
    """A guarantee the implementation must uphold was violated (a bug)."""


# ---------------------------------------------------------------------------
# Antichains

@dataclass(frozen=True)
class Antichain:
    """A set of (rank, element) pairs over a host poset, claimed pairwise
    incomparable."""

    members: frozenset

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _member_list(antichain_or_members) -> list[tuple[int, object]]:
    if isinstance(antichain_or_members, Antichain):
        return list(antichain_or_members.members)
    return list(antichain_or_members)


def _members_by_position(poset: GradedPoset, members) -> dict[int, list[int]]:
    """Group member element indices by level position; raises on foreign
    elements or wrong level claims."""
    by_pos: dict[int, list[int]] = {}
    for rank, element in _member_list(members):
        by_pos.setdefault(poset.position(rank), []).append(poset.index_of(rank, element))
    return {p: sorted(set(idx)) for p, idx in sorted(by_pos.items())}


@dataclass(frozen=True)
class AntichainCheck:
    ok: bool
    witness: tuple | None  # ((rank, lower), (rank, upper)) strictly comparable

    def __bool__(self) -> bool:
        return self.ok


def is_antichain(poset: GradedPoset, members) -> AntichainCheck:
    """Check pairwise incomparability; the witness on failure is the first
    comparable (lower, upper) pair in level/lexicographic order."""
    by_pos = _members_by_position(poset, members)
    positions = sorted(by_pos)
    for pb in reversed(positions):
        for ib in by_pos[pb]:
            below = {ib}
            for q in range(pb, positions[0], -1):
                below = poset.down_closure(q, below, q - 1)
                pa = q - 1
                if pa in by_pos:
                    hits = below.intersection(by_pos[pa])
                    if hits:
                        ia = min(hits)
                        lower = (poset.rank_of_position(pa), poset.levels[pa][ia])
                        upper = (poset.rank_of_position(pb), poset.levels[pb][ib])
                        return AntichainCheck(False, (lower, upper))
                if not below:
                    break
    return AntichainCheck(True, None)


def lym_number(poset: GradedPoset, members) -> Fraction:
    """Sum over levels of member count divided by level size, exact."""
    by_pos = _members_by_position(poset, members)
    return sum(
        (Fraction(len(idx), len(poset.levels[p])) for p, idx in by_pos.items()),
        Fraction(0),
    )


@dataclass(frozen=True)
class LocalLym:
    lhs: Fraction  # shadow density one level down
    rhs: Fraction  # density of the set itself
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def local_lym_check(poset: GradedPoset, rank: int, elements) -> LocalLym:
    """Compare the density of a same-rank set with the density of its lower
    shadow; for a biregular pair the shadow is always at least as dense."""
    p = poset.position(rank)
    if p == 0:
        raise ValueError(f"rank {rank} is the bottom level; no pair below it")
    reg = poset.pair_regularity(p - 1)
    if not reg.is_biregular:
        raise ValueError(
            f"level pair ({reg.lower_rank}, {reg.upper_rank}) is not biregular"
        )
    indices = {poset.index_of(rank, x) for x in elements}
    if not indices:
        raise ValueError("need a nonempty set of elements")
    shadow = poset.down_closure(p, indices, p - 1)
    lhs = Fraction(len(shadow), len(poset.levels[p - 1]))
    rhs = Fraction(len(indices), len(poset.levels[p]))
    return LocalLym(lhs, rhs, lhs >= rhs)


def reduce_top_level(poset: GradedPoset, antichain) -> Antichain:
    """Replace the top-rank members of an antichain by their lower shadow.

    The result is again an antichain whose LYM number has not decreased;
    both facts are verified and a violation raises InternalInvariantError.
    """
    members = _member_list(antichain)
    if not members:
        raise ValueError("antichain is empty")
    check = is_antichain(poset, members)
    if not check:
        raise ValueError(f"input is not an antichain: witness {check.witness}")
    by_pos = _members_by_position(poset, members)
    top = max(by_pos)
    if top == 0:
        raise ValueError("top members already sit at the bottom level")
    shadow = poset.down_closure(top, by_pos[top], top - 1)
    new_members = {
        (poset.rank_of_position(p), poset.levels[p][i])
        for p, idx in by_pos.items()
        if p != top
        for i in idx
    }
    new_members.update(
        (poset.rank_of_position(top - 1), poset.levels[top - 1][i]) for i in shadow
    )
    reduced = Antichain(frozenset(new_members))
    recheck = is_antichain(poset, reduced)
    if not recheck:
        raise InternalInvariantError(f"reduction broke the antichain: {recheck.witness}")
    if lym_number(poset, reduced) < lym_number(poset, members):
        raise InternalInvariantError("reduction decreased the LYM number")
    return reduced


# ---------------------------------------------------------------------------
# Level count vectors

@dataclass(frozen=True)
class LevelCounts:
    """Requested antichain sizes, densely aligned with a host poset's levels
    (entry p belongs to the poset's p-th level, i.e. rank first_rank + p)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        if not are_ints(counts) or any(c < 0 for c in counts):
            raise ValueError("level counts must be non-negative integers")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def at_ranks(cls, poset: GradedPoset, by_rank: Mapping[int, int]) -> "LevelCounts":
        dense = [0] * poset.num_levels
        for rank, count in by_rank.items():
            dense[poset.position(rank)] = count
        return cls(tuple(dense))

    def by_rank(self, poset: GradedPoset) -> dict[int, int]:
        return {
            poset.rank_of_position(p): c for p, c in enumerate(self.counts) if c != 0
        }


def _dense_counts(poset: GradedPoset, counts) -> list[int]:
    if isinstance(counts, Mapping):
        counts = LevelCounts.at_ranks(poset, counts)
    elif not isinstance(counts, LevelCounts):
        counts = LevelCounts(tuple(counts))
    dense = list(counts.counts)
    if len(dense) > poset.num_levels:
        if any(dense[poset.num_levels:]):
            raise ValueError("counts extend past the top level of the poset")
        dense = dense[: poset.num_levels]
    dense += [0] * (poset.num_levels - len(dense))
    for p, a in enumerate(dense):
        if a > len(poset.levels[p]):
            raise ValueError(
                f"count {a} exceeds the {len(poset.levels[p])} elements of level "
                f"{poset.rank_of_position(p)}"
            )
    return dense


# ---------------------------------------------------------------------------
# Greedy prefix-code construction

@dataclass(frozen=True)
class McMillanResult:
    """Either a prefix-free code realizing the requested parameters, or the
    first codeword length at which the greedy tree walk ran out of strings."""

    code: Code | None
    failed_level: int | None

    @property
    def feasible(self) -> bool:
        return self.code is not None

    def __bool__(self) -> bool:
        return self.feasible


def mcmillan_construct(r: int, params) -> McMillanResult:
    """Greedily pick codewords in the r-ary tree, shortest lengths first and
    lexicographically smallest strings first, never extending a chosen word.

    Succeeds exactly when the Kraft number of the parameters is at most 1.
    The strings of length l that extend no chosen word are those whose
    base-r values run from some ``start`` to ``r^l - 1``, so the walk keeps
    two integers instead of the frontier (the canonical code of Schwartz and
    Kallick, 1964): O(sum of a_l * l) work and memory, however long the
    longest codeword.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    seq = as_parameter_sequence(params)
    start, free = 0, 1  # first unused value at this length, and r^l - start
    chosen: list[tuple[int, ...]] = []
    for length, need in enumerate(seq):
        if need > free:
            return McMillanResult(None, failed_level=length)
        chosen.extend(_base_r_digits(v, r, length) for v in range(start, start + need))
        start, free = (start + need) * r, (free - need) * r
    code = Code(Codomain("string", r), tuple(Str(w, r) for w in chosen))
    return McMillanResult(code, None)


def _base_r_digits(value: int, r: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        value, digits[i] = divmod(value, r)
    return tuple(digits)


# ---------------------------------------------------------------------------
# Counterexample parameter vectors (converse failure)

@dataclass(frozen=True)
class CounterexampleResult:
    """Outcome of checking the counterexample hypotheses on a level pair and,
    when they hold, the parameter vector they produce."""

    accepted: bool
    reason: str | None
    lower_rank: int
    upper_rank: int
    up_degree: int | None = None
    down_degree: int | None = None
    gcd: int | None = None
    counts: LevelCounts | None = None
    lym_sum: Fraction | None = None

    def __bool__(self) -> bool:
        return self.accepted


def counterexample_params(poset: GradedPoset, lower_rank: int, upper_rank: int | None = None) -> CounterexampleResult:
    """Check the converse-failure hypotheses between two levels and produce
    the parameter vector that no antichain can realize.

    The hypotheses: the bipartite cover graph between the levels (composed
    through intermediate levels when they are not adjacent) is biregular with
    up-degree > 1 and down-degree > 1, weakly connected, and the two level
    sizes share a common divisor g > 1.  The vector then asks for a
    (g-1)/g share of the lower level and a 1/g share of the upper level, so
    its density sum is exactly 1.
    """
    if upper_rank is None:
        upper_rank = lower_rank + 1
    p_lo, p_hi = poset.position(lower_rank), poset.position(upper_rank)
    if p_hi <= p_lo:
        raise ValueError("upper rank must be above lower rank")

    def reject(reason: str) -> CounterexampleResult:
        return CounterexampleResult(False, reason, lower_rank, upper_rank)

    reg = poset.pair_regularity(p_lo, p_hi)
    if not reg.is_biregular:
        return reject("level pair not biregular")
    u, d = reg.up_degree, reg.down_degree
    if u <= 1:
        return reject("up-degree not > 1")
    if d <= 1:
        return reject("down-degree not > 1")
    if not poset.is_weakly_connected_pair(lower_rank, upper_rank):
        return reject("level pair not weakly connected")

    n_lo, n_hi = reg.lower_size, reg.upper_size
    g = math.gcd(n_lo, n_hi)
    if g <= 1:
        return reject("level sizes have gcd 1")

    a_lo = (g - 1) * n_lo // g
    a_hi = n_hi // g
    counts = LevelCounts.at_ranks(poset, {lower_rank: a_lo, upper_rank: a_hi})
    lym_sum = Fraction(a_lo, n_lo) + Fraction(a_hi, n_hi)
    return CounterexampleResult(
        True, None, lower_rank, upper_rank,
        up_degree=u, down_degree=d, gcd=g, counts=counts, lym_sum=lym_sum,
    )


# ---------------------------------------------------------------------------
# Exhaustive antichain search

@dataclass(frozen=True)
class SearchOutcome:
    """Witness antichain, or a certificate that the exhaustive search found
    none (with the number of partial assignments visited)."""

    exists: bool
    antichain: Antichain | None
    nodes: int

    def __bool__(self) -> bool:
        return self.exists

    def to_json_dict(self) -> dict:
        if self.exists:
            return {"exists": True, **antichain_to_json_dict(self.antichain)}
        return {"exists": False, "search_nodes": self.nodes}


def _members_from_indices(poset: GradedPoset, chosen: Mapping[int, Iterable[int]]) -> Antichain:
    return Antichain(
        frozenset(
            (poset.rank_of_position(p), poset.levels[p][i])
            for p, idx in chosen.items()
            for i in idx
        )
    )


def antichain_exists(poset: GradedPoset, counts, budget: int | None = None) -> SearchOutcome:
    """Exhaustively decide whether an antichain with the given per-level
    sizes exists.

    Levels are processed from the top down; at each level the requested
    number of elements is chosen among those not below any element already
    chosen (choices in lexicographic order, so a returned witness is the
    lexicographically least antichain).  A level is skipped without a visit
    when fewer of its elements remain unblocked than were requested.

    ``nodes`` counts every per-level combination tried, the last level's
    included, and each counts as one visited assignment against the budget:
    a search that finds a witness counts one node per populated level on the
    path to it, besides the combinations it abandoned.  A two-level witness
    thus reports the upper-level choices tried plus one for the lower level.
    """
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    elif budget < 0:
        raise ValueError(f"search budget must be >= 0, not {budget}")
    dense = _dense_counts(poset, counts)
    order = [p for p in range(poset.num_levels - 1, -1, -1) if dense[p] > 0]
    if not order:
        return SearchOutcome(True, Antichain(frozenset()), 0)
    last = len(order) - 1
    nodes = 0
    chosen: dict[int, tuple[int, ...]] = {}

    def search(step: int, forbidden: set[int]) -> bool:
        nonlocal nodes
        p = order[step]
        candidates = [i for i in range(len(poset.levels[p])) if i not in forbidden]
        if step < last:
            next_p = order[step + 1]
            max_blocked = len(poset.levels[next_p]) - dense[next_p]
        for combo in itertools.combinations(candidates, dense[p]):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"visited more than {budget} assignments; rerun with a larger "
                    "budget or a smaller instance"
                )
            chosen[p] = combo  # stale entries are overwritten on the path that succeeds
            if step == last:
                return True
            blocked = poset.down_closure(p, forbidden.union(combo), next_p)
            if len(blocked) <= max_blocked and search(step + 1, blocked):
                return True
        return False

    if search(0, set()):
        return SearchOutcome(True, _members_from_indices(poset, chosen), nodes)
    return SearchOutcome(False, None, nodes)


# ---------------------------------------------------------------------------
# Random antichains (for property checks)

def sample_antichain(poset: GradedPoset, rng: Random) -> Antichain:
    """Draw a sparse random subset of every level, then repair it into an
    antichain by keeping, top level first and in lexicographic order, only
    elements incomparable with everything already kept."""
    density = 1.0 / (2 * poset.num_levels)
    members: set[tuple[int, object]] = set()
    blocked: set[int] = set()
    for p in range(poset.num_levels - 1, -1, -1):
        picks = [
            i
            for i in range(len(poset.levels[p]))
            if rng.random() < density and i not in blocked
        ]
        members.update((poset.rank_of_position(p), poset.levels[p][i]) for i in picks)
        if p > 0:
            blocked = poset.down_closure(p, blocked.union(picks), p - 1)
    return Antichain(frozenset(members))


# ---------------------------------------------------------------------------
# Antichain interchange format

def antichain_to_json_dict(antichain: Antichain) -> dict:
    listed = sorted(
        ((rank, format_poset_element(x)) for rank, x in antichain.members),
        key=lambda rx: (rx[0], rx[1]),
    )
    return {"antichain": [list(rx) for rx in listed]}


def antichain_from_json_dict(poset: GradedPoset, data: dict) -> Antichain:
    """Resolve [rank, element-string] pairs against the poset's levels."""
    entries = data.get("antichain") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('an antichain file holds {"antichain": [[level, element], ...]}')
    members = set()
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and are_ints(entry[:1])
            and isinstance(entry[1], str)
        ):
            raise ValueError(f"antichain entries must be [level, element] pairs, not {entry!r}")
        rank, text = entry
        members.add((rank, poset.resolve_element(rank, text)))
    return Antichain(frozenset(members))
