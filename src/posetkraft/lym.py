"""Antichains, level-density (LYM) numbers, and the converse-construction
machinery: greedy prefix-code building, counterexample parameter vectors,
and exhaustive antichain-existence search.

All densities are exact rationals.  Searches are deterministic: elements are
explored in their levels' lexicographic order, the order each level's keys
stream and unrank in, so the returned witness (when one exists) is always
the lexicographically least antichain, and certificates of nonexistence
report how many partial assignments were visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping

from . import codes
from .codes import Code, Codomain, ParameterSequence, density
from .perm import Str, StringLevel, require_ints
from .poset import MAX_MASK_BITS, BudgetExceededError, GradedPoset, format_poset_element

DEFAULT_SEARCH_BUDGET = 10_000_000
# The bits antichain_exists' two memos, of failed subtrees and of failed
# sub-walks, may hold together in one call: each entry is charged the width
# of the level its key's mask covers plus a fixed share for the dict slot,
# the key and the count, so the memos stay within about 128 MiB like the
# masks.
_MEMO_BITS = MAX_MASK_BITS
_MEMO_ENTRY_BITS = 1024


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


def _members_by_position(poset: GradedPoset, members) -> dict[int, list[int]]:
    """Group member element indices by level position; raises on foreign
    elements or wrong level claims."""
    by_pos: dict[int, list[int]] = {}
    for rank, element in members:
        by_pos.setdefault(poset.position(rank), []).append(poset.index_of(rank, element))
    return {p: sorted(set(idx)) for p, idx in sorted(by_pos.items())}


def _members_from_indices(poset: GradedPoset, chosen: Mapping[int, Iterable[int]]) -> Antichain:
    """The antichain of the elements at the given indices, by level
    position; only those elements are made, and no level."""
    members = set()
    for p, idx in chosen.items():
        rank = poset.rank_of_position(p)
        members.update((rank, x) for x in poset.elements(p, idx))
    return Antichain(frozenset(members))


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
                        (a,), (b,) = poset.elements(pa, [min(hits)]), poset.elements(pb, [ib])
                        lower, upper = (poset.rank_of_position(pa), a), (poset.rank_of_position(pb), b)
                        return AntichainCheck(False, (lower, upper))
                if not below:
                    break
    return AntichainCheck(True, None)


def lym_number(poset: GradedPoset, members) -> Fraction:
    """Sum over levels of member count divided by level size, exact."""
    by_pos = _members_by_position(poset, members)
    return density([len(idx) for idx in by_pos.values()], [poset.sizes[p] for p in by_pos])


@dataclass(frozen=True)
class LocalLym:
    lhs: Fraction  # shadow density one level down
    rhs: Fraction  # density of the set itself
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def _require_biregular(poset: GradedPoset, pos: int) -> None:
    reg = poset.pair_regularity(pos)
    if not reg.is_biregular:
        raise ValueError(
            f"level pair ({reg.lower_rank}, {reg.upper_rank}) is not biregular"
        )


def local_lym_check(poset: GradedPoset, rank: int, elements) -> LocalLym:
    """Compare the density of a same-rank set with the density of its lower
    shadow; for a biregular pair the shadow is always at least as dense."""
    p = poset.position(rank)
    if p == 0:
        raise ValueError(f"rank {rank} is the bottom level; no pair below it")
    _require_biregular(poset, p - 1)
    indices = {poset.index_of(rank, x) for x in elements}
    if not indices:
        raise ValueError("need a nonempty set of elements")
    shadow = poset.down_closure(p, indices, p - 1)
    lhs = Fraction(len(shadow), poset.sizes[p - 1])
    rhs = Fraction(len(indices), poset.sizes[p])
    return LocalLym(lhs, rhs, lhs >= rhs)


def reduce_top_level(poset: GradedPoset, antichain) -> Antichain:
    """Replace the top-rank members of an antichain by their lower shadow.

    The result is again an antichain and, when the top level and the one
    below it form a biregular pair, its LYM number has not decreased.  Both
    facts are verified.  A lower LYM number on a pair that is not biregular
    raises ValueError, since the bound needs a biregular pair; any other
    violation is a bug and raises InternalInvariantError.
    """
    members = list(antichain)
    if not members:
        raise ValueError("antichain is empty")
    check = is_antichain(poset, members)
    if not check:
        raise ValueError(f"input is not an antichain: witness {check.witness}")
    by_pos = _members_by_position(poset, members)
    top = max(by_pos)
    if top == 0:
        raise ValueError("top members already sit at the bottom level")
    shadow = poset.down_closure(top, by_pos.pop(top), top - 1)
    by_pos[top - 1] = shadow.union(by_pos.get(top - 1, ()))
    reduced = _members_from_indices(poset, by_pos)
    recheck = is_antichain(poset, reduced)
    if not recheck:
        raise InternalInvariantError(f"reduction broke the antichain: {recheck.witness}")
    if lym_number(poset, reduced) < lym_number(poset, members):
        _require_biregular(poset, top - 1)
        raise InternalInvariantError("reduction decreased the LYM number")
    return reduced


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
    longest codeword.  The walk decides first; a feasible request for more
    than ``codes.MAX_CODEWORDS`` words then raises BudgetExceededError, and
    only a request within it has its words built, by ``StringLevel.key_at``.
    """
    require_ints(r)
    if r < 1:
        raise ValueError("need r >= 1")
    seq = ParameterSequence(params)
    start, free = 0, 1  # first unused value at this length, and r^l - start
    runs = []  # (level, first value, count) of the words of each used length
    for length, need in enumerate(seq):
        if need > free:
            return McMillanResult(None, failed_level=length)
        if need:
            runs.append((StringLevel(r, length, start + free), start, need))
        start, free = (start + need) * r, (free - need) * r
    if seq.total > codes.MAX_CODEWORDS:
        raise BudgetExceededError(f"the code has {seq.total} codewords, above the cap of "
                                  f"{codes.MAX_CODEWORDS}; ask for fewer codewords")
    words = (Str(level.key_at(v), r) for level, start, need in runs for v in range(start, start + need))
    code = Code(Codomain("string", r), tuple(words))
    return McMillanResult(code, None)


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
    counts: ParameterSequence | None = None
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
    counts = ParameterSequence.at_ranks(poset, {lower_rank: a_lo, upper_rank: a_hi})
    return CounterexampleResult(
        True, None, lower_rank, upper_rank, up_degree=u, down_degree=d, gcd=g,
        counts=counts, lym_sum=density((a_lo, a_hi), (n_lo, n_hi)),
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


def _dense_counts(poset: GradedPoset, counts) -> list[int]:
    if isinstance(counts, Mapping):
        counts = ParameterSequence.at_ranks(poset, counts)
    seq, n = ParameterSequence(counts), poset.num_levels
    if any(seq.counts[n:]):
        raise ValueError("counts extend past the top level of the poset")
    dense = [seq[p] for p in range(n)]
    for p, (a, size) in enumerate(zip(dense, poset.sizes)):
        if a > size:
            raise ValueError(
                f"count {a} exceeds the {size} elements of level "
                f"{poset.rank_of_position(p)}"
            )
    return dense


def _budget_exceeded(budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"visited more than {budget} assignments; rerun with a larger "
        "budget or a smaller instance"
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

    Blocked sets are Python-int bit masks over a level's indices.  The
    first time the search enters a level with a populated level below it,
    it builds ``down_masks`` between the two; each node then ORs the masks
    of its forbidden elements once.  It walks the level's combinations as
    prefixes in lexicographic order, without recursion, keeping each
    prefix's blocked mask, so each added element costs one OR and one bit
    count.  Masks only gain bits, so once a prefix blocks too much of the
    level below, every completion of it would be tried and pruned: the
    walk adds their number, C(free positions left, elements still to
    pick), to ``nodes`` in one step and backtracks.  ``nodes`` thus keeps
    its meaning, every combination tried, while the work per node falls.

    Two memos count a failed part of the search again in one step: they add
    the nodes it spent to ``nodes``, run the same budget check and
    backtrack.  A subtree's verdict and node count depend only on its step
    and its forbidden mask: it reads nothing else that changes, and writes
    its choice only on success.  The poset is graded, so every chain from
    an element chosen higher up to a level further down passes through the
    step's level, and the forbidden mask there already holds all the lower
    steps need.  So each failed subtree below the first step and above the
    last is stored under its step and forbidden mask.  Within one step's
    walk, likewise, the sub-walk that completes a prefix depends only on
    the number of picks made, the next position in the level and the
    prefix's blocked mask on the level below, since the levels, masks and
    counts are fixed and the subtrees below read only that mask.  So each
    failed sub-walk of a prefix with two or more picks is stored under
    those three until its walk ends; a one-pick prefix is the only one at
    its position.  Successes end the search and are never stored.  Each
    entry is charged the width of the level its mask covers plus
    ``_MEMO_ENTRY_BITS``, a walk's entries are released when it ends, and
    while the two memos hold ``_MEMO_BITS`` together the search stores no
    more: verdicts, ``nodes``, witnesses and budget points are the same at
    any size of the memos.

    Over its budget, or when ``down_masks`` refuses masks above
    ``poset.MAX_MASK_BITS``, the search raises BudgetExceededError.
    """
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    require_ints(budget)
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, not {budget}")
    dense, sizes = _dense_counts(poset, counts), poset.sizes
    order = [p for p in range(poset.num_levels - 1, -1, -1) if dense[p] > 0]
    if not order:
        return SearchOutcome(True, Antichain(frozenset()), 0)
    last = len(order) - 1
    nodes = 0
    chosen: dict[int, tuple[int, ...]] = {}
    masks: list[list[int]] = []  # masks[step]: down_masks(order[step], order[step + 1])

    failed: list[dict[int, int]] = [{} for _ in order]  # failed[step][forbidden]: nodes spent
    memo_bits = 0

    def search(step: int, forbidden: int) -> bool:
        nonlocal nodes, memo_bits
        p, a = order[step], dense[order[step]]
        width = sizes[p]
        if step < last:
            spent = failed[step].get(forbidden)
            if spent is not None:
                nodes += spent
                if nodes > budget:
                    raise _budget_exceeded(budget)
                return False
        # bit i of forbidden, the i-th character: "1" when element i lies
        # below an element chosen higher up
        bits = format(forbidden, "b")[::-1].ljust(width, "0")
        free = [i for i, bit in enumerate(bits) if bit == "0"]
        if step == last:
            nodes += 1
            if nodes > budget:
                raise _budget_exceeded(budget)
            chosen[p] = tuple(free[:a])
            return True
        start = nodes
        next_p = order[step + 1]
        max_blocked = sizes[next_p] - dense[next_p]
        if step == len(masks):
            masks.append(poset.down_masks(p, next_p))
        down = masks[step]
        closed = 0
        for i, bit in enumerate(bits):
            if bit == "1":
                closed |= down[i]
        # Walk the combinations of free in lexicographic order by prefixes:
        # picks holds the positions in free of a prefix's elements and
        # prefix[d] the blocked mask of its first d, so each step ORs once.
        # walked[d, j, blocked] holds the nodes spent by the failed sub-walk
        # that extends a prefix of d + 1 picks, the last at j, blocking
        # blocked.  A one-pick prefix has one state per j, so only longer
        # ones are stored.
        picks: list[int] = []
        prefix = [closed]
        pushed: list[int] = []  # nodes when each pick after the first was pushed
        walked: dict[tuple[int, int, int], int] = {}
        n, d, j = len(free), 0, 0  # j: the position tried after the prefix
        while True:
            if j > n - a + d:  # too few positions left to complete the prefix
                if not d:
                    if walked:
                        memo_bits -= len(walked) * (sizes[next_p] + _MEMO_ENTRY_BITS)
                    if step and memo_bits + width + _MEMO_ENTRY_BITS <= _MEMO_BITS:
                        failed[step][forbidden] = nodes - start
                        memo_bits += width + _MEMO_ENTRY_BITS
                    return False
                j = picks.pop()
                blocked = prefix.pop()
                d -= 1
                if d:
                    spent = nodes - pushed.pop()
                    if memo_bits + sizes[next_p] + _MEMO_ENTRY_BITS <= _MEMO_BITS:
                        walked[d, j, blocked] = spent
                        memo_bits += sizes[next_p] + _MEMO_ENTRY_BITS
                j += 1
                continue
            blocked = prefix[d] | down[free[j]]
            fits = blocked.bit_count() <= max_blocked
            if fits and d + 1 < a:
                if d:
                    spent = walked.get((d, j, blocked))
                    if spent is not None:
                        nodes += spent
                        if nodes > budget:
                            raise _budget_exceeded(budget)
                        j += 1
                        continue
                    pushed.append(nodes)
                picks.append(j)
                prefix.append(blocked)
                d += 1
                j += 1
                continue
            # A full combination, or a prefix that already blocks too much:
            # masks only gain bits, so each of its completions would be
            # tried and pruned.  Count them all at once.
            nodes += 1 if fits else math.comb(n - j - 1, a - d - 1)
            if nodes > budget:
                raise _budget_exceeded(budget)
            if fits and search(step + 1, blocked):
                chosen[p] = (*(free[i] for i in picks), free[j])
                return True
            j += 1

    if search(0, 0):
        return SearchOutcome(True, _members_from_indices(poset, chosen), nodes)
    return SearchOutcome(False, None, nodes)


# ---------------------------------------------------------------------------
# Random antichains (for property checks)

def sample_antichain(poset: GradedPoset, rng: Random) -> Antichain:
    """Draw a sparse random subset of every level, then repair it into an
    antichain by keeping, top level first and in lexicographic order, only
    elements incomparable with everything already kept."""
    chance = 1.0 / (2 * poset.num_levels)
    chosen: dict[int, list[int]] = {}
    blocked: set[int] = set()
    for p in range(poset.num_levels - 1, -1, -1):
        picks = chosen[p] = [
            i
            for i in range(poset.sizes[p])
            if rng.random() < chance and i not in blocked
        ]
        if p > 0:
            blocked = poset.down_closure(p, blocked.union(picks), p - 1)
    return _members_from_indices(poset, chosen)


# ---------------------------------------------------------------------------
# Antichain interchange format

def antichain_to_json_dict(antichain: Antichain) -> dict:
    listed = sorted((rank, format_poset_element(x)) for rank, x in antichain.members)
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
            and type(entry[0]) is int
            and isinstance(entry[1], str)
        ):
            raise ValueError(f"antichain entries must be [level, element] pairs, not {entry!r}")
        rank, text = entry
        members.add((rank, poset.resolve_element(rank, text)))
    return Antichain(frozenset(members))
