"""Finite graded posets stored as explicit levels plus a cover multigraph.

A poset here is a list of levels (rank classes) and, for each consecutive
pair of levels, a multiset of directed cover edges.  Edge multiplicity counts
the number of distinct single-symbol insertions/deletions that map one
element to the other, so degree counts line up with the counting arguments
that make the level-density inequalities work.  ``GradedPoset`` stores each
edge once, in the down-adjacency of its upper element; its ``covers`` maps
are rebuilt from those on every access, at O(edges) cost, so changing them
changes nothing.

Builders produce the concrete families of interest: strings under the
prefix/subsequence/substring orders, partial permutations under the same
three orders, full permutations under the pattern and substring-pattern
orders (realized with interleaved helper levels so every consecutive pair is
biregular), and subsets of [n] ordered by inclusion, which is the
subsequence order on their increasing sequences.  One routine,
``_cover_map``, computes the covers of every family from the elements'
symbol tuples and a cover step: the order's ``deletions`` from its
``perm.ORDERS`` entry, which also gives its containment test and, for
prefix and substring, the blocks that freeness looks up.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .perm import (
    ORDERS,
    PATTERN_RELATIONS,
    STRING_RELATIONS,
    PartialPermutation,
    Str,
    are_ints,
    format_element,
    full_permutations,
    order_pattern,
    partial_permutations,
    require_ints,
    strings,
    symbols_of,
)

DEFAULT_MAX_VERTICES = 5000  # the vertex cap of a DOT export


def format_poset_element(x) -> str:
    """Render a poset element; partial permutations carry their universe when
    it is not implied by their length, subsets use set syntax, and elements
    of any other type (those of custom posets) print as ``str(x)``."""
    if isinstance(x, frozenset):
        if not x:
            return "∅"
        return "{" + ",".join(str(v) for v in sorted(x)) + "}"
    if isinstance(x, PartialPermutation):
        return format_element(x, with_universe=len(x) != x.universe)
    if isinstance(x, Str):
        return format_element(x)
    return str(x)


_AMBIGUOUS = -1  # name-table entry for a name that several elements share


def _name_tables(names) -> tuple[dict, dict]:
    """Indices of a level's element names by name and by name without ``@k``."""
    exact: dict[str, int] = {}
    bare: dict[str, int] = {}
    for i, name in enumerate(names):
        for table, key in ((exact, name), (bare, name.split("@")[0])):
            table[key] = _AMBIGUOUS if key in table else i
    return exact, bare


class GradedPoset:
    """Immutable level-indexed poset with a cover multigraph.

    ``levels[p]`` holds the elements of the p-th level.  Each edge between
    levels p and p+1 is stored once, as ``lower_index -> multiplicity`` in
    the down-adjacency dict of its upper element.  ``covers[p]`` maps
    ``(lower_index, upper_index) -> multiplicity``; it is rebuilt from the
    adjacencies on every access, at O(edges) cost, and changing it changes
    nothing.  Levels are addressed publicly by *rank* ``first_rank + p``
    (partial permutation posets start at rank 1, everything else at 0).  The
    index-level methods (``down_closure``, ``pair_regularity``) take
    positions ``p`` and element indices into ``levels[p]``.  Each level's
    element names are formatted once, for the exports and ``resolve_element``.
    """

    def __init__(self, levels, covers, family="custom", first_rank=0):
        require_ints(first_rank)
        self.levels = tuple(tuple(level) for level in levels)
        if not self.levels:
            raise ValueError("poset needs at least one level")
        covers = tuple(covers)
        if len(covers) != len(self.levels) - 1:
            raise ValueError("need exactly one cover map per consecutive level pair")
        self.family = family
        self.first_rank = first_rank

        self._index = []
        for p, level in enumerate(self.levels):
            if not level:
                raise ValueError(f"level {first_rank + p} is empty")
            idx = {x: i for i, x in enumerate(level)}
            if len(idx) != len(level):
                raise ValueError(f"level {first_rank + p} has duplicate elements")
            self._index.append(idx)

        # _down[p][hi]: lower index -> multiplicity, for the pair (p, p+1)
        self._down = []
        for p, cov in enumerate(covers):
            down = [{} for _ in self.levels[p + 1]]
            cov = dict(cov)
            if not are_ints(cov.values()):
                raise ValueError("edge multiplicities must be integers")
            n_lo, n_hi = len(self.levels[p]), len(down)
            for (lo, hi), mult in cov.items():
                if type(lo) is not int or type(hi) is not int:
                    raise ValueError(f"edge endpoints must be integers, not ({lo!r}, {hi!r})")
                if not (0 <= lo < n_lo and 0 <= hi < n_hi):
                    raise ValueError(f"edge ({lo}, {hi}) out of range between levels {p} and {p + 1}")
                if mult < 1:
                    raise ValueError("edge multiplicities must be >= 1")
                down[hi][lo] = mult
            self._down.append(down)
        # (lower pos, upper pos) -> (chain totals of lower elements, of upper
        # elements, audit)
        self._pair_audits: dict[tuple[int, int], tuple] = {}
        # pos -> element names; pos -> (index by name, by name without "@k")
        self._level_names: dict[int, tuple[str, ...]] = {}
        self._name_index: dict[int, tuple[dict, dict]] = {}

    @property
    def covers(self) -> tuple[dict, ...]:
        """Fresh ``(lower_index, upper_index) -> multiplicity`` maps, by upper index."""
        return tuple(
            {(lo, hi): mult for hi, lows in enumerate(down) for lo, mult in lows.items()}
            for down in self._down
        )

    # -- level addressing ---------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def ranks(self) -> range:
        return range(self.first_rank, self.first_rank + len(self.levels))

    def position(self, rank: int) -> int:
        require_ints(rank)
        p = rank - self.first_rank
        if not 0 <= p < len(self.levels):
            raise ValueError(f"no level of rank {rank} (have {self.ranks.start}..{self.ranks.stop - 1})")
        return p

    def rank_of_position(self, pos: int) -> int:
        return self.first_rank + pos

    def level(self, rank: int) -> tuple:
        return self.levels[self.position(rank)]

    def index_of(self, rank: int, element) -> int:
        p = self.position(rank)
        try:
            return self._index[p][element]
        except KeyError:
            raise ValueError(
                f"{format_poset_element(element)} is not an element of level {rank} of this poset"
            ) from None

    def resolve_element(self, rank: int, text: str):
        """The element of level ``rank`` named ``text``, or else the one whose
        name without its ``@k`` universe suffix is ``text``; the match must be
        unique.  Each level's names are indexed on first use, so a lookup
        costs O(1) after one O(|level|) pass."""
        p = self.position(rank)
        tables = self._name_index.get(p)
        if tables is None:
            tables = self._name_index[p] = _name_tables(self._names(p))
        exact, bare = tables
        text = text.strip()
        i = exact.get(text)
        if i is None:
            i = bare.get(text)
        if i is None or i == _AMBIGUOUS:
            raise ValueError(f"cannot resolve element {text!r} at level {rank}")
        return self.levels[p][i]

    def _names(self, p: int) -> tuple[str, ...]:
        """Names of the elements of level position p, formatted on first use."""
        names = self._level_names.get(p)
        if names is None:
            names = self._level_names[p] = tuple(map(format_poset_element, self.levels[p]))
        return names

    # -- degrees and shadows --------------------------------------------------

    def up_degree(self, rank: int, element) -> int:
        """Number of cover edges leaving the element upward, with multiplicity."""
        p = self.position(rank)
        if p == len(self.levels) - 1:
            return 0
        return self._pair_audit(p, p + 1)[0][self.index_of(rank, element)]

    def down_degree(self, rank: int, element) -> int:
        """Number of cover edges arriving from below, with multiplicity."""
        p = self.position(rank)
        if p == 0:
            return 0
        return self._pair_audit(p - 1, p)[1][self.index_of(rank, element)]

    def down_closure(self, pos: int, indices, to_pos: int) -> set[int]:
        """Indices of the elements at position ``to_pos < pos`` lying below
        some element of ``indices`` (indices into ``levels[pos]``)."""
        if not 0 <= to_pos < pos < len(self.levels):
            raise ValueError(f"cannot close downward from position {pos} to {to_pos}")
        closure = indices
        for q in range(pos, to_pos, -1):
            down = self._down[q - 1]
            closure = {lo for i in closure for lo in down[i]}
        return closure

    def lower_shadow(self, rank: int, elements) -> set:
        """Set of elements one level down covered by some element of the input."""
        p = self.position(rank)
        indices = {self.index_of(rank, x) for x in elements}
        if p == 0:
            return set()
        level = self.levels[p - 1]
        return {level[i] for i in self.down_closure(p, indices, p - 1)}

    def upper_shadow(self, rank: int, elements) -> set:
        """Set of elements one level up covering some element of the input,
        found in one scan of the pair's down-adjacencies."""
        p = self.position(rank)
        indices = {self.index_of(rank, x) for x in elements}
        if p == len(self.levels) - 1:
            return set()
        level = self.levels[p + 1]
        return {level[hi] for hi, lows in enumerate(self._down[p]) if not indices.isdisjoint(lows)}

    # -- order ----------------------------------------------------------------

    def less_than(self, rank_a: int, a, rank_b: int, b) -> bool:
        """Strict comparability: a (at rank_a) below b (at rank_b) through covers."""
        pa, pb = self.position(rank_a), self.position(rank_b)
        ia, ib = self.index_of(rank_a, a), self.index_of(rank_b, b)
        return pa < pb and ia in self.down_closure(pb, (ib,), pa)

    def _pair_audit(self, lo: int, hi: int) -> tuple:
        """Per-element chain totals between positions lo < hi and their
        audit, cached.  A chain climbs one cover edge per level and counts
        with the product of its edges' multiplicities."""
        audit = self._pair_audits.get((lo, hi))
        if audit is None:
            up_totals = [1] * len(self.levels[hi])
            for q in range(hi - 1, lo - 1, -1):
                below = [0] * len(self.levels[q])
                for b, lows in enumerate(self._down[q]):
                    for a, mult in lows.items():
                        below[a] += mult * up_totals[b]
                up_totals = below
            down_totals = [1] * len(self.levels[lo])
            for q in range(lo, hi):
                down_totals = [
                    sum(mult * down_totals[a] for a, mult in lows.items()) for lows in self._down[q]
                ]
            report = LevelPairRegularity(
                lower_rank=self.rank_of_position(lo),
                upper_rank=self.rank_of_position(hi),
                lower_size=len(self.levels[lo]),
                upper_size=len(self.levels[hi]),
                up_degrees=tuple(sorted(set(up_totals))),
                down_degrees=tuple(sorted(set(down_totals))),
                edge_count=sum(up_totals),
            )
            audit = self._pair_audits[(lo, hi)] = (up_totals, down_totals, report)
        return audit

    def pair_regularity(self, pos: int, upper_pos: int | None = None) -> "LevelPairRegularity":
        """Degree audit of the level pair (pos, upper_pos), cached; upper_pos
        defaults to pos+1.  Between non-adjacent levels the degrees count
        cover chains through the levels in between, with multiplicity."""
        if upper_pos is None:
            upper_pos = pos + 1
        if not 0 <= pos < upper_pos < len(self.levels):
            raise ValueError(f"no level pair at positions ({pos}, {upper_pos})")
        return self._pair_audit(pos, upper_pos)[2]

    # -- connectivity -----------------------------------------------------------

    def is_weakly_connected_pair(self, rank: int, upper_rank: int | None = None) -> bool:
        """True iff the undirected bipartite graph between the levels of rank
        and upper_rank (default rank+1), with an edge wherever a cover chain
        joins two elements, is connected."""
        if upper_rank is None:
            upper_rank = rank + 1
        p_lo, p_hi = self.position(rank), self.position(upper_rank)
        if p_hi <= p_lo:
            raise ValueError("upper rank must be above lower rank")
        n_lo, n_hi = len(self.levels[p_lo]), len(self.levels[p_hi])
        parent = list(range(n_lo + n_hi))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for hi in range(n_hi):
            for lo in self.down_closure(p_hi, (hi,), p_lo):
                a, b = find(lo), find(n_lo + hi)
                if a != b:
                    parent[a] = b
        return len({find(v) for v in range(n_lo + n_hi)}) == 1

    # -- export -------------------------------------------------------------------

    def to_dot(self, max_vertices: int = DEFAULT_MAX_VERTICES) -> str:
        """DOT digraph with one pinned rank per level and multiplicity labels."""
        require_ints(max_vertices)
        total = sum(len(level) for level in self.levels)
        if total > max_vertices:
            raise ValueError(
                f"poset has {total} vertices, above the cap of {max_vertices}; "
                "export a smaller instance or raise max_vertices"
            )
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for p in range(len(self.levels)):
            nodes = "; ".join(f'n{p}_{i} [label="{name}"]' for i, name in enumerate(self._names(p)))
            lines.append("  { rank=same; " + nodes + "; }")
        for p, lo, hi, mult in self._edges():
            suffix = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  n{p}_{lo} -> n{p + 1}_{hi}{suffix};")
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Compact interchange form: element strings per level, edge triples."""
        names = [self._names(p) for p in range(len(self.levels))]
        edges = [[names[p][lo], names[p + 1][hi], mult] for p, lo, hi, mult in self._edges()]
        return {
            "family": self.family,
            "first_rank": self.first_rank,
            "levels": [list(level_names) for level_names in names],
            "edges": edges,
        }

    def _edges(self) -> list[tuple[int, int, int, int]]:
        """Every edge as (lower position, lower index, upper index, multiplicity), sorted."""
        return sorted((p, lo, hi, mult) for p, down in enumerate(self._down)
                      for hi, lows in enumerate(down) for lo, mult in lows.items())

    def __repr__(self):
        sizes = ",".join(str(len(level)) for level in self.levels)
        return f"GradedPoset({self.family}; sizes {sizes})"


# ---------------------------------------------------------------------------
# Regularity audit

@dataclass(frozen=True)
class LevelPairRegularity:
    """Observed degrees between one consecutive level pair."""

    lower_rank: int
    upper_rank: int
    lower_size: int
    upper_size: int
    up_degrees: tuple[int, ...]    # distinct up-degrees of lower elements, sorted
    down_degrees: tuple[int, ...]  # distinct down-degrees of upper elements, sorted
    edge_count: int                # with multiplicity

    @property
    def is_biregular(self) -> bool:
        return len(self.up_degrees) == 1 and len(self.down_degrees) == 1

    @property
    def up_degree(self) -> int | None:
        return self.up_degrees[0] if len(self.up_degrees) == 1 else None

    @property
    def down_degree(self) -> int | None:
        return self.down_degrees[0] if len(self.down_degrees) == 1 else None

    @property
    def edge_identity_holds(self) -> bool:
        """u * #lower == d * #upper == edge count, multiplicities included."""
        return (
            self.is_biregular
            and self.up_degree * self.lower_size == self.edge_count
            and self.down_degree * self.upper_size == self.edge_count
        )


@dataclass(frozen=True)
class RegularityReport:
    pairs: tuple[LevelPairRegularity, ...]

    @property
    def is_level_regular(self) -> bool:
        return all(p.is_biregular and p.edge_identity_holds for p in self.pairs)

    def pair(self, lower_rank: int) -> LevelPairRegularity:
        for p in self.pairs:
            if p.lower_rank == lower_rank:
                return p
        raise ValueError(f"no level pair starting at rank {lower_rank}")


def regularity_check(poset: GradedPoset) -> RegularityReport:
    """Audit every consecutive level pair for uniform up/down degrees."""
    return RegularityReport(
        pairs=tuple(poset.pair_regularity(p) for p in range(poset.num_levels - 1))
    )


def lower_shadow(poset: GradedPoset, rank: int, elements) -> set:
    return poset.lower_shadow(rank, elements)


def upper_shadow(poset: GradedPoset, rank: int, elements) -> set:
    return poset.upper_shadow(rank, elements)


# ---------------------------------------------------------------------------
# Builders

def _cover_map(lower_keys, upper_keys, deletions) -> Counter:
    """Cover multiplicities between two consecutive levels given by their
    elements' symbol tuples: ``(i, j) -> m`` when m of the words that
    ``deletions`` gives for the upper key j are the lower key i."""
    index = {key: i for i, key in enumerate(lower_keys)}
    return Counter((index[lower], j) for j, key in enumerate(upper_keys) for lower in deletions(key))


def build_string_poset(r: int, relation: str, max_level: int) -> GradedPoset:
    """Strings over {0, .., r-1} of length 0..max_level under one of the three
    symbol-comparing orders; level 0 is the empty string."""
    require_ints(r, max_level)
    if r < 1 or max_level < 0:
        raise ValueError("need r >= 1 and max_level >= 0")
    if relation not in STRING_RELATIONS:
        raise ValueError(f"relation must be one of {STRING_RELATIONS}")
    deletions = ORDERS[relation].deletions
    levels = [strings(r, l) for l in range(max_level + 1)]
    covers = [
        _cover_map(map(symbols_of, levels[l]), map(symbols_of, levels[l + 1]), deletions)
        for l in range(max_level)
    ]
    return GradedPoset(levels, covers, family=f"string({relation}, r={r})", first_rank=0)


def build_partial_perm_poset(k: int, relation: str) -> GradedPoset:
    """Partial permutations over [1..k], levels by length 1..k, under one of
    the three symbol-comparing orders."""
    require_ints(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if relation not in STRING_RELATIONS:
        raise ValueError(f"relation must be one of {STRING_RELATIONS}")
    deletions = ORDERS[relation].deletions
    levels = [partial_permutations(k, l) for l in range(1, k + 1)]
    covers = [
        _cover_map(map(symbols_of, levels[p]), map(symbols_of, levels[p + 1]), deletions)
        for p in range(k - 1)
    ]
    return GradedPoset(levels, covers, family=f"partial_perm({relation}, k={k})", first_rank=1)


def build_pattern_poset(k: int, relation: str) -> GradedPoset:
    """Full permutations of sizes 1..k under the pattern or substring-pattern
    order, with an interleaved helper level between consecutive sizes.

    Position 2l-2 holds the permutations of [l]; position 2l-1 holds the
    injective l-sequences over [l+1].  A helper element covers exactly the
    permutation recording its relative order, and is covered by the
    one-longer permutations that delete down to it (any position for the
    pattern order, first or last for the substring-pattern order).  This
    two-step factoring keeps every consecutive pair biregular, and
    reachability between the permutation levels coincides with the direct
    pattern / substring-pattern relations.
    """
    require_ints(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if relation not in PATTERN_RELATIONS:
        raise ValueError(f"relation must be one of {PATTERN_RELATIONS}")
    deletions = ORDERS[ORDERS[relation].base].deletions
    perms = full_permutations(1)
    levels, covers = [perms], []
    for l in range(1, k):
        helpers = partial_permutations(l + 1, l)
        longer = full_permutations(l + 1)
        covers.append(_cover_map(map(symbols_of, perms), map(symbols_of, helpers),
                                 lambda key: (order_pattern(key),)))
        covers.append(_cover_map(map(symbols_of, helpers), map(symbols_of, longer), deletions))
        levels += [helpers, longer]
        perms = longer
    return GradedPoset(levels, covers, family=f"perm_pattern({relation}, k={k})", first_rank=0)


def build_subset_poset(n: int) -> GradedPoset:
    """Subsets of [1..n] ordered by inclusion, levels by cardinality.

    Inclusion is the subsequence order on the subsets' increasing
    sequences, so the covers come from those tuples, one deletion each."""
    require_ints(n)
    if n < 0:
        raise ValueError("need n >= 0")
    keys = [list(itertools.combinations(range(1, n + 1), i)) for i in range(n + 1)]
    levels = [[frozenset(c) for c in level] for level in keys]
    covers = [_cover_map(keys[i], keys[i + 1], ORDERS["subsequence"].deletions) for i in range(n)]
    return GradedPoset(levels, covers, family=f"subsets(n={n})", first_rank=0)
