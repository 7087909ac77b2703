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
subsequence order on their increasing sequences.  Every level is a
``perm.Level``, one protocol.  A builder's (``StringLevel``,
``SequenceLevel``, or ``_SubsetLevel`` here) holds its closed-form size,
the stream of its elements' symbol tuples, the call that makes an element
from its tuple, the stream of the elements' names, and lookups by rank
arithmetic between an index and its tuple, element or name.  A level given
as a sequence of its elements is a ``_TableLevel``, made at once; only
``levels`` and ``level`` make a builder's level.  Each level pair is given
as a mapping of its cover edges or as its *cover step*: the call that maps
a key of the upper level to the keys of the lower level it covers, once per
edge.  A step's covers are made on first read and checked as they are
made, the lower key stream by the poset's one level check, whose key ->
index dict gives every lower index.  ``_cover_rows`` makes them from the
step and the two levels' key streams, which ``perm`` (or, for subsets,
``itertools.combinations``) gives in the lexicographic order the elements
are made in, unless the upper level's ``rows_over`` makes them by a
closed form, reading no lower key (the README tables the forms).  A
builder's step is ``perm._pattern_of`` for a helper pair and else the
order's ``deletions`` from its ``perm.ORDERS`` entry, which also gives its
containment test and, for prefix and substring, the blocks that freeness
looks up.  Audits, exports and ``covers`` read bottom-up, and a lone pair
read makes that pair only.  The exports read the name streams and emit
each pair's edges in one pass over its down rows into per-lower buckets,
keeping no transpose; lookups make nothing, and shadows and witnesses
make only the elements they return, so a search on two levels of a tall
host makes those two levels' covers only, and an export or an audit
makes no level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .perm import (
    ORDERS,
    PATTERN_RELATIONS,
    STRING_RELATIONS,
    BudgetExceededError,
    Level,
    PartialPermutation,
    SequenceLevel,
    Str,
    StringLevel,
    _pattern_of,
    count_above,
    factorial_bits,
    format_element,
    parse_number,
    require_ints,
)
# the builders no longer call these, but bench/tracer.py wraps them under these names
from .perm import full_permutations, partial_permutations, strings  # noqa: F401

MAX_VERTICES = 5000  # the most vertices a DOT export may draw
MAX_MASK_BITS = 1 << 30  # the cap on down_masks' bits: at most 128 MiB of masks
MAX_ELEMENTS = 500_000  # the most elements a builder makes: about 2.5 KB each, 1.2 GB
MAX_LEVELS = 64  # the most levels a builder makes: past every r >= 2 family that fits MAX_ELEMENTS


def format_poset_element(x) -> str:
    """Render a poset element; partial permutations carry their universe when
    it is not implied by their length, subsets use set syntax, and elements
    of any other type (those of custom posets) print as ``str(x)``."""
    if isinstance(x, frozenset):
        if not x:
            return "∅"
        return "{" + ",".join(map(str, sorted(x))) + "}"
    if isinstance(x, PartialPermutation):
        return format_element(x, with_universe=len(x) != x.universe)
    if isinstance(x, Str):
        return format_element(x)
    return str(x)


def _dot_escaped(name: str) -> str:
    """A name as the body of a DOT string: backslashes and double quotes escaped."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


class _TableLevel(Level):
    """A level given to ``GradedPoset`` as a sequence of its elements, which
    are its keys; the poset checks it and hands ``find`` the element -> index
    dict.  ``named`` reads a table of the names: exact names first, then bare
    ones (without ``@k``) that no exact name shadows; a shared name names none."""

    __slots__ = ("elements", "index", "labels", "by_name")
    element = staticmethod(lambda x: x)  # a key is its own element

    def __init__(self, elements: tuple, index: dict):
        self.elements, self.size, self.index = elements, len(elements), index
        self.labels, self.by_name = tuple(self.names()), {}
        for i, name in enumerate(self.labels):
            self.by_name[name] = None if name in self.by_name else i
        exact = set(self.by_name)  # an exact name wins over a bare one
        for i, name in enumerate(self.labels):
            bare, at, _ = name.partition("@")
            if at and bare not in exact:
                self.by_name[bare] = None if bare in self.by_name else i

    def keys(self):
        return iter(self.elements)

    def names(self):
        return map(format_poset_element, self.elements)

    def key_at(self, i: int):
        return self.elements[i]

    def find(self, x):
        try:
            return self.index.get(x)
        except TypeError:  # an unhashable value is no element
            return None

    def named(self, text: str, name_of):
        i = self.by_name.get(text)
        return None if i is None else self.elements[i]


class GradedPoset:
    """Immutable level-indexed poset with a cover multigraph.

    ``levels[p]`` holds the elements of the p-th level.  Every level is a
    ``perm.Level``; the constructor wraps one given as a sequence in a
    ``_TableLevel``, made, checked and named at once, and past it every read
    asks the level.  ``levels`` and ``level`` make a builder's level on
    first read, through ``_level``; ``sizes`` makes none, ``elements`` picks
    by the level's ``key_at``, and ``index_of`` and ``resolve_element`` ask
    the level's ``find`` and ``named``.  Each edge between levels p and
    p+1 is stored once, as ``lower_index -> multiplicity`` in the
    down-adjacency dict of its upper element: the pair's *rows*, one per
    element of level p+1.  The constructor takes each pair as a mapping
    ``(lower_index, upper_index) -> multiplicity``, grouped into rows and
    checked at once, or as a cover step, a callable from a key of level p+1
    to the keys of level p it covers, a repeated key counting as a
    multiplicity; ``_down_rows``, the one reader of both, makes a step's
    rows the first time the pair is read, checking them as they are made,
    by the upper level's closed form (``Level.rows_over``) where it has
    one and from the key streams (``_cover_rows``) elsewhere.  The exports
    walk the rows once per pair, filling a bucket per lower element, and
    keep no transpose.  ``covers[p]`` maps
    ``(lower_index, upper_index) -> multiplicity``; it is rebuilt from the
    rows on every access, at O(edges) cost, and changing it changes
    nothing.  ``covers`` makes every pair and ``levels`` every level.
    Levels are addressed publicly by *rank* ``first_rank + p`` (partial
    permutation posets start at rank 1, everything else at 0).  The
    index-level methods (``down_closure``, ``down_masks``,
    ``pair_regularity``, ``elements``) take positions ``p`` and element
    indices into ``levels[p]``; all but ``elements`` make no element.
    Degrees are read per level pair, from the cached ``pair_regularity``
    audit.  Each level's element names are made once: a table level's with
    it, any other's from its checked ``names()`` stream.
    """

    def __init__(self, levels, covers, family="custom", first_rank=0):
        require_ints(first_rank)
        self.family = family
        self.first_rank = first_rank
        # _sources[p]: level p as a perm.Level; _levels[p]: its elements, or None until made
        self._sources, self._levels, sizes = [], [], []
        for level in levels:  # the one place a level given as a sequence is told apart
            made = None if isinstance(level, Level) else tuple(level)
            self._sources.append(level)  # a sequence is wrapped below, once checked
            self._levels.append(made)
            sizes.append(level.size if made is None else len(made))
        self.sizes = tuple(sizes)  # by position; read without making a level
        if not self.sizes:
            raise ValueError("poset needs at least one level")
        covers = tuple(covers)
        if len(covers) != len(self.sizes) - 1:
            raise ValueError("need exactly one cover map per consecutive level pair")
        # pos -> element names: a table level's, which may repeat, made here
        self._level_names: dict[int, tuple[str, ...]] = {}
        for p, made in enumerate(self._levels):
            if made is not None:
                table = self._sources[p] = _TableLevel(made, self._checked_level(p, made))
                self._level_names[p] = table.labels

        # _down[p]: the rows of the pair (p, p+1), row hi mapping lower index
        # -> multiplicity, or until first read the cover step that makes them
        self._down = [cov if callable(cov) else self._checked_rows(p, self._grouped(p, cov))
                      for p, cov in enumerate(covers)]
        # _steps[p]: the pair's cover step (None for a mapping), kept once _down[p] holds rows
        self._steps = tuple(cov if callable(cov) else None for cov in covers)
        # (lower pos, upper pos) -> the pair's degree audit
        self._pair_audits: dict[tuple[int, int], LevelPairRegularity] = {}

    def _checked_level(self, p: int, level: tuple) -> dict:
        """The one check on the elements of level position p, whichever form
        they came in: nonempty, as many as ``sizes[p]`` and no duplicates.
        Returns the level's element -> index dict, which the duplicate
        check builds."""
        rank = self.first_rank + p
        if not level:
            raise ValueError(f"level {rank} is empty")
        if len(level) != self.sizes[p]:
            raise ValueError(f"level {rank} has {len(level)} elements, not its size {self.sizes[p]}")
        index = {x: i for i, x in enumerate(level)}
        if len(index) != len(level):
            raise ValueError(f"level {rank} has duplicate elements")
        return index

    def _level(self, p: int) -> tuple:
        """The elements of level position p, made and checked on first
        read: the one place a builder level is made.  A level whose check
        fails stays unmade."""
        level = self._levels[p]
        if level is None:
            source = self._sources[p]
            made = tuple(map(source.element, source.keys()))
            self._checked_level(p, made)
            level = self._levels[p] = made
        return level

    def elements(self, pos: int, indices) -> list:
        """The elements at ``indices`` of level position ``pos``, in the
        order asked, each made from the key the level's ``key_at`` unranks
        from its index, so only the picked elements are made.  An index
        outside 0..size-1 raises ValueError; a negative one does not wrap."""
        indices = list(indices)
        require_ints(pos, *indices)
        if not 0 <= pos < len(self.sizes):
            raise ValueError(f"no level at position {pos}")
        size = self.sizes[pos]
        bad = [i for i in indices if not 0 <= i < size]
        if bad:
            raise ValueError(f"no element {bad[0]} in level {self.rank_of_position(pos)}, "
                             f"whose indices run 0..{size - 1}")
        source = self._sources[pos]
        return list(map(source.element, map(source.key_at, indices)))

    @property
    def levels(self) -> tuple[tuple, ...]:
        """Every level's elements, each level made on first read."""
        return tuple(map(self._level, range(len(self.sizes))))

    def _grouped(self, p: int, cover) -> list[dict]:
        """A ``(lower, upper) -> multiplicity`` mapping for the pair (p, p+1)
        as its rows; each key must be a pair whose upper index is in range."""
        rows = [{} for _ in range(self.sizes[p + 1])]
        for key, mult in dict(cover).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"cover key {key!r} is not a (lower, upper) index pair")
            lo, hi = key
            if type(hi) is not int:
                raise ValueError(f"edge endpoints must be integers, not ({lo!r}, {hi!r})")
            if not 0 <= hi < len(rows):
                raise ValueError(f"edge ({lo}, {hi}) out of range between levels {p} and {p + 1}")
            rows[hi][lo] = mult
        return rows

    def _checked_rows(self, p: int, rows) -> list[dict]:
        """The check on the rows ``_grouped`` makes for the pair (p, p+1)
        from a mapping: lower indices plain ints in range, multiplicities
        plain ints >= 1.  It stops at the first bad edge, in row order, and
        names it.  A step's rows need none of it (``_down_rows``)."""
        n_lo = self.sizes[p]
        for hi, row in enumerate(rows):
            for lo, mult in row.items():
                if type(lo) is not int:
                    raise ValueError(f"edge endpoints must be integers, not ({lo!r}, {hi!r})")
                if not 0 <= lo < n_lo:
                    raise ValueError(f"edge ({lo}, {hi}) out of range between levels {p} and {p + 1}")
                if type(mult) is not int:
                    raise ValueError("edge multiplicities must be integers")
                if mult < 1:
                    raise ValueError("edge multiplicities must be >= 1")
        return rows

    def _down_rows(self, p: int) -> list[dict]:
        """The rows of the pair (p, p+1), made from its cover step on first
        read: the one reader of ``_down``.  The upper level's ``rows_over``
        makes them by a closed form where it has one, given the pair beneath
        when that is made from the same step; ``_cover_rows`` makes any
        other.  There the lower key stream passes ``_checked_level`` (a
        table level's ``index`` passed it with the poset), so each lower
        index is in range and each multiplicity a count >= 1.  A
        closed form reads no key and leaves the row count to check.  A pair
        whose rows fail stays unread."""
        rows = self._down[p]
        if callable(rows):
            lower, upper = self._sources[p], self._sources[p + 1]
            below = p and self._steps[p - 1] is rows and not callable(self._down[p - 1])
            made = upper.rows_over(lower, rows, (self._sources[p - 1], self._down[p - 1]) if below else None)
            if made is None:
                index = getattr(lower, "index", None) or self._checked_level(p, tuple(lower.keys()))
                made = _cover_rows(index, upper.keys(), rows, p)
            if len(made) != self.sizes[p + 1]:
                raise ValueError(f"need one dict row per element of level {p + 1}, "
                                 f"got {len(made)} rows between levels {p} and {p + 1}")
            rows = self._down[p] = made
        return rows

    @property
    def covers(self) -> tuple[dict, ...]:
        """Fresh ``(lower_index, upper_index) -> multiplicity`` maps, by upper index."""
        return tuple(
            {(lo, hi): mult for hi, lows in enumerate(self._down_rows(p)) for lo, mult in lows.items()}
            for p in range(len(self.sizes) - 1)
        )

    # -- level addressing ---------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.sizes)

    @property
    def ranks(self) -> range:
        return range(self.first_rank, self.first_rank + len(self.sizes))

    def position(self, rank: int) -> int:
        require_ints(rank)
        p = rank - self.first_rank
        if not 0 <= p < len(self.sizes):
            raise ValueError(f"no level of rank {rank} (have {self.ranks.start}..{self.ranks.stop - 1})")
        return p

    def rank_of_position(self, pos: int) -> int:
        return self.first_rank + pos

    def level(self, rank: int) -> tuple:
        return self._level(self.position(rank))

    def index_of(self, rank: int, element) -> int:
        """The index of ``element`` in its level, from the level's ``find``;
        a builder level finds it by rank arithmetic, without being made."""
        p = self.position(rank)
        i = self._sources[p].find(element)
        if i is None:
            raise ValueError(
                f"{format_poset_element(element)} is not an element of level {rank} of this poset"
            )
        return i

    def resolve_element(self, rank: int, text: str):
        """The element of level ``rank`` named ``text``, or else the one whose
        name without its ``@k`` universe suffix is ``text``; the match must be
        unique.  The level's ``named`` finds it: a builder level parses
        ``text``, which makes no level and no name, and a table level reads
        its table of names."""
        p = self.position(rank)
        text = text.strip()
        x = self._sources[p].named(text, format_poset_element)
        if x is None:
            raise ValueError(f"cannot resolve element {text!r} at level {rank}")
        return x

    def _names(self, p: int) -> tuple[str, ...]:
        """Names of the elements of level position p: a table level's, or else
        the level's name stream, read and checked on first use: no level is made."""
        names = self._level_names.get(p)
        if names is None:
            names = tuple(self._sources[p].names())
            self._checked_level(p, names)
            self._level_names[p] = names
        return names

    # -- closures and shadows -------------------------------------------------

    def _check_downward(self, pos: int, to_pos: int) -> None:
        if not 0 <= to_pos < pos < len(self.sizes):
            raise ValueError(f"cannot close downward from position {pos} to {to_pos}")

    def down_closure(self, pos: int, indices, to_pos: int) -> set[int]:
        """Indices of the elements at position ``to_pos < pos`` lying below
        some element of ``indices`` (indices into ``levels[pos]``)."""
        self._check_downward(pos, to_pos)
        closure = indices
        for q in range(pos, to_pos, -1):
            down = self._down_rows(q - 1)
            closure = {lo for i in closure for lo in down[i]}
        return closure

    def down_masks(self, pos: int, to_pos: int) -> list[int]:
        """The down-closure at position ``to_pos < pos`` of each element of
        ``levels[pos]``, as a bit mask: bit j of entry i is set when element
        j of ``levels[to_pos]`` lies below element i.  One O(edges) pass per
        level in between, each upper mask the OR of its lower covers' masks.
        Raises BudgetExceededError when the masks would hold more than
        ``MAX_MASK_BITS`` bits."""
        self._check_downward(pos, to_pos)
        bits = self.sizes[pos] * self.sizes[to_pos]
        if bits > MAX_MASK_BITS:
            raise BudgetExceededError(
                f"the masks between levels {self.rank_of_position(to_pos)} and "
                f"{self.rank_of_position(pos)} take {bits} bits, above the cap of "
                f"{MAX_MASK_BITS}; search a smaller instance"
            )
        masks = [1 << j for j in range(self.sizes[to_pos])]
        for q in range(to_pos, pos):
            upper = []
            for lows in self._down_rows(q):
                mask = 0
                for lo in lows:
                    mask |= masks[lo]
                upper.append(mask)
            masks = upper
        return masks

    def lower_shadow(self, rank: int, elements) -> set:
        """Set of elements one level down covered by some element of the input."""
        p = self.position(rank)
        indices = {self.index_of(rank, x) for x in elements}
        if p == 0:
            return set()
        return set(self.elements(p - 1, self.down_closure(p, indices, p - 1)))

    def upper_shadow(self, rank: int, elements) -> set:
        """Set of elements one level up covering some element of the input,
        found in one scan of the pair's down-adjacencies."""
        p = self.position(rank)
        indices = {self.index_of(rank, x) for x in elements}
        if p == len(self.sizes) - 1:
            return set()
        covering = [hi for hi, lows in enumerate(self._down_rows(p)) if not indices.isdisjoint(lows)]
        return set(self.elements(p + 1, covering))

    # -- order ----------------------------------------------------------------

    def less_than(self, rank_a: int, a, rank_b: int, b) -> bool:
        """Strict comparability: a (at rank_a) below b (at rank_b) through covers."""
        pa, pb = self.position(rank_a), self.position(rank_b)
        ia, ib = self.index_of(rank_a, a), self.index_of(rank_b, b)
        return pa < pb and ia in self.down_closure(pb, (ib,), pa)

    def pair_regularity(self, pos: int, upper_pos: int | None = None) -> "LevelPairRegularity":
        """Degree audit of the level pair (pos, upper_pos), cached; upper_pos
        defaults to pos+1.  Between non-adjacent levels the degrees count
        cover chains through the levels in between: a chain climbs one cover
        edge per level and counts with the product of its edges'
        multiplicities.  Every chain total starts at 1, so the step next to
        the starting level in each direction sums plain multiplicities; only
        the steps past it weight them by the totals so far."""
        if upper_pos is None:
            upper_pos = pos + 1
        if not 0 <= pos < upper_pos < len(self.sizes):
            raise ValueError(f"no level pair at positions ({pos}, {upper_pos})")
        report = self._pair_audits.get((pos, upper_pos))
        if report is None:
            up_totals = [0] * self.sizes[upper_pos - 1]
            for lows in self._down_rows(upper_pos - 1):
                for a, mult in lows.items():
                    up_totals[a] += mult
            for q in range(upper_pos - 2, pos - 1, -1):
                below = [0] * self.sizes[q]
                for b, lows in enumerate(self._down_rows(q)):
                    for a, mult in lows.items():
                        below[a] += mult * up_totals[b]
                up_totals = below
            down_totals = list(map(sum, map(dict.values, self._down_rows(pos))))
            for q in range(pos + 1, upper_pos):
                down_totals = [
                    sum(mult * down_totals[a] for a, mult in lows.items()) for lows in self._down_rows(q)
                ]
            report = self._pair_audits[(pos, upper_pos)] = LevelPairRegularity(
                lower_rank=self.rank_of_position(pos),
                upper_rank=self.rank_of_position(upper_pos),
                lower_size=self.sizes[pos],
                upper_size=self.sizes[upper_pos],
                up_degrees=tuple(sorted(set(up_totals))),
                down_degrees=tuple(sorted(set(down_totals))),
                edge_count=sum(up_totals),
            )
        return report

    # -- connectivity -----------------------------------------------------------

    def is_weakly_connected_pair(self, rank: int, upper_rank: int | None = None) -> bool:
        """True iff the undirected bipartite graph between the levels of rank
        and upper_rank (default rank+1), with an edge wherever a cover chain
        joins two elements, is connected.  One pass over the pair's
        ``down_masks`` merges components in a union-find over the lower
        elements, each root keeping the mask of its component; a mask visits
        only the lowest bit of each component or new lower element it
        meets, so the pass takes O(upper + lower) mask operations.  Like
        ``down_masks`` it raises BudgetExceededError past ``MAX_MASK_BITS``."""
        if upper_rank is None:
            upper_rank = rank + 1
        p_lo, p_hi = self.position(rank), self.position(upper_rank)
        if p_hi <= p_lo:
            raise ValueError("upper rank must be above lower rank")
        parent = list(range(self.sizes[p_lo]))
        parts: dict[int, int] = {}  # root -> the mask of its component's lower elements
        last = 0  # the component merged last; a mask inside it merges nothing
        for mask in self.down_masks(p_hi, p_lo):
            if not mask:  # an upper element joined to nothing
                return False
            if mask & last == mask:
                continue
            top, rest = None, mask
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                part = parts.pop(j, low)  # a lower element no mask met yet is a part of its own
                rest ^= rest & part
                if top is None:
                    top, merged = j, part
                else:
                    parent[j], merged = top, merged | part
            parts[top] = last = merged
        return len(parts) == 1 and last == (1 << self.sizes[p_lo]) - 1

    # -- export -------------------------------------------------------------------

    def to_dot(self) -> str:
        """DOT digraph with one pinned rank per level and multiplicity labels
        read from the pair's rows, each node label escaped by
        ``_dot_escaped``.  Each pair's edge lines come from one pass over its
        down rows, in upper-index order, into a bucket per lower element,
        so the lines run by lower and then upper index with no sort and no
        transpose.  Raises BudgetExceededError when the poset has more than
        ``MAX_VERTICES`` elements."""
        total = sum(self.sizes)
        if total > MAX_VERTICES:
            raise BudgetExceededError(f"poset has {total} vertices, above the cap of "
                                      f"{MAX_VERTICES}; export a smaller instance")
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for p in range(len(self.sizes)):
            labels = map(_dot_escaped, self._names(p))
            nodes = "; ".join(f'n{p}_{i} [label="{label}"]' for i, label in enumerate(labels))
            lines.append("  { rank=same; " + nodes + "; }")
        for p in range(len(self.sizes) - 1):
            tails = [[] for _ in range(self.sizes[p])]  # by lower index: each edge's line past its head
            for hi, lows in enumerate(self._down_rows(p)):
                plain = f"{hi};"
                for lo, mult in lows.items():
                    tails[lo].append(f'{hi} [label="{mult}"];' if mult > 1 else plain)
            for lo, row in enumerate(tails):
                if row:
                    head = f"  n{p}_{lo} -> n{p + 1}_"
                    lines.append(head + ("\n" + head).join(row))
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Compact interchange form: element strings per level, edge triples
        (lower name, upper name, multiplicity), the multiplicity read from
        the pair's rows.  Like ``to_dot``, each pair's triples are made in
        one pass over its down rows into a bucket per lower element, then
        chained: by lower and then upper index, with no sort."""
        names = [self._names(p) for p in range(len(self.sizes))]
        edges = []
        for p in range(len(self.sizes) - 1):
            lower, upper = names[p], names[p + 1]
            triples = [[] for _ in lower]  # by lower index
            for hi, lows in enumerate(self._down_rows(p)):
                name = upper[hi]
                for lo, mult in lows.items():
                    triples[lo].append([lower[lo], name, mult])
            edges.extend(itertools.chain.from_iterable(triples))
        return {
            "family": self.family,
            "first_rank": self.first_rank,
            "levels": [list(level_names) for level_names in names],
            "edges": edges,
        }

    def __repr__(self):
        sizes = ",".join(map(str, self.sizes))
        return f"GradedPoset({self.family}; sizes {sizes})"


# ---------------------------------------------------------------------------
# Regularity audit

@dataclass(frozen=True)
class LevelPairRegularity:
    """Observed degrees between two levels, adjacent or not (``pair_regularity``)."""

    lower_rank: int
    upper_rank: int
    lower_size: int
    upper_size: int
    up_degrees: tuple[int, ...]    # distinct up-degrees of lower elements, sorted
    down_degrees: tuple[int, ...]  # distinct down-degrees of upper elements, sorted
    edge_count: int                # with multiplicity; u * lower_size = d * upper_size when biregular

    @property
    def is_biregular(self) -> bool:
        return len(self.up_degrees) == 1 and len(self.down_degrees) == 1

    @property
    def up_degree(self) -> int | None:
        return self.up_degrees[0] if len(self.up_degrees) == 1 else None

    @property
    def down_degree(self) -> int | None:
        return self.down_degrees[0] if len(self.down_degrees) == 1 else None


@dataclass(frozen=True)
class RegularityReport:
    pairs: tuple[LevelPairRegularity, ...]

    @property
    def is_level_regular(self) -> bool:
        return all(p.is_biregular for p in self.pairs)

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


lower_shadow = GradedPoset.lower_shadow  # lower_shadow(poset, rank, elements)
upper_shadow = GradedPoset.upper_shadow


# ---------------------------------------------------------------------------
# Builders

def _require_elements(lengths, size, size_bits) -> None:
    """Refuse a build, before anything is enumerated, whose level sizes,
    ``size(l)`` over ``lengths``, total more than ``MAX_ELEMENTS``, or that
    passes more than ``MAX_LEVELS`` lengths: one per level, but subsets pass
    their one n.  Elements are checked first, so a build past both caps
    names its elements, and ``len`` is taken only of a range that passed
    that cap, however long the range asked for."""
    many = count_above(MAX_ELEMENTS, lengths, size, size_bits)
    if many is not None:
        raise BudgetExceededError(f"the poset has {many} elements, above the cap of "
                                  f"{MAX_ELEMENTS}; build a smaller instance")
    if len(lengths) > MAX_LEVELS:
        raise BudgetExceededError(f"the poset has {len(lengths)} levels, above the cap of "
                                  f"{MAX_LEVELS}; build a smaller instance")


def _cover_rows(index: dict, upper, step, p: int) -> list[dict]:
    """The rows of the pair (p, p+1) from ``index``, the checked key ->
    index dict of level p, and the keys ``upper`` of level p+1 in its
    level's order, in one pass over the step's keys: row j maps i to m
    when m of the keys that the cover step gives for upper key j are lower
    key i, the i in order of first occurrence.  Every i comes from
    ``index`` and every m counts at least one key, so the rows need no
    second check.  A value that is no lower key, hashable or not, raises
    ValueError naming the pair."""
    rows = []
    for k in upper:
        row = {}
        for word in step(k):
            try:
                i = index[word]
            except (KeyError, TypeError):
                raise ValueError(f"the cover step between levels {p} and {p + 1} maps {k!r} "
                                 f"to {word!r}, which is no key of level {p}") from None
            row[i] = row.get(i, 0) + 1
        rows.append(row)
    return rows


class _SubsetLevel(Level):
    """The i-subsets of ``universe`` = [1..n], in the lexicographic order
    of their increasing sequences, ranked by the combinatorial number system."""

    __slots__ = ("universe", "i")
    element = frozenset  # a key is a subset's increasing sequence

    def __init__(self, universe: frozenset, i: int, size: int):
        self.universe, self.i, self.size = universe, i, size

    def keys(self):
        return itertools.combinations(range(1, len(self.universe) + 1), self.i)

    def names(self):
        if not self.i:
            return iter(("∅",))
        texts = map(str, range(1, len(self.universe) + 1))
        return map("{%s}".__mod__, map(",".join, itertools.combinations(texts, self.i)))

    def key_at(self, index: int) -> tuple[int, ...]:
        n, key, c = len(self.universe), [], 1
        for left in range(self.i - 1, -1, -1):  # c passes the C(n - c, left) subsets that hold it next
            while index >= (skip := math.comb(n - c, left)):
                index, c = index - skip, c + 1
            key.append(c)
            c += 1
        return tuple(key)

    def heads(self, below):
        n, i = len(self.universe), self.i
        if type(below) is not _SubsetLevel or (len(below.universe), below.i + 1) != (n, i):
            return None
        heads = []
        for c in range(1, n - i + 2):
            start = math.comb(n, i - 1) - math.comb(n - c, i - 1)  # the keys below past c come last
            first = math.comb(n, i) - math.comb(n - c + 1, i)  # the keys here led by a member below c
            heads.append((c, start, math.comb(n, i - 1), first - start))
        return heads

    def find(self, x):
        n, i = len(self.universe), self.i
        if isinstance(x, frozenset) and len(x) == i and x <= self.universe:
            # the rank of c_0 < .. < c_(i-1) is C(n, i) - 1 - sum over t of C(n - c_t, i - t);
            # int() maps a member equal to one of 1..n (True, 2.0) to it, as a dict lookup would
            return math.comb(n, i) - 1 - sum(math.comb(n - c, i - t) for t, c in enumerate(sorted(map(int, x))))
        return None

    @staticmethod
    def parse(text: str) -> frozenset:
        """The subset a name spells: ``∅`` or ``{a,b,..}``."""
        if text == "∅":
            return frozenset()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"cannot parse subset {text!r}")
        return frozenset(map(parse_number, text[1:-1].split(",")))


def build_string_poset(r: int, relation: str, max_level: int) -> GradedPoset:
    """Strings over {0, .., r-1} of length 0..max_level under one of the three
    symbol-comparing orders; level 0 is the empty string."""
    require_ints(r, max_level)
    if r < 1 or max_level < 0:
        raise ValueError("need r >= 1 and max_level >= 0")
    if relation not in STRING_RELATIONS:
        raise ValueError(f"relation must be one of {STRING_RELATIONS}")
    size = lambda l: r**l
    _require_elements(range(max_level + 1), size, lambda l: (r.bit_length() - 1) * l)
    levels = [StringLevel(r, l, size(l)) for l in range(max_level + 1)]
    return GradedPoset(levels, [ORDERS[relation].deletions] * max_level, family=f"string({relation}, r={r})")


def build_partial_perm_poset(k: int, relation: str) -> GradedPoset:
    """Partial permutations over [1..k], levels by length 1..k, under one of
    the three symbol-comparing orders."""
    require_ints(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if relation not in STRING_RELATIONS:
        raise ValueError(f"relation must be one of {STRING_RELATIONS}")
    size = partial(math.perm, k)
    _require_elements(range(1, k + 1), size, factorial_bits)  # k!/(k-l)! >= l!
    levels = [SequenceLevel(k, l, size(l)) for l in range(1, k + 1)]
    return GradedPoset(levels, [ORDERS[relation].deletions] * (k - 1), family=f"partial_perm({relation}, k={k})",
                       first_rank=1)


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
    # position p holds the (p // 2 + 1)-sequences over [(p + 3) // 2]: ((p + 3) // 2)! of them
    size = lambda p: math.factorial((p + 3) // 2)
    _require_elements(range(2 * k - 1), size, lambda p: factorial_bits((p + 3) // 2))
    levels = [SequenceLevel((p + 3) // 2, p // 2 + 1, size(p)) for p in range(2 * k - 1)]
    # a helper covers its pattern; a permutation, the helpers it deletes down to
    steps = [_pattern_of, ORDERS[ORDERS[relation].base].deletions] * (k - 1)
    return GradedPoset(levels, steps, family=f"perm_pattern({relation}, k={k})", first_rank=0)


def build_subset_poset(n: int) -> GradedPoset:
    """Subsets of [1..n] ordered by inclusion, levels by cardinality.

    Inclusion is the subsequence order on the subsets' increasing
    sequences, so the covers come from those tuples, one deletion each."""
    require_ints(n)
    if n < 0:
        raise ValueError("need n >= 0")
    _require_elements((n,), lambda n: 2**n, lambda n: n)
    universe = frozenset(range(1, n + 1))
    levels = [_SubsetLevel(universe, i, math.comb(n, i)) for i in range(n + 1)]
    return GradedPoset(levels, [ORDERS["subsequence"].deletions] * n, family=f"subsets(n={n})", first_rank=0)
