"""Spans around the calls into posetkraft, for the traced run.

The tracer replaces public names where their callers look them up: module
attributes such as ``poset.strings`` (the name the builders call) and
methods of ``GradedPoset``.  Each call records a span (id, name, start,
end, parent id); spans stay in memory until the run ends.  A layer's self
time is a span's duration minus the time its child spans cover.  Counts
are taken from return values at the same boundaries.

``format_poset_element`` runs once per element inside exports and element
resolution, so it is traced as a hot leaf: its time is added up without
a span per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (id, name, start, end, parent id)
        self.stack: list[list] = []     # open spans: [id, time covered by children]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.next_id = 0
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, layer: str, name: str | None = None):
        frame = [self.next_id, 0.0]
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_time[layer] += duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            self.spans.append((frame[0], name or layer, start, end, parent))

    def wrap(self, owner, attr: str, layer: str, count=None, hot: bool = False) -> None:
        """Replace owner.attr by a traced version; ``count`` is a pair
        (counter name, function of the return value)."""
        original = getattr(owner, attr)
        name = f"{layer}:{attr}"

        if hot:
            def traced(*args, **kwargs):
                start = perf_counter()
                value = original(*args, **kwargs)
                duration = perf_counter() - start
                self.self_time[layer] += duration
                if self.stack:
                    self.stack[-1][1] += duration
                return value
        else:
            def traced(*args, **kwargs):
                with self.span(layer, name):
                    value = original(*args, **kwargs)
                if count is not None:
                    self.counts[count[0]] += count[1](value)
                return value

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def edge_total(host) -> int:
    return sum(sum(cover.values()) for cover in host.covers)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from posetkraft import codes, lym, poset

    graded = poset.GradedPoset
    for name in ("strings", "partial_permutations", "full_permutations"):
        tracer.wrap(poset, name, "perm.enumerate", count=("perm.elements", len))
    for name in ("build_string_poset", "build_partial_perm_poset", "build_pattern_poset",
                 "build_subset_poset"):
        tracer.wrap(poset, name, "poset.cover", count=("poset.edges", edge_total))
    tracer.wrap(poset, "GradedPoset", "poset.index")
    tracer.wrap(poset, "regularity_check", "poset.regularity")
    for owner, name in ((poset, "lower_shadow"), (poset, "upper_shadow"), (graded, "less_than")):
        tracer.wrap(owner, name, "poset.shadow")
    for name in ("to_json_dict", "to_dot"):
        tracer.wrap(graded, name, "poset.export")
    for owner in (poset, lym):
        tracer.wrap(owner, "format_poset_element", "poset.format", hot=True)
    tracer.wrap(lym, "antichain_from_json_dict", "lym.resolve")
    for name in ("is_antichain", "lym_number", "reduce_top_level", "local_lym_check"):
        tracer.wrap(lym, name, "lym.check")
    tracer.wrap(lym, "counterexample_params", "lym.counterexample")
    tracer.wrap(lym, "antichain_exists", "lym.search", count=("lym.search_nodes", lambda o: o.nodes))
    tracer.wrap(lym, "mcmillan_construct", "lym.mcmillan",
                count=("lym.codewords", lambda made: len(made.code) if made.code else 0))
    tracer.wrap(codes, "is_free", "codes.free")
    tracer.wrap(codes, "is_uniquely_decodable", "codes.ud")
    for name in ("kraft_number", "partial_perm_constant", "full_perm_constant"):
        tracer.wrap(codes, name, "codes.constants")
    for name in ("encode", "decode_prefix_free"):
        tracer.wrap(codes, name, "codes.coding")
