"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload it runs one round of tiny tasks and requires every
output to pass its check.  Then, for every output of every task, it hands
the check a deliberately wrong answer and requires a rejection.  Last, it
traces every round of the pool under two seeds and requires equal layer
counts, since the counts are reported as exact per-round figures.  Exits 0
when all hold.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from posetkraft import codes, lym, poset  # noqa: E402
from posetkraft.perm import Str  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402

NUDGE = Fraction(1, 997)


def drop_one(members):
    return type(members)(sorted(members, key=repr)[1:])


def drop_antichain_member(chain):
    return lym.Antichain(frozenset(sorted(chain.members, key=repr)[1:]))


def bump_first_pair(report):
    first = report.pairs[0]
    bumped = dataclasses.replace(first, up_degrees=(first.up_degrees[0] + 1,))
    return poset.RegularityReport((bumped,) + report.pairs[1:])


def bump_edge(data):
    edges = [list(e) for e in data["edges"]]
    edges[0][2] += 1
    return dict(data, edges=edges)


def drop_last_edge_line(text):
    lines = text.splitlines()
    last = max(i for i, line in enumerate(lines) if " -> " in line)
    return "\n".join(lines[:last] + lines[last + 1:])


def drop_last_digit_line(result):
    code, out, err, rss = result
    lines = out.splitlines()
    last = max(i for i, line in enumerate(lines) if any(ch.isdigit() for ch in line))
    return code, "\n".join(lines[:last] + lines[last + 1:]), err, rss


def flip_free(results):
    first = results[0]
    return (dataclasses.replace(first, free=not first.free),) + results[1:]


def shorter_code(made):
    code = made.code
    return lym.McMillanResult(codes.Code(code.codomain, code.codewords[:-1]), None)


def corrupt_encoding(pair):
    code, out = pair
    symbols = ((out.symbols[0] + 1) % out.universe,) + out.symbols[1:]
    return code, Str(symbols, out.universe)


MUTATORS = {
    "regularity": [bump_first_pair],
    "export": [bump_edge],
    "dot": [drop_last_edge_line],
    "resolved": [drop_antichain_member],
    "antichain": [lambda c: dataclasses.replace(c, ok=not c.ok)],
    "lym": [lambda v: v + NUDGE],
    "reduced": [drop_antichain_member],
    "local": [lambda r: dataclasses.replace(r, lhs=r.lhs + NUDGE)],
    "probe": [lambda c: dataclasses.replace(c, witness=c.witness[::-1]),
              lambda c: dataclasses.replace(c, ok=True, witness=None)],
    "lower_shadow": [drop_one],
    "upper_shadow": [drop_one],
    "less_than": [lambda t: (not t[0],) + t[1:]],
    "counterexample": [lambda r: dataclasses.replace(r, gcd=r.gcd + 1),
                       lambda r: dataclasses.replace(r, lym_sum=r.lym_sum + NUDGE)],
    "verdict": [lambda o: dataclasses.replace(o, exists=True)],
    "mcmillan": [shorter_code, lambda m: lym.McMillanResult(None, 3)],
    "overfull": [lambda m: dataclasses.replace(m, failed_level=m.failed_level + 1)],
    "free_prefix": [lambda r: dataclasses.replace(r, free=not r.free)],
    "free_strings": [flip_free],
    "free_perms": [flip_free],
    "not_free": [lambda r: dataclasses.replace(r, witness=r.witness[::-1])],
    "ud_prefix": [lambda b: not b],
    "ud_suffix": [lambda b: not b],
    "ud_ambiguous": [lambda b: not b],
    "kraft": [lambda v: v + NUDGE],
    "partial_constant": [lambda v: v + NUDGE],
    "full_constant": [lambda v: v + NUDGE],
    "encoded": [corrupt_encoding],
    "decoded": [lambda m: (m[0] + 1,) + m[1:]],
    "witness": [lambda o: dataclasses.replace(o, antichain=drop_antichain_member(o.antichain))],
    "result": [lambda r: (1 - r[0] if r[0] in (0, 1) else 0,) + r[1:], drop_last_digit_line],
}


def check_rounds(name: str, rounds: list, problems: list) -> int:
    """Run one tiny round; every output must pass and every mutation fail."""
    rejected = 0
    for task in rounds[0]:
        out = task.run()
        try:
            task.verify(out)
        except CheckFailed as exc:
            problems.append(f"{name}: correct output rejected: {exc}")
            continue
        for key, value in out.items():
            for mutate in MUTATORS[key]:
                try:
                    task.verify(dict(out, **{key: mutate(value)}))
                except CheckFailed:
                    rejected += 1
                else:
                    problems.append(f"{name}: {task.label}: wrong {key} accepted")
    return rejected


def traced_counts(workload: str, seed: int, fixtures: Path) -> list:
    """Layer counts of each round of the pool (CLI commands in-process)."""
    rounds = workloads.make_rounds(workload, seed, tiny=True, fixtures=str(fixtures),
                                   in_process=True)
    counts = []
    for tasks in rounds:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            for task in tasks:
                task.verify(task.run())
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    return counts


def main() -> int:
    scratch = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    env = workloads.cli_env(str(ROOT))
    problems: list[str] = []
    try:
        for name in workloads.WORKLOADS:
            rounds = workloads.make_rounds(name, 0, tiny=True, fixtures=str(scratch / name), env=env)
            rejected = check_rounds(name, rounds, problems)
            print(f"{name}: {len(rounds[0])} tasks pass, {rejected} wrong answers rejected")
        twins = workloads.make_rounds("cli", 0, fixtures=str(scratch / "twins"), in_process=True)
        rejected = check_rounds("cli in-process", twins, problems)
        print(f"cli in-process: {len(twins[0])} tasks pass, {rejected} wrong answers rejected")
        for name in workloads.WORKLOADS:
            counts = [c for seed in (0, 1) for c in traced_counts(name, seed, scratch / f"c{seed}")]
            if any(c != counts[0] for c in counts):
                problems.append(f"{name}: layer counts differ between rounds or seeds: {counts}")
            print(f"{name}: layer counts per round {counts[0]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
