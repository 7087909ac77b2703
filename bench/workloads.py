"""The four workloads: seeded inputs, the calls into posetkraft that are
timed, and the checks of every output against the benchmark's oracle.

A task is one unit of user work.  ``run`` makes the calls and returns the
raw outputs by name; ``checks`` maps each output name to a function that
raises CheckFailed on a wrong answer.  Package names are looked up through
their modules at call time, so the tracer's wrappers see every call.

Every round of a workload has the same make-up (families, sizes, search
profiles); the seed draws the elements, codes, messages and arguments and
the order of the tasks.  Counts of elements, edges, search nodes and
codewords per round therefore do not depend on the seed.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from posetkraft import codes, lym, poset
from posetkraft.perm import PartialPermutation, Str

import oracle
from oracle import CheckFailed, Family, expect

ROUNDS_PER_POOL = 4  # distinct seeded rounds; a run cycles through them
SEARCH_BUDGET = 2_000_000


class Task:
    def __init__(self, label: str, run, checks: dict):
        self.label, self.run, self.checks = label, run, checks

    def verify(self, out: dict) -> None:
        expect(set(out) == set(self.checks), f"{self.label}: outputs {sorted(out)}")
        for key, check in self.checks.items():
            try:
                check(out[key])
            except CheckFailed as exc:
                raise CheckFailed(f"{self.label}: {key}: {exc}") from None


def syms(x) -> tuple:
    if isinstance(x, Str):
        return x.symbols
    if isinstance(x, PartialPermutation):
        return x.entries
    return tuple(sorted(x))


def element(fam: Family, pos: int, s: tuple):
    """The package's value for an element of the family."""
    if fam.kind == "str":
        return Str(s, fam.size)
    if fam.kind == "subsets":
        return frozenset(s)
    return PartialPermutation(s, fam.universe(pos))


def build(fam: Family):
    if fam.kind == "str":
        return poset.build_string_poset(fam.size, fam.relation, fam.top)
    if fam.kind == "pperm":
        return poset.build_partial_perm_poset(fam.size, fam.relation)
    if fam.kind == "pattern":
        return poset.build_pattern_poset(fam.size, fam.relation)
    return poset.build_subset_poset(fam.size)


def equal(expected, what: str):
    def check(value):
        expect(value == expected, f"{what}: got {value!r}, expected {expected!r}")
    return check


# ---------------------------------------------------------------------------
# build: construct a poset, audit it, export it, work with a small antichain

# Per round: the heaviest instance twice (so the 90th percentile lies inside
# its group), a middle instance four times (the median lies inside it), and
# one light instance of each other family.  Sizes keep >= 100 tasks in a run.
BUILD_ROUND = (
    [Family("pperm", 6, "subsequence"), Family("pattern", 6, "pattern"),
     Family("str", 3, "substring", top=7)]
    + [Family("subsets", 12)] * 4
    + [Family("str", 2, "subsequence", top=11)]
    + [Family("pattern", 7, "substring_pattern")] * 2
)
BUILD_TINY = [Family("pperm", 5, "subsequence"), Family("pattern", 5, "pattern"),
              Family("str", 3, "substring", top=5), Family("subsets", 6)]
DOT_CAP = 5000  # to_dot's default vertex cap


def antichain_levels(fam: Family) -> tuple[int, int]:
    """Top and lower positions of the sampled antichain (permutation levels
    for the pattern posets)."""
    if fam.kind == "str":
        t = fam.top - 1
    elif fam.kind == "pperm":
        t = fam.size - 2
    elif fam.kind == "pattern":
        t = fam.num_levels - 1
    else:
        t = fam.size // 2 + 1
    return t, t - 2


def build_task(fam: Family, rng: random.Random) -> Task:
    t, lo = antichain_levels(fam)
    rank_t, rank_lo = fam.first_rank + t, fam.first_rank + lo
    while True:  # redraw the top members until two lower elements stay free
        top = set()
        while len(top) < 3:
            top.add(fam.random_element(rng, t))
        top = sorted(top)
        blocked = fam.down_from(t, top, lo)
        if fam.level_size(lo) - len(blocked) >= 2:
            break
    low = set()
    while len(low) < 2:
        y = fam.random_element(rng, lo)
        if y not in blocked:
            low.add(y)
    low = sorted(low)
    b = top[0]
    a = rng.choice(sorted(fam.down_from(t, [b], lo)))

    names = [[rank_t, fam.name(t, x)] for x in top] + [[rank_lo, fam.name(lo, y)] for y in low]
    top_obj = [element(fam, t, x) for x in top]
    low_obj = [element(fam, lo, y) for y in low]
    a_obj, b_obj = element(fam, lo, a), top_obj[0]
    probe = [(rank_t, x) for x in top_obj] + [(rank_lo, y) for y in low_obj] + [(rank_lo, a_obj)]

    shadow = fam.down_from(t, top, t - 1)
    upper = set().union(*(fam.upper_covers(lo, y) for y in low))
    size_t, size_mid, size_lo = fam.level_size(t), fam.level_size(t - 1), fam.level_size(lo)
    with_dot = fam.total_size() <= DOT_CAP

    def run():
        host = build(fam)
        out = {
            "regularity": poset.regularity_check(host),
            "export": host.to_json_dict(),
        }
        if with_dot:
            out["dot"] = host.to_dot()
        chain = lym.antichain_from_json_dict(host, {"antichain": names})
        out["resolved"] = chain
        out["antichain"] = lym.is_antichain(host, chain)
        out["lym"] = lym.lym_number(host, chain)
        out["reduced"] = lym.reduce_top_level(host, chain)
        out["local"] = lym.local_lym_check(host, rank_t, top_obj)
        out["probe"] = lym.is_antichain(host, probe)
        out["lower_shadow"] = poset.lower_shadow(host, rank_t, top_obj)
        out["upper_shadow"] = poset.upper_shadow(host, rank_lo, low_obj)
        out["less_than"] = (
            host.less_than(rank_lo, a_obj, rank_t, b_obj),
            host.less_than(rank_lo, low_obj[0], rank_t, b_obj),
        )
        return out

    def member_names(members):
        return {(rank, fam.name(rank - fam.first_rank, syms(x))) for rank, x in members}

    def names_at(pos, elements):
        return {fam.name(pos, syms(x)) for x in elements}

    reduced = {(rank_lo, fam.name(lo, y)) for y in low} | {
        (rank_t - 1, fam.name(t - 1, z)) for z in shadow
    }

    def check_probe(result):
        expect(not result.ok and result.witness is not None, "comparable member pair not found")
        (ra, xa), (rb, xb) = result.witness
        pa, pb = ra - fam.first_rank, rb - fam.first_rank
        expect(fam.below(pa, syms(xa), pb, syms(xb)), f"witness {result.witness} is not comparable")

    def check_local(result):
        expect(result.lhs == Fraction(len(shadow), size_mid), f"lhs {result.lhs}")
        expect(result.rhs == Fraction(len(top), size_t), f"rhs {result.rhs}")
        expect(result.holds is True and result.lhs >= result.rhs, "local inequality verdict")

    checks = {
        "regularity": lambda rep: check_regularity(fam, rep),
        "export": lambda data: check_export(fam, data),
        "resolved": lambda chain: expect(
            member_names(chain) == {tuple(n) for n in names}, "resolved members differ"
        ),
        "antichain": lambda result: expect(result.ok and result.witness is None, "antichain rejected"),
        "lym": equal(Fraction(len(top), size_t) + Fraction(len(low), size_lo), "LYM number"),
        "reduced": lambda chain: expect(member_names(chain) == reduced, "reduced members differ"),
        "local": check_local,
        "probe": check_probe,
        "lower_shadow": lambda s: expect(names_at(t - 1, s) == {fam.name(t - 1, z) for z in shadow},
                                         "lower shadow differs"),
        "upper_shadow": lambda s: expect(names_at(lo + 1, s) == {fam.name(lo + 1, z) for z in upper},
                                         "upper shadow differs"),
        "less_than": equal((True, False), "less_than answers"),
    }
    if with_dot:
        checks["dot"] = lambda text: check_dot(fam, text)
    return Task(f"build {fam!r}", run, checks)


def check_regularity(fam: Family, report) -> None:
    expect(report.is_level_regular, "not level-regular")
    expect(len(report.pairs) == fam.num_levels - 1, "pair count")
    for p, pair in enumerate(report.pairs):
        u, d = fam.degrees(p)
        got = (pair.lower_rank, pair.lower_size, pair.upper_size, pair.up_degrees,
               pair.down_degrees, pair.edge_count)
        want = (fam.first_rank + p, fam.level_size(p), fam.level_size(p + 1), (u,), (d,),
                fam.edges(p))
        expect(got == want, f"pair {p}: got {got}, expected {want}")
        expect(u * fam.level_size(p) == d * fam.level_size(p + 1), f"pair {p}: u*|lower| != d*|upper|")


def check_export(fam: Family, data: dict) -> None:
    levels = data["levels"]
    expect(data["first_rank"] == fam.first_rank, "first_rank")
    expect(len(levels) == fam.num_levels, "level count")
    for p, names in enumerate(levels):
        first, last = fam.first_last(p)
        expect(len(names) == fam.level_size(p), f"level {p} size {len(names)}")
        expect(len(set(names)) == len(names), f"level {p} has repeated names")
        expect(names[0] == fam.name(p, first) and names[-1] == fam.name(p, last),
               f"level {p} ends {names[0]}..{names[-1]}")
    edges = data["edges"]
    expect(sum(m for _, _, m in edges) == sum(fam.edges(p) for p in range(fam.num_levels - 1)),
           "total edge multiplicity")
    for lower, upper, mult in random.Random(len(edges)).sample(edges, min(12, len(edges))):
        pu = fam.position_of(upper)
        expect(fam.position_of(lower) == pu - 1, f"edge {lower}->{upper} skips a level")
        got = fam.lower_covers(pu, oracle.parse_name(upper)).count(oracle.parse_name(lower))
        expect(got == mult, f"edge {lower}->{upper} multiplicity {mult}, expected {got}")


def check_dot(fam: Family, text: str) -> None:
    lines = text.splitlines()
    expect(lines[0] == "digraph hasse {" and lines[-1] == "}", "DOT frame")
    nodes = sum(line.count('[label="') for line in lines if line.startswith("  { rank=same;"))
    expect(nodes == fam.total_size(), f"DOT vertex count {nodes}")
    total = 0
    for line in lines:
        if " -> " in line:
            total += int(line.split('label="')[1].split('"')[0]) if "label=" in line else 1
    expect(total == sum(fam.edges(p) for p in range(fam.num_levels - 1)), "DOT edge multiplicity")


def build_round(rng: random.Random, tiny: bool) -> list:
    tasks = [build_task(fam, rng) for fam in (BUILD_TINY if tiny else BUILD_ROUND)]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# certify: prove with exhaustive search that an antichain profile is impossible

# (family, lower and upper position of a counterexample pair) or
# (family, profile of density > 1).  Each percentile lies inside a group of
# one repeated instance: five light refutations, then three of the same
# middle one (the median), one heavier pair, one three-level search, and
# two of a slightly heavier three-level search (the 90th percentile).
CERTIFY_ROUND = [
    (Family("subsets", 8), (2, 3)),
    (Family("str", 3, "subsequence", top=3), (2, 3)),
    (Family("subsets", 6), (2, 3)),
    (Family("str", 2, "subsequence", top=7), (6, 7)),
    (Family("pattern", 4, "pattern"), (4, 6)),
    *[(Family("pperm", 5, "subsequence"), (1, 2))] * 3,
    (Family("str", 3, "subsequence", top=4), (3, 4)),
    (Family("pattern", 4, "substring_pattern"), [0, 0, 1, 0, 2, 0, 5]),
    *[(Family("pattern", 4, "pattern"), [0, 0, 1, 0, 2, 0, 5])] * 2,
]
CERTIFY_TINY = [
    (Family("str", 2, "subsequence", top=3), (2, 3)),
    (Family("pattern", 3, "pattern"), (2, 4)),
    (Family("subsets", 4), [0, 2, 4, 0, 0]),
]


def certify_task(fam: Family, spec) -> Task:
    checks = {}
    if isinstance(spec, tuple):
        lo, hi = spec
        n_lo, n_hi = fam.level_size(lo), fam.level_size(hi)
        g = math.gcd(n_lo, n_hi)
        counts = [0] * fam.num_levels
        counts[lo], counts[hi] = (g - 1) * n_lo // g, n_hi // g
        u = d = 1
        for p in range(lo, hi):
            u, d = u * fam.degrees(p)[0], d * fam.degrees(p)[1]
        expect(Fraction(counts[lo], n_lo) + Fraction(counts[hi], n_hi) == 1, "vector density")

        def check_params(res):
            got = (res.accepted, res.lower_rank, res.upper_rank, res.up_degree,
                   res.down_degree, res.gcd, list(res.counts.counts), res.lym_sum)
            want = (True, fam.first_rank + lo, fam.first_rank + hi, u, d, g, counts, 1)
            expect(got == want, f"got {got}, expected {want}")

        checks["counterexample"] = check_params
        label = f"certify {fam!r} pair {lo}/{hi}"
    else:
        profile = spec
        density = sum(Fraction(a, fam.level_size(p)) for p, a in enumerate(profile))
        expect(density > 1, f"profile density {density} is not above 1")
        label = f"certify {fam!r} profile {profile}"
    checks["verdict"] = lambda out: expect(
        out.exists is False and out.antichain is None, "an impossible antichain was reported"
    )

    def run():
        host = build(fam)
        if isinstance(spec, tuple):
            res = lym.counterexample_params(host, fam.first_rank + spec[0], fam.first_rank + spec[1])
            return {"counterexample": res,
                    "verdict": lym.antichain_exists(host, res.counts, budget=SEARCH_BUDGET)}
        return {"verdict": lym.antichain_exists(host, spec, budget=SEARCH_BUDGET)}

    return Task(label, run, checks)


def certify_round(rng: random.Random, tiny: bool) -> list:
    tasks = [certify_task(fam, spec) for fam, spec in (CERTIFY_TINY if tiny else CERTIFY_ROUND)]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# codes: greedy prefix codes, freeness, decodability, constants, coding,
# and witness searches on prefix trees

# Per round: four tasks whose deep word has length CODES_SIZES["deep"] and
# one whose deep word is two longer, about twice as costly; that group of
# one fifth holds the 90th percentile.  Witness profiles on the binary
# prefix tree of height 8 go by task slot.
WITNESS_PROFILES = [
    [0, 1, 0, 1, 1, 2, 0, 3, 0],
    [0, 0, 2, 1, 2, 3, 2, 4, 0],
    [0, 1, 1, 1, 1, 1, 1, 2, 0],
    [0, 0, 1, 3, 2, 2, 4, 8, 0],
]
CODES_SIZES = {  # tree leaves, deep word length, fixed-length code sizes, message length
    False: dict(leaves=48, deep=15, words=100, perms=40, message=200, prefix_top=8),
    True: dict(leaves=6, deep=7, words=10, perms=6, message=12, prefix_top=4),
}
CODES_SLOTS = 5  # the last slot is the heavy one


def codes_task(rng: random.Random, slot: int, tiny: bool) -> Task:
    size = CODES_SIZES[tiny]
    # Kraft 1/2 from a random tree under the first branch, plus one deep word:
    # the greedy frontier then grows through the unused half of the tree.
    tree = oracle.random_tree_profile(rng, 2, size["leaves"], 8)
    length = size["deep"] + (2 if slot == CODES_SLOTS - 1 else 0)
    deep = [0] + tree + [0] * (length - len(tree))
    deep[length] += 1
    over = oracle.random_tree_profile(rng, 2, size["leaves"] // 2, 6)
    over[rng.randrange(1, len(over))] += 1
    over_level = oracle.greedy_fail_level(over, 2)
    expect(oracle.kraft_fraction(deep, 2) <= 1 and over_level is not None, "profile draw")

    words = set()
    while len(words) < size["words"]:
        words.add(tuple(rng.randrange(3) for _ in range(6)))
    words = sorted(words)
    rng.shuffle(words)
    strings = codes.Code(codes.Codomain("string", 3), tuple(Str(w, 3) for w in words))
    j = rng.randrange(1, len(words))
    inner = oracle.deletions(words[j], "subsequence")[rng.randrange(6)]
    loose = [inner] + words[1:]
    loose_code = codes.Code(codes.Codomain("string", 3), tuple(Str(w, 3) for w in loose))
    loose_pair = oracle.first_containment(loose, "subsequence")

    perms = set()
    while len(perms) < size["perms"]:
        perms.add(tuple(rng.sample(range(1, 7), 6)))
    perm_code = codes.Code(codes.Codomain("perm_pattern", 6),
                           tuple(PartialPermutation(p, 6) for p in sorted(perms)))

    suffix_words = [w[::-1] for w in oracle.canonical_code([0] + tree, 2)]
    suffix_code = codes.Code(codes.Codomain("string", 2), tuple(Str(w, 2) for w in suffix_words))
    ambiguous = words[:6] + [words[0] + words[1]]
    ambiguous_code = codes.Code(codes.Codomain("string", 3), tuple(Str(w, 3) for w in ambiguous))

    perm_profile = [0] + [rng.randrange(4) for _ in range(6)]
    n_words = sum(deep)
    message = tuple(rng.randrange(1, n_words + 1) for _ in range(size["message"]))
    witness_profile = WITNESS_PROFILES[slot % len(WITNESS_PROFILES)][: size["prefix_top"] + 1]
    prefix_tree = Family("str", 2, "prefix", top=size["prefix_top"])

    def run():
        made = lym.mcmillan_construct(2, deep)
        code = made.code
        encoded = codes.encode(code, message)
        tree_host = build(prefix_tree)
        return {
            "mcmillan": made,
            "overfull": lym.mcmillan_construct(2, over),
            "free_prefix": codes.is_free(code, "prefix"),
            "free_strings": tuple(codes.is_free(strings, rel)
                                  for rel in ("prefix", "subsequence", "substring")),
            "free_perms": tuple(codes.is_free(perm_code, rel)
                                for rel in ("pattern", "substring_pattern")),
            "not_free": codes.is_free(loose_code, "subsequence"),
            "ud_prefix": codes.is_uniquely_decodable(code),
            "ud_suffix": codes.is_uniquely_decodable(suffix_code),
            "ud_ambiguous": codes.is_uniquely_decodable(ambiguous_code),
            "kraft": codes.kraft_number(deep, 2),
            "partial_constant": codes.partial_perm_constant(perm_profile, 6),
            "full_constant": codes.full_perm_constant(perm_profile, 6),
            "encoded": (code, encoded),
            "decoded": codes.decode_prefix_free(code, encoded),
            "witness": lym.antichain_exists(tree_host, witness_profile, budget=SEARCH_BUDGET),
        }

    def check_made(made):
        expect(made.feasible and made.failed_level is None, "feasible profile refused")
        got = [syms(w) for w in made.code.codewords]
        expect(all(set(w) <= {0, 1} for w in got), "non-binary codeword")
        expect(oracle.histogram(got) == deep, "length histogram differs")
        expect(oracle.sorted_neighbours_prefix_free(got), "code is not prefix-free")

    def check_overfull(made):
        expect(not made.feasible and made.code is None, "over-full profile accepted")
        expect(made.failed_level == over_level, f"failed at {made.failed_level}, expected {over_level}")

    def check_free(results, expected):
        expect(tuple(r.free for r in results) == expected, f"verdicts {[r.free for r in results]}")

    def check_not_free(result):
        i, k = loose_pair
        expect(not result.free, "contained word missed")
        expect(tuple(syms(w) for w in result.witness) == (loose[i], loose[k]), "witness pair")

    def check_encoded(pair):
        code, out = pair
        joined = tuple(s for m in message for s in syms(code.codewords[m - 1]))
        expect(syms(out) == joined, "encoding differs from the concatenated codewords")

    def check_witness(out):
        expect(out.exists, "no witness on a prefix tree under Kraft <= 1")
        placed = [(rank, syms(x)) for rank, x in out.antichain.members]
        members = [w for _, w in placed]
        expect(all(len(w) == rank for rank, w in placed), "member at the wrong level")
        counts = oracle.histogram(members)
        expect(counts + [0] * (len(witness_profile) - len(counts)) == witness_profile,
               "witness level counts")
        expect(all(not oracle.is_prefix(u, v) for u in members for v in members if u != v),
               "witness members are comparable")

    checks = {
        "mcmillan": check_made,
        "overfull": check_overfull,
        "free_prefix": lambda r: expect(r.free and r.witness is None, "greedy code not prefix-free"),
        "free_strings": lambda rs: check_free(rs, (True, True, True)),
        "free_perms": lambda rs: check_free(rs, (True, True)),
        "not_free": check_not_free,
        "ud_prefix": equal(True, "prefix code decodability"),
        "ud_suffix": equal(True, "suffix code decodability"),
        "ud_ambiguous": equal(False, "ambiguous code decodability"),
        "kraft": equal(oracle.kraft_fraction(deep, 2), "Kraft number"),
        "partial_constant": equal(oracle.partial_perm_density(perm_profile, 6), "partial constant"),
        "full_constant": equal(oracle.full_perm_density(perm_profile), "full constant"),
        "encoded": check_encoded,
        "decoded": equal(message, "decoded message"),
        "witness": check_witness,
    }
    return Task(f"codes slot {slot}", run, checks)


def codes_round(rng: random.Random, tiny: bool) -> list:
    return [codes_task(rng, slot, tiny) for slot in range(CODES_SLOTS)]


# ---------------------------------------------------------------------------
# cli: every subcommand as a user types it, each in a fresh interpreter

CHILD_TIMEOUT_S = 60
# The CLI module run the way ``python -m`` runs it, plus an exit hook that
# reports the child's own peak memory.  The rusage of a spawned child cannot
# serve: exec records the parent's high-water mark into it.
PEAK_MARK = "peak-rss-kib "
CHILD_MAIN = f"""import atexit, runpy, sys
def report():
    with open('/proc/self/status') as fh:
        peak = [line.split()[1] for line in fh if line.startswith('VmHWM:')]
    sys.stderr.write('{PEAK_MARK}' + peak[0] + '\\n')
atexit.register(report)
runpy.run_module('posetkraft.cli', run_name='__main__', alter_sys=True)
"""


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("POSET_KRAFT_BUDGET", None)
    return env


def run_child(argv: list, cwd: str, env: dict) -> tuple:
    """Run a child to completion; return (exit code, stdout, stderr, peak RSS
    in KiB as the child reports it, else 0).  A child still running after
    CHILD_TIMEOUT_S is killed."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)

    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, _ = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    err, peak = err.decode(), 0
    if PEAK_MARK in err:
        err, _, tail = err.rpartition(PEAK_MARK)
        peak = int(tail)
    return proc.returncode, out.decode(), err, peak


def run_in_process(argv: list, cwd: str) -> tuple:
    """The same argv through cli.main, stdout and stderr captured."""
    from posetkraft import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue(), 0


def cli_commands(rng: random.Random, fixtures: str | None) -> list:
    """(argv, checks of (exit code, stdout)) for every subcommand, plus two
    runs of one heavier counterexample that hold the 90th percentile.
    Families, sizes and search profiles are fixed, so every round has the
    same make-up and layer counts; the seed draws codes, parameters,
    elements and fixture contents.  Fixture files are written into
    ``fixtures`` when it is given."""
    def write(name, payload):
        if fixtures is not None:
            with open(os.path.join(fixtures, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return name

    def fraction_text(value):
        return f"{value.numerator}/{value.denominator}"

    commands = []

    k, l = 5, 3
    first = oracle.element_name(tuple(range(1, l + 1)))
    count = math.perm(k, l)

    def check_enumerate(code, out):
        lines = out.splitlines()
        expect(code == 0 and lines[-1] == f"# count: {count}", "count line")
        expect(lines[0] == first and len(set(lines[:-1])) == len(lines) - 1, "listing")
    commands.append((["enumerate", "--perm", "T", "--k", str(k), "--l", str(l)], check_enumerate))

    words = sorted({tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6))) for _ in range(8)})
    rng.shuffle(words)
    relation = rng.choice(["prefix", "subsequence", "substring"])
    pair = oracle.first_containment(words, relation)
    code_file = write(f"code-{len(commands)}.json", {"codomain": {"kind": "string", "r": 2},
                      "codewords": [oracle.element_name(w) for w in words]})

    def check_free(code, out):
        data = json.loads(out)
        expect(code == (0 if pair is None else 1) and data["free"] == (pair is None), "verdict")
        if pair is not None:
            expect(data["witness"] == [oracle.element_name(words[i]) for i in pair], "witness")
    commands.append((["check-free", code_file, "--relation", relation, "--json"], check_free))

    pwords = sorted({tuple(rng.sample(range(1, 6), rng.randrange(1, 6))) for _ in range(10)})
    pcode_file = write(f"pcode-{len(commands)}.json", {"codomain": {"kind": "partial_perm", "k": 5},
                       "codewords": [oracle.element_name(w) for w in pwords]})
    partial = oracle.partial_perm_density(oracle.histogram(pwords), 5)
    commands.append((["constants", pcode_file, "--json"], lambda code, out: expect(
        code == 0 and json.loads(out) == {"P_partial": fraction_text(partial)}, "P_partial")))

    r = rng.choice([2, 3])
    params = [rng.randrange(4) for _ in range(rng.randrange(3, 7))]
    kraft = oracle.kraft_fraction(params, r)
    commands.append((["kraft", "--r", str(r), "--params", ",".join(map(str, params)), "--json"],
                     lambda code, out: expect(
                         code == 0 and json.loads(out) == {"K": fraction_text(kraft)}, "K")))

    profile = oracle.random_tree_profile(rng, 2, 8, 6)

    def check_mcmillan(code, out):
        data = json.loads(out)
        got = [oracle.parse_name(w) for w in data["codewords"]]
        expect(code == 0 and oracle.histogram(got) == profile, "histogram")
        expect(oracle.sorted_neighbours_prefix_free(got), "prefix-free")
    commands.append((["mcmillan", "--r", "2", "--params", ",".join(map(str, profile)), "--json"],
                     check_mcmillan))

    fam = Family("str", 2, "subsequence", top=5)
    family_args = ["--str", "--r", "2", "--relation", "subsequence", "--max-level", "5"]

    def check_regularity(code, out):
        data = json.loads(out)
        expect(code == 0 and data["level_regular"] is True, "verdict")
        for p, pair_data in enumerate(data["pairs"]):
            u, d = fam.degrees(p)
            expect(pair_data["up_degrees"] == [u] and pair_data["down_degrees"] == [d]
                   and pair_data["edges"] == fam.edges(p), f"pair {p}")
        expect(len(data["pairs"]) == fam.num_levels - 1, "pair count")
    commands.append((["regularity", *family_args, "--json"], check_regularity))

    n = 4
    subsets = Family("subsets", n)

    def check_hasse(code, out):
        expect(code == 0 and out.count('[label="') == 2**n, "vertex count")
        expect(out.count(" -> ") == n * 2 ** (n - 1), "edge count")
    commands.append((["hasse", "--subsets", "--n", str(n)], check_hasse))

    tree = Family("str", 2, "prefix", top=5)
    chain = sorted(set(oracle.canonical_code(oracle.random_tree_profile(rng, 2, 8, 5), 2)))
    chain = [w for w in chain if rng.random() < 0.7]
    chain_file = write(f"chain-{len(commands)}.json",
                       {"antichain": [[len(w), oracle.element_name(w)] for w in chain]})
    value = sum((Fraction(1, 2 ** len(w)) for w in chain), Fraction(0))
    commands.append((["lym", "--str", "--r", "2", "--relation", "prefix", "--max-level", "5",
                      "--antichain", chain_file, "--json"],
                     lambda code, out: expect(code == 0 and json.loads(out) == {
                         "lym_number": fraction_text(value), "antichain": True}, "LYM")))

    pp = Family("pperm", 4, "subsequence")
    chosen = sorted({pp.random_element(rng, 2) for _ in range(3)})
    shadow = pp.down_from(2, chosen, 1)
    lhs, rhs = Fraction(len(shadow), pp.level_size(1)), Fraction(len(chosen), pp.level_size(2))
    commands.append((["local-lym", "--perm", "--k", "4", "--relation", "subsequence", "--level", "3",
                      "--elements", ",".join(oracle.element_name(w) for w in chosen), "--json"],
                     lambda code, out: expect(code == 0 and json.loads(out) == {
                         "lhs": fraction_text(lhs), "rhs": fraction_text(rhs), "holds": lhs >= rhs},
                         "local LYM")))

    strings = Family("str", 2, "subsequence", top=3)
    g = math.gcd(strings.level_size(2), strings.level_size(3))
    params = {"2": (g - 1) * strings.level_size(2) // g, "3": strings.level_size(3) // g}

    def check_counterexample(code, out):
        data = json.loads(out)
        expect(code == 0 and data["accepted"] and data["params"] == params, "params")
        expect(data["lym_sum"] == "1/1" and data["search"]["exists"] is False, "verdict")
    commands.append((["counterexample", "--str", "--r", "2", "--relation", "subsequence",
                      "--max-level", "3", "--level", "2", "--json"], check_counterexample))

    cube = Family("subsets", 5)
    members = [(5,), (1, 2), (1, 3), (2, 3, 4)]  # an antichain, so the search must find one
    expect(not any(cube.below(len(a), a, len(b), b) for a in members for b in members),
           "antichain-search profile")

    def padded(found):
        counts = oracle.histogram(found)
        return counts + [0] * (cube.num_levels - len(counts))

    counts = padded(members)

    def check_search(code, out):
        data = json.loads(out)
        expect(code == 0 and data["exists"] is True, "witness expected")
        found = [oracle.parse_name(text) for _, text in data["antichain"]]
        expect(padded(found) == counts, "witness counts")
        expect(all(not cube.below(len(a), a, len(b), b) for a in found for b in found),
               "witness comparable")
    commands.append((["antichain-search", "--subsets", "--n", "5",
                      "--counts", ",".join(map(str, counts))], check_search))

    heavy = Family("pperm", 5, "subsequence")  # levels of 20 and 60: 34,220 search nodes
    n_lo, n_hi = heavy.level_size(1), heavy.level_size(2)
    g = math.gcd(n_lo, n_hi)
    heavy_params = {"2": (g - 1) * n_lo // g, "3": n_hi // g}

    def check_heavy(code, out):
        data = json.loads(out)
        expect(code == 0 and data["params"] == heavy_params and data["gcd"] == g
               and data["search"]["exists"] is False, "counterexample")
    for _ in range(2):
        commands.append((["counterexample", "--perm", "--k", "5", "--relation", "subsequence",
                          "--level", "2", "--json"], check_heavy))
    return commands


def cli_task(argv: list, check, fixtures: str, env: dict, in_process: bool) -> Task:
    full = [sys.executable, "-c", CHILD_MAIN, *argv]

    def run():
        if in_process:
            result = run_in_process(argv, fixtures)
        else:
            result = run_child(full, fixtures, env)
        return {"result": result}

    def check_result(result):
        code, out, err, _ = result
        expect("Traceback" not in err, f"traceback on stderr: {err[-200:]}")
        try:
            check(code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CheckFailed(f"unreadable output ({exc!r}): {out[:200]!r}") from None

    return Task("cli " + " ".join(argv[:2]), run, {"result": check_result})


def cli_round(rng: random.Random, fixtures: str | None, env: dict | None,
              in_process: bool) -> list:
    tasks = [cli_task(argv, check, fixtures, env, in_process)
             for argv, check in cli_commands(rng, fixtures)]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------

WORKLOADS = ("build", "certify", "codes", "cli")


def make_rounds(workload: str, seed: int, tiny: bool = False, fixtures: str | None = None,
                env: dict | None = None, in_process: bool = False) -> list:
    """ROUNDS_PER_POOL seeded rounds of tasks; the same seed gives the same
    inputs."""
    rounds = []
    for i in range(ROUNDS_PER_POOL):
        rng = random.Random(f"{workload}:{seed}:{i}")
        if workload == "build":
            rounds.append(build_round(rng, tiny))
        elif workload == "certify":
            rounds.append(certify_round(rng, tiny))
        elif workload == "codes":
            rounds.append(codes_round(rng, tiny))
        else:
            sub = None if fixtures is None else os.path.join(fixtures, f"r{i}")
            if sub is not None:
                os.makedirs(sub, exist_ok=True)
            rounds.append(cli_round(rng, sub, env, in_process))
    return rounds
