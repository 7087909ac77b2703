"""Command-line surface.

Subcommands: enumerate, check-free, constants, kraft, lym, local-lym,
mcmillan, counterexample, antichain-search, hasse, regularity.

Exit codes: 0 success / property holds, 1 checked property fails, 2 usage
error, 3 search budget (or vertex cap) exceeded.  All output is
deterministic; fractions print as p/q unless --decimal asks for the shortest
round-tripping decimal.  The environment variable POSET_KRAFT_BUDGET
overrides the default search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import codes, lym, perm, poset

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt_fraction(value: Fraction, decimal: bool = False) -> str:
    if decimal:
        return repr(float(value))
    return f"{value.numerator}/{value.denominator}"


def _normalize_relation(name: str) -> str:
    return name.replace("-", "_")


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# Poset selection shared by the poset-facing subcommands

def _add_poset_args(sub: argparse.ArgumentParser) -> None:
    fam = sub.add_mutually_exclusive_group(required=True)
    fam.add_argument("--str", action="store_true", help="strings over a digit alphabet")
    fam.add_argument("--perm", action="store_true", help="partial permutations over [1..k]")
    fam.add_argument("--pattern", action="store_true", help="full permutations under a pattern order")
    fam.add_argument("--subsets", action="store_true", help="subsets of [1..n] by inclusion")
    sub.add_argument("--r", type=int, help="alphabet size for --str")
    sub.add_argument("--k", type=int, help="universe size for --perm / --pattern")
    sub.add_argument("--n", type=int, help="ground-set size for --subsets")
    sub.add_argument("--relation", help="order relation for --str / --perm / --pattern")
    sub.add_argument("--max-level", type=int, help="top string length for --str")


# Each family's builder, named so that it is looked up in ``poset`` at call
# time, and the options it takes, in the builder's argument order.  A family
# needs all of its options and takes no other family's.
_FAMILIES = {
    "str": ("build_string_poset", ("r", "relation", "max_level")),
    "perm": ("build_partial_perm_poset", ("k", "relation")),
    "pattern": ("build_pattern_poset", ("k", "relation")),
    "subsets": ("build_subset_poset", ("n",)),
}


def _flags(dests) -> list[str]:
    return ["--" + d.replace("_", "-") for d in dests]


def _build_poset(args, parser: argparse.ArgumentParser) -> poset.GradedPoset:
    family = next(f for f in _FAMILIES if getattr(args, f))
    builder, takes = _FAMILIES[family]
    args.relation = _normalize_relation(args.relation) if args.relation else None
    if any(getattr(args, d) is None for d in takes):
        *rest, last = _flags(takes)
        parser.error(f"--{family} needs {', '.join(rest) + ' and ' if rest else ''}{last}")
    stray = {d for _, ds in _FAMILIES.values() for d in ds if getattr(args, d) is not None} - set(takes)
    if stray:
        parser.error(f"--{family} takes no {', '.join(_flags(sorted(stray)))}")
    try:
        return getattr(poset, builder)(*(getattr(args, d) for d in takes))
    except ValueError as exc:
        parser.error(str(exc))


def _search_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("POSET_KRAFT_BUDGET")
    if env:
        return int(env)
    return None


def _load_code(path: str) -> codes.Code:
    with open(path, "r", encoding="utf-8") as fh:
        return codes.code_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_enumerate(args, parser) -> int:
    if args.str:
        if args.r is None or args.l is None:
            parser.error("--str needs --r and --l")
        if args.k is not None:
            parser.error("--str takes no --k")
        kind, size = "str", args.r
    else:
        if args.k is None:
            parser.error("--perm needs --k")
        if args.r is not None:
            parser.error("--perm takes no --r")
        kind, size = args.perm, args.k
    try:
        elements = perm.enumerate_elements(kind, size, args.l)
    except ValueError as exc:
        parser.error(str(exc))
    for x in elements:
        print(perm.format_element(x))
    print(f"# count: {len(elements)}")
    return EXIT_OK


def _cmd_check_free(args, parser) -> int:
    code = _load_code(args.codefile)
    relation = _normalize_relation(args.relation)
    result = codes.is_free(code, relation)
    if args.json:
        payload = {"relation": relation, "free": result.free}
        if result.witness:
            payload["witness"] = [perm.format_element(w) for w in result.witness]
        print(json.dumps(payload))
    elif result:
        print(f"free under {relation}")
    else:
        inner, outer = result.witness
        print(
            f"not free under {relation}: {perm.format_element(inner)} "
            f"sits inside {perm.format_element(outer)}"
        )
    return EXIT_OK if result else EXIT_FAIL


def _cmd_constants(args, parser) -> int:
    if args.codefile:
        if any(v is not None for v in (args.params, args.r, args.k, args.kind)):
            parser.error("a code file takes none of --params, --r, --k and --kind")
        code = _load_code(args.codefile)
        params = codes.parameter_sequence(code)
        kind, size = code.codomain.kind, code.codomain.size
    else:
        if args.params is None:
            parser.error("give a code file or --params")
        if args.r is not None and (args.k is not None or args.kind is not None):
            parser.error("--r (strings) excludes --k and --kind (permutations)")
        if args.kind is not None and args.k is None:
            parser.error("--kind needs --k")
        params = _parse_int_list(args.params)
        if args.r is not None:
            kind, size = "string", args.r
        elif args.k is not None:
            kind = "perm_pattern" if args.kind == "full" else "partial_perm"
            size = args.k
        else:
            parser.error("--params needs --r (strings) or --k (permutations)")
    codomain = codes.CODOMAINS[kind]
    value = codomain.constant(params, size)
    if args.json:
        print(json.dumps({codomain.label: _fmt_fraction(value)}))
    else:
        print(f"{codomain.label} = {_fmt_fraction(value, args.decimal)}")
    return EXIT_OK


def _cmd_mcmillan(args, parser) -> int:
    params = _parse_int_list(args.params)
    result = lym.mcmillan_construct(args.r, params)
    if not result:
        if args.json:
            print(json.dumps({"feasible": False, "failed_level": result.failed_level}))
        else:
            K = codes.kraft_number(params, args.r)
            print(f"infeasible at level {result.failed_level} (K = {_fmt_fraction(K)} > 1)")
        return EXIT_FAIL
    payload = codes.code_to_json_dict(result.code)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload))
    else:
        for w in result.code.codewords:
            print(perm.format_element(w))
    return EXIT_OK


def _cmd_regularity(args, parser) -> int:
    host = _build_poset(args, parser)
    report = poset.regularity_check(host)
    if args.json:
        print(
            json.dumps(
                {
                    "level_regular": report.is_level_regular,
                    "pairs": [
                        {
                            "levels": [p.lower_rank, p.upper_rank],
                            "up_degrees": list(p.up_degrees),
                            "down_degrees": list(p.down_degrees),
                            "edges": p.edge_count,
                            "biregular": p.is_biregular,
                        }
                        for p in report.pairs
                    ],
                }
            )
        )
    else:
        for p in report.pairs:
            if p.is_biregular:
                print(
                    f"levels ({p.lower_rank},{p.upper_rank}): u={p.up_degree} d={p.down_degree} "
                    f"edges={p.edge_count} ({p.up_degree}*{p.lower_size} = {p.down_degree}*{p.upper_size})"
                )
            else:
                print(
                    f"levels ({p.lower_rank},{p.upper_rank}): NOT biregular "
                    f"(up degrees {list(p.up_degrees)}, down degrees {list(p.down_degrees)})"
                )
        print(f"level-regular: {'yes' if report.is_level_regular else 'no'}")
    return EXIT_OK if report.is_level_regular else EXIT_FAIL


def _cmd_hasse(args, parser) -> int:
    if args.max_vertices < 0:
        parser.error("--max-vertices must be >= 0")
    host = _build_poset(args, parser)
    try:
        print(host.to_dot(max_vertices=args.max_vertices))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_lym(args, parser) -> int:
    host = _build_poset(args, parser)
    with open(args.antichain, "r", encoding="utf-8") as fh:
        antichain = lym.antichain_from_json_dict(host, json.load(fh))
    check = lym.is_antichain(host, antichain)
    value = lym.lym_number(host, antichain)
    if args.json:
        payload = {"lym_number": _fmt_fraction(value), "antichain": check.ok}
        if check.witness:
            (ra, a), (rb, b) = check.witness
            payload["witness"] = [
                [ra, poset.format_poset_element(a)],
                [rb, poset.format_poset_element(b)],
            ]
        print(json.dumps(payload))
    else:
        print(f"L = {_fmt_fraction(value, args.decimal)}")
        if check:
            print("antichain: yes")
        else:
            (ra, a), (rb, b) = check.witness
            print(
                f"antichain: no ({poset.format_poset_element(a)} at level {ra} "
                f"is below {poset.format_poset_element(b)} at level {rb})"
            )
    return EXIT_OK if check else EXIT_FAIL


def _split_elements(text: str) -> list[str]:
    """Split a comma-separated element list, ignoring commas nested in
    subset braces or parenthesized symbol lists."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _cmd_local_lym(args, parser) -> int:
    host = _build_poset(args, parser)
    if args.elements:
        texts = _split_elements(args.elements)
    elif args.set:
        with open(args.set, "r", encoding="utf-8") as fh:
            texts = json.load(fh)
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError("--set needs a JSON list of element strings")
    else:
        parser.error("give --elements or --set")
    try:
        elements = [host.resolve_element(args.level, t) for t in texts]
        result = lym.local_lym_check(host, args.level, elements)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(
            json.dumps(
                {
                    "lhs": _fmt_fraction(result.lhs),
                    "rhs": _fmt_fraction(result.rhs),
                    "holds": result.holds,
                }
            )
        )
    else:
        print(
            f"shadow density {_fmt_fraction(result.lhs, args.decimal)} vs "
            f"set density {_fmt_fraction(result.rhs, args.decimal)}: "
            f"{'holds' if result.holds else 'FAILS'}"
        )
    return EXIT_OK if result.holds else EXIT_FAIL


def _cmd_counterexample(args, parser) -> int:
    host = _build_poset(args, parser)
    outcome = lym.counterexample_params(host, args.level, args.upper)
    if not outcome:
        if args.json:
            print(json.dumps({"accepted": False, "reason": outcome.reason}))
        else:
            print(f"rejected: {outcome.reason}")
        return EXIT_FAIL
    search = lym.antichain_exists(host, outcome.counts, budget=_search_budget(args))
    params_by_rank = outcome.counts.by_rank(host)
    if args.json:
        payload = {
            "accepted": True,
            "levels": [outcome.lower_rank, outcome.upper_rank],
            "up_degree": outcome.up_degree,
            "down_degree": outcome.down_degree,
            "gcd": outcome.gcd,
            "params": params_by_rank,
            "lym_sum": _fmt_fraction(outcome.lym_sum),
            "search": search.to_json_dict(),
        }
        print(json.dumps(payload))
    else:
        print(
            f"levels ({outcome.lower_rank},{outcome.upper_rank}): "
            f"u={outcome.up_degree} d={outcome.down_degree} gcd={outcome.gcd}"
        )
        print(
            "params: "
            + ", ".join(f"a_{rank}={count}" for rank, count in sorted(params_by_rank.items()))
        )
        print(f"density sum = {_fmt_fraction(outcome.lym_sum)}")
        if search.exists:
            print("UNEXPECTED: an antichain with these counts exists")
        else:
            print(f"no antichain with these counts ({search.nodes} assignments checked)")
    return EXIT_OK if not search.exists else EXIT_FAIL


def _cmd_antichain_search(args, parser) -> int:
    host = _build_poset(args, parser)
    counts = _parse_int_list(args.counts)
    try:
        outcome = lym.antichain_exists(host, counts, budget=_search_budget(args))
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps(outcome.to_json_dict()))
    return EXIT_OK if outcome.exists else EXIT_FAIL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetkraft",
        description="Kraft/LYM-type inequalities on level-regular graded posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list strings or partial permutations")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--perm", choices=["T", "S"], help="T: injective sequences; S: full permutations")
    grp.add_argument("--str", action="store_true", help="strings over a digit alphabet")
    p.add_argument("--k", type=int, help="universe size for --perm")
    p.add_argument("--r", type=int, help="alphabet size for --str")
    p.add_argument("--l", type=int, help="length (omit for the whole union with --perm)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-free", help="test a code file for freeness under a relation")
    p.add_argument("codefile")
    p.add_argument("--relation", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("constants", help="exact code constants from a code file or raw parameters")
    p.add_argument("codefile", nargs="?")
    p.add_argument("--params", help="comma-separated counts a_0,a_1,...")
    p.add_argument("--r", type=int, help="alphabet size (string parameters)")
    p.add_argument("--k", type=int, help="universe size (permutation parameters)")
    p.add_argument("--kind", choices=["partial", "full"],
                   help="which permutation constant to use with --k (default partial)")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("kraft", help="Kraft number of a parameter sequence")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants, codefile=None, k=None, kind=None)

    p = sub.add_parser("mcmillan", help="greedily build a prefix-free code with given parameters")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--output", "-o", help="write the code as JSON to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mcmillan)

    p = sub.add_parser("regularity", help="audit level-regularity of a poset family instance")
    _add_poset_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("hasse", help="emit the Hasse diagram as DOT")
    _add_poset_args(p)
    p.add_argument("--max-vertices", type=int, default=poset.DEFAULT_MAX_VERTICES)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("lym", help="LYM number and antichain verdict for an antichain file")
    _add_poset_args(p)
    p.add_argument("--antichain", required=True, help="JSON file with [[level, element], ...]")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lym)

    p = sub.add_parser("local-lym", help="shadow-density inequality for one same-level set")
    _add_poset_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--elements", help="comma-separated element syntax")
    p.add_argument("--set", help="JSON file with a list of element strings")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_local_lym)

    p = sub.add_parser("counterexample", help="derive the no-antichain parameter vector and certify it")
    _add_poset_args(p)
    p.add_argument("--level", type=int, required=True, help="lower level of the pair")
    p.add_argument("--upper", type=int, help="upper level (defaults to level+1)")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("antichain-search", help="exhaustive search for an antichain with given level counts")
    _add_poset_args(p)
    p.add_argument("--counts", required=True, help="comma-separated counts from the lowest level up")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_antichain_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, KeyError, ValueError) as exc:
        # malformed files, unresolvable elements, relation/codomain mismatches
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except lym.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
