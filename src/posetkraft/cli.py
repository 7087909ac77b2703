"""Command-line surface.

Subcommands: enumerate, check-free, constants, kraft, lym, local-lym,
mcmillan, counterexample, antichain-search, hasse, regularity.

Exit codes: 0 success / property holds, 1 checked property fails, 2 usage
error, 3 a size limit (search budget, vertex cap, mask cap, element or level
cap, codeword cap, or the digit limit on printing an exact value) exceeded.
Argparse prints the usage for what it cannot parse; every later refusal
reaches ``main`` as an exception and prints one ``error:`` line.
All output is deterministic; fractions print as p/q unless --decimal asks
for the shortest round-tripping decimal.

A command runs in a fresh interpreter, so loading the package is a fixed
share of its time.  ``main`` therefore imports only the modules the
subcommand names in ``_MODULES``, before it builds the parser; ``perm``
comes with this module, and any other first argument loads them all.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from . import perm

if TYPE_CHECKING:
    from fractions import Fraction

    from . import codes, lym, poset

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The modules each subcommand's handler reads, which ``main`` imports as
# globals of this module: the code subcommands need no poset, and the
# poset audit and export read no code or antichain.
_ALL_MODULES = ("poset", "codes", "lym")
_MODULES = {
    "enumerate": ("codes",),
    "check-free": ("codes",),
    "constants": ("codes",),
    "kraft": ("codes",),
    "mcmillan": ("codes",),
    "regularity": ("poset",),
    "hasse": ("poset",),
}


def _fmt_fraction(value: Fraction, decimal: bool = False) -> str:
    """p/q, refused past the interpreter's digit limit on printing an integer,
    or under --decimal a float, refused if it overflows or rounds to 0."""
    if not decimal:
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:  # a part has more than sys.get_int_max_str_digits() digits
            raise perm.BudgetExceededError(
                f"the exact value has more than {sys.get_int_max_str_digits()} digits in its "
                "numerator or denominator, the interpreter's limit for printing an integer; "
                "ask for a smaller instance") from None
    try:
        shown = float(value)
        if shown or not value:
            return repr(shown)
    except OverflowError:
        pass
    raise ValueError("the value is out of a float's range; drop --decimal to print it exactly")


def _normalize_relation(name: str) -> str:
    return name.replace("-", "_")


def _emit(args, payload, text) -> None:
    """Print a result once: its JSON payload under --json, else the string
    ``text()``, so that --decimal text is built only when it is printed."""
    print(json.dumps(payload) if args.json else text())


def _int(text: str, signed: bool = True) -> int:
    """A number read by the element syntax's rule, after an optional '-'
    directly before it when signed; nothing else is coerced."""
    sign = -1 if signed and text[:1] == "-" and "0" <= text[1:2] <= "9" else 1
    try:
        return sign * perm.parse_number(text[1:] if sign < 0 else text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None


def _int_list(text: str) -> list[int]:
    """Comma-separated unsigned numbers."""
    return [_int(field, signed=False) for field in text.split(",")] if text.strip() else []


# ---------------------------------------------------------------------------
# Poset selection shared by the poset-facing subcommands

def _add_poset_args(sub: argparse.ArgumentParser) -> None:
    fam = sub.add_mutually_exclusive_group(required=True)
    fam.add_argument("--str", action="store_true", help="strings over a digit alphabet")
    fam.add_argument("--perm", action="store_true", help="partial permutations over [1..k]")
    fam.add_argument("--pattern", action="store_true", help="full permutations under a pattern order")
    fam.add_argument("--subsets", action="store_true", help="subsets of [1..n] by inclusion")
    sub.add_argument("--r", type=_int, help="alphabet size for --str")
    sub.add_argument("--k", type=_int, help="universe size for --perm / --pattern")
    sub.add_argument("--n", type=_int, help="ground-set size for --subsets")
    sub.add_argument("--relation", help="order relation for --str / --perm / --pattern")
    sub.add_argument("--max-level", type=_int, help="top string length for --str")


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


def _check_options(args, selector: str, needs, takes_no) -> None:
    """Raise ValueError unless --selector has every option in needs and none in takes_no."""
    if any(getattr(args, d) is None for d in needs):
        *rest, last = _flags(needs)
        raise ValueError(f"--{selector} needs {', '.join(rest) + ' and ' if rest else ''}{last}")
    stray = [d for d in takes_no if getattr(args, d) is not None]
    if stray:
        raise ValueError(f"--{selector} takes no {', '.join(_flags(stray))}")


def _build_poset(args) -> poset.GradedPoset:
    family = next(f for f in _FAMILIES if getattr(args, f))
    builder, takes = _FAMILIES[family]
    args.relation = _normalize_relation(args.relation) if args.relation else None
    others = sorted({d for _, ds in _FAMILIES.values() for d in ds} - set(takes))
    _check_options(args, family, takes, others)
    return getattr(poset, builder)(*(getattr(args, d) for d in takes))


def _load_code(path: str) -> codes.Code:
    with open(path, "r", encoding="utf-8") as fh:
        return codes.code_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_enumerate(args) -> int:
    if args.str:
        _check_options(args, "str", ("r", "l"), ("k",))
        kind, size = "string", args.r
    else:
        _check_options(args, "perm", ("k",), ("r",))
        kind, size = {"T": "partial_perm", "S": "perm_pattern"}[args.perm], args.k
    elements = codes.Codomain(kind, size).codewords(args.l)
    for x in elements:
        print(perm.format_element(x))
    print(f"# count: {len(elements)}")
    return EXIT_OK


def _cmd_check_free(args) -> int:
    code = _load_code(args.codefile)
    relation = _normalize_relation(args.relation)
    result = codes.is_free(code, relation)
    payload, text = {"relation": relation, "free": result.free}, f"free under {relation}"
    if result.witness:
        inner, outer = payload["witness"] = [perm.format_element(w) for w in result.witness]
        text = f"not free under {relation}: {inner} sits inside {outer}"
    _emit(args, payload, lambda: text)
    return EXIT_OK if result else EXIT_FAIL


def _cmd_constants(args) -> int:
    if args.codefile:
        if any(v is not None for v in (args.params, args.r, args.k, args.kind)):
            raise ValueError("a code file takes none of --params, --r, --k and --kind")
        code = _load_code(args.codefile)
        params = codes.parameter_sequence(code)
        kind, size = code.codomain.kind, code.codomain.size
    else:
        if args.params is None:
            raise ValueError("give a code file or --params")
        if args.kind is not None and args.k is None:
            raise ValueError("--kind needs --k")
        params = args.params
        if args.r is not None:
            kind, size = "string", args.r
        elif args.k is not None:
            kind, size = ("perm_pattern" if args.kind == "full" else "partial_perm"), args.k
        else:
            raise ValueError("--params needs --r (strings) or --k (permutations)")
    value, label = codes.code_constant(kind, params, size), codes.CODOMAINS[kind].label
    _emit(args, {label: _fmt_fraction(value)}, lambda: f"{label} = {_fmt_fraction(value, args.decimal)}")
    return EXIT_OK


def _cmd_mcmillan(args) -> int:
    result = codes.mcmillan_construct(args.r, args.params)
    if not result:
        _emit(args, {"feasible": False, "failed_level": result.failed_level},
              lambda: f"infeasible at level {result.failed_level} "
                      f"(K = {_fmt_fraction(codes.kraft_number(args.params, args.r))} > 1)")
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


def _cmd_regularity(args) -> int:
    host = _build_poset(args)
    report = poset.regularity_check(host)
    pairs, lines = [], []
    for p in report.pairs:
        ups, downs = list(p.up_degrees), list(p.down_degrees)
        pairs.append({"levels": [p.lower_rank, p.upper_rank], "up_degrees": ups,
                      "down_degrees": downs, "edges": p.edge_count, "biregular": p.is_biregular})
        u, d = p.up_degree, p.down_degree
        lines.append(
            f"levels ({p.lower_rank},{p.upper_rank}): "
            + (f"u={u} d={d} edges={p.edge_count} ({u}*{p.lower_size} = {d}*{p.upper_size})"
               if p.is_biregular else f"NOT biregular (up degrees {ups}, down degrees {downs})")
        )
    lines.append(f"level-regular: {'yes' if report.is_level_regular else 'no'}")
    _emit(args, {"level_regular": report.is_level_regular, "pairs": pairs}, lambda: "\n".join(lines))
    return EXIT_OK if report.is_level_regular else EXIT_FAIL


def _cmd_hasse(args) -> int:
    print(_build_poset(args).to_dot())
    return EXIT_OK


def _cmd_lym(args) -> int:
    host = _build_poset(args)
    with open(args.antichain, "r", encoding="utf-8") as fh:
        antichain = lym.antichain_from_json_dict(host, json.load(fh))
    check = lym.is_antichain(host, antichain)
    value = lym.lym_number(host, antichain)
    payload = {"lym_number": _fmt_fraction(value), "antichain": check.ok}
    verdict = "yes"
    if check.witness:
        witness = [[rank, poset.format_poset_element(x)] for rank, x in check.witness]
        (ra, a), (rb, b) = payload["witness"] = witness
        verdict = f"no ({a} at level {ra} is below {b} at level {rb})"
    _emit(args, payload, lambda: f"L = {_fmt_fraction(value, args.decimal)}\nantichain: {verdict}")
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


def _cmd_local_lym(args) -> int:
    host = _build_poset(args)
    if args.elements is not None:
        texts = _split_elements(args.elements)
    elif args.set is not None:
        with open(args.set, "r", encoding="utf-8") as fh:
            texts = json.load(fh)
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError("--set needs a JSON list of element strings")
    else:
        raise ValueError("give --elements or --set")
    elements = [host.resolve_element(args.level, t) for t in texts]
    result = lym.local_lym_check(host, args.level, elements)
    verdict = "holds" if result.holds else "FAILS"
    _emit(
        args,
        {"lhs": _fmt_fraction(result.lhs), "rhs": _fmt_fraction(result.rhs), "holds": result.holds},
        lambda: f"shadow density {_fmt_fraction(result.lhs, args.decimal)} vs set density "
                f"{_fmt_fraction(result.rhs, args.decimal)}: {verdict}",
    )
    return EXIT_OK if result.holds else EXIT_FAIL


def _cmd_counterexample(args) -> int:
    host = _build_poset(args)
    outcome = lym.counterexample_params(host, args.level, args.upper)
    if not outcome:
        _emit(args, {"accepted": False, "reason": outcome.reason}, lambda: f"rejected: {outcome.reason}")
        return EXIT_FAIL
    search = lym.antichain_exists(host, outcome.counts, budget=args.budget)
    params_by_rank = outcome.counts.by_rank(host)
    lym_sum = _fmt_fraction(outcome.lym_sum)
    params = ", ".join(f"a_{rank}={count}" for rank, count in sorted(params_by_rank.items()))
    payload = {
        "accepted": True,
        "levels": [outcome.lower_rank, outcome.upper_rank],
        "up_degree": outcome.up_degree,
        "down_degree": outcome.down_degree,
        "gcd": outcome.gcd,
        "params": params_by_rank,
        "lym_sum": lym_sum,
        "search": search.to_json_dict(),
    }
    verdict = (
        "UNEXPECTED: an antichain with these counts exists" if search.exists
        else f"no antichain with these counts ({search.nodes} assignments checked)"
    )
    _emit(args, payload, lambda: "\n".join([
        f"levels ({outcome.lower_rank},{outcome.upper_rank}): "
        f"u={outcome.up_degree} d={outcome.down_degree} gcd={outcome.gcd}",
        f"params: {params}",
        f"density sum = {lym_sum}",
        verdict,
    ]))
    return EXIT_OK if not search.exists else EXIT_FAIL


def _cmd_antichain_search(args) -> int:
    host = _build_poset(args)
    outcome = lym.antichain_exists(host, args.counts, budget=args.budget)
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
    p.add_argument("--k", type=_int, help="universe size for --perm")
    p.add_argument("--r", type=_int, help="alphabet size for --str")
    p.add_argument("--l", type=_int, help="length (omit for the whole union with --perm)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-free", help="test a code file for freeness under a relation")
    p.add_argument("codefile")
    p.add_argument("--relation", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("constants", help="exact code constants from a code file or raw parameters")
    p.add_argument("codefile", nargs="?")
    p.add_argument("--params", type=_int_list, help="comma-separated counts a_0,a_1,...")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--r", type=_int, help="alphabet size (string parameters)")
    size.add_argument("--k", type=_int, help="universe size (permutation parameters)")
    p.add_argument("--kind", choices=["partial", "full"],
                   help="which permutation constant to use with --k (default partial)")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("kraft", help="Kraft number of a parameter sequence")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--params", type=_int_list, required=True)
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants, codefile=None, k=None, kind=None)

    p = sub.add_parser("mcmillan", help="greedily build a prefix-free code with given parameters")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--params", type=_int_list, required=True)
    p.add_argument("--output", "-o", help="write the code as JSON to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mcmillan)

    p = sub.add_parser("regularity", help="audit level-regularity of a poset family instance")
    _add_poset_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("hasse", help="emit the Hasse diagram as DOT")
    _add_poset_args(p)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("lym", help="LYM number and antichain verdict for an antichain file")
    _add_poset_args(p)
    p.add_argument("--antichain", required=True, help="JSON file with [[level, element], ...]")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lym)

    p = sub.add_parser("local-lym", help="shadow-density inequality for one same-level set")
    _add_poset_args(p)
    p.add_argument("--level", type=_int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--elements", help="comma-separated element syntax")
    source.add_argument("--set", help="JSON file with a list of element strings")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_local_lym)

    p = sub.add_parser("counterexample", help="derive the no-antichain parameter vector and certify it")
    _add_poset_args(p)
    p.add_argument("--level", type=_int, required=True, help="lower level of the pair")
    p.add_argument("--upper", type=_int, help="upper level (defaults to level+1)")
    p.add_argument("--budget", type=_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("antichain-search", help="exhaustive search for an antichain with given level counts")
    _add_poset_args(p)
    p.add_argument("--counts", type=_int_list, required=True,
                   help="comma-separated counts from the lowest level up")
    p.add_argument("--budget", type=_int)
    p.add_argument("--json", action="store_true", help="print JSON, as without the flag")
    p.set_defaults(func=_cmd_antichain_search)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for name in _MODULES.get(argv[0] if argv else None, _ALL_MODULES):
        globals()[name] = import_module(f"{__package__}.{name}")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        # every refusal after parsing, from option conflicts to malformed files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except perm.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
