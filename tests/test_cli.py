import json
import time

import pytest

from posetkraft import cli, poset
from posetkraft.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """The last stderr line of a command that must exit 2 with no stdout,
    through argparse's SystemExit(2) or main's return of 2."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    return out.err.splitlines()[-1]


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_partial_perms(capsys):
    code, out, _ = run(capsys, "enumerate", "--perm", "T", "--k", "3", "--l", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == ["12", "13", "21", "23", "31", "32"]
    assert lines[-1] == "# count: 6"


def test_enumerate_full_perm_union(capsys):
    code, out, _ = run(capsys, "enumerate", "--perm", "S", "--k", "1")
    assert code == 0
    assert out.strip().splitlines() == ["1", "# count: 1"]


def test_enumerate_strings(capsys):
    code, out, _ = run(capsys, "enumerate", "--str", "--r", "2", "--l", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9 and lines[-1] == "# count: 8"
    assert lines[0] == "000" and lines[-2] == "111"


def test_enumerate_usage_error(capsys):
    usage_error(capsys, "enumerate", "--perm", "T", "--l", "2")
    usage_error(capsys, "enumerate", "--perm", "T", "--k", "3", "--l", "9")


@pytest.mark.parametrize("argv, message", [
    (["--perm", "T", "--k", "-3"], "codomain size must be an integer >= 1"),
    (["--perm", "S", "--k", "0"], "codomain size must be an integer >= 1"),
    (["--str", "--r", "0", "--l", "1"], "codomain size must be an integer >= 1"),
    (["--perm", "S", "--k", "3", "--l", "0"],
     "a perm_pattern codomain of size 3 has codeword lengths 1..3, not 0"),
])
def test_enumerate_nonpositive_k_is_usage_error(capsys, argv, message):
    assert usage_error(capsys, "enumerate", *argv) == f"error: {message}"


# ---------------------------------------------------------------------------
# check-free / constants / kraft

def write_code(tmp_path, payload):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_free_prefix_ok(tmp_path, capsys):
    path = write_code(tmp_path, {"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "10", "11"]})
    code, out, _ = run(capsys, "check-free", path, "--relation", "prefix")
    assert code == 0 and "free under prefix" in out


def test_check_free_pattern_witness(tmp_path, capsys):
    path = write_code(tmp_path, {"codomain": {"kind": "perm_pattern", "k": 2}, "codewords": ["1", "21"]})
    code, out, _ = run(capsys, "check-free", path, "--relation", "pattern")
    assert code == 1
    assert "1" in out and "21" in out


def test_check_free_singleton(tmp_path, capsys):
    path = write_code(tmp_path, {"codomain": {"kind": "partial_perm", "k": 6}, "codewords": ["2513"]})
    code, out, _ = run(capsys, "check-free", path, "--relation", "substring")
    assert code == 0


def test_constants_from_params(capsys):
    code, out, _ = run(capsys, "constants", "--params", "0,1,2", "--r", "2")
    assert code == 0 and out.strip() == "K = 1/1"
    code, out, _ = run(capsys, "constants", "--params", "0,0,0", "--r", "2")
    assert code == 0 and out.strip() == "K = 0/1"
    code, out, _ = run(capsys, "constants", "--params", "0,0,1,3", "--k", "3", "--kind", "full")
    assert code == 0 and out.strip() == "P_full = 1/1"
    code, out, _ = run(capsys, "constants", "--params", "0,1,1,0,0", "--k", "2")
    assert code == 0 and out.strip() == "P_partial = 1/1"


@pytest.mark.parametrize(
    "options",
    [
        ("--params", "1"),
        ("--r", "5"),
        ("--params", "1", "--r", "5"),
        ("--k", "3"),
        ("--kind", "full"),
    ],
)
def test_constants_code_file_excludes_raw_options(tmp_path, capsys, options):
    path = write_code(tmp_path, {"codomain": {"kind": "string", "r": 3}, "codewords": ["0", "1", "20"]})
    usage_error(capsys, "constants", path, *options)


@pytest.mark.parametrize(
    "options",
    [
        ("--r", "2", "--k", "3"),
        ("--r", "2", "--k", "3", "--kind", "full"),
        ("--r", "2", "--kind", "partial"),
        ("--kind", "full"),
    ],
)
def test_constants_conflicting_raw_options(capsys, options):
    usage_error(capsys, "constants", "--params", "0,1", *options)


@pytest.mark.parametrize("argv", [
    ["constants", "--params", "0", "--k", "0"],
    ["constants", "--params", "0,1", "--k", "-1", "--kind", "full"],
    ["kraft", "--r", "0", "--params", "1"],
])
def test_constants_refuse_sizes_below_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: codomain size must be an integer >= 1\n"


def test_number_lists_take_empty_and_spaced_fields(capsys):
    assert run(capsys, "kraft", "--r", "2", "--params", "")[:2] == (0, "K = 0/1\n")
    assert run(capsys, "kraft", "--r", "2", "--params", "0, 1, 2")[:2] == (0, "K = 1/1\n")
    assert run(capsys, "antichain-search", "--subsets", "--n", "2", "--counts", " 0 ,2")[0] == 0


@pytest.mark.parametrize("params, r", [
    ("1" + "0" * 400, "1"),  # K = 10^400 overflows a float
    ("0," * 1100 + "1", "2"),  # K = 2^-1100 is nonzero but rounds to 0.0
])
def test_decimal_refuses_values_a_float_cannot_hold(capsys, params, r):
    code, out, err = run(capsys, "kraft", "--r", r, "--params", params, "--decimal")
    assert code == 2 and out == ""
    assert err == "error: the value is out of a float's range; drop --decimal to print it exactly\n"
    code, out, _ = run(capsys, "kraft", "--r", r, "--params", params)
    assert code == 0 and out.startswith("K = ")


def test_constants_from_code_file(tmp_path, capsys):
    path = write_code(tmp_path, {"codomain": {"kind": "partial_perm", "k": 3}, "codewords": ["1", "2", "12", "21"]})
    code, out, _ = run(capsys, "constants", path)
    assert code == 0 and out.strip() == "P_partial = 1/1"


def test_kraft_and_decimal(capsys):
    code, out, _ = run(capsys, "kraft", "--r", "2", "--params", "0,1,1")
    assert code == 0 and out.strip() == "K = 3/4"
    code, out, _ = run(capsys, "kraft", "--r", "2", "--params", "0,1,1", "--decimal")
    assert out.strip() == "K = 0.75"
    code, out, _ = run(capsys, "kraft", "--r", "2", "--params", "0,1,1", "--json")
    assert json.loads(out) == {"K": "3/4"}


# ---------------------------------------------------------------------------
# mcmillan

def test_mcmillan_success(capsys):
    code, out, _ = run(capsys, "mcmillan", "--r", "2", "--params", "0,1,2")
    assert code == 0
    assert out.strip().splitlines() == ["0", "10", "11"]


def test_mcmillan_infeasible(capsys):
    code, out, _ = run(capsys, "mcmillan", "--r", "2", "--params", "0,2,1")
    assert code == 1
    assert "infeasible at level 2" in out and "5/4" in out


@pytest.mark.parametrize("argv, result", [
    (["--r", "1000000000", "--params", "0,1000001"], (3, "", "error: the code has 1000001 codewords, "
                                                         "above the cap of 1000000; ask for fewer codewords\n")),
    # infeasible before it is too big
    (["--r", "2", "--params", "0,2,1000001"], (1, "infeasible at level 2 (K = 1000005/4 > 1)\n", "")),
])
def test_mcmillan_decides_then_refuses_too_many_codewords_at_once(capsys, argv, result):
    start = time.perf_counter()
    assert run(capsys, "mcmillan", *argv) == result
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("mode, result", [
    # K = 1 + 10^-5002, past the digit limit, is formatted only for the text verdict
    ((), (3, "", "error: the exact value has more than 4300 digits")),
    (("--json",), (1, '{"feasible": false, "failed_level": 5002}\n', "")),
])
def test_mcmillan_formats_k_only_for_the_text_verdict(capsys, mode, result):
    code, out, err = run(capsys, "mcmillan", "--r", "10", "--params", "0,10," + "0," * 5000 + "1", *mode)
    assert (code, out, err[:len(result[2])]) == result


def test_mcmillan_writes_code_file(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, _, _ = run(capsys, "mcmillan", "--r", "2", "--params", "1", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data == {"codomain": {"kind": "string", "r": 2}, "codewords": ["ε"]}


# ---------------------------------------------------------------------------
# regularity / hasse

def test_regularity_report(capsys):
    code, out, _ = run(capsys, "regularity", "--perm", "--k", "3", "--relation", "subsequence")
    assert code == 0
    assert "levels (1,2): u=4 d=2" in out
    assert "level-regular: yes" in out


def test_regularity_json(capsys):
    code, out, _ = run(capsys, "regularity", "--subsets", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["level_regular"] is True
    assert data["pairs"][0]["up_degrees"] == [2]


def test_hasse_subsets_matches_inclusion_diagram(capsys):
    code, out, _ = run(capsys, "hasse", "--subsets", "--n", "2")
    assert code == 0
    assert out.count("->") == 4
    assert out.count("rank=same") == 3


def test_hasse_vertex_cap(capsys):
    code, out, err = run(capsys, "hasse", "--subsets", "--n", "13")  # 8,192 vertices
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv, count", [
    (["--perm", "T", "--k", "10"], "9864100"),
    (["--str", "--r", "2", "--l", "20000"], "at least 2^20000"),  # 6,021 digits
    # the sum stops before a level whose bound passes 2^64, or once it does
    (["--str", "--r", "3", "--l", "100000000"], "at least 2^100000000"),
    (["--perm", "T", "--k", "100000"], "at least 2^66"),
    (["--perm", "S", "--k", "100000"], "at least 2^65"),
    (["--perm", "S", "--k", "10000000", "--l", "10000000"], "at least 2^65"),
])
def test_enumerate_above_the_codeword_cap_exits_3(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"error: the listing has {count} codewords, above the cap of 1000000; "
                   "ask for a smaller size or length\n")


def test_enumerate_a_word_longer_than_the_codeword_cap_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--str", "--r", "1", "--l", "3000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("error: the listing has a codeword of length 3000000, above the cap of 1000000; "
                   "ask for a smaller length\n")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_exact_values_past_the_digit_limit_exit_3(capsys, mode):
    start = time.perf_counter()
    code, out, err = run(capsys, "kraft", "--r", "10", "--params", "0," * 5000 + "1", *mode)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: the exact value has more than 4300 digits")


def test_exact_values_below_the_digit_limit_print_exactly(capsys):
    code, out, _ = run(capsys, "kraft", "--r", "2", "--params", "0," * 14000 + "1")  # 4,215 digits
    assert (code, out) == (0, f"K = 1/{2**14000}\n")


def test_regularity_of_unary_strings_past_the_level_cap_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "regularity", "--str", "--r", "1", "--relation", "subsequence",
                         "--max-level", "100000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: the poset has 100001 levels, above the cap of 64; build a smaller instance\n"


def test_poset_selector_usage_errors(capsys):
    usage_error(capsys, "regularity", "--perm", "--k", "3")  # missing relation
    usage_error(capsys, "regularity", "--perm", "--k", "3", "--relation", "pattern")
    usage_error(capsys, "regularity", "--str", "--r", "2", "--relation", "prefix")  # no max level


@pytest.mark.parametrize("argv, message", [
    (["regularity", "--str", "--r", "2", "--relation", "prefix"], "--str needs --r, --relation and --max-level"),
    (["regularity", "--perm", "--k", "3"], "--perm needs --k and --relation"),
    (["regularity", "--pattern", "--relation", "pattern"], "--pattern needs --k and --relation"),
    (["regularity", "--subsets"], "--subsets needs --n"),
    (["enumerate", "--str", "--r", "2"], "--str needs --r and --l"),
    (["constants"], "give a code file or --params"),
    (["constants", "--params", "0,1"], "--params needs --r (strings) or --k (permutations)"),
    (["local-lym", "--subsets", "--n", "2", "--level", "1"], "give --elements or --set"),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", ""],
     "need a nonempty set of elements"),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", "{3}"],
     "cannot resolve element '{3}' at level 1"),
])
def test_usage_errors_say_what_is_missing(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["regularity", "--subsets", "--n", "2", "--r", "9", "--relation", "prefix"],
     "--subsets takes no --r, --relation"),
    (["regularity", "--perm", "--k", "2", "--relation", "prefix", "--max-level", "7", "--n", "4"],
     "--perm takes no --max-level, --n"),
    (["hasse", "--pattern", "--k", "2", "--relation", "pattern", "--r", "2"], "--pattern takes no --r"),
    (["antichain-search", "--str", "--r", "2", "--relation", "prefix", "--max-level", "1", "--k", "3",
      "--counts", "0,1"], "--str takes no --k"),
    (["enumerate", "--str", "--r", "2", "--l", "1", "--k", "9"], "--str takes no --k"),
    (["enumerate", "--perm", "T", "--k", "2", "--r", "2"], "--perm takes no --r"),
])
def test_stray_options_are_usage_errors(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"error: {message}"


S2 = ["--str", "--r", "2", "--relation", "subsequence", "--max-level", "2"]


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--perm", "T", "--k", "0"], "codomain size must be an integer >= 1"),
    (["regularity", "--perm", "--k", "0", "--relation", "prefix"], "need k >= 1"),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", "{3}"],
     "cannot resolve element '{3}' at level 1"),
    (["antichain-search", *S2, "--counts", "9,9"], "count 9 exceeds the 1 elements of level 0"),
    (["constants", "--params", "0,1"], "--params needs --r (strings) or --k (permutations)"),
    (["counterexample", *S2, "--level", "9"], "no level of rank 9 (have 0..2)"),
])
def test_refusals_after_parsing_print_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["kraft", "--r", "2", "--params", "+1,1_0,１"], "argument --params: cannot parse number '+1'"),
    (["kraft", "--r", "2", "--params", "1_0"], "argument --params: cannot parse number '1_0'"),
    (["mcmillan", "--r", "2", "--params", "0,,1"], "argument --params: cannot parse number ''"),
    (["constants", "--params", "-1", "--k", "2"], "argument --params: cannot parse number '-1'"),
    (["antichain-search", "--subsets", "--n", "2", "--counts", "０,+2,0"],
     "argument --counts: cannot parse number '０'"),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", "{1}", "--set", "s.json"],
     "argument --set: not allowed with argument --elements"),
    (["kraft", "--r", "２", "--params", "1"], "argument --r: cannot parse number '２'"),
    (["kraft", "--r", "1_0", "--params", "0,1"], "argument --r: cannot parse number '1_0'"),
    (["regularity", "--subsets", "--n", " +2"], "argument --n: cannot parse number ' +2'"),
    (["regularity", "--subsets", "--n", "- 2"], "argument --n: cannot parse number '- 2'"),
    (["antichain-search", "--subsets", "--n", "2", "--counts", "0,1,0", "--budget", "٣"],
     "argument --budget: cannot parse number '٣'"),
])
def test_malformed_option_values_are_usage_errors(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"posetkraft {argv[0]}: error: {message}"


# ---------------------------------------------------------------------------
# lym / local-lym

def test_lym_command(tmp_path, capsys):
    anti = tmp_path / "antichain.json"
    anti.write_text(json.dumps({"antichain": [[1, "0"], [2, "10"], [2, "11"]]}))
    code, out, _ = run(
        capsys, "lym", "--str", "--r", "2", "--relation", "prefix", "--max-level", "2",
        "--antichain", str(anti),
    )
    assert code == 0
    assert "L = 1/1" in out and "antichain: yes" in out


def test_lym_command_empty_antichain(tmp_path, capsys):
    anti = tmp_path / "antichain.json"
    anti.write_text(json.dumps({"antichain": []}))
    code, out, _ = run(
        capsys, "lym", "--subsets", "--n", "3", "--antichain", str(anti),
    )
    assert code == 0 and "L = 0/1" in out


def test_lym_command_rejects_comparable_members(tmp_path, capsys):
    anti = tmp_path / "antichain.json"
    anti.write_text(json.dumps({"antichain": [[0, "∅"], [1, "{1}"]]}))
    code, out, _ = run(capsys, "lym", "--subsets", "--n", "2", "--antichain", str(anti))
    assert code == 1 and "antichain: no" in out


def test_input_errors_exit_as_usage_errors(tmp_path, capsys):
    path = write_code(tmp_path, {"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "1"]})
    code, _, err = run(capsys, "check-free", path, "--relation", "pattern")
    assert code == 2 and "perm_pattern" in err
    code, _, err = run(capsys, "check-free", str(tmp_path / "missing.json"), "--relation", "prefix")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"codomain": {"kind": "string", "r": 2}}))
    code, _, err = run(capsys, "constants", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["check-free", "INPUT", "--relation", "prefix"],
         {"codomain": {"kind": "string", "r": 2}, "codewords": [0, 10]}),
        (["check-free", "INPUT", "--relation", "prefix"],
         {"codomain": {"kind": "string", "r": "2"}, "codewords": ["0"]}),
        (["check-free", "INPUT", "--relation", "prefix"], {"codomain": "string", "codewords": []}),
        (["lym", "--subsets", "--n", "2", "--antichain", "INPUT"], {"antichain": [1]}),
        (["lym", "--subsets", "--n", "2", "--antichain", "INPUT"], [[1, "{1}"]]),
        (["local-lym", "--subsets", "--n", "2", "--level", "1", "--set", "INPUT"], [1]),
        (["constants", "INPUT"], {"codomain": {"kind": "string", "r": True}, "codewords": ["0"]}),
        (["constants", "INPUT"], {"codomain": {"kind": "partial_perm", "k": True}, "codewords": ["1"]}),
        (["lym", "--subsets", "--n", "2", "--antichain", "INPUT"], {"antichain": [[True, "{1}"]]}),
        (["check-free", "INPUT", "--relation", "prefix"], {"codomain": {"kind": "octal", "r": 2}, "codewords": []}),
        (["check-free", "INPUT", "--relation", "prefix"],
         {"codomain": {"kind": "partial_perm", "k": 12}, "codewords": ["(1,,12)"]}),
    ],
)
def test_malformed_json_exits_as_usage_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *(str(path) if a == "INPUT" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, payload, exit_code, stdout",
    [
        (["check-free", "INPUT", "--relation", "prefix", "--json"],
         {"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "10", "11"]},
         0, '{"relation": "prefix", "free": true}'),
        (["check-free", "INPUT", "--relation", "pattern", "--json"],
         {"codomain": {"kind": "perm_pattern", "k": 2}, "codewords": ["1", "21"]},
         1, '{"relation": "pattern", "free": false, "witness": ["1", "21"]}'),
        (["mcmillan", "--r", "2", "--params", "0,3", "--json"], None,
         1, '{"feasible": false, "failed_level": 1}'),
        (["mcmillan", "--r", "2", "--params", "0,1,2", "--json"], None,
         0, '{"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "10", "11"]}'),
        (["lym", "--subsets", "--n", "2", "--antichain", "INPUT", "--json"],
         {"antichain": [[0, "∅"], [1, "{1}"]]},
         1, '{"lym_number": "3/2", "antichain": false, "witness": [[0, "\\u2205"], [1, "{1}"]]}'),
        (["local-lym", "--str", "--r", "2", "--relation", "subsequence", "--max-level", "2",
          "--level", "2", "--elements", "00", "--json"], None,
         0, '{"lhs": "1/2", "rhs": "1/4", "holds": true}'),
        (["counterexample", "--str", "--r", "2", "--relation", "prefix", "--max-level", "2",
          "--level", "1", "--json"], None,
         1, '{"accepted": false, "reason": "down-degree not > 1"}'),
        (["counterexample", "--str", "--r", "1", "--relation", "prefix", "--max-level", "2",
          "--level", "0"], None,
         1, "rejected: up-degree not > 1"),
        (["kraft", "--r", "2", "--params", ""], None, 0, "K = 0/1"),
        (["counterexample", "--str", "--r", "2", "--relation", "subsequence", "--max-level", "2",
          "--level", "1"], None,
         0, "levels (1,2): u=4 d=2 gcd=2\nparams: a_1=1, a_2=2\ndensity sum = 1/1\n"
            "no antichain with these counts (6 assignments checked)"),
        (["lym", "--subsets", "--n", "2", "--antichain", "INPUT"],
         {"antichain": [[0, "∅"], [1, "{1}"]]},
         1, "L = 3/2\nantichain: no (∅ at level 0 is below {1} at level 1)"),
        (["check-free", "INPUT", "--relation", "pattern"],
         {"codomain": {"kind": "perm_pattern", "k": 2}, "codewords": ["1", "21"]},
         1, "not free under pattern: 1 sits inside 21"),
        (["constants", "--params", "0,0,1,3", "--k", "3", "--decimal"], None,
         0, "P_partial = 0.6666666666666666"),
        (["mcmillan", "--r", "2", "--params", "0,2,1"], None,
         1, "infeasible at level 2 (K = 5/4 > 1)"),
        (["mcmillan", "--r", "2", "--params", "0"], None, 0, ""),
    ],
)
def test_json_outputs_are_pinned(tmp_path, capsys, argv, payload, exit_code, stdout):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, *(str(path) if a == "INPUT" else a for a in argv))
    assert (code, out) == (exit_code, stdout and stdout + "\n")  # "" pins no output at all


@pytest.mark.parametrize("mode, stdout", [
    ((), "levels (0,1): NOT biregular (up degrees [1], down degrees [0, 1])\nlevel-regular: no\n"),
    (("--json",), '{"level_regular": false, "pairs": [{"levels": [0, 1], "up_degrees": [1], '
                  '"down_degrees": [0, 1], "edges": 1, "biregular": false}]}\n'),
])
def test_regularity_of_a_pair_that_is_not_biregular_is_pinned(capsys, monkeypatch, mode, stdout):
    # every built-in family is biregular, so a custom poset stands in for --subsets
    custom = poset.GradedPoset([["a"], ["b", "c"]], [{(0, 0): 1}])
    monkeypatch.setattr(poset, "build_subset_poset", lambda n: custom)
    assert run(capsys, "regularity", "--subsets", "--n", "1", *mode)[:2] == (1, stdout)


def test_local_lym_subset_elements_split(capsys):
    code, out, _ = run(
        capsys, "local-lym", "--subsets", "--n", "3", "--level", "2",
        "--elements", "{1,2},{1,3}",
    )
    assert code == 0 and "holds" in out


def test_local_lym_command(capsys):
    code, out, _ = run(
        capsys, "local-lym", "--str", "--r", "2", "--relation", "subsequence",
        "--max-level", "2", "--level", "2", "--elements", "00",
    )
    assert code == 0
    assert "1/2" in out and "1/4" in out and "holds" in out


def test_json_prints_the_exact_value_that_decimal_cannot_show(capsys):
    params = "0," * 1100 + "1"  # K = 2^-1100 rounds to 0.0
    code, out, _ = run(capsys, "kraft", "--r", "2", "--params", params, "--decimal", "--json")
    assert (code, out) == (0, json.dumps({"K": f"1/{2 ** 1100}"}) + "\n")
    assert run(capsys, "constants", "--r", "2", "--params", params, "--decimal", "--json")[:2] == (0, out)


@pytest.mark.parametrize("argv, payload", [
    (["lym", "--subsets", "--n", "2", "--antichain", "INPUT"], {"antichain": [[1, "{1}"], [1, "{2}"]]}),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", "{1}"], None),
])
def test_json_builds_no_decimal_text(tmp_path, capsys, monkeypatch, argv, payload):
    # no LYM or shadow density leaves a float's range, so a --decimal that
    # always fails shows which outputs build the decimal text
    def no_decimal(value, decimal=False):
        if decimal:
            raise ValueError("decimal text built")
        return f"{value.numerator}/{value.denominator}"

    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [str(path) if a == "INPUT" else a for a in argv]
    exact = run(capsys, *argv, "--json")
    monkeypatch.setattr(cli, "_fmt_fraction", no_decimal)
    assert run(capsys, *argv, "--decimal", "--json") == exact
    assert run(capsys, *argv, "--decimal") == (2, "", "error: decimal text built\n")


# ---------------------------------------------------------------------------
# counterexample / antichain-search

def test_counterexample_string_subsequence(capsys):
    code, out, _ = run(
        capsys, "counterexample", "--str", "--r", "2", "--relation", "subsequence",
        "--max-level", "2", "--level", "1",
    )
    assert code == 0
    assert "a_1=1, a_2=2" in out
    assert "density sum = 1/1" in out
    assert "no antichain" in out and "6 assignments" in out


def test_counterexample_prefix_rejected(capsys):
    code, out, _ = run(
        capsys, "counterexample", "--str", "--r", "2", "--relation", "prefix",
        "--max-level", "2", "--level", "1",
    )
    assert code == 1
    assert "down-degree not > 1" in out


def test_counterexample_pattern_poset_json(capsys):
    code, out, _ = run(
        capsys, "counterexample", "--pattern", "--k", "3", "--relation", "pattern",
        "--level", "2", "--upper", "4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"2": 1, "4": 3}
    assert data["lym_sum"] == "1/1"
    assert data["search"] == {"exists": False, "search_nodes": 20}


def test_antichain_search_witness(capsys):
    code, out, _ = run(
        capsys, "antichain-search", "--subsets", "--n", "2", "--counts", "0,2,0",
    )
    assert code == 0
    assert json.loads(out) == {"exists": True, "antichain": [[1, "{1}"], [1, "{2}"]]}


def test_antichain_search_json_flag_prints_the_same_json(capsys):
    argv = ["antichain-search", "--subsets", "--n", "3", "--counts", "0,1,2,0"]
    plain = run(capsys, *argv)
    assert run(capsys, *argv, "--json") == plain
    assert plain[0] == 1 and json.loads(plain[1]) == {"exists": False, "search_nodes": 3}


def test_antichain_search_none(capsys):
    code, out, _ = run(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2",
    )
    assert code == 1
    assert json.loads(out) == {"exists": False, "search_nodes": 6}


def test_antichain_search_budget_exit(capsys):
    code, out, err = run(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2", "--budget", "2",
    )
    assert code == 3
    assert "budget" in err or "assignments" in err


def test_negative_budget_is_usage_error(capsys):
    usage_error(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2", "--budget", "-1",
    )
    code, _, err = run(
        capsys, "counterexample", "--str", "--r", "2", "--relation", "subsequence",
        "--max-level", "2", "--level", "1", "--budget", "-4",
    )
    assert code == 2 and "budget" in err


def test_outputs_are_deterministic(capsys):
    args = ("hasse", "--perm", "--k", "3", "--relation", "substring")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
