import json

import pytest

from posetkraft.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--perm", "T", "--l", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--perm", "T", "--k", "3", "--l", "9"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["constants", path, *options])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--params", "0,1", *options])
    assert exc.value.code == 2


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
    code, out, err = run(capsys, "hasse", "--subsets", "--n", "8", "--max-vertices", "10")
    assert code == 3
    assert "cap" in err


def test_hasse_negative_vertex_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hasse", "--subsets", "--n", "2", "--max-vertices", "-1"])
    assert exc.value.code == 2


def test_poset_selector_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["regularity", "--perm", "--k", "3"])  # missing relation
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["regularity", "--perm", "--k", "3", "--relation", "pattern"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["regularity", "--str", "--r", "2", "--relation", "prefix"])  # no max level
    assert exc.value.code == 2


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
    ],
)
def test_malformed_json_exits_as_usage_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *(str(path) if a == "INPUT" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ")


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


def test_antichain_search_none(capsys):
    code, out, _ = run(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2",
    )
    assert code == 1
    assert json.loads(out) == {"exists": False, "search_nodes": 6}


def test_antichain_search_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv("POSET_KRAFT_BUDGET", "2")
    code, out, err = run(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2",
    )
    assert code == 3
    assert "budget" in err or "assignments" in err


def test_negative_budget_is_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main([
            "antichain-search", "--str", "--r", "2", "--relation", "substring",
            "--max-level", "2", "--counts", "0,1,2", "--budget", "-1",
        ])
    assert exc.value.code == 2
    monkeypatch.setenv("POSET_KRAFT_BUDGET", "-4")
    code, _, err = run(
        capsys, "counterexample", "--str", "--r", "2", "--relation", "subsequence",
        "--max-level", "2", "--level", "1",
    )
    assert code == 2 and "budget" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("POSET_KRAFT_BUDGET", "2")
    code, out, _ = run(
        capsys, "antichain-search", "--str", "--r", "2", "--relation", "substring",
        "--max-level", "2", "--counts", "0,1,2", "--budget", "100",
    )
    assert code == 1


def test_outputs_are_deterministic(capsys):
    args = ("hasse", "--perm", "--k", "3", "--relation", "substring")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
