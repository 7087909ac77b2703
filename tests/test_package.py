"""What importing the package and running the CLI loads.

Each check runs a fresh interpreter with a ``sitecustomize`` hook that
writes the names in ``sys.modules`` at exit, so the test process's own
imports do not count and the command line runs as a user types it.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import posetkraft
from posetkraft import codes, lym, perm, poset

SRC = str(Path(posetkraft.__file__).resolve().parents[1])
HOOK = """import atexit, json, sys

@atexit.register
def report():
    with open({out!r}, "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""


def imported(cwd, *args):
    """The exit code of ``python *args`` run in cwd, and the names in its
    ``sys.modules`` at exit."""
    hook, out = cwd / "hook", cwd / "modules.json"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK.format(out=str(out)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(hook), SRC))}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=60)
    return proc.returncode, set(json.loads(out.read_text()))


def submodules(names):
    """The package's modules among names, but for the CLI module itself."""
    return {n for n in names if n.startswith("posetkraft.")} - {"posetkraft.cli"}


# ---------------------------------------------------------------------------
# The package surface

@pytest.mark.parametrize("source, modules", [
    ("import posetkraft", set()),
    ("from posetkraft import kraft_number", {"perm", "codes"}),
    ("from posetkraft import BudgetExceededError", {"perm"}),
    ("import posetkraft; posetkraft.poset.GradedPoset", {"perm", "poset"}),
    ("from posetkraft import *", {"perm", "poset", "codes", "lym"}),
])
def test_a_name_loads_its_home_module(tmp_path, source, modules):
    code, names = imported(tmp_path, "-c", source)
    assert code == 0
    assert submodules(names) == {f"posetkraft.{m}" for m in modules}


def test_the_exported_names_are_pinned():
    assert sorted(posetkraft.__all__) == [
        "Antichain", "BudgetExceededError", "Code", "Codomain", "GradedPoset",
        "ParameterSequence", "PartialPermutation", "RegularityReport", "Str",
        "antichain_exists", "brute_force_uniquely_decodable", "build_partial_perm_poset",
        "build_pattern_poset", "build_string_poset", "build_subset_poset",
        "counterexample_params", "decode_prefix_free", "density", "encode", "format_element",
        "full_perm_constant", "full_permutations", "is_antichain", "is_free", "is_pattern_in",
        "is_prefix", "is_subsequence", "is_substring", "is_substring_pattern_in",
        "is_uniquely_decodable", "kraft_number", "local_lym_check", "lower_shadow",
        "lym_number", "mcmillan_construct", "parameter_sequence", "partial_perm_constant",
        "partial_permutations", "pattern_of", "reduce_top_level", "regularity_check",
        "sample_antichain", "strings", "ulam_subsequence_condition", "upper_shadow",
    ]


def test_each_name_is_the_object_its_module_defines():
    star = {}
    exec("from posetkraft import *", star)
    for name in posetkraft.__all__:
        value = getattr(posetkraft, name)
        assert value.__module__.startswith("posetkraft.")
        assert value is getattr(import_module(value.__module__), name)
        assert star[name] is value and name in dir(posetkraft)
    assert posetkraft.lym is lym and posetkraft.poset is poset
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        posetkraft.nosuch


def test_moved_names_keep_their_old_homes():
    assert lym.mcmillan_construct is codes.mcmillan_construct
    assert lym.McMillanResult is codes.McMillanResult
    assert poset.BudgetExceededError is lym.BudgetExceededError is perm.BudgetExceededError
    assert codes.BudgetExceededError is perm.BudgetExceededError
    assert poset.count_above is perm.count_above and poset.factorial_bits is perm.factorial_bits


# ---------------------------------------------------------------------------
# The modules each CLI subcommand loads

CODES = {"posetkraft.perm", "posetkraft.codes"}
POSET = {"posetkraft.perm", "posetkraft.poset"}
EVERY = CODES | POSET | {"posetkraft.lym"}

# One run of each subcommand, in a directory holding code.json and antichain.json.
SUBCOMMANDS = [
    (["enumerate", "--str", "--r", "2", "--l", "2"], CODES),
    (["check-free", "code.json", "--relation", "prefix"], CODES),
    (["constants", "code.json"], CODES),
    (["kraft", "--r", "2", "--params", "0,1,2"], CODES),
    (["mcmillan", "--r", "2", "--params", "0,1,2"], CODES),
    (["regularity", "--subsets", "--n", "3"], POSET),
    (["hasse", "--subsets", "--n", "2"], POSET),
    (["lym", "--subsets", "--n", "2", "--antichain", "antichain.json"], EVERY),
    (["local-lym", "--subsets", "--n", "2", "--level", "1", "--elements", "{1}"], EVERY),
    (["counterexample", "--subsets", "--n", "3", "--level", "1"], EVERY),
    (["antichain-search", "--subsets", "--n", "2", "--counts", "0,2,0"], EVERY),
]

# ``python -m posetkraft.cli``, and the console script's call of ``main()``,
# which reads ``sys.argv``.
ENTRY_POINTS = {
    "module": ["-m", "posetkraft.cli"],
    "script": ["-c", "import sys; from posetkraft.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, modules", SUBCOMMANDS, ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, entry, argv, modules):
    (tmp_path / "code.json").write_text(json.dumps(
        {"codomain": {"kind": "string", "r": 2}, "codewords": ["0", "10", "11"]}))
    (tmp_path / "antichain.json").write_text(json.dumps({"antichain": [[1, "{1}"], [1, "{2}"]]}))
    code, names = imported(tmp_path, *ENTRY_POINTS[entry], *argv)
    assert code == 0  # the handler ran on the modules it loaded
    assert submodules(names) == modules
    if modules == POSET:
        assert "fractions" not in names


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, exit_code", [(["-h"], 0), ([], 2), (["nosuch"], 2)],
                         ids=["help", "none", "unknown"])
def test_no_subcommand_loads_every_module(tmp_path, entry, argv, exit_code):
    code, names = imported(tmp_path, *ENTRY_POINTS[entry], *argv)
    assert code == exit_code
    assert submodules(names) == EVERY
