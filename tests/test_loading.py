"""The package root loads nothing, and each command loads only what it runs.

Module sets are read in fresh interpreters: in this process the other test
modules have already imported every wordavoid module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordavoid

ROOT = Path(__file__).parent.parent

# the package's exports as they stood when the root imported every module
EXPORTS = [
    "AnnotatedPath", "BSeries", "CheckResult", "ConstructionNode", "Label",
    "LevelCensus", "Pattern", "RiordanTriangle", "RuleSpec", "USeries",
    "autocorrelation", "avoid_rule", "avoider_table", "avoiding_words",
    "build_tree", "catalan_marked_rule", "catalan_plain_rule", "copies_census",
    "correlation_polynomial", "count_by_automaton", "count_by_enumeration",
    "expand", "family_a", "family_d", "family_h", "family_triangle", "family_z",
    "from_dh", "motzkin_jump_rule", "run_checks", "solve_polynomial", "survivors",
    "triangles_from_table", "zero1_forward", "zero1_inverse",
]
MODULES = {"cli", "paths", "pattern", "riordan", "rules", "series", "verify"}


def fresh(code: str, *path: Path) -> str:
    """The stdout of `code` run in a fresh interpreter with src/ and `path`
    importable; a failure fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), *map(str, path), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def loaded_by(code: str) -> set[str]:
    """The wordavoid submodules loaded once `code` has run."""
    report = "import sys; print(*(m for m in sys.modules if m.startswith('wordavoid.')))"
    out = fresh(f"{code}\n{report}")
    return {name.split(".", 1)[1] for name in out.splitlines()[-1].split()}


def command_loads(*argv: str) -> set[str]:
    return loaded_by(
        "import contextlib, io\n"
        "from wordavoid.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({list(argv)!r})"
    )


class TestLoading:
    def test_package_root_loads_no_module(self):
        assert loaded_by("import wordavoid") == set()

    def test_submodule_resolves_after_bare_import(self):
        code = "import wordavoid\nassert wordavoid.paths.build_tree is wordavoid.build_tree"
        assert loaded_by(code) == {"paths", "pattern", "rules", "series"}

    @pytest.mark.parametrize("argv, modules", [
        (["autocorr", "101010"], {"cli", "pattern", "series"}),
        (["table", "11100", "7"], {"cli", "pattern", "series"}),
        (["triangle", "--j", "2", "7"], {"cli", "pattern", "riordan", "series"}),
        (["rule", "catalan-marked", "4"], {"cli", "pattern", "rules", "series"}),
        (["construct", "--j", "1", "--level", "3"], {"cli", "paths", "pattern", "rules", "series"}),
        (["verify", "--j", "2", "--levels", "5"], MODULES),
    ])
    def test_command_loads_what_it_runs(self, argv, modules):
        assert command_loads(*argv) == modules

    @pytest.mark.parametrize("argv", [
        ["series", "a", "--j", "301"],
        ["table", "11100", "41"],
        ["triangle", "--j", "2", "41"],
        ["series", "z", "--j", "2", "--order", "101"],
        ["rule", "avoid", "301", "--j", "1"],
        ["verify", "--j", "1", "--levels", "2", "--order", "81"],
    ])
    def test_cap_refused_before_any_command_module(self, argv):
        # one over-cap command per cap
        assert command_loads(*argv) == {"cli"}

    def test_pattern_cap_refused_by_the_parser_alone(self):
        code = (
            "import contextlib, io\n"
            "from wordavoid.cli import PATTERN_LENGTH_CAP, main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        main(['table', '1' * (PATTERN_LENGTH_CAP + 1), '5'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 2\n"
            "    else:\n"
            "        raise AssertionError('the over-cap pattern was taken')"
        )
        assert loaded_by(code) == {"cli"}


class TestExports:
    def test_names_unchanged(self):
        assert wordavoid.__all__ == EXPORTS

    def test_each_export_is_the_defining_modules_object(self):
        namespace = {}
        exec("from wordavoid import *", namespace)
        for name in EXPORTS:
            obj = getattr(wordavoid, name)
            assert obj.__module__.startswith("wordavoid."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
            assert namespace[name] is obj, name

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            wordavoid.no_such_name
        with pytest.raises(ImportError):
            exec("from wordavoid import no_such_name", {})

    def test_dir_lists_the_exports(self):
        assert set(EXPORTS) <= set(dir(wordavoid))


def test_benchmark_tracer_round_trips():
    # The tracer patches the defining modules.  A name the package root
    # cached during a traced call would keep its wrapper after uninstall;
    # a fresh interpreter has cached nothing before the call.
    code = """
import tracer
import wordavoid.paths
original = wordavoid.paths.build_tree
t = tracer.Tracer()
t.install()
try:
    from wordavoid import build_tree
    build_tree(1, 2)
finally:
    t.uninstall()
assert t.spans[0][0] == "paths.build_tree", t.spans[:1]
assert wordavoid.build_tree is wordavoid.paths.build_tree is original
print("ok")
"""
    assert fresh(code, ROOT / "perfbench") == "ok\n"


def test_traced_construction_yields_layer_metrics():
    # the tracer nests build_tree inside survivors and counts the forward
    # map's calls; layer_metrics reads both
    code = """
import tracer
from wordavoid import paths
t = tracer.Tracer()
t.install()
try:
    paths.survivors(1, 3)
    paths.build_tree(2, 3)
finally:
    t.uninstall()
metrics = tracer.layer_metrics(t.spans)
want = len(paths.survivors(1, 3)) / len(paths.build_tree(1, 3)[3])
assert metrics["paths.survivor_yield"] == want, (metrics["paths.survivor_yield"], want)
nodes = sum(map(len, paths.build_tree(1, 3) + paths.build_tree(2, 3)))
assert metrics["paths.nodes"] == nodes, (metrics["paths.nodes"], nodes)
assert metrics["paths.zero1_forward_calls"] > 0
print("ok")
"""
    assert fresh(code, ROOT / "perfbench") == "ok\n"
