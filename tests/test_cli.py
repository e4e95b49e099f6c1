import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wordavoid.cli import (
    J_CAP,
    PATTERN_LENGTH_CAP,
    PIPE_CLOSED,
    RULE_LEVELS_CAP,
    SERIES_ORDER_CAP,
    TABLE_ORDER_CAP,
    VERIFY_ORDER_CAP,
    main,
)
from wordavoid.pattern import avoiding_words
from wordavoid.riordan import family_triangle

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def readme_commands():
    """(argv, expected stdout or None) for each `wordavoid` line of the
    README's command-line block; a `# -> ...` line pins the output above it."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if line.startswith("wordavoid "):
            out.append([shlex.split(line)[1:], None])
        elif line.startswith("# -> "):
            out[-1][1] = line[len("# -> "):] + "\n"
    return out


class TestReadme:
    def test_every_command_runs(self, capsys):
        commands = readme_commands()
        assert ["series", "a", "--j", "2", "--order", "9", "csv"] in [
            argv for argv, _ in commands
        ]
        for argv, expected in commands:
            rc, out, err = run(capsys, *argv)
            assert rc == 0, (argv, err)
            if expected is not None:
                assert out == expected, argv

    def test_library_tour(self):
        # execute the python block statement by statement, keeping the value
        # of each expression line to check against its comment
        code = README.read_text().split("## Library tour", 1)[1]
        code = code.split("```python", 1)[1].split("```", 1)[0]
        namespace, values = {}, []
        for node in ast.parse(code).body:
            if isinstance(node, ast.Expr):
                expr = compile(ast.Expression(node.value), "README", "eval")
                values.append(eval(expr, namespace))
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
        entry, vector, row, a, census, words, copies, checks = values
        assert entry == 58
        assert vector == (1, 0, 1, 0, 1, 0)
        assert row == (18, 9, 4, 1)
        assert a[:6] == [1, 1, 0, 2, -1, 7]
        assert census == [list(r) for r in family_triangle(2, 10).rows]
        assert words == set().union(*(avoiding_words("110", 4, k) for k in range(5)))
        assert copies == (2, 2)
        assert checks and all(r.passed for r in checks)


class TestGoldenOutputs:
    def test_table_csv(self, capsys):
        rc, out, _ = run(capsys, "table", "11100", "7", "csv")
        assert rc == 0
        assert out == (GOLDEN / "table2_11100.csv").read_text()

    def test_lower_triangle_csv(self, capsys):
        rc, out, _ = run(capsys, "triangle", "--j", "2", "7", "csv")
        assert rc == 0
        assert out == (GOLDEN / "table3_11100.csv").read_text()

    def test_upper_triangle_csv(self, capsys):
        rc, out, _ = run(capsys, "triangle", "--bar", "11100", "7", "csv")
        assert rc == 0
        assert out == (GOLDEN / "table4_11100.csv").read_text()

    def test_lower_triangle_from_pattern_agrees(self, capsys):
        _, from_j, _ = run(capsys, "triangle", "--j", "2", "7", "csv")
        _, from_pattern, _ = run(capsys, "triangle", "11100", "7", "csv")
        assert from_j == from_pattern

    def test_family_triangle_below_the_pattern_order(self, capsys):
        assert run(capsys, "triangle", "--j", "1", "0") == (0, "1\n", "")
        rc, from_j, _ = run(capsys, "triangle", "--j", "41", "40", "csv")
        assert rc == 0
        bits = "1" * 42 + "0" * 41
        assert from_j == run(capsys, "triangle", bits, "40", "csv")[1]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "11100", "7", "csv")
        _, second, _ = run(capsys, "table", "11100", "7", "csv")
        assert first == second


# level 2 of the j = 1 tree, one json line per node, marked nodes first
NODES_J1_L2 = [
    '{"word":"0110","marks":[1],"label":{"value":0,"variant":"zero1","marked":true},"level":2}',
    '{"word":"1100","marks":[0],"label":{"value":0,"variant":"zero2","marked":true},"level":2}',
    '{"word":"110","marks":[0],"label":{"value":1,"variant":"plain","marked":true},"level":2}',
    '{"word":"0101","marks":[],"label":{"value":0,"variant":"zero1","marked":false},"level":2}',
    '{"word":"0110","marks":[],"label":{"value":0,"variant":"zero2","marked":false},"level":2}',
    '{"word":"011","marks":[],"label":{"value":1,"variant":"plain","marked":false},"level":2}',
    '{"word":"1001","marks":[],"label":{"value":0,"variant":"zero1","marked":false},"level":2}',
    '{"word":"1010","marks":[],"label":{"value":0,"variant":"zero2","marked":false},"level":2}',
    '{"word":"101","marks":[],"label":{"value":1,"variant":"plain","marked":false},"level":2}',
    '{"word":"0011","marks":[],"label":{"value":0,"variant":"zero1","marked":false},"level":2}',
    '{"word":"1100","marks":[],"label":{"value":0,"variant":"zero2","marked":false},"level":2}',
    '{"word":"110","marks":[],"label":{"value":1,"variant":"plain","marked":false},"level":2}',
    '{"word":"11","marks":[],"label":{"value":2,"variant":"plain","marked":false},"level":2}',
]

MATRIX_OUTPUTS = {
    "table 11100 4": {
        "csv": "1,1,1,1,1\n1,2,3,4,5\n1,3,6,10,15\n1,4,9,18,32\n1,5,13,29,58\n",
        "json": "[[1,1,1,1,1],[1,2,3,4,5],[1,3,6,10,15],[1,4,9,18,32],[1,5,13,29,58]]\n",
        "text": " 1  1  1  1  1\n 1  2  3  4  5\n 1  3  6 10 15\n 1  4  9 18 32\n"
                " 1  5 13 29 58\n",
    },
    "triangle --j 2 4": {
        "csv": "1\n2,1\n6,3,1\n18,9,4,1\n58,29,13,5,1\n",
        "json": "[[1],[2,1],[6,3,1],[18,9,4,1],[58,29,13,5,1]]\n",
        "text": " 1\n 2  1\n 6  3  1\n18  9  4  1\n58 29 13  5  1\n",
    },
    "triangle --bar 11100 4": {
        "csv": "1\n2,1\n6,3,1\n18,10,4,1\n58,32,15,5,1\n",
        "json": "[[1],[2,1],[6,3,1],[18,10,4,1],[58,32,15,5,1]]\n",
        "text": " 1\n 2  1\n 6  3  1\n18 10  4  1\n58 32 15  5  1\n",
    },
    "rule avoid 4 --j 2": {
        "csv": "1,0,0,0,0\n2,1,0,0,0\n6,3,1,0,0\n18,9,4,1,0\n58,29,13,5,1\n",
        "json": "[[1,0,0,0,0],[2,1,0,0,0],[6,3,1,0,0],[18,9,4,1,0],[58,29,13,5,1]]\n",
        "text": " 1  0  0  0  0\n 2  1  0  0  0\n 6  3  1  0  0\n18  9  4  1  0\n"
                "58 29 13  5  1\n",
    },
    "construct census --j 1 --level 4": {
        "csv": "1,0,0,0,0\n2,1,0,0,0\n4,2,1,0,0\n8,4,2,1,0\n16,8,4,2,1\n",
        "json": "[[1,0,0,0,0],[2,1,0,0,0],[4,2,1,0,0],[8,4,2,1,0],[16,8,4,2,1]]\n",
        "text": " 1  0  0  0  0\n 2  1  0  0  0\n 4  2  1  0  0\n 8  4  2  1  0\n"
                "16  8  4  2  1\n",
    },
    "construct nodes --j 1 --level 2": {
        "csv": (
            "0110,1,0,zero1,True\n1100,0,0,zero2,True\n110,0,1,plain,True\n"
            "0101,,0,zero1,False\n0110,,0,zero2,False\n011,,1,plain,False\n"
            "1001,,0,zero1,False\n1010,,0,zero2,False\n101,,1,plain,False\n"
            "0011,,0,zero1,False\n1100,,0,zero2,False\n110,,1,plain,False\n"
            "11,,2,plain,False\n"
        ),
        "json": "[" + ",".join(NODES_J1_L2) + "]\n",
        "text": "".join(line + "\n" for line in NODES_J1_L2),
    },
}


class TestMatrixOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("command", sorted(MATRIX_OUTPUTS))
    def test_pinned(self, capsys, command, fmt):
        rc, out, _ = run(capsys, *command.split(), "--format", fmt)
        assert rc == 0
        assert out == MATRIX_OUTPUTS[command][fmt]


# (subcommand, positionals, flags) of each command whose output the format
# changes; the `--format F` form of the matrix commands is pinned above
GRAMMAR_COMMANDS = [
    ("table", ["11100", "4"], []),
    ("triangle", ["4"], ["--j", "2"]),
    ("triangle", ["11100", "4"], []),
    ("triangle", ["11100", "4"], ["--bar"]),
    ("series", ["a"], ["--j", "2", "--order", "6"]),
    ("rule", ["avoid", "4"], ["--j", "2"]),
    ("construct", ["census"], ["--j", "1", "--level", "4"]),
    ("verify", [], ["--j", "2", "--levels", "3"]),
]


class TestFormatGrammar:
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("name,positionals,flags", GRAMMAR_COMMANDS)
    def test_one_format_anywhere(self, capsys, name, positionals, flags, fmt):
        forms = {
            "after the positionals": [name, *positionals, fmt, *flags],
            "after the flags": [name, *positionals, *flags, fmt],
            "before the flags": [name, fmt, *flags, *positionals],
            "--format F": [name, *positionals, *flags, "--format", fmt],
            "--format=F": [name, f"--format={fmt}", *positionals, *flags],
        }
        outputs = {}
        for form, argv in forms.items():
            rc, out, err = run(capsys, *argv)
            assert rc == 0, (form, err)
            outputs[form] = out
        assert len(set(outputs.values())) == 1, outputs
        assert outputs["--format F"]

    def test_last_format_wins(self, capsys):
        pinned = MATRIX_OUTPUTS["rule avoid 4 --j 2"]
        for argv, fmt in [
            (["csv", "--j", "2", "--format", "json"], "json"),
            (["--format", "json", "--j", "2", "csv"], "csv"),
            (["json", "csv", "--j", "2"], "csv"),
        ]:
            assert run(capsys, "rule", "avoid", "4", *argv)[1] == pinned[fmt], argv
        _, out, _ = run(capsys, "series", "a", "--j", "2", "csv", "--format", "json")
        assert out == "[1,1,0,2,-1,7,-12,38,-99,281]\n"

    def test_abbreviated_option_takes_the_word(self, capsys):
        pinned = MATRIX_OUTPUTS["table 11100 4"]
        assert run(capsys, "table", "11100", "4", "--form", "json")[1] == pinned["json"]
        assert run(capsys, "table", "--f", "csv", "11100", "4")[1] == pinned["csv"]


class TestAutocorr:
    def test_periodic_pattern(self, capsys):
        rc, out, _ = run(capsys, "autocorr", "101010")
        assert rc == 0
        assert out == "c=(1,0,1,0,1,0); C=1+xy+x^2y^2\n"

    def test_trivial_overlap(self, capsys):
        assert run(capsys, "autocorr", "11100")[1] == "c=(1,0,0,0,0); C=1\n"
        assert run(capsys, "autocorr", "1")[1] == "c=(1); C=1\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "autocorr", "101010", "json")
        assert json.loads(out) == {
            "c": [1, 0, 1, 0, 1, 0],
            "terms": [[0, 0], [1, 1], [2, 2]],
        }


class TestSeries:
    def test_a_csv(self, capsys):
        rc, out, _ = run(capsys, "series", "a", "csv", "--j", "2")
        assert rc == 0
        assert out == "1,1,0,2,-1,7,-12,38,-99,281\n"

    def test_d_json(self, capsys):
        _, out, _ = run(capsys, "series", "d", "--j", "2", "--order", "7",
                        "--format", "json")
        assert json.loads(out) == [1, 2, 6, 18, 58, 192, 650, 2232]

    def test_text_default(self, capsys):
        _, out, _ = run(capsys, "series", "h", "--j", "1", "--order", "3")
        assert out == "0 + 1*t + 0*t^2 + 0*t^3\n"


class TestRule:
    def test_avoid_census_csv(self, capsys):
        rc, out, _ = run(capsys, "rule", "avoid", "3", "csv", "--j", "2")
        assert rc == 0
        assert out == "1,0,0,0\n2,1,0,0\n6,3,1,0\n18,9,4,1\n"

    def test_avoid_needs_j(self, capsys):
        rc, _, err = run(capsys, "rule", "avoid", "3")
        assert rc == 2
        assert err.startswith("error:")

    def test_named_rule(self, capsys):
        _, out, _ = run(capsys, "rule", "catalan-plain", "4", "json")
        rows = json.loads(out)
        assert [sum(row) for row in rows] == [1, 2, 5, 14, 42]

    def test_format_after_flags(self, capsys):
        rc, out, _ = run(capsys, "rule", "avoid", "3", "--j", "2", "csv")
        assert rc == 0
        assert out == "1,0,0,0\n2,1,0,0\n6,3,1,0\n18,9,4,1\n"

    def test_j_only_for_avoid(self, capsys):
        rc, _, err = run(capsys, "rule", "catalan-plain", "4", "--j", "3")
        assert rc == 2
        assert err.startswith("error:")


class TestConstruct:
    def test_survivors_sorted_lines(self, capsys):
        rc, out, _ = run(capsys, "construct", "--j", "1", "--level", "2")
        assert rc == 0
        assert out == "0011\n0101\n011\n1001\n101\n1010\n11\n"

    def test_survivors_json(self, capsys):
        _, out, _ = run(capsys, "construct", "survivors", "--format", "json",
                        "--j", "1", "--level", "2")
        assert sorted(json.loads(out)) == sorted(
            ["11", "011", "101", "0011", "0101", "1001", "1010"]
        )

    def test_census_matches_rule(self, capsys):
        _, from_tree, _ = run(capsys, "construct", "census", "--format", "csv",
                              "--j", "1", "--level", "4")
        _, from_rule, _ = run(capsys, "rule", "avoid", "4", "csv", "--j", "1")
        assert from_tree == from_rule

    def test_nodes_csv_shape(self, capsys):
        _, out, _ = run(capsys, "construct", "nodes", "--format", "csv",
                        "--j", "1", "--level", "1")
        lines = sorted(out.splitlines())
        assert lines == ["01,,0,zero1,False", "1,,1,plain,False",
                         "10,,0,zero2,False"]


# (line count, sha256) of `construct nodes --j J --level L csv`: deeper
# trees than the pinned level 2, with paths that carry two or more marks
NODES_CSV_SHA256 = {
    (1, 6): (4817, "95895885fe54fd69332325a0c9adab3b7da0d8e12e233b466423cf8208dd63b0"),
    (2, 7): (8850, "0f0296f00e6c6bd851320de24fdc158be0ccaac0f7a3835adb4696fc50941310"),
    (3, 8): (26630, "0695def28ac9d0ae1d37c6e404a7a0d918ae7e4c8689a1213752d54318c49281"),
}


@pytest.mark.parametrize("j,level", sorted(NODES_CSV_SHA256))
def test_deep_nodes_csv_pinned(capsys, j, level):
    rc, out, _ = run(capsys, "construct", "nodes", "--j", str(j), "--level", str(level), "csv")
    assert rc == 0
    assert any(line.split(",")[1].count(";") for line in out.splitlines())
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (out.count("\n"), digest) == NODES_CSV_SHA256[j, level]


# (line count, sha256) of `construct nodes --j 3 --level 8` in the two
# formats that print each node as json
NODES_J3_L8_SHA256 = {
    "json": (1, "fc3e248468d6e79d94d5f80ddfa7df2631c53bb767c5c06c71732ffe3db2b5b1"),
    "text": (26630, "4dcea69fccca52cb14ab0848c81bd6719e7f5af1cedde9ae098ceed7101cec8e"),
}


@pytest.mark.parametrize("fmt", sorted(NODES_J3_L8_SHA256))
def test_deep_nodes_json_and_text_pinned(capsys, fmt):
    rc, out, _ = run(capsys, "construct", "nodes", "--j", "3", "--level", "8", fmt)
    assert rc == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (out.count("\n"), digest) == NODES_J3_L8_SHA256[fmt]


class TestVerify:
    def test_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--j", "1", "--levels", "4")
        assert rc == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_json_shape(self, capsys):
        _, out, _ = run(capsys, "verify", "--format", "json", "--j", "2",
                        "--levels", "3")
        results = json.loads(out)
        assert all(r["passed"] for r in results)
        assert {"name", "passed", "detail"} == set(results[0])


def csv_rows(out):
    return [[int(c) for c in line.split(",")] for line in out.splitlines()]


class TestAtTheCaps:
    """Each documented cap is allowed at its exact value."""

    def test_table(self, capsys):
        rc, out, _ = run(capsys, "table", "10" * 20, str(TABLE_ORDER_CAP), "csv")
        assert rc == 0
        rows = csv_rows(out)
        assert [len(row) for row in rows] == [TABLE_ORDER_CAP + 1] * (TABLE_ORDER_CAP + 1)
        assert rows[0] == [1] * (TABLE_ORDER_CAP + 1)

    def test_triangle(self, capsys):
        rc, out, _ = run(capsys, "triangle", "--j", "2", str(TABLE_ORDER_CAP), "csv")
        assert rc == 0
        assert [len(row) for row in csv_rows(out)] == list(range(1, TABLE_ORDER_CAP + 2))
        golden = (GOLDEN / "table3_11100.csv").read_text()
        assert out.startswith(golden)

    @pytest.mark.parametrize("kind,j", [("z", 3), ("a", 99)])
    def test_series(self, capsys, kind, j):
        argv = ["series", kind, "--j", str(j), "csv", "--order"]
        rc, out, _ = run(capsys, *argv, str(SERIES_ORDER_CAP))
        assert rc == 0
        (coeffs,) = csv_rows(out)
        assert len(coeffs) == SERIES_ORDER_CAP + 1
        assert coeffs[:10] == csv_rows(run(capsys, *argv, "9")[1])[0]

    def test_verify(self, capsys):
        rc, out, _ = run(capsys, "verify", "--j", str(VERIFY_ORDER_CAP - 1),
                         "--levels", "2", "--order", str(VERIFY_ORDER_CAP))
        assert rc == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_rule(self, capsys):
        rc, out, _ = run(capsys, "rule", "avoid", str(RULE_LEVELS_CAP), "--j", "3", "csv")
        assert rc == 0
        rows = csv_rows(out)
        assert [len(row) for row in rows] == [RULE_LEVELS_CAP + 1] * (RULE_LEVELS_CAP + 1)
        assert all(not any(row[n + 1 :]) and row[n] == 1 for n, row in enumerate(rows))

    def test_pattern_length(self, capsys):
        # a pattern longer than every word of the table is never met
        rc, out, _ = run(capsys, "table", "1" * PATTERN_LENGTH_CAP, "3", "csv")
        assert rc == 0
        assert out == "1,1,1,1\n1,2,3,4\n1,3,6,10\n1,4,10,20\n"
        rc, out, _ = run(capsys, "autocorr", "1" * PATTERN_LENGTH_CAP, "json")
        assert rc == 0
        assert json.loads(out)["c"] == [1] * PATTERN_LENGTH_CAP

    def test_construct(self, capsys):
        # the level guard is 8 for every j but 1
        rc, out, _ = run(capsys, "construct", "census", "--j", "2", "--level", "8", "csv")
        assert rc == 0
        assert out == run(capsys, "rule", "avoid", "8", "--j", "2", "csv")[1]


class TestUsageErrors:
    def test_bad_j(self, capsys):
        rc, _, err = run(capsys, "verify", "--j", "0", "--levels", "3")
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        (["--j", "1", "--levels", "-1"], "levels must be non-negative"),
        (["--j", "12", "--levels", "2"],
         "need triangle_order >= levels and > j, got triangle_order=12, levels=2, j=12"),
    ], ids=["negative-levels", "order-not-above-j"])
    def test_verify_argument_messages(self, capsys, argv, message):
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")

    def test_triangle_needs_exactly_one_source(self, capsys):
        assert run(capsys, "triangle", "5")[0] == 2
        assert run(capsys, "triangle", "11100", "5", "--j", "2")[0] == 2

    def test_guard_beyond_levels(self, capsys):
        rc, _, err = run(capsys, "construct", "--j", "1", "--level", "10")
        assert rc == 2
        assert "error:" in err

    def test_bad_pattern_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "2100", "5"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["autocorr", "table", "triangle"])
    def test_pattern_length_cap(self, capsys, command):
        order = [] if command == "autocorr" else ["5"]
        with pytest.raises(SystemExit) as info:
            main([command, "1" * (PATTERN_LENGTH_CAP + 1), *order])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: wordavoid")
        assert f"pattern must be at most {PATTERN_LENGTH_CAP} letters" in captured.err

    def test_order_cap(self, capsys):
        rc, out, err = run(capsys, "table", "11100", str(TABLE_ORDER_CAP + 1))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_triangle_order_cap(self, capsys):
        rc, out, err = run(capsys, "triangle", "--j", "2", str(TABLE_ORDER_CAP + 1))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bar_family_needs_positive_j(self, capsys):
        rc, out, err = run(capsys, "triangle", "--bar", "--j", "0", "3")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_series_order_cap(self, capsys):
        rc, _, err = run(capsys, "series", "z", "--j", "2", "--order",
                         str(SERIES_ORDER_CAP + 1))
        assert rc == 2
        assert err.startswith("error:")

    def test_negative_series_order(self, capsys):
        for kind in ("z", "d", "h", "a"):
            rc, out, err = run(capsys, "series", kind, "--j", "2", "--order", "-1")
            assert rc == 2
            assert out == ""
            assert err.startswith("error:")

    def test_verify_order_cap(self, capsys):
        rc, _, err = run(capsys, "verify", "--j", "1", "--levels", "2",
                         "--order", str(VERIFY_ORDER_CAP + 1))
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["avoid", "--j", "1"], ["catalan-plain"]])
    def test_rule_levels_cap(self, capsys, argv):
        rc, out, err = run(capsys, "rule", argv[0], str(RULE_LEVELS_CAP + 1), *argv[1:])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["verify", "--levels", "1"],
        ["rule", "avoid", "10"],
        ["construct", "--level", "1"],
        ["triangle", "--bar", "7"],
        ["series", "a"],
    ])
    def test_j_cap(self, capsys, argv):
        # refused before the factor or any series is built
        rc, out, err = run(capsys, *argv, "--j", str(J_CAP + 1))
        assert rc == 2
        assert out == ""
        assert err == f"error: j must be at most {J_CAP}\n"

    @pytest.mark.parametrize("argv, name, cap", [
        (["table", "11100", str(TABLE_ORDER_CAP + 1)], "order", TABLE_ORDER_CAP),
        (["triangle", "--j", "2", str(TABLE_ORDER_CAP + 1)], "order", TABLE_ORDER_CAP),
        (["series", "z", "--j", "2", "--order", str(SERIES_ORDER_CAP + 1)],
         "order", SERIES_ORDER_CAP),
        (["verify", "--j", "1", "--levels", "2", "--order", str(VERIFY_ORDER_CAP + 1)],
         "order", VERIFY_ORDER_CAP),
        (["rule", "avoid", str(RULE_LEVELS_CAP + 1), "--j", "1"], "levels", RULE_LEVELS_CAP),
        (["rule", "catalan-plain", str(RULE_LEVELS_CAP + 1)], "levels", RULE_LEVELS_CAP),
    ])
    def test_cap_message(self, capsys, argv, name, cap):
        assert run(capsys, *argv) == (2, "", f"error: {name} must be at most {cap}\n")

    @pytest.mark.parametrize("argv", [
        ["table", "11100", "-1"],
        ["triangle", "--j", "2", "-1"],
    ])
    def test_negative_table_order(self, capsys, argv):
        # no cap applies below zero: the library refuses it
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_j_cap_is_allowed(self, capsys):
        # over 3 levels no marked jump fires for j >= 3
        rc, out, _ = run(capsys, "rule", "avoid", "3", "--j", str(J_CAP), "csv")
        assert rc == 0
        assert out == run(capsys, "rule", "avoid", "3", "--j", "3", "csv")[1]

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestClosedPipe:
    def test_reader_closing_the_pipe_is_no_traceback(self):
        # the level's 134 KB of csv outgrow the pipe's buffer, so the command
        # is still writing when the reader closes its end after one line
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wordavoid.cli", "construct", "nodes", "--j", "1",
             "--level", "6", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().count(b",") == 4
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert b"Traceback" not in err
        assert rc == PIPE_CLOSED == 141
