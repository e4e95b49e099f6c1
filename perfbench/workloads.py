"""The three workloads: fixed question lists built from a seed.

A question is one call a user would make, plus the name of the check its
answer must pass.  In-process questions look each function up on its module
at call time, so the tracer's patches take effect; `cli` questions run the
installed entry point (`wordavoid.cli:main`) in a fresh interpreter each.

The seed changes which patterns `enumerate` draws, which automaton cells it
asks for, and the order of every list.  It never changes a size, so a pass
costs about the same on every seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import oracle

WORKLOADS = ("enumerate", "construct", "cli")

FAMILY = (1, 2, 3)
SERIES_ORDER = 60  # family_d / family_h
A_ORDER = 40  # family_a, the Newton route
Z_ORDER = 20  # family_z, through USeries.revert (O(n^4))
A_FROM_H_ORDER = 24  # a_sequence_from_h, through USeries.revert
TRIANGLE_ORDER = 40  # family_triangle, the CLI's cap
TABLE_ORDER = 30  # avoider_table + triangles_from_table
AUTOMATON_CAP = 40  # count_by_automaton cells, the CLI's cap
EXPAND_LEVELS = 120  # rules.expand(avoid_rule(j), L)
DRAWN_PATTERNS = 3
DRAWN_LENGTH = 7
AUTOMATON_CELLS = 3  # drawn cells per pattern, besides (cap, cap)

# build_tree at the level guards (9 for j = 1 would take 6.5 s a call, so
# one below); the other construction questions one level lower again.
TREE_LEVELS = ((1, 8), (2, 8))
BATTERY_LEVELS = ((1, 7), (2, 7))


@dataclass
class Question:
    label: str
    check: str
    params: dict
    call: Callable[..., Any]
    metric: str = ""  # per-command metric name, cli only


def _call(module, name, *args):
    return getattr(module, name)(*args)


def drawn_patterns(rng: random.Random) -> list[str]:
    """Patterns with a nontrivial autocorrelation (some c_i = 1, i > 0)."""
    family = {oracle.family_pattern(j) for j in FAMILY}
    out: list[str] = []
    while len(out) < DRAWN_PATTERNS:
        p = "".join(rng.choice("01") for _ in range(DRAWN_LENGTH))
        if any(oracle.autocorrelation(p)[1:]) and p not in family and p not in out:
            out.append(p)
    return out


def enumerate_questions(seed: int) -> list[Question]:
    from wordavoid import pattern, riordan, rules

    rng = random.Random(seed)
    qs = []
    for j in FAMILY:
        for name, check, order in (
            ("family_d", "family_d", SERIES_ORDER),
            ("family_h", "family_h", SERIES_ORDER),
            ("family_a", "family_a", A_ORDER),
            ("family_z", "family_z", Z_ORDER),
        ):
            qs.append(Question(f"{name}(j={j}, order={order})", check,
                               {"j": j, "order": order},
                               partial(_call, riordan, name, j, order)))
        qs.append(Question(f"a_sequence_from_h(family_h(j={j}, order={A_FROM_H_ORDER}))",
                           "a_from_h", {"j": j, "order": A_FROM_H_ORDER},
                           partial(_a_from_h, riordan, j, A_FROM_H_ORDER)))
        qs.append(Question(f"family_triangle(j={j}, order={TRIANGLE_ORDER})", "triangle",
                           {"pattern": oracle.family_pattern(j)},
                           partial(_call, riordan, "family_triangle", j, TRIANGLE_ORDER)))
        qs.append(Question(f"expand(avoid_rule({j}), {EXPAND_LEVELS})", "census",
                           {"pattern": oracle.family_pattern(j), "levels": EXPAND_LEVELS},
                           partial(_expand, rules, j, EXPAND_LEVELS)))
    patterns = [oracle.family_pattern(j) for j in FAMILY] + drawn_patterns(rng)
    for p in patterns:
        qs.append(Question(f"avoider_table({p}, {TABLE_ORDER}) + triangles_from_table",
                           "table", {"pattern": p, "order": TABLE_ORDER},
                           partial(_table, pattern, riordan, p, TABLE_ORDER)))
        cells = [(AUTOMATON_CAP, AUTOMATON_CAP)] + [
            (rng.randint(30, AUTOMATON_CAP), rng.randint(30, AUTOMATON_CAP))
            for _ in range(AUTOMATON_CELLS)
        ]
        for ones, zeros in cells:
            qs.append(Question(f"count_by_automaton({p}, {ones}, {zeros})", "automaton",
                               {"pattern": p, "ones": ones, "zeros": zeros},
                               partial(_call, pattern, "count_by_automaton", p, ones, zeros)))
    rng.shuffle(qs)
    return qs


def _a_from_h(riordan, j, order):
    return riordan.a_sequence_from_h(riordan.family_h(j, order))


def _expand(rules, j, levels):
    return rules.expand(rules.avoid_rule(j), levels).triangle_rows()


def _table(pattern, riordan, p, order):
    table = pattern.avoider_table(p, order)
    return (table,) + riordan.triangles_from_table(table)


def construct_questions(seed: int) -> list[Question]:
    from wordavoid import paths, verify

    qs = [
        Question(f"build_tree({j}, {lv})", "build_tree", {"j": j, "levels": lv},
                 partial(_call, paths, "build_tree", j, lv))
        for j, lv in TREE_LEVELS
    ]
    for j, lv in BATTERY_LEVELS:
        p = oracle.family_pattern(j)
        qs += [
            Question(f"survivors({j}, {lv})", "survivors", {"pattern": p, "level": lv},
                     partial(_call, paths, "survivors", j, lv)),
            Question(f"copies_census({j}, {lv})", "copies", {"pattern": p, "level": lv},
                     partial(_call, paths, "copies_census", j, lv)),
            # the smallest triangle_order run_checks accepts: max(levels, j + 1)
            Question(f"run_checks({j}, {lv}, {max(lv, j + 1)})", "run_checks", {},
                     partial(_call, verify, "run_checks", j, lv, max(lv, j + 1))),
        ]
    random.Random(seed).shuffle(qs)
    return qs


# Every command block of the README, at the sizes shown there.
README_COMMANDS = (
    ("cli.table_s", "table 11100 7 csv"),
    ("cli.autocorr_s", "autocorr 101010"),
    ("cli.triangle_j_s", "triangle --j 2 7 csv"),
    ("cli.triangle_bar_s", "triangle --bar 11100 7 csv"),
    ("cli.series_a_s", "series a --j 2 --order 9 csv"),
    ("cli.rule_avoid_s", "rule avoid 10 csv --j 2"),
    ("cli.rule_catalan_marked_s", "rule catalan-marked 8"),
    ("cli.construct_survivors_s", "construct --j 1 --level 5"),
    ("cli.construct_census_s", "construct census --format csv --j 1 --level 6"),
    ("cli.verify_s", "verify --j 2 --levels 5"),
)

ENTRY_POINT = "import sys; from wordavoid.cli import main; sys.exit(main())"


@dataclass
class Completed:
    """A finished command: exit code, output and peak RSS."""

    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def child_env(root: str) -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(root: str, argv: list[str], trace_file: str | None = None) -> Completed:
    """Run one command in a fresh interpreter, as the `wordavoid` script
    does, and reap it with wait4 to read its own peak RSS.  With
    `trace_file`, the command runs under perfbench/traced_cli.py instead."""
    env = child_env(root)
    if trace_file is None:
        cmd = [sys.executable, "-c", ENTRY_POINT, *argv]
    else:
        bootstrap = os.path.join(root, "perfbench", "traced_cli.py")
        cmd = [sys.executable, bootstrap, trace_file, *argv]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # stderr carries at most a usage line or a traceback, far below a pipe
    # buffer, so draining stdout first cannot block the child.
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(proc.returncode, out, err, usage.ru_maxrss)


def cli_questions(seed: int, root: str) -> list[Question]:
    qs = [
        Question(f"wordavoid {command}", "cli_" + metric.removeprefix("cli.").removesuffix("_s"),
                 {}, partial(run_command, root, command.split()), metric=metric)
        for metric, command in README_COMMANDS
    ]
    random.Random(seed).shuffle(qs)
    return qs


def build(workload: str, seed: int, root: str) -> list[Question]:
    if workload == "enumerate":
        return enumerate_questions(seed)
    if workload == "construct":
        return construct_questions(seed)
    if workload == "cli":
        return cli_questions(seed, root)
    raise ValueError(f"unknown workload {workload!r}")
