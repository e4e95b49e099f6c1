"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For every checker in checks.CHECKS: the program's real answer, at a small
size, must pass, and the same answer with one perturbation (an entry off by
one, a dropped survivor, a failed check, ...) must be rejected.  Then a
raising question and a command exiting non-zero must count as failed but
not as wrong.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wordavoid import cli, paths, pattern, riordan, rules, verify  # noqa: E402
from wordavoid.series import USeries  # noqa: E402
from wordavoid.verify import CheckResult  # noqa: E402


def bump_coeff(series: USeries, n: int) -> USeries:
    coeffs = list(series.coeffs)
    coeffs[n] += 1
    return USeries(coeffs)


def bump_row(rows, n: int, k: int):
    out = [list(r) for r in rows]
    out[n][k] += 1
    return out


def bump_last_int(text: str) -> str:
    last = list(re.finditer(r"\d+", text))[-1]
    return text[: last.start()] + str(int(last.group()) + 1) + text[last.end() :]


class Rows:
    def __init__(self, rows):
        self.rows = rows


def cli_output(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    if code != 0:
        raise RuntimeError(f"wordavoid {command} exited {code}")
    return out.getvalue()


def cases():
    """(checker, params, ref, good answer, perturbed answer, perturbation)."""
    enum_ref = checks.Ref(counts=oracle.count_tables({"11100": 12, "1010011": 12}))
    for name, order in (("family_d", 10), ("family_h", 10), ("family_a", 10), ("family_z", 8)):
        good = getattr(riordan, name)(2, order)
        yield (name, {"j": 2, "order": order}, enum_ref, good, bump_coeff(good, order // 2),
               f"t^{order // 2} coefficient off by one")
    good = riordan.a_sequence_from_h(riordan.family_h(2, 10))
    yield ("a_from_h", {"j": 2, "order": 10}, enum_ref, good, bump_coeff(good, 9),
           "last coefficient off by one")
    good = riordan.family_triangle(2, 12)
    yield ("triangle", {"pattern": "11100"}, enum_ref, good, Rows(bump_row(good.rows, 9, 3)),
           "entry (9, 3) off by one")
    table = pattern.avoider_table("1010011", 12)
    lower, upper = riordan.triangles_from_table(table)
    yield ("table", {"pattern": "1010011", "order": 12}, enum_ref, (table, lower, upper),
           (table, lower, Rows(bump_row(upper.rows, 12, 5))), "upper entry (12, 5) off by one")
    good = pattern.count_by_automaton("1010011", 12, 11)
    yield ("automaton", {"pattern": "1010011", "ones": 12, "zeros": 11}, enum_ref, good,
           good - 1, "count off by one")
    good = rules.expand(rules.avoid_rule(2), 12).triangle_rows()
    yield ("census", {"pattern": "11100", "levels": 12}, enum_ref, good,
           bump_row(good, 11, 0), "cell (11, 0) off by one")

    con_ref = checks.Ref(level_sizes={(1, 5): oracle.avoid_rule_level_sizes(1, 5)},
                         avoiders={("110", 5): oracle.avoiders("110", 5, 5)})
    good = paths.build_tree(1, 5)
    yield ("build_tree", {"j": 1, "levels": 5}, con_ref, good, good[:-1] + [good[-1][1:]],
           "one node dropped from the top level")
    good = paths.survivors(1, 5)
    yield ("survivors", {"pattern": "110", "level": 5}, con_ref, good, good - {min(good)},
           "one survivor dropped")
    good = paths.copies_census(1, 5)
    word = next(w for w, c in good.items() if c[1])
    yield ("copies", {"pattern": "110", "level": 5}, con_ref, good,
           {**good, word: (good[word][0] + 1, good[word][1])},
           f"{word} given one more even node")
    good = verify.run_checks(2, 3, 3)
    yield ("run_checks", {}, con_ref, good,
           good[:-1] + [CheckResult(good[-1].name, False, "perturbed")], "last check failed")

    cli_ref = checks.references("cli", [])
    for metric, command in workloads.README_COMMANDS:
        name = "cli_" + metric.removeprefix("cli.").removesuffix("_s")
        if name == "cli_series_a":
            # the README's own form exits 2; the same answer via --format
            good = cli_output("series a --j 2 --order 9 --format csv")
        else:
            good = cli_output(command)
        if name == "cli_construct_survivors":
            bad, how = good.split("\n", 1)[1], "first survivor dropped"
        elif name == "cli_verify":
            bad, how = good.replace("PASS", "FAIL", 1), "first check reported failed"
        else:
            bad, how = bump_last_int(good), "last number off by one"
        yield name, {}, cli_ref, good, bad, how


class Fake:
    label, check, params, metric = "fake", "automaton", {}, ""

    def __init__(self, call):
        self.call = call


def harness_failures() -> list[str]:
    problems = []

    def raises():
        raise ValueError("boom")

    for what, call in (
        ("a raising question", raises),
        ("a command exiting 2", lambda: workloads.Completed(2, "", "usage", 1000)),
    ):
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            _, ok, _ = run.ask(Fake(call), checks.Ref(), tally)
        if ok or tally.failed != 1 or tally.wrong != 0:
            problems.append(f"{what} is not counted as failed-but-not-wrong")
        else:
            print(f"ok   harness: {what} counts as failed, not wrong")
    return problems


def main() -> int:
    problems = []
    seen = set()
    for name, params, ref, good, bad, how in cases():
        seen.add(name)
        fn = checks.CHECKS[name]
        if fn(params, good, ref) is not None:
            problems.append(f"{name}: rejects the program's answer: {fn(params, good, ref)}")
        elif fn(params, bad, ref) is None:
            problems.append(f"{name}: accepts a perturbed answer ({how})")
        else:
            print(f"ok   {name}: rejects {how}: {fn(params, bad, ref)}")
    untested = set(checks.CHECKS) - seen
    if untested:
        problems.append(f"checkers without a case: {sorted(untested)}")
    problems += harness_failures()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
