"""End-to-end acceptance battery.

Each test covers one acceptance criterion, enforces its time budget, and
records a single pass/fail line.  The lines are printed immediately (visible
with ``pytest -s``) and echoed in the terminal summary via ``conftest.py``;
the module can also be run directly with ``python3 tests/test_acceptance.py``.
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from wordavoid.cli import render_matrix
from wordavoid.paths import (
    AnnotatedPath,
    build_tree,
    copies_census,
    occurrence_count,
    survivors,
    zero1_forward,
    zero1_inverse,
)
from wordavoid.pattern import (
    avoider_table,
    avoiding_words,
    count_by_automaton,
    count_by_enumeration,
)
from wordavoid.riordan import (
    a_sequence_from_h,
    family_a,
    family_h,
    family_triangle,
    triangles_from_table,
    verify_a_matrix,
    verify_a_sequence,
    verify_column_doubling,
    verify_recurrence,
)
from wordavoid.rules import (
    avoid_rule,
    catalan_marked_rule,
    catalan_plain_rule,
    expand,
)

GOLDEN = Path(__file__).parent / "golden"
RESULTS: list[str] = []

A_LITERAL = [1, 1, 0, 2, -1, 7, -12, 38, -99, 281]
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def _record(line: str) -> None:
    RESULTS.append(line)
    print(line)


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        _record(f"criterion {num} ({name}): FAIL (over budget: {elapsed:.2f}s)")
        pytest.fail(f"criterion {num} took {elapsed:.2f}s, budget {budget:.0f}s")
    _record(f"criterion {num} ({name}): PASS")


def golden_rows(name):
    text = (GOLDEN / name).read_text()
    return [[int(v) for v in line.split(",")] for line in text.splitlines()]


def test_criterion_1_avoider_table():
    with criterion(1, "avoider table", 1.0):
        table = avoider_table("11100", 7)
        assert table.integer_rows() == golden_rows("table2_11100.csv")


def test_criterion_2_triangles():
    with criterion(2, "triangle pair", 1.0):
        lower, upper = triangles_from_table(avoider_table("11100", 7))
        assert render_matrix(lower.rows, "csv") == (GOLDEN / "table3_11100.csv").read_text()
        assert render_matrix(upper.rows, "csv") == (GOLDEN / "table4_11100.csv").read_text()
        assert family_triangle(2, 7) == lower


def test_criterion_3_a_sequence():
    with criterion(3, "A-sequence", 1.0):
        assert family_a(2, 9).integer_coeffs() == A_LITERAL
        # reconstruction from h pins one fewer coefficient than h carries
        assert a_sequence_from_h(family_h(2, 10)) == family_a(2, 9)
        assert a_sequence_from_h(family_h(2, 9)) == family_a(2, 8)


def test_criterion_4_recurrences():
    with criterion(4, "triangle recurrences", 1.0):
        for j in (1, 2, 3):
            triangle = family_triangle(j, 12)
            assert verify_recurrence(triangle, j) == []
            assert verify_column_doubling(triangle) is True
            assert verify_a_matrix(triangle, j) is True
            assert verify_a_sequence(triangle, family_a(j, 11)) == []


def test_criterion_5_counting_oracles():
    with criterion(5, "counting oracles", 30.0):
        for bits in ("110", "11100", "1111000", "101010"):
            table = avoider_table(bits, 14)
            for n in range(15):
                for k in range(15 - n):
                    expected = count_by_enumeration(bits, n, k)
                    assert count_by_automaton(bits, n, k) == expected, (bits, n, k)
                    assert table.entry(n, k) == expected, (bits, n, k)


def test_criterion_6_rule_census():
    with criterion(6, "succession rules", 5.0):
        for j in (1, 2, 3):
            census = expand(avoid_rule(j), 10)
            assert census.triangle_rows() == [
                list(row) for row in family_triangle(j, 10).rows
            ]
        plain = expand(catalan_plain_rule(), 10).totals()
        marked = expand(catalan_marked_rule(), 10).totals()
        assert plain == CATALAN
        assert marked == CATALAN


SCALES = ((1, 7), (2, 6))


def test_criterion_7_survivors():
    with criterion(7, "survivor words", 120.0):
        for j, n_max in SCALES:
            bits = "1" * (j + 1) + "0" * j
            for n in range(n_max + 1):
                expected = set()
                for zeros in range(n + 1):
                    expected |= avoiding_words(bits, n, zeros)
                assert survivors(j, n) == expected, (j, n)


def test_criterion_8_copies_law():
    with criterion(8, "copies law", 120.0):
        for j, n_max in SCALES:
            for n in range(n_max + 1):
                for word, (even, odd) in copies_census(j, n).items():
                    c = occurrence_count(word, j)
                    if c == 0:
                        assert (even, odd) == (1, 0), (j, n, word)
                    else:
                        assert even == odd == 2 ** (c - 1), (j, n, word)


def test_criterion_9_round_trip():
    with criterion(9, "construction round-trip", 120.0):
        checked = 0
        for j, levels in SCALES:
            block = "1" * (j + 1) + "0" * j
            for level_nodes in build_tree(j, levels):
                for node in level_nodes:
                    k = node.label.value
                    p = node.path
                    hooks = []
                    if node.level + 1 <= levels:
                        hooks.append(
                            AnnotatedPath(j, p.steps + "1" + "0" * k, p.marks)
                        )
                    if node.level + j + 1 <= levels:
                        hooks.append(
                            AnnotatedPath(
                                j,
                                p.steps + block + "0" * k,
                                p.marks + (len(p.steps),),
                            )
                        )
                    for hook in hooks:
                        assert zero1_inverse(zero1_forward(hook)) == hook
                        checked += 1
        assert checked > 5_000


def _run_directly() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except BaseException:
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_directly())
