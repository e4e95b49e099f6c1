"""Cross-module consistency checks.

Everything here ties two independent routes to the same numbers: the
closed-form triangle against its defining recurrences, the rule census
against the triangle, the materialized tree against the census, survivor
words against brute-force avoider sets, and the cut-and-paste mapping
against its inverse.  Each check reports pass/fail with a short detail
string instead of raising, so a caller can run the whole battery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pattern import avoider_table, avoiding_words, family_pattern
from .paths import (
    build_tree,
    hooks_of,
    net_survivors,
    occurrence_count,
    signed_census,
    word_census,
    zero1_inverse,
)
from .riordan import (
    a_sequence_from_h,
    d_from_z,
    family_a,
    family_d,
    family_h,
    from_dh,
    triangles_from_table,
    verify_a_matrix,
    verify_a_sequence,
    verify_column_doubling,
    verify_recurrence,
    z_sequence,
)
from .rules import avoid_rule, expand


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, "" if passed else detail)


def run_checks(j: int, levels: int, triangle_order: int = 12) -> list[CheckResult]:
    """Run the battery for one family parameter.

    `levels` bounds the materialized tree (and so the survivor scales);
    `triangle_order` bounds the series and triangle checks.
    """
    pattern = family_pattern(j)
    if levels < 0 or triangle_order < max(levels, j + 1):
        raise ValueError("need triangle_order >= levels and > j")
    # built first so that its level guard refuses an oversized tree before
    # any check does work
    tree = build_tree(j, levels)
    out = []

    # the one (d, h) pair every series and triangle check below reads
    d, h = family_d(j, triangle_order), family_h(j, triangle_order)
    triangle = from_dh(d, h)
    bad = verify_recurrence(triangle, j)
    out.append(_result("row-recurrence", not bad, f"{len(bad)} violations"))
    out.append(_result("column-doubling", verify_column_doubling(triangle),
                       "column 0 is not twice column 1"))
    out.append(_result("two-row-recurrence", verify_a_matrix(triangle, j),
                       "the A-matrix identity fails"))

    a_poly = family_a(j, triangle_order - 1)
    a_h = a_sequence_from_h(h)
    bad = verify_a_sequence(triangle, a_poly)
    out.append(
        _result(
            "a-sequence",
            a_poly == a_h and not bad,
            f"routes agree: {a_poly == a_h}; {len(bad)} row violations",
        )
    )

    # for this family Z = 2A: d = 1/sqrt(1 - 4t + 4t^(j+1)) = 1/(1 - 2h),
    # so d = 1/(1 - t Z(h)) gives Z(h) = 2h/t = 2A(h)
    z = z_sequence(d, h)
    rebuilt, twice_a = d_from_z(1, z, h) == d, z == 2 * a_poly
    out.append(_result("z-sequence", rebuilt and twice_a,
                       f"d rebuilt from Z agrees: {rebuilt}; Z = 2A: {twice_a}"))

    lower, _ = triangles_from_table(avoider_table(pattern, triangle_order))
    out.append(_result("table-agreement", lower == triangle,
                       "table triangle differs from closed form"))

    census = expand(avoid_rule(j), levels)
    rows = [triangle.rows[n] for n in range(levels + 1)]
    got = [tuple(r) for r in census.triangle_rows()]
    out.append(_result("rule-census", got == rows, "census differs from triangle"))

    out.append(
        _result("construction-census", signed_census(tree) == census,
                "tree census differs from rule census")
    )

    # one word census per level feeds both the survivors and the copies law
    bad_survivors = []
    bad_copies = []
    for n in range(levels + 1):
        words = word_census(tree[n])
        net_one, bad = net_survivors(words)
        bad_survivors += [(n, word, net) for word, net in bad]
        wanted = set()
        for k in range(n + 1):
            wanted |= avoiding_words(pattern, n, k)
        if net_one != wanted:
            bad_survivors.append((n, "survivor-set-mismatch", 0))
        for word, (even, odd) in words.items():
            c = occurrence_count(word, j)
            want = (1, 0) if c == 0 else (2 ** (c - 1), 2 ** (c - 1))
            if (even, odd) != want:
                bad_copies.append((n, word, even, odd))
    out.append(_result("survivors", not bad_survivors, f"first issues: {bad_survivors[:3]}"))
    out.append(_result("copies-law", not bad_copies, f"first issues: {bad_copies[:3]}"))

    # every hook the build fed to zero1_forward, against its zero-sub-1 child
    bad_trips = [hook.steps for nodes in tree for hook, child in hooks_of(nodes)
                 if zero1_inverse(child.path) != hook]
    out.append(_result("round-trip", not bad_trips, f"first issues: {bad_trips[:3]}"))
    return out
