"""Checks of the program's answers against the benchmark's own values.

`references(workload, questions)` computes, outside every timed window,
the values a workload's answers are compared with.  `CHECKS[name](params,
answer, ref)` returns None for a correct answer, or a one-line reason.
Nothing is compared with a saved copy of the program's output.
"""

from __future__ import annotations

from fractions import Fraction

import oracle
import workloads


class Ref:
    """Reference values of one workload, built once per run."""

    def __init__(self, counts=None, avoiders=None, level_sizes=None, catalan=None):
        self.counts = counts or {}  # pattern -> oracle.CountTable
        self.avoiders = avoiders or {}  # (pattern, level) -> set of words
        self.level_sizes = level_sizes or {}  # (j, levels) -> nodes per level
        self.catalan = catalan  # plain Catalan census, `rule catalan-marked 8`

    def count(self, p: str, ones: int, zeros: int) -> int:
        return self.counts[p].count(ones, zeros)


def references(workload: str, questions) -> Ref:
    if workload == "enumerate":
        sizes = {}
        for q in questions:
            p = q.params.get("pattern")
            if p is not None:
                need = q.params.get("levels", workloads.AUTOMATON_CAP)
                sizes[p] = max(sizes.get(p, 0), need, workloads.TRIANGLE_ORDER)
        return Ref(counts=oracle.count_tables(sizes))
    if workload == "construct":
        ref = Ref()
        for q in questions:
            if q.check == "build_tree":
                key = (q.params["j"], q.params["levels"])
                ref.level_sizes[key] = oracle.avoid_rule_level_sizes(*key)
            elif q.check in ("survivors", "copies"):
                p, lv = q.params["pattern"], q.params["level"]
                ref.avoiders[p, lv] = oracle.avoiders(p, lv, lv)
        return ref
    if workload == "cli":
        return Ref(
            counts=oracle.count_tables({"11100": 10, "110": 6}),
            avoiders={("110", 5): oracle.avoiders("110", 5, 5)},
            catalan=oracle.catalan_census(8),
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- helpers -------------------------------------------------------------------


def _ints(values) -> list[int] | None:
    out = []
    for c in values:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            return None
        if isinstance(c, Fraction):
            if c.denominator != 1:
                return None
            c = c.numerator
        out.append(int(c))
    return out


def _series(answer, order: int) -> tuple[list[int] | None, str | None]:
    coeffs = _ints(getattr(answer, "coeffs", ()))
    if coeffs is None:
        return None, "coefficients are not all integers"
    if len(coeffs) != order + 1:
        return None, f"order {len(coeffs) - 1}, expected {order}"
    return coeffs, None


def _first_mismatch(got, want, what: str) -> str | None:
    if len(got) != len(want):
        return f"{what}: {len(got)} entries, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what}: entry {i} is {g}, expected {w}"
    return None


def _triangle_rows(rows, ref: Ref, p: str, upper: bool = False) -> str | None:
    """Row n, column k: words with n ones and n - k zeros (lower), or
    n - k ones and n zeros (upper)."""
    for n, row in enumerate(rows):
        want = [
            ref.count(p, n - k, n) if upper else ref.count(p, n, n - k)
            for k in range(n + 1)
        ]
        problem = _first_mismatch(list(row), want, f"row {n}")
        if problem:
            return problem
    return None


def _census_matrix(rows, ref: Ref, p: str, levels: int) -> str | None:
    """A signed level census of the family: the triangle row in columns
    0..level, zero beyond."""
    if len(rows) != levels + 1:
        return f"{len(rows)} levels, expected {levels + 1}"
    for lv, row in enumerate(rows):
        if len(row) < lv + 1:
            return f"level {lv} has {len(row)} columns"
        want = [ref.count(p, lv, lv - v) if v <= lv else 0 for v in range(len(row))]
        problem = _first_mismatch(list(row), want, f"level {lv}")
        if problem:
            return problem
    return None


# -- enumerate -------------------------------------------------------------------


def check_family_d(params, answer, ref):
    j, n = params["j"], params["order"]
    d, problem = _series(answer, n)
    if problem:
        return problem
    radicand = oracle.s_poly({0: 1, 1: -4, j + 1: 4}, n)
    lhs = oracle.s_mul(oracle.s_mul(d, d, n), radicand, n)
    return _first_mismatch(lhs, oracle.s_poly({0: 1}, n), "d^2 (1 - 4t + 4t^(j+1))")


def check_family_h(params, answer, ref):
    j, n = params["j"], params["order"]
    h, problem = _series(answer, n)
    if problem:
        return problem
    if h[0] != 0:
        return "h(0) != 0"
    hh = oracle.s_mul(h, h, n)
    lhs = [a - b for a, b in zip(h, hh)]
    return _first_mismatch(lhs, oracle.s_poly({1: 1, j + 1: -1}, n), "h - h^2")


def check_family_a(params, answer, ref):
    j, n = params["j"], params["order"]
    a, problem = _series(answer, n)
    if problem:
        return problem
    if a[0] != 1:
        return "A(0) != 1"
    high = oracle.s_mul(oracle.s_poly({0: 1, 1: -1}, n), oracle.s_pow(a, j + 1, n), n)
    low = oracle.s_pow(a, j, n)
    tj = oracle.s_poly({j: 1}, n)
    lhs = [x - y + z for x, y, z in zip(high, low, tj)]
    return _first_mismatch(lhs, [0] * (n + 1), "(1-t)A^(j+1) - A^j + t^j")


def check_a_from_h(params, answer, ref):
    # h has order n, so A is pinned through t^(n-1): h = t A(h) mod t^(n+1)
    j, n = params["j"], params["order"]
    a, problem = _series(answer, n - 1)
    if problem:
        return problem
    h = oracle.family_h_ref(j, n)
    lhs = [0] + oracle.s_compose(a, h[:n], n - 1)
    return _first_mismatch(lhs, h, "t A(h)")


def check_family_z(params, answer, ref):
    # Z has order n, so d = 1/(1 - t Z(h)) holds mod t^(n+2)
    j, n = params["j"], params["order"]
    z, problem = _series(answer, n)
    if problem:
        return problem
    h = oracle.family_h_ref(j, n + 1)
    tz = [0] + oracle.s_compose(z, h[: n + 1], n)
    lhs = oracle.s_mul(oracle.family_d_ref(j, n + 1), [1 - tz[0]] + [-c for c in tz[1:]], n + 1)
    return _first_mismatch(lhs, oracle.s_poly({0: 1}, n + 1), "d (1 - t Z(h))")


def check_triangle(params, answer, ref):
    return _triangle_rows(answer.rows, ref, params["pattern"])


def check_table(params, answer, ref):
    table, lower, upper = answer
    p, n = params["pattern"], params["order"]
    grid = [_ints(row) for row in table.grid]
    if len(grid) != n + 1 or any(row is None or len(row) != n + 1 for row in grid):
        return "table is not an integer grid of the requested order"
    for ones in range(n + 1):
        want = [ref.count(p, ones, zeros) for zeros in range(n + 1)]
        problem = _first_mismatch(grid[ones], want, f"table row {ones}")
        if problem:
            return problem
    return (_triangle_rows(lower.rows, ref, p)
            or _triangle_rows(upper.rows, ref, p, upper=True))


def check_automaton(params, answer, ref):
    want = ref.count(params["pattern"], params["ones"], params["zeros"])
    return None if answer == want else f"count {answer}, expected {want}"


def check_census(params, answer, ref):
    rows, levels = answer, params["levels"]
    if len(rows) != levels + 1:
        return f"{len(rows)} census rows, expected {levels + 1}"
    return _triangle_rows(rows, ref, params["pattern"])


# -- construct -------------------------------------------------------------------


def check_build_tree(params, answer, ref):
    sizes = [len(level) for level in answer]
    want = ref.level_sizes[params["j"], params["levels"]]
    return _first_mismatch(sizes, want, "nodes per level")


def check_survivors(params, answer, ref):
    want = ref.avoiders[params["pattern"], params["level"]]
    if answer == want:
        return None
    return (f"{len(set(answer) - want)} extra and {len(want - set(answer))} "
            f"missing survivors")


def check_copies(params, answer, ref):
    p = params["pattern"]
    for word, counts in answer.items():
        c = oracle.occurrences(word, p)
        want = (1, 0) if c == 0 else (2 ** (c - 1), 2 ** (c - 1))
        if tuple(counts) != want:
            return f"{word} with {c} copies has (even, odd) = {counts}, expected {want}"
    missing = ref.avoiders[p, params["level"]] - answer.keys()
    if missing:
        return f"{len(missing)} avoiders have no node"
    return None


def check_run_checks(params, answer, ref):
    if not answer:
        return "no checks ran"
    failed = [r.name for r in answer if not r.passed]
    return f"failed: {', '.join(failed)}" if failed else None


# -- cli: each parses the command's stdout ---------------------------------------


def _csv(text: str) -> list[list[int]]:
    return [[int(c) for c in line.split(",")] for line in text.splitlines()]


def _columns(text: str) -> list[list[int]]:
    return [[int(c) for c in line.split()] for line in text.splitlines()]


def _parsed(parse, text):
    try:
        return parse(text), None
    except ValueError:
        return None, "output does not parse"


def _terms(poly: str) -> list[tuple[int, int]]:
    out = []
    for term in poly.split("+"):
        ones = zeros = 0
        rest = term if term != "1" else ""
        while rest:
            var, rest = rest[0], rest[1:]
            power = 1
            if rest.startswith("^"):
                digits = len(rest[1:]) - len(rest[1:].lstrip("0123456789"))
                power, rest = int(rest[1 : 1 + digits]), rest[1 + digits :]
            if var == "x":
                ones = power
            elif var == "y":
                zeros = power
            else:
                raise ValueError(term)
        out.append((ones, zeros))
    return out


def check_cli_table(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    want = [[ref.count("11100", o, z) for z in range(8)] for o in range(8)]
    return _first_mismatch(rows, want, "table")


def check_cli_autocorr(params, out, ref):
    try:
        c_part, poly_part = out.strip().split("; ")
        vector = tuple(int(c) for c in c_part.removeprefix("c=(").removesuffix(")").split(","))
        terms = _terms(poly_part.removeprefix("C="))
    except ValueError:
        return "output does not parse"
    if vector != oracle.autocorrelation("101010"):
        return f"autocorrelation {vector}"
    if terms != oracle.correlation_terms("101010"):
        return f"correlation polynomial terms {terms}"
    return None


def check_cli_triangle_j(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    if len(rows) != 8:
        return f"{len(rows)} rows, expected 8"
    return _triangle_rows(rows, ref, "11100")


def check_cli_triangle_bar(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    if len(rows) != 8:
        return f"{len(rows)} rows, expected 8"
    return _triangle_rows(rows, ref, "11100", upper=True)


def check_cli_series_a(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    if len(rows) != 1:
        return "expected one line of coefficients"
    return check_family_a({"j": 2, "order": 9}, _Coeffs(rows[0]), ref)


class _Coeffs:
    def __init__(self, coeffs):
        self.coeffs = coeffs


def check_cli_rule_avoid(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    return _census_matrix(rows, ref, "11100", 10)


def check_cli_rule_catalan_marked(params, out, ref):
    rows, problem = _parsed(_columns, out)
    if problem:
        return problem
    return _first_mismatch(rows, ref.catalan, "census")


def check_cli_construct_survivors(params, out, ref):
    words = out.split()
    if words != sorted(set(words)):
        return "survivors are not sorted and distinct"
    return check_survivors({"pattern": "110", "level": 5}, set(words), ref)


def check_cli_construct_census(params, out, ref):
    rows, problem = _parsed(_csv, out)
    if problem:
        return problem
    return _census_matrix(rows, ref, "110", 6)


def check_cli_verify(params, out, ref):
    lines = out.splitlines()
    if not lines:
        return "no checks reported"
    failed = [line for line in lines if not line.startswith("PASS ")]
    return f"not passed: {failed[:3]}" if failed else None


CHECKS = {
    name.removeprefix("check_"): fn
    for name, fn in globals().items()
    if name.startswith("check_")
}


def check(question, answer, ref) -> str | None:
    """None if the answer passes the question's check, else the reason."""
    return CHECKS[question.check](question.params, answer, ref)
