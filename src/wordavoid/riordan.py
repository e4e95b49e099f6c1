"""Riordan triangles for the avoider counts.

A Riordan triangle is the lower-triangular integer matrix with entry (n, k)
equal to the t^n coefficient of d(t) * h(t)^k for a series pair (d, h) with
d(0) != 0, h(0) = 0, h'(0) != 0.  The triangle of words avoiding the factor
'1' * (j+1) + '0' * j, with entry (n, k) counting avoiders with n ones and
n - k zeros, is Riordan with closed-form d and h; this module builds the
pair, extracts the row-recurrence sequences, and verifies the recurrences
the triangle must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .pattern import family_pattern
from .series import BSeries, Rational, USeries, _frac, integer_row, solve_polynomial


class NotProper(ValueError):
    """The series pair does not define a proper Riordan triangle."""


@dataclass(frozen=True, init=False, repr=False)
class RiordanTriangle:
    """A lower-triangular integer matrix; row n holds entries k = 0..n.
    Entries must be exact integers: a fractional one raises
    `NonIntegerCoefficient`, anything else not exact raises `TypeError`."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        norm = []
        for n, row in enumerate(rows):
            entries = integer_row(row, lambda k: f"entry ({n}, {k})")
            if len(entries) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")
            norm.append(tuple(entries))
        if not norm:
            raise ValueError("a triangle needs at least one row")
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> int:
        """Entry (n, k); zero outside the stored triangle."""
        if 0 <= k <= n <= self.order:
            return self.rows[n][k]
        return 0

    def __repr__(self):
        return f"RiordanTriangle(order={self.order})"


def from_dh(d: USeries, h: USeries) -> RiordanTriangle:
    """Triangle entry (n, k) = [t^n] d * h^k, to the smaller of the two
    series' orders.  Entries must be integers.  h'(0) is checked only when
    h carries a t term: the single row of an order-0 triangle is d(0)."""
    if d.coeffs[0] == 0 or h.coeffs[0] != 0 or (h.order > 0 and h.coeffs[1] == 0):
        raise NotProper("need d(0) != 0, h(0) = 0, h'(0) != 0")
    order = min(d.order, h.order)
    rows = [[] for _ in range(order + 1)]
    col = d
    for k in range(order + 1):
        for n in range(k, order + 1):
            rows[n].append(col.coeffs[n])
        col = col * h
    return RiordanTriangle(rows)


def triangles_from_table(table: BSeries) -> tuple[RiordanTriangle, RiordanTriangle]:
    """Fold a square avoider table into its two triangular halves.

    The first triangle reads the lower half: entry (n, k) = table (n, n-k),
    counting words with n ones and n-k zeros.  The second reads the upper
    half: entry (n, k) = table (n-k, n).  Both share column zero, the
    table's main diagonal.
    """
    grid = table.grid
    lower = [grid[n][n::-1] for n in range(len(grid))]
    upper = [[row[n] for row in grid[n::-1]] for n in range(len(grid))]
    return RiordanTriangle(lower), RiordanTriangle(upper)


# -- closed forms for the family pattern 1^(j+1) 0^j -------------------------


def _family_radicand(j: int, order: int) -> USeries:
    # 1 - 4t + 4t^(j+1); below order j + 1 the last term truncates away
    family_pattern(j)
    coeffs = [1, -4] + [0] * j
    coeffs[j + 1] += 4
    return USeries(coeffs, order=order)


def family_h(j: int, order: int) -> USeries:
    """The h of the family triangle: (1 - sqrt(1 - 4t + 4t^(j+1))) / 2."""
    return (1 - _family_radicand(j, order).sqrt()) / 2


def family_d(j: int, order: int) -> USeries:
    """The d of the family triangle: 1 / sqrt(1 - 4t + 4t^(j+1))."""
    return 1 / _family_radicand(j, order).sqrt()


def family_triangle(j: int, order: int) -> RiordanTriangle:
    return from_dh(family_d(j, order), family_h(j, order))


def family_a_polynomial(j: int) -> list[list[Rational]]:
    """The polynomial (as t-coefficient lists per power of A) whose root
    with constant term 1 is the family's A-sequence:
    (1 - t) A^(j+1) - A^j + t^j = 0."""
    family_pattern(j)
    poly: list[list[Rational]] = [[0] for _ in range(j + 2)]
    poly[0] = [0] * j + [1]
    poly[j] = [-1]
    poly[j + 1] = [1, -1]
    return poly


def family_a(j: int, order: int) -> USeries:
    """The family's A-sequence, solved from its polynomial equation."""
    return solve_polynomial(family_a_polynomial(j), 1, order)


def family_z(j: int, order: int) -> USeries:
    """The family's Z-sequence (column-zero recurrence coefficients)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return z_sequence(family_d(j, order + 1), family_h(j, order + 1))


# -- A- and Z-sequence extraction ---------------------------------------------


def a_sequence_from_h(h: USeries) -> USeries:
    """The A-sequence of a triangle with column series h, via h = t*A(h):
    A(u) = u / g(u) where g is the compositional inverse of h.

    The t^n coefficient of h pins A only through index n - 1, so the result
    has order one below h's.
    """
    g = h.revert()
    return 1 / g.shift_down()


def z_sequence(d: USeries, h: USeries) -> USeries:
    """The Z-sequence, from d = d(0) / (1 - t*Z(h)).  Order drops by one."""
    d0 = d.coeff(0)
    if d0 == 0:
        raise NotProper("need d(0) != 0")
    g = h.revert()
    num = 1 - d0 / d.compose(g)
    return num.shift_down() / g.shift_down()


def d_from_z(d0: Rational, z: USeries, h: USeries) -> USeries:
    """Rebuild d from its constant term and the Z-sequence."""
    return d0 / (1 - z.compose(h).shift_up())


# -- recurrence verification ---------------------------------------------------

# (n, k, actual, expected); a rational A-sequence makes `expected` rational
Violation = tuple[int, int, int, Rational]


def verify_recurrence(r: RiordanTriangle, j: int) -> list[Violation]:
    """Check the family row recurrence on every interior entry:
    entry(n+1, k+1) = entry(n, k) + entry(n+1, k+2) - entry(n-j, k),
    with out-of-triangle entries read as zero."""
    family_pattern(j)
    out = []
    for n in range(r.order):
        for k in range(n + 1):
            want = r.entry(n, k) + r.entry(n + 1, k + 2) - r.entry(n - j, k)
            got = r.entry(n + 1, k + 1)
            if got != want:
                out.append((n + 1, k + 1, got, want))
    return out


def verify_column_doubling(r: RiordanTriangle) -> bool:
    """True iff every row below the first has entry 0 = twice entry 1."""
    if r.order < 1:
        raise ValueError("need at least two rows")
    return all(r.entry(n, 0) == 2 * r.entry(n, 1) for n in range(1, r.order + 1))


def verify_a_matrix(r: RiordanTriangle, j: int) -> bool:
    """Check the family's two-row A-matrix identity on every interior entry:
    entry(n+1, k+1) = S(n, k) - S(n-j, k), where S(n, k) is the sum of row n
    from column k on, and rows above the triangle sum to zero (the A-matrix
    characterization of Merlini, Rogers, Sprugnoli & Verri, 1997).

    On a lower-triangular array this is verify_recurrence telescoped along
    each row: it accepts exactly the triangles that check accepts, so it is
    an independent computation of the same condition, not a stronger check.
    """
    family_pattern(j)
    width = r.order + 2
    suffix = [[0] * width] * j  # suffix[j + n][k] = S(n, k), zero for n < 0
    for row in r.rows:
        sums = [0] * width
        for k in range(len(row) - 1, -1, -1):
            sums[k] = sums[k + 1] + row[k]
        suffix.append(sums)
    return all(
        r.rows[n + 1][k + 1] == suffix[j + n][k] - suffix[n][k]
        for n in range(r.order)
        for k in range(n + 1)
    )


def verify_a_sequence(r: RiordanTriangle, a: USeries) -> list[Violation]:
    """Check the one-row recurrence: entry(n+1, k+1) = sum over i of
    a_i * entry(n, k+i).  Needs a known through index order - 1."""
    if a.order < r.order - 1:
        raise ValueError("A-sequence order too small for this triangle")
    out = []
    for n in range(r.order):
        row, below = r.rows[n], r.rows[n + 1]
        for k in range(n + 1):
            want = _frac(sum(map(mul, a.coeffs, row[k:])))
            got = below[k + 1]
            if got != want:
                out.append((n + 1, k + 1, got, want))
    return out
