"""Exact truncated formal power series in one and two variables.

Coefficients are exact rationals and never floating point: a coefficient is
a plain `int` whenever it is integral and a `fractions.Fraction` only when it
is not, so the integer series the package works with stay in `int`
arithmetic.  Every division goes through one exact helper, `_div`.  A series
carries an explicit truncation order and mixed-order arithmetic truncates to
the smaller order, so a result never pretends to more precision than its
inputs carry.  All algorithms are truncation-stable:
recomputing at a higher order never changes the low-order coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

Rational = int | Fraction


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class ZeroConstantTerm(SeriesError):
    """Division by a series whose constant term is zero."""


class BadConstantTerm(SeriesError):
    """Square root needs constant term 1."""


class SingularRoot(SeriesError):
    """Polynomial solving needs a simple root at the expansion point."""


class NotRevertible(SeriesError):
    """Reversion needs f(0) = 0 and f'(0) != 0."""


class NonIntegerCoefficient(SeriesError):
    """A series expected to be integer-valued has a fractional coefficient."""


def _frac(value: Rational) -> Rational:
    """The canonical form of an exact rational: an int when it is integral,
    otherwise a Fraction."""
    # bool is an int subclass and floats are rejected outright: exactness is
    # a module invariant, not a best effort.  Exact ints go first: Fraction
    # is an ABC, so isinstance against it runs a Python-level check.
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def integer_row(values: Iterable[Rational], where: Callable[[int], str]) -> list[int]:
    """The values as plain ints, the one integrality gate of the package: a
    fractional value raises `NonIntegerCoefficient` naming `where(i)` of the
    first one, and a value that is not an exact rational raises `TypeError`."""
    row = [_frac(c) for c in values]
    for i, c in enumerate(row):
        if c.denominator != 1:
            raise NonIntegerCoefficient(f"{where(i)} is {c}")
    return row


def _div(a: Rational, b: Rational) -> Rational:
    """Exact a / b in canonical form; dividing by a unit stays in int."""
    if b == 1:
        return _frac(a)
    if b == -1:
        return _frac(-a)
    return _frac(Fraction(a) / b)


@dataclass(frozen=True, init=False, repr=False)
class USeries:
    """A univariate power series truncated at t^order.

    Immutable.  `coeffs` always holds exactly order + 1 coefficients in
    canonical form (see `_frac`); short coefficient lists are zero-padded on
    construction.
    """

    coeffs: tuple[Rational, ...]

    def __init__(self, coeffs: Iterable[Rational] = (), order: int | None = None):
        cs = [_frac(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        del cs[order + 1 :]
        cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Rational:
        """Coefficient of t^n; zero beyond the truncation order."""
        if n < 0:
            raise ValueError("negative exponent")
        return self.coeffs[n] if n <= self.order else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, USeries):
            n = min(self.order, other.order)
            return USeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])
        if isinstance(other, (int, Fraction)):
            head = [self.coeffs[0] + _frac(other)]
            return USeries(head + list(self.coeffs[1:]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return USeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, USeries):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-_frac(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, USeries):
            n = min(self.order, other.order)
            a, rb = self.coeffs, other.coeffs[n::-1]
            # rb[n - k + i] is b[k - i]: one reversed slice per product
            return USeries(
                [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return USeries([c * x for x in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return USeries([1], order=self.order) if result is None else result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return USeries([_div(x, c) for x in self.coeffs])
        if not isinstance(other, USeries):
            return NotImplemented
        if other.coeffs[0] == 0:
            raise ZeroConstantTerm("division needs a unit constant term")
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        q: list[Rational] = []
        for k in range(n + 1):
            # b[i] * q[k - i] for i = 1..k
            acc = a[k] - sum(map(mul, b[1 : k + 1], reversed(q)))
            q.append(_div(acc, b[0]))
        return USeries(q)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return USeries([other], order=self.order) / self
        return NotImplemented

    # -- structural helpers ------------------------------------------------

    def truncate(self, order: int) -> "USeries":
        if order > self.order:
            raise ValueError("cannot extend a series by truncation")
        return USeries(self.coeffs[: order + 1], order)

    def shift_up(self) -> "USeries":
        """Multiply by t.  The result is exact one order higher."""
        return USeries((0,) + self.coeffs)

    def shift_down(self) -> "USeries":
        """Divide by t; requires a zero constant term.  Loses one order."""
        if self.coeffs[0] != 0:
            raise ValueError("shift_down needs a zero constant term")
        if self.order == 0:
            raise ValueError("order too small to shift down")
        return USeries(self.coeffs[1:])

    # -- analytic operations -----------------------------------------------

    def sqrt(self) -> "USeries":
        """The square root branch with constant term 1."""
        if self.coeffs[0] != 1:
            raise BadConstantTerm("square root needs constant term 1")
        out: list[Rational] = [1]
        for n in range(1, self.order + 1):
            # out[i] * out[n - i] for i = 1..n-1
            inner = out[1:n]
            acc = self.coeffs[n] - sum(map(mul, inner, reversed(inner)))
            out.append(_div(acc, 2))
        return USeries(out)

    def compose(self, inner: "USeries") -> "USeries":
        """self(inner(t)); requires inner(0) = 0 so truncations are exact."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs inner(0) = 0")
        n = min(self.order, inner.order)
        acc = USeries([self.coeffs[n]], order=n)
        for i in range(n - 1, -1, -1):
            acc = acc * inner + self.coeffs[i]
        return acc

    def revert(self) -> "USeries":
        """Compositional inverse: the g with self(g(t)) = t mod t^(order+1).

        Lagrange inversion: with phi(u) = u / self(u), the t^n coefficient of
        g is (1/n) [u^(n-1)] phi^n.  One division and order - 1 truncated
        products, so O(order^3) coefficient operations.
        """
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotRevertible("reversion needs f(0) = 0 and f'(0) != 0")
        phi = 1 / self.shift_down()
        power = phi
        g: list[Rational] = [0]
        for n in range(1, self.order + 1):
            g.append(_div(power.coeffs[n - 1], n))
            if n < self.order:
                power = power * phi
        return USeries(g)

    # -- export --------------------------------------------------------------

    def integer_coeffs(self) -> list[int]:
        """Coefficients as plain ints; a fractional one is a hard error."""
        return integer_row(self.coeffs, lambda n: f"coefficient of t^{n}")

    def text(self) -> str:
        """Canonical rendering: every term, `c0 + c1*t + c2*t^2 + ...`."""
        parts = []
        for n, c in enumerate(self.coeffs):
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{n}")
        return " + ".join(parts)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"USeries([{shown}{tail}], order={self.order})"


def _eval_poly(table: Sequence[USeries], at: USeries) -> USeries:
    """The sum of table[i] * at^i over the rows that are not zero, to the
    order of `at`.

    Each power is taken by squaring in `__pow__`, so a polynomial with r
    nonzero rows up to degree d costs O(r log d) products at that order; a
    row longer than `at` is cut to its order by the product.
    """
    return sum(
        (row * at**i for i, row in enumerate(table) if any(row.coeffs)),
        USeries([0], order=at.order),
    )


def solve_polynomial(
    poly: Sequence[Sequence[Rational]], a0: Rational, order: int
) -> USeries:
    """Solve P(A(t), t) = 0 for the series branch with A(0) = a0.

    `poly[i]` lists the t-coefficients of the A^i term.  Requires a simple
    root, P(a0, 0) = 0 with dP/dA(a0, 0) != 0; raises SingularRoot otherwise.
    Newton iteration from the constant a0 with precision doubling (Brent and
    Kung, J. ACM 1978): one step from an A correct through t^m makes it
    correct through t^(2m+1), so each round lifts A from order m to order
    min(2m + 1, order) and evaluates P and dP/dA only to that order.  With
    quadratic products, all rounds before the last cost about a third of
    it; only the last round and the final residual check, which raises
    SingularRoot if P(A) is not zero, evaluate at full order.
    """
    if not poly:
        raise ValueError("empty polynomial")
    coeffs = [USeries(p, order=order) for p in poly]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    a = USeries([a0], order=0)
    if _eval_poly(coeffs, a).coeffs[0] != 0 or _eval_poly(deriv, a).coeffs[0] == 0:
        raise SingularRoot("need P(a0, 0) = 0 with dP/dA(a0, 0) != 0")
    while a.order < order:
        at = USeries(a.coeffs, order=min(2 * a.order + 1, order))
        a = at - _eval_poly(coeffs, at) / _eval_poly(deriv, at)
    if any(_eval_poly(coeffs, a).coeffs):
        raise SingularRoot("Newton iteration did not converge to a root")
    return a


@dataclass(frozen=True, init=False, repr=False)
class BSeries:
    """A bivariate power series truncated to the square grid 0..order.

    `grid[n][k]` is the coefficient of x^n y^k.  Multiplication and division
    are exact on the grid: truncation to the grid is a quotient-ring map, so
    dropping out-of-grid terms never corrupts the retained ones.
    """

    grid: tuple[tuple[Rational, ...], ...]

    def __init__(self, grid: Sequence[Sequence[Rational]], order: int | None = None):
        rows = [[_frac(c) for c in row] for row in grid]
        if order is None:
            if not rows:
                raise ValueError("an empty grid needs an explicit order")
            order = len(rows) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        del rows[order + 1 :]
        norm = []
        for row in rows:
            del row[order + 1 :]
            row.extend([0] * (order + 1 - len(row)))
            norm.append(tuple(row))
        while len(norm) < order + 1:
            norm.append((0,) * (order + 1))
        object.__setattr__(self, "grid", tuple(norm))

    @classmethod
    def from_terms(
        cls, terms: Mapping[tuple[int, int], Rational], order: int
    ) -> "BSeries":
        """Build from {(x_power, y_power): coefficient}; off-grid terms drop."""
        grid = [[0] * (order + 1) for _ in range(order + 1)]
        for (n, k), c in terms.items():
            if 0 <= n <= order and 0 <= k <= order:
                grid[n][k] = _frac(c)
        return cls(grid, order)

    @property
    def order(self) -> int:
        return len(self.grid) - 1

    def entry(self, n: int, k: int) -> Rational:
        """Coefficient of x^n y^k; zero off the grid."""
        if 0 <= n <= self.order and 0 <= k <= self.order:
            return self.grid[n][k]
        return 0

    def __add__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return BSeries(
            [
                [self.grid[i][j] + other.grid[i][j] for j in range(n + 1)]
                for i in range(n + 1)
            ]
        )

    def __mul__(self, other):
        """The product on the common grid 0..n, n the smaller order.  Each
        nonzero left cell meets only the right operand's t nonzero terms,
        collected once, so the product costs O(nnz(self) * t), not O(n^4)."""
        if not isinstance(other, BSeries):
            return NotImplemented
        n = min(self.order, other.order)
        terms = [(p, r, b) for p in range(n + 1)
                 for r, b in enumerate(other.grid[p][: n + 1]) if b]
        out = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j, c in enumerate(self.grid[i][: n + 1]):
                if not c:
                    continue
                for p, r, b in terms:
                    if i + p > n:
                        break
                    if j + r <= n:
                        out[i + p][j + r] += c * b
        return BSeries(out)

    def __truediv__(self, other):
        """The quotient on the common grid 0..n, n the smaller order.

        Cell (i, j) is (a[i][j] - sum of b[p][r] * q[i-p][j-r]) / b[0][0],
        the sum running over the divisor's t nonzero terms other than the
        constant one, collected once.  Earlier rows are subtracted a whole
        row per term, then the row's own terms (p = 0) are solved left to
        right, so the division costs O(n^2 * t), not O(n^4).
        """
        if not isinstance(other, BSeries):
            return NotImplemented
        b00 = other.grid[0][0]
        if b00 == 0:
            raise ZeroConstantTerm("division needs a unit constant term")
        n = min(self.order, other.order)
        same_row = [(r, b) for r, b in enumerate(other.grid[0][1 : n + 1], 1) if b]
        earlier = [
            (p, r, b)
            for p in range(1, n + 1)
            for r, b in enumerate(other.grid[p][: n + 1])
            if b
        ]
        q: list[list[Rational]] = []
        for i in range(n + 1):
            acc = list(self.grid[i][: n + 1])
            for p, r, b in earlier:
                if p > i:
                    break
                # zip stops at acc's end: q[i-p][j-r] for j = r..n
                acc[r:] = [x - b * y for x, y in zip(acc[r:], q[i - p])]
            row: list[Rational] = []
            for j, x in enumerate(acc):
                for r, b in same_row:
                    if r > j:
                        break
                    x -= b * row[j - r]
                row.append(_div(x, b00))
            q.append(row)
        return BSeries(q)

    def integer_rows(self) -> list[list[int]]:
        """The grid as plain ints; a fractional entry is a hard error."""
        return [integer_row(row, lambda k: f"entry ({n}, {k})")
                for n, row in enumerate(self.grid)]

    def __repr__(self):
        return f"BSeries(order={self.order})"
