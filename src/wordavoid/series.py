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
    # a module invariant, not a best effort.
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


class USeries:
    """A univariate power series truncated at t^order.

    Immutable.  `coeffs` always holds exactly order + 1 coefficients in
    canonical form (see `_frac`); short coefficient lists are zero-padded on
    construction.
    """

    __slots__ = ("coeffs",)

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
        self.coeffs: tuple[Rational, ...] = tuple(cs)

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
        return USeries(self.coeffs[: order + 1])

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
        g = inner.truncate(n)
        acc = USeries([self.coeffs[n]], order=n)
        for i in range(n - 1, -1, -1):
            acc = acc * g + self.coeffs[i]
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

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"USeries([{shown}{tail}], order={self.order})"


def _newton_cap(order: int) -> int:
    # ceil(log2(order + 1)) + 2; Newton doubles correct coefficients per step.
    return order.bit_length() + 2


def _times_sparse(row: USeries, series: USeries) -> USeries:
    """row * series, one shifted, scaled copy of `series` per nonzero
    coefficient of `row`."""
    n = min(row.order, series.order)
    out = [0] * (n + 1)
    for k, c in enumerate(row.coeffs[: n + 1]):
        if c:
            for i, x in enumerate(series.coeffs[: n + 1 - k], k):
                out[i] += c * x
    return USeries(out)


def _eval_poly(table: Sequence[USeries], at: USeries) -> USeries:
    """The sum of table[i] * at^i over the rows that are not zero.

    Each needed power steps from the previous one by a power computed by
    squaring, so a polynomial with r nonzero rows up to degree m costs
    O(r log m) products instead of Horner's m; a row multiplies its power
    term by term, which is cheap for the sparse rows of `family_a`.
    """
    acc = power = None
    done = 0
    for i, row in enumerate(table):
        if not any(row.coeffs):
            continue
        if i:
            step = at ** (i - done)
            power = step if power is None else power * step
            done = i
            row = _times_sparse(row, power)
        acc = row if acc is None else acc + row
    return USeries([0], order=at.order) if acc is None else acc


def solve_polynomial(
    poly: Sequence[Sequence[Rational]], a0: Rational, order: int
) -> USeries:
    """Solve P(A(t), t) = 0 for the series branch with A(0) = a0.

    `poly[i]` lists the t-coefficients of the A^i term.  Requires a simple
    root, P(a0, 0) = 0 with dP/dA(a0, 0) != 0; raises SingularRoot otherwise.
    Newton iteration from the constant a0, capped at ceil(log2(order+1)) + 2
    rounds, with the residual re-checked at the end.
    """
    if not poly:
        raise ValueError("empty polynomial")
    a0 = _frac(a0)
    coeffs = [USeries(p, order=order) for p in poly]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    value0 = sum(c.coeffs[0] * a0**i for i, c in enumerate(coeffs))
    slope0 = sum(c.coeffs[0] * i * a0 ** (i - 1) for i, c in enumerate(coeffs) if i)
    if value0 != 0 or slope0 == 0:
        raise SingularRoot("need P(a0, 0) = 0 with dP/dA(a0, 0) != 0")
    a = USeries([a0], order=order)
    zero = USeries([0], order=order)
    for _ in range(_newton_cap(order)):
        residual = _eval_poly(coeffs, a)
        if residual == zero:
            break
        a = a - residual / _eval_poly(deriv, a)
    if _eval_poly(coeffs, a) != zero:
        raise SingularRoot("Newton iteration did not converge to a root")
    return a


class BSeries:
    """A bivariate power series truncated to the square grid 0..order.

    `grid[n][k]` is the coefficient of x^n y^k.  Multiplication and division
    are exact on the grid: truncation to the grid is a quotient-ring map, so
    dropping out-of-grid terms never corrupts the retained ones.
    """

    __slots__ = ("grid",)

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
        self.grid: tuple[tuple[Rational, ...], ...] = tuple(norm)

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
        if not isinstance(other, BSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                c = self.grid[i][j]
                if not c:
                    continue
                for p in range(n + 1 - i):
                    brow = other.grid[p]
                    orow = out[i + p]
                    for q in range(n + 1 - j):
                        b = brow[q]
                        if b:
                            orow[j + q] += c * b
        return BSeries(out)

    def __truediv__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        if other.grid[0][0] == 0:
            raise ZeroConstantTerm("division needs a unit constant term")
        n = min(self.order, other.order)
        b00 = other.grid[0][0]
        q = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                acc = self.grid[i][j]
                for p in range(i + 1):
                    brow = other.grid[p]
                    qrow = q[i - p]
                    for r in range(1 if p == 0 else 0, j + 1):
                        b = brow[r]
                        if b:
                            acc -= b * qrow[j - r]
                q[i][j] = _div(acc, b00)
        return BSeries(q)

    def integer_rows(self) -> list[list[int]]:
        """The grid as plain ints; a fractional entry is a hard error."""
        return [integer_row(row, lambda k: f"entry ({n}, {k})")
                for n, row in enumerate(self.grid)]

    def __eq__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        return self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __repr__(self):
        return f"BSeries(order={self.order})"
