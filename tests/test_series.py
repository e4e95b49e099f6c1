import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordavoid import series
from wordavoid.pattern import avoider_table
from wordavoid.riordan import family_a, family_a_polynomial
from wordavoid.series import (
    BadConstantTerm,
    BSeries,
    NonIntegerCoefficient,
    NotRevertible,
    SingularRoot,
    USeries,
    ZeroConstantTerm,
    solve_polynomial,
)


def u(*coeffs, order=None):
    return USeries(coeffs, order=order)


class TestConstruction:
    def test_padding_and_order(self):
        s = u(1, 2, order=4)
        assert s.order == 4
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_truncates_long_input(self):
        assert USeries([1, 2, 3], order=1).coeffs == (1, 2)

    def test_empty_needs_order(self):
        with pytest.raises(ValueError):
            USeries([])
        assert USeries([], order=2).coeffs == (0, 0, 0)

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            USeries([1], order=-1)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            USeries([1.5])
        with pytest.raises(TypeError):
            USeries([True])

    def test_coeff_beyond_order_is_zero(self):
        assert u(1, 2).coeff(7) == 0
        with pytest.raises(ValueError):
            u(1).coeff(-1)


class TestRingOps:
    def test_difference_of_squares(self):
        one_plus = u(1, 1, order=3)
        one_minus = u(1, -1, order=3)
        assert one_plus * one_minus == u(1, 0, -1, 0)

    def test_pow_zero_is_one(self):
        assert u(1, 1) ** 0 == u(1, 0)

    def test_pow_matches_repeated_mul(self):
        s = u(1, 2, 3, order=6)
        assert s**3 == s * s * s

    def test_scalar_ops(self):
        s = u(1, 2, order=2)
        assert 2 * s == u(2, 4, order=2)
        assert s + 1 == u(2, 2, order=2)
        assert 1 - s == u(0, -2, order=2)
        assert s - 1 == u(0, 2, order=2)
        assert s - Fraction(1, 2) == USeries([Fraction(1, 2), 2], order=2)
        assert s / 2 == USeries([Fraction(1, 2), 1], order=2)

    @pytest.mark.parametrize("other", [1.5, "t", BSeries([[1]])],
                             ids=["float", "str", "bseries"])
    def test_foreign_operands_refused(self, other):
        s = u(1, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(s, other)
        with pytest.raises(TypeError):
            other / s

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="non-negative integer powers"):
            u(1, 1) ** -1

    def test_mixed_orders_truncate(self):
        assert (u(1, 1, order=5) * u(1, order=2)).order == 2


class TestDivision:
    def test_geometric(self):
        assert 1 / u(1, -1, order=5) == u(1, 1, 1, 1, 1, 1)

    def test_powers_of_two(self):
        # oracle: explicit powers of 2
        got = 1 / u(1, -2, order=10)
        assert got == USeries([2**n for n in range(11)])

    def test_identity(self):
        s = u(1, -1, order=4)
        assert s / s == u(1, order=4)

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            u(1, 1) / u(0, 1)


def binomial_sqrt_coeffs(order):
    # generalized binomial expansion of (1 - 4t)^(1/2)
    out = []
    for n in range(order + 1):
        c = Fraction(1)
        for i in range(n):
            c *= Fraction(1, 2) - i
        c /= math.factorial(n)
        out.append(c * (-4) ** n)
    return out


class TestSqrt:
    def test_sqrt_one(self):
        assert u(1, order=4).sqrt() == u(1, order=4)

    def test_perfect_square(self):
        s = u(1, 1, order=5)
        assert (s * s).sqrt() == s

    def test_against_binomial_expansion(self):
        got = u(1, -4, order=8).sqrt()
        assert got == USeries(binomial_sqrt_coeffs(8))
        assert got.coeffs[:5] == (1, -2, -2, -4, -10)

    def test_needs_unit_constant(self):
        with pytest.raises(BadConstantTerm):
            u(4, 1).sqrt()


class TestSolvePolynomial:
    def test_catalan_equation(self):
        # A = 1 + t A^2; oracle: the Catalan convolution recurrence
        a = solve_polynomial([[-1], [1], [0, -1]], 1, 10)
        cats = [1]
        for _ in range(10):
            cats.append(sum(cats[i] * cats[-1 - i] for i in range(len(cats))))
        assert a == USeries(cats[:11])

    def test_constant_equation(self):
        assert solve_polynomial([[-1], [1]], 1, 5) == u(1, order=5)

    def test_empty_polynomial_refused(self):
        with pytest.raises(ValueError, match="empty polynomial"):
            solve_polynomial([], 0, 3)

    def test_double_root_rejected(self):
        with pytest.raises(SingularRoot):
            solve_polynomial([[1], [-2], [1]], 1, 5)

    def test_wrong_root_rejected(self):
        with pytest.raises(SingularRoot):
            solve_polynomial([[-1], [1]], 2, 5)

    def test_a_wrong_newton_step_is_caught(self, monkeypatch):
        # the final residual check is the guard behind every Newton step
        divide = USeries.__truediv__
        monkeypatch.setattr(USeries, "__truediv__", lambda a, b: 2 * divide(a, b))
        with pytest.raises(SingularRoot, match="did not converge to a root"):
            solve_polynomial(family_a_polynomial(2), 1, 10)

    def test_only_the_last_round_runs_at_full_order(self, monkeypatch):
        # precision doubling: P and dP/dA of the last Newton round and the
        # final residual check are the only evaluations at full order
        orders = []
        evaluate = series._eval_poly

        def recorded(table, at):
            orders.append(at.order)
            return evaluate(table, at)

        monkeypatch.setattr(series, "_eval_poly", recorded)
        for j, n in ((2, 40), (3, 100), (99, 100)):
            orders.clear()
            family_a(j, n)
            assert orders.count(n) == 3


class TestReversion:
    def test_identity(self):
        t = u(0, 1, order=6)
        assert t.revert() == t

    def test_moebius_pair(self):
        h = u(0, 1) * (1 / u(1, -1, order=6))
        g = h.revert()
        assert g == u(0, 1) * (1 / u(1, 1, order=6))

    def test_composition_closes(self):
        h = u(0, 1, -1, order=9)
        g = h.revert()
        assert h.compose(g) == u(0, 1, order=9)
        # t - t^2 reverts to the shifted Catalan series, kept in int
        assert g.coeffs == (0, 1, 1, 2, 5, 14, 42, 132, 429, 1430)
        assert all(type(c) is int for c in g.coeffs)

    def test_not_revertible(self):
        with pytest.raises(NotRevertible):
            u(1, 1).revert()
        with pytest.raises(NotRevertible):
            u(0, 0, 1).revert()


class TestStructure:
    def test_shift_round_trip(self):
        s = u(1, 2, 3)
        assert s.shift_up().shift_down() == s

    def test_shift_down_needs_zero_head(self):
        with pytest.raises(ValueError):
            u(1, 2).shift_down()

    def test_shift_down_needs_a_t_term(self):
        with pytest.raises(ValueError, match="order too small"):
            USeries([0]).shift_down()

    def test_truncate_only_shrinks(self):
        with pytest.raises(ValueError):
            u(1, 2).truncate(5)

    @pytest.mark.parametrize("order", [-1, -2])
    def test_truncate_to_negative_order(self, order):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            u(1, 2, 3).truncate(order)

    def test_compose_needs_zero_inner(self):
        with pytest.raises(ValueError):
            u(1, 1).compose(u(1, 1))

    def test_integer_coeffs(self):
        assert u(1, -2, 3).integer_coeffs() == [1, -2, 3]
        with pytest.raises(NonIntegerCoefficient):
            USeries([Fraction(1, 2)]).integer_coeffs()

    def test_text(self):
        assert u(1, 0, -2).text() == "1 + 0*t + -2*t^2"

    def test_repr_shows_eight_coefficients(self):
        assert repr(u(1, Fraction(1, 2), -3)) == "USeries([1, 1/2, -3], order=2)"
        assert repr(USeries(range(8))) == "USeries([0, 1, 2, 3, 4, 5, 6, 7], order=7)"
        assert repr(USeries(range(9))) == (
            "USeries([0, 1, 2, 3, 4, 5, 6, 7, ...], order=8)")


class TestCanonicalForm:
    def test_plain_int_is_returned_itself(self):
        big = 10**40
        assert series._frac(big) is big

    def test_whole_fraction_becomes_int(self):
        value = series._frac(Fraction(6, 3))
        assert type(value) is int and value == 2
        assert series._frac(Fraction(1, 2)) == Fraction(1, 2)

    def test_int_subclass_accepted(self):
        class Count(int):
            pass

        assert series._frac(Count(3)) == 3

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.5, "1"])
    def test_inexact_values_refused(self, value):
        with pytest.raises(TypeError, match="expected an exact rational"):
            series._frac(value)


small_coeffs = st.integers(min_value=-3, max_value=3)


def useries(min_order=0, max_order=7, unit=False):
    def build(coeffs):
        if unit:
            coeffs = [1] + coeffs[1:]
        return USeries(coeffs)

    return st.lists(small_coeffs, min_size=min_order + 1, max_size=max_order + 1).map(
        build
    )


@st.composite
def simple_roots(draw):
    """An integer polynomial of degree 1 to 4 in A, rows up to t^3, and a0
    with P(a0, 0) = 0 and dP/dA(a0, 0) != 0."""
    rows = [draw(st.lists(small_coeffs, min_size=1, max_size=4))
            for _ in range(draw(st.integers(min_value=1, max_value=4)) + 1)]
    a0 = draw(st.integers(min_value=-2, max_value=2))
    rows[0][0] = -sum(row[0] * a0**i for i, row in enumerate(rows) if i)
    assume(sum(i * row[0] * a0 ** (i - 1) for i, row in enumerate(rows) if i))
    return rows, a0


def undetermined_coefficients(poly, a0, order):
    """The root by undetermined coefficients: with A_n the root through
    t^(n-1), a_n = -[t^n] P(A_n) / dP/dA(a0, 0).  Plain lists, no series."""
    slope0 = sum(i * row[0] * a0 ** (i - 1) for i, row in enumerate(poly) if i)
    a = [a0]
    for n in range(1, order + 1):
        known = a + [0]
        power, value = [1] + [0] * n, 0
        for i, row in enumerate(poly):
            if i:
                power = [sum(power[k] * known[m - k] for k in range(m + 1))
                         for m in range(n + 1)]
            value += sum(c * power[n - k] for k, c in enumerate(row) if k <= n)
        a.append(Fraction(-value, slope0))
    return a


class TestProperties:
    @given(useries(), useries(unit=True))
    def test_div_mul_round_trip(self, a, b):
        n = min(a.order, b.order)
        assert (a / b) * b == a.truncate(n)

    @given(useries(unit=True))
    def test_sqrt_squares_back(self, a):
        s = a.sqrt()
        assert s * s == a

    @given(useries(), useries(), st.integers(min_value=0, max_value=4))
    def test_truncation_stability(self, a, b, m):
        n = min(a.order, b.order)
        if m > n:
            return
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)

    @given(useries(min_order=1), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_revert_closes(self, h, slope):
        # every draw revertible, f'(0) = +-2, +-3 giving rational coefficients
        h = USeries((0, slope) + h.coeffs[2:])
        g = h.revert()
        assert h.compose(g) == USeries([0, 1], order=h.order)
        assert g.revert() == h

    @given(simple_roots(), st.integers(min_value=0, max_value=12))
    @example(([[0, 1], [2], [0, 0, 1]], 0), 12)  # slope 2: fractional terms
    def test_solve_matches_undetermined_coefficients(self, problem, order):
        poly, a0 = problem
        got = solve_polynomial(poly, a0, order).coeffs
        assert list(got) == undetermined_coefficients(poly, a0, order)
        assert all(type(c) is int or c.denominator != 1 for c in got)


class TestBSeries:
    def test_pascal_grid(self):
        # oracle: binomial coefficients
        f = BSeries.from_terms({(0, 0): 1}, 6) / BSeries.from_terms(
            {(0, 0): 1, (1, 0): -1, (0, 1): -1}, 6
        )
        for n in range(7):
            for k in range(7):
                assert f.entry(n, k) == math.comb(n + k, k)

    def test_mul_identity(self):
        a = BSeries([[1, 2], [3, 4]])
        one = BSeries.from_terms({(0, 0): 1}, 1)
        assert a * one == a

    def test_avoider_denominator_corner(self):
        denom = BSeries.from_terms(
            {(0, 0): 1, (1, 0): -1, (0, 1): -1, (3, 2): 1}, 7
        )
        f = BSeries.from_terms({(0, 0): 1}, 7) / denom
        assert f.entry(7, 7) == 2232
        assert f.entry(4, 4) == 58

    def test_div_needs_unit_constant(self):
        with pytest.raises(ZeroConstantTerm):
            BSeries([[1]]) / BSeries.from_terms({(1, 0): 1}, 1)

    def test_empty_needs_order_and_short_grids_pad(self):
        with pytest.raises(ValueError, match="explicit order"):
            BSeries([])
        assert BSeries([[1]], order=2).grid == ((1, 0, 0), (0, 0, 0), (0, 0, 0))

    @pytest.mark.parametrize("other", [1.5, "t", USeries([1, 2])],
                             ids=["float", "str", "useries"])
    def test_foreign_operands_refused(self, other):
        g = BSeries([[1, 1], [1, 0]])
        for op in (operator.add, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(g, other)

    def test_repr(self):
        assert repr(BSeries([[1, 1], [1, 0]])) == "BSeries(order=1)"

    def test_entry_off_grid_is_zero(self):
        assert BSeries([[1]]).entry(5, 5) == 0

    def test_integer_rows(self):
        assert BSeries([[1, 2], [3, 4]]).integer_rows() == [[1, 2], [3, 4]]
        with pytest.raises(NonIntegerCoefficient):
            BSeries([[Fraction(1, 2)]]).integer_rows()

    def test_from_terms_drops_off_grid(self):
        b = BSeries.from_terms({(0, 0): 1, (9, 9): 5}, 2)
        assert b.entry(0, 0) == 1

    @given(st.data())
    @settings(max_examples=80)
    def test_div_mul_round_trip(self, data):
        na, nb = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        a = BSeries(data.draw(grids(na)))
        # a sparse divisor: a few nonzero terms anywhere on its grid
        cells = st.tuples(st.integers(0, nb), st.integers(0, nb))
        terms = data.draw(st.dictionaries(cells, small_coeffs, max_size=nb + 2))
        b00 = terms[0, 0] = data.draw(st.sampled_from([1, -1, 2, -2, 3]))
        b = BSeries.from_terms(terms, nb)
        q = a / b
        n = min(na, nb)
        assert q.order == n
        assert q * b == BSeries(a.grid, n)
        # canonical entries, and a unit constant term keeps the quotient in int
        entries = [c for row in q.grid for c in row]
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                   for c in entries)
        if b00 in (1, -1):
            assert all(type(c) is int for c in entries)

    def test_div_by_terms_on_last_row_and_column(self):
        b = BSeries.from_terms(
            {(0, 0): 1, (5, 0): -1, (0, 5): 2, (5, 5): 1, (5, 3): 1, (2, 5): -3}, 5
        )
        q = BSeries.from_terms({(0, 0): 1}, 7) / b
        assert q == BSeries.from_terms(
            {(0, 0): 1, (5, 0): 1, (0, 5): -2, (5, 3): -1, (2, 5): 3, (5, 5): -5}, 5
        )
        assert q * b == BSeries.from_terms({(0, 0): 1}, 5)

    def test_div_multiplies_only_by_nonzero_divisor_terms(self):
        # a work count, not a timing: an order-30 division by a divisor with
        # t = 3 terms besides the constant makes at most t * 31^2 products
        # and tests each divisor entry once, where the dense loop would
        # revisit the whole divisor for every quotient cell
        class Counted(int):
            products = tests = 0

            def __mul__(self, other):
                Counted.products += 1
                return int(self) * other

            __rmul__ = __mul__

            def __bool__(self):
                Counted.tests += 1
                return int(self) != 0

        n = 30
        terms = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (3, 2): 1}
        b = BSeries([[Counted(terms.get((p, r), 0)) for r in range(n + 1)]
                     for p in range(n + 1)])
        q = BSeries.from_terms({(0, 0): 1}, n) / b
        assert q.entry(7, 7) == 2232  # the avoiders of 11100, as pinned above
        assert 0 < Counted.products <= 3 * (n + 1) ** 2
        assert Counted.tests <= (n + 1) ** 2

    def test_mul_multiplies_only_by_nonzero_right_terms(self):
        # a work count, not a timing: a dense table times a divisor with 4
        # nonzero terms tests each divisor entry once and makes at most 4
        # products per nonzero table cell, where the dense loop would scan
        # the whole divisor for every table cell
        class Counted(int):
            products = tests = 0

            def __mul__(self, other):
                Counted.products += 1
                return int(self) * other

            __rmul__ = __mul__

            def __bool__(self):
                Counted.tests += 1
                return int(self) != 0

        n = 30
        table = avoider_table("1010110", n)
        terms = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (3, 2): 1}
        b = BSeries([[Counted(terms.get((p, r), 0)) for r in range(n + 1)]
                     for p in range(n + 1)])
        product = table * b
        nonzero = sum(1 for row in table.grid for c in row if c)
        assert 0 < Counted.products <= 4 * nonzero
        assert Counted.tests <= (n + 1) ** 2
        assert product == BSeries.from_terms(terms, n) * table


def grids(order):
    """Square grids of small integers with the given order."""
    row = st.lists(small_coeffs, min_size=order + 1, max_size=order + 1)
    return st.lists(row, min_size=order + 1, max_size=order + 1)
