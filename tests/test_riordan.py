from fractions import Fraction
from pathlib import Path

import pytest

from wordavoid.cli import render_matrix
from wordavoid.pattern import avoider_table
from wordavoid.riordan import (
    NotProper,
    RiordanTriangle,
    a_sequence_from_h,
    d_from_z,
    family_a,
    family_a_polynomial,
    family_d,
    family_h,
    family_triangle,
    family_z,
    from_dh,
    triangles_from_table,
    verify_a_matrix,
    verify_a_sequence,
    verify_column_doubling,
    verify_recurrence,
    z_sequence,
)
from wordavoid.series import NonIntegerCoefficient, USeries, solve_polynomial

GOLDEN = Path(__file__).parent / "golden"


def golden_rows(name):
    text = (GOLDEN / name).read_text()
    return [[int(v) for v in line.split(",")] for line in text.splitlines()]


def u(*coeffs, order=None):
    return USeries(coeffs, order=order)


class TestTriangleType:
    def test_entry_and_bounds(self):
        r = RiordanTriangle([[1], [2, 1]])
        assert r.order == 1
        assert r.entry(1, 0) == 2
        assert r.entry(0, 1) == 0
        assert r.entry(5, 0) == 0
        assert r.entry(-1, 0) == 0

    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            RiordanTriangle([[1, 1]])
        with pytest.raises(ValueError):
            RiordanTriangle([])

    def test_serialization(self):
        r = RiordanTriangle([[1], [2, 1], [6, 3, 1]])
        assert render_matrix(r.rows, "csv") == "1\n2,1\n6,3,1\n"
        assert render_matrix(r.rows, "json") == '[[1],[2,1],[6,3,1]]\n'

    def test_fractional_entry_rejected(self):
        with pytest.raises(NonIntegerCoefficient, match=r"entry \(1, 0\) is 3/2"):
            RiordanTriangle([[1], [Fraction(3, 2), 1]])

    @pytest.mark.parametrize("value", [1.9, "3", True])
    def test_inexact_entry_rejected(self, value):
        with pytest.raises(TypeError):
            RiordanTriangle([[value]])

    def test_integral_fraction_becomes_int(self):
        r = RiordanTriangle([[Fraction(4, 2)]])
        assert r.rows == ((2,),)
        assert type(r.rows[0][0]) is int

    def test_equality(self):
        assert RiordanTriangle([[1]]) == RiordanTriangle([[1]])
        assert RiordanTriangle([[1]]) != RiordanTriangle([[2]])

    def test_repr(self):
        assert repr(RiordanTriangle([[1], [2, 1]])) == "RiordanTriangle(order=1)"


class TestFromDH:
    def test_all_ones(self):
        r = from_dh(1 / u(1, -1, order=4), u(0, 1, order=4))
        assert r.rows == tuple((1,) * (n + 1) for n in range(5))

    def test_identity(self):
        r = from_dh(u(1, order=3), u(0, 1, order=3))
        assert r.entry(2, 2) == 1
        assert r.entry(2, 1) == 0
        # the order is the smaller of the two series' orders
        assert from_dh(u(1, order=5), u(0, 1, order=3)) == r
        assert from_dh(u(1), u(0)).rows == ((1,),)

    def test_pascal(self):
        geo = 1 / u(1, -1, order=5)
        r = from_dh(geo, u(0, 1, order=5) * geo)
        assert r.rows[4] == (1, 4, 6, 4, 1)

    def test_properness_enforced(self):
        t = u(0, 1, order=3)
        with pytest.raises(NotProper):
            from_dh(u(0, 1, order=3), t)
        with pytest.raises(NotProper):
            from_dh(u(1, order=3), u(1, 1, order=3))
        with pytest.raises(NotProper):
            from_dh(u(1, order=3), u(0, 0, 1))
        # an order-0 h carries no t term to check, but d(0) and h(0) still count
        with pytest.raises(NotProper):
            from_dh(u(0), u(0))
        with pytest.raises(NotProper):
            from_dh(u(1), u(1))

    def test_order_one_h_needs_its_t_term(self):
        # h of order 1 carries a t term, so h'(0) = 0 is refused
        with pytest.raises(NotProper):
            from_dh(u(1, 1), u(0, 0))

    def test_fractional_entries_rejected(self):
        with pytest.raises(NonIntegerCoefficient):
            from_dh(1 / u(2, -1, order=3), u(0, 1, order=3))


class TestFamilyClosedForms:
    def test_j1_degenerates(self):
        assert family_h(1, 6) == u(0, 1, order=6)
        assert family_d(1, 6) == USeries([2**n for n in range(7)])

    def test_j2_diagonal_series(self):
        assert family_d(2, 7).integer_coeffs() == [1, 2, 6, 18, 58, 192, 650, 2232]

    def test_integer_series_stay_int(self):
        for j in (1, 2, 3):
            h = family_h(j, 12)
            for s in (family_d(j, 12), h, family_a(j, 12), family_z(j, 12), h.revert()):
                assert all(type(c) is int for c in s.coeffs), s

    def test_h_functional_identity(self):
        for j in (1, 2, 3):
            h = family_h(j, 10)
            lhs = h.shift_down()
            rhs = 1 - u(*([0] * j + [1]), order=9) + (h * h).shift_down()
            assert lhs == rhs

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            family_h(0, 5)
        assert family_h(2, 2) == family_h(2, 9).truncate(2)

    def test_triangle_matches_golden(self):
        assert family_triangle(2, 7).rows == tuple(
            tuple(row) for row in golden_rows("table3_11100.csv")
        )

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_row_zero_matches_the_table(self, j):
        pattern = "1" * (j + 1) + "0" * j
        lower, _ = triangles_from_table(avoider_table(pattern, 0))
        assert family_triangle(j, 0) == lower
        assert lower.rows == ((1,),)


class TestTableSplit:
    def test_both_triangles_match_goldens(self):
        lower, upper = triangles_from_table(avoider_table("11100", 7))
        assert lower.rows == tuple(tuple(r) for r in golden_rows("table3_11100.csv"))
        assert upper.rows == tuple(tuple(r) for r in golden_rows("table4_11100.csv"))

    def test_shared_leading_column(self):
        lower, upper = triangles_from_table(avoider_table("110", 6))
        for n in range(7):
            assert lower.entry(n, 0) == upper.entry(n, 0)

    def test_lower_equals_closed_form(self):
        lower, _ = triangles_from_table(avoider_table("1111000", 6))
        assert lower == family_triangle(3, 6)


class TestASequence:
    LITERAL = [1, 1, 0, 2, -1, 7, -12, 38, -99, 281]

    def test_j2_literal(self):
        assert family_a(2, 9).integer_coeffs() == self.LITERAL

    def test_polynomial_root_property(self):
        # (1-t)*A^(j+1) - A^j + t^j must vanish identically
        for j in (2, 3):
            a = family_a(j, 8)
            one_minus = u(1, -1, order=8)
            tj = u(*([0] * j + [1]), order=8)
            assert one_minus * a ** (j + 1) - a**j + tj == u(0, order=8)

    def test_polynomial_solver_agrees(self):
        for j in (1, 2, 3):
            assert family_a(j, 8) == solve_polynomial(family_a_polynomial(j), 1, 8)

    def test_j1_constant(self):
        assert family_a(1, 6) == u(1, order=6)

    def test_from_h_identity_map(self):
        assert a_sequence_from_h(u(0, 1, order=6)) == u(1, order=5)

    def test_from_h_matches_closed_form(self):
        # reconstruction from h determines one fewer coefficient
        for j in (1, 2, 3):
            for order in (10, 80):
                assert a_sequence_from_h(family_h(j, order)) == family_a(j, order - 1)

    def test_h_solves_its_own_functional_equation(self):
        for j in (2, 3):
            h = family_h(j, 9)
            a = family_a(j, 8)
            assert a.compose(h).shift_up() == h

    def test_triangle_consistency(self):
        r = family_triangle(2, 9)
        assert verify_a_sequence(r, family_a(2, 8)) == []
        wrong = u(1, 2, order=8)
        assert verify_a_sequence(r, wrong) != []

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            verify_a_sequence(family_triangle(2, 9), family_a(2, 3))

    def test_order_guard_at_its_edge(self):
        # A must be known through index order - 1, and no further is needed
        r = family_triangle(2, 6)
        assert verify_a_sequence(r, family_a(2, 5)) == []
        with pytest.raises(ValueError, match="A-sequence order too small"):
            verify_a_sequence(r, family_a(2, 4))

    def test_rational_expected_value_reported_exactly(self):
        pascal = RiordanTriangle([[1], [1, 1], [1, 2, 1]])
        half = Fraction(1, 2)
        bad = verify_a_sequence(pascal, u(half, half, order=1))
        assert bad == [(1, 1, 1, half), (2, 1, 2, 1), (2, 2, 1, half)]
        assert [type(v[3]) for v in bad] == [Fraction, int, Fraction]


class TestZSequence:
    def test_all_ones_triangle(self):
        # d = 1/(1-t), h = t: first column repeats, so Z = 1
        assert z_sequence(1 / u(1, -1, order=5), u(0, 1, order=5)) == u(1, order=4)

    def test_family_z_at_order_zero(self):
        assert family_z(1, 0) == USeries([2], order=0)

    def test_family_doubles_a(self):
        for j in (1, 2, 3):
            assert family_z(j, 8) == 2 * family_a(j, 8)

    def test_round_trip_to_d(self):
        for j in (1, 2, 3):
            assert d_from_z(1, family_z(j, 8), family_h(j, 9)) == family_d(j, 9)

    def test_leading_column_recurrence(self):
        r = family_triangle(2, 8)
        z = family_z(2, 7)
        for n in range(8):
            want = sum(z.coeff(i) * r.entry(n, i) for i in range(n + 1))
            assert r.entry(n + 1, 0) == want

    def test_requires_unit_style_d(self):
        with pytest.raises(NotProper):
            z_sequence(u(0, 1, order=4), u(0, 1, order=4))


class TestVerifiers:
    def test_recurrence_holds_for_family(self):
        for j in (1, 2, 3):
            assert verify_recurrence(family_triangle(j, 10), j) == []

    def test_recurrence_distinguishes_family_member(self):
        r = family_triangle(2, 8)
        assert verify_recurrence(r, 1) != []
        assert verify_recurrence(r, 3) != []

    def test_recurrence_rejects_foreign_triangle(self):
        geo = 1 / u(1, -1, order=5)
        pascal = from_dh(geo, u(0, 1, order=5) * geo)
        assert verify_recurrence(pascal, 1) != []

    def test_recurrence_reports_each_broken_entry(self):
        # a bumped entry breaks its own recurrence and the two that read it
        bumped = [list(row) for row in family_triangle(2, 6).rows]
        bumped[4][2] += 1
        assert verify_recurrence(RiordanTriangle(bumped), 2) == [
            (4, 1, 29, 30), (4, 2, 14, 13), (5, 3, 18, 19)]

    def test_column_doubling(self):
        assert verify_column_doubling(family_triangle(2, 8)) is True
        _, upper = triangles_from_table(avoider_table("11100", 7))
        assert verify_column_doubling(upper) is False
        geo = 1 / u(1, -1, order=5)
        pascal = from_dh(geo, u(0, 1, order=5) * geo)
        assert verify_column_doubling(pascal) is False
        with pytest.raises(ValueError, match="two rows"):
            verify_column_doubling(RiordanTriangle([[1]]))

    def test_column_doubling_reads_row_one(self):
        # row 2 doubles, row 1 does not
        assert verify_column_doubling(RiordanTriangle([[1], [3, 1], [4, 2, 1]])) is False

    def test_column_doubling_on_two_rows(self):
        # the fewest rows it takes; one row is refused (test_column_doubling)
        assert verify_column_doubling(RiordanTriangle([[2], [2, 1]])) is True

    def test_two_sided_verifier(self):
        assert verify_a_matrix(family_triangle(2, 9), 2) is True
        assert verify_a_matrix(family_triangle(2, 9), 1) is False
        for n, k in [(6, 3), (9, 9)]:
            bumped = [list(row) for row in family_triangle(2, 9).rows]
            bumped[n][k] += 1
            assert verify_a_matrix(RiordanTriangle(bumped), 2) is False
        geo = 1 / u(1, -1, order=9)
        pascal = from_dh(geo, u(0, 1, order=9) * geo)
        assert verify_a_matrix(pascal, 2) is False
