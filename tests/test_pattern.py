import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordavoid.pattern import (
    ENUMERATION_LIMIT,
    Pattern,
    TooLarge,
    as_pattern,
    autocorrelation,
    avoider_table,
    avoiding_words,
    correlation_polynomial,
    correlation_terms,
    count_by_automaton,
    count_by_enumeration,
    family_pattern,
)
from wordavoid.series import BSeries


class TestPattern:
    def test_basic(self):
        p = Pattern("11100")
        assert len(p) == 5
        assert p.ones == 3
        assert p.zeros == 2
        assert str(p) == "11100"
        assert p.reverse() == Pattern("00111")

    def test_validation(self):
        with pytest.raises(ValueError):
            Pattern("")
        with pytest.raises(ValueError):
            Pattern("01a")
        with pytest.raises(ValueError):
            count_by_automaton("110", -1, 2)
        with pytest.raises(ValueError):
            count_by_enumeration("110", 2, -1)

    @pytest.mark.parametrize("bits", [["1", "1", "0"], ("1", "0"), b"110", 110, None, ""],
                             ids=["list", "tuple", "bytes", "int", "none", "empty"])
    def test_rejects_bits_that_are_not_a_string(self, bits):
        with pytest.raises(ValueError, match="pattern must be a nonempty string over 0/1"):
            Pattern(bits)
        with pytest.raises(ValueError, match="pattern must be a nonempty string over 0/1"):
            count_by_automaton(bits, 2, 2)

    def test_as_pattern(self):
        p = Pattern("10")
        assert as_pattern(p) is p
        assert as_pattern("10") == p

    def test_family_pattern(self):
        assert [family_pattern(j) for j in (1, 2, 3)] == ["110", "11100", "1111000"]
        for j in (0, -1):
            with pytest.raises(ValueError, match="j must be >= 1"):
                family_pattern(j)


class TestAutocorrelation:
    def test_examples(self):
        assert autocorrelation("101010") == (1, 0, 1, 0, 1, 0)
        assert autocorrelation("11100") == (1, 0, 0, 0, 0)
        assert autocorrelation("1") == (1,)
        assert autocorrelation("11") == (1, 1)
        assert autocorrelation("1111000") == (1, 0, 0, 0, 0, 0, 0)

    def test_leading_entry_always_one(self):
        for bits in ("0", "10", "0110", "10011"):
            assert autocorrelation(bits)[0] == 1

    def test_terms(self):
        # one term per unit autocorrelation entry, keyed by the shifted
        # tail's letter counts
        assert correlation_terms("101010") == [(0, 0), (1, 1), (2, 2)]
        assert correlation_terms("11100") == [(0, 0)]
        assert correlation_terms("11") == [(0, 0), (1, 0)]

    def test_polynomial(self):
        c = correlation_polynomial("101010", 4)
        assert c.entry(0, 0) == 1
        assert c.entry(1, 1) == 1
        assert c.entry(2, 2) == 1
        assert c.entry(1, 0) == 0
        # a grid too small for every term truncates like any BSeries
        small = BSeries.from_terms({(0, 0): 1, (1, 1): 1}, 1)
        assert correlation_polynomial("101010", 1) == small


class TestAvoiderTable:
    def test_against_frozen_corner(self):
        f = avoider_table("11100", 7)
        assert f.entry(3, 3) == 18
        assert f.entry(4, 4) == 58
        assert f.entry(3, 4) == 32
        assert f.entry(4, 3) == 29
        assert f.entry(7, 7) == 2232
        assert [f.entry(1, k) for k in range(8)] == list(range(1, 9))

    def test_unfittable_pattern_counts_everything(self):
        f = avoider_table("111111111", 4)
        for n in range(5):
            for k in range(5):
                assert f.entry(n, k) == math.comb(n + k, k)

    def test_reversal_symmetry(self):
        for bits in ("110", "11100", "10110"):
            p = Pattern(bits)
            assert avoider_table(p, 6) == avoider_table(p.reverse(), 6)


class TestEnumeration:
    def test_small_counts(self):
        assert count_by_enumeration("11100", 2, 2) == 6
        assert count_by_enumeration("110", 2, 1) == 2
        assert count_by_enumeration("1", 0, 4) == 1
        assert count_by_enumeration("1", 3, 0) == 0

    def test_words(self):
        assert avoiding_words("110", 2, 1) == {"011", "101"}
        assert avoiding_words("1", 0, 3) == {"000"}
        assert avoiding_words("110", 2, 0) == {"11"}

    def test_words_match_counts(self):
        for n in range(5):
            for k in range(5):
                assert len(avoiding_words("110", n, k)) == count_by_enumeration(
                    "110", n, k
                )

    def test_size_guard(self):
        half = ENUMERATION_LIMIT // 2 + 1
        with pytest.raises(TooLarge):
            count_by_enumeration("110", half, half)
        with pytest.raises(TooLarge):
            avoiding_words("110", half, half)


class TestAutomaton:
    def test_single_letter(self):
        for n in range(1, 6):
            assert count_by_automaton("1", n, 2) == 0
        assert count_by_automaton("1", 0, 5) == 1

    def test_matches_table_corner(self):
        assert count_by_automaton("11100", 7, 7) == 2232
        # the last row and column of the table at the CLI's order cap of 40
        for bits in ("11100", "101010"):
            table = avoider_table(bits, 40)
            for i in range(41):
                assert count_by_automaton(bits, 40, i) == table.entry(40, i)
                assert count_by_automaton(bits, i, 40) == table.entry(i, 40)

    def test_matches_enumeration_grid(self):
        # every pattern of length 1-6, so every border shape up to six letters
        every = ("".join(t) for h in range(1, 7) for t in itertools.product("01", repeat=h))
        for bits in every:
            for n in range(6):
                for k in range(6):
                    assert count_by_automaton(bits, n, k) == count_by_enumeration(
                        bits, n, k
                    ), (bits, n, k)


patterns = st.text(alphabet="01", min_size=1, max_size=7)


class TestAgreementProperties:
    @given(patterns, st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=60)
    def test_three_way_agreement(self, bits, n, k):
        expected = count_by_enumeration(bits, n, k)
        assert count_by_automaton(bits, n, k) == expected
        order = max(n, k, Pattern(bits).ones, Pattern(bits).zeros)
        assert avoider_table(bits, order).entry(n, k) == expected

    @given(patterns)
    @settings(max_examples=30)
    def test_reversal_preserves_table(self, bits):
        p = Pattern(bits)
        assert avoider_table(p, 4) == avoider_table(p.reverse(), 4)
