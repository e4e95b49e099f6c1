import pytest

from wordavoid import verify
from wordavoid.pattern import TooLarge
from wordavoid.rules import LevelCensus
from wordavoid.series import USeries
from wordavoid.verify import CheckResult, run_checks

EXPECTED_CHECKS = [
    "row-recurrence",
    "column-doubling",
    "two-row-recurrence",
    "a-sequence",
    "z-sequence",
    "table-agreement",
    "rule-census",
    "construction-census",
    "survivors",
    "copies-law",
    "round-trip",
]


class TestRunChecks:
    @pytest.mark.parametrize("j,levels", [(1, 6), (2, 5), (3, 4)])
    def test_battery_passes(self, j, levels):
        results = run_checks(j, levels)
        assert [r.name for r in results] == EXPECTED_CHECKS
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]

    @pytest.mark.parametrize("j", [1, 2])
    def test_battery_at_level_zero(self, j):
        results = run_checks(j, 0)
        assert [r.name for r in results] == EXPECTED_CHECKS
        assert all(r.passed for r in results)

    def test_passing_results_carry_no_detail(self):
        for r in run_checks(1, 4):
            assert r.detail == ""

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            run_checks(0, 4)
        with pytest.raises(ValueError):
            run_checks(1, 5, triangle_order=4)

    @pytest.mark.parametrize("j,levels,order", [(3, 2, 4), (1, 5, 5)])
    def test_smallest_admitted_order(self, j, levels, order):
        results = run_checks(j, levels, order)
        assert [r.name for r in results] == EXPECTED_CHECKS
        assert all(r.passed for r in results)

    def test_order_one_short_is_refused(self):
        with pytest.raises(ValueError):
            run_checks(3, 2, 3)

    def test_default_order_bounds_j(self):
        assert all(r.passed for r in run_checks(11, 1))
        with pytest.raises(ValueError):
            run_checks(12, 1)

    def test_tree_guard_fires_before_any_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series check ran before the tree guard")

        monkeypatch.setattr(verify, "family_d", refuse)
        with pytest.raises(TooLarge):
            run_checks(1, 10, 80)

    def test_d_and_h_built_once(self, monkeypatch):
        # a sqrt each for d and h; a revert and a compose for the Z-sequence,
        # a revert for the A-sequence and a compose for d rebuilt from Z
        calls = dict.fromkeys(("sqrt", "revert", "compose"), 0)

        def counted(name, real):
            def method(self, *args):
                calls[name] += 1
                return real(self, *args)
            return method

        for name in calls:
            monkeypatch.setattr(USeries, name, counted(name, getattr(USeries, name)))
        run_checks(2, 5, 12)
        assert calls == {"sqrt": 2, "revert": 2, "compose": 2}

    def test_result_type_is_frozen(self):
        r = CheckResult("x", True)
        with pytest.raises(AttributeError):
            r.passed = False


def _bump_series(s):
    return USeries([s.coeff(0) + 1, *s.coeffs[1:]], order=s.order)


def _bump_census(census):
    return LevelCensus(census.max_level,
                       {**census.counts, (0, 0): census.count(0, 0) + 1})


def _result_made(wrong):
    """A mutant that applies `wrong` to the real function's result."""
    return lambda real: lambda *args: wrong(real(*args))


# (check, the function of wordavoid.verify it reads, that function's mutant)
MUTANTS = [
    ("row-recurrence", "verify_recurrence", _result_made(lambda bad: bad + [(1, 1, 0, 0)])),
    ("column-doubling", "verify_column_doubling", _result_made(lambda ok: False)),
    ("two-row-recurrence", "verify_a_matrix", _result_made(lambda ok: False)),
    ("a-sequence", "a_sequence_from_h", _result_made(_bump_series)),
    ("a-sequence", "verify_a_sequence", _result_made(lambda bad: bad + [(1, 1, 0, 0)])),
    ("z-sequence", "d_from_z", _result_made(_bump_series)),
    ("table-agreement", "triangles_from_table", _result_made(lambda pair: pair[::-1])),
    ("rule-census", "expand", _result_made(_bump_census)),
    ("construction-census", "signed_census", _result_made(_bump_census)),
    ("survivors", "avoiding_words", _result_made(lambda words: words | {"2"})),
    ("copies-law", "occurrence_count", _result_made(lambda c: c + 1)),
    ("round-trip", "zero1_inverse", lambda real: lambda path: path),
]


class TestEveryCheckCanFail:
    def test_every_check_has_a_mutant(self):
        assert {check for check, _, _ in MUTANTS} == set(EXPECTED_CHECKS)

    @pytest.mark.parametrize("check,name,mutant", MUTANTS,
                             ids=[f"{check}-{name}" for check, name, _ in MUTANTS])
    def test_mutant_caught(self, monkeypatch, check, name, mutant):
        monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
        result = {r.name: r for r in run_checks(2, 4)}[check]
        assert not result.passed
        assert result.detail

    def test_z_not_twice_a_caught(self, monkeypatch):
        # a wrong Z from which d still rebuilds: only Z = 2A can see it
        real, seen = verify.z_sequence, {}

        def bumped(d, h):
            seen["d"] = d
            return _bump_series(real(d, h))

        monkeypatch.setattr(verify, "z_sequence", bumped)
        monkeypatch.setattr(verify, "d_from_z", lambda d0, z, h: seen["d"])
        result = {r.name: r for r in run_checks(2, 4)}["z-sequence"]
        assert not result.passed
        assert result.detail == "d rebuilt from Z agrees: True; Z = 2A: False"

    @pytest.mark.parametrize("name, mutant, detail", [
        ("a_sequence_from_h", _result_made(_bump_series),
         "routes agree: False; 0 row violations"),
        ("verify_a_sequence", _result_made(lambda bad: bad + [(1, 1, 0, 0)]),
         "routes agree: True; 1 row violations"),
    ], ids=["routes", "rows"])
    def test_a_sequence_detail(self, monkeypatch, name, mutant, detail):
        monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
        result = {r.name: r for r in run_checks(2, 4)}["a-sequence"]
        assert not result.passed
        assert result.detail == detail
