import copy
import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordavoid.cli import render_matrix
from wordavoid.paths import build_tree, signed_census
from wordavoid.riordan import family_triangle
from wordavoid.rules import (
    ZERO1,
    ZERO2,
    Label,
    LevelCensus,
    Production,
    RuleSpec,
    avoid_rule,
    catalan_marked_rule,
    catalan_plain_rule,
    expand,
    expand_exhaustive,
    motzkin_jump_rule,
)

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def levelmap(census, level):
    return {v: c for (lv, v), c in census.counts.items() if lv == level}


# a child label's value as a function of its parent's k: m * k + a; m = 2
# leaves gaps between the reached values, m = 0 makes a constant label.  A
# label with a parity is made only by parents k of that parity, so the arms
# and jumps a node has change from one value to the next.
_label_specs = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.sampled_from(["plain", "plain", "zero1", "zero2"]),
    st.sampled_from([None, None, 0, 1]),
)


@st.composite
def random_rules(draw):
    """Rules with up to three arms (jumps 1-3, possibly shared), two to
    four label templates spread over them, marked, zero-variant and
    parity-gated labels, optionally a label's flipped twin in the same arm,
    and a possibly marked axiom.  At most five children per node keep the
    tree under 25,000 nodes at level 6."""
    jumps = draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=1, max_size=3))
    specs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(jumps) - 1), _label_specs),
        min_size=2, max_size=4,
    ))
    twin = draw(st.booleans())
    axiom = Label(draw(st.integers(min_value=0, max_value=3)), marked=draw(st.booleans()))

    def label(k, spec):
        m, a, marked, variant, _ = spec
        if variant != "plain":
            return Label(0, variant, marked)
        return Label(m * k + a, marked=marked)

    def produce(k):
        arms = [[] for _ in jumps]
        for arm, spec in specs:
            if spec[4] in (None, k % 2):
                arms[arm].append(label(k, spec))
        if twin and arms[specs[0][0]]:
            arms[specs[0][0]].append(arms[specs[0][0]][0].flipped())
        return tuple(Production(jump, tuple(labs))
                     for jump, labs in zip(jumps, arms) if labs)

    return RuleSpec("drawn", axiom, produce)


class TestLabel:
    def test_defaults(self):
        lab = Label(3)
        assert lab.value == 3
        assert not lab.marked
        assert lab.variant == "plain"

    def test_flipped(self):
        lab = Label(2, marked=True)
        assert lab.flipped() == Label(2)
        assert Label(2).flipped() == lab

    def test_validation(self):
        with pytest.raises(ValueError):
            Label(-1)
        with pytest.raises(ValueError):
            Label(0, variant="odd")
        with pytest.raises(ValueError):
            Label(1, variant="zero1")

    def test_production_validation(self):
        with pytest.raises(ValueError):
            Production(0, (Label(1),))


class TestAvoidRule:
    def test_axiom_and_shape(self):
        rule = avoid_rule(2)
        assert rule.axiom == Label(0)
        plain, marked = rule.produce(3)
        assert plain.jump == 1
        assert marked.jump == 3
        # k + 3 children: two level-one variants plus values 1..k+1
        assert len(plain.labels) == 6
        assert plain.labels[0] == Label(0, variant="zero1")
        assert plain.labels[1] == Label(0, variant="zero2")
        assert plain.labels[2:] == tuple(Label(v) for v in (1, 2, 3, 4))
        assert marked.labels == tuple(lab.flipped() for lab in plain.labels)

    def test_produce_spelled_out(self):
        ks = list(range(61))
        # ascending, descending and repeated asks all see the same tuples
        for j, order in ((1, ks), (2, ks[::-1]), (3, ks + ks[::7])):
            rule = avoid_rule(j)
            for k in order:
                plain = (Label(0, ZERO1), Label(0, ZERO2)) + tuple(
                    Label(v) for v in range(1, k + 2)
                )
                marked = tuple(Label(lab.value, lab.variant, True) for lab in plain)
                assert rule.produce(k) == (Production(1, plain), Production(j + 1, marked))
            with pytest.raises(ValueError):
                rule.produce(-1)

    def test_expand_builds_linearly_many_labels(self, monkeypatch):
        # a work count, not a timing: each value's labels grow from the
        # previous value's, so L levels build O(L) labels, not O(L^2)
        built = 0
        check = Label.__post_init__

        def counting(label):
            nonlocal built
            built += 1
            check(label)

        monkeypatch.setattr(Label, "__post_init__", counting)
        levels = 120
        census = expand(avoid_rule(2), levels)
        assert census.max_value() == levels
        assert built <= 4 * (levels + 3)

    def test_expand_working_memory_stays_near_its_result(self):
        # a level moves into the census once final, and no value's signed
        # counts are stored, so the sweep's peak stays near what it keeps:
        # the census and the rule's label tuples
        rule = avoid_rule(2)
        tracemalloc.start()
        try:
            census = expand(rule, 120)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert census.max_level == 120
        assert peak < 1.75 * retained

    def test_expand_peak_stays_within_a_quarter_of_its_result(self):
        # each finished level is written once, as its row: no key per cell
        # and no second, filtered copy of the census
        rule = avoid_rule(2)
        tracemalloc.start()
        try:
            census = expand(rule, 120)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert census.max_level == 120
        assert peak < 1.25 * retained

    def test_counts_are_the_nonzero_cells(self):
        # the benchmark's traced rules.census_cells is this length
        census = expand(avoid_rule(2), 120)
        assert len(census.counts) == 121 * 122 // 2 == 7381

    def test_j_validated(self):
        with pytest.raises(ValueError):
            avoid_rule(0)

    def test_level_zero(self):
        census = expand(avoid_rule(1), 0)
        assert census.counts == {(0, 0): 1}

    def test_level_one_is_family_independent(self):
        for j in (1, 2, 3):
            census = expand(avoid_rule(j), 1)
            assert levelmap(census, 1) == {0: 2, 1: 1}

    def test_j1_level_two(self):
        census = expand(avoid_rule(1), 2)
        assert levelmap(census, 2) == {0: 4, 1: 2, 2: 1}

    def test_j2_level_three(self):
        census = expand(avoid_rule(2), 3)
        assert levelmap(census, 3) == {0: 18, 1: 9, 2: 4, 3: 1}

    def test_matches_triangle_rows(self):
        for j in (1, 2, 3):
            census = expand(avoid_rule(j), 10)
            assert census.triangle_rows() == [
                list(row) for row in family_triangle(j, 10).rows
            ]


class TestCatalanRules:
    def test_plain_axiom_level(self):
        census = expand(catalan_plain_rule(), 1)
        assert levelmap(census, 1) == {2: 1, 3: 1}

    def test_marked_level_one(self):
        census = expand(catalan_marked_rule(), 1)
        assert levelmap(census, 1) == {2: 1, 3: 1}

    def test_totals_agree_and_are_catalan(self):
        plain = expand(catalan_plain_rule(), 10).totals()
        marked = expand(catalan_marked_rule(), 10).totals()
        assert plain == CATALAN
        assert marked == CATALAN


class TestMotzkinRule:
    def test_first_levels(self):
        census = expand(motzkin_jump_rule(), 3)
        assert levelmap(census, 0) == {1: 1}
        assert levelmap(census, 1) == {2: 1}
        assert census.totals() == [1, 1, 3, 6]

    def test_jump_skips_levels(self):
        # the axiom's jump-two child lands at level 2 alongside the
        # level-1 node's immediate children
        census = expand(motzkin_jump_rule(), 2)
        assert levelmap(census, 2) == {1: 2, 3: 1}


class TestExhaustiveAgreement:
    @pytest.mark.parametrize(
        "rule,levels",
        [
            (avoid_rule(1), 8),
            (avoid_rule(2), 7),
            (catalan_marked_rule(), 8),
            (motzkin_jump_rule(), 8),
        ],
        ids=["avoid-j1", "avoid-j2", "catalan-marked", "motzkin"],
    )
    def test_dp_matches_node_walk(self, rule, levels):
        assert expand(rule, levels) == expand_exhaustive(rule, levels)

    @settings(max_examples=100)
    @given(random_rules(), st.integers(min_value=0, max_value=6))
    def test_dp_matches_node_walk_on_drawn_rules(self, rule, levels):
        calls = []

        def counted(k):
            calls.append(k)
            return rule.produce(k)

        census = expand(RuleSpec(rule.name, rule.axiom, counted), levels)
        walked = expand_exhaustive(rule, levels)
        assert census == walked
        # produce runs once for each value reached with a nonzero net count
        assert sorted(calls) == sorted({v for (_, v) in walked.counts})

    def test_cancelled_values_are_never_produced(self):
        # (1) and its marked twin cancel, so (1) is never reached; the gap
        # between 0 and 2 is skipped too
        calls = []

        def produce(k):
            calls.append(k)
            return (Production(1, (Label(1), Label(1, marked=True), Label(k + 2))),)

        rule = RuleSpec("gaps", Label(0), produce)
        census = expand(rule, 4)
        assert calls == [0, 2, 4, 6, 8]
        assert census.counts == {(lv, 2 * lv): 1 for lv in range(5)}
        assert census == expand_exhaustive(rule, 4)

    def test_jumps_that_only_some_values_have(self):
        # even values have a jump-two arm, odd ones do not, so the rows of
        # consecutive values differ in a jump the higher one lacks
        def produce(k):
            near = Production(1, (Label(0), Label(k + 1)))
            return (near, Production(2, (Label(k + 2),))) if k % 2 == 0 else (near,)

        rule = RuleSpec("parity", Label(0), produce)
        assert expand(rule, 6) == expand_exhaustive(rule, 6)

    def test_values_netting_zero_across_parents_are_never_produced(self):
        # (1) and (2) meet again at level 2 as (3) and a marked (3)
        calls = []
        children = {0: (Label(1), Label(2)), 1: (Label(3),), 2: (Label(3, marked=True),)}

        def produce(k):
            calls.append(k)
            return (Production(1, children.get(k, (Label(k + 1),))),)

        rule = RuleSpec("meet", Label(0), produce)
        census = expand(rule, 3)
        assert calls == [0, 1, 2]
        assert census.counts == {(0, 0): 1, (1, 1): 1, (1, 2): 1}
        assert census == expand_exhaustive(rule, 3)

    def test_node_budget_enforced(self):
        with pytest.raises(ValueError):
            expand_exhaustive(avoid_rule(1), 8, max_nodes=10)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            expand(avoid_rule(1), -1)
        with pytest.raises(ValueError):
            expand_exhaustive(avoid_rule(1), -1)


def naive_census(rule, levels):
    """The untelescoped census, level by level: each value v with net count
    c(v) adds c(v) times each of its children's signs, child by child."""
    pending = {0: {rule.axiom.value: -1 if rule.axiom.marked else 1}}
    counts = {}
    for lv in range(levels + 1):
        for v, c in pending.pop(lv, {}).items():
            if not c:
                continue
            counts[lv, v] = c
            for prod in rule.produce(v):
                if lv + prod.jump <= levels:
                    bucket = pending.setdefault(lv + prod.jump, {})
                    for lab in prod.labels:
                        bucket[lab.value] = bucket.get(lab.value, 0) + (-c if lab.marked else c)
    return LevelCensus(levels, counts)


class TestRowSweep:
    """`expand` adds a run of values with equal offspring differences by
    whole-row slices; these checks reach far below `expand_exhaustive`."""

    @pytest.mark.parametrize(
        "make",
        [lambda: avoid_rule(1), lambda: avoid_rule(2), lambda: avoid_rule(3),
         catalan_plain_rule, catalan_marked_rule, motzkin_jump_rule],
        ids=["avoid-j1", "avoid-j2", "avoid-j3", "catalan-plain", "catalan-marked",
             "motzkin"],
    )
    def test_matches_the_untelescoped_census_at_depth(self, make):
        assert expand(make(), 60) == naive_census(make(), 60)

    @settings(max_examples=60)
    @given(random_rules(), st.integers(min_value=0, max_value=10))
    def test_matches_the_untelescoped_census_on_drawn_rules(self, rule, levels):
        assert expand(rule, levels) == naive_census(rule, levels)

    def test_produce_calls_are_those_of_the_value_loop(self):
        # the sequence the value-at-a-time sweep made: each value once, in
        # the order the levels first reach it
        rule = avoid_rule(2)
        calls = []

        def counted(k):
            calls.append(k)
            return rule.produce(k)

        expand(RuleSpec(rule.name, rule.axiom, counted), 20)
        assert calls == list(range(21))

    def test_levels_of_several_runs(self):
        # value 2 is never reached, so from level 1 on each level's values
        # form two runs, 0..1 and one from 3 or 4 up, each swept as a whole;
        # the doubled label makes a difference entry of 2
        calls = []

        def produce(k):
            calls.append(k)
            return (Production(1, (Label(0), Label(1), Label(k + 3), Label(k + 4),
                                   Label(k + 4))),
                    Production(2, (Label(k + 3, marked=True),)))

        rule = RuleSpec("runs", Label(0), produce)
        census = expand(rule, 12)
        assert sorted(calls) == sorted({v for (_, v) in census.counts})
        assert census.rows[2] == (5, 5, 0, 0, 3, 2, 1, 4, 4)
        assert census == naive_census(rule, 12)
        assert expand(rule, 6) == expand_exhaustive(rule, 6)

    def test_runs_whose_differences_alternate(self):
        # even values have a jump-two arm and odd ones do not, so no run
        # longer than two values differs alike and each adds value by value
        def produce(k):
            near = Production(1, (Label(0), Label(k + 1)))
            return (near, Production(2, (Label(k + 2),))) if k % 2 == 0 else (near,)

        rule = RuleSpec("parity", Label(0), produce)
        assert expand(rule, 40) == naive_census(rule, 40)


class TestLevelCensus:
    def test_zero_entries_dropped(self):
        census = LevelCensus(1, {(0, 0): 1, (1, 0): 0, (1, 1): 2})
        assert census.counts == {(0, 0): 1, (1, 1): 2}
        assert census.count(1, 0) == 0

    def test_levels_outside_range_rejected(self):
        for level in (-1, 2):
            with pytest.raises(ValueError):
                LevelCensus(1, {(0, 0): 1, (level, 0): 1})

    def test_matrix_and_rows(self):
        census = expand(avoid_rule(2), 3)
        m = census.matrix()
        assert len(m) == 4
        assert all(len(row) == 4 for row in m)
        assert m[3] == [18, 9, 4, 1]
        assert census.triangle_rows()[3] == [18, 9, 4, 1]

    def test_serialization_deterministic(self):
        census = expand(avoid_rule(1), 2)
        assert render_matrix(census.matrix(), "csv") == "1,0,0\n2,1,0\n4,2,1\n"
        assert render_matrix(census.matrix(), "json") == '[[1,0,0],[2,1,0],[4,2,1]]\n'

    def test_level_total(self):
        census = expand(avoid_rule(1), 3)
        assert census.totals()[3] == 8 + 4 + 2 + 1
        signed = LevelCensus(2, {(0, 0): 1, (2, 0): 3, (2, 1): -5})
        assert signed.totals() == [1, 0, -2]

    def test_frozen_and_unhashable(self):
        census = expand(avoid_rule(1), 3)
        for name in ("max_level", "counts", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(census, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(census, name)
        assert copy.deepcopy(census) == census
        with pytest.raises(TypeError):
            hash(census)

    def test_repr(self):
        assert repr(expand(avoid_rule(1), 3)) == "LevelCensus(max_level=3)"

    def test_rows_do_not_depend_on_the_source(self):
        census = expand(avoid_rule(1), 4)
        padded = {**census.counts, (0, 3): 0, (1, 5): 0, (4, 9): 0, (3, 7): 0}
        assert LevelCensus(4, padded) == census
        assert LevelCensus(4, padded).rows == census.rows
        assert signed_census(build_tree(1, 4)) == census
        assert signed_census(build_tree(1, 4)).rows == census.rows
        assert census.rows[2] == (4, 2, 1)

    def test_rows_stop_at_their_last_nonzero_value(self):
        census = LevelCensus(2, {(0, 0): 1, (1, 3): -2, (1, 5): 0, (2, 1): 0})
        assert census.rows == ((1,), (0, 0, 0, -2), ())
        assert census.max_value() == 3
        assert census.totals() == [1, -2, 0]

    def test_value_above_its_level(self):
        census = LevelCensus(1, {(1, 50): 1})
        assert census.rows == ((), (0,) * 50 + (1,))
        assert census.count(1, 50) == 1
        assert census.count(1, 51) == census.count(0, 50) == 0
        assert census.counts == {(1, 50): 1}
        assert census.max_value() == 50
        assert census.matrix() == [[0] * 51, [0] * 50 + [1]]
        assert census.triangle_rows() == [[0], [0, 0]]

    def test_catalan_axiom_value(self):
        census = expand(catalan_plain_rule(), 2)
        assert census.count(0, 2) == 1
        assert census.count(0, 0) == census.count(0, 1) == 0
        assert census.counts == {(0, 2): 1, (1, 2): 1, (1, 3): 1,
                                 (2, 2): 2, (2, 3): 2, (2, 4): 1}
        assert census.matrix() == [[0, 0, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 2, 2, 1]]
        assert census.triangle_rows() == [[0], [0, 0], [0, 0, 2]]

    def test_cells_outside_the_census_read_zero(self):
        census = expand(avoid_rule(1), 2)
        for level, value in ((-1, 0), (3, 0), (0, -1), (1, 2), (2, -3)):
            assert census.count(level, value) == 0

    def test_negative_max_level_refused(self):
        # a census has levels 0..max_level, so at least one row
        for max_level in (-1, -5):
            with pytest.raises(ValueError, match="max_level must be non-negative"):
                LevelCensus(max_level, {})
        assert LevelCensus(0, {}).rows == ((),)

    def test_negative_value_refused(self):
        for c in (1, 0):
            with pytest.raises(ValueError):
                LevelCensus(1, {(0, 0): 1, (1, -1): c})
