import contextlib
import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordavoid import paths, pattern
from wordavoid.pattern import avoiding_words
from wordavoid.paths import (
    AnnotatedPath,
    ConstructionNode,
    InconsistentCensus,
    MalformedInput,
    NotInImage,
    TooLarge,
    _extend,
    build_tree,
    complement,
    copies_census,
    hooks_of,
    net_survivors,
    occurrence_count,
    produce,
    signed_census,
    survivors,
    word_census,
    zero1_forward,
    zero1_inverse,
)
from wordavoid.rules import ZERO1, Label, avoid_rule, expand


def path(steps, *marks, j=1):
    return AnnotatedPath(j, steps, tuple(marks))


@st.composite
def annotated_paths(draw, end, j=None):
    """Valid paths ending at ordinate `end`: random steps with a monotone
    run to `end` inserted at a random point, then up to three marked blocks
    spliced in at random points.  j is drawn from 1..3 unless given."""
    if j is None:
        j = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.text("01", max_size=12))
    blocks = draw(st.integers(min_value=0, max_value=3))
    # each block adds one to the endpoint
    rise = 2 * steps.count("1") - len(steps) + blocks
    run = "1" * (end - rise) if rise < end else "0" * (rise - end)
    at = draw(st.integers(min_value=0, max_value=len(steps)))
    steps = steps[:at] + run + steps[at:]
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(steps)),
                                min_size=blocks, max_size=blocks)))
    block = "1" * (j + 1) + "0" * j
    out, marks, prev = "", [], 0
    for c in cuts:
        out += steps[prev:c]
        marks.append(len(out))
        out += block
        prev = c
    return AnnotatedPath(j, out + steps[prev:], tuple(marks))


@st.composite
def prefixed(draw, end):
    """(v, p): p a valid path ending at ordinate `end`, v a valid path of
    the same j ending on the axis."""
    p = draw(annotated_paths(end))
    return draw(annotated_paths(0, j=p.j)), p


def joined(v, p):
    """v followed by p, p's marks shifted past v."""
    return AnnotatedPath(v.j, v.steps + p.steps,
                         v.marks + tuple(s + len(v.steps) for s in p.marks))


def _all_marked_paths(j, n):
    """Every path of n steps with every set of disjoint marked blocks."""
    span = 2 * j + 1
    block = "1" * (j + 1) + "0" * j
    for bits in itertools.product("01", repeat=n):
        word = "".join(bits)
        starts = [s for s in range(n - span + 1) if word[s : s + span] == block]
        for size in range(len(starts) + 1):
            for marks in itertools.combinations(starts, size):
                if all(b - a >= span for a, b in zip(marks, marks[1:])):
                    yield AnnotatedPath(j, word, marks)


def _valid(j, steps, marks):
    """Whether AnnotatedPath(j, steps, marks) may exist, decided without
    the package: letters 0/1 only, each block inside the path spelling the
    factor, and blocks pairwise disjoint in any order given."""
    if not isinstance(steps, str) or any(c not in "01" for c in steps):
        return False
    span = 2 * j + 1
    block = "1" * (j + 1) + "0" * j
    if any(not 0 <= s <= len(steps) - span or steps[s : s + span] != block for s in marks):
        return False
    return all(abs(a - b) >= span for a, b in itertools.combinations(marks, 2))


class TestComplement:
    def test_swaps_letters(self):
        assert complement("0110") == "1001"
        assert complement("") == ""


class TestAnnotatedPath:
    def test_geometry(self):
        p = path("1110011100", 5, j=2)
        assert p.endpoint == 2

    def test_marks_normalized_sorted(self):
        assert path("110110", 3, 0).marks == (0, 3)

    def test_sorted_marks_tuple_kept(self):
        marks = (0, 3)
        assert AnnotatedPath(1, "110110", marks).marks is marks
        # a list or an unsorted tuple is still sorted into a new tuple, and
        # its blocks checked either way
        assert AnnotatedPath(1, "110110", [3, 0]).marks == (0, 3)
        assert AnnotatedPath(1, "110110", (3, 0)).marks == (0, 3)
        with pytest.raises(ValueError, match="do not spell the factor"):
            AnnotatedPath(1, "110110", (0, 2))
        with pytest.raises(ValueError, match="do not spell the factor"):
            AnnotatedPath(1, "110110", [2, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnotatedPath(0, "10")
        with pytest.raises(ValueError):
            AnnotatedPath(1, "102")
        with pytest.raises(ValueError):
            path("111")  # no marks needed; fine
            path("111", 0)  # steps 0..2 spell 111, not the block
        with pytest.raises(ValueError):
            path("110", 1)  # runs past the end
        with pytest.raises(ValueError):
            path("110110", 0, 0)  # marks must be disjoint

    @pytest.mark.parametrize("steps,marks", [
        (["1", "1", "0", "1"], ()),
        (("1", "1", "0"), (0,)),
        (b"1101", ()),
        (b"110", (0,)),
    ])
    def test_rejects_steps_that_are_not_a_string(self, steps, marks):
        with pytest.raises(ValueError, match="steps must be a string over 0/1"):
            AnnotatedPath(1, steps, marks)

    @pytest.mark.parametrize("j", [1, 2])
    def test_constructor_matches_a_validity_oracle(self, j):
        # every 0/1 string up to length 8 with every set of up to two starts
        # in -1 .. n, repeats included, each given in both orders; and every
        # three-block set of starts from the string's own occurrences
        block = "1" * (j + 1) + "0" * j
        accepted = 0
        for n in range(9):
            for bits in itertools.product("01", repeat=n):
                steps = "".join(bits)
                found = [s for s in range(n) if steps.startswith(block, s)]
                sets = itertools.chain(
                    itertools.chain.from_iterable(
                        itertools.combinations_with_replacement(range(-1, n + 1), size)
                        for size in range(3)),
                    itertools.combinations(found, 3))
                for marks in sets:
                    for given in (marks, marks[::-1]):
                        try:
                            p = AnnotatedPath(j, steps, given)
                        except ValueError:
                            assert not _valid(j, steps, given), (steps, given)
                        else:
                            assert _valid(j, steps, given), (steps, given)
                            assert (p.j, p.steps, p.marks) == (j, steps, tuple(sorted(given)))
                            accepted += 1
        assert accepted > 1000

    def test_empty_path_allowed(self):
        p = path("")
        assert p.endpoint == 0


class TestForwardMap:
    def test_unmarked_suffix_complemented(self):
        assert zero1_forward(path("1")) == path("01")
        assert zero1_forward(path("011")) == path("0101")
        assert zero1_forward(path("101")) == path("1001")
        assert zero1_forward(path("110")) == path("0011")

    def test_unmarked_prefix_kept(self):
        assert zero1_forward(path("01101", 1)) == path("011001", 1)

    def test_marked_block_rotated_past_new_fall(self):
        assert zero1_forward(path("110", 0)) == path("0110", 1)
        assert zero1_forward(path("11100", 1)) == path("001110", 3)
        assert zero1_forward(path("11100", 0, j=2)) == path("011100", 1, j=2)

    def test_output_ends_on_axis(self):
        for p in (path("1"), path("110", 0), path("11100", 1)):
            assert zero1_forward(p).endpoint == 0

    def test_requires_end_at_one(self):
        with pytest.raises(MalformedInput):
            zero1_forward(path("10"))
        with pytest.raises(MalformedInput):
            zero1_forward(path(""))
        with pytest.raises(MalformedInput):
            zero1_forward(path("11"))


class TestInverseMap:
    def test_unmarked_cases(self):
        assert zero1_inverse(path("01")) == path("1")
        assert zero1_inverse(path("0101")) == path("011")
        assert zero1_inverse(path("1001")) == path("101")
        assert zero1_inverse(path("0011")) == path("110")

    def test_marked_cases(self):
        assert zero1_inverse(path("0110", 1)) == path("110", 0)
        assert zero1_inverse(path("001110", 3)) == path("11100", 1)
        assert zero1_inverse(path("011001", 1)) == path("01101", 1)
        assert zero1_inverse(path("011100", 1, j=2)) == path("11100", 0, j=2)

    def test_rejects_paths_off_axis(self):
        with pytest.raises(NotInImage):
            zero1_inverse(path("1"))
        with pytest.raises(NotInImage):
            zero1_inverse(path(""))

    def test_rejects_axis_path_outside_image(self):
        # ends on the axis but the only usable cut leads to a falling
        # final step, which no forward image has
        with pytest.raises(NotInImage):
            zero1_inverse(path("0110"))

    def test_rejects_when_no_cut_step_exists(self):
        # the lone fall outside the block starts above the axis
        with pytest.raises(NotInImage):
            zero1_inverse(path("1100", 0))
        # the only axis fall, step 0, is followed by the uncut axis point 2
        with pytest.raises(NotInImage):
            zero1_inverse(path("011100", 2))

    def test_rejects_axis_return_after_the_cut_step(self):
        # d = 0 is the only uncut axis fall, but the uncut point 4 right of
        # it is back on the axis; the old peak rule inverted this to "110111000"
        # marked at 0, whose image is "0000110111" marked at 4
        with pytest.raises(NotInImage):
            zero1_inverse(path("0110111000", 1))

    @given(annotated_paths(end=0))
    def test_forward_undoes_inverse_wherever_it_is_defined(self, p):
        try:
            preimage = zero1_inverse(p)
        except NotInImage:
            return
        assert zero1_forward(preimage) == p

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_accepts_exactly_the_image(self, j):
        # every marked path of length up to 10 + 2j (12, 14, 16) ending on
        # the axis, against the forward images of every path one step shorter
        top = 10 + 2 * j
        image = {}
        for n in range(top):
            for q in _all_marked_paths(j, n):
                if q.endpoint == 1:
                    image[zero1_forward(q)] = q
        accepted = {}
        for n in range(top + 1):
            for p in _all_marked_paths(j, n):
                if p.endpoint == 0:
                    with contextlib.suppress(NotInImage):
                        accepted[p] = zero1_inverse(p)
        assert sum(1 for p in image if p.marks) > 100
        assert any(len(p.marks) > 1 for p in image)
        assert accepted == image

    @given(prefixed(end=0))
    def test_inverse_reads_only_the_moved_suffix(self, pair):
        v, p = pair
        try:
            preimage = zero1_inverse(p)
        except NotInImage:
            return
        assert zero1_inverse(joined(v, p)) == joined(v, preimage)


class TestRoundTrip:
    @pytest.mark.parametrize("j,levels", [(1, 5), (2, 5)])
    def test_hooks_recovered_exactly(self, j, levels):
        tree = build_tree(j, levels)
        reported = [pair for level_nodes in tree for pair in hooks_of(level_nodes)]
        block = "1" * (j + 1) + "0" * j
        checked = 0
        rebuilt = []
        for level_nodes in tree:
            for node in level_nodes:
                k = node.label.value
                p = node.path
                hooks = []
                if node.level + 1 <= levels:
                    hooks.append(
                        AnnotatedPath(j, p.steps + "1" + "0" * k, p.marks)
                    )
                if node.level + j + 1 <= levels:
                    hooks.append(
                        AnnotatedPath(
                            j, p.steps + block + "0" * k, p.marks + (len(p.steps),)
                        )
                    )
                for hook in hooks:
                    image = zero1_forward(hook)
                    assert image.endpoint == 0
                    assert len(image.marks) == len(hook.marks)
                    assert zero1_inverse(image) == hook
                    rebuilt.append((hook, image))
                    checked += 1
        assert checked > 100
        # the build reports exactly these hooks, each with its zero-sub-1 child
        assert all(c.label.variant == "zero1" for _, c in reported)
        assert sorted(
            (h.steps, h.marks, c.path.steps, c.path.marks) for h, c in reported
        ) == sorted((h.steps, h.marks, i.steps, i.marks) for h, i in rebuilt)

    @given(prefixed(end=1))
    def test_forward_reads_only_phi(self, pair):
        v, q = pair
        assert zero1_forward(joined(v, q)) == joined(v, zero1_forward(q))

    @given(annotated_paths(end=1))
    def test_inverse_undoes_forward(self, p):
        image = zero1_forward(p)
        assert image.endpoint == 0
        assert len(image.marks) == len(p.marks)
        assert zero1_inverse(image) == p

    @given(annotated_paths(end=1))
    def test_forward_undoes_inverse_on_the_image(self, p):
        image = zero1_forward(p)
        assert zero1_forward(zero1_inverse(image)) == image

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_cut_mask_matches_the_predicates(self, j):
        # every marked path of up to 10 steps: the one-pass mask both maps
        # read cuts exactly the interior points, and a step lies in a block
        # exactly when a point at either end of it is cut
        span = 2 * j + 1
        for n in range(11):
            for p in _all_marked_paths(j, n):
                inside = {s + k for s in p.marks for k in range(1, span)}
                covered = {s + k for s in p.marks for k in range(span)}
                cut = paths._cut_points(p)
                assert len(cut) == n + 1
                assert {m for m in range(n + 1) if cut[m]} == inside
                assert {i for i in range(n) if cut[i] or cut[i + 1]} == covered


class TestConstructionNodes:
    def axiom(self, j=1):
        return ConstructionNode(AnnotatedPath(j, ""), Label(0), 0)

    def test_axiom_children(self):
        kids = produce(self.axiom(), False)
        assert [(n.path.steps, n.label) for n in kids] == [
            ("01", Label(0, variant="zero1")),
            ("10", Label(0, variant="zero2")),
            ("1", Label(1)),
        ]
        assert all(n.level == 1 and n.sign == 1 for n in kids)

    def test_axiom_marked_children(self):
        kids = produce(self.axiom(), True)
        assert [(n.path.steps, n.path.marks, n.label) for n in kids] == [
            ("0110", (1,), Label(0, variant="zero1", marked=True)),
            ("1100", (0,), Label(0, variant="zero2", marked=True)),
            ("110", (0,), Label(1, marked=True)),
        ]
        assert all(n.level == 2 and n.sign == -1 for n in kids)

    def test_child_count_follows_rule(self):
        tree = build_tree(2, 3)
        for node in tree[2]:
            assert len(produce(node, False)) == node.label.value + 3

    def test_node_validation(self):
        with pytest.raises(ValueError):
            ConstructionNode(path("1"), Label(1), 2)  # level != rises
        with pytest.raises(ValueError):
            ConstructionNode(path("1"), Label(2), 1)  # value != endpoint
        with pytest.raises(ValueError):
            ConstructionNode(path("110", 0), Label(1), 2)  # parity mismatch

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_grown_paths_pass_full_validation(self, j):
        for nodes in build_tree(j, 6):
            for n in nodes:
                assert AnnotatedPath(j, n.path.steps, n.path.marks) == n.path
                ConstructionNode(n.path, n.label, n.level)

    def test_extension_checks_appended_blocks(self):
        # the appended rise or block is spelled at the path's end, behind the
        # parent's marks, and the grown paths pass the full constructor
        parent = path("110", 0)
        assert _extend(parent, True, [1, 0]) == [path("1101100", 0, 3), path("110110", 0, 3)]
        assert _extend(parent, False, [2, 0]) == [path("110100", 0), path("1101", 0)]
        assert _extend(path("01", j=2), True, [0]) == [path("0111100", 2, j=2)]

    def test_tree_checks_every_label(self, monkeypatch):
        # the last plain child of every production gets a label one too high
        labels = paths._child_labels

        def bumped(k, marked):
            *head, last = labels(k, marked)
            return (*head, Label(last.value + 1, last.variant, last.marked))

        monkeypatch.setattr(paths, "_child_labels", bumped)
        with pytest.raises(ValueError, match="label value must equal the endpoint ordinate"):
            build_tree(1, 3)

    def test_tree_checks_every_forward_image(self, monkeypatch):
        # each marked image comes back with its blocks one step late
        forward = paths.zero1_forward

        def shifted(p):
            image = forward(p)
            return AnnotatedPath(image.j, image.steps, tuple(s + 1 for s in image.marks))

        monkeypatch.setattr(paths, "zero1_forward", shifted)
        with pytest.raises(ValueError, match="do not spell the factor|leaves the path"):
            build_tree(1, 3)

    def test_nodes_carry_no_instance_dict(self):
        node = build_tree(1, 2)[2][0]
        for obj in (node, node.path, node.label):
            assert not hasattr(obj, "__dict__")
        assert AnnotatedPath.__slots__ == ("j", "steps", "marks")
        assert ConstructionNode.__slots__ == ("path", "label", "level")


class TestDataclassBehaviour:
    PATH = AnnotatedPath(1, "0110", (1,))
    NODE = ConstructionNode(PATH, Label(0, ZERO1, marked=True), 2)

    def test_frozen(self):
        for obj, name, value in ((self.PATH, "steps", "1"), (self.NODE, "level", 3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del self.PATH.marks

    def test_equal_objects_hash_equally(self):
        path = AnnotatedPath(1, "0110", [1])
        node = ConstructionNode(path, Label(0, ZERO1, marked=True), 2)
        assert path == self.PATH and hash(path) == hash(self.PATH)
        assert node == self.NODE and hash(node) == hash(self.NODE)
        assert AnnotatedPath(2, "0110") != AnnotatedPath(1, "0110")
        assert pickle.loads(pickle.dumps(self.NODE)) == self.NODE

    def test_repr(self):
        assert repr(self.PATH) == "AnnotatedPath(j=1, steps='0110', marks=(1,))"
        assert repr(self.NODE) == (
            "ConstructionNode(path=AnnotatedPath(j=1, steps='0110', marks=(1,)), "
            "label=Label(value=0, variant='zero1', marked=True), level=2)"
        )

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(AnnotatedPath)] == ["j", "steps", "marks"]
        assert dataclasses.fields(AnnotatedPath)[2].default == ()
        assert AnnotatedPath(1, "1").marks == ()
        assert [f.name for f in dataclasses.fields(ConstructionNode)] == ["path", "label", "level"]

    def test_replace_revalidates(self):
        assert dataclasses.replace(self.PATH, steps="1100", marks=[0]) == path("1100", 0)
        with pytest.raises(ValueError, match="do not spell the factor"):
            dataclasses.replace(self.PATH, marks=(0,))
        with pytest.raises(ValueError, match="steps must be a string over 0/1"):
            dataclasses.replace(self.PATH, steps="0120")
        with pytest.raises(ValueError, match="level must equal the number of rise steps"):
            dataclasses.replace(self.NODE, level=3)
        with pytest.raises(ValueError, match="label mark must match the block parity"):
            dataclasses.replace(self.NODE, path=path("0101"))


@pytest.mark.parametrize("obj", [
    TestDataclassBehaviour.PATH, TestDataclassBehaviour.NODE, Label(0, ZERO1, marked=True),
], ids=["path", "node", "label"])
def test_frozen_refuses_attributes_that_are_not_fields(obj):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, "other", 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, "other")
    for field in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field.name)
    assert copy.deepcopy(obj) == obj and hash(copy.deepcopy(obj)) == hash(obj)


class TestTree:
    def test_guards(self):
        with pytest.raises(ValueError):
            build_tree(0, 3)
        with pytest.raises(ValueError):
            build_tree(1, -1)
        with pytest.raises(TooLarge):
            build_tree(1, 10)
        with pytest.raises(TooLarge):
            build_tree(2, 9)

    def test_census_matches_succession_rule(self):
        for j, levels in ((1, 6), (2, 5)):
            assert signed_census(build_tree(j, levels)) == expand(
                avoid_rule(j), levels
            )

    def test_one_too_large(self):
        assert TooLarge is pattern.TooLarge

    def test_word_census_nets(self):
        counts = word_census(build_tree(1, 4)[4])
        assert counts["110110"] == (2, 2)
        assert counts["1111"] == (1, 0)

    @pytest.mark.parametrize("j", [1, 2])
    def test_walk_shares_each_word_and_mark_set(self, j):
        built = [n.path for nodes in build_tree(j, 7) for n in nodes]
        assert len({id(p.steps) for p in built}) == len({p.steps for p in built})
        assert len({id(p.marks) for p in built}) == len({p.marks for p in built})
        assert len(built) > len({p.steps for p in built})

    @pytest.mark.parametrize("j", [1, 2])
    def test_produce_alone_equals_the_tree(self, j):
        # a production run on its own, with its own table, gives the same
        # children the walk put in the tree, in the same order
        tree = build_tree(j, 6)
        for lv, nodes in enumerate(tree):
            for marked, jump in ((False, 1), (True, j + 1)):
                if lv + jump < len(tree):
                    alone = [kid for node in nodes for kid in produce(node, marked)]
                    walked = tree[lv + jump]
                    if marked:
                        assert walked[: len(alone)] == alone
                    else:
                        assert walked[len(walked) - len(alone):] == alone


class TestSurvivors:
    def test_level_two_set(self):
        assert survivors(1, 2) == {
            "11", "011", "101", "0011", "0101", "1001", "1010",
        }

    def test_matches_brute_force(self):
        for j, n in ((1, 4), (2, 3)):
            pattern = "1" * (j + 1) + "0" * j
            expected = set()
            for zeros in range(n + 1):
                expected |= avoiding_words(pattern, n, zeros)
            assert survivors(j, n) == expected

    def test_net_survivors_splits_census(self):
        census = {"11": (1, 0), "110": (2, 2), "0110": (2, 0), "1100": (0, 1)}
        assert net_survivors(census) == ({"11"}, [("0110", 2), ("1100", -1)])

    def test_guard_propagates(self):
        with pytest.raises(TooLarge):
            survivors(1, 10)

    def test_inconsistent_census_raises(self, monkeypatch):
        # a second copy of the one unmarked 1111 node nets that word to 2
        def doubled(j, max_level):
            levels = build_tree(j, max_level)
            top = levels[max_level]
            top.append(next(node for node in top if node.path.steps == "1111"))
            return levels

        monkeypatch.setattr(paths, "build_tree", doubled)
        with pytest.raises(InconsistentCensus, match="word 1111 has net multiplicity 2"):
            survivors(1, 4)


class TestCopiesLaw:
    def test_level_four(self):
        for word, (even, odd) in copies_census(1, 4).items():
            c = occurrence_count(word, 1)
            if c == 0:
                assert (even, odd) == (1, 0)
            else:
                assert even == odd == 2 ** (c - 1)

    def test_occurrence_count(self):
        assert occurrence_count("110110", 1) == 2
        assert occurrence_count("11011011", 1) == 2
        assert occurrence_count("111", 1) == 0
        assert occurrence_count("1110011100", 2) == 2
        # the non-overlapping count equals an overlapping scan
        for j in (1, 2, 3):
            block = "1" * (j + 1) + "0" * j
            for n in range(13):
                for letters in itertools.product("01", repeat=n):
                    word = "".join(letters)
                    scan = sum(word[i : i + len(block)] == block for i in range(n))
                    assert occurrence_count(word, j) == scan, (word, j)
        with pytest.raises(ValueError):
            occurrence_count("111", 0)
