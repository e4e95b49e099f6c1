"""Signed lattice-path construction of the avoider tree.

A word maps to a path: '1' is a rise step (1, 1), '0' a fall step (1, -1).
Growing all paths by the avoid rule of module `rules` requires a geometric
action per label.  Most children just append a rise and some falls; the
zero-sub-1 child, which must end on the axis with a rise as its last step,
is produced by a cut-and-paste rearrangement (`zero1_forward`) that this
module also inverts (`zero1_inverse`).  Past an endpoint check, each map
walks back from the path's end and reads only the steps it moves: the
forward map phi, the suffix after the last axis point, and the inverse the
steps from its cut fall d on.  Both then splice with one rotation,
`_rotated`, which carries the marks along and never cuts a block.  Marked
blocks are indivisible occurrences of the forbidden factor '1' * (j+1) +
'0' * j dropped in by the rule's jumping production; a node's sign is the
parity of its marked blocks, and summing signs per word annihilates every
word containing the factor while leaving each avoider exactly once.
This module builds the nodes, both productions through one `produce`;
`cli` prints them.

What is validated where: each class has one checking constructor.
`AnnotatedPath(j, steps, marks)` checks j, that `steps` is a string over
0/1, and every marked block; every path `zero1_forward` and `zero1_inverse`
return goes through it.  `ConstructionNode(path, label, level)` checks the
level, the endpoint and the mark parity against the path's own string, on
every node.  The tree grows a child's path from its parent with `_extend`,
which checks nothing: it appends a rise, or spells the factor itself as one
new block at the path's end, behind the parent's checked steps and marks,
and then the falls.

A walk shares each word and each mark set: the tree holds them many times
(`build_tree(1, 8)` has 127,897 nodes but 33,098 distinct words and 271
distinct mark sets), so `build_tree` keeps a table from each word and marks
tuple made in the walk to its one object, and every child path takes its
`steps` and `marks` from it, the zero-sub-1 child only after `zero1_forward`
has checked it.  The table is dropped when the walk returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat

from .pattern import TooLarge, family_pattern
from .rules import PLAIN, ZERO1, ZERO2, Label, LevelCensus, _refuse_mutation


class MalformedInput(Exception):
    """The path cannot occur where the construction needs it."""


class NotInImage(Exception):
    """The path is not an output of the forward rearrangement."""


class InconsistentCensus(Exception):
    """A word's net signed multiplicity is neither 0 nor 1."""


_COMPLEMENT = str.maketrans("01", "10")


def complement(word: str) -> str:
    """Swap rises and falls."""
    return word.translate(_COMPLEMENT)


@dataclass(frozen=True, slots=True, init=False)
class AnnotatedPath:
    """A path plus the start indices of its marked blocks.

    A marked block spans steps s .. s + 2j and must spell the forbidden
    factor exactly; blocks are pairwise disjoint and cannot be cut.  Point
    m is the lattice point between steps m - 1 and m; a point strictly
    inside a block is one between two of the block's steps.
    """

    j: int
    steps: str
    marks: tuple[int, ...] = ()

    def __init__(self, j: int, steps: str, marks=()):
        block = family_pattern(j)
        if not isinstance(steps, str) or steps.strip("01"):
            raise ValueError("steps must be a string over 0/1")
        if type(marks) is not tuple or sorted(marks) != list(marks):
            marks = tuple(sorted(marks))
        end = 0  # where the block before s ends
        for s in marks:
            if s < 0 or s + len(block) > len(steps):
                raise ValueError(f"marked block at {s} leaves the path")
            if steps[s : s + len(block)] != block:
                raise ValueError(f"steps at {s} do not spell the factor")
            if s < end:
                raise ValueError("marked blocks overlap")
            end = s + len(block)
        _set_j(self, j)
        _set_steps(self, steps)
        _set_marks(self, marks)

    @property
    def endpoint(self) -> int:
        return 2 * self.steps.count("1") - len(self.steps)


AnnotatedPath.__setattr__ = AnnotatedPath.__delattr__ = _refuse_mutation
# The slot descriptors set a field past the frozen __setattr__.
_set_j = AnnotatedPath.j.__set__
_set_steps = AnnotatedPath.steps.__set__
_set_marks = AnnotatedPath.marks.__set__


def _cut_points(path: AnnotatedPath) -> bytearray:
    """A 0/1 mask over points 0 .. len(steps): 1 where the point lies
    strictly inside a marked block, filled in one pass over the marks."""
    span = 2 * path.j + 1
    inner = b"\x01" * (span - 1)
    cut = bytearray(len(path.steps) + 1)
    for s in path.marks:
        cut[s + 1 : s + span] = inner
    return cut


def _extend(path: AnnotatedPath, marked: bool, falls, table=None) -> list[AnnotatedPath]:
    """The paths path + tail + '0' * f for each f in `falls`.  The tail is a
    rise, or with `marked` the factor, spelled here as one new marked block
    at the path's end.  Each new word and marks tuple is the walk's `table`
    entry equal to it (a fresh table without one)."""
    share = ({} if table is None else table).setdefault
    j, steps = path.j, path.steps
    if marked:
        marks = path.marks + (len(steps),)
        marks = share(marks, marks)
        steps += family_pattern(j)
    else:
        marks = path.marks
        steps += "1"
    out = []
    for f in falls:
        word = steps + "0" * f
        grown = object.__new__(AnnotatedPath)
        _set_j(grown, j)
        _set_steps(grown, share(word, word))
        _set_marks(grown, marks)
        out.append(grown)
    return out


def _rotated(path: AnnotatedPath, head: int, insert: str, start: int,
             cut: int) -> AnnotatedPath:
    """steps[:head] + insert + steps[cut:] + steps[start:cut], validated.

    The stretch [start, cut) moves behind the suffix from `cut`.  Marks
    travel with their steps.  Callers guarantee that no block meets steps
    head .. start - 1 and that point `cut` is not inside a block."""
    fore = head + len(insert) - cut
    aft = fore + len(path.steps) - start
    marks = []
    for s in path.marks:
        if s >= cut:
            s += fore
        elif s >= start:
            s += aft
        marks.append(s)
    steps = path.steps[:head] + insert + path.steps[cut:] + path.steps[start:cut]
    return AnnotatedPath(path.j, steps, tuple(marks))


def zero1_forward(path: AnnotatedPath) -> AnnotatedPath:
    """Rearrange a path ending at ordinate 1 into its zero-sub-1 child.

    Write the input as v + phi with phi the rightmost suffix starting on
    the axis and staying strictly above it.  Without marked blocks in phi
    the child is v + complement(phi) + rise.  With marked blocks, cut phi
    at z, its leftmost highest uncut point (a point is cut when it lies
    strictly inside a marked block), and emit v + fall + phi[z:] + phi[:z].
    Mark count is preserved either way.  Past the endpoint check, only phi
    is read.
    """
    steps = path.steps
    if 2 * steps.count("1") - len(steps) != 1:
        raise MalformedInput("input must end at ordinate 1")
    # walk back from ordinate 1; unit steps land exactly on the axis at i
    i, o = len(steps), 1
    while o > 0:
        i -= 1
        o += -1 if steps[i] == "1" else 1
    # point i is not inside a block: a block ends at or below each of its
    # interior points, and every point after i lies above the axis
    if not path.marks or path.marks[-1] < i:
        return AnnotatedPath(path.j, steps[:i] + complement(steps[i:]) + "1", path.marks)
    cut = _cut_points(path)
    z, top = i, 0
    for m in range(i + 1, len(steps) + 1):
        o += 1 if steps[m - 1] == "1" else -1
        if o > top and not cut[m]:
            z, top = m, o
    return _rotated(path, i, "0", i, z)


def zero1_inverse(path: AnnotatedPath) -> AnnotatedPath:
    """Undo `zero1_forward`, raising NotInImage on any path outside its image.

    Find d, the rightmost uncut fall step starting on the axis.  If marked
    blocks lie right of d, the path is an image exactly when every uncut
    point strictly between d and the end lies below the axis; then drop d,
    cut the rest at its rightmost lowest point l, and swap the halves:
    head + rest[l:] + rest[:l].  Otherwise it is an image exactly when its
    last step is a rise; drop that rise and complement the steps from d on.
    Past the endpoint check, only the steps from d on are read.
    """
    steps = path.steps
    n = len(steps)
    if not steps or path.endpoint != 0:
        raise NotInImage("image paths end on the axis")
    cut = _cut_points(path)
    # walk back from the end; o is the ordinate of point d.  Step d lies in
    # a block exactly when point d or d + 1 is cut: a block has 3+ steps.
    d, o = n, 0
    while d:
        d -= 1
        o += 1 if steps[d] == "0" else -1
        if o == 0 and steps[d] == "0" and not (cut[d] or cut[d + 1]):
            break
    else:
        raise NotInImage("no cut step qualifies")
    if path.marks and path.marks[-1] > d:
        # point d + 1 lies at -1, so the lowest point is below the axis
        l, low, o = d + 1, -1, -1
        for m in range(d + 2, n):
            o += 1 if steps[m - 1] == "1" else -1
            if o >= 0 and not cut[m]:
                raise NotInImage("an uncut point right of d is not below the axis")
            if o <= low:
                l, low = m, o
        return _rotated(path, d, "", d + 1, l)
    if steps[-1] != "1":
        raise NotInImage("an image without late marks ends with a rise")
    # no uncut fall leaves the axis after d, so the steps d .. n-2 stay
    # below it and carry no marks
    return AnnotatedPath(path.j, steps[:d] + complement(steps[d : n - 1]), path.marks)


@dataclass(frozen=True, slots=True, init=False)
class ConstructionNode:
    """A tree node: its path, its rule label, and its level."""

    path: AnnotatedPath
    label: Label
    level: int

    def __init__(self, path: AnnotatedPath, label: Label, level: int):
        steps = path.steps
        rises = steps.count("1")
        if level != rises:
            raise ValueError("level must equal the number of rise steps")
        if label.value != 2 * rises - len(steps):
            raise ValueError("label value must equal the endpoint ordinate")
        if label.marked != (len(path.marks) % 2 == 1):
            raise ValueError("label mark must match the block parity")
        _set_path(self, path)
        _set_label(self, label)
        _set_level(self, level)

    @property
    def sign(self) -> int:
        return -1 if self.label.marked else 1


ConstructionNode.__setattr__ = ConstructionNode.__delattr__ = _refuse_mutation
_set_path = ConstructionNode.path.__set__
_set_label = ConstructionNode.label.__set__
_set_level = ConstructionNode.level.__set__


@cache
def _child_labels(k: int, marked: bool) -> tuple[Label, ...]:
    """The labels (0_1)(0_2)(1)...(k+1) of a node (k)'s children."""
    return (Label(0, ZERO1, marked), Label(0, ZERO2, marked)) + tuple(
        Label(h, PLAIN, marked) for h in range(1, k + 2)
    )


def produce(node: ConstructionNode, marked: bool, table=None) -> list[ConstructionNode]:
    """The k+3 children of one production, the zero-sub-1 child first.

    The plain production goes one level down and appends a rise.  With
    `marked`, it jumps j + 1 levels and appends the factor as one new marked
    block.  A tail of falls follows either way.  The zero-sub-1 child is
    rearranged from its hook: the path of the (1) child, which ends at
    ordinate 1 and comes two places after it.  The children's words and
    marks tuples come from the walk's `table` (a fresh one without it)."""
    if table is None:
        table = {}
    k = node.label.value
    labels = _child_labels(k, node.label.marked != marked)
    level = node.level + (node.path.j + 1 if marked else 1)
    # the (h) child, and the (0_2) child for h = 0, ends with k + 1 - h falls
    grown = _extend(node.path, marked, range(k + 1, -1, -1), table)
    # the rearranged path is checked and new, so it can move onto the
    # table's equal string and tuple before anything else sees it
    hooked = zero1_forward(grown[1])
    _set_steps(hooked, table.setdefault(hooked.steps, hooked.steps))
    _set_marks(hooked, table.setdefault(hooked.marks, hooked.marks))
    kids = [ConstructionNode(hooked, labels[0], level)]
    kids += map(ConstructionNode, grown, labels[1:], repeat(level))
    return kids


def build_tree(j: int, max_level: int) -> list[list[ConstructionNode]]:
    """Materialize the whole tree, nodes grouped by level 0..max_level.

    Every construction check folds over this one walk.
    """
    family_pattern(j)
    if max_level < 0:
        raise ValueError("max_level must be non-negative")
    limit = 9 if j == 1 else 8
    if max_level > limit:
        raise TooLarge(f"levels beyond {limit} for j={j} are too big to build")
    levels: list[list[ConstructionNode]] = [[] for _ in range(max_level + 1)]
    levels[0].append(ConstructionNode(AnnotatedPath(j, ""), Label(0), 0))
    table: dict = {}  # each word and marks tuple of this walk, to its one object
    # level m gets the marked children of level m - j - 1, then the plain
    # children of level m - 1
    for lv, nodes in enumerate(levels):
        for marked, jump in ((False, 1), (True, j + 1)):
            if lv + jump <= max_level:
                extend = levels[lv + jump].extend
                for node in nodes:
                    extend(produce(node, marked, table))
    return levels


def hooks_of(nodes: list[ConstructionNode]) -> list[tuple[AnnotatedPath, ConstructionNode]]:
    """(hook, child) for each zero-sub-1 child of one built level, hook
    being the very path `zero1_forward` made the child from: the path of
    its (1) sibling, two places after it."""
    return [(nodes[i + 2].path, node) for i, node in enumerate(nodes)
            if node.label.variant == ZERO1]


def word_census(nodes) -> dict[str, tuple[int, int]]:
    """Per word: (even-mark-parity node count, odd-mark-parity count)."""
    out: dict[str, tuple[int, int]] = {}
    for node in nodes:
        even, odd = out.get(node.path.steps, (0, 0))
        if len(node.path.marks) % 2:
            out[node.path.steps] = (even, odd + 1)
        else:
            out[node.path.steps] = (even + 1, odd)
    return out


def net_survivors(
    census: dict[str, tuple[int, int]],
) -> tuple[set[str], list[tuple[str, int]]]:
    """The words of a word census with net signed multiplicity +1, and the
    (word, net) pairs whose net is neither 0 nor 1, in census order."""
    words = set()
    bad = []
    for word, (even, odd) in census.items():
        net = even - odd
        if net == 1:
            words.add(word)
        elif net != 0:
            bad.append((word, net))
    return words, bad


def survivors(j: int, n: int) -> set[str]:
    """Words at level n with net signed multiplicity +1.

    Every other word must net to 0; anything else is a construction bug
    and raises InconsistentCensus.
    """
    words, bad = net_survivors(word_census(build_tree(j, n)[n]))
    if bad:
        word, net = bad[0]
        raise InconsistentCensus(f"word {word} has net multiplicity {net}")
    return words


def copies_census(j: int, n: int) -> dict[str, tuple[int, int]]:
    """The (even, odd) node counts of every word at level n."""
    return word_census(build_tree(j, n)[n])


def signed_census(levels: list[list[ConstructionNode]]) -> LevelCensus:
    """Fold materialized levels into the signed label census."""
    counts: dict[tuple[int, int], int] = {}
    for nodes in levels:
        for node in nodes:
            key = (node.level, node.label.value)
            counts[key] = counts.get(key, 0) + node.sign
    return LevelCensus(len(levels) - 1, counts)


def occurrence_count(word: str, j: int) -> int:
    """Occurrences of the forbidden factor in a word."""
    # 1^(j+1) 0^j has no proper border (its autocorrelation is 1, 0, ..., 0),
    # so two occurrences never overlap and the non-overlapping count is exact.
    return word.count(family_pattern(j))
