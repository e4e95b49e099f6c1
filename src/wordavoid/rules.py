"""Succession rules with jumps and marks.

A rule grows a labelled tree: the axiom sits at level 0 and every node
labelled k spawns, for each production, a list of children whose level is
the parent's plus the production's jump.  Marks act as signs: a marked
label on an unmarked parent makes a marked child, and two marks cancel, so
a node's sign is the parity of marks along its ancestry.  The census of a
level records, for each label value, the number of unmarked nodes minus
the number of marked ones; marked nodes annihilate unmarked ones with the
same value on the same level.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError, dataclass
from operator import add, is_not, mul, sub
from typing import Callable

from .pattern import family_pattern

PLAIN = "plain"
ZERO1 = "zero1"
ZERO2 = "zero2"

_VARIANTS = (PLAIN, ZERO1, ZERO2)


def _refuse_mutation(self, name: str, *value) -> None:
    """The `__setattr__` and `__delattr__` of the package's frozen slotted
    classes.  On Python 3.11 the pair `dataclass` writes for them raises
    TypeError on a name that is not a field: it calls super() on the class
    that slots=True replaced."""
    raise FrozenInstanceError(f"cannot set or delete {name!r} on a frozen "
                              f"{type(self).__name__}")


@dataclass(frozen=True, slots=True)
class Label:
    """A rule label: a value, an optional zero-variant tag, and a mark."""

    value: int
    variant: str = PLAIN
    marked: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("label values are non-negative")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != PLAIN and self.value != 0:
            raise ValueError("zero variants must carry value 0")

    def flipped(self) -> "Label":
        return Label(self.value, self.variant, not self.marked)


Label.__setattr__ = Label.__delattr__ = _refuse_mutation


@dataclass(frozen=True)
class Production:
    """One production arm: children `labels` at the parent's level + `jump`."""

    jump: int
    labels: tuple[Label, ...]

    def __post_init__(self):
        if self.jump < 1:
            raise ValueError("jumps must be >= 1")


@dataclass(frozen=True)
class RuleSpec:
    """A named rule: axiom plus the productions for each label value."""

    name: str
    axiom: Label
    produce: Callable[[int], tuple[Production, ...]]


@dataclass(frozen=True, init=False, repr=False)
class LevelCensus:
    """Signed label counts per level: unmarked minus marked occurrences.

    `rows[n]` is level n's census as one integer tuple indexed by label
    value.  A row spans values 0 up to its largest value with a nonzero
    count and stops there (an empty row when the level nets to nothing),
    so equal censuses have equal rows.  A row holds one entry per value up
    to that one, zero or not: short for the built-in rules, whose values
    exceed their level by at most two, but long for a rule whose values
    outgrow its levels.  `counts` is the same census as a dict of its
    nonzero cells, keyed by (level, value).
    """

    max_level: int
    rows: tuple[tuple[int, ...], ...]

    __hash__ = None  # a census is compared, never used as a key

    def __init__(self, max_level: int, counts: dict[tuple[int, int], int]):
        if max_level < 0:
            raise ValueError("max_level must be non-negative")
        rows: list[list[int]] = [[] for _ in range(max_level + 1)]
        for (lv, v), c in counts.items():
            if not 0 <= lv <= max_level:
                raise ValueError(f"census levels must lie in 0..{max_level}")
            if v < 0:
                raise ValueError("label values are non-negative")
            if c:
                row = rows[lv]
                row.extend([0] * (v + 1 - len(row)))
                row[v] = c
        self._set(max_level, tuple(map(tuple, rows)))

    @classmethod
    def _from_rows(cls, max_level: int, rows: tuple[tuple[int, ...], ...]) -> "LevelCensus":
        """A census of rows already in the trimmed form `rows` documents."""
        census = cls.__new__(cls)
        census._set(max_level, rows)
        return census

    def _set(self, max_level: int, rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "rows", rows)

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        return {(lv, v): c for lv, row in enumerate(self.rows)
                for v, c in enumerate(row) if c}

    def count(self, level: int, value: int) -> int:
        row = self.rows[level] if 0 <= level <= self.max_level else ()
        return row[value] if 0 <= value < len(row) else 0

    def totals(self) -> list[int]:
        return [sum(row) for row in self.rows]

    def max_value(self) -> int:
        return max((len(row) - 1 for row in self.rows if row), default=0)

    def matrix(self) -> list[list[int]]:
        """Every row padded with zeros to values 0..max_value()."""
        width = self.max_value() + 1
        return [list(row) + [0] * (width - len(row)) for row in self.rows]

    def triangle_rows(self) -> list[list[int]]:
        """Row n restricted to values 0..n, the layout of a lower triangle."""
        return [
            list(row[: lv + 1]) + [0] * (lv + 1 - len(row))
            for lv, row in enumerate(self.rows)
        ]

    def __repr__(self):
        return f"LevelCensus(max_level={self.max_level})"


def _difference(low: tuple, high: tuple, base: int) -> tuple:
    """The nonzero entries of value `high`'s signed child multiplicities
    minus value `low`'s, as (jump, child value minus `base`, multiplicity)
    triples in jump and value order.  `low` and `high` are the two values'
    productions, paired in rule order; two arms with the same jump skip
    their shared front labels: the whole shorter tuple when it is the
    other's front, else those before the first pair that are not one object."""
    signed: dict[tuple[int, int], int] = {}
    for x, y in itertools.zip_longest(low, high):
        a = () if x is None else x.labels
        b = () if y is None else y.labels
        shared = 0
        if a and b and x.jump == y.jump:
            shared = min(len(a), len(b))
            if a[:shared] != b[:shared]:
                shared = next(itertools.compress(itertools.count(), map(is_not, a, b)))
        for prod, labels, sign in ((x, a[shared:], -1), (y, b[shared:], 1)):
            for lab in labels:
                key = prod.jump, lab.value
                signed[key] = signed.get(key, 0) + (-sign if lab.marked else sign)
    return tuple((jump, value - base, d) for (jump, value), d in sorted(signed.items()) if d)


def expand(rule: RuleSpec, levels: int) -> LevelCensus:
    """Census the rule's tree down to `levels` by dynamic programming.

    Signs distribute over the per-level net counts, so nodes are never
    materialized: a level's census is the sum, over its values v with net
    count c(v), of c(v) times v's offspring P(v), the signed multiplicities
    of v's children per jump and label value.  The sum is telescoped: with
    the level's nonzero values v_1 < ... < v_m and suffix sums
    S_i = c(v_i) + ... + c(v_m), it equals the sum of S_i times
    P(v_i) - P(v_(i-1)), P(v_0) being zero.  Each difference is computed
    once per pair of values and kept as its nonzero entries, each child's
    value measured from the higher value of the pair.  For a rule whose
    consecutive offspring differ in O(1) entries, as every built-in rule's
    do, a level then costs O(values) additions and the whole census
    O(levels^2), not O(levels^3).

    Every term goes through one `spread`: a slice of suffix sums times one
    entry, added into the entry's target row.  Each level waits in
    `pending` as a list indexed by value, and its nonzero values fall into
    runs lo..hi of consecutive values.  A run's first value adds its
    difference from the previous nonzero value; the rest of the run splits
    into groups of consecutive values with equal differences from the value
    below, each added as one slice.  Every built-in rule's runs are one
    group each.

    Offspring are never stored: each reached value keeps its productions
    as `produce` returned them, and `_difference` counts only the labels
    past the front two arms share.  Every built-in rule's consecutive
    values share all but O(1) labels of each arm, the avoid rule's through
    grown tuples and the other three's through one label cache.  `produce`
    is called once for each value reached with a nonzero net count, and for
    no other value, in the order of the values within each level.  Every
    contribution to a level comes from lower levels, so a level is final
    when the sweep reaches it: its list, cut after its largest nonzero
    value, becomes the level's census row (see `LevelCensus`), and its
    bucket is dropped.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    # the counts of levels the sweep has not reached, by level and value
    axiom = rule.axiom
    pending = {0: [0] * axiom.value + [-1 if axiom.marked else 1]}
    produced: dict[int | None, tuple[Production, ...]] = {None: ()}
    differences: dict[tuple[int | None, int], tuple] = {}
    # steps[v]: the difference of the pair (v - 1, v), None until needed; one
    # equal to steps[v - 1] is stored as that object, so `groupby` compares
    # equal neighbours by identity
    steps: list[tuple | None] = []
    rows: list[tuple[int, ...]] = []

    def difference(low: int | None, high: int) -> tuple:
        diff = differences.get((low, high))
        if diff is None:
            if high not in produced:
                produced[high] = rule.produce(high)
            diff = differences[low, high] = _difference(produced[low], produced[high], high)
        return diff

    def spread(lv: int, diff: tuple, start: int, sums: list[int]) -> None:
        """Add sums[i] times each entry of `diff` for the value start + i."""
        for jump, offset, d in diff:
            if lv + jump <= levels:
                row = pending.setdefault(lv + jump, [])
                first, stop = start + offset, start + offset + len(sums)
                row.extend([0] * (stop - len(row)))
                terms = sums if d in (1, -1) else map(mul, sums, itertools.repeat(abs(d)))
                row[first:stop] = map(add if d > 0 else sub, row[first:stop], terms)

    for lv in range(levels + 1):
        counts = pending.pop(lv, [])
        while counts and not counts[-1]:
            counts.pop()
        rows.append(tuple(counts))
        sums = list(itertools.accumulate(reversed(counts)))  # S(v), by value
        sums.reverse()
        counts.append(0)  # ends the last run
        steps.extend([None] * (len(counts) - len(steps)))
        nonzero = itertools.compress(itertools.count(), counts)
        prev, lo = None, next(nonzero, None)
        while lo is not None:
            # the run of nonzero values lo..hi
            hi = counts.index(0, lo) - 1
            spread(lv, difference(prev, lo), lo, sums[lo : lo + 1])
            if None in steps[lo + 1 : hi + 1]:
                for v in range(steps.index(None, lo + 1), hi + 1):
                    step = difference(v - 1, v)
                    steps[v] = steps[v - 1] if step == steps[v - 1] else step
            start = lo + 1
            for step, group in itertools.groupby(steps[lo + 1 : hi + 1]):
                stop = start + len(list(group))
                spread(lv, step, start, sums[start:stop])
                start = stop
            prev = hi
            lo = next(itertools.islice(nonzero, hi - lo, None), None)
    return LevelCensus._from_rows(levels, tuple(rows))


def expand_exhaustive(
    rule: RuleSpec, levels: int, max_nodes: int = 10_000_000
) -> LevelCensus:
    """Census by materializing every node of the tree, one stack entry per
    node.  Exponential; exists to cross-check `expand`."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    counts: dict[tuple[int, int], int] = {}
    productions: dict[int, tuple[Production, ...]] = {}
    stack = [(0, rule.axiom.value, rule.axiom.marked)]
    seen = 0
    while stack:
        level, value, parity = stack.pop()
        seen += 1
        if seen > max_nodes:
            raise ValueError(f"expansion exceeds {max_nodes} nodes")
        key = (level, value)
        counts[key] = counts.get(key, 0) + (-1 if parity else 1)
        if value not in productions:
            productions[value] = rule.produce(value)
        for prod in productions[value]:
            target = level + prod.jump
            if target > levels:
                continue
            for lab in prod.labels:
                stack.append((target, lab.value, parity != lab.marked))
    return LevelCensus(levels, counts)


# -- built-in rules -----------------------------------------------------------


def catalan_plain_rule() -> RuleSpec:
    """Axiom (2); a node (k) makes (2)(3)...(k)(k+1) one level down."""
    label = functools.cache(Label)  # consecutive values share front labels

    def produce(k: int) -> tuple[Production, ...]:
        labels = tuple(map(label, range(2, k + 1))) + (label(k + 1),)
        return (Production(1, labels),)

    return RuleSpec("catalan-plain", Label(2), produce)


def catalan_marked_rule() -> RuleSpec:
    """The marked rewriting of the Catalan rule: (2)(3)...(k)(k+1)(k) plus
    a marked (k) that cancels the duplicate."""
    label = functools.cache(Label)

    def produce(k: int) -> tuple[Production, ...]:
        grown = tuple(map(label, range(2, k + 1))) + (label(k + 1), label(k))
        return (Production(1, grown), Production(1, (label(k, marked=True),)))

    return RuleSpec("catalan-marked", Label(2), produce)


def motzkin_jump_rule() -> RuleSpec:
    """Axiom (1); (k) makes (1)...(k-1)(k+1) one level down and a copy of
    itself two levels down."""
    label = functools.cache(Label)

    def produce(k: int) -> tuple[Production, ...]:
        near = tuple(map(label, range(1, k))) + (label(k + 1),)
        return (Production(1, near), Production(2, (label(k),)))

    return RuleSpec("motzkin-jump", Label(1), produce)


def avoid_rule(j: int) -> RuleSpec:
    """The rule whose census triangle counts avoiders of 1^(j+1) 0^j.

    Axiom (0); a node (k) makes k+3 children (0_1)(0_2)(1)...(k+1) one
    level down, and the same k+3 labels all marked j+1 levels down.  The
    rule keeps each value's two label tuples and grows the next value's
    from them by one label, so expanding it to L levels builds O(L) labels.
    """
    family_pattern(j)
    # plain[v] is (0_1)(0_2)(1)...(v), marked[v] its marked twin
    plain = [(Label(0, ZERO1), Label(0, ZERO2))]
    marked = [tuple(lab.flipped() for lab in plain[0])]

    def produce(k: int) -> tuple[Production, ...]:
        if k < 0:
            raise ValueError("label values are non-negative")
        while len(plain) < k + 2:
            v = len(plain)
            plain.append(plain[-1] + (Label(v),))
            marked.append(marked[-1] + (Label(v, marked=True),))
        return (Production(1, plain[k + 1]), Production(j + 1, marked[k + 1]))

    return RuleSpec(f"avoid-j{j}", Label(0), produce)
