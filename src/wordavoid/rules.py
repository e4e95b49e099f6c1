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

import itertools
from dataclasses import FrozenInstanceError, dataclass
from operator import add, mul, sub
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


def _arms(productions: tuple[Production, ...]) -> dict[int, tuple[tuple[Label, ...], ...]]:
    """The productions' own label tuples grouped by jump, in rule order."""
    arms: dict[int, tuple[tuple[Label, ...], ...]] = {}
    for prod in productions:
        arms[prod.jump] = arms.get(prod.jump, ()) + (prod.labels,)
    return arms


def _difference(low: dict[int, tuple], high: dict[int, tuple]):
    """The nonzero entries of value `high`'s signed child multiplicities
    minus value `low`'s, grouped by jump, read from their label tuples."""
    out = []
    for jump in sorted(low.keys() | high.keys()):
        a, b = low.get(jump, ()), high.get(jump, ())
        if len(a) == len(b) and all(y[: len(x)] == x for x, y in zip(a, b)):
            # each of low's tuples is a prefix of high's: only the appended
            # labels differ
            terms = [(lab, 1) for x, y in zip(a, b) for lab in y[len(x) :]]
        else:
            terms = [(lab, 1) for y in b for lab in y]
            terms += [(lab, -1) for x in a for lab in x]
        signed: dict[int, int] = {}
        for lab, sign in terms:
            signed[lab.value] = signed.get(lab.value, 0) + (-sign if lab.marked else sign)
        entries = tuple((value, d) for value, d in sorted(signed.items()) if d)
        if entries:
            out.append((jump, entries))
    return tuple(out)


def expand(rule: RuleSpec, levels: int) -> LevelCensus:
    """Census the rule's tree down to `levels` by dynamic programming.

    Signs distribute over the per-level net counts, so nodes are never
    materialized: a level's census is the sum, over its values v with net
    count c(v), of c(v) times v's offspring P(v), the signed multiplicities
    of v's children per jump and label value.  The sum is telescoped: with
    the level's nonzero values v_1 < ... < v_m and suffix sums
    S_i = c(v_i) + ... + c(v_m), it equals the sum of S_i times
    P(v_i) - P(v_(i-1)), P(v_0) being zero.  Each difference is computed
    once per pair of consecutive values and kept as its nonzero entries.
    For a rule whose consecutive offspring differ in O(1) entries, as every
    built-in rule's do, a level then costs O(values) updates and the whole
    census O(levels^2), not O(levels^3).

    The sweep takes a whole run of values at a time where it can.  Each
    level waits in `pending` as a list indexed by value, and its nonzero
    values fall into runs lo..hi of consecutive values.  A run's first
    value lo adds its difference from the previous nonzero value entry by
    entry.  When every pair (v - 1, v) inside the run differs by the same
    entries once a child's value is measured from v (the same jumps,
    offsets and signs: one shared `steps` object, found by a C-level
    `list.count`, so the test takes no Python step per value), the terms
    S(lo + 1..hi) times those entries land in each target row by one slice
    assignment per entry.  Every built-in rule's runs are of this kind;
    any other run adds its values' differences one value at a time.

    Offspring are never stored: each reached value keeps only the rule's
    own label tuples, grouped by jump, and a difference is read from them.
    Where the lower value's tuples are prefixes of the higher value's, as
    the avoid rule's and the plain Catalan rule's are, only the labels the
    higher value appends are read; otherwise both values' labels are
    counted in full.  `produce` is called once for each value reached with
    a nonzero net count, and for no other value, in the order of the values
    within each level.  Every contribution to a level comes from lower
    levels, so a level is final when the sweep reaches it: its list, cut
    after its largest nonzero value, becomes the level's census row (see
    `LevelCensus`), and its bucket is dropped.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    # the counts of levels the sweep has not reached, by level and value
    axiom = rule.axiom
    pending = {0: [0] * axiom.value + [-1 if axiom.marked else 1]}
    arms: dict[int | None, dict[int, tuple]] = {None: {}}
    differences: dict[tuple[int | None, int], tuple] = {}
    # steps[v]: the difference of the pair (v - 1, v) as (jump, child value
    # minus v, sign) triples, one object per distinct shape; None if unknown
    steps: list[tuple | None] = []
    shapes: dict[tuple, tuple] = {}
    rows: list[tuple[int, ...]] = []

    def difference(low: int | None, high: int) -> tuple:
        diff = differences.get((low, high))
        if diff is None:
            if high not in arms:
                arms[high] = _arms(rule.produce(high))
            diff = differences[low, high] = _difference(arms[low], arms[high])
        return diff

    def spread(diff: tuple, lv: int, factor: int) -> None:
        for jump, entries in diff:
            if lv + jump <= levels:
                row = pending.setdefault(lv + jump, [])
                if len(row) <= entries[-1][0]:
                    row.extend([0] * (entries[-1][0] + 1 - len(row)))
                for w, d in entries:
                    row[w] += factor * d

    def shared_step(lo: int, hi: int) -> tuple | None:
        """The step all pairs (v - 1, v) of the run lo..hi share, if any."""
        steps.extend([None] * (hi + 1 - len(steps)))
        v = lo
        while None in steps[v + 1 : hi + 1]:
            v = steps.index(None, v + 1, hi + 1)
            step = tuple((jump, w - v, d) for jump, entries in difference(v - 1, v)
                         for w, d in entries)
            steps[v] = shapes.setdefault(step, step)
        return steps[hi] if steps[lo + 1 : hi + 1].count(steps[hi]) == hi - lo else None

    for lv in range(levels + 1):
        counts = pending.pop(lv, [])
        while counts and not counts[-1]:
            counts.pop()
        rows.append(tuple(counts))
        counts.append(0)  # ends the last run
        suffix = sum(counts)
        nonzero = itertools.compress(itertools.count(), counts)
        prev, lo = None, next(nonzero, None)
        while lo is not None:
            # the run of nonzero values lo..hi
            hi = counts.index(0, lo) - 1
            spread(difference(prev, lo), lv, suffix)
            rest = suffix - sum(counts[lo : hi + 1])  # S(hi + 1)
            step = shared_step(lo, hi) if hi > lo else None
            if step is None:
                for v in range(lo + 1, hi + 1):
                    suffix -= counts[v - 1]
                    spread(difference(v - 1, v), lv, suffix)
            else:
                # the suffix sums S(lo + 1..hi)
                sums = list(itertools.accumulate(reversed(counts[lo + 1 : hi + 1]),
                                                 initial=rest))[:0:-1]
                for jump, offset, d in step:
                    if lv + jump <= levels:
                        row = pending.setdefault(lv + jump, [])
                        start, stop = lo + 1 + offset, hi + 1 + offset
                        row.extend([0] * (stop - len(row)))
                        terms = sums if d in (1, -1) else map(mul, sums, itertools.repeat(abs(d)))
                        row[start:stop] = map(add if d > 0 else sub, row[start:stop], terms)
            suffix, prev = rest, hi
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

    def produce(k: int) -> tuple[Production, ...]:
        labels = tuple(Label(v) for v in range(2, k + 1)) + (Label(k + 1),)
        return (Production(1, labels),)

    return RuleSpec("catalan-plain", Label(2), produce)


def catalan_marked_rule() -> RuleSpec:
    """The marked rewriting of the Catalan rule: (2)(3)...(k)(k+1)(k) plus
    a marked (k) that cancels the duplicate."""

    def produce(k: int) -> tuple[Production, ...]:
        grown = tuple(Label(v) for v in range(2, k + 1)) + (Label(k + 1), Label(k))
        return (
            Production(1, grown),
            Production(1, (Label(k, marked=True),)),
        )

    return RuleSpec("catalan-marked", Label(2), produce)


def motzkin_jump_rule() -> RuleSpec:
    """Axiom (1); (k) makes (1)...(k-1)(k+1) one level down and a copy of
    itself two levels down."""

    def produce(k: int) -> tuple[Production, ...]:
        near = tuple(Label(v) for v in range(1, k)) + (Label(k + 1),)
        return (Production(1, near), Production(2, (Label(k),)))

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
