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

from dataclasses import FrozenInstanceError, dataclass
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
    """Signed label counts per level: unmarked minus marked occurrences."""

    max_level: int
    counts: dict[tuple[int, int], int]

    __hash__ = None  # counts is a dict

    def __init__(self, max_level: int, counts: dict[tuple[int, int], int]):
        if any(not 0 <= lv <= max_level for lv, _ in counts):
            raise ValueError(f"census levels must lie in 0..{max_level}")
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "counts", {key: c for key, c in counts.items() if c != 0})

    def count(self, level: int, value: int) -> int:
        return self.counts.get((level, value), 0)

    def totals(self) -> list[int]:
        out = [0] * (self.max_level + 1)
        for (lv, _), c in self.counts.items():
            out[lv] += c
        return out

    def max_value(self) -> int:
        return max((v for (_, v) in self.counts), default=0)

    def matrix(self) -> list[list[int]]:
        width = self.max_value() + 1
        return [
            [self.count(lv, v) for v in range(width)]
            for lv in range(self.max_level + 1)
        ]

    def triangle_rows(self) -> list[list[int]]:
        """Row n restricted to values 0..n, the layout of a lower triangle."""
        return [
            [self.count(lv, v) for v in range(lv + 1)]
            for lv in range(self.max_level + 1)
        ]

    def __repr__(self):
        return f"LevelCensus(max_level={self.max_level})"


def _row(productions: tuple[Production, ...]) -> dict[int, dict[int, int]]:
    """Signed child multiplicities per jump and label value: a marked label
    counts -1, so a label and its flipped twin in one jump cancel."""
    row: dict[int, dict[int, int]] = {}
    for prod in productions:
        arm = row.setdefault(prod.jump, {})
        for lab in prod.labels:
            arm[lab.value] = arm.get(lab.value, 0) + (-1 if lab.marked else 1)
    return row


def _difference(low: dict[int, dict[int, int]], high: dict[int, dict[int, int]]):
    """The nonzero entries of row `high` minus row `low`, grouped by jump."""
    out = []
    for jump in sorted(low.keys() | high.keys()):
        a, b = low.get(jump, {}), high.get(jump, {})
        entries = tuple(
            (value, b.get(value, 0) - a.get(value, 0))
            for value in sorted(a.keys() | b.keys())
            if b.get(value, 0) != a.get(value, 0)
        )
        if entries:
            out.append((jump, entries))
    return tuple(out)


def expand(rule: RuleSpec, levels: int) -> LevelCensus:
    """Census the rule's tree down to `levels` by dynamic programming.

    Signs distribute over the per-level net counts, so nodes are never
    materialized: a level's census is the sum, over its values v with net
    count c(v), of c(v) times v's row R(v), the signed multiplicities of
    v's children per jump and label value.  The sum is telescoped: with
    the level's nonzero values v_1 < ... < v_m and suffix sums
    S_i = c(v_i) + ... + c(v_m), it equals the sum of S_i times
    R(v_i) - R(v_(i-1)), R(v_0) being zero.  Each difference is computed
    once per pair of consecutive values and kept as its nonzero entries.
    For a rule whose consecutive rows differ in O(1) entries, as every
    built-in rule's do, a level then costs O(values) updates and the whole
    census O(levels^2), not O(levels^3).  `produce` is called once for each
    value reached with a nonzero net count, and for no other value; the
    avoid rule's rows come from O(levels) labels in all, since its `produce`
    grows each value's labels from the previous value's.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    per_level: list[dict[int, int]] = [{} for _ in range(levels + 1)]
    per_level[0][rule.axiom.value] = -1 if rule.axiom.marked else 1
    rows: dict[int | None, dict[int, dict[int, int]]] = {None: {}}
    differences: dict[tuple[int | None, int], tuple] = {}
    for lv in range(levels + 1):
        counts = per_level[lv]
        values = sorted(v for v, c in counts.items() if c)
        suffix = sum(counts.values())
        prev = None
        for value in values:
            diff = differences.get((prev, value))
            if diff is None:
                if value not in rows:
                    rows[value] = _row(rule.produce(value))
                diff = differences[prev, value] = _difference(rows[prev], rows[value])
            for jump, entries in diff:
                target = lv + jump
                if target > levels:
                    continue
                bucket = per_level[target]
                for w, d in entries:
                    bucket[w] = bucket.get(w, 0) + suffix * d
            suffix -= counts[value]
            prev = value
    counts = {
        (lv, value): c
        for lv, bucket in enumerate(per_level)
        for value, c in bucket.items()
    }
    return LevelCensus(levels, counts)


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
