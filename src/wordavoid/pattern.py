"""Forbidden factors of binary words.

A word is a string over {'0', '1'}; a pattern is a nonempty word that must
not occur as a factor (a block of consecutive letters).  Counting words by
(number of ones, number of zeros) that avoid the pattern is done three ways
that must agree: a closed generating function built from the pattern's
autocorrelation, a prefix-automaton dynamic program, and plain exhaustive
enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .series import BSeries

ENUMERATION_LIMIT = 22


class TooLarge(ValueError):
    """A size guard was exceeded: enumeration past its word length, or a
    tree past its level guard (raised by module `paths` too)."""


@dataclass(frozen=True)
class Pattern:
    """A nonempty binary word used as a forbidden factor."""

    bits: str

    def __post_init__(self):
        if not isinstance(self.bits, str) or not self.bits or self.bits.strip("01"):
            raise ValueError("pattern must be a nonempty string over 0/1")

    @property
    def ones(self) -> int:
        return self.bits.count("1")

    @property
    def zeros(self) -> int:
        return self.bits.count("0")

    def reverse(self) -> "Pattern":
        return Pattern(self.bits[::-1])

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits


def as_pattern(p: "Pattern | str") -> Pattern:
    return p if isinstance(p, Pattern) else Pattern(p)


@lru_cache(maxsize=64, typed=True)
def family_pattern(j: int) -> str:
    """The family's forbidden factor 1^(j+1) 0^j; j must be at least 1.

    Cached, since the construction asks for it on every checked path.  The
    cache is bounded, and typed so that a j such as 1.0 still fails."""
    if j < 1:
        raise ValueError("the family parameter j must be >= 1")
    return "1" * (j + 1) + "0" * j


def autocorrelation(p: "Pattern | str") -> tuple[int, ...]:
    """The vector (c_0, ..., c_{h-1}) with c_i = 1 iff the pattern's prefix
    of length h - i equals its suffix of length h - i.  c_0 is always 1."""
    bits = as_pattern(p).bits
    h = len(bits)
    return tuple(1 if bits[: h - i] == bits[i:] else 0 for i in range(h))


def correlation_terms(p: "Pattern | str") -> list[tuple[int, int]]:
    """(ones, zeros) of each pattern tail marked by the autocorrelation.

    Shift i with c_i = 1 contributes the tail of length i; shift 0
    contributes the empty tail (0, 0).  Ordered by increasing shift.
    """
    bits = as_pattern(p).bits
    h = len(bits)
    terms = []
    for i, c in enumerate(autocorrelation(bits)):
        if c:
            tail = bits[h - i :]
            terms.append((tail.count("1"), tail.count("0")))
    return terms


def correlation_polynomial(p: "Pattern | str", order: int) -> BSeries:
    """The correlation polynomial as a bivariate series, x marking ones and
    y marking zeros of each tail, truncated to the grid 0..order like any
    `BSeries.from_terms`: a term past the grid drops."""
    return BSeries.from_terms({t: 1 for t in correlation_terms(p)}, order)


def avoider_table(p: "Pattern | str", order: int) -> BSeries:
    """Entry (n, k): words with n ones and k zeros avoiding the pattern.

    Computed as C / D with D = (1 - x - y) C + x^a y^b, C the correlation
    polynomial and (a, b) the pattern's letter counts.  Only C's terms on
    the grid are kept: a term past it reaches only cells of D past it, so
    the retained entries are exact for any order.  D is summed term by term
    from those, adding rather than overwriting, since neighbouring terms
    cancel (for 1^h only 1 - (1 + x + ... + x^(h-1)) y is left).  So the
    table builds three grids, C, D and the quotient, and no product.  D has
    t <= 3|C| + 1 nonzero terms, and the division visits only those, so the
    table costs O(order^2 * t) after the O(len(p)^2) autocorrelation.
    """
    p = as_pattern(p)
    terms = [(a, b) for a, b in correlation_terms(p) if a <= order and b <= order]
    denom = {(p.ones, p.zeros): 1}
    for a, b in terms:
        for cell, sign in (((a, b), 1), ((a + 1, b), -1), ((a, b + 1), -1)):
            denom[cell] = denom.get(cell, 0) + sign
    c = BSeries.from_terms(dict.fromkeys(terms, 1), order)
    return c / BSeries.from_terms(denom, order)


# -- oracles ----------------------------------------------------------------


def _arrangements(ones: int, zeros: int):
    n = ones + zeros
    for positions in itertools.combinations(range(n), ones):
        letters = ["0"] * n
        for i in positions:
            letters[i] = "1"
        yield "".join(letters)


def _check_size(ones: int, zeros: int) -> None:
    if ones < 0 or zeros < 0:
        raise ValueError("letter counts must be non-negative")
    if ones + zeros > ENUMERATION_LIMIT:
        raise TooLarge(
            f"refusing to enumerate words of length {ones + zeros} "
            f"(limit {ENUMERATION_LIMIT})"
        )


def avoiding_words(p: "Pattern | str", ones: int, zeros: int) -> set[str]:
    """Every word with the given letter counts avoiding the pattern."""
    p = as_pattern(p)
    _check_size(ones, zeros)
    return {w for w in _arrangements(ones, zeros) if p.bits not in w}


def count_by_enumeration(p: "Pattern | str", ones: int, zeros: int) -> int:
    """Avoider count by direct enumeration; guarded by ENUMERATION_LIMIT."""
    p = as_pattern(p)
    _check_size(ones, zeros)
    return sum(1 for w in _arrangements(ones, zeros) if p.bits not in w)


def _live_transitions(bits: str) -> list[list[tuple[int, int]]]:
    """For letters 0 and 1, the prefix automaton's (state, next) pairs that
    do not complete a match, built in one pass (Knuth, Morris & Pratt 1977):
    row s copies the row of the restart state x, the state reached on
    bits[1:s], then moves on bits[s] to s + 1.  Only the last of those moves
    reaches the full-match state len(bits), and it is left out."""
    h = len(bits)
    rows: list[list[int]] = []
    x = 0
    for s, letter in enumerate(bits):
        row = rows[x].copy() if rows else [0, 0]
        b = int(letter)
        x = row[b]  # the restart state's move on bits[s], read before it is set
        row[b] = s + 1
        rows.append(row)
    return [[(s, row[b]) for s, row in enumerate(rows) if row[b] < h] for b in (0, 1)]


def _zero_sweep(on_zero: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], int | None]:
    """The live zero moves in the order a row sweeps them, and the loop state.

    Every state has at most one live zero move.  Followed from any state,
    they end within len(bits) moves at the state of the pattern's
    leading-zero run, the one state a zero leaves in place, or at a state
    whose zero completes a match (for 0^h there is no loop state).  So the
    zero moves form trees, and sweeping states in decreasing distance from
    where their moves end finishes each state's list before it is pushed
    on."""
    succ = dict(on_zero)
    loop = next((s for s, t in on_zero if s == t), None)

    def distance(s: int) -> int:
        d = 0
        while s != loop and s in succ:
            s, d = succ[s], d + 1
        return d

    moves = [(s, t) for s, t in on_zero if s != loop]
    moves.sort(key=lambda move: -distance(move[0]))
    return moves, loop


def count_by_automaton(p: "Pattern | str", ones: int, zeros: int) -> int:
    """Avoider count by dynamic programming over the pattern's prefix
    automaton, with the full-match state forbidden.  Polynomial in the
    letter counts, so no size guard is needed.

    Only the live transitions enter the sweep: for each letter, the
    (state, next) pairs that do not complete a match, which
    `_live_transitions` builds in one pass.  The cells with i ones form row
    i, held as one list over the zero count per state, and every step
    moves a whole list.  Within a row, the states are swept in decreasing
    distance from where their zero moves end (`_zero_sweep`): each state's
    finished list, shifted by one zero, is added to its zero successor's,
    and the loop state, which a zero leaves in place, takes prefix sums.  The ones
    are then moved into the next row a state list at a time.  Lists are
    never changed in place, so a state with a single source shares its
    list, and the all-zero list is never added.  The cost is
    O(ones * zeros * live transitions) additions, each row's done by a few
    list operations per state.
    """
    p = as_pattern(p)
    if ones < 0 or zeros < 0:
        raise ValueError("letter counts must be non-negative")
    h = len(p.bits)
    on_zero, on_one = _live_transitions(p.bits)
    moves, loop = _zero_sweep(on_zero)
    empty = [0] * (zeros + 1)
    # row[s][z]: words with i ones and z zeros that end in state s
    row = [empty] * h
    row[0] = [1] + empty[1:]
    for i in range(ones + 1):
        for s, t in moves:
            src = row[s]
            if src is empty:
                continue
            shifted = [0] + src[:-1]
            row[t] = shifted if row[t] is empty else list(map(add, row[t], shifted))
        if loop is not None and row[loop] is not empty:
            row[loop] = list(itertools.accumulate(row[loop]))
        if i == ones:
            break
        nxt = [empty] * h
        for s, t in on_one:
            src = row[s]
            if src is not empty:
                nxt[t] = src if nxt[t] is empty else list(map(add, nxt[t], src))
        row = nxt
    return sum(states[zeros] for states in row)
