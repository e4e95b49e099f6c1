"""The benchmark's own reference computations.

Nothing here imports wordavoid: every value the checks compare against is
computed by a route of its own.  Word counts come from brute force over all
short words and from a dynamic program whose states are raw word suffixes
(not the pattern's prefix automaton).  Series identities are tested with
plain integer arithmetic.  Node counts of the construction come from an
unsigned dynamic program over the avoid rule as the paper states it.
"""

from __future__ import annotations

BRUTE_FORCE_LENGTH = 16


def family_pattern(j: int) -> str:
    return "1" * (j + 1) + "0" * j


def autocorrelation(p: str) -> tuple[int, ...]:
    h = len(p)
    return tuple(int(p[i:] == p[: h - i]) for i in range(h))


def correlation_terms(p: str) -> list[tuple[int, int]]:
    """(ones, zeros) of the tail p[h-i:] for every shift i with c_i = 1."""
    h = len(p)
    out = []
    for i, c in enumerate(autocorrelation(p)):
        if c:
            tail = p[h - i :]
            out.append((tail.count("1"), tail.count("0")))
    return out


def occurrences(word: str, p: str) -> int:
    return sum(word.startswith(p, i) for i in range(len(word) - len(p) + 1))


# -- counts of avoiders by (ones, zeros) ------------------------------------


def brute_force_counts(patterns, max_len: int = BRUTE_FORCE_LENGTH):
    """counts[p][ones][zeros] for every word of length <= max_len."""
    counts = {p: [[0] * (max_len + 1) for _ in range(max_len + 1)] for p in patterns}
    for length in range(max_len + 1):
        for x in range(1 << length):
            word = format(x, "b").zfill(length) if length else ""
            ones = word.count("1")
            for p in patterns:
                if p not in word:
                    counts[p][ones][length - ones] += 1
    return counts


def suffix_dp_counts(p: str, max_ones: int, max_zeros: int) -> list[list[int]]:
    """counts[ones][zeros] of words avoiding p, by a DP whose state is the
    word's last len(p) - 1 letters (fewer while the word is shorter)."""
    keep = len(p) - 1
    index = {"": 0}
    suffixes = [""]
    step = []  # step[s] = (next state on '0', next state on '1'), -1 if forbidden
    s = 0
    while s < len(suffixes):
        nxt = []
        for letter in "01":
            word = suffixes[s] + letter
            if word.endswith(p):
                nxt.append(-1)
                continue
            tail = word[-keep:] if keep else ""
            if tail not in index:
                index[tail] = len(suffixes)
                suffixes.append(tail)
            nxt.append(index[tail])
        step.append(tuple(nxt))
        s += 1
    n = len(suffixes)
    counts = []
    prev = None
    for ones in range(max_ones + 1):
        row = []
        for zeros in range(max_zeros + 1):
            vec = [0] * n
            if ones == 0 and zeros == 0:
                vec[0] = 1
            if zeros:
                for s, c in enumerate(row[zeros - 1]):
                    if c and step[s][0] >= 0:
                        vec[step[s][0]] += c
            if ones:
                for s, c in enumerate(prev[zeros]):
                    if c and step[s][1] >= 0:
                        vec[step[s][1]] += c
            row.append(vec)
        counts.append([sum(v) for v in row])
        prev = row
    return counts


class CountTable:
    """Avoider counts of one pattern: brute force for words of length up to
    BRUTE_FORCE_LENGTH, the suffix DP beyond.  The two routes are compared
    where they overlap when the table is built."""

    def __init__(self, p: str, size: int, brute: list[list[int]]):
        self.pattern = p
        self.size = size
        self.dp = suffix_dp_counts(p, size, size)
        self.brute = brute
        for ones in range(BRUTE_FORCE_LENGTH + 1):
            for zeros in range(BRUTE_FORCE_LENGTH + 1 - ones):
                if ones <= size and zeros <= size and self.dp[ones][zeros] != brute[ones][zeros]:
                    raise RuntimeError(
                        f"reference routes disagree for {p} at ({ones}, {zeros})"
                    )

    def count(self, ones: int, zeros: int) -> int:
        if ones + zeros <= BRUTE_FORCE_LENGTH:
            return self.brute[ones][zeros]
        return self.dp[ones][zeros]


def count_tables(sizes: dict[str, int]) -> dict[str, CountTable]:
    """One CountTable per pattern, each covering ones, zeros <= its size."""
    brute = brute_force_counts(sorted(sizes))
    return {p: CountTable(p, size, brute[p]) for p, size in sizes.items()}


def avoiders(p: str, ones: int, max_zeros: int) -> set[str]:
    """Every word with `ones` ones and at most `max_zeros` zeros avoiding p,
    by depth-first growth that stops at the first occurrence."""
    out = set()
    stack = [("", 0, 0)]
    while stack:
        word, o, z = stack.pop()
        if o == ones:
            out.add(word)
        if o < ones and not (word + "1").endswith(p):
            stack.append((word + "1", o + 1, z))
        if z < max_zeros and not (word + "0").endswith(p):
            stack.append((word + "0", o, z + 1))
    return out


# -- integer power series, truncated at t^n ----------------------------------


def s_mul(a, b, n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for k, y in enumerate(b[: n + 1 - i]):
                out[i + k] += x * y
    return out


def s_pow(a, e: int, n: int) -> list[int]:
    out = [1] + [0] * n
    for _ in range(e):
        out = s_mul(out, a, n)
    return out


def s_inverse(a, n: int) -> list[int]:
    """1/a for a unit constant term a[0] = +-1."""
    if a[0] not in (1, -1):
        raise ValueError("integer inverse needs constant term +-1")
    out = []
    for k in range(n + 1):
        acc = (1 if k == 0 else 0) - sum(a[i] * out[k - i] for i in range(1, k + 1) if i < len(a))
        out.append(acc * a[0])
    return out


def s_compose(f, g, n: int) -> list[int]:
    """f(g(t)) for g(0) = 0."""
    if g[0] != 0:
        raise ValueError("composition needs g(0) = 0")
    acc = [0] * (n + 1)
    for c in reversed(f[: n + 1]):
        acc = s_mul(acc, g, n)
        acc[0] += c
    return acc


def s_poly(terms: dict[int, int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for e, c in terms.items():
        if e <= n:
            out[e] += c
    return out


def family_h_ref(j: int, n: int) -> list[int]:
    """h from its functional equation h = t + h^2 - t^(j+1)."""
    h = [0] * (n + 1)
    for k in range(1, n + 1):
        h[k] = (k == 1) - (k == j + 1) + sum(h[i] * h[k - i] for i in range(1, k))
    return h


def family_d_ref(j: int, n: int) -> list[int]:
    """d = 1/(1 - 2h), since sqrt(1 - 4t + 4t^(j+1)) = 1 - 2h."""
    h = family_h_ref(j, n)
    return s_inverse([1] + [-2 * c for c in h[1:]], n)


# -- succession rules, unsigned and plain -------------------------------------


def avoid_rule_level_sizes(j: int, levels: int) -> list[int]:
    """Nodes per level of the avoid rule's tree: a node (k) has k + 3
    children one level down and k + 3 more j + 1 levels down, with values
    0, 0, 1, ..., k + 1 in both groups; marks do not change the count."""
    per_level = [dict() for _ in range(levels + 1)]
    per_level[0][0] = 1
    for lv in range(levels + 1):
        for k, c in per_level[lv].items():
            for target in (lv + 1, lv + j + 1):
                if target <= levels:
                    bucket = per_level[target]
                    for v in [0, 0] + list(range(1, k + 2)):
                        bucket[v] = bucket.get(v, 0) + c
    return [sum(b.values()) for b in per_level]


def catalan_census(levels: int) -> list[list[int]]:
    """census[level][value] of the plain Catalan rule: axiom (2), and a
    node (k) has children (2), (3), ..., (k + 1)."""
    rows = [{2: 1}]
    for _ in range(levels):
        nxt: dict[int, int] = {}
        for k, c in rows[-1].items():
            for v in range(2, k + 2):
                nxt[v] = nxt.get(v, 0) + c
        rows.append(nxt)
    width = max(max(r) for r in rows) + 1
    return [[r.get(v, 0) for v in range(width)] for r in rows]
