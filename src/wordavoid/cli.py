"""Command-line frontend.

Subcommands expose the avoider table, the two triangles, the family's
series, rule censuses, the path construction, and the consistency battery.
This module renders every output except a series' text form, which
`USeries.text()` gives: the library returns checked integers and tree
nodes, and the csv and json forms of a node are defined here.  Every
list-shaped output, a json array or one line per item, comes from `_lines`.
The module loads no wordavoid module itself: each command imports the
modules it runs, so `autocorr` never loads the construction or the battery.
Each subcommand declares its size caps where the parser declares it, and
`main` checks them all before the command loads a module; the parser itself
refuses a pattern longer than its cap.
Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors (including sizes beyond the built-in guards), 141 (128 + SIGPIPE)
when the reader closes standard output before the command has written
all of it, as `| head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

FORMATS = ("csv", "json", "text")

# Caps on user-sized inputs, each declared with its subcommand in
# `_build_parser` and checked in `main` before the command loads a module, so
# an over-cap command does no work.  The slowest call at each cap, min of 3 in
# process (Python 3.11, 2-CPU Linux VM): avoider_table at order 40 about
# 0.006 s for a long self-overlapping pattern such as (10)^20, whose divisor
# has the most terms, and 0.0014 s for a 7-letter one; family_z at series
# order 100 about 0.2 s, family_a at most 0.07 s for j up to 99; run_checks
# at verify order 80 with two levels about 0.37 s for any j.  Expand of the
# avoid rule at 300 levels takes 0.021-0.023 s for j = 1..3, the best of 8
# rounds of min of 5 (the rounds' median 0.026-0.029 s), and the whole
# command `rule avoid 300 --j 3 csv` 0.16 s, the median of 8 fresh
# processes (0.14-0.17 s).  A rule census prints (L+1)^2 big integers, which
# also bounds its cap.  The family's j goes no higher than the rule cap: a
# marked jump of j + 1 levels beyond the last one never fires.  At j = 300,
# family_a at order 100 takes about 0.11 s, expand of the avoid rule at 300
# levels (j = 299) 0.017 s (best of the same 8 rounds; median 0.026 s) and
# build_tree to level 8 0.15 s.  The other rules at 300 levels, best of 8
# rounds of min of 5 (the rounds' median): Motzkin 0.037 s (0.039 s), marked
# Catalan 0.020 s (0.021 s), plain Catalan 0.017 s (0.018 s); `rule motzkin2
# 300 csv` 0.15 s and `rule catalan-marked 300 csv` 0.13 s, the median of 8
# fresh processes.  The pattern's length is checked by `_pattern_arg` while
# argparse parses, so before any command module loads: autocorrelation and
# correlation_terms slice or count every tail, so their cost is quadratic.
# For 1^h, the worst of four shapes measured, avoider_table at order 40 takes
# 0.055 s at h = 10,000 and 0.21 s at h = 20,000 (min of 3), and autocorr
# the same.
TABLE_ORDER_CAP = 40
SERIES_ORDER_CAP = 100
VERIFY_ORDER_CAP = 80
RULE_LEVELS_CAP = 300
J_CAP = RULE_LEVELS_CAP
PATTERN_LENGTH_CAP = 10_000

PIPE_CLOSED = 141  # the exit code of a write to a closed pipe: 128 + SIGPIPE


def _pattern_arg(text: str) -> str:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError("pattern must be a nonempty 0/1 string")
    if len(text) > PATTERN_LENGTH_CAP:
        raise argparse.ArgumentTypeError(
            f"pattern must be at most {PATTERN_LENGTH_CAP} letters")
    return text


def _json(value) -> str:
    """Compact JSON, the form of every json output."""
    return json.dumps(value, separators=(",", ":"))


def _lines(fmt: str, items, as_json=_json, as_line=str):
    """A list-shaped output a piece at a time, for `sys.stdout.writelines`:
    for `json` one compact array of the items' `as_json` forms, else one
    `as_line(item)` line per item.  No output's serialized form is held
    whole, so a level of nodes goes out one node at a time."""
    if fmt != "json":
        for item in items:
            yield as_line(item) + "\n"
        return
    yield "["
    sep = ""
    for item in items:
        yield sep + as_json(item)
        sep = ","
    yield "]\n"


def render_matrix(rows, fmt: str) -> str:
    """Integer rows as text: `csv` lines, one compact `json` array, or
    right-aligned `text` columns.  Every format ends in a newline."""
    if fmt == "text":
        width = max((len(str(c)) for row in rows for c in row), default=1)
        return "".join(" ".join(str(c).rjust(width) for c in row) + "\n" for row in rows)
    return "".join(_lines(fmt, rows, as_line=lambda row: ",".join(map(str, row))))


def _poly_text(terms: list[tuple[int, int]]) -> str:
    parts = []
    for a, b in terms:
        piece = ""
        if a:
            piece += "x" if a == 1 else f"x^{a}"
        if b:
            piece += "y" if b == 1 else f"y^{b}"
        parts.append(piece or "1")
    return "+".join(parts)


def cmd_autocorr(args) -> int:
    from . import pattern

    vector = pattern.autocorrelation(args.pattern)
    terms = pattern.correlation_terms(args.pattern)
    rendered = f"c=({','.join(map(str, vector))}); C={_poly_text(terms)}"
    if args.format == "json":
        print(_json({"c": list(vector), "terms": [list(t) for t in terms]}))
    else:
        print(rendered)
    return 0


def cmd_table(args) -> int:
    from . import pattern

    table = pattern.avoider_table(args.pattern, args.order)
    sys.stdout.write(render_matrix(table.integer_rows(), args.format))
    return 0


def cmd_triangle(args) -> int:
    from . import pattern, riordan

    if (args.pattern is None) == (args.j is None):
        raise ValueError("give exactly one of PATTERN and --j")
    bits = args.pattern or pattern.family_pattern(args.j)
    lower, upper = riordan.triangles_from_table(pattern.avoider_table(bits, args.order))
    triangle = upper if args.bar else lower
    sys.stdout.write(render_matrix(triangle.rows, args.format))
    return 0


def cmd_series(args) -> int:
    from . import riordan

    series = getattr(riordan, f"family_{args.kind}")(args.j, args.order)
    if args.format == "text":
        print(series.text())
    elif args.format == "csv":
        print(",".join(map(str, series.integer_coeffs())))
    else:
        sys.stdout.writelines(_lines("json", series.integer_coeffs()))
    return 0


# rule name -> the `rules` function that builds it
_RULES = {
    "catalan-plain": "catalan_plain_rule",
    "catalan-marked": "catalan_marked_rule",
    "motzkin2": "motzkin_jump_rule",
    "avoid": "avoid_rule",
}


def cmd_rule(args) -> int:
    from . import rules

    make = getattr(rules, _RULES[args.name])
    if (args.j is None) == (args.name == "avoid"):
        raise ValueError("--j is required by the avoid rule and taken by no other")
    spec = make() if args.j is None else make(args.j)
    census = rules.expand(spec, args.levels)
    sys.stdout.write(render_matrix(census.matrix(), args.format))
    return 0


def _node_json(node) -> str:
    """The stable json form of a tree node."""
    label = node.label
    return _json({
        "word": node.path.steps,
        "marks": list(node.path.marks),
        "label": {"value": label.value, "variant": label.variant, "marked": label.marked},
        "level": node.level,
    })


def _node_csv(node) -> str:
    label = node.label
    marks = ";".join(map(str, node.path.marks))
    return f"{node.path.steps},{marks},{label.value},{label.variant},{label.marked}"


def cmd_construct(args) -> int:
    from . import paths

    fmt = args.format
    if args.what == "survivors":
        sys.stdout.writelines(_lines(fmt, sorted(paths.survivors(args.j, args.level))))
    elif args.what == "nodes":
        nodes = paths.build_tree(args.j, args.level)[args.level]
        line = _node_csv if fmt == "csv" else _node_json
        sys.stdout.writelines(_lines(fmt, nodes, _node_json, line))
    else:
        census = paths.signed_census(paths.build_tree(args.j, args.level))
        sys.stdout.write(render_matrix(census.matrix(), fmt))
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.j, args.levels, args.order)
    sys.stdout.writelines(_lines(
        args.format, results,
        lambda r: _json({"name": r.name, "passed": r.passed, "detail": r.detail}),
        lambda r: f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}"))
    return 0 if all(r.passed for r in results) else 1


def _format_options(argv: list[str]) -> list[str]:
    """Each bare format word as `--format=WORD`, so that every command takes
    its format anywhere in its arguments.  No positional can be a format
    word; a word that is the value of `--format` (or of a prefix argparse
    would accept for it) is left alone."""
    out = []
    prev = ""
    for word in argv:
        is_value = len(prev) > 2 and "--format".startswith(prev)
        out.append(f"--format={word}" if word in FORMATS and not is_value else word)
        prev = word
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordavoid",
        description="count and build binary words avoiding a forbidden factor",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format; a bare csv, json or text word means the same")

    def add(name: str, func, summary: str, **caps: int) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, parents=[common], help=summary)
        sub.set_defaults(func=func, caps={"j": J_CAP, **caps})
        return sub

    sub = add("autocorr", cmd_autocorr, "autocorrelation vector and polynomial")
    sub.add_argument("pattern", type=_pattern_arg)

    sub = add("table", cmd_table, "avoider counts by (ones, zeros)", order=TABLE_ORDER_CAP)
    sub.add_argument("pattern", type=_pattern_arg)
    sub.add_argument("order", type=int)

    sub = add("triangle", cmd_triangle, "avoider triangles", order=TABLE_ORDER_CAP)
    sub.add_argument("pattern", nargs="?", type=_pattern_arg,
                     help="the forbidden factor; omit it when giving --j")
    sub.add_argument("order", type=int)
    sub.add_argument("--j", type=int, default=None)
    sub.add_argument("--bar", action="store_true", help="emit the upper triangle")

    sub = add("series", cmd_series, "family series", order=SERIES_ORDER_CAP)
    sub.add_argument("kind", choices=("d", "h", "a", "z"))
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--order", type=int, default=9)

    sub = add("rule", cmd_rule, "signed census of a built-in rule",
              levels=RULE_LEVELS_CAP)
    sub.add_argument("name", choices=sorted(_RULES))
    sub.add_argument("levels", type=int)
    sub.add_argument("--j", type=int, default=None)

    sub = add("construct", cmd_construct, "materialize the path tree")
    sub.add_argument("what", nargs="?", choices=("survivors", "nodes", "census"),
                     default="survivors")
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--level", type=int, required=True)

    sub = add("verify", cmd_verify, "run the consistency battery", order=VERIFY_ORDER_CAP)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--levels", type=int, required=True)
    sub.add_argument("--order", type=int, default=12)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_format_options(argv))
    try:
        for name, cap in args.caps.items():
            if (getattr(args, name, None) or 0) > cap:
                raise ValueError(f"{name} must be at most {cap}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED


if __name__ == "__main__":
    sys.exit(main())
