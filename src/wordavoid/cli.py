"""Command-line frontend.

Subcommands expose the avoider table, the two triangles, the family's
series, rule censuses, the path construction, and the consistency battery.
Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors (including sizes beyond the built-in guards).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import paths, pattern, riordan, rules, verify
from .riordan import render_matrix
from .series import USeries

FORMATS = ("csv", "json", "text")

# Caps on user-sized inputs.  The slowest call at each cap, min of 3 in
# process (Python 3.11, 2-CPU Linux VM): avoider_table at order 40 about
# 0.02 s; family_z and family_a at series order 100 about 0.09 s; run_checks
# at verify order 80 with two levels about 0.37 s for any j; expand of the
# avoid rule at 300 levels about 0.09 s.  A rule census prints (L+1)^2 big
# integers, which also bounds its cap.
TABLE_ORDER_CAP = 40
SERIES_ORDER_CAP = 100
VERIFY_ORDER_CAP = 80
RULE_LEVELS_CAP = 300


def _pattern_arg(text: str) -> str:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError("pattern must be a nonempty 0/1 string")
    return text


def _fmt(args) -> str:
    if getattr(args, "fmt", None):
        return args.fmt
    if getattr(args, "format", None):
        return args.format
    return "text"


def _emit_series(series: USeries, fmt: str) -> None:
    if fmt == "text":
        print(series.text())
        return
    coeffs = series.integer_coeffs()
    if fmt == "csv":
        print(",".join(map(str, coeffs)))
    else:
        print(json.dumps(coeffs, separators=(",", ":")))


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
    vector = pattern.autocorrelation(args.pattern)
    terms = pattern.correlation_terms(args.pattern)
    rendered = f"c=({','.join(map(str, vector))}); C={_poly_text(terms)}"
    if _fmt(args) == "json":
        print(
            json.dumps(
                {"c": list(vector), "terms": [list(t) for t in terms]},
                separators=(",", ":"),
            )
        )
    else:
        print(rendered)
    return 0


def cmd_table(args) -> int:
    table = pattern.avoider_table(args.pattern, args.order)
    sys.stdout.write(render_matrix(table.integer_rows(), _fmt(args)))
    return 0


def _triangle_operands(args) -> tuple[str | None, int]:
    # the pattern, order, and format positionals must be told apart by
    # hand: argparse cannot mix optional positionals with flags like --j
    tokens = list(args.tokens)
    if tokens and tokens[-1] in FORMATS:
        args.fmt = tokens.pop()
    if args.j is None:
        if len(tokens) != 2:
            raise ValueError("expected: triangle PATTERN ORDER [FORMAT], "
                             "or triangle --j J ORDER [FORMAT]")
        bits, order_text = tokens
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError("pattern must be a nonempty 0/1 string")
    else:
        if len(tokens) != 1:
            raise ValueError("with --j, expected: triangle --j J ORDER [FORMAT]")
        bits, order_text = None, tokens[0]
    try:
        order = int(order_text)
    except ValueError:
        raise ValueError("order must be an integer") from None
    if not 0 <= order <= TABLE_ORDER_CAP:
        raise ValueError(f"order must be between 0 and {TABLE_ORDER_CAP}")
    return bits, order


def cmd_triangle(args) -> int:
    bits, order = _triangle_operands(args)
    if bits is None and not args.bar:
        triangle = riordan.family_triangle(args.j, order)
    else:
        if bits is None:
            bits = "1" * (args.j + 1) + "0" * args.j
        lower, upper = riordan.triangles_from_table(
            pattern.avoider_table(bits, order)
        )
        triangle = upper if args.bar else lower
    sys.stdout.write(render_matrix(triangle.rows, _fmt(args)))
    return 0


def cmd_series(args) -> int:
    if args.order > SERIES_ORDER_CAP:
        raise ValueError(f"order must be at most {SERIES_ORDER_CAP}")
    maker = {
        "d": riordan.family_d,
        "h": riordan.family_h,
        "a": riordan.family_a,
        "z": riordan.family_z,
    }[args.kind]
    _emit_series(maker(args.j, args.order), _fmt(args))
    return 0


_RULES = {
    "catalan-plain": rules.catalan_plain_rule,
    "catalan-marked": rules.catalan_marked_rule,
    "motzkin2": rules.motzkin_jump_rule,
    "avoid": rules.avoid_rule,
}


def cmd_rule(args) -> int:
    if args.levels > RULE_LEVELS_CAP:
        raise ValueError(f"levels must be at most {RULE_LEVELS_CAP}")
    if args.name == "avoid":
        if args.j is None:
            raise ValueError("the avoid rule needs --j")
        spec = rules.avoid_rule(args.j)
    elif args.j is not None:
        raise ValueError("--j applies only to the avoid rule")
    else:
        spec = _RULES[args.name]()
    census = rules.expand(spec, args.levels)
    sys.stdout.write(render_matrix(census.matrix(), _fmt(args)))
    return 0


def cmd_construct(args) -> int:
    fmt = _fmt(args)
    if args.what == "survivors":
        words = sorted(paths.survivors(args.j, args.level))
        if fmt == "json":
            print(json.dumps(words, separators=(",", ":")))
        else:
            sys.stdout.write("".join(w + "\n" for w in words))
    elif args.what == "nodes":
        nodes = [paths.node_json(n) for n in paths.build_tree(args.j, args.level)[args.level]]
        if fmt == "json":
            print(json.dumps(nodes, separators=(",", ":")))
        elif fmt == "csv":
            sys.stdout.write(
                "".join(
                    "{},{},{},{},{}\n".format(
                        n["word"],
                        ";".join(map(str, n["marks"])),
                        n["label"]["value"],
                        n["label"]["variant"],
                        n["label"]["marked"],
                    )
                    for n in nodes
                )
            )
        else:
            for n in nodes:
                print(json.dumps(n, separators=(",", ":")))
    else:
        census = paths.signed_census(paths.build_tree(args.j, args.level))
        sys.stdout.write(render_matrix(census.matrix(), fmt))
    return 0


def cmd_verify(args) -> int:
    if args.order > VERIFY_ORDER_CAP:
        raise ValueError(f"order must be at most {VERIFY_ORDER_CAP}")
    results = verify.run_checks(args.j, args.levels, args.order)
    if _fmt(args) == "json":
        print(
            json.dumps(
                [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                separators=(",", ":"),
            )
        )
    else:
        for r in results:
            line = f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}"
            print(line)
    return 0 if all(r.passed for r in results) else 1


def _add_format(sub, positional: bool = True) -> None:
    if positional:
        sub.add_argument("fmt", nargs="?", choices=FORMATS, default=None)
    sub.add_argument("--format", choices=FORMATS, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordavoid",
        description="count and build binary words avoiding a forbidden factor",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("autocorr", help="autocorrelation vector and polynomial")
    sub.add_argument("pattern", type=_pattern_arg)
    _add_format(sub)
    sub.set_defaults(func=cmd_autocorr)

    sub = subs.add_parser("table", help="avoider counts by (ones, zeros)")
    sub.add_argument("pattern", type=_pattern_arg)
    sub.add_argument("order", type=int)
    _add_format(sub)
    sub.set_defaults(func=cmd_table)

    sub = subs.add_parser("triangle", help="avoider triangles")
    sub.add_argument("tokens", nargs="*", metavar="ARG",
                     help="PATTERN ORDER [FORMAT], or ORDER [FORMAT] with --j")
    sub.add_argument("--format", choices=FORMATS, default=None)
    sub.add_argument("--j", type=int, default=None)
    sub.add_argument("--bar", action="store_true", help="emit the upper triangle")
    sub.set_defaults(func=cmd_triangle, fmt=None)

    sub = subs.add_parser("series", help="family series")
    sub.add_argument("kind", choices=("d", "h", "a", "z"))
    _add_format(sub)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--order", type=int, default=9)
    sub.set_defaults(func=cmd_series)

    sub = subs.add_parser("rule", help="signed census of a built-in rule")
    sub.add_argument("name", choices=sorted(_RULES))
    sub.add_argument("levels", type=int)
    _add_format(sub)
    sub.add_argument("--j", type=int, default=None)
    sub.set_defaults(func=cmd_rule)

    sub = subs.add_parser("construct", help="materialize the path tree")
    sub.add_argument("what", nargs="?", choices=("survivors", "nodes", "census"),
                     default="survivors")
    _add_format(sub, positional=False)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--level", type=int, required=True)
    sub.set_defaults(func=cmd_construct)

    sub = subs.add_parser("verify", help="run the consistency battery")
    _add_format(sub, positional=False)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--levels", type=int, required=True)
    sub.add_argument("--order", type=int, default=12)
    sub.set_defaults(func=cmd_verify)

    return parser


_USAGE_ERRORS = (
    ValueError,
    pattern.TooLarge,
    riordan.NotProper,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills an optional format positional early, empty, so a format
    # given after the flags (`series a --j 2 csv`) arrives as a leftover
    if len(extra) == 1 and extra[0] in FORMATS and getattr(args, "fmt", "") is None:
        args.fmt = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "table" and not 0 <= args.order <= TABLE_ORDER_CAP:
        parser.error(f"order must be between 0 and {TABLE_ORDER_CAP}")
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
