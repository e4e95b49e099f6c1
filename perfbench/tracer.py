"""Spans around calls into wordavoid's layers, recorded from outside.

`Tracer.install()` wraps the public functions of each module and patches
every name under which wordavoid looks them up (`riordan.solve_polynomial`,
`verify.build_tree`, the package's re-exports, ...); `uninstall()` puts the
originals back.  A span is [name, start, end, parent, extra]: `parent` is
the index of the enclosing span (-1 at the top) and `extra` holds a count
taken from the call's arguments or result.  Spans stay in memory until
`dump`; `layer_metrics` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from statistics import median

# Per-node and per-word helpers (complement, produce_plain/marked,
# occurrence_count, node_json) are left unwrapped: a span per node would
# cost more than the call.  Their time counts in the calling span.
FUNCTIONS = {
    "series": ("solve_polynomial",),
    "pattern": ("autocorrelation", "correlation_terms", "correlation_polynomial",
                "avoider_table", "avoiding_words", "count_by_enumeration",
                "count_by_automaton"),
    "riordan": ("from_dh", "triangles_from_table", "family_h", "family_d",
                "family_triangle", "family_a_polynomial", "family_a", "family_z",
                "a_sequence_from_h", "z_sequence", "d_from_z", "verify_recurrence",
                "verify_column_doubling", "verify_a_matrix", "verify_a_sequence"),
    "rules": ("expand", "expand_exhaustive", "catalan_plain_rule", "catalan_marked_rule",
              "motzkin_jump_rule", "avoid_rule"),
    "paths": ("zero1_forward", "zero1_inverse", "build_tree", "word_census", "survivors",
              "copies_census", "signed_census"),
    "verify": ("run_checks",),
}
METHODS = {
    ("series", "USeries"): {"__mul__": "mul", "__truediv__": "div", "sqrt": "sqrt",
                            "compose": "compose", "revert": "revert"},
    ("series", "BSeries"): {"__mul__": "bseries_mul", "__truediv__": "bseries_div"},
}
MODULES = ("wordavoid", "wordavoid.cli") + tuple(f"wordavoid.{m}" for m in FUNCTIONS)


def _nodes(args, result):
    return (sum(len(level) for level in result), len(result[-1]))


# Counts recorded per span, from the call's arguments or result.
EXTRAS = {
    "paths.build_tree": _nodes,
    "paths.survivors": lambda args, result: len(result),
    "pattern.avoiding_words": lambda args, result: math.comb(args[1] + args[2], args[1]),
    "rules.expand": lambda args, result: len(result.counts),
    "verify.run_checks": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, None])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if extra is not None:
                self.spans[index][4] = extra(args, result)
            return result

        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, up, extra in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + base, extra])

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, names in FUNCTIONS.items():
            module = modules[f"wordavoid.{short}"]
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[f"wordavoid.{short}"], cls_name)
            for attr, label in methods.items():
                fn = cls.__dict__[attr]
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{label}", fn))
            # aliases such as USeries.__rmul__ = __mul__ share the wrapper
            for attr, value in list(cls.__dict__.items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(cls, attr, wrapped[id(value)][1])
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(module, attr, wrapped[id(value)][1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- per-layer metrics ---------------------------------------------------------

# metric -> the span names whose outermost calls it times
TIMES = {
    "series.mul_s": ("series.mul",),
    "series.div_s": ("series.div",),
    "series.sqrt_s": ("series.sqrt",),
    "series.compose_s": ("series.compose",),
    "series.revert_s": ("series.revert",),
    "series.solve_polynomial_s": ("series.solve_polynomial",),
    "series.bseries_mul_s": ("series.bseries_mul",),
    "series.bseries_div_s": ("series.bseries_div",),
    "riordan.family_d_s": ("riordan.family_d",),
    "riordan.family_h_s": ("riordan.family_h",),
    "riordan.family_a_s": ("riordan.family_a",),
    "riordan.family_z_s": ("riordan.family_z",),
    "riordan.a_sequence_from_h_s": ("riordan.a_sequence_from_h",),
    "riordan.from_dh_s": ("riordan.from_dh",),
    "riordan.triangles_from_table_s": ("riordan.triangles_from_table",),
    "riordan.verify_s": ("riordan.verify_recurrence", "riordan.verify_column_doubling",
                         "riordan.verify_a_matrix", "riordan.verify_a_sequence"),
    "pattern.avoider_table_s": ("pattern.avoider_table",),
    "pattern.count_by_automaton_s": ("pattern.count_by_automaton",),
    "pattern.avoiding_words_s": ("pattern.avoiding_words",),
    "rules.expand_s": ("rules.expand",),
    "paths.build_tree_s": ("paths.build_tree",),
    "paths.zero1_forward_s": ("paths.zero1_forward",),
    "paths.zero1_inverse_s": ("paths.zero1_inverse",),
    "paths.word_census_s": ("paths.word_census",),
    "verify.run_checks_s": ("verify.run_checks",),
}
CALLS = {
    "series.mul_calls": "series.mul",
    "series.compose_calls": "series.compose",
    "paths.zero1_forward_calls": "paths.zero1_forward",
    "paths.word_census_calls": "paths.word_census",
}
SELF = ("series", "riordan", "pattern", "rules", "paths", "verify")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts of one traced round."""
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    out: dict[str, float] = {}
    for module in SELF:
        out[f"{module}.self_s"] = sum(
            duration[i] - child_time[i]
            for i, span in enumerate(spans)
            if span[0].split(".", 1)[0] == module
        )
    for metric, names in TIMES.items():
        out[metric] = sum(duration[i] for i in _outermost(spans, set(names)))
    names = [span[0] for span in spans]
    for metric, name in CALLS.items():
        out[metric] = names.count(name)
    trees = [spans[i] for i in _outermost(spans, {"paths.build_tree"})]
    out["paths.nodes"] = sum(span[4][0] for span in trees)
    out["paths.nodes_per_s"] = out["paths.nodes"] / out["paths.build_tree_s"]
    survivors = set(_outermost(spans, {"paths.survivors"}))
    top = sum(s[4][1] for s in spans if s[0] == "paths.build_tree" and s[3] in survivors)
    out["paths.survivor_yield"] = sum(spans[i][4] for i in survivors) / top
    out["pattern.words_enumerated"] = sum(s[4] for s in spans if s[0] == "pattern.avoiding_words")
    out["rules.census_cells"] = sum(s[4] for s in spans if s[0] == "rules.expand")
    out["verify.checks"] = sum(s[4] for s in spans if s[0] == "verify.run_checks")
    return out


def _outermost(spans: list[list], names: set[str]) -> list[int]:
    """Indices of spans named in `names` with no enclosing span so named."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        up = span[3]
        while up >= 0 and spans[up][0] not in names:
            up = spans[up][3]
        if up < 0:
            out.append(i)
    return out


def combine(rounds: list[dict[str, float]], counts: set[str]) -> dict[str, float]:
    """Median over rounds for times; counts must repeat, so the first round's."""
    return {
        key: rounds[0][key] if key in counts else median(r[key] for r in rounds)
        for key in rounds[0]
    }
