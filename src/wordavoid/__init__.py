"""Exact enumeration and construction of binary words avoiding a factor.

The package root loads none of its modules.  `_EXPORTS` names each public
object once, under the module that defines it, and the module `__getattr__`
(PEP 562) imports that module on first use and returns its own object.
Nothing is cached here: each lookup reads the defining module.
"""

from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "pattern": ("Pattern", "autocorrelation", "avoider_table", "avoiding_words",
                "correlation_polynomial", "count_by_automaton", "count_by_enumeration"),
    "paths": ("AnnotatedPath", "ConstructionNode", "build_tree", "copies_census",
              "survivors", "zero1_forward", "zero1_inverse"),
    "riordan": ("RiordanTriangle", "family_a", "family_d", "family_h", "family_triangle",
                "family_z", "from_dh", "triangles_from_table"),
    "rules": ("Label", "LevelCensus", "RuleSpec", "avoid_rule", "catalan_marked_rule",
              "catalan_plain_rule", "expand", "motzkin_jump_rule"),
    "series": ("BSeries", "USeries", "solve_polynomial"),
    "verify": ("CheckResult", "run_checks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
