"""One value check for every configuration dataclass and stored scalar.

Each field must hold its annotated type (a float must also be finite), and
a field given a rule must satisfy it. A rule is a one-sided bound such as
">= 1" or "> 0", or an interval such as "[0, 1)" whose square brackets
include their end. A failure raises ValueError naming the field, which the
CLI reports as a config error (exit 2). Checkpoint scalars are checked by
the same rules when a checkpoint is loaded.
"""

from __future__ import annotations

import math
from dataclasses import fields

__all__ = ["check_fields", "check_value"]


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "int": ("an integer", lambda v: _number(v) and isinstance(v, int)),
    "float": ("a finite number", lambda v: _number(v) and math.isfinite(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _satisfies(v, rule: str) -> bool:
    if rule[0] in "[(":
        lo, hi = (float(x) for x in rule[1:-1].split(","))
        return ((lo <= v) if rule[0] == "[" else (lo < v)) and \
               ((v <= hi) if rule[-1] == "]" else (v < hi))
    op, bound = rule.split()
    return v >= float(bound) if op == ">=" else v > float(bound)


def check_value(name: str, v, kind: str, rule: str | None = None):
    """Raise ValueError naming `name` unless `v` is of type `kind` (a type
    name such as "int") and satisfies `rule`."""
    what, fits = _TYPES[kind]
    if not fits(v):
        raise ValueError(f"{name} must be {what}, got {v!r}")
    if rule is not None and not _satisfies(v, rule):
        verb = "lie in" if rule[0] in "[(" else "be"
        raise ValueError(f"{name} must {verb} {rule}, got {v!r}")


def check_fields(cfg, **rules):
    """Raise ValueError for the first field of dataclass `cfg` that is not
    of its annotated type, or that breaks its rule in `rules`."""
    for f in fields(cfg):
        check_value(f.name, getattr(cfg, f.name), f.type, rules.get(f.name))
