"""The rule type of config fields and the one checker: a config dataclass
declares each field as ``setting(default, rule)`` and its ``__post_init__``
calls ``check(self, Error)``, keeping only the rules that span fields."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Integral, Real


@dataclass(frozen=True)
class Rule:
    """``kind`` int takes an integer but not a bool, float a finite number,
    tuple a list of finite numbers; each number is ``>= low``, or ``> low``
    when ``strict``, and ``< high``."""

    kind: type
    low: float
    strict: bool = False
    high: float = math.inf

    def __str__(self) -> str:
        what = {int: "an integer", float: "a finite number", tuple: "a list of finite numbers"}[self.kind]
        if self.high < math.inf:
            return f"{what} in {'(' if self.strict else '['}{self.low}, {self.high})"
        return f"{what} {'>' if self.strict else '>='} {self.low}"

    def admits(self, value) -> bool:
        if self.kind is tuple:
            return isinstance(value, (list, tuple)) and all(map(self._number, value))
        return self._number(value)

    def _number(self, value) -> bool:
        if isinstance(value, bool) or not isinstance(value, Integral if self.kind is int else Real):
            return False
        if self.kind is not int and not abs(value) <= sys.float_info.max:  # NaN, infinity, an int past float range
            return False
        return bool((value > self.low if self.strict else value >= self.low) and value < self.high)


SEED = Rule(int, 0)  # numpy's default_rng takes no negative seed


def setting(default, rule: Rule):
    """A dataclass field with ``default`` whose value ``check`` holds to ``rule``."""
    return field(default=default, metadata={"rule": rule})


def check(config, error: type[Exception]) -> None:
    """Raise ``error`` for the first field of ``config`` its rule does not admit."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "rule" in f.metadata and not f.metadata["rule"].admits(value):
            try:
                shown = repr(value)
            except ValueError:  # an integer with more digits than Python converts to text
                shown = "an integer too long to print" + ("" if isinstance(value, int) else " in a list")
            raise error(f"{f.name} must be {f.metadata['rule']}, got {shown}")
