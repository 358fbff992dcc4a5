"""Builtin functions available to mini-ICC++ programs.

``array`` and ``len`` are lowered to dedicated instructions; everything
else routes through :func:`call_builtin`.  ``print`` appends to the VM's
output list rather than writing to stdout, so tests can compare observable
output across builds.
"""

from __future__ import annotations

import math

from .values import Value, format_value, is_truthy


class BuiltinError(Exception):
    """Raised when a builtin is applied to unsuitable arguments."""


def _require_number(name: str, value: Value) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BuiltinError(f"{name}() expects a number, got {format_value(value)}")
    return value


def call_builtin(name: str, args: list[Value], output: list[str]) -> Value:
    """Execute builtin ``name``; print output goes to ``output``.

    Every failure is a :class:`BuiltinError`, never a raw Python
    arithmetic error: infinities and NaN have no integer value, and
    ``pow`` must give a real number.
    """
    try:
        result = _call(name, args, output)
    except (ArithmeticError, ValueError) as exc:  # Overflow, ZeroDivision, ...
        raise BuiltinError(f"{name}() {_REASONS.get(type(exc), exc)}") from exc
    if type(result) is complex:
        raise BuiltinError(f"{name}() result is not a real number")
    return result


#: How a Python arithmetic failure reads in a builtin's error message.
_REASONS = {
    OverflowError: "result out of range",
    ZeroDivisionError: "division by zero",
}


def _call(name: str, args: list[Value], output: list[str]) -> Value:
    if name == "print":
        output.append(" ".join(format_value(arg) for arg in args))
        return None
    if name == "sqrt":
        operand = _require_number(name, args[0])
        if operand < 0:
            raise BuiltinError(f"sqrt() of negative number {operand}")
        return math.sqrt(operand)
    if name == "abs":
        return abs(_require_number(name, args[0]))
    if name == "floor":
        return math.floor(_require_number(name, args[0]))
    if name == "ceil":
        return math.ceil(_require_number(name, args[0]))
    if name == "min":
        return min(_require_number(name, args[0]), _require_number(name, args[1]))
    if name == "max":
        return max(_require_number(name, args[0]), _require_number(name, args[1]))
    if name == "pow":
        return _require_number(name, args[0]) ** _require_number(name, args[1])
    if name == "int":
        return int(_require_number(name, args[0]))
    if name == "float":
        return float(_require_number(name, args[0]))
    if name == "assert_true":
        if not is_truthy(args[0]):
            raise BuiltinError("assert_true failed")
        return None
    raise BuiltinError(f"unknown builtin {name!r}")
