"""Parsing and rendering of exact rationals for the JSON/CLI surface.

Rationals travel as strings ("7/2", "-3") or plain integers.  Floats are
rejected everywhere: the whole library depends on exact equality, and a
float in an input file is almost always an upstream mistake.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def parse_rational(value: object, where: str = "value") -> Fraction:
    """Parse an integer or a "p/q" / "p" string into an exact Fraction.

    Decimal and exponent forms are rejected even though they would be
    exact: the interchange format is integers and integer ratios only.
    `where` names the offending key or coordinate in error messages.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(
                f"{where}: bad rational literal {value!r} (expected 'p' or 'p/q')"
            )
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den or 1))
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floats are not accepted (got {value!r}); use an exact 'p/q' string"
        )
    raise ValueError(f"{where}: expected a rational, got {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
