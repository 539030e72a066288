"""Parsing and rendering of exact rationals for the JSON/CLI surface.

Rationals travel as strings ("7/2", "-3") or plain integers.  Floats are
rejected everywhere: the whole library depends on exact equality, and a
float in an input file is almost always an upstream mistake.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union


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
        # p is an optional sign and decimal digits (Unicode category Nd,
        # which int() reads), q decimal digits after an ASCII 1-9.  A plain
        # integer skips the gcd of Fraction(p, q).
        num, slash, den = text.partition("/")
        if (num[1:] if num[:1] in ("+", "-") else num).isdecimal():
            try:
                if not slash:
                    return Fraction(int(num))
                if "1" <= den[:1] <= "9" and den.isdecimal():
                    return Fraction(int(num), int(den))
            except ValueError as exc:
                # int() refuses text past the interpreter's digit limit.
                raise ValueError(f"{where}: {exc}") from None
        raise ValueError(
            f"{where}: bad rational literal {value!r} (expected 'p' or 'p/q')"
        )
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floats are not accepted (got {value!r}); use an exact 'p/q' string"
        )
    raise ValueError(f"{where}: expected a rational, got {type(value).__name__}")


def as_rational(value: object, where: str = "value") -> Fraction:
    """A Fraction as is, anything else through `parse_rational`.

    The one rule for a value handed to the library's types rather than
    read from text: table values, alpha and point coordinates.
    """
    # Fraction is an abstract base class's subclass, so for anything but a
    # Fraction itself the isinstance test is a Python-level call.
    return value if isinstance(value, Fraction) else parse_rational(value, where)


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise.

    A numerator or denominator past CPython's int-to-str digit limit is
    spelled through `decimal.Decimal`, which converts an int exactly and
    has no such limit.
    """
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        from decimal import Decimal

        num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
        return num if den == "1" else f"{num}/{den}"


def common_denominator(values: Sequence[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """The lcm D of the values' denominators and the integer numerators D * v.

    Ints and Fractions both carry `numerator` and `denominator`, so either
    may appear, mixed; the scaled values are exact integers.
    """
    # Unpack a list, not a generator: CPython builds a tuple from a generator
    # at a guessed size and resizes it, so every call moves one tuple to
    # another size's free list, and those lists grow to thousands of tuples.
    denominator = math.lcm(*[v.denominator for v in values])
    return denominator, [v.numerator * (denominator // v.denominator) for v in values]
