"""Parsing of exact rationals, and scaling them to one common denominator."""

import math
import re
import sys
from fractions import Fraction

import pytest

from skewbisub.rationals import common_denominator, parse_rational

_FRACTION_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def reference_parse_rational(value, where="value"):
    """parse_rational with every accepted string going through Fraction(text).

    Text past the interpreter's int digit limit fails in Fraction with
    CPython's message, which parse_rational prefixes with `where`.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _FRACTION_RE.match(text):
            raise ValueError(
                f"{where}: bad rational literal {value!r} (expected 'p' or 'p/q')"
            )
        try:
            return Fraction(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floats are not accepted (got {value!r}); use an exact 'p/q' string"
        )
    raise ValueError(f"{where}: expected a rational, got {type(value).__name__}")


def _outcome(parse, value):
    try:
        result = parse(value, where="x")
    except ValueError as exc:
        return "error", str(exc)
    return type(result), result


LITERALS = [
    "+7",
    "-0",
    "007",
    " 3 ",
    "\t-12\n",
    "3/6",
    "-4/10",
    "0/5",
    "٣",  # ARABIC-INDIC DIGIT THREE
    "१२",  # DEVANAGARI DIGITS ONE TWO
    "\U0001d7d9",  # MATHEMATICAL DOUBLE-STRUCK DIGIT ONE
    "٣/4",
    "٣/٤",  # the denominator's first digit must be ASCII 1-9
    "3/1٣",
    "1_0",
    "+",
    "-",
    " - 3",
    "-٣",
    "²",  # SUPERSCRIPT TWO: a digit, but not a decimal one
    "−3",  # MINUS SIGN, not '-'
    "3/",
    "/3",
    "3/ 4",
    "3 /4",
    "3/4/5",
    "3//4",
    "+3/4",
    "-3/+4",
    "-3/-4",
    "1.5",
    "1e3",
    "",
    "   ",
    "3/0",
    "3/-4",
    "+-3",
    "0x10",
    True,
    False,
    1.5,
    float("nan"),
    0,
    -17,
    10**400,
    None,
    Fraction(1, 2),
    "1" * 4300,
    "-" + "9" * 4300,
    "1" * 5000,
    "1" * 5000 + "/3",
]


@pytest.fixture()
def int_digit_limit():
    """CPython's default cap on int/str conversions, whatever the environment set.

    Interpreters before 3.10.7 have no cap, and both parsers accept every
    length there.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("value", LITERALS, ids=lambda v: repr(v)[:24])
def test_same_result_or_message_as_the_fraction_parser(value, int_digit_limit):
    assert _outcome(parse_rational, value) == _outcome(reference_parse_rational, value)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+7", Fraction(7)),
        ("-0", Fraction(0)),
        ("007", Fraction(7)),
        (" 3 ", Fraction(3)),
        ("3/6", Fraction(1, 2)),
        ("٣", Fraction(3)),
        ("٣/4", Fraction(3, 4)),
    ],
)
def test_accepted_literals(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "values",
    [
        [7],
        [Fraction(-3, 8)],
        [0, 5, -12],
        [Fraction(1, 6), Fraction(-5, 4), Fraction(2, 9)],
        [3, Fraction(1, 10), -2, Fraction(7, 15), Fraction(0)],
        [Fraction(10**40, 7), Fraction(-1, 7 * 10**9), 10**30],
    ],
    ids=["one int", "one fraction", "ints", "fractions", "mixed", "huge"],
)
def test_common_denominator_matches_fraction_arithmetic(values):
    denominator, nums = common_denominator(values)
    assert all(type(v) is int for v in nums)
    assert [Fraction(v, denominator) for v in nums] == [Fraction(v) for v in values]
    # A common factor c > 1 of D and every numerator would make D / c a
    # common denominator too; the least one leaves none.
    assert math.gcd(denominator, *nums) == 1
