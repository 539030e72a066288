"""The signed three-element domain {-alpha, 0, 1} and its componentwise operations.

The domain carries a partial order with 0 below both 1 and -alpha, while 1
and -alpha are incomparable.  Three binary operations resolve the {1, -alpha}
clash differently: the meet sends it to 0, and the two joins send it to 0 or
to 1.  Everything lifts componentwise to length-n label vectors.

Labels are purely symbolic (Neg/Zero/Pos), so the same label vector serves
every skew parameter; the rational values -alpha/0/1 appear only at the
`numeric` boundary.  This keeps all lattice identities alpha-independent
where they should be, and exact where they are not.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

from .rationals import as_rational, format_rational, parse_rational


class ArityMismatchError(ValueError):
    """A componentwise operation was given label vectors of different lengths."""


class Label(enum.Enum):
    """One symbolic domain element; Neg renders to -alpha, Zero to 0, Pos to 1."""

    NEG = "-"
    ZERO = "0"
    POS = "+"

    # Members are singletons, so identity hashing is enough and runs in C;
    # Enum's own __hash__ hashes the name in Python.  The hash differs from
    # run to run, so no output may depend on the order of a set of labels.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Label.{self.name}"


NEG = Label.NEG
ZERO = Label.ZERO
POS = Label.POS

# Canonical enumeration and lexicographic order: '-' < '0' < '+', matching
# the numeric order -alpha < 0 < 1.  Every "lexicographically first" in this
# package refers to this order.
LEX_ORDER = (NEG, ZERO, POS)

_CHAR_TO_LABEL = {label.value: label for label in LEX_ORDER}
_LEX_DIGIT = {label: digit for digit, label in enumerate(LEX_ORDER)}

Labeling = Tuple[Label, ...]


@dataclass(frozen=True)
class Alpha:
    """The skew parameter: an exact rational in (0, 1].

    alpha = 1 is the unskewed (bisubmodular) case.  alpha = 0 is rejected:
    the weight split between the two joins degenerates there.  The value
    goes through `rationals.as_rational`, so floats, decimal strings and
    booleans are refused.
    """

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_rational(self.value, "alpha"))
        if not 0 < self.value <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.value}")

    @classmethod
    def parse(cls, text: object) -> "Alpha":
        return cls(parse_rational(text, where="alpha"))

    def __str__(self) -> str:
        return format_rational(self.value)


def parse_labeling(text: str) -> Labeling:
    """Decode a '-','0','+' string such as "+0-" into a label vector."""
    try:
        labels = tuple([_CHAR_TO_LABEL[ch] for ch in text])
    except KeyError:
        for pos, ch in enumerate(text):
            if ch not in _CHAR_TO_LABEL:
                raise ValueError(
                    f"labeling {text!r}: bad character {ch!r} at position {pos}"
                ) from None
    if not labels:
        raise ValueError("labeling must have length >= 1")
    return labels


def format_labeling(a: Sequence[Label]) -> str:
    """Encode a label vector as a '-','0','+' string."""
    return "".join(label.value for label in a)


def all_labelings(n: int) -> Iterator[Labeling]:
    """All 3^n label vectors in lexicographic order ('-' < '0' < '+')."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    return itertools.product(LEX_ORDER, repeat=n)


#: Enumeration guard: operations that touch all 3^n points (the checker,
#: brute force, `expand_to_table`) refuse to run past this many, so a
#: fat-fingered arity fails loudly instead of hanging.  `check_enum_cap`
#: reads it at each call.
#: At 3^8 points `check_alpha_bisubmodular` accepts a generated sum in
#: about 0.03 s on a 2-vCPU Intel Xeon VM with Python 3.11, by its local
#: test; a table that fails it is scanned for its witness, up to about
#: 0.25 s.
DEFAULT_ENUM_CAP = 3**8


def exceeds_cap(n: int, cap: int) -> bool:
    """Whether 3^n > cap, without computing 3^n when n alone settles it.

    3^n >= 2^n > cap once n >= cap.bit_length(), so a huge n costs nothing.
    """
    return n >= cap.bit_length() or 3**n > cap


class CapExceededError(ValueError):
    """An exhaustive operation was asked to enumerate more points than its cap."""


def check_enum_cap(n: int) -> None:
    """Refuse an exhaustive operation at arity n, 3^n points, past
    `DEFAULT_ENUM_CAP` points."""
    if exceeds_cap(n, DEFAULT_ENUM_CAP):
        raise CapExceededError(f"3^{n} points exceed the enumeration cap {DEFAULT_ENUM_CAP}")


def lex_index(u: Sequence[Label]) -> int:
    """The position of u in `all_labelings(len(u))`: its lex digits in base 3."""
    k = 0
    for label in u:
        k = 3 * k + _LEX_DIGIT[label]
    return k


def labeling_at(k: int, n: int) -> Labeling:
    """The labeling at position k of `all_labelings(n)`, inverting `lex_index`."""
    labels = []
    for _ in range(n):
        k, digit = divmod(k, 3)
        labels.append(LEX_ORDER[digit])
    if k:  # k was negative or at least 3^n
        raise ValueError(f"lex index out of range for arity {n}")
    return tuple(labels[::-1])


def _require_same_arity(a: Sequence[Label], b: Sequence[Label]) -> None:
    if len(a) != len(b):
        raise ArityMismatchError(f"arity mismatch: {len(a)} vs {len(b)}")


def label_less(a: Label, b: Label) -> bool:
    """Strict order on single labels: only Zero sits below Pos and below Neg."""
    return a is ZERO and b is not ZERO


def label_leq(a: Label, b: Label) -> bool:
    return a is b or label_less(a, b)


def leq(a: Sequence[Label], b: Sequence[Label]) -> bool:
    """Componentwise order: a <= b iff every component of a is below-or-equal b's."""
    _require_same_arity(a, b)
    return all(label_leq(x, y) for x, y in zip(a, b))


def less(a: Sequence[Label], b: Sequence[Label]) -> bool:
    """Strict componentwise order: a <= b and a != b."""
    _require_same_arity(a, b)
    return leq(a, b) and tuple(a) != tuple(b)


def _meet0_label(a: Label, b: Label) -> Label:
    # Pos meet Neg clashes to Zero; otherwise the minimum, which is Zero
    # whenever the labels differ.
    return a if a is b else ZERO


def _join_label(a: Label, b: Label, tiebreak: Label) -> Label:
    if a is b:
        return a
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return tiebreak  # the {Pos, Neg} clash


def meet0(a: Sequence[Label], b: Sequence[Label]) -> Labeling:
    """Componentwise meet; the {Pos, Neg} clash resolves to Zero."""
    _require_same_arity(a, b)
    return tuple([_meet0_label(x, y) for x, y in zip(a, b)])


def join(a: Sequence[Label], b: Sequence[Label], tiebreak: Label) -> Labeling:
    """Componentwise join; the {Pos, Neg} clash resolves to `tiebreak`.

    Only Zero and Pos tiebreaks are meaningful (they give the two joins the
    theory uses); Neg is rejected.
    """
    if tiebreak not in (ZERO, POS):
        raise ValueError(f"join tiebreak must be Zero or Pos, got {tiebreak!r}")
    _require_same_arity(a, b)
    return tuple([_join_label(x, y, tiebreak) for x, y in zip(a, b)])


def numeric(a: Sequence[Label], alpha: Alpha) -> Tuple[Fraction, ...]:
    """Render a label vector to exact rational coordinates in [-alpha, 1]^n."""
    neg = -alpha.value
    one = Fraction(1)
    zero = Fraction(0)
    return tuple([one if x is POS else neg if x is NEG else zero for x in a])
