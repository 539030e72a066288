"""The skew-bisubmodularity checker: an exhaustive test of every pair.

`check_alpha_bisubmodular` reads all 3^n values of an oracle once and tests
the defining inequality at every pair of points on packed integers; a
failing pair comes back as a `ViolationWitness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .lattice import (
    DEFAULT_ENUM_CAP,
    LEX_ORDER,
    POS,
    ZERO,
    CapExceededError,
    Labeling,
    all_labelings,
    exceeds_cap,
    format_labeling,
    join,
    lex_index,
    meet0,
)
from .rationals import common_denominator, format_rational

if TYPE_CHECKING:
    from .functions import ValueOracle


@dataclass(frozen=True)
class ViolationWitness:
    """A pair at which the skew-bisubmodularity inequality fails (lhs > rhs)."""

    a: Labeling
    b: Labeling
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "a": format_labeling(self.a),
            "b": format_labeling(self.b),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
        }


def _digit_table(op) -> Tuple[Tuple[int, ...], ...]:
    # A componentwise operation on single labels as lex digits ('-' -> 0,
    # '0' -> 1, '+' -> 2): entry [x][y] is the digit of op(x, y).
    return tuple(tuple(LEX_ORDER.index(op((x,), (y,))[0]) for y in LEX_ORDER) for x in LEX_ORDER)


#: meet0, join0 and join1 as digit tables, in the order of the weights q, p
#: and q - p the checker's integer inequality gives them (alpha = p/q).
_PAIR_OP_DIGITS = (
    _digit_table(meet0),
    _digit_table(partial(join, tiebreak=ZERO)),
    _digit_table(partial(join, tiebreak=POS)),
)


def _shift_groups(row: Tuple[int, ...]) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    # The digits e of a digit table's row, grouped by d - e: the fields of
    # b whose digit is e move up by d - e blocks to the place of digit d.
    grouped: Dict[int, Tuple[int, ...]] = {}
    for d, e in enumerate(row):
        grouped[d - e] = grouped.get(d - e, ()) + (e,)
    return tuple(grouped.items())


#: For each digit x of a: the shift groups of meet0, join0 and join1.
_PAIR_OP_SHIFTS = tuple(
    tuple(_shift_groups(table[x]) for table in _PAIR_OP_DIGITS) for x in range(3)
)
_SHIFT_DIGITS = {digits for row in _PAIR_OP_SHIFTS for groups in row for _, digits in groups}


def check_alpha_bisubmodular(
    f: ValueOracle, cap: int = DEFAULT_ENUM_CAP
) -> Optional[ViolationWitness]:
    """Exhaustively test f(a meet b) + alpha f(a join0 b) + (1-alpha) f(a join1 b) <= f(a) + f(b).

    Returns None when the inequality holds at all ordered pairs, else the
    lexicographically first violating pair (under '-' < '0' < '+').

    Each of the 3^n values is read once, in lex order, and scaled to an
    integer by the lcm of the denominators.  For alpha = p/q the test is
    then q f(meet) + p f(join0) + (q - p) f(join1) > q (f(a) + f(b)) on
    plain ints; lhs and rhs are computed as Fractions only at the witness.

    Only the pairs with a <=lex b are tested, and the witness is the same:
    meet0 and both joins are commutative, so the inequality is symmetric in
    (a, b), and at a = b both sides equal 2 f(a).  If the first violating
    ordered pair had b <lex a, then (b, a) would violate too and come first;
    so it has a <lex b, and the scan, which takes each a in lex order and
    then its least violating b >= a, finds it.

    All b of one a are tested at once, on packed integers: a vector over
    lex indices is one int with one B-bit field per index.  With M the
    largest |f|, the vectors q (f + M), p (f + M) and (q - p) (f + M) are
    packed, with fields in [0, 2qM], and `_prefix_gathers` turns them, for
    each a, into the vectors whose field b - a holds the value at
    meet0(a, b), join0(a, b) and join1(a, b), for b >=lex a.  Their sum has
    fields in [0, 4qM].  The packed q (M - f) + 2^(B-1) - 1 - 3qM, less
    q f(a) in every field and shifted down by a's index, lines up with
    them, with fields in [2^(B-1) - 1 - 4qM, 2^(B-1) - 1].  Field b - a of
    the total is then 2^(B-1) - 1 + e(b), where
    e(b) = q f(meet) + p f(join0) + (q - p) f(join1) - q (f(a) + f(b))
    is the pair's excess, in [-4qM, 4qM].  B is the least width with
    2^(B-1) > 4qM, so every field of every term and of the total stays in
    [0, 2^B): none borrows from or carries into the next, and the packed
    int is the exact sum, field by field.  The top bit of field b - a is
    set exactly when e(b) >= 1, i.e. at the violating b.  One AND with the
    top bits and the lowest set bit give the least violating b >= a.
    """
    n = f.arity
    if exceeds_cap(n, cap):
        raise CapExceededError(f"3^{n} points exceed the enumeration cap {cap}")
    labelings = list(all_labelings(n))
    values = [f.evaluate(a) for a in labelings]
    _, ints = common_denominator(values)
    p = f.alpha.value.numerator
    q = f.alpha.value.denominator
    peak = max(map(abs, ints))
    width = (4 * q * peak).bit_length() + 1
    ones = ((1 << len(ints) * width) - 1) // ((1 << width) - 1)
    lifted = _pack([v + peak for v in ints], width)
    # Field b of base: q (M - f(b)) + 2^(B-1) - 1 - 3qM.
    base = q * (2 * peak * ones - lifted) + ((1 << (width - 1)) - 1 - 3 * q * peak) * ones
    signs = ones << (width - 1)
    weighted = (q * lifted, p * lifted, (q - p) * lifted)
    for i, gathered in enumerate(_prefix_gathers(weighted, _digit_moves(n, width))):
        hits = (sum(gathered) + ((base - q * ints[i] * ones) >> i * width)) & signs
        if hits:
            j = i + ((hits & -hits).bit_length() - 1) // width
            a, b = labelings[i], labelings[j]
            meet, join0, join1 = (
                values[lex_index(u)] for u in (meet0(a, b), join(a, b, ZERO), join(a, b, POS))
            )
            al = f.alpha.value
            lhs = meet + al * join0 + (1 - al) * join1
            return ViolationWitness(a, b, lhs, values[i] + values[j])
    return None


def _pack(fields: List[int], width: int) -> int:
    # One int with fields[k] at bit k * width, each field in [0, 2^width).
    # Neighbours are merged pairwise, so the work is N log N, not N^2.
    while len(fields) > 1:
        if len(fields) % 2:
            fields.append(0)
        fields = [lo | hi << width for lo, hi in zip(fields[::2], fields[1::2])]
        width *= 2
    return fields[0]


#: `_digit_moves` keeps its results for the (n, B) whose masks, of 3^n B
#: bits each, fit in this many bits.  A result holds, for each of the n
#: digits of a, one mask per digit set in `_SHIFT_DIGITS` (7 sets), and
#: 3^8 * 2 bits are too many, so a kept result has n <= 7 and at most 49
#: masks of 1 KiB: the 16 kept results hold at most 784 KiB of masks.
_KEPT_MASK_BITS = 2**13


def _digit_moves(n: int, width: int):
    if 3**n * width > _KEPT_MASK_BITS:
        return _build_digit_moves(n, width)
    return _kept_digit_moves(n, width)


def _build_digit_moves(n: int, width: int):
    # For each lex digit t of a, most significant first, and each value x of
    # it: the moves of meet0, join0 and join1 along digit t.  Field k of a
    # gather is field k' of its source, where k' is k with its digit t, say
    # d, replaced by e = row[d], the operation's digit on (x, d).  Fields
    # of digit e move up by d - e blocks of 3^(n-1-t) fields, so one move
    # is an AND with the mask of each digit e that moves by the same amount,
    # then one shift.  Each shift also goes x blocks further down: the
    # source starts at the first b whose first t digits are a's, the result
    # at the first b whose first t + 1 digits are a's, and the b that fall
    # below a's prefix are shifted out.  Every drop is whole blocks, so the
    # masks stay aligned.
    total = 3**n * width
    levels = []
    for t in range(n):
        step = 3 ** (n - 1 - t) * width
        block = (1 << step) - 1
        repeat = ((1 << total) - 1) // ((1 << 3 * step) - 1)
        masks = {
            digits: sum([block << e * step for e in digits]) * repeat
            for digits in _SHIFT_DIGITS
        }
        levels.append(tuple([
            tuple([
                tuple([(masks[digits], (up - x) * step) for up, digits in groups])
                for groups in _PAIR_OP_SHIFTS[x]
            ])
            for x in range(3)
        ]))
    return tuple(levels)


_kept_digit_moves = lru_cache(maxsize=16)(_build_digit_moves)


def _gather(v: int, moves: Tuple[Tuple[int, int], ...]) -> int:
    out = 0
    for mask, shift in moves:
        part = v & mask
        out |= part << shift if shift >= 0 else part >> -shift
    return out


def _prefix_gathers(vectors, levels):
    # For each a in lex order, the packed vectors gathered along all of a's
    # digits: field b - a of the o-th one is field op_o(a, b) of vectors[o],
    # for every b >=lex a.  A prefix's gathers serve every a that extends it.
    if not levels:
        yield vectors
        return
    for moves in levels[0]:
        yield from _prefix_gathers(
            tuple([_gather(v, m) for v, m in zip(vectors, moves)]), levels[1:]
        )
