"""The skew-bisubmodularity checker: an exhaustive test of every pair.

`check_alpha_bisubmodular` queries all 3^n values of an oracle once,
through `evaluate`, reads each as its integer numerator over the oracle's
denominator, and tests the defining inequality at every pair of points on
packed integers; a failing pair comes back as a `ViolationWitness`, the
one place the checker itself makes Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .lattice import (
    LEX_ORDER,
    POS,
    ZERO,
    Labeling,
    all_labelings,
    check_enum_cap,
    format_labeling,
    join,
    labeling_at,
    lex_index,
    meet0,
)
from .rationals import format_rational

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


def _mask_groups(row: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    # A digit table's row as (digits, ups) groups: the fields of b whose
    # digit is e move up by d - e blocks, to the place of digit d, and the
    # digits e that move by the same amount share one mask.  A mask is cut
    # once for every amount that its digits move by, as meet0's is at a
    # '0' digit of a, where '-', '0' and '+' of b all take digit '0'.
    by_up: Dict[int, Tuple[int, ...]] = {}
    for d, e in enumerate(row):
        by_up[d - e] = by_up.get(d - e, ()) + (e,)
    by_digits: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for up, digits in by_up.items():
        by_digits[digits] = by_digits.get(digits, ()) + (up,)
    return tuple(by_digits.items())


#: For each digit x of a: the mask groups of meet0, join0 and join1.
_PAIR_OP_GROUPS = tuple(
    tuple(_mask_groups(table[x]) for table in _PAIR_OP_DIGITS) for x in range(3)
)


def check_alpha_bisubmodular(f: ValueOracle) -> Optional[ViolationWitness]:
    """Exhaustively test f(a meet b) + alpha f(a join0 b) + (1-alpha) f(a join1 b) <= f(a) + f(b).

    Returns None when the inequality holds at all ordered pairs, else the
    lexicographically first violating pair (under '-' < '0' < '+').
    Refuses past `lattice.DEFAULT_ENUM_CAP` points before any oracle call.

    Each of the 3^n values is queried once, in lex order, through
    `evaluate`, and read as its integer numerator over f's denominator D.
    For alpha = p/q the test is then
    q f(meet) + p f(join0) + (q - p) f(join1) > q (f(a) + f(b)) on plain
    ints, and only the witness's lhs and rhs are made Fractions.

    Only the pairs with a <=lex b are tested, and the witness is the same:
    meet0 and both joins are commutative, so the inequality is symmetric in
    (a, b), and at a = b both sides equal 2 f(a).  If the first violating
    ordered pair had b <lex a, then (b, a) would violate too and come first;
    so it has a <lex b, and the scan, which takes each a in lex order and
    then its least violating b >= a, finds it.

    All b of one a are tested at once, on packed integers: a vector over
    lex indices is one int with one B-bit field per index.  With f read as
    its numerators and M the largest |f|, the vectors q (f + M), p (f + M)
    and (q - p) (f + M) are packed, with fields in [0, 2qM].  For each a,
    `_scan` gathers them so that field b - a holds the value at
    meet0(a, b), join0(a, b) and join1(a, b) respectively, for b >=lex a,
    and adds the three: their sum has fields in [0, 4qM].  The packed
    q (M - f) + 2^(B-1) - 1 - 3qM, less q f(a) in every field and shifted
    down by a's index, lines up with them, with fields in
    [2^(B-1) - 1 - 4qM, 2^(B-1) - 1].  Field b - a of the total is then
    2^(B-1) - 1 + e(b), where
    e(b) = q f(meet) + p f(join0) + (q - p) f(join1) - q (f(a) + f(b))
    is the pair's excess, in [-4qM, 4qM].  B is the least width with
    2^(B-1) > 4qM, so every field of every term and of the total stays in
    [0, 2^B): none borrows from or carries into the next, and the packed
    int is the exact sum, field by field.  The top bit of field b - a is
    set exactly when e(b) >= 1, i.e. at the violating b.  One AND with the
    top bits and the lowest set bit give the least violating b >= a.
    """
    n = f.arity
    check_enum_cap(n)
    d = f.denominator
    # One `evaluate` query per point, in lex order, each value read as its
    # numerator over D; a table hands back the values it holds.
    ints = [v.numerator * (d // v.denominator) for v in map(f.evaluate, all_labelings(n))]
    p = f.alpha.value.numerator
    q = f.alpha.value.denominator
    peak = max(map(abs, ints))
    width = (4 * q * peak).bit_length() + 1
    ones = ((1 << len(ints) * width) - 1) // ((1 << width) - 1)
    lifted = _pack([v + peak for v in ints], width)
    # Field b of base: q (M - f(b)) + 2^(B-1) - 1 - 3qM.
    base = q * (2 * peak * ones - lifted) + ((1 << (width - 1)) - 1 - 3 * q * peak) * ones
    leaf = (ints, base, q * ones, ones << (width - 1), width)
    hit = _scan((q * lifted, p * lifted, (q - p) * lifted), _digit_moves(n, width), 0, 0, leaf)
    if hit is None:
        return None
    i, j = hit
    a, b = labeling_at(i, n), labeling_at(j, n)
    meet, join0, join1 = (
        ints[lex_index(u)] for u in (meet0(a, b), join(a, b, ZERO), join(a, b, POS))
    )
    lhs = Fraction(q * meet + p * join0 + (q - p) * join1, q * d)
    return ViolationWitness(a, b, lhs, Fraction(ints[i] + ints[j], d))


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
#: digits of a, one mask per digit set of fewer than three digits in
#: `_PAIR_OP_GROUPS` (6 sets), and 3^9 > 2^13, so a kept result has n <= 8
#: and at most 48 masks of 1 KiB: the 16 kept results hold at most
#: 768 KiB of masks.
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
    # of digit e move up by d - e blocks of 3^(n-1-t) fields, so a move is
    # an AND with the mask of the digits e that move alike (none when they
    # are all three digits), then one shift for each amount they move by.
    # Each shift also goes x blocks further down: the source starts at the
    # first b whose first t digits are a's, the result at the first b whose
    # first t + 1 digits are a's, and the b that fall below a's prefix are
    # shifted out.  Every drop is whole blocks, so the masks stay aligned.
    # Above the last digit a move is (mask, shifts) per operation, with
    # mask 0 for no AND and a shift below 0 a shift down; the last digit's
    # moves are `_leaf_plan`s.
    total = 3**n * width
    levels = []
    for t in range(n):
        step = 3 ** (n - 1 - t) * width
        block = (1 << step) - 1
        repeat = ((1 << total) - 1) // ((1 << 3 * step) - 1)
        masks = {
            digits: sum([block << e * step for e in digits]) * repeat if len(digits) < 3 else 0
            for row in _PAIR_OP_GROUPS for groups in row for digits, _ in groups
        }
        if t + 1 == n:
            levels.append(tuple([_leaf_plan(x, step, masks) for x in range(3)]))
            break
        levels.append(tuple([
            tuple([
                tuple([
                    (masks[digits], tuple([(up - x) * step for up in ups]))
                    for digits, ups in groups
                ])
                for groups in _PAIR_OP_GROUPS[x]
            ])
            for x in range(3)
        ]))
    return tuple(levels)


def _leaf_plan(x: int, step: int, masks: Dict[Tuple[int, ...], int]):
    # The last digit's moves for digit x of a, as one sum: the pieces of all
    # three operations that shift by the same amount are added first and
    # shifted once.  Fields do not carry, so adding and shifting commute.
    # The amounts are all >= 0 at x = 0 and all <= 0 above, and the sums
    # are taken from the farthest amount in: each is shifted by the step to
    # the next one in, where the next sum is added.  The plan is the first
    # piece (operation, mask), then (shift, pieces, whether a's own term
    # joins here) for each amount from the farthest in, then the last
    # amount's shift down.  a's own term is aligned to the prefix's first
    # b, so it joins at the amount -x, which every plan has.
    by_shift: Dict[int, List[Tuple[int, int]]] = {}
    for o, groups in enumerate(_PAIR_OP_GROUPS[x]):
        for digits, ups in groups:
            for up in ups:
                by_shift.setdefault(up - x, []).append((o, masks[digits]))
    order = sorted(by_shift, reverse=(x == 0))
    first = by_shift[order[0]].pop(0)
    plan = tuple([
        ((far - near) * step, tuple(by_shift[near]), near == -x)
        for far, near in zip([order[0], *order], order)
    ])
    return (*first, plan, -order[-1] * step)


_kept_digit_moves = lru_cache(maxsize=16)(_build_digit_moves)


def _gather(v: int, moves: Tuple[Tuple[int, Tuple[int, ...]], ...]) -> int:
    # The pieces of v that `moves` cut and shift, ORed together.  They do
    # not overlap, so the first piece is the start.
    out = -1
    for mask, shifts in moves:
        part = v & mask if mask else v
        for shift in shifts:
            if shift > 0:
                piece = part << shift
            elif shift:
                piece = part >> -shift
            else:
                piece = part
            out = piece if out < 0 else out | piece
    return out


def _scan(vectors, levels, t: int, i: int, leaf) -> Optional[Tuple[int, int]]:
    # The first violating pair (a, b), as lex indices, among the a whose
    # first t digits are those of index i, given the packed vectors gathered
    # along those t digits; None if there is none.  A prefix's gathers serve
    # every a that extends it.  At the last digit, one loop over a's last
    # digit adds the three gathers and a's own term, the base less q f(a)
    # in every field, and tests the total.
    v0, v1, v2 = vectors
    if t + 1 < len(levels):
        stride = 3 ** (len(levels) - 1 - t)
        for x, (m0, m1, m2) in enumerate(levels[t]):
            hit = _scan(
                (_gather(v0, m0), _gather(v1, m1), _gather(v2, m2)),
                levels,
                t + 1,
                i + x * stride,
                leaf,
            )
            if hit is not None:
                return hit
        return None
    ints, base, qones, signs, width = leaf
    # base and q in every field, from the prefix's first b on.
    base = base >> i * width
    qones = qones >> i * width
    for k, (first, mask, plan, final) in enumerate(levels[t], i):
        acc = vectors[first] & mask if mask else vectors[first]
        for shift, pieces, own in plan:
            if shift > 0:
                acc <<= shift
            elif shift:
                acc >>= -shift
            for o, mask in pieces:
                acc += vectors[o] & mask if mask else vectors[o]
            if own:
                acc += base - ints[k] * qones
        if final:
            acc >>= final
        hits = acc & signs
        if hits:
            return k, k + ((hits & -hits).bit_length() - 1) // width
    return None
