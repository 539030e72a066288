"""The skew-bisubmodularity checker: a local test, then a scan for the witness.

`check_alpha_bisubmodular` queries all 3^n values of an oracle once,
through `evaluate`, reads each as its integer numerator over the oracle's
denominator and packs them into one int.  It accepts when every local pair
(`local_pairs`, O(n^2 3^n) of them) meets the defining inequality.  Only
when one does not does it scan the 9^n / 2 pairs with a <=lex b, to name
the lexicographically first violating pair as a `ViolationWitness`, the
one place the checker itself makes Fractions.

The local set.  For a labeling x with x_i = 0, write x^{is} for x with its
label i set to s in {-, +}, and x^{is,jt} for x^{is} with label j set to t.

- The clash pair (x^{i-}, x^{i+}), for each x and each i with x_i = 0.
  Its meet0 and join0 are x and its join1 is x^{i+}, so its inequality
  reads (1 + alpha) f(x) <= alpha f(x^{i+}) + f(x^{i-}).
- The orthant squares (x^{is}, x^{jt}), for each x, each i < j with
  x_i = x_j = 0 and each pair of signs s, t.  The meet0 is x and both
  joins are x^{is,jt}, so the inequality reads
  f(x) + f(x^{is,jt}) <= f(x^{is}) + f(x^{jt}).

Theorem.  For alpha = p/q in (0, 1], f is alpha-bisubmodular if and only
if every local pair meets the inequality.  (Fujishige, Tanigawa & Yoshida,
Discrete Optim. 2014, characterize skew bisubmodularity by the convexity
of the extension; for alpha = 1 compare Ando, Fujishige & Naitoh,
Discrete Math. 1996.)

Proof.  A labeling u stands for the box point with u_j = 1, 0, -alpha at
'+', '0', '-'; f_L is the extension of `lovasz`, the mean of f under the
chain decomposition.

(i) Each local inequality is the pair inequality at a pair, with the
    meet0 and joins listed above, so every local inequality is necessary.

(ii) The cells and their facets.  A point's normalized magnitudes are
    m_j = x_j where x_j >= 0 and m_j = -x_j / alpha where x_j < 0.  For an
    order sigma of the coordinates and a sign vector s, the maximal chain
    u_0 = 0 < u_1 < ... < u_n, u_k being u_{k-1} with label sigma(k) set
    to s_sigma(k), spans the simplex C(sigma, s) of the points with signs
    within s and 1 >= m_sigma(1) >= ... >= m_sigma(n) >= 0.  A point's
    barycentric coordinates there are its chain weights 1 - m_sigma(1),
    m_sigma(k) - m_sigma(k+1) and m_sigma(n), so f_L is affine on each
    cell, where it interpolates f at the vertices.  Scaled to [0, 1]^n,
    the cells of one orthant are the order simplices of Kuhn's
    triangulation, and a face on a plane x_j = 0 is one chain simplex of
    both orthants: the cells cover the box and meet face to face, and
    f_L is continuous.  The facet of C(sigma, s) opposite u_k is where
    the weight of u_k vanishes:
    - k = 0: m_sigma(1) = 1, a facet on the box's boundary;
    - k = n: x_sigma(n) = 0.  The cell across is C(sigma, s) with the
      sign of sigma(n) flipped.  With x = u_{n-1} and i = sigma(n), the
      two opposite vertices are x^{i+} and x^{i-}: the clash facet at x;
    - 0 < k < n: m_sigma(k) = m_sigma(k+1).  The cell across has
      sigma(k) and sigma(k+1) swapped.  With x = u_{k-1}, i = sigma(k),
      j = sigma(k+1), s = s_i and t = s_j, the two opposite vertices are
      x^{is} and x^{jt}: the square facet at x.
    Let the cells A and B share the facet F, with the opposite vertices
    v in A and w in B, and affine pieces l_A and l_B, which agree on F's
    hyperplane.  l_A - l_B is affine and 0 on that hyperplane, so it has
    one sign on A's side, its sign at v, and the other on B's.  So f_L is
    convex across F, the larger of the two pieces near F, exactly when
    l_B(v) <= l_A(v) = f(v).  Let z = theta v +
    (1 - theta) w, 0 < theta < 1, be a point of F.  As l_B is affine,
    l_B(z) = theta l_B(v) + (1 - theta) f(w), so the condition reads
    f_L(z) <= theta f(v) + (1 - theta) f(w).  On the clash facet
    z = x and theta = alpha / (1 + alpha): (1 + alpha) f(x) <=
    alpha f(x^{i+}) + f(x^{i-}).  On the square facet z is the midpoint
    of x and x^{is,jt}, which is that of x^{is} and x^{jt}, and
    theta = 1/2: f(x) + f(x^{is,jt}) <= f(x^{is}) + f(x^{jt}).  So
    convexity across each interior facet is one local inequality.

(iii) Let g be continuous on the box, affine on each cell and convex
    across every interior facet.  Take y and z inside the box such that
    the segment [y, z] lies in no facet's hyperplane and meets no face of
    dimension n - 2 or less of any cell.  The pairs (y, z) that fail this
    lie in finitely many sets of dimension below 2n, so these pairs are
    dense.  Along such a segment g is piecewise affine, and each of its
    finitely many breaks is a crossing of an interior facet, from one
    cell into the one across, where by convexity across the facet the
    slope does not fall.  A continuous function of one variable that is
    piecewise affine with slopes that never fall is convex, so
    g((1 - t) y + t z) <= (1 - t) g(y) + t g(z).  Both sides are
    continuous in (y, z), so this holds at every pair: g is convex.

(iv) If f_L is convex then f is alpha-bisubmodular.  Take labelings a
    and b.  By the lattice identity that verify-all tests,
    meet0(a, b) + alpha join0(a, b) + (1 - alpha) join1(a, b) = a + b
    coordinatewise, and meet0 <= join0 <= join1 is a chain.  So
    1/2 meet0, alpha/2 join0 and (1 - alpha)/2 join1 is a chain
    distribution with mean (a + b) / 2, hence its chain decomposition,
    and f_L((a + b) / 2) = 1/2 f(meet0) + alpha/2 f(join0) +
    (1 - alpha)/2 f(join1).  Convexity gives f_L((a + b) / 2) <=
    (f_L(a) + f_L(b)) / 2 = (f(a) + f(b)) / 2, and twice that is the
    pair inequality at (a, b).

If every local inequality holds, (ii) makes f_L convex across every
interior facet, (iii) makes it convex and (iv) makes f alpha-bisubmodular;
(i) is the converse.  The local set lists more inequalities than the
facets need, clash pairs at every x and not only where x has one '0', and
each of them is necessary by (i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import and_
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    LEX_ORDER,
    POS,
    ZERO,
    Label,
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

#: The digit sets that `_PAIR_OP_GROUPS` names, each once: six sets of
#: fewer than three digits, and all three, which need no mask.
_DIGIT_SETS = tuple(
    dict.fromkeys(digits for row in _PAIR_OP_GROUPS for groups in row for digits, _ in groups)
)


def local_pairs(centre: Sequence[Label]) -> Tuple[Tuple[int, int, int, int, int], ...]:
    """The local pairs at `centre` as lex-index tuples (a, b, meet0, join0, join1), a <lex b.

    For each '0' label i of centre, the clash pair; then for each pair
    i < j of '0' labels, the four orthant squares, signs in lex order.
    Moving label i from '0' to '-' or '+' moves the lex index by
    -3^(n-1-i) or +3^(n-1-i).  These are the tests of the checker, at the
    all-'0' centre, and of the generator, at every centre of a table.
    """
    n = len(centre)
    x = lex_index(centre)
    steps = [3 ** (n - 1 - i) for i, label in enumerate(centre) if label is ZERO]
    pairs = [(x - s, x + s, x, x, x + s) for s in steps]
    for k, s in enumerate(steps):
        for t in steps[k + 1 :]:
            for di in (-s, s):
                for dj in (-t, t):
                    a, b = sorted((x + di, x + dj))
                    pairs.append((a, b, x, x + di + dj, x + di + dj))
    return tuple(pairs)


def check_alpha_bisubmodular(f: ValueOracle) -> Optional[ViolationWitness]:
    """Test f(a meet b) + alpha f(a join0 b) + (1-alpha) f(a join1 b) <= f(a) + f(b) at every pair.

    Returns None when the inequality holds at all ordered pairs, else the
    lexicographically first violating pair (under '-' < '0' < '+').
    Refuses past `lattice.DEFAULT_ENUM_CAP` points before any oracle call.

    A local test, then a scan for the witness.  Each of the 3^n values is
    queried once, in lex order, through `evaluate`, and read as its
    integer numerator over f's denominator D.  For alpha = p/q the
    inequality is then
    q f(meet) + p f(join0) + (q - p) f(join1) <= q (f(a) + f(b)) on plain
    ints.  `_locally_convex` tests it at the local pairs; when they all
    hold, f is alpha-bisubmodular by the module's theorem and the check
    returns None without a scan.  Otherwise `_scan` finds the first
    violating pair, and only its lhs and rhs are made Fractions.  A
    failing local pair is a violating pair, so the scan finds one; if it
    did not, the check would raise AssertionError rather than accept.

    Only the pairs with a <=lex b are scanned, and the witness is the same:
    meet0 and both joins are commutative, so the inequality is symmetric in
    (a, b), and at a = b both sides equal 2 f(a).  If the first violating
    ordered pair had b <lex a, then (b, a) would violate too and come first;
    so it has a <lex b, and the scan, which takes each a in lex order and
    then its least violating b >= a, finds it.

    Both tests run on packed integers: a vector over lex indices is one int
    with one B-bit field per index.  With f read as its numerators and M
    the largest |f|, `lifted` packs f + M, with fields in [0, 2M], and B is
    the least width with 2^(B-1) > 4qM.  The scan tests all b of one a at
    once.  The vectors q (f + M), p (f + M) and (q - p) (f + M) are packed,
    with fields in [0, 2qM].  For each a, `_scan` gathers them so that
    field b - a holds the value at meet0(a, b), join0(a, b) and
    join1(a, b) respectively, for b >=lex a, and adds the three: their sum
    has fields in [0, 4qM].  The packed q (M - f) + 2^(B-1) - 1 - 3qM, less
    q f(a) in every field and shifted down by a's index, lines up with
    them, with fields in [2^(B-1) - 1 - 4qM, 2^(B-1) - 1].  Field b - a of
    the total is then 2^(B-1) - 1 + e(b), where
    e(b) = q f(meet) + p f(join0) + (q - p) f(join1) - q (f(a) + f(b))
    is the pair's excess, in [-4qM, 4qM].  So every field of every term
    and of the total stays in [0, 2^B): none borrows from or carries into
    the next, and the packed int is the exact sum, field by field.  The
    top bit of field b - a is set exactly when e(b) >= 1, i.e. at the
    violating b.  One AND with the top bits and the lowest set bit give
    the least violating b >= a.
    """
    n = f.arity
    check_enum_cap(n)
    d = f.denominator
    # One `evaluate` query per point, in lex order, each value read as its
    # numerator over D; a table hands back the values it holds.
    ints = [v.numerator * (d // v.denominator) for v in map(f.evaluate, all_labelings(n))]
    p = f.alpha.value.numerator
    q = f.alpha.value.denominator
    packed = _packed(ints, n, p, q)
    if _locally_convex(packed):
        return None
    hit = _first_violation(packed)
    if hit is None:
        raise AssertionError("a local pair fails, but the pair scan found no violating pair")
    i, j = hit
    a, b = labeling_at(i, n), labeling_at(j, n)
    meet, join0, join1 = (
        ints[lex_index(u)] for u in (meet0(a, b), join(a, b, ZERO), join(a, b, POS))
    )
    lhs = Fraction(q * meet + p * join0 + (q - p) * join1, q * d)
    return ViolationWitness(a, b, lhs, Fraction(ints[i] + ints[j], d))


class _Packed(NamedTuple):
    """f's numerators at alpha = p/q, and `lifted`, f + M packed in B-bit
    fields with `ones` holding 1 in every field (M = `peak`, B = `width`)."""

    n: int
    p: int
    q: int
    ints: List[int]
    peak: int
    width: int
    ones: int
    lifted: int


def _packed(ints: List[int], n: int, p: int, q: int) -> _Packed:
    peak = max(map(abs, ints))
    width = (4 * q * peak).bit_length() + 1
    ones = ((1 << len(ints) * width) - 1) // ((1 << width) - 1)
    return _Packed(n, p, q, ints, peak, width, ones, _pack([v + peak for v in ints], width))


def _first_violation(v: _Packed) -> Optional[Tuple[int, int]]:
    # The lex indices of the first violating pair, found by `_scan`; None
    # if there is none.  Field b of base: q (M - f(b)) + 2^(B-1) - 1 - 3qM.
    n, p, q, ints, peak, width, ones, lifted = v
    base = q * (2 * peak * ones - lifted) + ((1 << (width - 1)) - 1 - 3 * q * peak) * ones
    leaf = (ints, base, q * ones, ones << (width - 1), width)
    levels = _kept(_build_digit_moves, n, width)
    return _scan((q * lifted, p * lifted, (q - p) * lifted), levels, 0, 0, leaf)


def _locally_convex(v: _Packed) -> bool:
    """Whether every local pair meets the inequality, on the packed f + M.

    A local pair's excess q f(meet) + p f(join0) + (q - p) f(join1)
    - q (f(a) + f(b)) has coefficients that sum to 0, so it reads the same
    on f + M.  Its five points lie at fixed offsets from its meet0 x, and
    `_build_local_tests` adds up the coefficients at each offset d, each a
    multiple of q plus one of p.  Shifted down by d fields (up when d < 0),
    a vector's field x + d lines up with field x.  So the shifted
    multiples of `lifted`, plus 2^(B-1) - 1 in every field, sum at field x
    to 2^(B-1) - 1 plus the excess of the local pair that makes the same
    moves from x, wherever x is '0' at the moved labels.  Every field
    below 3^n sums the same coefficients times values in [0, 2M] (0 where
    a shift brings in a field from past either end), and the positive
    coefficients sum to 2q, so every field lies within 2^(B-1) - 1 +- 4qM,
    in [0, 2^B): none borrows or carries, and the fields past the top,
    which only a shift up fills, change no bit below them.  The test's
    mask holds the top bits of the fields that are '0' at the moved
    labels, so a set bit under it is a local pair with excess >= 1.  The
    first test with one stops the loop.
    """
    forms, tests = _kept(_build_local_tests, v.n, v.width)
    vectors = [(wq * v.q + wp * v.p) * v.lifted for wq, wp in forms]
    biased = (v.ones << (v.width - 1)) - v.ones
    for mask, terms in tests:
        acc = biased
        for shift, negate, k in terms:
            term = vectors[k]
            if shift > 0:
                term >>= shift
            elif shift:
                term <<= -shift
            if negate:
                acc -= term
            else:
                acc += term
        if acc & mask:
            return False
    return True


#: A local pair's excess, q f(meet0) + p f(join0) + (q - p) f(join1)
#: - q (f(a) + f(b)), as the coefficient (of q, of p) of each point of
#: (a, b, meet0, join0, join1).
_EXCESS_WEIGHTS = ((-1, 0), (-1, 0), (1, 0), (0, 1), (1, -1))


def _build_local_tests(n: int, width: int):
    # The forms (of q, of p) the tests use, and one test per local pair at
    # the all-'0' centre c: the mask of the top bits of the fields that are
    # '0' at the labels the pair moves, and the terms (shift, negate, form)
    # of its excess, one per offset from c with a nonzero coefficient.  The
    # shift is the offset in bits; a coefficient is kept as its sign and a
    # form whose first nonzero entry is positive.  The forms that occur are
    # q, p and q + p, all positive, so each vector of `_locally_convex` is
    # >= 0 and a shift down drops whole fields exactly.  The squares at one
    # (i, j) share one mask.  A mask is its pattern doubled up to the top.
    total = 3**n * width
    tops = _repeated(1 << (width - 1), width, total)
    places = [3 ** (n - 1 - i) for i in range(n)]
    zeros = [
        _repeated((tops & ((1 << place * width) - 1)) << place * width, 3 * place * width, total)
        for place in places
    ]
    centre = (3**n - 1) // 2
    forms: Dict[Tuple[int, int], int] = {}
    masks: Dict[Tuple[int, ...], int] = {}
    tests = []
    for pair in local_pairs((ZERO,) * n):
        a, b = pair[:2]
        moved = tuple([i for i, t in enumerate(places) if a // t % 3 != 1 or b // t % 3 != 1])
        if moved not in masks:
            masks[moved] = reduce(and_, [zeros[i] for i in moved])
        weights: Dict[int, Tuple[int, int]] = {}
        for u, (wq, wp) in zip(pair, _EXCESS_WEIGHTS):
            cq, cp = weights.get(u - centre, (0, 0))
            weights[u - centre] = (cq + wq, cp + wp)
        terms = []
        for offset, form in weights.items():
            negate = form < (0, 0)
            if negate:
                form = (-form[0], -form[1])
            if form != (0, 0):
                terms.append((offset * width, negate, forms.setdefault(form, len(forms))))
        tests.append((masks[moved], tuple(terms)))
    return tuple(forms), tuple(tests)


def _repeated(pattern: int, period: int, total: int) -> int:
    # `pattern` repeated every `period` bits below bit `total`, by doubling.
    while period < total:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << total) - 1)


def _pack(fields: List[int], width: int) -> int:
    # One int with fields[k] at bit k * width, each field in [0, 2^width).
    # Neighbours are merged pairwise, so the work is N log N, not N^2.
    while len(fields) > 1:
        if len(fields) % 2:
            fields.append(0)
        fields = [lo | hi << width for lo, hi in zip(fields[::2], fields[1::2])]
        width *= 2
    return fields[0]


#: `_kept` keeps a mask builder's result for the (n, B) whose masks, of
#: 3^n B bits each, fit in this many bits; 3^9 > 2^13, so a kept result
#: has n <= 8 and masks of at most 1 KiB.  A `_build_digit_moves` result
#: holds, for each of the n digits of a, one mask per digit set of fewer
#: than three digits in `_DIGIT_SETS` (6 sets): at most 48 masks.  A
#: `_build_local_tests` result holds one mask per moved label and one per
#: moved pair of labels: at most 8 + 28 = 36.  So the 32 kept results hold
#: at most 1.5 MiB of masks.
_KEPT_MASK_BITS = 2**13


def _kept(build, n: int, width: int):
    # build(n, width), kept while its masks are small.
    if 3**n * width > _KEPT_MASK_BITS:
        return build(n, width)
    return _kept_results(build, n, width)


@lru_cache(maxsize=32)
def _kept_results(build, n: int, width: int):
    return build(n, width)


def _build_digit_moves(n: int, width: int):
    # For each lex digit t of a, most significant first, and each value x of
    # it: the `_plan`s that gather meet0, join0 and join1 along digit t.
    # Field k of a gather is field k' of its source, where k' is k with its
    # digit t, say d, replaced by e = row[d], the operation's digit on
    # (x, d).  Fields of digit e move up by d - e blocks of 3^(n-1-t)
    # fields, so a piece is the source ANDed with the mask of the digits e
    # that move alike (no AND when they are all three digits), shifted by
    # that amount.  Each shift also goes x blocks further down: the source
    # starts at the first b whose first t digits are a's, the result at the
    # first b whose first t + 1 digits are a's, and the b that fall below
    # a's prefix are shifted out.  Every drop is whole blocks, so the masks
    # stay aligned.  Above the last digit each operation has its own plan;
    # at the last digit one plan sums all three.
    total = 3**n * width
    levels = []
    for t in range(n):
        step = 3 ** (n - 1 - t) * width
        block = (1 << step) - 1
        repeat = ((1 << total) - 1) // ((1 << 3 * step) - 1)
        masks = {
            digits: sum([block << e * step for e in digits]) * repeat if len(digits) < 3 else 0
            for digits in _DIGIT_SETS
        }
        ops = ((0, 1, 2),) if t + 1 == n else ((0,), (1,), (2,))
        levels.append(tuple([tuple([_plan(x, step, masks, o) for o in ops]) for x in range(3)]))
    return tuple(levels)


def _plan(x: int, step: int, masks: Dict[Tuple[int, ...], int], ops: Tuple[int, ...]):
    # The pieces of the operations `ops` for digit x of a, as one sum: the
    # pieces that shift by the same amount are added first and shifted
    # once.  Fields do not carry, so adding and shifting commute.  The
    # amounts are all >= 0 at x = 0 and all <= 0 above, and the sums are
    # taken from the farthest amount in: each is shifted by the step to the
    # next one in, where the next sum is added, and the last by its own
    # amount.  The plan is the first piece (operation, mask), then a
    # (shift, pieces, whether a's own term joins here) step per amount, a
    # shift below 0 being a shift down; steps that do nothing are left
    # out.  a's own term joins the plan over all three operations, the last
    # digit's.  It is aligned to the prefix's first b, so it joins at the
    # amount -x, which every plan has: each operation maps (x, x) to x.
    by_shift: Dict[int, List[Tuple[int, int]]] = {}
    for o in ops:
        for digits, ups in _PAIR_OP_GROUPS[x][o]:
            for up in ups:
                by_shift.setdefault(up - x, []).append((o, masks[digits]))
    order = sorted(by_shift, reverse=(x == 0))
    first = by_shift[order[0]].pop(0)
    own = len(ops) == 3
    steps = [
        ((far - near) * step, tuple(by_shift[near]), own and near == -x)
        for far, near in zip([order[0], *order], order)
    ]
    steps.append((order[-1] * step, (), False))
    return (*first, tuple([s for s in steps if s != (0, (), False)]))



def _scan(vectors, levels, t: int, i: int, leaf) -> Optional[Tuple[int, int]]:
    # The first violating pair (a, b), as lex indices, among the a whose
    # first t digits are those of index i, given the packed vectors gathered
    # along those t digits; None if there is none.  A prefix's gathers serve
    # every a that extends it.  Each value of digit t runs its plans on the
    # vectors: above the last digit the three sums are the next digit's
    # vectors, and at the last digit the one plan's sum, with a's own term,
    # the base less q f(a) in every field, is the total to test.
    ints, base, qones, signs, width = leaf
    last = t + 1 == len(levels)
    if last:
        # base and q in every field, from the prefix's first b on.
        base >>= i * width
        qones >>= i * width
    stride = 3 ** (len(levels) - 1 - t)
    for k, plans in zip(range(i, i + 3 * stride, stride), levels[t]):
        gathered = []
        for first, mask, steps in plans:
            acc = vectors[first] & mask if mask else vectors[first]
            for shift, pieces, own in steps:
                if shift > 0:
                    acc <<= shift
                elif shift:
                    acc >>= -shift
                for o, mask in pieces:
                    acc += vectors[o] & mask if mask else vectors[o]
                if own:
                    acc += base - ints[k] * qones
            gathered.append(acc)
        if last:
            hits = acc & signs
            if hits:
                return k, k + ((hits & -hits).bit_length() - 1) // width
        else:
            hit = _scan(gathered, levels, t + 1, k, leaf)
            if hit is not None:
                return hit
    return None
