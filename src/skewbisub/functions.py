"""Value oracles over the signed three-element domain.

A function is only ever accessed through :class:`ValueOracle`: an arity, a
skew parameter, and an `evaluate` method returning exact rationals.  Two
concrete representations are provided (a complete explicit table, and a sum
of low-arity table terms), plus the skew-bisubmodularity checker, a
rejection-sampling instance generator, and the JSON instance format used by
the CLI.

Every oracle also reads its values as integers: `numerator(a)` is
f(a) * `denominator`, for one fixed denominator D > 0 per oracle, so exact
code that only compares or adds values (the minimizer, brute force, the
closure LP) runs on plain ints and makes a Fraction only for what it
reports.

A sum is compiled once, when it is built: every term value is scaled to an
integer numerator over one common denominator D, the lcm of all their
denominators, and each term keeps its scope and a flat list of those
numerators in the lex order of `all_labelings`.  A read turns the labeling
into base-3 digits once and adds plain ints; `evaluate` makes one Fraction
of the total.  A table is scaled to integers over the lcm of its values'
denominators on its first integer read, not when it is built, so code that
reads only Fractions (the checker) never pays for it; `evaluate` returns
the stored Fraction.

Oracle-call accounting: `evaluate` and `numerator` each bump `call_count`
by exactly one per call.  The counter is a plain attribute with no locking;
either confine an oracle to one thread or only trust the count after all
evaluation has quiesced.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    Alpha,
    ArityMismatchError,
    LEX_ORDER,
    Label,
    Labeling,
    POS,
    ZERO,
    all_labelings,
    format_labeling,
    join,
    lex_index,
    meet0,
    parse_labeling,
)
from .rationals import common_denominator, format_rational, parse_rational

#: Enumeration guard: operations that touch all 3^n points refuse to run
#: past this many, so a fat-fingered arity fails loudly instead of hanging.
#: At 3^8 points `check_alpha_bisubmodular` accepts in about 0.5 s on a
#: 2-vCPU VM.
DEFAULT_ENUM_CAP = 3**8

#: `generate_instance` draws its integer term values uniformly from here.
_VALUE_RANGE = (-10, 10)


def exceeds_cap(n: int, cap: int) -> bool:
    """Whether 3^n > cap, without computing 3^n when n alone settles it.

    3^n >= 2^n > cap once n >= cap.bit_length(), so a huge n costs nothing.
    """
    return n >= cap.bit_length() or 3**n > cap


class CapExceededError(ValueError):
    """An exhaustive operation was asked to enumerate more points than its cap."""


class GenerationBudgetError(RuntimeError):
    """Rejection sampling exhausted its draw budget without an accepted table."""


class InstanceFormatError(ValueError):
    """A JSON instance document is malformed; the message names the bad key."""


class ValueOracle(abc.ABC):
    """Contract for functions D^n -> Q accessed through value queries."""

    def __init__(self, arity: int, alpha: Alpha):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self._arity = arity
        self._alpha = alpha
        self._call_count = 0

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def alpha(self) -> Alpha:
        return self._alpha

    @property
    def call_count(self) -> int:
        """Number of `evaluate` and `numerator` calls made so far."""
        return self._call_count

    @property
    @abc.abstractmethod
    def denominator(self) -> int:
        """The fixed D > 0 with f(a) = numerator(a) / D at every point."""
        raise NotImplementedError

    def evaluate(self, labeling: Labeling) -> Fraction:
        """Query the function value at one point; counts one oracle call."""
        if len(labeling) != self._arity:
            raise ArityMismatchError(
                f"labeling has length {len(labeling)}, oracle arity is {self._arity}"
            )
        self._call_count += 1
        return self._value(labeling)

    def numerator(self, labeling: Labeling) -> int:
        """f(labeling) * `denominator`, an exact int; counts one oracle call."""
        if len(labeling) != self._arity:
            raise ArityMismatchError(
                f"labeling has length {len(labeling)}, oracle arity is {self._arity}"
            )
        self._call_count += 1
        return self._numerator(labeling)

    @abc.abstractmethod
    def _numerator(self, labeling: Labeling) -> int:
        raise NotImplementedError

    def _value(self, labeling: Labeling) -> Fraction:
        return Fraction(self._numerator(labeling), self.denominator)


#: Key and value texts parsed so far.  Documents repeat a few texts many
#: times (every term of a sum has the same 9 keys), and labelings and
#: Fractions are immutable, so each text is parsed once per process.  Only
#: str goes in: True == 1 == 1.0, so other types would share entries.  A
#: failing parse raises, and lru_cache keeps nothing for it.
_parsed_labeling = lru_cache(maxsize=1 << 12)(parse_labeling)
_parsed_rational = lru_cache(maxsize=1 << 12)(parse_rational)


def _normalize_table(
    arity: int, values: Mapping[object, object], where: str = "values"
) -> Dict[Labeling, Fraction]:
    table: Dict[Labeling, Fraction] = {}
    for key, raw in values.items():
        if isinstance(key, str):
            labeling = _parsed_labeling(key)
        elif isinstance(key, tuple) and all(isinstance(l, Label) for l in key):
            labeling = key
        else:
            raise InstanceFormatError(f"{where}: bad labeling key {key!r}")
        if len(labeling) != arity:
            raise InstanceFormatError(
                f"{where}: key {format_labeling(labeling)!r} has length "
                f"{len(labeling)}, expected {arity}"
            )
        if labeling in table:
            raise InstanceFormatError(
                f"{where}: duplicate key {format_labeling(labeling)!r}"
            )
        try:
            # Strings first: a str is never a Fraction, and isinstance against
            # Fraction, an abstract base class, makes a Python-level call.
            if isinstance(raw, str):
                table[labeling] = _parsed_rational(raw)
            elif isinstance(raw, Fraction):
                table[labeling] = raw
            else:
                table[labeling] = parse_rational(raw)
        except ValueError:
            # Parse again to name the key in the message.
            parse_rational(raw, where=f"{where}[{format_labeling(labeling)!r}]")
    # Distinct keys of length `arity` number at most 3^arity.
    if exceeds_cap(arity, len(table)):
        for labeling in all_labelings(arity):
            if labeling not in table:
                raise InstanceFormatError(
                    f"{where}: missing value for labeling {format_labeling(labeling)!r}"
                )
    return table


class TableFunction(ValueOracle):
    """An explicit function given by its complete 3^n value table.

    Keys may be label tuples or '-','0','+' strings; values anything
    `parse_rational` accepts, or Fractions.
    """

    #: The table scaled to integers over `_denominator`, made on first use.
    _numerators: Optional[Dict[Labeling, int]] = None

    def __init__(self, arity: int, alpha: Alpha, values: Mapping[object, object]):
        super().__init__(arity, alpha)
        self._table = _normalize_table(arity, values)

    def __getitem__(self, labeling: Labeling) -> Fraction:
        """Direct table read; does not count as an oracle call."""
        return self._table[labeling]

    def _compile(self) -> Dict[Labeling, int]:
        self._denominator, ints = common_denominator(list(self._table.values()))
        self._numerators = dict(zip(self._table, ints))
        return self._numerators

    @property
    def denominator(self) -> int:
        if self._numerators is None:
            self._compile()
        return self._denominator

    def _numerator(self, labeling: Labeling) -> int:
        numerators = self._numerators
        if numerators is None:
            numerators = self._compile()
        return numerators[labeling]

    def _value(self, labeling: Labeling) -> Fraction:
        return self._table[labeling]


class Term(NamedTuple):
    """One low-arity summand: a table applied to a subset of the coordinates."""

    scope: Tuple[int, ...]
    table: TableFunction


class SumFunction(ValueOracle):
    """A function given as a sum of low-arity table terms over scopes.

    Each term contributes its table evaluated on the restriction of the
    input to the term's scope.  This is how large-arity test instances stay
    cheap to evaluate and provably skew bisubmodular (the property is closed
    under coordinate lifting and addition).

    The terms are compiled in `__init__`.  D is the lcm of the denominators
    of every term value, and each term becomes its scope plus a list of
    integer numerators over D.  Entry k of the list is the k-th labeling of
    `all_labelings(len(scope))`, i.e. the one whose lex digits ('-' -> 0,
    '0' -> 1, '+' -> 2), read in scope order, spell k in base 3.  So
    `numerator` adds one list entry per term on plain ints, and `evaluate`
    returns Fraction(total, D), which equals the Fraction sum of the term
    values.
    """

    def __init__(self, arity: int, alpha: Alpha, terms: Sequence[Term]):
        super().__init__(arity, alpha)
        if not terms:
            raise ValueError("a sum function needs at least one term")
        for pos, term in enumerate(terms):
            if len(set(term.scope)) != len(term.scope):
                raise ValueError(f"term {pos}: scope {term.scope} has repeated indices")
            if any(i < 0 or i >= arity for i in term.scope):
                raise ValueError(
                    f"term {pos}: scope {term.scope} out of range for arity {arity}"
                )
            if term.table.arity != len(term.scope):
                raise ValueError(
                    f"term {pos}: table arity {term.table.arity} != scope size {len(term.scope)}"
                )
            if term.table.alpha != alpha:
                raise ValueError(f"term {pos}: table alpha differs from instance alpha")
        self._terms = tuple(terms)
        self._denominator, numerators = common_denominator(
            [table[u] for scope, table in self._terms for u in all_labelings(len(scope))]
        )
        rows = iter(numerators)
        self._compiled = tuple([
            (scope, list(islice(rows, 3 ** len(scope)))) for scope, _ in self._terms
        ])

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    @property
    def denominator(self) -> int:
        return self._denominator

    def _numerator(self, labeling: Labeling) -> int:
        digits = list(map(LEX_ORDER.index, labeling))
        total = 0
        for scope, numerators in self._compiled:
            k = 0
            for i in scope:
                k = 3 * k + digits[i]
            total += numerators[k]
        return total


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


def expand_to_table(f: ValueOracle, cap: int = DEFAULT_ENUM_CAP) -> TableFunction:
    """Materialize any oracle into an explicit complete table."""
    if exceeds_cap(f.arity, cap):
        raise CapExceededError(f"3^{f.arity} points exceed the enumeration cap {cap}")
    values = {a: f.evaluate(a) for a in all_labelings(f.arity)}
    return TableFunction(f.arity, f.alpha, values)


@lru_cache(maxsize=64)
def _pair_tests(arity: int, p: int, q: int) -> Tuple[Tuple[int, int, int, int, int], ...]:
    # The lex indices (a, b, meet0, join0, join1) of every pair a <lex b
    # whose inequality, scaled by q for alpha = p/q, can fail.  The pairs
    # with b <lex a and a = b are left out by the checker's symmetry
    # argument.  A pair is left out too when each f(u) has the same weight
    # on both sides of q f(meet) + p f(join0) + (q - p) f(join1) <= q (f(a) + f(b)),
    # as when every coordinate of one of a, b is 0 or the other's (meet0 is
    # then that one and both joins the other): both sides are then one
    # linear form, so the pair holds with equality on every table and
    # cannot reject one.  arity <= 2, so an entry is at most 36 tuples.
    labelings = list(all_labelings(arity))
    pairs = []
    for a, x in enumerate(labelings):
        for b, y in enumerate(labelings[a + 1 :], a + 1):
            ops = (lex_index(meet0(x, y)), lex_index(join(x, y, ZERO)), lex_index(join(x, y, POS)))
            weights = dict.fromkeys((a, b, *ops), 0)
            for u, w in zip((a, b, *ops), (-q, -q, q, p, q - p)):
                weights[u] += w
            if any(weights.values()):
                pairs.append((a, b, *ops))
    return tuple(pairs)


def _accepts(
    values: List[int], pairs: Tuple[Tuple[int, int, int, int, int], ...], p: int, q: int
) -> bool:
    # The inequality scaled by q (alpha = p/q) at each pair of `_pair_tests`,
    # on plain ints: the generator's hot rejection path.  Accepted tables
    # are re-confirmed by check_alpha_bisubmodular before use.
    qp = q - p
    for a, b, meet, join0, join1 in pairs:
        if q * values[meet] + p * values[join0] + qp * values[join1] > q * (values[a] + values[b]):
            return False
    return True


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    # `count` values of rng.randint(lo, hi), drawn as CPython draws them:
    # randint(lo, hi) is randrange(lo, hi + 1), which returns lo + r for
    # r = _randbelow(w), w = hi - lo + 1, and _randbelow takes r from
    # getrandbits(w.bit_length()), drawing again while r >= w.  Spelled out,
    # the draws consume the same Mersenne Twister words and give the same
    # values without three Python calls per value, and the stream no longer
    # depends on how a later Python implements randint.
    width = hi - lo + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    values = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        values.append(lo + r)
    return values


def generate_instance(
    n: int,
    alpha: Alpha,
    num_terms: int,
    max_scope: int,
    seed: int,
    max_rejections: int = 10000,
) -> SumFunction:
    """Draw a random skew-bisubmodular sum-of-terms instance, deterministically.

    Each term's scope is drawn uniformly without replacement, its size
    uniform in {1, ..., max_scope}; integer value tables are drawn uniformly
    over `_VALUE_RANGE` and rejection-sampled until the checker accepts.

    A table's 3^k values are drawn by `_randints`, which spells out
    CPython's `randint` -> `_randbelow` path on `getrandbits`: it takes the
    same words of the seeded stream and gives the same values as `randint`,
    and no longer depends on how a later Python implements `randint` (the
    scope draws still call `randint` and `sample`).  A draw is rejected at
    the first pair of `_pair_tests` that violates the inequality: the pairs
    a <lex b, less those that hold with equality on every table.  That
    rejects exactly the tables that a scan of all ordered pairs rejects.
    So every accepted table, and the stream after it, is the one that
    `randint` draws and the full scan give, and the instances are those
    the generator made when it drew that way.
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    if max_scope not in (1, 2):
        raise ValueError(f"max_scope must be 1 or 2, got {max_scope}")
    lo, hi = _VALUE_RANGE
    rng = random.Random(seed)
    p = alpha.value.numerator
    q = alpha.value.denominator
    terms: List[Term] = []
    for pos in range(num_terms):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(sorted(rng.sample(range(n), k)))
        pairs = _pair_tests(k, p, q)
        for _ in range(max_rejections):
            int_values = _randints(rng, lo, hi, 3**k)
            if not _accepts(int_values, pairs, p, q):
                continue
            table = TableFunction(
                k, alpha, {u: Fraction(v) for u, v in zip(all_labelings(k), int_values)}
            )
            witness = check_alpha_bisubmodular(table)
            if witness is not None:  # pragma: no cover - guards the fast path
                raise AssertionError(
                    f"integer pre-check accepted a violating table: {witness.to_json()}"
                )
            terms.append(Term(scope, table))
            break
        else:
            raise GenerationBudgetError(
                f"term {pos}: no accepted table within {max_rejections} draws"
            )
    return SumFunction(n, alpha, terms)


# ---------------------------------------------------------------------------
# JSON instance format
# ---------------------------------------------------------------------------


def _require_key(obj: Mapping, key: str) -> object:
    if key not in obj:
        raise InstanceFormatError(f"missing key {key!r}")
    return obj[key]


def instance_from_json(obj: object) -> ValueOracle:
    """Parse a table-form or sum-form JSON document into an oracle."""
    if not isinstance(obj, Mapping):
        raise InstanceFormatError("instance document must be a JSON object")
    fmt = _require_key(obj, "format")
    raw_n = _require_key(obj, "n")
    if not isinstance(raw_n, int) or isinstance(raw_n, bool) or raw_n < 1:
        raise InstanceFormatError(f"'n' must be a positive integer, got {raw_n!r}")
    n = raw_n
    try:
        alpha = Alpha.parse(_require_key(obj, "alpha"))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    if fmt == "table":
        values = _require_key(obj, "values")
        if not isinstance(values, Mapping):
            raise InstanceFormatError("'values' must be an object")
        try:
            return TableFunction(n, alpha, values)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from None
    if fmt == "sum":
        raw_terms = _require_key(obj, "terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise InstanceFormatError("'terms' must be a non-empty array")
        terms = []
        for pos, raw_term in enumerate(raw_terms):
            if not isinstance(raw_term, Mapping):
                raise InstanceFormatError(f"terms[{pos}] must be an object")
            raw_scope = _require_key(raw_term, "scope")
            if (
                not isinstance(raw_scope, list)
                or not raw_scope
                or not all(isinstance(i, int) and not isinstance(i, bool) for i in raw_scope)
            ):
                raise InstanceFormatError(
                    f"terms[{pos}].scope must be a non-empty array of integers"
                )
            for i in raw_scope:
                if i < 0 or i >= n:
                    raise InstanceFormatError(
                        f"terms[{pos}].scope index {i} out of range for n={n}"
                    )
            if len(set(raw_scope)) != len(raw_scope):
                raise InstanceFormatError(f"terms[{pos}].scope has repeated indices")
            values = _require_key(raw_term, "values")
            if not isinstance(values, Mapping):
                raise InstanceFormatError(f"terms[{pos}].values must be an object")
            try:
                table = TableFunction(len(raw_scope), alpha, values)
            except ValueError as exc:
                raise InstanceFormatError(f"terms[{pos}]: {exc}") from None
            terms.append(Term(tuple(raw_scope), table))
        try:
            return SumFunction(n, alpha, terms)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from None
    raise InstanceFormatError(f"unknown format {fmt!r} (expected 'table' or 'sum')")


def instance_to_json(f: ValueOracle) -> dict:
    """Serialize an oracle to the canonical JSON form (keys in lex order)."""
    if isinstance(f, TableFunction):
        return {
            "format": "table",
            "n": f.arity,
            "alpha": str(f.alpha),
            "values": {
                format_labeling(a): format_rational(f[a]) for a in all_labelings(f.arity)
            },
        }
    if isinstance(f, SumFunction):
        return {
            "format": "sum",
            "n": f.arity,
            "alpha": str(f.alpha),
            "terms": [
                {
                    "scope": list(term.scope),
                    "values": {
                        format_labeling(u): format_rational(term.table[u])
                        for u in all_labelings(term.table.arity)
                    },
                }
                for term in f.terms
            ],
        }
    raise TypeError(f"cannot serialize oracle of type {type(f).__name__}")
