"""Value oracles over the signed three-element domain.

A function is only ever accessed through :class:`ValueOracle`: an arity, a
skew parameter, and an `evaluate` method returning exact rationals.  Two
concrete representations are provided (a complete explicit table, and a sum
of low-arity table terms), plus the skew-bisubmodularity checker, a
rejection-sampling instance generator, and the JSON instance format used by
the CLI.

A sum is compiled once, when it is built: every term value is scaled to an
integer numerator over one common denominator D, the lcm of all their
denominators, and each term keeps its scope and a flat list of those
numerators in the lex order of `all_labelings`.  An evaluation turns the
labeling into base-3 digits once, adds plain ints and makes one Fraction.

Oracle-call accounting: `evaluate` bumps `call_count` by exactly one per
call.  The counter is a plain attribute with no locking; either confine an
oracle to one thread or only trust the count after all evaluation has
quiesced.
"""

from __future__ import annotations

import abc
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, sub
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
    meet0,
    parse_labeling,
)
from .rationals import format_rational, parse_rational

#: Enumeration guard: operations that touch all 3^n points refuse to run
#: past this many, so a fat-fingered arity fails loudly instead of hanging.
DEFAULT_ENUM_CAP = 3**8


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
        """Number of `evaluate` calls made so far."""
        return self._call_count

    def evaluate(self, labeling: Labeling) -> Fraction:
        """Query the function value at one point; counts one oracle call."""
        if len(labeling) != self._arity:
            raise ArityMismatchError(
                f"labeling has length {len(labeling)}, oracle arity is {self._arity}"
            )
        self._call_count += 1
        return self._value(labeling)

    @abc.abstractmethod
    def _value(self, labeling: Labeling) -> Fraction:
        raise NotImplementedError


def _normalize_table(
    arity: int, values: Mapping[object, object], where: str = "values"
) -> Dict[Labeling, Fraction]:
    table: Dict[Labeling, Fraction] = {}
    for key, raw in values.items():
        if isinstance(key, str):
            labeling = parse_labeling(key)
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
        if isinstance(raw, Fraction):
            table[labeling] = raw
        else:
            try:
                table[labeling] = parse_rational(raw)
            except ValueError:
                # Parse again to name the key in the message.
                parse_rational(raw, where=f"{where}[{format_labeling(labeling)!r}]")
    if len(table) != 3**arity:
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

    def __init__(self, arity: int, alpha: Alpha, values: Mapping[object, object]):
        super().__init__(arity, alpha)
        self._table = _normalize_table(arity, values)

    def __getitem__(self, labeling: Labeling) -> Fraction:
        """Direct table read; does not count as an oracle call."""
        return self._table[labeling]

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
    `evaluate` adds one list entry per term on plain ints and returns
    Fraction(total, D), which equals the Fraction sum of the term values.
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
        values = [
            [table[u] for u in all_labelings(len(scope))] for scope, table in self._terms
        ]
        self._denominator = math.lcm(*[v.denominator for row in values for v in row])
        # A list, not a generator, as in simplex._integer_scale.
        self._compiled = tuple([
            (scope, [v.numerator * (self._denominator // v.denominator) for v in row])
            for (scope, _), row in zip(self._terms, values)
        ])

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    def _value(self, labeling: Labeling) -> Fraction:
        digits = list(map(LEX_ORDER.index, labeling))
        total = 0
        for scope, numerators in self._compiled:
            k = 0
            for i in scope:
                k = 3 * k + digits[i]
            total += numerators[k]
        return Fraction(total, self._denominator)


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

    Only the pairs with a <lex b are visited, and the witness is the same:
    meet0 and both joins are commutative, so the inequality is symmetric in
    (a, b), and at a = b both sides equal 2 f(a).  If the first violating
    ordered pair had b <lex a, then (b, a) would violate too and come first;
    so it has a <lex b, and the half scan, which visits its pairs in the
    same order, finds it.

    For each a, the lex indices of meet0(a, b), join0(a, b) and join1(a, b)
    over all b are built as rows, digit by digit, and a prefix's rows serve
    every a that extends it; no 9^n table is built.  The last digit stays
    apart: for b = 3r + d, op(a, b) has index 3 row[r] + e, where the row
    covers the first n - 1 digits and e is op on the last digits of a and
    b.  So values are read from the slice of indices congruent to e mod 3,
    and the three a's that differ only in the last digit share rows of
    3^(n-1) entries.
    """
    n = f.arity
    if 3**n > cap:
        raise CapExceededError(f"3^{n} points exceed the enumeration cap {cap}")
    labelings = list(all_labelings(n))
    values = [f.evaluate(a) for a in labelings]
    scale = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    p = f.alpha.value.numerator
    q = f.alpha.value.denominator
    # weighted[o][e][r]: the weight of operation o times the value at lex
    # index 3r + e.
    weighted = [[[w * x for x in ints[e::3]] for e in range(3)] for w in (q, p, q - p)]
    for head, top in enumerate(_prefix_rows(n - 1)):
        for last in range(3):
            i = 3 * head + last
            j = _first_violating_b(top, weighted, i, last)
            if j is not None:
                r, d = divmod(j, 3)
                meet, join0, join1 = (
                    values[3 * top[o][r] + _PAIR_OP_DIGITS[o][last][d]] for o in range(3)
                )
                al = f.alpha.value
                lhs = meet + al * join0 + (1 - al) * join1
                return ViolationWitness(labelings[i], labelings[j], lhs, values[i] + values[j])
    return None


def _prefix_rows(m: int, rows=([0], [0], [0])):
    # For each a-prefix of m digits, in lex order, the rows of meet0, join0
    # and join1: entry r of a row is the lex index of the operation on the
    # a-prefix and the b-prefix with index r.
    if m == 0:
        yield rows
        return
    for digit in range(3):
        yield from _prefix_rows(
            m - 1,
            tuple([
                [3 * r + e for r in row for e in table[digit]]
                for row, table in zip(rows, _PAIR_OP_DIGITS)
            ]),
        )


def _first_violating_b(top, weighted, i: int, last: int) -> Optional[int]:
    # The least j > i such that the pair (a, b) at lex indices (i, j)
    # violates the scaled inequality, or None.  `top` holds the rows of a's
    # first n - 1 digits and `last` is a's last digit.  Each last digit d of
    # b is scanned as one stream over r, with j = 3r + d.
    qa = weighted[0][last][i // 3]
    found = None
    for d in range(3):
        r0 = (i - d + 3) // 3  # the least r with 3r + d > i
        gathered = [
            map(weighted[o][_PAIR_OP_DIGITS[o][last][d]].__getitem__, top[o][r0:])
            for o in range(3)
        ]
        excess = list(
            map(sub, map(add, map(add, gathered[0], gathered[1]), gathered[2]), weighted[0][d][r0:])
        )
        if excess and max(excess) > qa:
            r = r0 + next(t for t, x in enumerate(excess) if x > qa)
            if found is None or 3 * r + d < found:
                found = 3 * r + d
    return found


def expand_to_table(f: ValueOracle, cap: int = DEFAULT_ENUM_CAP) -> TableFunction:
    """Materialize any oracle into an explicit complete table."""
    if 3**f.arity > cap:
        raise CapExceededError(f"3^{f.arity} points exceed the enumeration cap {cap}")
    values = {a: f.evaluate(a) for a in all_labelings(f.arity)}
    return TableFunction(f.arity, f.alpha, values)


def _fast_integer_accept(
    int_values: List[int],
    meets: List[List[int]],
    joins0: List[List[int]],
    joins1: List[List[int]],
    p: int,
    q: int,
) -> bool:
    # Same inequality scaled by q (alpha = p/q), over plain ints: the
    # generator's hot rejection path.  Accepted tables are re-confirmed by
    # check_alpha_bisubmodular before use.
    qp = q - p
    for i, fa in enumerate(int_values):
        mi = meets[i]
        j0 = joins0[i]
        j1 = joins1[i]
        for j, fb in enumerate(int_values):
            if q * int_values[mi[j]] + p * int_values[j0[j]] + qp * int_values[j1[j]] > q * (fa + fb):
                return False
    return True


def _pair_op_indices(arity: int):
    meets, joins0, joins1 = zip(*_prefix_rows(arity))
    return list(all_labelings(arity)), meets, joins0, joins1


_PAIR_OPS_CACHE: Dict[int, tuple] = {}


def generate_instance(
    n: int,
    alpha: Alpha,
    num_terms: int,
    max_scope: int,
    seed: int,
    value_range: Tuple[int, int] = (-10, 10),
    max_rejections: int = 10000,
) -> SumFunction:
    """Draw a random skew-bisubmodular sum-of-terms instance, deterministically.

    Each term's scope is drawn uniformly without replacement, its size
    uniform in {1, ..., max_scope}; integer value tables are drawn uniformly
    over `value_range` and rejection-sampled until the checker accepts.
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    if max_scope not in (1, 2):
        raise ValueError(f"max_scope must be 1 or 2, got {max_scope}")
    lo, hi = value_range
    if lo > hi:
        raise ValueError(f"empty value range {value_range}")
    rng = random.Random(seed)
    p = alpha.value.numerator
    q = alpha.value.denominator
    terms: List[Term] = []
    for pos in range(num_terms):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(sorted(rng.sample(range(n), k)))
        if k not in _PAIR_OPS_CACHE:
            _PAIR_OPS_CACHE[k] = _pair_op_indices(k)
        labelings, meets, joins0, joins1 = _PAIR_OPS_CACHE[k]
        for _ in range(max_rejections):
            int_values = [rng.randint(lo, hi) for _ in labelings]
            if not _fast_integer_accept(int_values, meets, joins0, joins1, p, q):
                continue
            table = TableFunction(
                k, alpha, {u: Fraction(v) for u, v in zip(labelings, int_values)}
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
