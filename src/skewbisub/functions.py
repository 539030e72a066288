"""Value oracles over the signed three-element domain.

A function is only ever accessed through :class:`ValueOracle`: an arity, a
skew parameter, and an `evaluate` method returning exact rationals.  Two
concrete representations are provided (a complete explicit table, and a sum
of low-arity table terms), plus a rejection-sampling instance generator and
the JSON instance format used by the CLI.  The skew-bisubmodularity checker
is in `checker`.

Every oracle also reads its values as integers: `numerator(a)` is
f(a) * `denominator`, for one fixed denominator D > 0 per oracle, so exact
code that only compares or adds values (the minimizer, brute force, the
closure LP, the checker once it has read them) runs on plain ints and
makes a Fraction only for what it reports.

A sum is compiled once, when it is built: every term value is scaled to an
integer numerator over one common denominator D, the lcm of all their
denominators, and the terms are merged into as few integer tables as their
scopes allow.  Terms on the same set of coordinates, in any order, become
one table over the sorted scope, and each unary term is added into a table
that covers its coordinate.  A read turns the labeling into base-3 digits
once and adds one plain int per merged table; `evaluate` makes one
Fraction of the total.

A table has one form, however it is built: its 3^n values as Fractions in
lex order, and beside them their numerators over the lcm D of their
denominators.  `TableFunction._of_entries` builds every table from
(numerator, denominator, value) entries: a loaded table, a loaded sum's
term tables, `expand_to_table` (one Fraction per point, so D is the least
denominator of the values) and `generate_instance`.  No read of a table
makes a Fraction: `evaluate` and `__getitem__` hand back a held value,
and `instance_to_json` formats them (`_values_json`).

`numerators()` is the one bulk read: all 3^n numerators in lex order, as a
tuple, for code that reads every point (brute force, the closure LP's
costs, `expand_to_table`).  A table hands over its stored row.  The
checker queries every point through `evaluate` instead, once each.

A document is read in one pass, through `_table_values`, the one copy of
the key and value rules, for a table and for each term of a sum alike.
Each value goes straight to its entry through `_entry`, each distinct
text parsed once per process, and a sum's `Term` tables are built from
the entries only when `terms` is first read.

Oracle-call accounting: `evaluate` and `numerator` each bump `call_count`
by exactly one per call, and `numerators` by 3^n.  The counter is a plain
attribute with no locking; either confine an oracle to one thread or only
trust the count after all evaluation has quiesced.
"""

from __future__ import annotations

import abc
import math
import random
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .checker import check_alpha_bisubmodular
from .lattice import (
    DEFAULT_ENUM_CAP,
    POS,
    ZERO,
    Alpha,
    ArityMismatchError,
    CapExceededError,
    Label,
    Labeling,
    _LEX_DIGIT,
    all_labelings,
    check_enum_cap,
    exceeds_cap,
    format_labeling,
    join,
    labeling_at,
    lex_index,
    meet0,
    parse_labeling,
)
from .rationals import as_rational, format_rational, parse_rational

#: `generate_instance` draws its integer term values uniformly from here.
_VALUE_RANGE = (-10, 10)


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
        """Oracle calls so far: one per `evaluate` or `numerator`, 3^n per `numerators`."""
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

    def numerators(self) -> Tuple[int, ...]:
        """`numerator` at all 3^n labelings in lex order; counts 3^n oracle calls.

        Callers that read every point check the arity against their
        enumeration cap first.
        """
        return tuple(map(self.numerator, all_labelings(self._arity)))

    @abc.abstractmethod
    def _numerator(self, labeling: Labeling) -> int:
        raise NotImplementedError

    def _value(self, labeling: Labeling) -> Fraction:
        return Fraction(self._numerator(labeling), self.denominator)


def _entry(raw: object) -> Tuple[int, int, Fraction]:
    """A value as (numerator, denominator, value): the one form in which a
    table, or a term of a sum, holds what it reads."""
    value = as_rational(raw)
    return (*value.as_integer_ratio(), value)


#: Value texts parsed so far.  Documents repeat a few texts many times, and
#: entries are immutable, so each text is parsed once per process.  Only str
#: goes in: True == 1 == 1.0, so other types would share entries.  A failing
#: parse raises, and lru_cache keeps nothing for it.  Keys need no such
#: cache: a table reads known keys by `_indices_by_key`, and only a key that
#: fails, or a table too short to be complete, is parsed.
_parsed_entry = lru_cache(maxsize=1 << 12)(_entry)


def _is_mapping(obj: object) -> bool:
    # JSON objects are dicts; isinstance against the Mapping ABC is a
    # Python-level call.
    return type(obj) is dict or isinstance(obj, Mapping)


@lru_cache(maxsize=16)
def _lex_positions(arity: int) -> Dict[Labeling, int]:
    # The lex index of every labeling of length `arity`, by the labeling:
    # the map a table reads through, so a text key is refused there.  The
    # arity is a validated int, and only tables ask for it, once their
    # 3^arity values are in hand, so an entry here and in `_indices_by_key`
    # is about as large as the table that made it.
    return {u: k for k, u in enumerate(all_labelings(arity))}


@lru_cache(maxsize=16)
def _indices_by_key(arity: int) -> Dict[object, int]:
    # The lex index of every labeling of length `arity`, by the labeling
    # and by its text.
    positions = _lex_positions(arity)
    return {**positions, **{format_labeling(u): k for u, k in positions.items()}}


def _key_labeling(key: object, arity: int, where: str) -> Labeling:
    """The labeling a key names, or InstanceFormatError saying what is wrong."""
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
    return labeling


def _table_values(
    arity: int, values: Mapping[object, object], where: str = "values"
) -> List[Tuple[int, int, Fraction]]:
    """A complete table's values in lex order, as `_entry` reads them.

    Keys are label tuples or '-','0','+' strings; values anything
    `parse_rational` accepts, or Fractions.  This is the one copy of the
    key and value rules: a bad or misplaced key, a repeated labeling, a
    bad value and a missing labeling each raise InstanceFormatError, the
    first of them in the order of `values`, a missing one after all keys.
    """
    # Distinct keys of length `arity` number at most 3^arity.  A table with
    # as many keys holds each value at its labeling's lex index, and every
    # key that is not one of the table's texts or labelings is bad.  A
    # table with fewer keys lacks one: it holds its values by labeling, so
    # no lex index is made, whatever the arity.  An empty slot reads None
    # either way; `_entry` never returns None.
    if exceeds_cap(arity, len(values)):
        known: Dict[object, int] = {}
        table = defaultdict(lambda: None)
    else:
        known = _indices_by_key(arity)
        table = [None] * 3**arity
    for key, raw in values.items():
        try:
            slot = known.get(key)
        except TypeError:
            # An unhashable key, which a Mapping other than a dict can have.
            slot = None
        if slot is None:
            slot = _key_labeling(key, arity, where)
        if table[slot] is not None:
            raise InstanceFormatError(
                f"{where}: duplicate key {_slot_text(slot, arity)!r}"
            )
        try:
            # Strings first: a str is never a Fraction.
            table[slot] = _parsed_entry(raw) if type(raw) is str else _entry(raw)
        except ValueError:
            # Parse again to name the key in the message.
            parse_rational(raw, where=f"{where}[{_slot_text(slot, arity)!r}]")
    if not known:
        missing = next(u for u in all_labelings(arity) if table[u] is None)
        raise InstanceFormatError(
            f"{where}: missing value for labeling {format_labeling(missing)!r}"
        )
    return table


def _slot_text(slot: object, arity: int) -> str:
    # The text of a labeling that `_table_values` holds a value at.
    return format_labeling(labeling_at(slot, arity) if type(slot) is int else slot)


class TableFunction(ValueOracle):
    """An explicit function given by its complete 3^n value table.

    Keys may be label tuples or '-','0','+' strings; values anything
    `parse_rational` accepts, or Fractions.  Every table, however it was
    built, holds one form: its 3^n values as Fractions in lex order, which
    `evaluate`, `__getitem__` and `instance_to_json` hand back without
    making one, and beside them the row of integer numerators over D, the
    lcm of the values' denominators, which `numerators` hands over.  A str
    value is parsed once per process.  A read of one labeling is one
    lookup of its lex index, in a map that all tables of the arity share.
    """

    def __init__(self, arity: int, alpha: Alpha, values: Mapping[object, object]):
        super().__init__(arity, alpha)
        self._store(_table_values(arity, values))

    @classmethod
    def _of_entries(
        cls, arity: int, alpha: Alpha, entries: Sequence[Tuple[int, int, Fraction]]
    ) -> "TableFunction":
        """The table whose value at the k-th labeling in lex order is
        entries[k], a (numerator, denominator, value) triple as `_entry`
        makes it."""
        f = cls.__new__(cls)
        ValueOracle.__init__(f, arity, alpha)
        f._store(entries)
        return f

    def _store(self, entries: Sequence[Tuple[int, int, Fraction]]) -> None:
        self._values = tuple([value for _, _, value in entries])
        self._denominator = scale = math.lcm(*{den for _, den, _ in entries})
        self._row = tuple([num * (scale // den) for num, den, _ in entries])
        self._positions = _lex_positions(self._arity)

    @property
    def denominator(self) -> int:
        return self._denominator

    def numerators(self) -> Tuple[int, ...]:
        self._call_count += len(self._row)
        return self._row

    def _numerator(self, labeling: Labeling) -> int:
        return self._row[self._positions[labeling]]

    def __getitem__(self, labeling: Labeling) -> Fraction:
        """Direct table read; does not count as an oracle call."""
        return self._values[self._positions[labeling]]

    _value = __getitem__


class Term(NamedTuple):
    """One low-arity summand: a table applied to a subset of the coordinates."""

    scope: Tuple[int, ...]
    table: TableFunction


def _scope_order(scope: Tuple[int, ...]) -> List[int]:
    """For each lex index over sorted(scope), the index of the same labeling over scope."""
    weights = [3 ** (len(scope) - 1 - t) for t in range(len(scope))]
    order = [0]
    for t in sorted(range(len(scope)), key=scope.__getitem__):
        order = [k + digit * weights[t] for k in order for digit in range(3)]
    return order


def _merged_tables(
    scopes: Sequence[Tuple[int, ...]], rows: Sequence[List[int]]
) -> Dict[Tuple[int, ...], List[int]]:
    """One integer table per set of coordinates, equal in sum to the terms'.

    Each term's row is reordered to its sorted scope and added to the one
    table of that scope; then each unary table is added into the first
    table of two or more coordinates that covers its coordinate, if any.
    A table's entry k is the labeling whose lex digits, read in sorted
    scope order, spell k in base 3.
    """
    merged: Dict[Tuple[int, ...], List[int]] = {}
    for scope, row in zip(scopes, rows):
        key = tuple(sorted(scope))
        if key != scope:
            row = [row[k] for k in _scope_order(scope)]
        merged[key] = list(map(add, merged[key], row)) if key in merged else row
    for unary in [key for key in merged if len(key) == 1]:
        (j,) = unary
        cover = next((key for key in merged if len(key) > 1 and j in key), None)
        if cover is not None:
            values = merged.pop(unary)
            weight = 3 ** (len(cover) - 1 - cover.index(j))
            merged[cover] = [
                v + values[k // weight % 3] for k, v in enumerate(merged[cover])
            ]
    return merged


class SumFunction(ValueOracle):
    """A function given as a sum of low-arity table terms over scopes.

    Each term contributes its table evaluated on the restriction of the
    input to the term's scope.  This is how large-arity test instances stay
    cheap to evaluate and provably skew bisubmodular (the property is closed
    under coordinate lifting and addition).

    The terms are compiled when the sum is built.  D is the lcm of the
    denominators of every term value, and each term becomes a list of
    integer numerators over D in the lex order of its scope.  Terms on the
    same set of coordinates, in any order, are added into one table, and
    each unary table into one table that covers its coordinate
    (`_merged_tables`).  So `numerator` turns the labeling into lex digits
    once and adds one entry per merged table on plain ints, and `evaluate`
    returns Fraction(total, D), which equals the Fraction sum of the term
    values.  `terms` still gives the terms as built, unmerged and in order.
    """

    #: A loaded sum's scopes and lex rows of `_entry` triples, until
    #: `terms` first builds the tables from them.
    _rows: Optional[Tuple[List[Tuple[int, ...]], List[List[Tuple[int, int, Fraction]]]]] = None

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
        self._terms: Optional[Tuple[Term, ...]] = tuple(terms)
        self._compile(
            [tuple(scope) for scope, _ in self._terms],
            [[(v, table.denominator) for v in table._row] for _, table in self._terms],
        )

    @classmethod
    def _loaded(
        cls,
        arity: int,
        alpha: Alpha,
        scopes: List[Tuple[int, ...]],
        rows: List[List[Tuple[int, int, Fraction]]],
    ) -> "SumFunction":
        """The sum of the terms that `instance_from_json` read and checked.

        Term t has scope scopes[t] and the values rows[t], (numerator,
        denominator, value) triples in lex order; its table is made from
        them when `terms` is first read.
        """
        f = cls.__new__(cls)
        ValueOracle.__init__(f, arity, alpha)
        f._terms = None
        f._rows = scopes, rows
        f._compile(scopes, rows)
        return f

    def _compile(
        self, scopes: Sequence[Tuple[int, ...]], rows: Sequence[List[Tuple[int, ...]]]
    ) -> None:
        # Entry k of a row starts with the k-th value's numerator and
        # denominator: a loaded term's triples, or a built one's pairs.
        self._denominator = scale = math.lcm(*[e[1] for row in rows for e in row])
        merged = _merged_tables(scopes, [[e[0] * (scale // e[1]) for e in row] for row in rows])
        # Pairs, most of a generated sum, are read without a loop over the scope.
        self._pairs = tuple([(*key, row) for key, row in merged.items() if len(key) == 2])
        self._others = tuple([(key, row) for key, row in merged.items() if len(key) != 2])

    @property
    def terms(self) -> Tuple[Term, ...]:
        if self._terms is None:
            scopes, rows = self._rows
            alpha = self.alpha
            self._terms = tuple([
                Term(scope, TableFunction._of_entries(len(scope), alpha, row))
                for scope, row in zip(scopes, rows)
            ])
            self._rows = None
        return self._terms

    @property
    def denominator(self) -> int:
        return self._denominator

    def _numerator(self, labeling: Labeling) -> int:
        digits = list(map(_LEX_DIGIT.__getitem__, labeling))
        total = 0
        for i, j, row in self._pairs:
            total += row[3 * digits[i] + digits[j]]
        for scope, row in self._others:
            k = 0
            for i in scope:
                k = 3 * k + digits[i]
            total += row[k]
        return total


def expand_to_table(f: ValueOracle, cap: int = DEFAULT_ENUM_CAP) -> TableFunction:
    """Materialize any oracle into an explicit complete table."""
    check_enum_cap(f.arity, cap)
    d = f.denominator
    values = [Fraction(v, d) for v in f.numerators()]
    return TableFunction._of_entries(
        f.arity, f.alpha, [(v.numerator, v.denominator, v) for v in values]
    )


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


#: A table value is lo + r, r in [0, hi - lo], drawn as CPython's
#: `randint(lo, hi)` draws it: r is the top 5 bits of one Mersenne Twister
#: word, drawn again from the next word while r >= 21.  So r is the word's
#: top byte shifted right by 3, and a top byte of 168 or more is a redraw.
#: `_VALUE_OF_TOP` maps a top byte to its r, `_REDRAWN_TOPS` lists the
#: redraws, and `_TOP_KEPT` marks a top byte 1 if it gives a value, else 0.
_VALUE_BITS = (_VALUE_RANGE[1] - _VALUE_RANGE[0]).bit_length()
_VALUE_OF_TOP = bytes(top >> (8 - _VALUE_BITS) for top in range(256))
_REDRAWN_TOPS = bytes(
    top for top in range(256) if _VALUE_OF_TOP[top] > _VALUE_RANGE[1] - _VALUE_RANGE[0]
)
_TOP_KEPT = bytes(int(top not in _REDRAWN_TOPS) for top in range(256))

#: Words per read of the look-ahead.  A unary term takes about 9 words (two
#: tables) and a pair term about 7,000 (some 500 tables), so a unary term
#: takes one read and a pair term a few.  A read holds `_READ_WORDS` words
#: and no rewind replays more, so every buffer stays a few KiB.  (A rewind
#: over all of a pair term's words makes ints of 30 KiB and more; freeing
#: such a buffer once it is mmapped raises glibc's mmap threshold, later
#: ones then stay on the heap, and peak RSS rose by about 0.4 MiB.)  Reads
#: of 512 words made building the benchmark's inputs about a quarter slower.
_READ_WORDS = 2048


def _read_values(rng: random.Random, words: int) -> Tuple[bytes, bytes]:
    """The top bytes of rng's next `words` words, and the values r they
    give in order, redraws left out: r for `randint(lo, hi) = lo + r`.

    `getrandbits(32 * w)` puts word i at bits [32i, 32i + 32), so the top
    byte of word i is byte 4i + 3 of its little-endian bytes.
    """
    tops = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
    return tops, tops.translate(_VALUE_OF_TOP, _REDRAWN_TOPS)


def _words_used(tops: bytes, count: int) -> int:
    """How many leading words of `tops` give its first `count` values."""
    # The least fixed point of words = count + (redraws among the first
    # `words` words), reached from below in a few counts.
    kept = tops.translate(_TOP_KEPT)
    words = count
    while True:
        more = count + kept.count(0, 0, words)
        if more == words:
            return words
        words = more


def _packed(values: bytes, count: int, size: int, width: int) -> List[int]:
    """Columns of `count` tables of `size` consecutive values r each:
    column j holds position j of table t in the `width`-byte field t,
    little-endian, so its value is the sum of r << (8 * width * t)."""
    field = bytearray(count * width)
    columns = []
    for j in range(size):
        field[::width] = values[j : count * size : size]
        columns.append(int.from_bytes(field, "little"))
    return columns


def _first_accepted(
    columns: List[int],
    count: int,
    width: int,
    pairs: Tuple[Tuple[int, int, int, int, int], ...],
    p: int,
    q: int,
) -> Optional[int]:
    """The first of `count` packed tables that meets every pair of
    `_pair_tests`, or None.

    Each pair is evaluated on all fields at once, as the inequality scaled
    by q for alpha = p/q: q f(a) + q f(b) - q f(meet) - p f(join0) - (q - p) f(join1)
    >= 0.  Its coefficients sum to 0, so it reads the same on r as on
    lo + r, and where every packed r lies in [0, top] (top = hi - lo for
    the generator) it lies within +-2q * top.  The caller sizes the fields
    so that 2^(8 * width - 1), the bias, exceeds 2q * top: then each
    field's value plus the bias lies in [0, 2^(8 * width)), so no field
    borrows from or carries into the next, and the field's top bit, the
    bias bit, is set exactly when the value is >= 0.  A table passes while
    its bias bit survives every pair.
    """
    biases = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")
    accepted = biases
    for a, b, meet, join0, join1 in pairs:
        accepted &= (
            q * (columns[a] + columns[b] - columns[meet] - columns[join1])
            + p * (columns[join1] - columns[join0])
            + biases
        )
        if not accepted:
            return None
    return ((accepted & -accepted).bit_length() - 1) // (8 * width) if accepted else None


def _draw_table(
    rng: random.Random, k: int, p: int, q: int, max_rejections: int
) -> Optional[List[int]]:
    """The first table of 3^k `randint` values, among the next
    `max_rejections`, that meets every pair of `_pair_tests`, with rng just
    past it; None if there is none.

    Each read is a batch: the values left over from the last read and
    those of this one, as many whole tables as they make.  rng's state is
    kept before each read, so the rewind after an accepted table replays
    at most one read's words.
    """
    lo, hi = _VALUE_RANGE
    size = 3**k
    pairs = _pair_tests(k, p, q)
    width = (2 * q * (hi - lo)).bit_length() // 8 + 1
    values = b""
    tried = 0
    while tried < max_rejections:
        state = rng.getstate()
        tops, more = _read_values(rng, _READ_WORDS)
        carried = len(values)
        values += more
        count = min(len(values) // size, max_rejections - tried)
        first = _first_accepted(_packed(values, count, size, width), count, width, pairs, p, q)
        if first is not None:
            end = (first + 1) * size
            rng.setstate(state)
            rng.getrandbits(32 * _words_used(tops, end - carried))
            return [lo + r for r in values[end - size : end]]
        tried += count
        values = values[count * size :]
    return None


def generate_instance(
    n: int,
    alpha: Alpha,
    num_terms: int,
    max_scope: int,
    seed: int,
    max_rejections: int = 10000,
) -> SumFunction:
    """Draw a random skew-bisubmodular sum-of-terms instance, deterministically.

    Each term's scope is drawn uniformly without replacement (`randint`
    and `sample`), its size uniform in {1, ..., max_scope}; its integer
    value table is drawn uniformly over `_VALUE_RANGE`, table after table,
    until one meets every pair of `_pair_tests`: the pairs a <lex b, less
    those that hold with equality on every table, which reject exactly the
    tables that a scan of all ordered pairs rejects.  At most
    `max_rejections` tables are drawn per term.  Every accepted table is
    checked again by `check_alpha_bisubmodular`.

    The instance is byte for byte the one that drawing each value with
    `randint` and scanning one table at a time gives.  `_draw_table` reads
    tables ahead in batches and tests a batch at once, and that rests on
    two facts about CPython's Mersenne Twister.  `getrandbits(32 * w)`
    puts word i of its w words at bits [32i, 32i + 32), and
    `getrandbits(5)`, which `randint(-10, 10)` calls for each value until
    it is below 21, is the top 5 bits of one word.  So the values of w
    words are the top bytes of the read's little-endian bytes, shifted
    right by 3, with the redraws (>= 21) left out (`_read_values`).  A
    batch packs position j of all its tables into one int, a field per
    table (`_packed`), and evaluates each pair's inequality, scaled by q
    for alpha = p/q, on all fields at once (`_first_accepted`).  The
    inequality's coefficients sum to 0, so the offset lo cancels and the
    fields hold r = value - lo in [0, hi - lo].  Its value then lies within
    +-2q(hi - lo), so each field takes the least number of bytes whose
    bits below the top one hold 2q(hi - lo); the top bit is a bias bit
    that reads the sign, and no field carries into the next.  After the
    first accepted table, the stream is rewound to the start of the read
    that holds its last value and advanced by exactly the words up to that
    value (`_words_used`), so the next scope is drawn from the stream that
    `randint` would have left.
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    if max_scope not in (1, 2):
        raise ValueError(f"max_scope must be 1 or 2, got {max_scope}")
    rng = random.Random(seed)
    p = alpha.value.numerator
    q = alpha.value.denominator
    terms: List[Term] = []
    for pos in range(num_terms):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(sorted(rng.sample(range(n), k)))
        int_values = _draw_table(rng, k, p, q, max_rejections)
        if int_values is None:
            raise GenerationBudgetError(
                f"term {pos}: no accepted table within {max_rejections} draws"
            )
        table = TableFunction._of_entries(k, alpha, [(v, 1, Fraction(v)) for v in int_values])
        witness = check_alpha_bisubmodular(table)
        if witness is not None:  # pragma: no cover - guards the fast path
            raise AssertionError(
                f"integer pre-check accepted a violating table: {witness.to_json()}"
            )
        terms.append(Term(scope, table))
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
    if not _is_mapping(obj):
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
        if not _is_mapping(values):
            raise InstanceFormatError("'values' must be an object")
        try:
            return TableFunction(n, alpha, values)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from None
    if fmt == "sum":
        raw_terms = _require_key(obj, "terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise InstanceFormatError("'terms' must be a non-empty array")
        scopes = []
        rows = []
        for pos, raw_term in enumerate(raw_terms):
            if not _is_mapping(raw_term):
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
            if not _is_mapping(values):
                raise InstanceFormatError(f"terms[{pos}].values must be an object")
            try:
                row = _table_values(len(raw_scope), values)
            except ValueError as exc:
                raise InstanceFormatError(f"terms[{pos}]: {exc}") from None
            scopes.append(tuple(raw_scope))
            rows.append(row)
        return SumFunction._loaded(n, alpha, scopes, rows)
    raise InstanceFormatError(f"unknown format {fmt!r} (expected 'table' or 'sum')")


def _values_json(table: TableFunction) -> Dict[str, str]:
    # A table's "values" object: its held values, keys in lex order.
    return {
        format_labeling(u): format_rational(v)
        for u, v in zip(all_labelings(table.arity), table._values)
    }


def instance_to_json(f: ValueOracle) -> dict:
    """Serialize an oracle to the canonical JSON form (keys in lex order)."""
    if isinstance(f, TableFunction):
        return {"format": "table", "n": f.arity, "alpha": str(f.alpha), "values": _values_json(f)}
    if isinstance(f, SumFunction):
        return {
            "format": "sum",
            "n": f.arity,
            "alpha": str(f.alpha),
            "terms": [
                {"scope": list(term.scope), "values": _values_json(term.table)}
                for term in f.terms
            ],
        }
    raise TypeError(f"cannot serialize oracle of type {type(f).__name__}")
