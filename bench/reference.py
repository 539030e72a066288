"""Independent reference for the benchmark's correctness checks.

Written from the definitions alone; nothing here imports skewbisub.

The domain is {-alpha, 0, 1}^n with labels '-', '0', '+' (lexicographic
order '-' < '0' < '+').  Componentwise, '0' lies below both '+' and '-',
which are incomparable.  The meet of two labels is their greatest lower
bound ('0' for the {'+', '-'} clash); the two joins are the least upper
bound where it exists and resolve the clash to '0' (join0) or '+' (join1).
A function f is skew bisubmodular when

    f(a meet b) + alpha f(a join0 b) + (1 - alpha) f(a join1 b) <= f(a) + f(b)

for every ordered pair (a, b).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

LABELS = "-0+"

_RATIONAL = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def rational(raw: object) -> Fraction:
    """An integer or a "p" / "p/q" string as an exact Fraction."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"not a rational: {raw!r}")
    if isinstance(raw, str) and not _RATIONAL.match(raw.strip()):
        raise ValueError(f"not a rational: {raw!r}")
    return Fraction(raw)


def labelings(n: int) -> List[str]:
    """All 3^n labelings in lexicographic order."""
    return ["".join(t) for t in itertools.product(LABELS, repeat=n)]


def lex_index(labeling: str) -> int:
    """Position of a labeling in lexicographic order."""
    index = 0
    for ch in labeling:
        index = 3 * index + LABELS.index(ch)
    return index


def _below(x: str, y: str) -> bool:
    return x == y or x == "0"


def meet_label(x: str, y: str) -> str:
    """Greatest lower bound of two labels."""
    if _below(x, y):
        return x
    if _below(y, x):
        return y
    return "0"


def join_label(x: str, y: str, clash: str) -> str:
    """Least upper bound of two labels; `clash` stands for the {'+', '-'} pair."""
    if _below(x, y):
        return y
    if _below(y, x):
        return x
    return clash


class Instance:
    """A sum-form or table-form JSON document, read as (scope, table) terms.

    A table-form document is one term over all n coordinates.
    """

    def __init__(self, doc: Mapping):
        self.n: int = doc["n"]
        self.alpha = rational(doc["alpha"])
        if doc["format"] == "table":
            raw_terms = [{"scope": list(range(self.n)), "values": doc["values"]}]
        elif doc["format"] == "sum":
            raw_terms = doc["terms"]
        else:
            raise ValueError(f"unknown format {doc['format']!r}")
        self.terms: List[Tuple[Tuple[int, ...], Dict[str, Fraction]]] = []
        for term in raw_terms:
            scope = tuple(term["scope"])
            values = {key: rational(v) for key, v in term["values"].items()}
            if sorted(values) != sorted(labelings(len(scope))):
                raise ValueError(f"term over {scope} does not list every labeling")
            self.terms.append((scope, values))

    def value(self, labeling: str) -> Fraction:
        """f at one labeling."""
        if len(labeling) != self.n or set(labeling) - set(LABELS):
            raise ValueError(f"bad labeling {labeling!r} for n={self.n}")
        return sum(
            (values["".join(labeling[i] for i in scope)] for scope, values in self.terms),
            start=Fraction(0),
        )

    def scaled_table(self) -> Tuple[List[int], int]:
        """(values in lexicographic order times d, d): d clears every denominator."""
        d = 1
        for _, values in self.terms:
            for v in values.values():
                d = math.lcm(d, v.denominator)
        size = 3**self.n
        digits = [
            [index // 3 ** (self.n - 1 - i) % 3 for index in range(size)]
            for i in range(self.n)
        ]
        table = [0] * size
        for scope, values in self.terms:
            ints = [int(values[key] * d) for key in labelings(len(scope))]
            sub = [0] * size
            for i in scope:
                sub = [3 * s + t for s, t in zip(sub, digits[i])]
            table = [x + ints[s] for x, s in zip(table, sub)]
        return table, d


def brute_force_min(inst: Instance) -> Tuple[str, Fraction]:
    """Minimum over all 3^n labelings; ties go to the lexicographically first."""
    table, d = inst.scaled_table()
    best = min(range(len(table)), key=table.__getitem__)
    return labelings(inst.n)[best], Fraction(table[best], d)


_PAIR_TABLES: Dict[int, Tuple[List[int], List[int], List[int]]] = {}


def _pair_tables(n: int) -> Tuple[List[int], List[int], List[int]]:
    # For the ordered pair (i, j) of lexicographic indices, entry 3^n * i + j
    # holds the index of meet, join0 and join1, built one coordinate at a
    # time from the single-label operations.
    if n not in _PAIR_TABLES:
        if n == 0:
            _PAIR_TABLES[0] = ([0], [0], [0])
        else:
            sub = _pair_tables(n - 1)
            size = 3 ** (n - 1)
            tables: Tuple[List[int], List[int], List[int]] = ([], [], [])
            for ia in range(3**n):
                xa, ra = divmod(ia, size)
                for ib in range(3**n):
                    xb, rb = divmod(ib, size)
                    k = ra * size + rb
                    x, y = LABELS[xa], LABELS[xb]
                    heads = (meet_label(x, y), join_label(x, y, "0"), join_label(x, y, "+"))
                    for table, head, rest in zip(tables, heads, sub):
                        table.append(LABELS.index(head) * size + rest[k])
            _PAIR_TABLES[n] = tables
    return _PAIR_TABLES[n]


def first_violation(inst: Instance) -> Optional[Tuple[str, str, Fraction, Fraction]]:
    """The lexicographically first ordered pair violating the inequality.

    Returns (a, b, lhs, rhs) with lhs > rhs, or None when f is skew
    bisubmodular.  Pairs are scanned with a as the outer and b as the inner
    index, both in lexicographic order.
    """
    table, d = inst.scaled_table()
    p, q = inst.alpha.numerator, inst.alpha.denominator
    size = len(table)
    meets, joins0, joins1 = _pair_tables(inst.n)
    for ia in range(size):
        qfa = q * table[ia]
        base = ia * size
        for ib in range(size):
            k = base + ib
            lhs = q * table[meets[k]] + p * table[joins0[k]] + (q - p) * table[joins1[k]]
            if lhs > qfa + q * table[ib]:
                names = labelings(inst.n)
                return (
                    names[ia],
                    names[ib],
                    Fraction(lhs, q * d),
                    Fraction(table[ia] + table[ib], d),
                )
    return None


def pairs_scanned(n: int, witness: Optional[Sequence[str]]) -> int:
    """Pairs an exhaustive scan visits before it stops: 9^n for an accept."""
    if witness is None:
        return 9**n
    return lex_index(witness[0]) * 3**n + lex_index(witness[1]) + 1
