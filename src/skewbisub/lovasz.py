"""Chain decomposition, the piecewise-linear extension, and its subgradients.

Every point x of the box [-alpha, 1]^n is the mean of exactly one
probability distribution on D^n whose support is totally ordered (a chain).
Its definition is a greedy sign-pattern recursion: peel off the current
sign pattern of the residual with the largest weight that keeps all residual
signs intact, and repeat; the leftover mass lands on the all-Zero vector.
The tests keep that recursion as the reference.

Here the recursion is one sort.  It lowers every live normalized magnitude
(x_j on the Pos side, -x_j/alpha on the Neg side) by the same amount per
round, so coordinates leave the support in decreasing-magnitude order, and
the atoms are the prefixes of that order at which the magnitude drops.  With
x = nums / D over a common denominator D and alpha = p/q, the magnitude of
coordinate j times D * p is the integer key num_j * p (num_j >= 0) or
-num_j * q (num_j < 0), and D * p stands for magnitude 1.  Scaling by the
positive D * p keeps the order and the ties, so `chain_order` sorts plain
ints; the prefix ending at order position k then has weight
(key_k - key_{k+1}) / (D * p), with key_n = 0, and the all-Zero vector gets
(D * p - max key) / (D * p).  Both are exact quotients of integers.

The same pass builds the maximal chain along that order, n + 1 labelings
from all-Zero up, and their lex indices.  `chain_order` is the one walk:
`_atoms` reads the atoms off it, weights as integers over D * p, for
`decompose` and `extension_value`; `subgradient` and the minimizer read f
along its chain and build their cuts from those values with one function,
`_cut_column`; the minimizer keys its memo by the lex indices; and
`oracles.convex_closure` starts its LP at the chain's basis.

The extension of an oracle f is the expectation of f under that chain
distribution: the atoms' integer weights times f's integer numerators,
made one Fraction over D * p times f's denominator.  It agrees with f on
the 3^n vertices, is piecewise linear, and is convex exactly when f is
skew bisubmodular; on the convex case its minimum over the box equals the
discrete minimum, which is what the minimizer exploits.

All arithmetic here is exact: the decomposition's defining properties
(marginals, weights summing to one, uniqueness) are equalities, and
tolerances would only mask bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .functions import ValueOracle
from .lattice import (
    Alpha,
    ArityMismatchError,
    Labeling,
    NEG,
    POS,
    ZERO,
    format_labeling,
)
from .rationals import as_rational, common_denominator, format_rational, parse_rational


@dataclass(frozen=True)
class FractionalPoint:
    """An exact rational point of the box [-alpha, 1]^n.

    Each coordinate goes through `rationals.as_rational`, so floats,
    decimal strings and booleans are refused.
    """

    coords: Tuple[Fraction, ...]
    alpha: Alpha

    def __post_init__(self) -> None:
        coords = tuple([as_rational(c, f"coordinate {j}") for j, c in enumerate(self.coords)])
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        # -p/q <= m/d <= 1 with d > 0, compared on the integers.
        p, q = self.alpha.value.numerator, self.alpha.value.denominator
        for j, c in enumerate(coords):
            m, d = c.numerator, c.denominator
            if m * q < -p * d or m > d:
                raise ValueError(
                    f"coordinate {j} = {c} outside the box [{-self.alpha.value}, 1]"
                )

    @classmethod
    def parse(cls, text: str, alpha: Alpha) -> "FractionalPoint":
        """Parse a comma-separated rational vector such as "3/5,-1/5"."""
        parts = text.split(",")
        coords = tuple(
            parse_rational(part.strip(), where=f"coordinate {j}")
            for j, part in enumerate(parts)
        )
        return cls(coords, alpha)

    @classmethod
    def zero(cls, n: int, alpha: Alpha) -> "FractionalPoint":
        return cls((Fraction(0),) * n, alpha)

    def __str__(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)


def midpoint(x: FractionalPoint, y: FractionalPoint) -> FractionalPoint:
    """Exact midpoint of two box points (the box is convex, so it stays inside)."""
    if x.alpha != y.alpha:
        raise ValueError("points carry different skew parameters")
    if len(x.coords) != len(y.coords):
        raise ArityMismatchError(f"arity mismatch: {len(x.coords)} vs {len(y.coords)}")
    half = Fraction(1, 2)
    return FractionalPoint(
        tuple((a + b) * half for a, b in zip(x.coords, y.coords)), x.alpha
    )


@dataclass(frozen=True)
class ChainDecomposition:
    """The unique chain-supported distribution with a given mean.

    Atoms are (label vector, weight) pairs in chain order, outermost
    (largest) first; weights are positive and sum to one; the all-Zero
    vector can only be the last atom.
    """

    atoms: Tuple[Tuple[Labeling, Fraction], ...]

    def support(self) -> Tuple[Labeling, ...]:
        return tuple(u for u, _ in self.atoms)

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"u": format_labeling(u), "w": format_rational(w)} for u, w in self.atoms
            ]
        }


@lru_cache(maxsize=64)
def _place_values(n: int) -> Tuple[int, ...]:
    # 3^(n-1-j) for each coordinate j of a labeling of length n: its place
    # in the base-3 lex index.
    return tuple(3 ** (n - 1 - j) for j in range(n))


def chain_order(
    nums: Sequence[int], p: int, q: int
) -> Tuple[List[int], List[int], List[Labeling], List[int]]:
    """The chain walk at the point nums / D of the box for alpha = p/q.

    Coordinate j's key is num_j * p when num_j >= 0 and -num_j * q
    otherwise: its normalized magnitude scaled by D * p, so D * p stands for
    magnitude 1.  `order` lists the coordinates innermost first (largest
    key first, the larger index first among ties); zero coordinates come
    last, on the Pos side.  `keys` are the keys in that order followed by a
    closing 0, so the prefix of the first k + 1 coordinates of the order
    has weight (keys[k] - keys[k + 1]) / (D * p) and is an atom when that
    is positive, and the all-Zero vector gets (D * p - keys[0]) / (D * p).

    `chain` holds the n + 1 labelings of the maximal chain from all-Zero
    up: labeling k + 1 is labeling k with coordinate order[k] set to its
    sign.  Its points are affinely independent, the point lies in their
    convex hull, and the extension is linear there.  `codes` are their lex
    indices (`lattice.lex_index`): setting coordinate j to Pos (Neg) adds
    (subtracts) its place value 3^(n-1-j), read from `_place_values`.
    """
    n = len(nums)
    by_coordinate = [num * p if num >= 0 else -num * q for num in nums]
    order = sorted(range(n - 1, -1, -1), key=by_coordinate.__getitem__, reverse=True)
    keys = [by_coordinate[j] for j in order]
    keys.append(0)
    current = [ZERO] * n
    chain = [tuple(current)]
    places = _place_values(n)
    code = (3**n - 1) // 2
    codes = [code]
    for j in order:
        if nums[j] >= 0:
            current[j], code = POS, code + places[j]
        else:
            current[j], code = NEG, code - places[j]
        chain.append(tuple(current))
        codes.append(code)
    return order, keys, chain, codes


def _atoms(x: FractionalPoint) -> Tuple[int, List[Tuple[Labeling, int]]]:
    """(D p, atoms): the chain decomposition at x, each weight times D p.

    The atoms are the maximal chain's labelings where the key drops,
    outermost first, and all-Zero last for the mass left below magnitude 1.
    """
    alpha = x.alpha.value
    denominator, nums = common_denominator(x.coords)
    order, keys, chain, _ = chain_order(nums, alpha.numerator, alpha.denominator)
    full = denominator * alpha.numerator
    atoms = [
        (chain[k + 1], keys[k] - keys[k + 1])
        for k in reversed(range(len(order)))
        if keys[k] != keys[k + 1]
    ]
    if keys[0] != full:
        atoms.append((chain[0], full - keys[0]))
    return full, atoms


def decompose(x: FractionalPoint) -> ChainDecomposition:
    """The chain decomposition at x, read off the sorted keys of its walk."""
    full, atoms = _atoms(x)
    return ChainDecomposition(tuple([(u, Fraction(w, full)) for u, w in atoms]))


def _check_oracle_point(f: ValueOracle, x: FractionalPoint) -> None:
    """Raise unless x has f's arity and skew parameter."""
    if f.arity != len(x.coords):
        raise ArityMismatchError(
            f"oracle arity {f.arity} != point dimension {len(x.coords)}"
        )
    if f.alpha != x.alpha:
        raise ValueError(
            f"oracle alpha {f.alpha} != point alpha {x.alpha}"
        )


def extension_value(f: ValueOracle, x: FractionalPoint) -> Fraction:
    """Expectation of f under the chain distribution at x (at most n+1 oracle calls).

    It reads f's integer numerators at the atoms, in `decompose`'s order,
    and makes one Fraction of their weighted sum.
    """
    _check_oracle_point(f, x)
    full, atoms = _atoms(x)
    # The weights are integers over D p and the values over f's denominator.
    total = sum([w * f.numerator(u) for u, w in atoms])
    return Fraction(total, full * f.denominator)


def _cut_column(
    order: Sequence[int],
    nums: Sequence[int],
    chain: Sequence[int],
    denominator: int,
    p: int,
    q: int,
) -> Tuple[int, ...]:
    """The cut of one chain walk as the primitive integer column (s g, s).

    `chain` holds f at the walk's n + 1 points as integers over a common
    `denominator` D, all-Zero first, and coordinate order[k] joins at step
    k + 1, Pos when nums[j] >= 0 and Neg otherwise.  With
    Delta_j = (chain[k + 1] - chain[k]) / D for j = order[k] and
    alpha = p/q, the cut g has g_j = Delta_j on the Pos side and
    -Delta_j q/p on the Neg side, and s is the lcm of g's denominators.

    p D (g, 1) is the integer vector with p D Delta_j where j goes Pos,
    -q D Delta_j where j goes Neg, and p D last.  (s g, s) is primitive: a
    prime dividing s divides some denominator of g to the full power it has
    in s, and that entry of s g is then not a multiple of it.  A direction
    has one primitive integer vector with a positive last entry, so
    p D (g, 1) divided by the gcd of its entries is (s g, s), whichever
    common denominator D of the chain values they are read over.
    """
    column = [0] * len(order) + [p * denominator]
    for k, j in enumerate(order):
        delta = chain[k + 1] - chain[k]
        column[j] = p * delta if nums[j] >= 0 else -q * delta
    divisor = math.gcd(*column)
    return tuple([v // divisor for v in column])


def subgradient(f: ValueOracle, x: FractionalPoint) -> Tuple[Fraction, ...]:
    """A subgradient of the extension at x, for skew-bisubmodular f.

    Reads f's integer values along the maximal chain at x (n + 1 oracle
    calls, all-Zero first) and builds the cut with `_cut_column`, the
    builder the minimizer's walk uses: coordinate j's entry is the
    f-difference across the chain step where j joins the chain, rescaled by
    the derivative of its normalized magnitude (1 on the Pos side, -1/alpha
    on the Neg side).  On the linear cell containing x this is the exact
    gradient; convexity of the extension makes it a global subgradient.
    For a non-skew-bisubmodular f the vector is still returned but carries
    no subgradient guarantee.
    """
    _check_oracle_point(f, x)
    p, q = x.alpha.value.numerator, x.alpha.value.denominator
    _, nums = common_denominator(x.coords)
    order, _, chain, _ = chain_order(nums, p, q)
    values = [f.numerator(u) for u in chain]
    column = _cut_column(order, nums, values, f.denominator, p, q)
    s = column[-1]
    return tuple([Fraction(v, s) for v in column[:-1]])
