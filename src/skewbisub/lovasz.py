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
`decompose`, `subgradient` and the minimizer all walk that one order.

The extension of an oracle f is the expectation of f under that chain
distribution.  It agrees with f on the 3^n vertices, is piecewise linear,
and is convex exactly when f is skew bisubmodular; on the convex case its
minimum over the box equals the discrete minimum, which is what the
minimizer exploits.

All arithmetic here is exact: the decomposition's defining properties
(marginals, weights summing to one, uniqueness) are equalities, and
tolerances would only mask bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .functions import ValueOracle
from .lattice import (
    Alpha,
    ArityMismatchError,
    Label,
    Labeling,
    NEG,
    POS,
    ZERO,
    format_labeling,
)
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class FractionalPoint:
    """An exact rational point of the box [-alpha, 1]^n."""

    coords: Tuple[Fraction, ...]
    alpha: Alpha

    def __post_init__(self) -> None:
        coords = tuple([c if type(c) is Fraction else Fraction(c) for c in self.coords])
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


def chain_order(nums: Sequence[int], p: int, q: int) -> Tuple[List[int], List[int]]:
    """The chain walk at the point nums / D of the box for alpha = p/q.

    Coordinate j's key is num_j * p when num_j >= 0 and -num_j * q
    otherwise: its normalized magnitude scaled by D * p, so D * p stands for
    magnitude 1.  `order` lists the coordinates innermost first (largest
    key first, the larger index first among ties); zero coordinates come
    last, and callers put them on the Pos side.  `keys` are the keys in
    that order followed by a closing 0, so the prefix of the first k + 1
    coordinates of the order has weight (keys[k] - keys[k + 1]) / (D * p)
    and is an atom when that is positive, and the all-Zero vector gets
    (D * p - keys[0]) / (D * p).
    """
    by_coordinate = [num * p if num >= 0 else -num * q for num in nums]
    order = sorted(
        range(len(nums) - 1, -1, -1), key=by_coordinate.__getitem__, reverse=True
    )
    keys = [by_coordinate[j] for j in order]
    keys.append(0)
    return order, keys


def _walk(x: FractionalPoint) -> Tuple[List[int], List[int], int]:
    """chain_order at x over the lcm D of its denominators, and D * p."""
    alpha = x.alpha.value
    denominator = math.lcm(*[c.denominator for c in x.coords])
    nums = [c.numerator * (denominator // c.denominator) for c in x.coords]
    order, keys = chain_order(nums, alpha.numerator, alpha.denominator)
    return order, keys, denominator * alpha.numerator


def decompose(x: FractionalPoint) -> ChainDecomposition:
    """The chain decomposition at x, read off the sorted keys of its walk."""
    order, keys, full = _walk(x)
    prefixes: List[Tuple[Labeling, Fraction]] = []
    current: List[Label] = [ZERO] * len(order)
    for k, j in enumerate(order):
        current[j] = NEG if x.coords[j] < 0 else POS
        if keys[k] != keys[k + 1]:
            prefixes.append((tuple(current), Fraction(keys[k] - keys[k + 1], full)))
    prefixes.reverse()  # outermost first
    if keys[0] != full:
        prefixes.append(((ZERO,) * len(order), Fraction(full - keys[0], full)))
    return ChainDecomposition(tuple(prefixes))


def _check_oracle_point(f: ValueOracle, x: FractionalPoint) -> None:
    if f.arity != len(x.coords):
        raise ArityMismatchError(
            f"oracle arity {f.arity} != point dimension {len(x.coords)}"
        )
    if f.alpha != x.alpha:
        raise ValueError(
            f"oracle alpha {f.alpha} != point alpha {x.alpha}"
        )


def extension_value(f: ValueOracle, x: FractionalPoint) -> Fraction:
    """Expectation of f under the chain distribution at x (at most n+1 oracle calls)."""
    _check_oracle_point(f, x)
    return sum(
        (w * f.evaluate(u) for u, w in decompose(x).atoms), start=Fraction(0)
    )


def subgradient(f: ValueOracle, x: FractionalPoint) -> Tuple[Fraction, ...]:
    """A subgradient of the extension at x, for skew-bisubmodular f.

    Built from the telescoping values of f along one maximal chain through
    x's decomposition: coordinate j's entry is the f-difference across the
    chain step where j flips from its sign to Zero, rescaled by the
    derivative of its normalized magnitude (1 on the Pos side, -1/alpha on
    the Neg side).  On the linear cell containing x this is the exact
    gradient; convexity of the extension makes it a global subgradient.
    For a non-skew-bisubmodular f the vector is still returned but carries
    no subgradient guarantee.
    """
    _check_oracle_point(f, x)
    n = len(x.coords)
    alpha = x.alpha.value
    order = _walk(x)[0]
    gradient: List[Fraction] = [Fraction(0)] * n
    current: List[Label] = [ZERO] * n
    previous_value = f.evaluate(tuple(current))
    for j in order:
        positive = x.coords[j] >= 0
        current[j] = POS if positive else NEG
        value = f.evaluate(tuple(current))
        step = value - previous_value
        gradient[j] = step if positive else -step / alpha
        previous_value = value
    return tuple(gradient)
