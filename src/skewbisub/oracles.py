"""Independent ground-truth computations at desk scale.

Everything here exists to be compared against: brute-force minimization by
full enumeration, the convex closure as an explicit exact linear program
over all 3^n vertex distributions, and a randomized midpoint-convexity
probe.  None of it shares code with the chain-decomposition path it is used
to check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .functions import CapExceededError, DEFAULT_ENUM_CAP, ValueOracle
from .lattice import Alpha, Labeling, all_labelings, numeric
from .lovasz import FractionalPoint, extension_value, midpoint
from .simplex import linear_min

#: The closure LP has one variable per domain point.  At 3^5 = 243 columns
#: one exact solve on the integer tableau takes about 0.12 s (median of 20
#: generated instances' LPs, 0.02-0.18 s, on a 2-vCPU VM), against about
#: 1.3 s with a tableau of Fractions.
DEFAULT_LP_CAP = 3**5


@dataclass(frozen=True)
class ClosureResult:
    """Optimal value of the closure LP and one optimal vertex distribution."""

    value: Fraction
    distribution: Dict[Labeling, Fraction]


def brute_force_min(
    f: ValueOracle, cap: int = DEFAULT_ENUM_CAP
) -> Tuple[Labeling, Fraction]:
    """Scan all 3^n points; ties go to the lexicographically first labeling."""
    if 3**f.arity > cap:
        raise CapExceededError(f"3^{f.arity} points exceed the enumeration cap {cap}")
    best_labeling: Optional[Labeling] = None
    best_value: Optional[Fraction] = None
    for a in all_labelings(f.arity):
        v = f.evaluate(a)
        if best_value is None or v < best_value:
            best_labeling, best_value = a, v
    assert best_labeling is not None and best_value is not None
    return best_labeling, best_value


def convex_closure(
    f: ValueOracle, x: FractionalPoint, cap: int = DEFAULT_LP_CAP
) -> ClosureResult:
    """Minimize the expectation of f over all distributions with mean x.

    Solved as an explicit LP: one nonnegative weight per domain point,
    one normalization row, n marginal rows, exact simplex underneath.
    Infeasibility cannot happen for x inside the box and signals a bug.
    """
    n = f.arity
    if 3**n > cap:
        raise CapExceededError(f"3^{n} LP variables exceed the cap {cap}")
    if len(x.coords) != n:
        raise ValueError(f"point dimension {len(x.coords)} != oracle arity {n}")
    if x.alpha != f.alpha:
        raise ValueError(f"point alpha {x.alpha} != oracle alpha {f.alpha}")
    labelings = list(all_labelings(n))
    columns = [numeric(a, f.alpha) for a in labelings]
    costs = [f.evaluate(a) for a in labelings]
    one = Fraction(1)
    rows = [[one] * len(labelings)]
    rows.extend([col[j] for col in columns] for j in range(n))
    rhs = [one] + list(x.coords)
    value, weights = linear_min(costs, rows, rhs)
    distribution = {
        a: w for a, w in zip(labelings, weights) if w
    }
    return ClosureResult(value, distribution)


def random_box_point(
    n: int, alpha: Alpha, rng: random.Random, denominator: int = 1024
) -> FractionalPoint:
    """Uniform rational point on the denominator grid inside [-alpha, 1]^n.

    Bounded-bit-size rationals keep downstream exact arithmetic (simplex
    included) fast.
    """
    lo = -(alpha.value.numerator * denominator // alpha.value.denominator)
    coords = tuple([
        Fraction(rng.randint(lo, denominator), denominator) for _ in range(n)
    ])
    return FractionalPoint(coords, alpha)


def midpoint_gap(f: ValueOracle, x: FractionalPoint, y: FractionalPoint) -> Fraction:
    """Convexity defect at one pair: extension(mid) - average of extensions.

    Positive means midpoint convexity fails at (x, y).
    """
    mid_value = extension_value(f, midpoint(x, y))
    return mid_value - (extension_value(f, x) + extension_value(f, y)) / 2


def midpoint_convexity_probe(
    f: ValueOracle, trials: int, seed: int
) -> Optional[Tuple[FractionalPoint, FractionalPoint, Fraction]]:
    """Sample random box pairs hunting for a midpoint-convexity violation.

    Returns the first (x, y, gap) with positive gap, or None after `trials`
    clean pairs.  On a skew-bisubmodular instance this must return None for
    every seed; on anything else a violation certifies non-convexity.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_box_point(f.arity, f.alpha, rng)
        y = random_box_point(f.arity, f.alpha, rng)
        gap = midpoint_gap(f, x, y)
        if gap > 0:
            return x, y, gap
    return None
