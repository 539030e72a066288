"""Independent ground-truth computations at desk scale.

Everything here exists to be compared against: brute-force minimization by
full enumeration, the convex closure as an explicit exact linear program
over all 3^n vertex distributions, and a randomized midpoint-convexity
probe.  The chain-decomposition path they check gives the closure LP only
its starting basis, the maximal chain through x; the LP solver itself checks
that basis, for feasibility on its right-hand side and for optimality by
pricing all 3^n columns, so no value here rests on the chain code being
right.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Dict, Optional, Tuple

from .functions import CapExceededError, DEFAULT_ENUM_CAP, ValueOracle, exceeds_cap
from .lattice import Alpha, Labeling, check_enum_cap, labeling_at
from .lovasz import (
    FractionalPoint,
    _check_oracle_point,
    chain_order,
    extension_value,
    midpoint,
)
from .rationals import common_denominator
from .simplex import LatticeRows, linear_min

#: The closure LP has one variable per domain point.  Started at the chain
#: basis, one exact solve at 3^6 = 729 columns takes 0.3 ms on a generated
#: skew bisubmodular table, where the start is optimal, and 6-12 ms on a
#: random table, where Bland's pivots run on from it (four LPs each, Python
#: 3.11 on a 2-vCPU VM).  At 3^7 the random table took 23-62 ms per LP.
DEFAULT_LP_CAP = 3**6

#: `random_box_point` draws on the grid of multiples of 1/BOX_GRID.
BOX_GRID = 1024


@dataclass(frozen=True)
class ClosureResult:
    """Optimal value of the closure LP and one optimal vertex distribution."""

    value: Fraction
    distribution: Dict[Labeling, Fraction]


def brute_force_min(
    f: ValueOracle, cap: int = DEFAULT_ENUM_CAP
) -> Tuple[Labeling, Fraction]:
    """Scan all 3^n points; ties go to the lexicographically first labeling."""
    check_enum_cap(f.arity, cap)
    values = f.numerators()
    # min keeps the first of equal keys, and the values are in lex order.
    best = min(range(len(values)), key=values.__getitem__)
    return labeling_at(best, f.arity), Fraction(values[best], f.denominator)


def check_lp_cap(n: int, cap: int = DEFAULT_LP_CAP) -> None:
    """Refuse a closure LP at arity n, one column per point, past `cap` columns."""
    if exceeds_cap(n, cap):
        raise CapExceededError(f"3^{n} LP variables exceed the cap {cap}")


@functools.lru_cache(maxsize=8)
def _closure_rows(n: int, p: int, q: int) -> LatticeRows:
    """The closure LP's rows over all 3^n labelings in lex order, in integers.

    Row 0 is the normalization row of ones; row 1 + j holds q u_j, the j-th
    coordinate of each point u of {-p/q, 0, 1}^n scaled by q: -p, 0 or q.
    A `simplex.LatticeRows` builds them as the transpose of its columns
    (1, q u) and keeps both, and `linear_min` takes those columns as they
    are and prices them in closed form.  A run meets only a few
    (n, alpha), so every closure LP of a run shares one entry; at n = 6 it
    is 7 x 729 ints, held once by rows and once by columns.
    """
    return LatticeRows(n, p, q)


def convex_closure(
    f: ValueOracle, x: FractionalPoint, cap: int = DEFAULT_LP_CAP
) -> ClosureResult:
    """Minimize the expectation of f over all distributions with mean x.

    Solved as an explicit LP: one nonnegative weight per domain point,
    one normalization row, n marginal rows, exact simplex underneath.
    Infeasibility cannot happen for x inside the box and signals a bug.

    The simplex starts at the basis of the maximal chain through x, given
    by the lex indices that `lovasz.chain_order` returns with it: all-Zero
    and the n prefixes of the walk's order.  Those n + 1 points are
    affinely independent and the chain weights are a nonnegative solution
    on them, so they are a feasible basis whatever f is.  For a skew
    bisubmodular f that basis is already optimal: the extension is convex
    and affine on the chain's simplex, so the basis's duals (f at all-Zero
    and the chain's telescoping differences) give an affine minorant of f
    on every vertex, no column prices out negative, and the distribution
    returned is the chain decomposition of x.  For any other f some column
    may price out negative, and Bland's pivots run from there to the
    optimum, which can then lie below the extension.
    The value never rests on the chain being computed right: the solver
    checks that the start is a feasible basis, and Bland's rule certifies
    the optimum by pricing all 3^n columns.
    """
    n = f.arity
    check_lp_cap(n, cap)
    _check_oracle_point(f, x)
    p, q = f.alpha.value.numerator, f.alpha.value.denominator
    # The costs are f's integer numerators over D, so the value comes back
    # times D.
    costs = f.numerators()
    # Row 0 asks for total weight 1 and row 1 + j for the mean q x_j.  With
    # x = N / X, X = scale, the weights times X solve the same rows with the
    # integer right-hand side (X, q N), so weights and value come back
    # divided by X.
    scale, nums = common_denominator(x.coords)
    rhs = [scale, *[q * v for v in nums]]
    start = chain_order(nums, p, q)[3]
    rows = _closure_rows(n, p, q)
    value, weights = linear_min(costs, rows, rhs, start=start)
    # The nonzero weights, at most n + 1 of them, in lex order.
    distribution = {
        labeling_at(j, n): weights[j] / scale for j in compress(count(), weights)
    }
    return ClosureResult(value / (scale * f.denominator), distribution)


def random_box_point(n: int, alpha: Alpha, rng: random.Random) -> FractionalPoint:
    """Uniform rational point on the `BOX_GRID` grid inside [-alpha, 1]^n.

    Bounded-bit-size rationals keep downstream exact arithmetic (simplex
    included) fast.
    """
    lo = -(alpha.value.numerator * BOX_GRID // alpha.value.denominator)
    coords = tuple([Fraction(rng.randint(lo, BOX_GRID), BOX_GRID) for _ in range(n)])
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
