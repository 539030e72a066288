"""The minimizer's integer chain walk against the exact Fraction reference.

`_chain_order` orders the walk by integer keys over a common denominator;
`_refinement_order` and `chain_support_points` compute the same order and
support from Fraction magnitudes.  They must agree exactly, ties included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewbisub import NEG, POS, ZERO, Alpha, FractionalPoint, chain_support_points
from skewbisub.lovasz import _refinement_order
from skewbisub.minimize import _chain_order


def _integer_walk(nums, denominator, alpha):
    """Order and support of the point nums / denominator via `_chain_order`."""
    p, q = alpha.value.numerator, alpha.value.denominator
    order, atom = _chain_order(nums, p, q, denominator * p)
    n = len(nums)
    current = [ZERO] * n
    prefixes = []
    for k, j in enumerate(order, 1):
        current[j] = NEG if nums[j] < 0 else POS
        if atom[k]:
            prefixes.append(tuple(current))
    support = prefixes[::-1]  # outermost first
    if atom[0]:
        support.append((ZERO,) * n)
    return order, tuple(support)


def _point(nums, denominator, alpha):
    return FractionalPoint(tuple(Fraction(num, denominator) for num in nums), alpha)


@pytest.mark.parametrize(
    "p, q, m",
    [(1, 3, 1), (1, 3, 12345), (1, 3, 349525), (5, 9, 3), (5, 9, 5), (3, 7, 9)],
)
def test_equal_magnitudes_tie_exactly(p, q, m):
    # -p*m/2^20 and q*m/2^20 have the same normalized magnitude q*m/2^20 at
    # alpha = p/q.  A float key can split the tie: at 5/9 and 3/7 with these
    # m, (p*m/2^20) * (1/alpha) in floats differs from q*m/2^20.  Exact
    # keys see the tie and break it by index.
    alpha = Alpha(Fraction(p, q))
    denominator = q << 20
    neg, pos = -p * m * q, q * m * q
    for nums in ([neg, pos], [pos, neg], [neg, pos, neg, 0]):
        x = _point(nums, denominator, alpha)
        order, support = _integer_walk(nums, denominator, alpha)
        assert order == _refinement_order(x)[0]
        assert support == chain_support_points(x)


_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 7), Fraction(5, 9)]


@st.composite
def grid_points(draw):
    alpha = Alpha(draw(st.sampled_from(_ALPHAS)))
    p, q = alpha.value.numerator, alpha.value.denominator
    # A coarse grid makes equal magnitudes common; -alpha and 1 are drawn
    # explicitly so the box corners appear often.
    denominator = q * draw(st.sampled_from((1, 2, 4, 8, 1 << 20)))
    lo = -p * denominator // q
    coordinate = st.one_of(st.just(lo), st.just(denominator), st.just(0), st.integers(lo, denominator))
    nums = draw(st.lists(coordinate, min_size=1, max_size=7))
    return nums, denominator, alpha


@given(grid_points())
def test_integer_walk_matches_the_fraction_reference(case):
    nums, denominator, alpha = case
    x = _point(nums, denominator, alpha)
    order, support = _integer_walk(nums, denominator, alpha)
    assert order == _refinement_order(x)[0]
    assert support == chain_support_points(x)
