"""The integer chain walk against the exact Fraction references.

`decompose` and `subgradient` read everything off one sort by integer keys
(`lovasz.chain_order`).  The references below are the definitions they
replaced: `reference_decompose` is the greedy sign-pattern recursion, and
`reference_subgradient` walks the order sorted by Fraction magnitudes.
They must agree exactly: the same atoms, the same gradient, and the same
labelings evaluated in the same sequence, ties included.
"""

import math
import random
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    NEG,
    POS,
    ZERO,
    Alpha,
    ChainDecomposition,
    FractionalPoint,
    Label,
    Labeling,
    TableFunction,
    ValueOracle,
    all_labelings,
    decompose,
    extension_value,
    format_labeling,
    subgradient,
)
from skewbisub.lattice import lex_index
from skewbisub.lovasz import chain_order
from skewbisub.rationals import common_denominator


def reference_decompose(x: FractionalPoint) -> ChainDecomposition:
    """The greedy sign-pattern recursion, on normalized Fraction magnitudes.

    Each round gives the residual's sign pattern the smallest live magnitude
    as weight and subtracts it from every live magnitude; the leftover mass
    goes to the all-Zero vector.
    """
    alpha = x.alpha.value
    signs: List[Label] = []
    magnitudes: List[Fraction] = []
    for c in x.coords:
        if c < 0:
            signs.append(NEG)
            magnitudes.append(-c / alpha)
        elif c > 0:
            signs.append(POS)
            magnitudes.append(c)
        else:
            signs.append(ZERO)
            magnitudes.append(Fraction(0))
    atoms: List[Tuple[Labeling, Fraction]] = []
    spent = Fraction(0)
    n = len(signs)
    while True:
        live = [j for j in range(n) if magnitudes[j]]
        if not live:
            leftover = 1 - spent
            if leftover:
                atoms.append(((ZERO,) * n, leftover))
            break
        weight = min(magnitudes[j] for j in live)
        u = tuple(signs[j] if magnitudes[j] else ZERO for j in range(n))
        atoms.append((u, weight))
        spent += weight
        for j in live:
            magnitudes[j] -= weight
    return ChainDecomposition(tuple(atoms))


def reference_subgradient(f: ValueOracle, x: FractionalPoint) -> Tuple[Fraction, ...]:
    """The telescoping f-differences along the order of Fraction magnitudes.

    Innermost (largest magnitude) first, the larger index first among ties;
    zero coordinates take the Pos side.
    """
    alpha = x.alpha.value
    n = len(x.coords)
    magnitudes = [c if c >= 0 else -c / alpha for c in x.coords]
    order = sorted(range(n), key=lambda j: (-magnitudes[j], -j))
    gradient = [Fraction(0)] * n
    current = [ZERO] * n
    previous_value = f.evaluate(tuple(current))
    for j in order:
        current[j] = POS if x.coords[j] >= 0 else NEG
        value = f.evaluate(tuple(current))
        step = value - previous_value
        gradient[j] = step if x.coords[j] >= 0 else -step / alpha
        previous_value = value
    return tuple(gradient)


class RecordingOracle(ValueOracle):
    """Seeded pseudo-random values; records every labeling it is asked for.

    A value is an integer from [-60, 60] over 1, 2, 3 or 7, read as its
    numerator over the common denominator 42.
    """

    denominator = 42

    def __init__(self, n: int, alpha: Alpha, seed: int):
        super().__init__(n, alpha)
        self.seed = seed
        self.asked: List[Labeling] = []

    def _numerator(self, labeling: Labeling) -> int:
        self.asked.append(labeling)
        rng = random.Random(f"{self.seed}:{format_labeling(labeling)}")
        return rng.randint(-60, 60) * (42 // rng.choice((1, 2, 3, 7)))


class RecordingTable(TableFunction):
    """A table oracle that records every labeling it is asked for."""

    def __init__(self, n: int, alpha: Alpha, values):
        super().__init__(n, alpha, values)
        self.asked: List[Labeling] = []

    def _numerator(self, labeling: Labeling) -> int:
        self.asked.append(labeling)
        return super()._numerator(labeling)

    def _value(self, labeling: Labeling) -> Fraction:
        self.asked.append(labeling)
        return super()._value(labeling)


def assert_walks_agree(x: FractionalPoint, seed: int = 0) -> None:
    assert decompose(x).atoms == reference_decompose(x).atoms

    # The walk's maximal chain runs from all-Zero up, one coordinate of the
    # order joining per step on its side, and its codes are the chain's
    # lex indices.
    _, nums = common_denominator(x.coords)
    order, _, chain, codes = chain_order(nums, x.alpha.value.numerator, x.alpha.value.denominator)
    assert len(chain) == len(codes) == len(order) + 1
    assert chain[0] == (ZERO,) * len(nums)
    assert codes == [lex_index(u) for u in chain]
    for k, j in enumerate(order):
        step = list(chain[k])
        step[j] = POS if nums[j] >= 0 else NEG
        assert chain[k + 1] == tuple(step)

    n, alpha = len(x.coords), x.alpha
    f, g = RecordingOracle(n, alpha, seed), RecordingOracle(n, alpha, seed)
    assert subgradient(f, x) == reference_subgradient(g, x)
    assert f.asked == g.asked

    f.asked.clear()
    g.asked.clear()
    expected = sum(
        (w * g.evaluate(u) for u, w in reference_decompose(x).atoms), start=Fraction(0)
    )
    assert extension_value(f, x) == expected
    assert f.asked == g.asked


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
        x = FractionalPoint(tuple(Fraction(num, denominator) for num in nums), alpha)
        assert_walks_agree(x)


_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 7), Fraction(5, 9)]
_DENOMINATORS = (1, 2, 3, 7, 1 << 20, 10**9 + 7)


@st.composite
def box_points(draw):
    """Arbitrary rational points with mixed denominators, corners and ties.

    A "tie" coordinate copies the normalized magnitude of an earlier one,
    on the Pos or the Neg side, so equal keys across sides are common.
    """
    alpha = Alpha(draw(st.sampled_from(_ALPHAS)))
    a = alpha.value
    coords: List[Fraction] = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("corner", "zero", "free", "tie")))
        if kind == "tie" and coords:
            c = coords[draw(st.integers(0, len(coords) - 1))]
            magnitude = c if c >= 0 else -c / a
            coords.append(magnitude if draw(st.booleans()) else -a * magnitude)
        elif kind == "corner":
            coords.append(draw(st.sampled_from((-a, Fraction(1)))))
        elif kind == "zero":
            coords.append(Fraction(0))
        else:
            d = draw(st.sampled_from(_DENOMINATORS))
            coords.append(Fraction(draw(st.integers(math.ceil(-a * d), d)), d))
    return FractionalPoint(tuple(coords), alpha)


@given(box_points(), st.integers(0, 3))
def test_integer_walk_matches_the_fraction_reference(x, seed):
    assert_walks_agree(x, seed)


_HUGE_DENOMINATORS = (1, 3, 7, 10**9 + 7, 2**61 - 1)


@settings(deadline=None)
@given(box_points(), st.integers(0, 2**32))
def test_subgradient_of_huge_tables_matches_the_fraction_reference(x, seed):
    # Table values of order 10^40 over mixed denominators: the integer cut,
    # read over the table's lcm denominator, is the Fraction gradient
    # exactly, and it asks the same n + 1 labelings in the same order.
    n = len(x.coords)
    rng = random.Random(seed)
    values = {
        u: Fraction(rng.randint(-(10**40), 10**40), rng.choice(_HUGE_DENOMINATORS))
        for u in all_labelings(n)
    }
    f, g = RecordingTable(n, x.alpha, values), RecordingTable(n, x.alpha, values)
    assert subgradient(f, x) == reference_subgradient(g, x)
    assert f.asked == g.asked and len(f.asked) == n + 1
