"""Shared helpers for the test suite: the alpha grid and exact validators."""

from __future__ import annotations

from fractions import Fraction
from typing import List

import pytest

from skewbisub import (
    Alpha,
    ChainDecomposition,
    FractionalPoint,
    Labeling,
    NEG,
    POS,
    ZERO,
    all_labelings,
    generate_instance,
    join,
    less,
    meet0,
    numeric,
)

#: The alpha grid the acceptance suite sweeps.
ALPHA_GRID = (
    Alpha(Fraction(1, 4)),
    Alpha(Fraction(1, 2)),
    Alpha(Fraction(3, 4)),
    Alpha(Fraction(1)),
)


def compose_marginals(
    chain: List[Labeling], weights: List[Fraction], alpha: Alpha
) -> FractionalPoint:
    n = len(chain[0])
    coords = [Fraction(0)] * n
    for u, w in zip(chain, weights):
        for j, value in enumerate(numeric(u, alpha)):
            coords[j] += w * value
    return FractionalPoint(tuple(coords), alpha)


def assert_valid_decomposition(x: FractionalPoint, cd: ChainDecomposition) -> None:
    """All defining invariants, checked with exact rational equality."""
    n = len(x.coords)
    atoms = cd.atoms
    assert 1 <= len(atoms) <= n + 1
    weights = [w for _, w in atoms]
    assert all(w > 0 for w in weights)
    assert sum(weights) == 1
    support = [u for u, _ in atoms]
    for outer, inner in zip(support, support[1:]):
        assert less(inner, outer), (support, "not strictly decreasing")
    zero = (ZERO,) * n
    for u in support[:-1]:
        assert u != zero, "all-Zero atom not last"
    values = {NEG: -x.alpha.value, ZERO: Fraction(0), POS: Fraction(1)}
    marginals = [Fraction(0)] * n
    for u, w in atoms:
        for j, label in enumerate(u):
            if label is not ZERO:
                marginals[j] += w * values[label]
    assert tuple(marginals) == x.coords


def pair_sides(values, alpha, a, b):
    """Both sides (lhs, rhs) of the inequality at the pair (a, b)."""
    lhs = (
        values[meet0(a, b)]
        + alpha * values[join(a, b, ZERO)]
        + (1 - alpha) * values[join(a, b, POS)]
    )
    return lhs, values[a] + values[b]


def boundary_shift(values, n, alpha, u, sign):
    """The least t >= 0 past which moving f(u) by sign * t breaks the inequality.

    Moving f(u) by delta changes the slack rhs - lhs of a pair by c * delta,
    where c counts u among a and b minus its weights among the meet and the
    joins.  None when no pair's slack shrinks in that direction.
    """
    best = None
    for a in all_labelings(n):
        for b in all_labelings(n):
            meet, join0, join1 = meet0(a, b), join(a, b, ZERO), join(a, b, POS)
            if u not in (a, b, meet, join0, join1):
                continue
            c = (
                (a == u)
                + (b == u)
                - (meet == u)
                - alpha * (join0 == u)
                - (1 - alpha) * (join1 == u)
            )
            if c * sign < 0:
                lhs, rhs = pair_sides(values, alpha, a, b)
                t = (rhs - lhs) / (-c * sign)
                best = t if best is None else min(best, t)
    return best


@pytest.fixture(scope="module")
def pool_desk():
    """100 generated instances with n <= 6, integer tables in [-10, 10]."""
    pool = []
    for k in range(100):
        n = 1 + k % 6
        alpha = ALPHA_GRID[k % 4]
        pool.append(
            generate_instance(n, alpha, num_terms=n, max_scope=2, seed=9200 + k)
        )
    return pool


@pytest.fixture(scope="session")
def alpha_half() -> Alpha:
    return Alpha(Fraction(1, 2))
