"""Shared helpers for the test suite: the alpha grid, exact validators and
the Fraction reference simplex."""

from __future__ import annotations

import contextlib
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import pytest

from skewbisub import simplex
from skewbisub import (
    Alpha,
    ChainDecomposition,
    FractionalPoint,
    LPInfeasibleError,
    LPUnboundedError,
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


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _reference_pivot(rows, basis, cost, row, col, pivots):
    pivots.append((row, col))
    pivot_row = rows[row]
    inv = _ONE / pivot_row[col]
    if inv != 1:
        rows[row] = pivot_row = [v * inv for v in pivot_row]
    for other in rows:
        if other is pivot_row:
            continue
        factor = other[col]
        if factor:
            for k, v in enumerate(pivot_row):
                if v:
                    other[k] -= factor * v
    factor = cost[col]
    if factor:
        for k, v in enumerate(pivot_row):
            if v:
                cost[k] -= factor * v
    basis[row] = col


def _reference_bland_min(rows, basis, cost, ncols, pivots):
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return
        best_row = -1
        best_ratio = None
        for i, r in enumerate(rows):
            a = r[col]
            if a > 0:
                ratio = r[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_row < 0:
            raise LPUnboundedError("no leaving row: objective unbounded below")
        _reference_pivot(rows, basis, cost, best_row, col, pivots)


def _reference_solve(c, A, b, pivots, start):
    """The optimal (rows, basis) of the two-phase method on Fractions."""
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if start and (len(start) != m or not all(0 <= j < n for j in start)):
        raise ValueError("a start basis needs one column per row")

    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [_ZERO] * m
        art[i] = _ONE
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]

    total = n + m
    cost = [_ZERO] * (total + 1)
    for j in range(n):
        cost[j] = -sum(rows[i][j] for i in range(m))
    cost[-1] = -sum(rows[i][-1] for i in range(m))
    for col in start:
        row = next((i for i in range(m) if basis[i] >= n and rows[i][col]), None)
        if row is None:
            raise ValueError("singular start basis")
        _reference_pivot(rows, basis, cost, row, col, pivots)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("infeasible start basis")
    _reference_bland_min(rows, basis, cost, total, pivots)
    if -cost[-1] != 0:
        raise LPInfeasibleError("phase 1 optimum is positive")

    for i in reversed(range(len(rows))):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                _reference_pivot(rows, basis, cost, i, col, pivots)

    cost = [Fraction(v) for v in c] + [_ZERO] * m + [_ZERO]
    for i, j in enumerate(basis):
        factor = cost[j]
        if factor:
            for k, v in enumerate(rows[i]):
                if v:
                    cost[k] -= factor * v
    _reference_bland_min(rows, basis, cost, n, pivots)
    return rows, basis


def reference_linear_min(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    pivots: Optional[List[Tuple[int, int]]] = None,
    start: Sequence[int] = (),
) -> Tuple[Fraction, List[Fraction]]:
    """Two-phase simplex with Bland's rule on a dense tableau of Fractions.

    It solves cold, from the artificial basis, unless `start` is given; then
    it pivots the start columns in first, each on the first row whose basic
    column is still artificial and whose entry is nonzero.  Appends each
    pivot's (row, column) to `pivots` when one is given.
    """
    rows, basis = _reference_solve(c, A, b, [] if pivots is None else pivots, start)
    solution = [_ZERO] * len(c)
    for i, j in enumerate(basis):
        if j < len(c):
            solution[j] = rows[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, solution)), start=_ZERO)
    return value, solution


def reference_basis(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> List[int]:
    """The basis that `reference_linear_min` ends on when it solves cold.

    One column per row that the reference keeps; it drops redundant rows.
    """
    return _reference_solve(c, A, b, [], ())[1]


@contextlib.contextmanager
def recorded_pivots():
    """Yield a list that collects the (row, column) of every integer simplex pivot.

    The revised solver pivots through `simplex._eliminate` and a `WarmLP`'s
    tableau through `simplex._pivot`.
    """
    pivots = []
    eliminate, pivot = simplex._eliminate, simplex._pivot

    def recording_eliminate(rows, column, basis, d, row, col):
        pivots.append((row, col))
        return eliminate(rows, column, basis, d, row, col)

    def recording_pivot(rows, basis, cost, d, row, col):
        pivots.append((row, col))
        return pivot(rows, basis, cost, d, row, col)

    with mock.patch.object(simplex, "_eliminate", recording_eliminate), mock.patch.object(
        simplex, "_pivot", recording_pivot
    ):
        yield pivots


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
