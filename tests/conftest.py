"""Shared helpers for the test suite: the alpha grid, exact validators and
the Fraction reference simplex."""

from __future__ import annotations

import contextlib
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import pytest

from skewbisub import simplex
from skewbisub.rationals import common_denominator
from skewbisub import (
    Alpha,
    ChainDecomposition,
    FractionalPoint,
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


class ReferenceInfeasibleError(RuntimeError):
    """The reference's phase 1 ends with a positive optimum: no feasible point."""


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
        raise ReferenceInfeasibleError("phase 1 optimum is positive")

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


def cut_column(g: Sequence[Fraction]) -> Tuple[int, ...]:
    """(s g, s), the cut g as the integer column of Kelley's master LP.

    s is the lcm of g's denominators.
    """
    s, ints = common_denominator(g)
    return (*ints, s)


def column_cut(column: Sequence[int]) -> Tuple[Fraction, ...]:
    """The cut g whose column is (s g, s)."""
    return tuple(Fraction(v, column[-1]) for v in column[:-1])


def add_cut(master: Optional[simplex._Program], column: Sequence[int], alpha: Fraction):
    """Kelley's master LP in dual form after the cut column (s g, s), as `minimize` runs it.

    The first cut starts the program at its optimal basis
    (`simplex._unit_pair_start`), and every later one is appended to
    `master` and re-optimized.  Returns the program; y* = pi[:n] / (q d)
    and t* = -pi[n] / (q d) for alpha = p/q.
    """
    if master is None:
        return simplex._unit_pair_start(column, alpha.numerator, alpha.denominator)
    master.append(0, column)
    return master.optimize()


def unit_pair_columns(n: int) -> List[Tuple[int, ...]]:
    """The master LP's 2n unit columns u_j = -e_j, then v_j = e_j, of n + 1 entries.

    The solver prices them in closed form and does not store them; these
    spell them out for a dense copy of a program.
    """
    return [
        tuple([sign if i == j else 0 for i in range(n + 1)]) for sign in (-1, 1) for j in range(n)
    ]


def master_program(alpha: Fraction, cuts: Sequence[Sequence[Fraction]]):
    """Kelley's master LP on the box [-alpha, 1]^n in primal equality form.

    min t s.t. t >= g.y for every cut g, as (c, A, b, start) for
    `linear_min`: columns z = y + alpha, s (n each), t+, t- and one slack r
    per cut; rows z_j + s_j = 1 + alpha and, per cut, t+ - t- - g.z - r =
    -alpha sum(g); the objective t+ - t-.  The start basis is the box corner
    z = 0: every s_j, and t = max(-alpha sum(g)) over the cuts, in t+ when
    it is >= 0 and in t- when not, with the slack r of every other cut basic.
    """
    n = len(cuts[0])
    k = len(cuts)
    width = 2 * n + 2 + k
    rows = []
    rhs = []
    for j in range(n):
        row = [_ZERO] * width
        row[j] = row[n + j] = _ONE
        rows.append(row)
        rhs.append(1 + alpha)
    for i, g in enumerate(cuts):
        row = [-gj for gj in g] + [_ZERO] * (n + 2 + k)
        row[2 * n] = _ONE
        row[2 * n + 1] = -_ONE
        row[2 * n + 2 + i] = -_ONE
        rows.append(row)
        rhs.append(-alpha * sum(g))
    cost = [_ZERO] * width
    cost[2 * n] = _ONE
    cost[2 * n + 1] = -_ONE
    top = max(range(k), key=lambda i: rhs[n + i])
    start = [n + j for j in range(n)]
    start.append(2 * n if rhs[n + top] >= 0 else 2 * n + 1)
    start.extend(2 * n + 2 + i for i in range(k) if i != top)
    return cost, rows, rhs, start


@contextlib.contextmanager
def recorded_pivots():
    """Yield a list that collects the (row, column) of every integer simplex pivot.

    Every pivot of the revised solver goes through `simplex._eliminate`.
    """
    pivots = []
    eliminate = simplex._eliminate

    def recording_eliminate(rows, column, basis, d, row, col):
        pivots.append((row, col))
        return eliminate(rows, column, basis, d, row, col)

    with mock.patch.object(simplex, "_eliminate", recording_eliminate):
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
