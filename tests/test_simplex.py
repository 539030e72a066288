"""The exact LP solver on hand-checkable programs and against a Fraction reference.

`linear_min` runs a fraction-free integer tableau.  `reference_linear_min`
below is the same two-phase Bland method on a tableau of Fractions, the
solver's earlier form; the two must take the same pivots and so return the
same optimum and basic solution, or raise the same exception.  `WarmLP`
keeps that tableau and adds rows by dual simplex pivots; after every added
row it must reach the optimum that both solve cold.
"""

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    LPInfeasibleError,
    LPUnboundedError,
    convex_closure,
    expand_to_table,
    instance_from_json,
    linear_min,
    random_box_point,
)
from skewbisub.simplex import WarmLP
from skewbisub import oracles, simplex


def F(x):
    return Fraction(x)


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


def reference_linear_min(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    pivots: Optional[List[Tuple[int, int]]] = None,
) -> Tuple[Fraction, List[Fraction]]:
    """Two-phase simplex with Bland's rule on a dense tableau of Fractions.

    Appends each pivot's (row, column) to `pivots` when one is given.
    """
    if pivots is None:
        pivots = []
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")

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

    solution = [_ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            solution[j] = rows[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, solution)), start=_ZERO)
    return value, solution


def _outcome(solver, *program):
    try:
        return solver(*program)
    except (LPInfeasibleError, LPUnboundedError) as exc:
        return type(exc)


def _integer_run(c, A, b):
    """`linear_min`'s outcome and the (row, column) of each of its pivots."""
    pivots = []
    pivot = simplex._pivot

    def recording(rows, basis, cost, d, row, col):
        pivots.append((row, col))
        return pivot(rows, basis, cost, d, row, col)

    with mock.patch.object(simplex, "_pivot", recording):
        return _outcome(linear_min, c, A, b), pivots


_DENOMINATORS = (1, 2, 3, 7)

#: Small rationals over the denominators above, zero drawn often so that
#: degenerate vertices and ties in the ratio test are common.
_RATIONALS = st.one_of(
    st.just(_ZERO),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from(_DENOMINATORS)),
)


@st.composite
def _programs(draw):
    """(kind, c, A, b) with m <= 4 rows and n <= 6 columns.

    "free" draws b at random (negative entries included, mostly
    infeasible); the other kinds set b = A x for some x >= 0 with zeros
    in it, so the program is feasible and often degenerate, and then
    "redundant" makes the last row a multiple of another, "infeasible"
    makes one row nonnegative with a negative right-hand side, and
    "unbounded" zeroes a column and gives it a negative cost.
    """
    kind = draw(st.sampled_from(("free", "feasible", "redundant", "infeasible", "unbounded")))
    m = draw(st.integers({"redundant": 2, "infeasible": 1}.get(kind, 0), 4))
    n = draw(st.integers(1, 6))
    A = [[draw(_RATIONALS) for _ in range(n)] for _ in range(m)]
    c = [draw(_RATIONALS) for _ in range(n)]
    if kind == "free":
        return kind, c, A, [draw(_RATIONALS) for _ in range(m)]
    if kind == "unbounded":
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = _ZERO
        c[j] = -draw(_RATIONALS.filter(bool).map(abs))
    x = [abs(draw(_RATIONALS)) for _ in range(n)]
    b = [sum((a * xi for a, xi in zip(row, x)), _ZERO) for row in A]
    if kind == "redundant":
        i = draw(st.integers(0, m - 2))
        k = draw(_RATIONALS.filter(bool))
        A[-1] = [k * v for v in A[i]]
        b[-1] = k * b[i]
    elif kind == "infeasible":
        i = draw(st.integers(0, m - 1))
        A[i] = [abs(v) for v in A[i]]
        b[i] = -draw(_RATIONALS.filter(bool).map(abs))
    return kind, c, A, b


_EXPECTED = {
    "infeasible": LPInfeasibleError,
    "unbounded": LPUnboundedError,
}


@settings(max_examples=400, deadline=None)
@given(_programs())
def test_integer_tableau_takes_the_reference_pivots(program):
    kind, c, A, b = program
    result, pivots = _integer_run(c, A, b)
    reference_pivots = []
    assert result == _outcome(reference_linear_min, c, A, b, reference_pivots)
    assert pivots == reference_pivots
    if kind in _EXPECTED:
        assert result is _EXPECTED[kind]
    elif kind != "free":
        assert result is not LPInfeasibleError


_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "minimize_golden.json").read_text()
)


@pytest.mark.parametrize(
    "document",
    [doc for doc in _GOLDEN["instances"] if doc["n"] == 4],
    ids=lambda doc: f"{doc['format']}-alpha{doc['alpha']}",
)
def test_convex_closure_matches_the_reference(document, monkeypatch):
    # The tilted n = 4 instances of the minimizer's golden file, as tables:
    # 81-column closure LPs with dozens of pivots each.
    f = expand_to_table(instance_from_json(document))
    rng = random.Random(4)
    points = [random_box_point(4, f.alpha, rng) for _ in range(2)]
    results = [convex_closure(f, x) for x in points]
    monkeypatch.setattr(oracles, "linear_min", reference_linear_min)
    assert results == [convex_closure(f, x) for x in points]


_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2, 7))


@st.composite
def _cut_sequences(draw):
    """(n, alpha, cuts): a box [-alpha, 1]^n and a sequence of cuts g.

    Cuts are drawn from a pool of at most four integer or rational vectors
    plus the zero vector, so repeated cuts, zero cuts and ties in the dual
    ratio test are common.
    """
    n = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from(_ALPHAS))
    entries = st.one_of(st.integers(-3, 3).map(Fraction), _RATIONALS)
    pool = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    pool.append([_ZERO] * n)
    return n, alpha, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))


def _master_program(n, alpha, g):
    """min t s.t. t >= g.y, y in [-alpha, 1]^n, as the minimizer poses it.

    Columns z = y + alpha, s (n each), t+, t- and r: rows z_j + s_j =
    1 + alpha and t+ - t- - g.z - r = -alpha sum(g).
    """
    A = []
    for j in range(n):
        row = [_ZERO] * (2 * n + 3)
        row[j] = row[n + j] = _ONE
        A.append(row)
    A.append([-v for v in g] + [_ZERO] * n + [_ONE, -_ONE, -_ONE])
    b = [1 + alpha] * n + [-alpha * sum(g)]
    c = [_ZERO] * (2 * n) + [_ONE, -_ONE, _ZERO]
    return c, A, b


def _cut_row(n, alpha, g):
    """(a, beta) of t >= g.y: g.z - t+ + t- <= alpha sum(g)."""
    return [*g, *[_ZERO] * n, -_ONE, _ONE, _ZERO], alpha * sum(g)


def _with_slacks(c, A, b, added):
    """The program with each added row a.x <= beta as a.x + r = beta."""
    k = len(added)
    rows = [list(row) + [_ZERO] * k for row in A]
    for i, (a, beta) in enumerate(added):
        slack = [_ZERO] * k
        slack[i] = _ONE
        rows.append(list(a) + slack)
    return list(c) + [_ZERO] * k, rows, list(b) + [beta for _, beta in added]


def _solve_fractions(B, M):
    """(X, det B) with B X = M, by Gauss-Jordan elimination on Fractions."""
    m = len(B)
    aug = [[Fraction(v) for v in B[i]] + [Fraction(v) for v in M[i]] for i in range(m)]
    det = _ONE
    for col in range(m):
        piv = next(i for i in range(col, m) if aug[i][col])
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        p = aug[col][col]
        det *= p
        aug[col] = [v / p for v in aug[col]]
        for i in range(m):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[col])]
    return [row[m:] for row in aug], det


def _solved(c, A, b):
    """A WarmLP at the optimum of min c.x s.t. A x = b, x >= 0."""
    return WarmLP(*simplex._two_phase(c, A, b))


def _add_row(lp, a, beta):
    """Add the rational row a.x <= beta, scaled to integers."""
    _, ints = simplex._integer_scale([Fraction(v) for v in a] + [Fraction(beta)])
    lp.add_integer_row(ints[:-1], ints[-1])


def _integer_rows(A, b, added):
    """The integer matrix [M | rhs] the tableau is built from.

    Each original row is scaled by the lcm of its denominators, each added
    row too, with its slack's coefficient 1 after scaling.
    """
    k = len(added)
    rows = []
    for row, rhs in zip(A, b):
        _, ints = simplex._integer_scale([Fraction(v) for v in row] + [Fraction(rhs)])
        rows.append(ints[:-1] + [0] * k + ints[-1:])
    for i, (a, beta) in enumerate(added):
        _, ints = simplex._integer_scale([Fraction(v) for v in a] + [Fraction(beta)])
        slack = [0] * k
        slack[i] = 1
        rows.append(ints[:-1] + slack + ints[-1:])
    return rows


def _assert_tableau_invariant(lp, c, A, b, added):
    # T = d B^-1 M and d = |det B| for B the basic columns of the integer
    # matrix M; the cost row is d L_c (c - c_B B^-1 M), and -d L_c c_B B^-1 b
    # at the right-hand side.
    M = _integer_rows(A, b, added)
    B = [[row[j] for j in lp.basis] for row in M]
    X, det = _solve_fractions(B, M)
    assert lp.d == abs(det)
    assert lp.rows == [[lp.d * v for v in row] for row in X]
    scale, ints = simplex._integer_scale([Fraction(v) for v in c])
    costs = ints + [0] * len(added) + [0]
    basic = [costs[j] for j in lp.basis]
    reduced = [costs[j] - sum(cb * row[j] for cb, row in zip(basic, X)) for j in range(len(costs))]
    reduced[-1] = -sum(cb * row[-1] for cb, row in zip(basic, X))
    assert lp.cost == [lp.d * v for v in reduced]


@settings(max_examples=150, deadline=None)
@given(_cut_sequences())
def test_warm_rows_reach_the_cold_optimum(case):
    n, alpha, cuts = case
    c, A, b = _master_program(n, alpha, cuts[0])
    lp = _solved(c, A, b)
    added = []
    for g in cuts[1:]:
        added.append(_cut_row(n, alpha, g))
        _add_row(lp, *added[-1])
        x = lp.solution()
        assert len(x) == len(c) and all(v >= 0 for v in x)
        for row, rhs in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == rhs
        for a, beta in added:
            assert sum(ai * v for ai, v in zip(a, x)) <= beta
        value = sum(ci * v for ci, v in zip(c, x))
        program = _with_slacks(c, A, b, added)
        assert value == linear_min(*program)[0] == reference_linear_min(*program)[0]
        if n <= 2 and len(added) <= 3:
            _assert_tableau_invariant(lp, c, A, b, added)


class TestWarmLP:
    def test_added_row_moves_the_optimum(self):
        # min -x on x + s = 2; then x <= 1/2 leaves the optimum -1/2
        lp = _solved([F(-1), F(0)], [[F(1), F(1)]], [F(2)])
        assert lp.solution() == [F(2), F(0)]
        _add_row(lp, [F(1), F(0)], Fraction(1, 2))
        assert lp.solution() == [Fraction(1, 2), Fraction(3, 2)]
        assert lp.pivots == 1

    def test_slack_row_takes_no_pivot(self):
        lp = _solved([F(-1), F(0)], [[F(1), F(1)]], [F(2)])
        _add_row(lp, [F(1), F(0)], F(3))
        assert lp.pivots == 0 and lp.solution() == [F(2), F(0)]

    def test_repeated_row_takes_no_pivots(self):
        c, A, b = _master_program(2, Fraction(1, 2), [F(3), F(-1)])
        lp = _solved(c, A, b)
        row = _cut_row(2, Fraction(1, 2), [F(-2), F(5)])
        _add_row(lp, *row)
        pivots, solution = lp.pivots, lp.solution()
        assert pivots > 0
        _add_row(lp, *row)
        assert lp.pivots == pivots and lp.solution() == solution

    def test_infeasible_row(self):
        lp = _solved([F(1)], [[F(1)]], [F(1)])
        with pytest.raises(LPInfeasibleError):
            _add_row(lp, [F(1)], F(0))

    def test_row_length_validation(self):
        lp = _solved([F(1)], [[F(1)]], [F(1)])
        with pytest.raises(ValueError):
            lp.add_integer_row([1, 1], 2)


class TestLinearMin:
    def test_two_variable_split(self):
        # min -x - y on the unit simplex: every vertex gives -1
        value, sol = linear_min([F(-1), F(-1)], [[F(1), F(1)]], [F(1)])
        assert value == -1
        assert sum(sol) == 1
        assert all(v >= 0 for v in sol)

    def test_prefers_cheaper_vertex(self):
        value, sol = linear_min([F(3), F(1)], [[F(1), F(1)]], [F(1)])
        assert value == 1
        assert sol == [F(0), F(1)]

    def test_three_variables_two_constraints(self):
        # min 2x + 3y + z  s.t.  x + y + z = 1, x - y = 0:
        # x = y = t, z = 1 - 2t, objective 1 + 3t minimized at t = 0
        value, sol = linear_min(
            [F(2), F(3), F(1)],
            [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]],
            [F(1), F(0)],
        )
        assert value == 1
        assert sol == [F(0), F(0), F(1)]

    def test_fractional_optimum(self):
        # min x  s.t.  2x + y = 1, y <= ... (equality form keeps y = 1 - 2x >= 0)
        # minimum at x = 0; then maximize -x to force x = 1/2
        value, sol = linear_min([F(-1), F(0)], [[F(2), F(1)]], [F(1)])
        assert value == Fraction(-1, 2)
        assert sol == [Fraction(1, 2), F(0)]

    def test_negative_rhs_rows(self):
        # -x - y = -1 is the same constraint scaled; solver must flip it
        value, sol = linear_min([F(1), F(2)], [[F(-1), F(-1)]], [F(-1)])
        assert value == 1
        assert sol == [F(1), F(0)]

    def test_redundant_row(self):
        value, sol = linear_min(
            [F(1), F(1)], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]
        )
        assert value == 1
        assert sum(sol) == 1

    def test_infeasible(self):
        with pytest.raises(LPInfeasibleError):
            linear_min([F(0), F(0)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])

    def test_infeasible_negative_requirement(self):
        # x + y = -1 has no nonnegative solution
        with pytest.raises(LPInfeasibleError):
            linear_min([F(1), F(1)], [[F(1), F(1)]], [F(-1)])

    def test_unbounded(self):
        # the only constraint is vacuous, objective pushes x up
        with pytest.raises(LPUnboundedError):
            linear_min([F(-1)], [[F(0)]], [F(0)])

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            linear_min([F(1)], [[F(1), F(1)]], [F(1)])

    def test_degenerate_does_not_cycle(self):
        # a classic degenerate corner; Bland's rule must terminate
        value, _ = linear_min(
            [F(-3), F(1), F(0), F(0)],
            [
                [F(1), F(1), F(1), F(0)],
                [F(1), F(-1), F(0), F(1)],
            ],
            [F(1), F(1)],
        )
        assert value == -3

    def test_exactness_with_awkward_rationals(self):
        # coefficients chosen so floating point would drift
        value, sol = linear_min(
            [Fraction(1, 3), Fraction(1, 7)],
            [[Fraction(2, 3), Fraction(5, 7)]],
            [Fraction(1, 21)],
        )
        # cost per unit of constraint: (1/3)/(2/3) = 1/2 vs (1/7)/(5/7) = 1/5
        assert sol == [F(0), Fraction(1, 15)]
        assert value == Fraction(1, 105)
