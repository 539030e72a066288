"""Exact dense-tableau simplex for small equality-form linear programs.

Minimizes c.x subject to A x = b, x >= 0 over exact rationals, via the
two-phase method with Bland's anti-cycling rule.  Built for desk-scale
problems (a handful of rows, a few hundred columns) where exact optima are
the whole point; no attempt at sparse or revised tricks.

The tableau is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
Comp. 1968): plain integers T over one shared denominator d > 0, the
rational tableau being T / d.  Each row [A_i | b_i] is scaled to integers by
the lcm of its denominators and the artificial identity appended, giving an
integer matrix M whose starting basis is the identity, so d starts at 1.
With B the current basis matrix of M, d = |det B| and T = d B^-1 M, so by
Cramer's rule every entry of T is, up to sign, a determinant of B with one
column replaced by a column of M: an integer.  A pivot on (r, c) therefore
divides exactly,

    T'_ij = (T_rc T_ij - T_ic T_rj) // d   (i != r),   T'_r = T_r,   d' = T_rc,

and the cost rows, d times the reduced costs of an integer objective, are
bordered determinants of the same kind and update by the same rule.  When
d' < 0 (only when an artificial is driven out on a negative entry) the
whole tableau is negated.  Dropping a redundant row or the artificial
columns changes no other entry, so the argument still holds after phase 1.

Row scaling by a positive factor moves no pivot: ratios, signs and ties are
unchanged, and phase 1 weights artificial i by 1/s_i so that it minimizes
the sum of the artificials of the unscaled rows.  So the pivots, and with
them the optimal basis returned, are those of the same method run on a
tableau of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple


class LPInfeasibleError(RuntimeError):
    """The equality system has no nonnegative solution."""


class LPUnboundedError(RuntimeError):
    """The objective is unbounded below on the feasible region."""


_ZERO = Fraction(0)


def _integer_scale(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The lcm s of the denominators and the integers s * v."""
    # Unpack a list, not a generator: CPython builds a tuple from a generator
    # at a guessed size and resizes it, so every call moves one tuple to
    # another size's free list, and those lists grow to thousands of tuples.
    scale = lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _pivot(
    rows: List[List[int]], basis: List[int], cost: List[int], d: int, row: int, col: int
) -> int:
    """Pivot on (row, col) in place and return the new denominator, > 0."""
    pivot_row = rows[row]
    p = pivot_row[col]
    for target in (*rows, cost):
        if target is pivot_row:
            continue
        factor = target[col]
        if factor:
            target[:] = [(p * v - factor * w) // d for v, w in zip(target, pivot_row)]
        elif p != d:
            target[:] = [p * v // d for v in target]
    if p < 0:
        for target in (*rows, cost):
            target[:] = [-v for v in target]
        p = -p
    basis[row] = col
    return p


def _bland_min(
    rows: List[List[int]], basis: List[int], cost: List[int], d: int, ncols: int
) -> int:
    """Run Bland pivots until no reduced cost is negative; return the new d."""
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return d
        # With d > 0, ratio rhs_i / a_i compares by cross-multiplication.
        best_row = -1
        for i, r in enumerate(rows):
            a = r[col]
            if a <= 0:
                continue
            if best_row >= 0:
                lhs, rhs = r[-1] * best_a, best_rhs * a
                if not (lhs < rhs or (lhs == rhs and basis[i] < basis[best_row])):
                    continue
            best_row, best_a, best_rhs = i, a, r[-1]
        if best_row < 0:
            raise LPUnboundedError("no leaving row: objective unbounded below")
        d = _pivot(rows, basis, cost, d, best_row, col)


def linear_min(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Tuple[Fraction, List[Fraction]]:
    """Solve min c.x s.t. A x = b, x >= 0 exactly.

    Returns (optimal value, one optimal basic solution).  Raises
    LPInfeasibleError / LPUnboundedError accordingly.
    """
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")

    # rows carry s_i [A_i | b_i] with b_i >= 0 and the artificial identity
    # in columns n..n+m-1; scales[i] = s_i.
    rows: List[List[int]] = []
    scales: List[int] = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        scale, ints = _integer_scale(row)
        art = [0] * m
        art[i] = 1
        rows.append(ints[:-1] + art + [ints[-1]])
        scales.append(scale)
    basis = [n + i for i in range(m)]
    d = 1

    # Phase 1: minimize the sum of the unscaled rows' artificials, which is
    # sum_i art_i / s_i for the scaled rows; times L = lcm(s_i) the weights
    # L / s_i are integers.  Every artificial is basic, so the reduced costs
    # start as the weighted column sums, negated, and 0 on the artificials.
    total = n + m
    big = lcm(*scales)
    weights = [big // s for s in scales]
    cost = [0] * (total + 1)
    for w, row in zip(weights, rows):
        for j in range(n):
            cost[j] -= w * row[j]
        cost[-1] -= w * row[-1]
    d = _bland_min(rows, basis, cost, d, total)
    if cost[-1] != 0:
        raise LPInfeasibleError("phase 1 optimum is positive")

    # Drive any degenerate artificials out of the basis; a row with no real
    # nonzero entry is redundant and dropped.
    for i in reversed(range(len(rows))):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                d = _pivot(rows, basis, cost, d, i, col)

    # Phase 2 on the real objective with the artificial columns dropped.
    # For integer costs c' = L_c c the row c'_k d - sum_i c'_B(i) T_ik is d
    # L_c times the reduced costs.
    rows = [row[:n] + [row[-1]] for row in rows]
    _, scaled_c = _integer_scale([Fraction(v) for v in c])
    cost = [ck * d for ck in scaled_c] + [0]
    for row, j in zip(rows, basis):
        factor = scaled_c[j]
        if factor:
            cost = [v - factor * w for v, w in zip(cost, row)]
    d = _bland_min(rows, basis, cost, d, n)

    solution = [_ZERO] * n
    for row, j in zip(rows, basis):
        solution[j] = Fraction(row[-1], d)
    value = sum((ci * xi for ci, xi in zip(c, solution)), start=_ZERO)
    return value, solution
