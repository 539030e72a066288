"""Exact revised simplex for small equality-form linear programs.

Minimizes c.x subject to A x = b, x >= 0 over exact rationals, from a
feasible basis the caller names, with Bland's anti-cycling rule.  Built for
desk-scale problems (a handful of rows, up to a few thousand columns) where
exact optima are the whole point.

The arithmetic is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
Comp. 1968): plain integers over one shared denominator d > 0.  Each row
[A_i | b_i] is scaled to integers by the lcm of its denominators, giving an
integer matrix M and right-hand side r, and the objective by the lcm L_c of
its denominators, giving C = L_c c; rows already in integers are taken as
they are.  Scaling by a positive factor moves no pivot: ratios, signs and
ties are unchanged.  So the pivots, and with them the optimal basis
returned, are those of the same method run on a tableau of Fractions.

The method is the revised one (Dantzig and Orchard-Hays, 1954).  With B the
columns of M pivoted in so far, completed by unit columns for the rows that
have no basic column yet, and d = |det B|, the solver keeps only the m x m
integer matrix R = d B^-1 and the column d B^-1 r, never the m x N tableau
d B^-1 M.  [R | d B^-1 r] is the part of the fraction-free tableau
T = d B^-1 [M | I | r] over its last m + 1 columns, with d = 1 and T the
matrix itself before any pivot.  By Cramer's rule every entry of T is, up to
sign, a determinant of B with one column replaced by a column of the integer
matrix [M | I | r]: an integer.  A pivot on (s, j), with w = T_j = R M_j the
entering column, therefore divides exactly,

    T'_i = (w_s T_i - w_i T_s) // d   (i != s),   T'_s = T_s,   d' = w_s,

and each column of T moves by its own entries and w alone, so the columns
of M are left out and formed on demand as R M_j.  When w_s < 0 (when a start
column, below, is pivoted in on a negative entry) the whole of T is negated;
`_eliminate`, the one pivot of the module, does so in the same pass, by
negating the pivot row and d' first, while every other w_i keeps its sign.

Pricing needs no tableau either.  With pi = C_B R, the integer d C_j - pi M_j
is d times the reduced cost of column j, the entry that a cost row carried
through the pivots would hold: d (C_j - C_B B^-1 M_j).  M is kept by
columns, so the price of column j is one dot product of pi with M_j, and a
pivot touches m (m + 1) entries, not the m N of a tableau pivot.  Bland's
rule enters the smallest j with a negative price, so pricing runs over the
columns in order and stops at the first negative one; only the pass that
finds the optimum prices all N.  It then forms w = R M_j and leaves on the
row with the least ratio (d B^-1 r)_i / w_i over w_i > 0, the smallest
basic column among ties; ratios of integers over the same d compare by
cross-multiplication.

pi itself is carried across the pivots, not rebuilt as C_B R.  A pivot on
(s, j) with w_s > 0 changes row i != s of R to (w_s R_i - w_i R_s) / d,
keeps R_s and puts C_j in place of C_(B_s), so with C_B w = pi M_j

    pi' = sum_(i != s) C_(B_i) (w_s R_i - w_i R_s) / d + C_j R_s
        = (w_s pi - (pi M_j) R_s + d C_j R_s) / d = (w_s pi + P_j R_s) / d,

where P_j = d C_j - pi M_j is the entering price and R_s the pivot row
before the pivot.  pi' = C_B' R' is an integer vector, so the division is
exact.  A pivot then costs m N multiplications at most for pricing and
m (m + 2) for R and pi, with no m^2 pass to rebuild pi.

The caller names the m columns of a feasible basis S of A x = b as
`start`, and `_start_basis` pivots each column of S in, in the order given,
on the first row that has no basic column yet and whose entry in w is
nonzero.  These are m ordinary pivots from R = I and d = 1, so the
exact-division argument above holds after them.  A start column with no
such row is linearly dependent on the columns before it, and a negative
right-hand side afterwards means the basic solution of S is not
nonnegative; either raises ValueError.  Nothing here trusts S beyond its
being a basis: R checks its feasibility, and Bland's rule prices every
column, so the optimum found is the optimum of the program whatever S was.

`_revised_min`, Bland's loop, runs from any feasible state ([R | d B^-1 r],
basis, d) and its pi = C_B R, and leaves them at the optimum.  A column
appended to M and C (one more tuple in M's list of columns) changes neither
B nor R nor d B^-1 r nor pi, so the state stays a feasible basis of the
larger program and the loop resumes from it; only the new column can price
negative there.  Kelley's master LP in `minimize` grows that way, one
column per cut.

Bland's step, `_bland_step`, prices a leading block of unit columns in
closed form.  `units` counts the pairs in it: M's first 2 units columns are
u_j = -e_j, then v_j = e_j, for j < units.  pi M_j is then -pi_j or pi_j,
so the price d C_j - pi M_j is d C_j + pi_j for u_j and d C_j - pi_j for
v_j, and w = R M_j is column j of R, negated for u_j.  The step takes them
in Bland's order, stops at the first negative price, and prices the
remaining columns with a dot product each.  Kelley's master LP in
`minimize` starts with n such pairs; `linear_min` has none.
"""


from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .rationals import common_denominator


class LPUnboundedError(RuntimeError):
    """The objective is unbounded below on the feasible region."""


_ZERO = Fraction(0)


def _eliminate(
    rows: List[List[int]], column: Sequence[int], basis: List[int], d: int, row: int, col: int
) -> int:
    """Pivot [R | d B^-1 r] in place on `row`, entering column `col`; return the new d.

    `column` is w = R M_col, col's entry in each of `rows`.
    """
    pivot_row = rows[row]
    p = column[row]
    if p < 0:
        # Negating the pivot row and p negates every updated row as well.
        pivot_row[:] = [-w for w in pivot_row]
        p = -p
    for target, factor in zip(rows, column):
        if target is pivot_row:
            continue
        if factor:
            target[:] = [(p * v - factor * w) // d for v, w in zip(target, pivot_row)]
        elif p != d:
            target[:] = [p * v // d for v in target]
    basis[row] = col
    return p


def _integer_program(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    start: Sequence[int],
) -> Tuple[Sequence[int], List[Sequence[int]], List[int]]:
    """(C, M, r): the objective and each row [A_i | b_i] scaled to integers.

    M comes back as its list of columns.  Raises ValueError on inconsistent
    dimensions or a start of the wrong size or out of range.
    """
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if len(start) != m or not all(0 <= j < n for j in start):
        raise ValueError(f"a start basis needs {m} columns in range(0, {n}), got {list(start)}")
    rows: List[Sequence[int]] = []
    r: List[int] = []
    for row, rhs in zip(A, b):
        if type(rhs) is not int or not set(map(type, row)) <= {int}:
            _, ints = common_denominator([*row, rhs])
            row, rhs = ints[:-1], ints[-1]
        rows.append(row)
        r.append(rhs)
    columns = list(zip(*rows)) if rows else [()] * n
    if not set(map(type, c)) <= {int}:
        c = common_denominator(c)[1]
    return c, columns, r


def _entering(inverse: List[List[int]], M: Sequence[Sequence[int]], col: int) -> List[int]:
    """w = R M_col, the tableau column of `col`."""
    a = M[col]
    # map stops at the end of a, before the right-hand side closing each row.
    return [sum(map(mul, r, a)) for r in inverse]


def _duals(inverse: List[List[int]], basis: List[int], cost: Sequence[int]) -> List[int]:
    """pi = C_B R."""
    pi = [0] * len(inverse)
    for j, r in zip(basis, inverse):
        cb = cost[j]
        if cb:
            # zip stops at the end of pi, before the right-hand side.
            pi = [v + cb * w for v, w in zip(pi, r)]
    return pi


def _start_basis(
    M: Sequence[Sequence[int]], r: Sequence[int], start: Sequence[int]
) -> Tuple[List[List[int]], List[int], int]:
    """Pivot the columns of `start` in from R = I: ([R | d B^-1 r], basis, d).

    Raises ValueError when `start` is not a feasible basis of M x = r.
    """
    m = len(r)
    inverse = [[int(i == k) for k in range(m)] + [r[i]] for i in range(m)]
    # -1 marks a row with no basic column yet.
    basis = [-1] * m
    d = 1
    for col in start:
        w = _entering(inverse, M, col)
        target = next((i for i in range(m) if basis[i] < 0 and w[i]), None)
        if target is None:
            raise ValueError(f"start column {col} is dependent on the ones before it")
        d = _eliminate(inverse, w, basis, d, target, col)
    if any(row[-1] < 0 for row in inverse):
        raise ValueError("the start basis is infeasible")
    return inverse, basis, d


def _bland_step(
    cost: Sequence[int],
    M: Sequence[Sequence[int]],
    inverse: List[List[int]],
    basis: List[int],
    d: int,
    pi: Sequence[int],
    units: int = 0,
) -> Optional[Tuple[int, List[int]]]:
    """One pivot of Bland's rule from the state ([R | d B^-1 r], basis, d).

    pi must be C_B R, and M's first 2 `units` columns the unit pairs
    u_j = -e_j, then v_j = e_j (see the module docstring).  Updates the
    state in place and returns the new (d, pi), or None when no column
    prices negative.  Raises LPUnboundedError when the entering column has
    no leaving row.
    """
    for sign, first in ((-1, 0), (1, units)):
        for j in range(units):
            price = d * cost[first + j] - sign * pi[j]
            if price < 0:
                w = [sign * r[j] for r in inverse]
                return _leave(inverse, basis, d, pi, w, first + j, price)
    for col, (cj, a) in enumerate(islice(zip(cost, M), 2 * units, None), 2 * units):
        price = d * cj - sum(map(mul, pi, a))
        if price < 0:
            return _leave(inverse, basis, d, pi, _entering(inverse, M, col), col, price)
    return None


def _leave(
    inverse: List[List[int]],
    basis: List[int],
    d: int,
    pi: Sequence[int],
    w: List[int],
    col: int,
    price: int,
) -> Tuple[int, List[int]]:
    """Enter `col`, with tableau column w and price P_col < 0, on Bland's leaving row.

    Updates the state in place and returns the new (d, pi).
    """
    # With d > 0, ratio rhs_i / w_i compares by cross-multiplication.
    best_row = -1
    for i, a in enumerate(w):
        if a <= 0:
            continue
        rhs = inverse[i][-1]
        if best_row >= 0:
            lhs, right = rhs * best_a, best_rhs * a
            if not (lhs < right or (lhs == right and basis[i] < basis[best_row])):
                continue
        best_row, best_a, best_rhs = i, a, rhs
    if best_row < 0:
        raise LPUnboundedError("no leaving row: objective unbounded below")
    # pi' = (w_s pi + P_j R_s) / d, exact; zip stops before the right-hand side.
    pi = [(best_a * v + price * r) // d for v, r in zip(pi, inverse[best_row])]
    return _eliminate(inverse, w, basis, d, best_row, col), pi


def _revised_min(
    cost: Sequence[int],
    M: Sequence[Sequence[int]],
    inverse: List[List[int]],
    basis: List[int],
    d: int,
    pi: List[int],
    units: int = 0,
) -> Tuple[int, List[int], int]:
    """Bland's rule on min C.x s.t. M x = r, x >= 0, all integers.

    Starts from the feasible state ([R | d B^-1 r], basis, d), which it
    updates in place, and its duals pi = C_B R, and returns (d, pi, pivots)
    at the optimum, with the number of pivots made.  Each pivot is one
    `_bland_step`, with M's first 2 `units` columns its unit pairs.  Raises
    LPUnboundedError when the objective is unbounded below.
    """
    pivots = 0
    while True:
        made = _bland_step(cost, M, inverse, basis, d, pi, units)
        if made is None:
            return d, pi, pivots
        d, pi = made
        pivots += 1


def linear_min(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    start: Sequence[int],
) -> Tuple[Fraction, List[Fraction]]:
    """Solve min c.x s.t. A x = b, x >= 0 exactly from a feasible basis.

    `start` lists the m columns of a feasible basis of A x = b.  Returns
    (optimal value, one optimal basic solution); the optimum does not
    depend on `start`, the basic solution returned may.  Raises
    LPUnboundedError when the objective is unbounded below, and ValueError
    on inconsistent dimensions or when `start` is not a feasible basis.
    """
    C, M, r = _integer_program(c, A, b, start)
    inverse, basis, d = _start_basis(M, r, start)
    d = _revised_min(C, M, inverse, basis, d, _duals(inverse, basis, C))[0]
    solution = [_ZERO] * len(c)
    for j, row in zip(basis, inverse):
        if row[-1]:
            solution[j] = Fraction(row[-1], d)
    value = sum((c[j] * solution[j] for j in basis), start=_ZERO)
    return value, solution
