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
column, below, is pivoted in on a negative entry, and on every dual simplex
pivot below) the whole of T is negated; `_eliminate` does so in the same
pass, by negating the pivot row and d' first, while every other w_i keeps its
sign.  `_pivot` makes the same update, negation included, on a full tableau
and its cost row, reading each factor from the tableau's own column; it
serves `WarmLP`, whose tableau holds that column already.

Pricing needs no tableau either.  With pi = C_B R, the integer d C_j - pi M_j
is d times the reduced cost of column j, the entry that a cost row carried
through the pivots would hold: d (C_j - C_B B^-1 M_j).  A pricing pass
costs m N multiplications, as one tableau pivot would, but a pivot now
touches m (m + 1) entries, not m N; from a start that is already optimal
the solve is m small pivots and one pricing pass.  Bland's rule enters the
smallest j with a negative price, forms w = R M_j, and leaves on the row
with the least ratio (d B^-1 r)_i / w_i over w_i > 0, the smallest basic
column among ties; ratios of integers over the same d compare by
cross-multiplication.

The caller names the m columns of a feasible basis S of A x = b as
`start`, and each column of S is pivoted in, in the order given, on the
first row that has no basic column yet and whose entry in w is nonzero.
These are m ordinary pivots from R = I and d = 1, so the exact-division
argument above holds after them.  A start column with no such row is
linearly dependent on the columns before it, and a negative right-hand side
afterwards means the basic solution of S is not nonnegative; either raises
ValueError.  Bland's rule then runs from S as from any other feasible basis.
Nothing here trusts S beyond its being a basis: R checks its feasibility,
and Bland's rule prices every column, so the optimum found is the optimum of
the program whatever S was.

`_optimal_tableau` multiplies out the optimal tableau, T = R M beside
d B^-1 r and the cost row d C - pi M beside -C_B d B^-1 r, for a `WarmLP`.

`WarmLP` starts from an optimal tableau, the one `_optimal_tableau` returns
or one its caller builds directly, and adds constraints a.x <= beta to it.
The only entry is `add_integer_row`, which takes the row already in
integers; a rational row is first scaled by the lcm s of its denominators
(`rationals.common_denominator`).  The integer row gets a new slack column r' whose only
nonzero entry, in that row, is 1: s a.x + r' = s beta.  With r' basic in
the new row, the new basis matrix is [[B, 0], [(s a)_B, 1]], block
triangular with determinant det B, so d does not change; the new row of
T = d B^-1 M is d [s a | 1 | s beta] - sum_i (s a)_B(i) T_i, and every
other row only gains a 0 in the new column.  The new matrix is still
integer, so T stays a matrix of bordered determinants and the pivot
division stays exact.  The cost row gains a 0 in the new column and keeps
every other entry, so the old optimal basis stays dual feasible, and the
new row's right-hand side, d s times the slack's value, is negative
exactly when the old optimum violates the constraint.

Dual simplex pivots then restore optimality (Lemke, Naval Res. Logist. Q.
1954): leave on the row with a negative right-hand side whose basic column
has the smallest index, and enter on the column j with a_rj < 0 that has
the least ratio cost_j / |a_rj|, the smallest j among ties.  The ratio test
keeps every reduced cost nonnegative and the objective never decreases.
The dual simplex method is the primal method run on the dual program, and
these two choices are Bland's smallest-index rule there, with each dual
variable named by the primal column it prices; so by Bland's argument
(Math. Oper. Res. 1977) no basis repeats and the loop ends.  A row whose
entries are all nonnegative while its right-hand side is negative proves
the enlarged program infeasible.
"""


from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

from .rationals import common_denominator


class LPInfeasibleError(RuntimeError):
    """A row added to a `WarmLP` leaves its program no feasible point."""


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


def _pivot(
    rows: List[List[int]], basis: List[int], cost: List[int], d: int, row: int, col: int
) -> int:
    """Pivot on (row, col) in place and return the new denominator, > 0."""
    pivot_row = rows[row]
    p = pivot_row[col]
    if p < 0:
        # Negating the pivot row and p negates every updated row as well.
        pivot_row[:] = [-w for w in pivot_row]
        p = -p
    for target in (*rows, cost):
        if target is pivot_row:
            continue
        factor = target[col]
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

    Raises ValueError on inconsistent dimensions or a start of the wrong
    size or out of range.
    """
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if len(start) != m or not all(0 <= j < n for j in start):
        raise ValueError(f"a start basis needs {m} columns in range(0, {n}), got {list(start)}")
    M: List[Sequence[int]] = []
    r: List[int] = []
    for row, rhs in zip(A, b):
        if type(rhs) is not int or not set(map(type, row)) <= {int}:
            _, ints = common_denominator([*row, rhs])
            row, rhs = ints[:-1], ints[-1]
        M.append(row)
        r.append(rhs)
    return common_denominator(c)[1], M, r


def _entering(inverse: List[List[int]], M: Sequence[Sequence[int]], col: int) -> List[int]:
    """w = R M_col, the tableau column of `col`."""
    a = [row[col] for row in M]
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


def _revised_min(
    cost: Sequence[int], M: Sequence[Sequence[int]], r: Sequence[int], start: Sequence[int]
) -> Tuple[List[List[int]], List[int], int]:
    """Bland's rule from `start` on min C.x s.t. M x = r, x >= 0, all integers.

    Returns ([R | d B^-1 r], basis, d) at the optimum.  Raises ValueError
    when `start` is not a feasible basis and LPUnboundedError when the
    objective is unbounded below.
    """
    m = len(M)
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
    while True:
        prices = [d * cj for cj in cost]
        for pk, row in zip(_duals(inverse, basis, cost), M):
            if pk:
                prices = [v - pk * a for v, a in zip(prices, row)]
        col = next((j for j, v in enumerate(prices) if v < 0), None)
        if col is None:
            return inverse, basis, d
        w = _entering(inverse, M, col)
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
        d = _eliminate(inverse, w, basis, d, best_row, col)


def _optimal_tableau(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    start: Sequence[int],
) -> Tuple[List[List[int]], List[int], List[int], int]:
    """Solve min c.x s.t. A x = b, x >= 0 from the basis `start`.

    Returns the optimal tableau (rows, basis, cost, d): the rows over the
    columns of x and the right-hand side, the basic column of each row, d
    L_c times the reduced costs for the integer-scaled objective L_c c, and
    the denominator d.  Raises LPUnboundedError, and ValueError on
    inconsistent dimensions or a start that is not a feasible basis.
    """
    C, M, r = _integer_program(c, A, b, start)
    inverse, basis, d = _revised_min(C, M, r, start)
    columns = [[row[j] for row in M] for j in range(len(C))]
    rows = [[sum(map(mul, ri, a)) for a in columns] + [ri[-1]] for ri in inverse]
    pi = _duals(inverse, basis, C)
    cost = [d * cj - sum(map(mul, pi, a)) for cj, a in zip(C, columns)]
    cost.append(-sum(C[j] * ri[-1] for j, ri in zip(basis, inverse)))
    return rows, basis, cost, d


class WarmLP:
    """The optimal tableau of min c.x s.t. A x = b, x >= 0, kept optimal as rows are added.

    Each `add_integer_row(a, beta)` adds the constraint a.x <= beta through
    a new slack column and restores optimality by dual simplex pivots on the
    same integer tableau.
    """

    def __init__(self, rows: List[List[int]], basis: List[int], cost: List[int], d: int) -> None:
        """Start from a known optimal fraction-free tableau, with no solve.

        The arguments are what `_optimal_tableau` returns: integer rows over
        the columns and the right-hand side, the basic column of each row,
        the cost row of d times the reduced costs, and d = |det B| > 0.  The
        caller vouches that T = d B^-1 M for an integer M, that every
        reduced cost and right-hand side is nonnegative, and that there are
        no slack columns yet; the lists are taken over, not copied.
        """
        self.ncols = len(cost) - 1
        self.rows, self.basis, self.cost, self.d = rows, basis, cost, d
        #: Dual simplex pivots run by added rows so far.
        self.pivots = 0

    def add_integer_row(self, a: Sequence[int], beta: int) -> None:
        """Add a.x <= beta for integers a and beta and re-optimize.

        A caller with a rational row scales it by the lcm of its
        denominators first (`rationals.common_denominator`).
        Raises ValueError on a row of the wrong length and LPInfeasibleError
        when the new constraint leaves no feasible point; the object is of no
        further use after the latter.
        """
        n = self.ncols
        if len(a) != n:
            raise ValueError(f"row has {len(a)} entries, the program has {n} columns")
        rows, basis, cost, d = self.rows, self.basis, self.cost, self.d
        for row in rows:
            row.insert(-1, 0)
        cost.insert(-1, 0)
        # The row [a | 0 .. 0 1 | beta] has tableau row
        # d [a | 0 .. 0 1 | beta] - sum_i a_B(i) T_i; only the basic
        # columns among the original ones can have a nonzero factor.
        width = len(cost) - 1
        new = [d * v for v in a] + [0] * (width - n)
        new[-1] = d
        new.append(d * beta)
        for row, j in zip(rows, basis):
            if j < n and a[j]:
                factor = a[j]
                new = [v - factor * w for v, w in zip(new, row)]
        rows.append(new)
        basis.append(width - 1)
        self.d = self._dual_bland()

    def _dual_bland(self) -> int:
        """Run dual simplex pivots until no right-hand side is negative."""
        rows, basis, cost, d = self.rows, self.basis, self.cost, self.d
        ncols = len(cost) - 1
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return d
            # Enter on the least ratio cost_j / -a_j over a_j < 0, compared
            # by cross-multiplication; the first j wins a tie.
            pivot_row = rows[leave]
            col = -1
            for j in range(ncols):
                a = pivot_row[j]
                if a >= 0:
                    continue
                if col >= 0 and cost[j] * best_a <= best_cost * a:
                    continue
                col, best_a, best_cost = j, a, cost[j]
            if col < 0:
                raise LPInfeasibleError("an added row leaves no feasible point")
            d = _pivot(rows, basis, cost, d, leave, col)
            self.pivots += 1

    def numerators(self) -> Tuple[List[int], int]:
        """The basic solution over the original columns as (N, d), x = N / d."""
        n = self.ncols
        nums = [0] * n
        for row, j in zip(self.rows, self.basis):
            if j < n:
                nums[j] = row[-1]
        return nums, self.d

    def solution(self) -> List[Fraction]:
        """One optimal basic solution over the original columns."""
        nums, d = self.numerators()
        return [Fraction(v, d) if v else _ZERO for v in nums]


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
    inverse, basis, d = _revised_min(C, M, r, start)
    solution = [_ZERO] * len(c)
    for j, row in zip(basis, inverse):
        if row[-1]:
            solution[j] = Fraction(row[-1], d)
    value = sum((c[j] * solution[j] for j in basis), start=_ZERO)
    return value, solution
