"""Exact dense-tableau simplex for small equality-form linear programs.

Minimizes c.x subject to A x = b, x >= 0 over exact rationals, from a
feasible basis the caller names, with Bland's anti-cycling rule.  Built for
desk-scale problems (a handful of rows, a few hundred columns) where exact
optima are the whole point; no attempt at sparse or revised tricks.

The tableau is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
Comp. 1968): plain integers T over one shared denominator d > 0, the
rational tableau being T / d.  Each row [A_i | b_i] is scaled to integers by
the lcm of its denominators, giving an integer matrix M, and the first
tableau is M itself with d = 1.  With B the columns of M pivoted in so far,
completed by unit columns for the rows that have no basic column yet,
d = |det B| and T = d B^-1 M, so by Cramer's rule every entry of T is, up
to sign, a determinant of B with one column replaced by a column of M: an
integer.  A pivot on (r, c) therefore divides exactly,

    T'_ij = (T_rc T_ij - T_ic T_rj) // d   (i != r),   T'_r = T_r,   d' = T_rc,

and the cost row, d times the reduced costs of an integer objective, is a
bordered determinant of the same kind and updates by the same rule.  When
d' < 0 (when a start column, below, is pivoted in on a negative entry, and
on every dual simplex pivot below) the whole tableau is negated; `_pivot`
does so in the same pass, by negating the pivot row and d' first.

Row scaling by a positive factor moves no pivot: ratios, signs and ties are
unchanged.  So the pivots, and with them the optimal basis returned, are
those of the same method run on a tableau of Fractions.

The caller names the m columns of a feasible basis S of A x = b as
`start`, and each column of S is pivoted in, in the order given, on the
first row that has no basic column yet and whose entry is nonzero.  These
are m ordinary pivots on the same integer tableau, so the exact-division
argument above holds after them.  The cost row starts as the integer-scaled
objective L_c c, which is d L_c times the reduced costs while d = 1 and no
column is basic; carried through the start pivots, it is d L_c times the
reduced costs at S.  A start column with no such row is linearly dependent
on the columns before it, and a negative right-hand side afterwards means
the basic solution of S is not nonnegative; either raises ValueError.
Bland's rule then runs from S as from any other feasible basis.  Nothing
here trusts S beyond its being a basis: the tableau checks its
feasibility, and Bland's rule prices every column, so the optimum found is
the optimum of the program whatever S was.

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
from typing import List, Sequence, Tuple

from .rationals import common_denominator


class LPInfeasibleError(RuntimeError):
    """A row added to a `WarmLP` leaves its program no feasible point."""


class LPUnboundedError(RuntimeError):
    """The objective is unbounded below on the feasible region."""


_ZERO = Fraction(0)


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


def _bland_min(rows: List[List[int]], basis: List[int], cost: List[int], d: int) -> int:
    """Run Bland pivots until no reduced cost is negative; return the new d."""
    ncols = len(cost) - 1
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
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if len(start) != m or not all(0 <= j < n for j in start):
        raise ValueError(f"a start basis needs {m} columns in range(0, {n}), got {list(start)}")
    rows = [common_denominator([*row, rhs])[1] for row, rhs in zip(A, b)]
    _, cost = common_denominator(c)
    cost.append(0)
    # -1 marks a row with no basic column yet.
    basis = [-1] * m
    d = 1
    for col in start:
        target = next((i for i in range(m) if basis[i] < 0 and rows[i][col]), None)
        if target is None:
            raise ValueError(f"start column {col} is dependent on the ones before it")
        d = _pivot(rows, basis, cost, d, target, col)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("the start basis is infeasible")
    return rows, basis, cost, _bland_min(rows, basis, cost, d)


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
    solution = WarmLP(*_optimal_tableau(c, A, b, start)).solution()
    value = sum((c[j] * v for j, v in enumerate(solution) if v), start=_ZERO)
    return value, solution
