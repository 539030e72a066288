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
d' < 0 (when an artificial is driven out on a negative entry, and on every
dual simplex pivot below) the whole tableau is negated; `_pivot` does so in
the same pass, by negating the pivot row and d' first.  Dropping a
redundant row or the artificial columns changes no other entry, so the
argument still holds after phase 1.

Row scaling by a positive factor moves no pivot: ratios, signs and ties are
unchanged, and phase 1 weights artificial i by 1/s_i so that it minimizes
the sum of the artificials of the unscaled rows.  So the pivots, and with
them the optimal basis returned, are those of the same method run on a
tableau of Fractions.

`WarmLP` starts from an optimal tableau, the one `_two_phase` returns or
one its caller builds directly, and adds constraints a.x <= beta to it.
The only entry is `add_integer_row`, which takes the row already in
integers; a rational row is first scaled by the lcm s of its denominators
(`_integer_scale`).  The integer row gets a new slack column r' whose only
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


def _two_phase(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Tuple[List[List[int]], List[int], List[int], int]:
    """Solve min c.x s.t. A x = b, x >= 0 and return the optimal tableau.

    That is (rows, basis, cost, d): the rows over the columns of x and the
    right-hand side, the basic column of each row, d L_c times the reduced
    costs for the integer-scaled objective L_c c, and the denominator d.
    Raises LPInfeasibleError / LPUnboundedError accordingly.
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
    return rows, basis, cost, d


class WarmLP:
    """The optimal tableau of min c.x s.t. A x = b, x >= 0, kept optimal as rows are added.

    Each `add_integer_row(a, beta)` adds the constraint a.x <= beta through
    a new slack column and restores optimality by dual simplex pivots on the
    same integer tableau.
    """

    def __init__(self, rows: List[List[int]], basis: List[int], cost: List[int], d: int) -> None:
        """Start from a known optimal fraction-free tableau, with no solve.

        The arguments are what `_two_phase` returns: integer rows over the
        columns and the right-hand side, the basic column of each row, the
        cost row of d times the reduced costs, and d = |det B| > 0.  The
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
        denominators first (`_integer_scale`).
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
        return [Fraction(v, d) for v in nums]


def linear_min(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Tuple[Fraction, List[Fraction]]:
    """Solve min c.x s.t. A x = b, x >= 0 exactly.

    Returns (optimal value, one optimal basic solution).  Raises
    LPInfeasibleError / LPUnboundedError accordingly.
    """
    solution = WarmLP(*_two_phase(c, A, b)).solution()
    value = sum((ci * xi for ci, xi in zip(c, solution)), start=_ZERO)
    return value, solution
