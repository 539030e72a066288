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
`start`, and the `_Program` constructor pivots each column of S in, in the
order given, on the first row that has no basic column yet and whose entry
in w is nonzero.  These are m ordinary pivots from R = I and d = 1, so the
exact-division argument above holds after them.  A start column with no
such row is linearly dependent on the columns before it, and a negative
right-hand side afterwards means the basic solution of S is not
nonnegative; either raises ValueError.  Nothing here trusts S beyond its
being a basis: R checks its feasibility, and Bland's rule prices every
column, so the optimum found is the optimum of the program whatever S was.

`_Program` holds the solver's state: the integer costs C, the columns of M,
[R | d B^-1 r], the basis, d, pi = C_B R and the pivots made so far.
`optimize` runs Bland's rule from it to the optimum, one `_step` per pivot.
A column appended to M and C (`append`) changes neither B nor R nor
d B^-1 r nor pi, so the state stays a feasible basis of the larger program
and `optimize` resumes from it; only the new column can price negative
there.  So the program counts in `priced` the leading columns known to
price nonnegative at its basis: all of them when a pass finds no negative
price, none after a pivot, and `append` leaves the count as it is.  A pass
starts after them, so a resume at an optimum prices the appended column
alone, and enters it if its price is negative, as Bland's full pass would:
every column before it prices nonnegative.  The pivots are Bland's.
`linear_min` starts a program at the caller's basis and optimizes it once;
Kelley's master LP in `minimize` grows one, one column per cut.

The step prices a leading block of unit columns in closed form.  `units`
counts the pairs in it: M's first 2 units columns are u_j = -e_j, then
v_j = e_j, for j < units.  pi M_j is then -pi_j or pi_j, so the price
d C_j - pi M_j is d C_j + pi_j for u_j and d C_j - pi_j for v_j, and
w = R M_j is column j of R, negated for u_j.  The step takes them in
Bland's order, stops at the first negative price, and prices the remaining
columns with a dot product each.  The unit pairs have costs but are not
stored: `columns` holds M's columns after them, and column k of it is
column 2 units + k of the program.  The constructor enters the unit pairs
that `start` names before its other columns, each on its own row j, by its
sign: while R = I there, the pivot on (j, v_j) leaves row j as it is and the
one on (j, u_j) negates it, so the constructor writes that down instead of
pivoting; naming both u_j and v_j is the dependent start.  Kelley's master
LP in `minimize` starts this way with n pairs; `linear_min` has none.

The closure LP's columns price in closed form too.  Its matrix is the
lattice block `LatticeRows(n, p, q)`, a tuple of rows that holds its
columns too: column k is (1, e_1, ..., e_n) for the k-th point of
{-p, 0, q}^n in lex order, so pi M_k = pi_0 + sum_t pi_t e_t is an affine
form in the point.  One outer sum gives it for all 3^n columns at once, in
lex order:

    aff = [pi_0];  aff = [v + s for v in aff for s in (-p pi_t, 0, q pi_t)]

for t = 1, ..., n: (3^(n+1) - 3) / 2 additions in all, where a dot
product per column takes (n + 1) 3^n multiplications.
`_LatticeProgram` then enters the first column j at or after `priced`
with d C_j < aff_j, the column Bland's dense pass enters, with the same
price, so the pivots are the same.  It overrides `_step`, so the master's
step tests nothing for it.  `linear_min` takes this path for a
`LatticeRows` whose right-hand side is already in integers, and reads its
optimum in integers too: sum_B C_j (d B^-1 r)_j over d L_c.
"""


from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product
from operator import mul
from typing import List, Sequence, Tuple

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


class LatticeRows(tuple):
    """The closure LP's rows over the lattice {-p, 0, q}^n, holding its columns too.

    Column k is (1, e) for the k-th point e of {-p, 0, q}^n in the lex
    order of `lattice.all_labelings` ('-' < '0' < '+'), so row 0 is all
    ones and row 1 + t holds coordinate t of each point.  The solver keeps
    a matrix by columns, and `linear_min` takes these as they are, instead
    of checking every entry's type and transposing the rows on every call,
    and prices them in closed form (see the module docstring).
    """

    def __new__(cls, n: int, p: int, q: int) -> "LatticeRows":
        columns = tuple([(1, *point) for point in product((-p, 0, q), repeat=n)])
        self = super().__new__(cls, zip(*columns))
        #: The columns, in lex order.
        self.columns = columns
        #: The entries of a coordinate row, in lex order.
        self.entries = (-p, 0, q)
        return self


def _integer_program(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    start: Sequence[int],
) -> Tuple[Sequence[int], Sequence[Sequence[int]], List[int]]:
    """(C, M, r): the objective and each row [A_i | b_i] scaled to integers.

    M comes back as its list of columns, which a `LatticeRows` A holds
    already; its rows are scaled only when b is not all integers.  Raises
    ValueError on inconsistent dimensions or a start of the wrong size or
    out of range.
    """
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if len(start) != m or not all(0 <= j < n for j in start):
        raise ValueError(f"a start basis needs {m} columns in range(0, {n}), got {list(start)}")
    if isinstance(A, LatticeRows) and set(map(type, b)) <= {int}:
        columns, r = A.columns, list(b)
    else:
        rows: List[Sequence[int]] = []
        r = []
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


def _duals(inverse: List[List[int]], basis: List[int], cost: Sequence[int]) -> List[int]:
    """pi = C_B R."""
    pi = [0] * len(inverse)
    for j, r in zip(basis, inverse):
        cb = cost[j]
        if cb:
            # zip stops at the end of pi, before the right-hand side.
            pi = [v + cb * w for v, w in zip(pi, r)]
    return pi


class _Program:
    """min C.x s.t. M x = r, x >= 0 in integers, held at a feasible basis.

    M's first 2 `units` columns are the unit pairs u_j = -e_j, then
    v_j = e_j; `costs` is all of C and `columns` the columns of M after
    the pairs (see the module docstring).  The program starts at the basis
    `start` names, and raises ValueError when that is not a feasible basis.
    """

    def __init__(
        self,
        costs: List[int],
        columns: List[Sequence[int]],
        r: Sequence[int],
        start: Sequence[int],
        units: int = 0,
    ) -> None:
        self.costs = costs
        self.columns = columns
        self.units = units
        m = len(r)
        #: [R | d B^-1 r], from R = I.
        self.inverse = inverse = [[0] * m + [v] for v in r]
        for i, row in enumerate(inverse):
            row[i] = 1
        # -1 marks a row with no basic column yet.
        self.basis = basis = [-1] * m
        self.d = 1
        # Unit pairs first, each on its own row by its sign, as a pivot from R = I.
        for col in sorted(start, key=(2 * units).__le__):
            if col < 2 * units:
                target = col % units
                if basis[target] >= 0:
                    raise ValueError(f"start column {col} is dependent on the ones before it")
                if col < units:
                    inverse[target] = [-v for v in inverse[target]]
                basis[target] = col
                continue
            w = self._tableau_column(col)
            target = next((i for i in range(m) if basis[i] < 0 and w[i]), None)
            if target is None:
                raise ValueError(f"start column {col} is dependent on the ones before it")
            self.d = _eliminate(inverse, w, basis, self.d, target, col)
        if any(row[-1] < 0 for row in inverse):
            raise ValueError("the start basis is infeasible")
        #: pi = C_B R.
        self.pi = _duals(inverse, basis, costs)
        #: Bland pivots made by `optimize`.
        self.pivots = 0
        #: The leading columns known to price nonnegative at this basis.
        self.priced = 0

    def _tableau_column(self, col: int) -> List[int]:
        """w = R M_col, the tableau column of the program's column `col`."""
        units = self.units
        if col < 2 * units:
            sign = -1 if col < units else 1
            return [sign * r[col % units] for r in self.inverse]
        a = self.columns[col - 2 * units]
        # map stops at the end of a, before the right-hand side closing each row.
        return [sum(map(mul, r, a)) for r in self.inverse]

    def append(self, cost: int, column: Sequence[int]) -> None:
        """Add a column; the basis stays feasible, and `optimize` resumes from it."""
        self.costs.append(cost)
        self.columns.append(column)

    def optimize(self) -> "_Program":
        """Pivot by Bland's rule to the optimum and return the program.

        Raises LPUnboundedError when the objective is unbounded below.
        """
        while self._step():
            self.pivots += 1
        return self

    def _step(self) -> bool:
        """Make one pivot of Bland's rule; False when no column prices negative.

        Bland's rule enters the first column that prices negative, so the
        pass starts after the `priced` leading columns, which cannot.
        """
        costs, pi, d, units = self.costs, self.pi, self.d, self.units
        first = max(self.priced, 2 * units)
        if self.priced < 2 * units:
            for sign, base in ((-1, 0), (1, units)):
                for j in range(units):
                    price = d * costs[base + j] - sign * pi[j]
                    if price < 0:
                        self._enter(base + j, self._tableau_column(base + j), price)
                        return True
        for col, (cj, a) in enumerate(
            zip(islice(costs, first, None), islice(self.columns, first - 2 * units, None)),
            first,
        ):
            price = d * cj - sum(map(mul, pi, a))
            if price < 0:
                self._enter(col, self._tableau_column(col), price)
                return True
        self.priced = len(costs)
        return False

    def _enter(self, col: int, w: List[int], price: int) -> None:
        """Enter `col`, with tableau column w and price P_col < 0, on Bland's leaving row.

        Raises LPUnboundedError when no row leaves.
        """
        inverse, basis, d = self.inverse, self.basis, self.d
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
        self.pi = [(best_a * v + price * r) // d for v, r in zip(self.pi, inverse[best_row])]
        self.d = _eliminate(inverse, w, basis, d, best_row, col)
        self.priced = 0


class _LatticeProgram(_Program):
    """A `_Program` whose columns are those of a `LatticeRows`, priced in closed form."""

    def __init__(self, entries: Tuple[int, int, int], *program) -> None:
        self.entries = entries
        super().__init__(*program)

    def _step(self) -> bool:
        """`_Program._step` with every pi M_j from one outer sum."""
        pi, d, costs = self.pi, self.d, self.costs
        aff = [pi[0]]
        for v in pi[1:]:
            step = tuple([e * v for e in self.entries])
            aff = [a + s for a in aff for s in step]
        for col in range(self.priced, len(costs)):
            price = d * costs[col] - aff[col]
            if price < 0:
                self._enter(col, self._tableau_column(col), price)
                return True
        self.priced = len(costs)
        return False


def linear_min(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    start: Sequence[int],
) -> Tuple[Fraction, List[Fraction]]:
    """Solve min c.x s.t. A x = b, x >= 0 exactly from a feasible basis.

    A is the sequence of its rows; a `LatticeRows` A hands the solver its
    columns as they are.  `start` lists the m columns of a feasible basis
    of A x = b.  Returns (optimal value, one optimal basic solution); the
    optimum does not depend on `start`, the basic solution returned may.
    Raises LPUnboundedError when the objective is unbounded below, and
    ValueError on inconsistent dimensions or when `start` is not a feasible
    basis.
    """
    C, M, r = _integer_program(c, A, b, start)
    # Rows scaled to integers here are no longer the lattice's.
    if isinstance(A, LatticeRows) and M is A.columns:
        program = _LatticeProgram(A.entries, C, M, r, start).optimize()
    else:
        program = _Program(C, M, r, start).optimize()
    solution = [_ZERO] * len(c)
    value = 0
    for j, row in zip(program.basis, program.inverse):
        if row[-1]:
            solution[j] = Fraction(row[-1], program.d)
            value += C[j] * row[-1]
    # `_integer_program` hands back c itself when it is all integers.
    scale = 1 if C is c else math.lcm(*[v.denominator for v in c])
    return Fraction(value, program.d * scale), solution
