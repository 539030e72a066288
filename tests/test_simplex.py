"""The exact LP solver on hand-checkable programs and against a Fraction reference.

`linear_min` runs a fraction-free revised simplex, on the integer matrix
d B^-1, from a given start basis.  `reference_linear_min` (in conftest) is
the two-phase Bland method on a tableau of Fractions, the solver's earlier
form; from the same start basis
the two must take the same pivots and so return the same optimum and basic
solution, or raise the same exception.  The optimum reached from a start
basis must be the one the reference reaches cold, from its artificial
basis.  A program solved to its optimum and given one more column must
resume to the optimum of the enlarged program.  Kelley's master LP in
`minimize` resumes the same solver after each added cut, in dual form;
after every cut it must reach the optimum of the primal master solved
afresh.  The duals pi = C_B R that the solver carries across its pivots
must equal the ones `_duals` rebuilds after each.
"""

import contextlib
import functools
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewbisub import (
    Alpha,
    FractionalPoint,
    LPUnboundedError,
    TableFunction,
    all_labelings,
    check_alpha_bisubmodular,
    convex_closure,
    decompose,
    expand_to_table,
    extension_value,
    generate_instance,
    instance_from_json,
    linear_min,
    numeric,
    parse_labeling,
    random_box_point,
)
from skewbisub import oracles, simplex
from conftest import (
    ALPHA_GRID,
    ReferenceInfeasibleError,
    add_cut,
    cut_column,
    master_program,
    recorded_pivots,
    reference_linear_min,
)

# The package exports the function `minimize` under the module's name.
minimize_module = importlib.import_module("skewbisub.minimize")


def F(x):
    return Fraction(x)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _outcome(solver, *program):
    try:
        return solver(*program)
    except (ReferenceInfeasibleError, LPUnboundedError) as exc:
        return type(exc)


def _integer_run(c, A, b, start):
    """`linear_min`'s outcome and the (row, column) of each of its pivots."""
    with recorded_pivots() as pivots:
        return _outcome(linear_min, c, A, b, start), pivots


def _reference_run(c, A, b, start):
    """`reference_linear_min`'s outcome and its pivots."""
    pivots = []
    return _outcome(reference_linear_min, c, A, b, pivots, start), pivots


_DENOMINATORS = (1, 2, 3, 7)

#: Small rationals over the denominators above, zero drawn often so that
#: degenerate vertices and ties in the ratio test are common.
_RATIONALS = st.one_of(
    st.just(_ZERO),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from(_DENOMINATORS)),
)


def _determinant(B):
    """det B, by Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in B]
    det = _ONE
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return _ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for i in range(col + 1, len(rows)):
            factor = rows[i][col] / p
            if factor:
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[col])]
    return det


@st.composite
def _started_programs(draw):
    """(c, A, b, start): a program with the feasible basis `start`.

    The basis columns A_S are drawn with few zeros and kept when
    nonsingular; x_S >= 0 is drawn with zeros often, so the start is often
    degenerate, and b = A_S x_S.  The other columns and c are free, so the
    program may be unbounded but is never infeasible.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 6))
    start = draw(st.permutations(range(n)))[:m]
    nonzero = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(_DENOMINATORS))
    A = [[draw(_RATIONALS) for _ in range(n)] for _ in range(m)]
    for row in A:
        for j in start:
            row[j] = draw(nonzero)
    basis_matrix = [[row[j] for j in start] for row in A]
    assume(_determinant(basis_matrix) != 0)
    c = [draw(_RATIONALS) for _ in range(n)]
    x = {j: abs(draw(_RATIONALS)) for j in start}
    b = [sum((row[j] * v for j, v in x.items()), _ZERO) for row in A]
    return c, A, b, start


@settings(max_examples=300, deadline=None)
@given(_started_programs())
def test_start_basis_reaches_the_cold_optimum(program):
    c, A, b, start = program
    result, pivots = _integer_run(c, A, b, start)
    assert (result, pivots) == _reference_run(c, A, b, start)
    # The start pivots come first.
    assert [col for _, col in pivots[: len(start)]] == start
    cold = _outcome(reference_linear_min, c, A, b)
    if cold is LPUnboundedError:
        assert result is LPUnboundedError
    else:
        assert result[0] == cold[0]


def _rebuilt_duals(program):
    """C_B R of the program's state, rebuilt by `_duals`."""
    return simplex._duals(program.inverse, program.basis, program.costs)


@contextlib.contextmanager
def checked_duals():
    """Check the pi that Bland's loop carries against C_B R, rebuilt by `_duals`.

    Yields a list that gets the new d of each pivot checked.  Every pivot
    must start from pi = C_B R of its state and leave pi equal to C_B R of
    the new state.  `_Program._enter` makes every pivot of Bland's rule:
    `linear_min`'s, with no unit pairs, and those of the master LP in
    `minimize`, with n of them.
    """
    checked = []
    enter = simplex._Program._enter

    def checking_enter(program, col, w, price):
        assert program.pi == _rebuilt_duals(program)
        enter(program, col, w, price)
        assert program.pi == _rebuilt_duals(program)
        checked.append(program.d)

    with mock.patch.object(simplex._Program, "_enter", checking_enter):
        yield checked


@settings(max_examples=300, deadline=None)
@given(_started_programs())
def test_carried_duals_are_the_rebuilt_ones(program):
    c, A, b, start = program
    with checked_duals() as checked:
        result, pivots = _integer_run(c, A, b, start)
    # The same pivots as the reference, and each one past the start checked.
    assert (result, pivots) == _reference_run(c, A, b, start)
    assert len(checked) == len(pivots) - len(start)


@settings(max_examples=300, deadline=None)
@given(_started_programs(), st.data())
def test_an_appended_column_resumes_to_the_cold_optimum(program, data):
    # The resume path with no unit pairs: a program solved to its optimum,
    # then given one more column and resumed, reaches the optimum that
    # `linear_min` finds on the enlarged program from the same start, and
    # carries pi = C_B R through every pivot.
    c, A, b, start = program
    free = [j for j in range(len(c)) if j not in start]
    assume(free)
    last = data.draw(st.sampled_from(free))
    order = [j for j in range(len(c)) if j != last] + [last]
    start = [order.index(j) for j in start]
    # Scaled to integers whole, so the appended column is scaled as its rows are.
    C, M, r = simplex._integer_program(
        [c[j] for j in order], [[row[j] for j in order] for row in A], b, start
    )
    cold = _outcome(linear_min, C, [list(row) for row in zip(*M)], r, start)
    solved = simplex._Program(C[:-1], M[:-1], r, start)
    if _outcome(solved.optimize) is LPUnboundedError:
        # A column more can only lower the objective.
        assert cold is LPUnboundedError
        return
    before = solved.pivots
    solved.append(C[-1], M[-1])
    with checked_duals() as checked:
        resumed = _outcome(solved.optimize)
    assert len(checked) == solved.pivots - before
    if resumed is LPUnboundedError:
        assert cold is LPUnboundedError
        return
    value = sum(C[j] * row[-1] for j, row in zip(solved.basis, solved.inverse))
    assert Fraction(value, solved.d) == cold[0]
    assert solved.pi == _rebuilt_duals(solved)


class TestStartBasis:
    A = [[F(1), F(2), F(0)], [F(2), F(4), F(1)]]
    c = [F(1), F(1), F(1)]

    @pytest.mark.parametrize("solver", [linear_min, reference_linear_min])
    @pytest.mark.parametrize(
        "start, b",
        [
            ([0, 1], [F(1), F(2)]),  # column 1 is twice column 0 on the rows left
            ([0, 0], [F(1), F(2)]),  # a column named twice
            ([0, 2], [F(1), F(1)]),  # x_0 = 1, x_2 = -1
            ([2], [F(1), F(2)]),  # one column for two rows
            ([0, 3], [F(1), F(2)]),  # no column 3
        ],
        ids=["singular", "repeated", "infeasible", "short", "out-of-range"],
    )
    def test_raises_value_error(self, solver, start, b):
        with pytest.raises(ValueError):
            solver(self.c, self.A, b, start=start)

    def test_feasible_start_pivots_on_to_the_optimum(self):
        # The start x_0 = 1, x_2 = 0 is a degenerate basis of value 1; phase 2
        # brings column 1 in, at x_1 = 1/2.
        with recorded_pivots() as pivots:
            value, solution = linear_min(self.c, self.A, [F(1), F(2)], start=[0, 2])
        assert value == Fraction(1, 2) and solution == [F(0), Fraction(1, 2), F(0)]
        assert [col for _, col in pivots] == [0, 2, 1]


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
    # 81-column closure LPs, which take 5 pivots from the chain start and
    # dozens when the reference solves them cold.
    f = expand_to_table(instance_from_json(document))
    rng = random.Random(4)
    points = [random_box_point(4, f.alpha, rng) for _ in range(2)]
    results = [convex_closure(f, x) for x in points]
    # Each patched-in solver counts its calls, so a closure that stopped
    # calling `oracles.linear_min` could not pass unnoticed.
    calls = []

    def started(c, A, b, start):
        calls.append(start)
        return reference_linear_min(c, A, b, start=start)

    monkeypatch.setattr(oracles, "linear_min", started)
    assert results == [convex_closure(f, x) for x in points]
    assert len(calls) == len(points)

    # The chain start does not move the optimum: the reference solving cold
    # reaches the same value.
    def cold(c, A, b, start):
        calls.append(None)
        return reference_linear_min(c, A, b)

    monkeypatch.setattr(oracles, "linear_min", cold)
    assert [r.value for r in results] == [convex_closure(f, x).value for x in points]
    assert len(calls) == 2 * len(points)


#: ALPHA_GRID and the master-LP tests' alphas below: six skew parameters.
_CLOSURE_ALPHAS = tuple(
    Fraction(*v) for v in ((1, 4), (2, 7), (1, 3), (1, 2), (3, 4), (1, 1))
)


@pytest.mark.parametrize("alpha", _CLOSURE_ALPHAS, ids=str)
@pytest.mark.parametrize("n", range(1, 6))
def test_closure_pivots_match_the_reference_on_random_tables(n, alpha, monkeypatch):
    # Random tables are seldom skew bisubmodular, so Bland's pivots run on
    # from the chain start.  From that same start the reference must take
    # the same (row, column) pivots to the same value and distribution.
    rng = random.Random(100 * n + 10 * alpha.numerator + alpha.denominator)
    box = Alpha(alpha)
    f = TableFunction(
        n,
        box,
        {u: Fraction(rng.randint(-10, 10), rng.choice((1, 2, 3))) for u in all_labelings(n)},
    )
    points = [random_box_point(n, box, rng) for _ in range(2)]
    # A vertex, and a point with tied and zero coordinates: degenerate bases.
    vertex = rng.choice(list(all_labelings(n)))
    points.append(FractionalPoint(numeric(vertex, box), box))
    half = Fraction(1, 2)
    tied = (half, half, _ZERO, -alpha * half, -alpha * half)
    points.append(FractionalPoint(tied[:n], box))
    runs = []
    for x in points:
        with recorded_pivots() as pivots:
            runs.append((convex_closure(f, x), pivots))
    if n > 1:
        # A one-coordinate table is often convex; past n = 1 these draws are
        # not, and some point pivots on past the n + 1 start columns.
        assert any(len(pivots) > n + 1 for _, pivots in runs)
    for x, run in zip(points, runs):
        pivots = []
        monkeypatch.setattr(
            oracles, "linear_min", functools.partial(reference_linear_min, pivots=pivots)
        )
        assert (convex_closure(f, x), pivots) == run


@st.composite
def _closure_cases(draw):
    """(f, x): a random table that is not skew bisubmodular and a box point.

    Each coordinate of x is a box vertex coordinate (-alpha or 1), zero, or
    a random multiple of 1/12, so vertices, faces and ties are common.
    """
    n = draw(st.integers(1, 4))
    alpha = Alpha(draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), _ONE))))
    value = st.builds(Fraction, st.integers(-10, 10), st.sampled_from((1, 2, 3)))
    f = TableFunction(n, alpha, {u: draw(value) for u in all_labelings(n)})
    assume(check_alpha_bisubmodular(f) is not None)
    a = alpha.value
    coordinate = st.one_of(
        st.sampled_from((-a, _ZERO, _ONE)),
        st.integers(-int(12 * a), 12).map(lambda k: Fraction(k, 12)),
    )
    return f, FractionalPoint(tuple(draw(coordinate) for _ in range(n)), alpha)


@settings(max_examples=200, deadline=None)
@given(_closure_cases())
def test_lattice_pricing_pivots_as_per_column_pricing(case):
    # The closure LP's columns priced in closed form (`LatticeRows`) and the
    # same matrix priced one dot product per column (a plain list of its
    # rows) reach the same value and solution by the same (row, column)
    # pivots.
    f, x = case
    programs = []

    def capturing(c, A, b, start):
        programs.append((c, A, b, start))
        return linear_min(c, A, b, start)

    with mock.patch.object(oracles, "linear_min", capturing):
        convex_closure(f, x)
    (c, A, b, start), = programs
    assert isinstance(A, simplex.LatticeRows)
    plain = list(A)
    step = simplex._LatticeProgram._step
    with mock.patch.object(
        simplex._LatticeProgram, "_step", autospec=True, side_effect=step
    ) as lattice_steps:
        lattice = _integer_run(c, A, b, start)
        assert lattice_steps.call_count > 0
        lattice_steps.reset_mock()
        assert _integer_run(c, plain, b, start) == lattice
        assert lattice_steps.call_count == 0


def test_a_lattice_with_a_fractional_right_hand_side_is_solved_densely():
    # Rows scaled to integers are no longer the lattice's, so `linear_min`
    # prices them one column at a time; scaling b by 12 keeps the lattice and
    # its closed-form pricing and scales the optimum by 12.  The start is
    # the chain basis through x = (1/3, -1/4) at alpha = 1/2.
    A = simplex.LatticeRows(2, 1, 2)
    c = [-2, 1, 4, 3, -1, 3, 0, 0, -1]
    start = [4, 3, 6]
    step = simplex._LatticeProgram._step
    with mock.patch.object(
        simplex._LatticeProgram, "_step", autospec=True, side_effect=step
    ) as lattice_steps:
        value, solution = linear_min(c, A, [_ONE, Fraction(2, 3), Fraction(-1, 2)], start)
        assert lattice_steps.call_count == 0
        scaled_value, scaled_solution = linear_min(c, A, [12, 8, -6], start)
        assert lattice_steps.call_count > 0
    assert value == scaled_value / 12 == Fraction(-19, 18)
    assert solution == [v / 12 for v in scaled_solution]


@pytest.mark.parametrize(
    "document",
    [
        doc
        for doc in _GOLDEN["instances"]
        if doc["n"] == 4
        and check_alpha_bisubmodular(expand_to_table(instance_from_json(doc))) is None
    ],
    ids=lambda doc: f"{doc['format']}-alpha{doc['alpha']}",
)
def test_closure_lp_stops_at_the_chain_basis(document):
    # On a skew bisubmodular f the chain basis through x is optimal: the n + 1
    # start pivots are all, and the distribution is the chain decomposition.
    f = expand_to_table(instance_from_json(document))
    rng = random.Random(5)
    points = [random_box_point(4, f.alpha, rng) for _ in range(6)]
    # A vertex and a point with tied and zero coordinates: degenerate bases.
    points.append(FractionalPoint(numeric(parse_labeling("+-0+"), f.alpha), f.alpha))
    half = Fraction(1, 2)
    points.append(FractionalPoint((half, half, _ZERO, -f.alpha.value * half), f.alpha))
    for x in points:
        with recorded_pivots() as pivots:
            result = convex_closure(f, x)
        assert len(pivots) == 4 + 1
        assert result.distribution == dict(decompose(x).atoms)
        assert result.value == extension_value(f, x)


_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2, 7))


@st.composite
def _cut_sequences(draw):
    """(n, alpha, cuts): a box [-alpha, 1]^n and a sequence of cuts g.

    Cuts are drawn from a pool of at most four integer or rational vectors
    plus the zero vector, so repeated cuts, zero cuts and ties in the ratio
    test are common.
    """
    n = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from(_ALPHAS))
    entries = st.one_of(st.integers(-3, 3).map(Fraction), _RATIONALS)
    pool = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    pool.append([_ZERO] * n)
    return n, alpha, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))


@settings(max_examples=150, deadline=None)
@given(_cut_sequences())
def test_warm_rows_reach_the_cold_optimum(case):
    # The master LP in dual form, resumed after each cut: its t* is the
    # optimum of the primal master solved afresh on the cuts so far, and its
    # y* lies in the box and attains it.
    n, alpha, cuts = case
    master = None
    for k, g in enumerate(cuts, start=1):
        master = add_cut(master, cut_column(g), alpha)
        pi, denominator = master.pi, alpha.denominator * master.d
        t_star = Fraction(-pi[n], denominator)
        assert t_star == linear_min(*master_program(alpha, cuts[:k]))[0]
        y = [Fraction(v, denominator) for v in pi[:n]]
        assert all(-alpha <= v <= 1 for v in y)
        assert max(sum(a * v for a, v in zip(h, y)) for h in cuts[:k]) == t_star


@settings(max_examples=150, deadline=None)
@given(_cut_sequences())
def test_carried_duals_on_master_cuts(case):
    # The primal master solved afresh on each prefix of the cuts, and the
    # dual master resumed after each cut: every pivot carries pi = C_B R.
    n, alpha, cuts = case
    master = None
    with checked_duals() as checked:
        for k, g in enumerate(cuts, start=1):
            linear_min(*master_program(alpha, cuts[:k]))
            master = add_cut(master, cut_column(g), alpha)
            assert master.pi == _rebuilt_duals(master)
    assert len(checked) >= master.pivots


def _basic_solution(program):
    """Each basic column's value in the program's basic solution."""
    return {j: Fraction(row[-1], program.d) for j, row in zip(program.basis, program.inverse)}


@settings(max_examples=150, deadline=None)
@given(_cut_sequences())
def test_a_program_started_at_a_warm_basis_makes_no_pivot(case):
    # The master's final basis, unit pairs and cuts in the order `basis`
    # lists them, starts a fresh program on the same columns: the unit pairs
    # go to their own rows and the cuts are pivoted in, so the rows may
    # come in another order, but the vertex is the master's optimum.
    n, alpha, cuts = case
    master = None
    for g in cuts:
        master = add_cut(master, cut_column(g), alpha)
    started = simplex._Program(
        master.costs[:], master.columns[:], [0] * n + [1], master.basis, n
    ).optimize()
    assert started.pivots == 0
    assert (started.d, started.pi) == (master.d, master.pi)
    assert _basic_solution(started) == _basic_solution(master)


class TestUnitPairStart:
    """The start of a one-pair master, cut column (3, 1): u_0, v_0, lambda_1."""

    costs = [1, 2, 0]
    columns = [(3, 1)]

    @pytest.mark.parametrize("start", [[0, 1], [1, 0]], ids=str)
    def test_both_units_of_a_pair_are_dependent(self, start):
        with pytest.raises(ValueError, match="dependent"):
            simplex._Program(self.costs, self.columns[:], [0, 1], start, 1)

    def test_the_wrong_unit_is_infeasible(self):
        # lambda_1 = 1 needs u_0 = 3; with v_0 basic instead, v_0 = -3.
        with pytest.raises(ValueError, match="infeasible"):
            simplex._Program(self.costs, self.columns[:], [0, 1], [1, 2], 1)


def _state(program):
    """Each basic column's row of [R | d B^-1 r], d and pi: the state up to row order."""
    return dict(zip(program.basis, program.inverse)), program.d, program.pi


@settings(max_examples=150, deadline=None)
@given(_cut_sequences())
def test_a_resumed_step_is_the_full_bland_step(case):
    # After each appended cut the master resumes from its optimum, where
    # every earlier column is known to price nonnegative, so its first step
    # prices the new column alone.  Each step of the resume leaves the state
    # that a full Bland pass leaves on a copy with nothing marked priced.
    n, alpha, cuts = case
    master = add_cut(None, cut_column(cuts[0]), alpha)
    assert master.priced == len(master.costs)
    for g in cuts[1:]:
        master.append(0, cut_column(g))
        assert master.priced == len(master.costs) - 1
        while True:
            full = simplex._Program(
                master.costs[:], master.columns[:], [0] * n + [1], master.basis, master.units
            )
            assert full.priced == 0 and full.pi == master.pi
            made = master._step()
            assert made == full._step()
            assert _state(master) == _state(full)
            if not made:
                break
            assert master.priced == 0
        assert master.priced == len(master.costs)


def test_a_minimize_run_carries_exact_duals():
    # A run with pivots in most rounds: every one of them is checked.
    f = generate_instance(12, ALPHA_GRID[1], num_terms=24, max_scope=2, seed=5)
    with checked_duals() as checked:
        report = minimize_module.minimize(f)
    assert report.certified
    assert len(checked) == report.lp_pivots > 12


class TestLinearMin:
    def test_two_variable_split(self):
        # min -x - y on the unit simplex: every vertex gives -1
        value, sol = linear_min([F(-1), F(-1)], [[F(1), F(1)]], [F(1)], start=[0])
        assert value == -1
        assert sum(sol) == 1
        assert all(v >= 0 for v in sol)

    def test_prefers_cheaper_vertex(self):
        value, sol = linear_min([F(3), F(1)], [[F(1), F(1)]], [F(1)], start=[0])
        assert value == 1
        assert sol == [F(0), F(1)]

    def test_three_variables_two_constraints(self):
        # min 2x + 3y + z  s.t.  x + y + z = 1, x - y = 0:
        # x = y = t, z = 1 - 2t, objective 1 + 3t minimized at t = 0;
        # the start is t = 1/2
        value, sol = linear_min(
            [F(2), F(3), F(1)],
            [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]],
            [F(1), F(0)],
            start=[0, 1],
        )
        assert value == 1
        assert sol == [F(0), F(0), F(1)]

    def test_fractional_optimum(self):
        # min -x  s.t.  2x + y = 1 (y >= 0 keeps x <= 1/2), from x = 0
        value, sol = linear_min([F(-1), F(0)], [[F(2), F(1)]], [F(1)], start=[1])
        assert value == Fraction(-1, 2)
        assert sol == [Fraction(1, 2), F(0)]

    def test_negative_rhs_rows(self):
        # -x - y = -1: the start pivot is on a negative entry
        value, sol = linear_min([F(1), F(2)], [[F(-1), F(-1)]], [F(-1)], start=[1])
        assert value == 1
        assert sol == [F(1), F(0)]

    def test_unbounded(self):
        # x is in no constraint, and the objective pushes it up
        with pytest.raises(LPUnboundedError):
            linear_min([F(-1), F(0)], [[F(0), F(1)]], [F(0)], start=[1])

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            linear_min([F(1)], [[F(1), F(1)]], [F(1)], start=[0])

    def test_degenerate_does_not_cycle(self):
        # a classic degenerate corner; Bland's rule must terminate
        value, _ = linear_min(
            [F(-3), F(1), F(0), F(0)],
            [
                [F(1), F(1), F(1), F(0)],
                [F(1), F(-1), F(0), F(1)],
            ],
            [F(1), F(1)],
            start=[2, 3],
        )
        assert value == -3

    def test_exactness_with_awkward_rationals(self):
        # coefficients chosen so floating point would drift
        value, sol = linear_min(
            [Fraction(1, 3), Fraction(1, 7)],
            [[Fraction(2, 3), Fraction(5, 7)]],
            [Fraction(1, 21)],
            start=[0],
        )
        # cost per unit of constraint: (1/3)/(2/3) = 1/2 vs (1/7)/(5/7) = 1/5
        assert sol == [F(0), Fraction(1, 15)]
        assert value == Fraction(1, 105)
