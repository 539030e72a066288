"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success; failures surface the line in the captured output).  All
comparisons are exact rational equality unless a criterion states a float
tolerance.
"""

import functools
import random
import statistics
from fractions import Fraction

import pytest

from skewbisub import (
    Alpha,
    FractionalPoint,
    POS,
    TableFunction,
    ZERO,
    all_labelings,
    brute_force_min,
    check_alpha_bisubmodular,
    convex_closure,
    decompose,
    expand_to_table,
    extension_value,
    generate_instance,
    join,
    meet0,
    midpoint_gap,
    minimize,
    numeric,
    random_box_point,
    subgradient,
)
from skewbisub.cli import random_chain_distribution
from conftest import (
    ALPHA_GRID,
    assert_valid_decomposition,
    compose_marginals,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
            return result

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# shared instance pools (module-scoped: generated once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_small():
    """50 generated instances with n <= 4, alpha sweeping the grid."""
    pool = []
    for k in range(50):
        n = 1 + k % 4
        alpha = ALPHA_GRID[k % 4]
        f = generate_instance(n, alpha, num_terms=max(1, n), max_scope=2, seed=9000 + k)
        pool.append(expand_to_table(f))
    return pool


@pytest.fixture(scope="module")
def pool_medium():
    """50 generated instances with n in 2..5 for subgradient checks."""
    pool = []
    for k in range(50):
        n = 2 + k % 4
        alpha = ALPHA_GRID[k % 4]
        f = generate_instance(n, alpha, num_terms=n, max_scope=2, seed=9100 + k)
        pool.append(expand_to_table(f))
    return pool


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


@pytest.fixture(scope="module")
def mixed_raw_tables():
    """Raw random tables, some accepted and some rejected by the checker."""
    rng = random.Random(424242)
    tables = []
    for k in range(60):
        n = 1 + k % 3
        alpha = ALPHA_GRID[k % 4]
        values = {u: Fraction(rng.randint(-10, 10)) for u in all_labelings(n)}
        tables.append(TableFunction(n, alpha, values))
    return tables


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion("1 decomposition-correctness")
def test_criterion_1_decomposition_correctness():
    rng = random.Random(101)
    for n in range(1, 9):
        for alpha in ALPHA_GRID:
            for _ in range(1000):
                x = random_box_point(n, alpha, rng)
                assert_valid_decomposition(x, decompose(x))


@criterion("2 uniqueness-roundtrip")
def test_criterion_2_uniqueness_roundtrip():
    rng = random.Random(202)
    for n in range(1, 9):
        for alpha in ALPHA_GRID:
            for _ in range(1000):
                chain, weights = random_chain_distribution(n, rng)
                x = compose_marginals(chain, weights, alpha)
                assert decompose(x).atoms == tuple(zip(chain, weights))


@criterion("3 lattice-identity")
def test_criterion_3_lattice_identity():
    for alpha in ALPHA_GRID:
        al = alpha.value
        for n in range(1, 5):
            for a in all_labelings(n):
                av = numeric(a, alpha)
                for b in all_labelings(n):
                    bv = numeric(b, alpha)
                    mv = numeric(meet0(a, b), alpha)
                    j0 = numeric(join(a, b, ZERO), alpha)
                    j1 = numeric(join(a, b, POS), alpha)
                    for m, x, y, p, q in zip(mv, j0, j1, av, bv):
                        assert m + al * x + (1 - al) * y == p + q


@criterion("4 extension-closure-equality")
def test_criterion_4_extension_closure_equality(pool_small):
    rng = random.Random(404)
    assert len(pool_small) >= 50
    for f in pool_small:
        for _ in range(20):
            x = random_box_point(f.arity, f.alpha, rng)
            assert convex_closure(f, x).value == extension_value(f, x)


@criterion("5 convexity-dichotomy")
def test_criterion_5_convexity_dichotomy(mixed_raw_tables):
    rejected = accepted = 0
    for f in mixed_raw_tables:
        witness = check_alpha_bisubmodular(f)
        if witness is not None:
            rejected += 1
            xa = FractionalPoint(numeric(witness.a, f.alpha), f.alpha)
            xb = FractionalPoint(numeric(witness.b, f.alpha), f.alpha)
            assert midpoint_gap(f, xa, xb) > 0
        else:
            accepted += 1
            rng = random.Random(505 + accepted)
            for _ in range(500):
                x = random_box_point(f.arity, f.alpha, rng)
                y = random_box_point(f.arity, f.alpha, rng)
                assert midpoint_gap(f, x, y) <= 0
    # the pool must exercise both branches
    assert rejected >= 10
    assert accepted >= 5


@criterion("6 minimization-optimality")
def test_criterion_6_minimization_optimality(pool_desk):
    assert len(pool_desk) == 100
    calls_per_run = []
    for f in pool_desk:
        report = minimize(f)
        _, best = brute_force_min(expand_to_table(f))
        assert report.certified, (f.arity, str(f.alpha))
        assert report.value == report.lower_bound == best, (f.arity, str(f.alpha))
        values = [v for _, v in report.trajectory_best]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0 < report.oracle_calls <= 3**f.arity + 1
        calls_per_run.append(report.oracle_calls)
    print(
        "  oracle calls per run: "
        f"min={min(calls_per_run)} median={int(statistics.median(calls_per_run))} "
        f"max={max(calls_per_run)}"
    )
    print(f"  all runs: {calls_per_run}")


@criterion("7 subgradient-validity")
def test_criterion_7_subgradient_validity(pool_medium):
    rng = random.Random(707)
    h = 1e-6
    fd_points_checked = 0
    for f in pool_medium:
        n, alpha = f.arity, f.alpha
        points = [random_box_point(n, alpha, rng) for _ in range(15)]
        points += [_qualifying_point(n, alpha, rng) for _ in range(5)]
        for x in points:
            g = subgradient(f, x)
            fx = extension_value(f, x)
            for _ in range(100):
                y = random_box_point(n, alpha, rng)
                bound = fx + sum(
                    gj * (yj - xj) for gj, yj, xj in zip(g, y.coords, x.coords)
                )
                assert extension_value(f, y) >= bound
            if _qualifies_for_fd(x):
                fd_points_checked += 1
                for j in range(n):
                    estimates = []
                    for sign in (+1, -1):
                        shifted = [float(c) for c in x.coords]
                        shifted[j] += sign * h
                        pt = FractionalPoint(tuple(Fraction(v) for v in shifted), alpha)
                        estimates.append(float(extension_value(f, pt)))
                    fd = (estimates[0] - estimates[1]) / (2 * h)
                    assert fd == pytest.approx(float(g[j]), rel=1e-6, abs=1e-6)
    assert fd_points_checked >= 5 * len(pool_medium)


def _qualifies_for_fd(x: FractionalPoint) -> bool:
    margin = Fraction(1, 128)
    if any(c == 0 for c in x.coords):
        return False
    mags = [c if c >= 0 else -c / x.alpha.value for c in x.coords]
    if len(set(mags)) != len(mags):
        return False
    if len(mags) > 1:
        gaps = [
            abs(a - b) for i, a in enumerate(mags) for b in mags[i + 1 :]
        ]
        if min(gaps) < margin:
            return False
    lo = -x.alpha.value
    return all(lo + margin <= c <= 1 - margin and abs(c) >= margin for c in x.coords)


def _qualifying_point(n, alpha, rng, attempts=10000):
    for _ in range(attempts):
        x = random_box_point(n, alpha, rng)
        if _qualifies_for_fd(x):
            return x
    raise AssertionError("could not sample a finite-difference-friendly point")


@criterion("8 extension-property-and-minimum-preservation")
def test_criterion_8_extension_property_minimum_preservation():
    rng = random.Random(808)
    for n in range(1, 6):
        alpha = ALPHA_GRID[n % 4]
        f = expand_to_table(
            generate_instance(n, alpha, num_terms=n, max_scope=2, seed=9500 + n)
        )
        for a in all_labelings(n):
            vertex = FractionalPoint(numeric(a, alpha), alpha)
            assert extension_value(f, vertex) == f[a]
        minimizer, best = brute_force_min(f)
        for _ in range(200):
            x = random_box_point(n, alpha, rng)
            assert extension_value(f, x) >= best
        vertex = FractionalPoint(numeric(minimizer, alpha), alpha)
        assert extension_value(f, vertex) == best
