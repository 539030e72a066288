"""Chain decomposition, extension values, and subgradients."""

import random
from fractions import Fraction

import pytest

from skewbisub import (
    Alpha,
    FractionalPoint,
    NEG,
    POS,
    TableFunction,
    ZERO,
    all_labelings,
    check_alpha_bisubmodular,
    decompose,
    expand_to_table,
    extension_value,
    format_labeling,
    generate_instance,
    join,
    leq,
    meet0,
    midpoint,
    midpoint_gap,
    numeric,
    parse_labeling,
    random_box_point,
    subgradient,
)
from skewbisub.cli import random_chain_distribution
from conftest import (
    ALPHA_GRID,
    assert_valid_decomposition,
    compose_marginals,
)


class TestDecompose:
    def test_worked_example(self):
        # alpha = 1/2 at (3/5, -1/5): peel "+-" while both signs live, then
        # "+0", then the leftover mass on all-Zero
        al = Alpha(Fraction(1, 2))
        x = FractionalPoint((Fraction(3, 5), Fraction(-1, 5)), al)
        cd = decompose(x)
        assert [(format_labeling(u), w) for u, w in cd.atoms] == [
            ("+-", Fraction(2, 5)),
            ("+0", Fraction(1, 5)),
            ("00", Fraction(2, 5)),
        ]
        # marginal identity re-check: (2/5)(1,-1/2) + (1/5)(1,0) = (3/5,-1/5)
        assert_valid_decomposition(x, cd)

    def test_worked_example_alpha_one(self):
        al = Alpha(Fraction(1))
        x = FractionalPoint((Fraction(1, 2), Fraction(-1, 2)), al)
        cd = decompose(x)
        assert [(format_labeling(u), w) for u, w in cd.atoms] == [
            ("+-", Fraction(1, 2)),
            ("00", Fraction(1, 2)),
        ]

    @pytest.mark.parametrize("alpha", ALPHA_GRID, ids=str)
    def test_vertices_are_single_atoms(self, alpha):
        for a in all_labelings(2):
            x = FractionalPoint(numeric(a, alpha), alpha)
            assert decompose(x).atoms == ((a, Fraction(1)),)

    def test_zero_vector(self, alpha_half):
        cd = decompose(FractionalPoint.zero(4, alpha_half))
        assert cd.atoms == (((ZERO,) * 4, Fraction(1)),)

    def test_outside_box_rejected(self, alpha_half):
        with pytest.raises(ValueError, match="coordinate 1"):
            FractionalPoint((Fraction(0), Fraction(-3, 4)), alpha_half)
        with pytest.raises(ValueError, match="coordinate 0"):
            FractionalPoint((Fraction(5, 4),), alpha_half)
        # Floats, decimal strings and booleans are not exact rationals.
        for bad in (0.1, 0.5, "0.5", "1e-1", True):
            with pytest.raises(ValueError, match="coordinate 1"):
                FractionalPoint((Fraction(0), bad), alpha_half)

    def test_random_invariants(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 7)
            alpha = ALPHA_GRID[rng.randrange(4)]
            x = random_box_point(n, alpha, rng)
            assert_valid_decomposition(x, decompose(x))

    def test_roundtrip_uniqueness(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 7)
            alpha = ALPHA_GRID[rng.randrange(4)]
            chain, weights = random_chain_distribution(n, rng)
            x = compose_marginals(chain, weights, alpha)
            assert decompose(x).atoms == tuple(zip(chain, weights))

    def test_json_shape(self, alpha_half):
        x = FractionalPoint((Fraction(3, 5), Fraction(-1, 5)), alpha_half)
        assert decompose(x).to_json() == {
            "atoms": [
                {"u": "+-", "w": "2/5"},
                {"u": "+0", "w": "1/5"},
                {"u": "00", "w": "2/5"},
            ]
        }


class TestExtension:
    def test_extension_property(self, alpha_half):
        f = TableFunction(
            2, alpha_half, {u: Fraction(i, 3) for i, u in enumerate(all_labelings(2))}
        )
        for a in all_labelings(2):
            x = FractionalPoint(numeric(a, alpha_half), alpha_half)
            assert extension_value(f, x) == f[a]

    def test_constant(self, alpha_half):
        f = TableFunction(3, alpha_half, {u: Fraction(9, 7) for u in all_labelings(3)})
        rng = random.Random(1)
        for _ in range(20):
            x = random_box_point(3, alpha_half, rng)
            assert extension_value(f, x) == Fraction(9, 7)

    def test_oracle_call_budget(self, alpha_half):
        f = TableFunction(3, alpha_half, {u: 0 for u in all_labelings(3)})
        rng = random.Random(2)
        for _ in range(20):
            x = random_box_point(3, alpha_half, rng)
            before = f.call_count
            extension_value(f, x)
            assert f.call_count - before <= 4  # n + 1

    @pytest.mark.parametrize("alpha", ALPHA_GRID, ids=str)
    def test_huge_values_match_the_fraction_expectation(self, alpha):
        # Values of order 10^400 over mixed denominators, far past the float
        # range: the integer sum over the chain, made one Fraction, is the
        # expectation of f in Fractions over the decomposition's atoms.
        rng = random.Random(5)
        f = TableFunction(
            3,
            alpha,
            {
                u: Fraction(rng.randint(-(10**400), 10**400), rng.choice((1, 3, 7, 10**9 + 7)))
                for u in all_labelings(3)
            },
        )
        half = Fraction(1, 2)
        points = [random_box_point(3, alpha, rng) for _ in range(10)]
        points.append(FractionalPoint((half, -alpha.value * half, Fraction(0)), alpha))
        points.append(FractionalPoint((Fraction(1), -alpha.value, Fraction(0)), alpha))
        for x in points:
            expected = sum((w * f[u] for u, w in decompose(x).atoms), start=Fraction(0))
            assert extension_value(f, x) == expected

    @pytest.mark.parametrize("alpha", ALPHA_GRID, ids=str)
    def test_midpoint_of_incomparable_pair(self, alpha):
        # at the midpoint of an incomparable pair the chain distribution puts
        # weight 1/2 on the meet and alpha/2, (1-alpha)/2 on the joins
        rng = random.Random(3)
        f = TableFunction(
            3, alpha, {u: Fraction(rng.randint(-9, 9)) for u in all_labelings(3)}
        )
        pairs_checked = 0
        for a in all_labelings(3):
            for b in all_labelings(3):
                if leq(a, b) or leq(b, a):
                    continue
                mid = midpoint(
                    FractionalPoint(numeric(a, alpha), alpha),
                    FractionalPoint(numeric(b, alpha), alpha),
                )
                expected = (
                    f[meet0(a, b)]
                    + alpha.value * f[join(a, b, ZERO)]
                    + (1 - alpha.value) * f[join(a, b, POS)]
                ) / 2
                assert extension_value(f, mid) == expected
                pairs_checked += 1
        assert pairs_checked > 0

    def test_minimum_preservation(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=21)
        )
        discrete_min = min(f[a] for a in all_labelings(3))
        rng = random.Random(4)
        for _ in range(50):
            x = random_box_point(3, alpha_half, rng)
            assert extension_value(f, x) >= discrete_min
        minimizer = min(all_labelings(3), key=lambda a: f[a])
        vertex = FractionalPoint(numeric(minimizer, alpha_half), alpha_half)
        assert extension_value(f, vertex) == discrete_min


class TestConvexityCertificates:
    def test_violation_witness_gives_positive_midpoint_gap(self):
        rng = random.Random(31)
        alpha = Alpha(Fraction(1, 2))
        found = 0
        while found < 15:
            f = TableFunction(
                2, alpha, {u: Fraction(rng.randint(-10, 10)) for u in all_labelings(2)}
            )
            witness = check_alpha_bisubmodular(f)
            if witness is None:
                continue
            found += 1
            xa = FractionalPoint(numeric(witness.a, alpha), alpha)
            xb = FractionalPoint(numeric(witness.b, alpha), alpha)
            assert midpoint_gap(f, xa, xb) > 0

    def test_midpoint_convexity_on_accepted(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=33)
        )
        rng = random.Random(5)
        for _ in range(100):
            x = random_box_point(3, alpha_half, rng)
            y = random_box_point(3, alpha_half, rng)
            assert midpoint_gap(f, x, y) <= 0


class TestSubgradient:
    def test_linear_function(self):
        alpha = Alpha(Fraction(1, 3))
        coeffs = (Fraction(2), Fraction(-5), Fraction(7, 2))
        f = TableFunction(
            3,
            alpha,
            {
                a: sum(c * v for c, v in zip(coeffs, numeric(a, alpha)))
                for a in all_labelings(3)
            },
        )
        rng = random.Random(6)
        for _ in range(30):
            x = random_box_point(3, alpha, rng)
            assert subgradient(f, x) == coeffs

    def test_constant_function(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(4) for u in all_labelings(2)})
        x = FractionalPoint((Fraction(1, 3), Fraction(-1, 8)), alpha_half)
        assert subgradient(f, x) == (Fraction(0), Fraction(0))

    def test_subgradient_inequality_exact(self):
        rng = random.Random(8)
        for k in range(10):
            n = 2 + k % 3
            alpha = ALPHA_GRID[k % 4]
            f = expand_to_table(
                generate_instance(n, alpha, num_terms=n, max_scope=2, seed=400 + k)
            )
            x = random_box_point(n, alpha, rng)
            g = subgradient(f, x)
            fx = extension_value(f, x)
            for _ in range(50):
                y = random_box_point(n, alpha, rng)
                bound = fx + sum(gj * (yj - xj) for gj, yj, xj in zip(g, y.coords, x.coords))
                assert extension_value(f, y) >= bound

    def test_matches_finite_differences(self):
        # inside one linear cell, central differences of a float rendering
        # recover the subgradient to float accuracy
        rng = random.Random(9)
        h = 1e-6
        checked = 0
        while checked < 8:
            n = 3
            alpha = ALPHA_GRID[checked % 4]
            f = expand_to_table(
                generate_instance(n, alpha, num_terms=3, max_scope=2, seed=500 + checked)
            )
            x = random_box_point(n, alpha, rng)
            mags = [c if c >= 0 else -c / alpha.value for c in x.coords]
            if any(c == 0 for c in x.coords):
                continue
            if len(set(mags)) != n or min(
                abs(a - b) for i, a in enumerate(mags) for b in mags[i + 1 :]
            ) < Fraction(1, 128):
                continue
            if any(abs(c) < Fraction(1, 64) or c > Fraction(63, 64) for c in x.coords):
                continue
            if any(c < -alpha.value + Fraction(1, 64) for c in x.coords):
                continue
            checked += 1
            g = subgradient(f, x)
            for j in range(n):
                fs = []
                for sign in (+1, -1):
                    shifted = [float(c) for c in x.coords]
                    shifted[j] += sign * h
                    pt = FractionalPoint(
                        tuple(Fraction(v) for v in shifted), alpha
                    )
                    fs.append(float(extension_value(f, pt)))
                diff = (fs[0] - fs[1]) / (2 * h)
                assert diff == pytest.approx(float(g[j]), rel=1e-6, abs=1e-6)

    def test_defined_at_kinks(self, alpha_half):
        # zero coordinates take the Pos-side one-sided derivative; the
        # result must still be a subgradient
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=77)
        )
        x = FractionalPoint((Fraction(0), Fraction(1, 4), Fraction(0)), alpha_half)
        g = subgradient(f, x)
        fx = extension_value(f, x)
        rng = random.Random(10)
        for _ in range(100):
            y = random_box_point(3, alpha_half, rng)
            bound = fx + sum(gj * (yj - xj) for gj, yj, xj in zip(g, y.coords, x.coords))
            assert extension_value(f, y) >= bound


class TestExtensionOnArbitraryFunctions:
    def test_defined_without_bisubmodularity(self, alpha_half):
        # the decomposition needs no structure from f; the extension is
        # defined (and the extension property holds) for any table
        f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
        assert check_alpha_bisubmodular(f) is not None
        assert extension_value(f, FractionalPoint((Fraction(1, 2),), alpha_half)) == Fraction(1, 2)
        for a in all_labelings(1):
            x = FractionalPoint(numeric(a, alpha_half), alpha_half)
            assert extension_value(f, x) == f[a]
