"""Brute force, the closure LP, and the midpoint probe against each other,
and every exhaustive operation's refusal at its limit."""

import random
from fractions import Fraction

import pytest

from skewbisub import (
    Alpha,
    CapExceededError,
    FractionalPoint,
    TableFunction,
    all_labelings,
    brute_force_min,
    check_alpha_bisubmodular,
    convex_closure,
    expand_to_table,
    extension_value,
    format_labeling,
    generate_instance,
    instance_from_json,
    instance_to_json,
    midpoint_convexity_probe,
    minimize,
    numeric,
    random_box_point,
)
from skewbisub.cli import _closure_mismatch
from conftest import ALPHA_GRID, recorded_pivots


class TestBruteForce:
    def test_constant_ties_go_lexicographically_first(self, alpha_half):
        f = TableFunction(3, alpha_half, {u: Fraction(2) for u in all_labelings(3)})
        labeling, value = brute_force_min(f)
        assert format_labeling(labeling) == "---"
        assert value == 2

    def test_linear_all_ones(self, alpha_half):
        n = 3
        f = TableFunction(
            n, alpha_half, {a: sum(numeric(a, alpha_half)) for a in all_labelings(n)}
        )
        labeling, value = brute_force_min(f)
        assert format_labeling(labeling) == "-" * n
        assert value == Fraction(-n, 2)

    def test_matches_table_scan(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=44)
        )
        _, value = brute_force_min(f)
        assert value == min(f[a] for a in all_labelings(3))

    def test_matches_extension_at_vertices(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=2, max_scope=2, seed=45)
        )
        _, value = brute_force_min(f)
        assert value == min(
            extension_value(f, FractionalPoint(numeric(a, alpha_half), alpha_half))
            for a in all_labelings(3)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ties_and_calls_on_every_kind_of_oracle(self, n):
        # Values in {-1, 0, 1} over mixed denominators tie often: the lex
        # first of the least labelings wins, for a table built from a
        # mapping, the same table loaded from its document and a sum, and
        # one scan reads each point once, 3^n counted calls.
        rng = random.Random(70 + n)
        alpha = ALPHA_GRID[n % 4]
        values = {u: Fraction(rng.randint(-1, 1), rng.choice((1, 3))) for u in all_labelings(n)}
        table = TableFunction(n, alpha, values)
        loaded = instance_from_json(instance_to_json(table))
        total = generate_instance(n, alpha, num_terms=n + 2, max_scope=2, seed=70 + n)
        for f in (table, loaded, total):
            expected = min(all_labelings(n), key=lambda u: f.numerator(u))
            before = f.call_count
            labeling, value = brute_force_min(f)
            assert f.call_count - before == 3**n
            assert labeling == expected
            assert value == Fraction(f.numerator(expected), f.denominator)


class TestConvexClosure:
    def test_constant(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(3, 2) for u in all_labelings(2)})
        rng = random.Random(1)
        for _ in range(5):
            x = random_box_point(2, alpha_half, rng)
            assert convex_closure(f, x).value == Fraction(3, 2)

    def test_distribution_is_valid(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=2, max_scope=2, seed=46)
        )
        rng = random.Random(2)
        for _ in range(10):
            x = random_box_point(3, alpha_half, rng)
            result = convex_closure(f, x)
            weights = result.distribution
            assert all(w > 0 for w in weights.values())
            assert sum(weights.values()) == 1
            marginals = [Fraction(0)] * 3
            for u, w in weights.items():
                for j, v in enumerate(numeric(u, alpha_half)):
                    marginals[j] += w * v
            assert tuple(marginals) == x.coords
            assert result.value == sum(w * f[u] for u, w in weights.items())

    def test_never_exceeds_extension(self):
        # the chain distribution is feasible for the LP, for any f at all
        rng = random.Random(3)
        alpha = Alpha(Fraction(1, 2))
        for _ in range(15):
            f = TableFunction(
                2, alpha, {u: Fraction(rng.randint(-10, 10)) for u in all_labelings(2)}
            )
            x = random_box_point(2, alpha, rng)
            assert convex_closure(f, x).value <= extension_value(f, x)

    @pytest.mark.parametrize("alpha", ALPHA_GRID, ids=str)
    def test_equals_extension_on_accepted(self, alpha):
        f = expand_to_table(generate_instance(3, alpha, num_terms=3, max_scope=2, seed=47))
        assert check_alpha_bisubmodular(f) is None
        rng = random.Random(4)
        for _ in range(8):
            x = random_box_point(3, alpha, rng)
            assert convex_closure(f, x).value == extension_value(f, x)

    def test_strictly_below_extension_somewhere_for_rejected(self):
        # for a non-skew-bisubmodular f the LP dips under the extension at
        # the witness midpoint: a column prices out negative at the chain
        # basis, and Bland's pivots run on past its n + 1 start pivots
        alpha = Alpha(Fraction(1, 2))
        f = TableFunction(1, alpha, {"-": 0, "0": 1, "+": 0})
        witness = check_alpha_bisubmodular(f)
        assert witness is not None
        mid = FractionalPoint(
            tuple(
                (p + q) / 2
                for p, q in zip(numeric(witness.a, alpha), numeric(witness.b, alpha))
            ),
            alpha,
        )
        with recorded_pivots() as pivots:
            value = convex_closure(f, mid).value
        assert len(pivots) > 1 + 1
        assert value < extension_value(f, mid)

    def test_vertex_inputs(self, alpha_half):
        f = expand_to_table(
            generate_instance(2, alpha_half, num_terms=2, max_scope=2, seed=48)
        )
        for a in all_labelings(2):
            x = FractionalPoint(numeric(a, alpha_half), alpha_half)
            result = convex_closure(f, x)
            assert result.value <= f[a]
            assert result.value == extension_value(f, x) == f[a]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_calls_per_solve(self, n):
        # The paper's cost model counts oracle calls.  One closure LP prices
        # every point, so it evaluates f exactly 3^n times, whether the
        # chain start is optimal (a generated f) or Bland's pivots run on
        # from it (a random table), and whether f is a table built from a
        # mapping, a loaded table or a sum.
        rng = random.Random(60 + n)
        alpha = ALPHA_GRID[n % 4]
        skew = expand_to_table(
            generate_instance(n, alpha, num_terms=n, max_scope=2, seed=60 + n)
        )
        rough = TableFunction(
            n, alpha, {u: Fraction(rng.randint(-10, 10)) for u in all_labelings(n)}
        )
        total = generate_instance(n, alpha, num_terms=n, max_scope=2, seed=60 + n)
        loaded = instance_from_json(instance_to_json(rough))
        for f in (skew, rough, total, loaded):
            for _ in range(3):
                x = random_box_point(n, alpha, rng)
                before = f.call_count
                convex_closure(f, x)
                assert f.call_count - before == 3**n


class TestMidpointProbe:
    def test_accepted_instance_clean(self, alpha_half):
        f = expand_to_table(
            generate_instance(2, alpha_half, num_terms=2, max_scope=2, seed=49)
        )
        assert midpoint_convexity_probe(f, trials=200, seed=0) is None

    def test_zero_trials(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
        assert midpoint_convexity_probe(f, trials=0, seed=0) is None

    def test_finds_violation_on_spike(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
        hit = midpoint_convexity_probe(f, trials=2000, seed=0)
        assert hit is not None
        x, y, gap = hit
        assert gap > 0

    def test_reproducible(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
        assert midpoint_convexity_probe(f, 2000, 7) == midpoint_convexity_probe(f, 2000, 7)


class TestRandomBoxPoint:
    @pytest.mark.parametrize("alpha", ALPHA_GRID, ids=str)
    def test_stays_in_box(self, alpha):
        rng = random.Random(5)
        for _ in range(200):
            x = random_box_point(4, alpha, rng)
            assert all(-alpha.value <= c <= 1 for c in x.coords)


@pytest.mark.parametrize(
    "operation, arity, message",
    [
        (check_alpha_bisubmodular, 9, "3^9 points exceed the enumeration cap 6561"),
        (brute_force_min, 9, "3^9 points exceed the enumeration cap 6561"),
        (expand_to_table, 9, "3^9 points exceed the enumeration cap 6561"),
        (
            lambda f: convex_closure(f, FractionalPoint.zero(f.arity, f.alpha)),
            7,
            "3^7 LP variables exceed the cap 729",
        ),
        (
            lambda f: _closure_mismatch(f, 20, random.Random(0)),
            7,
            "3^7 LP variables exceed the cap 729",
        ),
        (minimize, 501, "arity 501 exceeds the minimize cap 500"),
    ],
    ids=["check", "brute_force", "expand_to_table", "convex_closure", "verify_closure", "minimize"],
)
def test_one_past_the_limit_is_refused_before_any_oracle_call(operation, arity, message):
    # Each limit is a module constant: 3^8 points (`DEFAULT_ENUM_CAP`), 3^6
    # closure LP columns (`DEFAULT_LP_CAP`) and 500 coordinates
    # (`DEFAULT_ARITY_CAP`); the arity is the least one past it.
    f = instance_from_json({
        "format": "sum", "n": arity, "alpha": "1/2",
        "terms": [{"scope": [0], "values": {"-": "1", "0": "0", "+": "2"}}],
    })
    with pytest.raises(CapExceededError) as raised:
        operation(f)
    assert str(raised.value) == message
    assert f.call_count == 0
