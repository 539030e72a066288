"""The integer half-scan checker against a naive Fraction scan of all pairs.

`check_alpha_bisubmodular` scales the values to integers and visits only
the pairs with a <lex b.  The reference below evaluates the inequality in
Fractions at every one of the 9^n ordered pairs, in lex order, and returns
the first violating one.  Both must agree on the witness, or on None.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    TableFunction,
    all_labelings,
    check_alpha_bisubmodular,
    expand_to_table,
    generate_instance,
)
from conftest import boundary_shift, pair_sides

_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 7), Fraction(5, 9)]


def _naive_witness(values, n, alpha):
    """The first violating ordered pair of all 9^n, as (a, b, lhs, rhs), or None."""
    for a in all_labelings(n):
        for b in all_labelings(n):
            lhs, rhs = pair_sides(values, alpha, a, b)
            if lhs > rhs:
                return a, b, lhs, rhs
    return None


def _assert_checker_matches(values, n, alpha):
    f = TableFunction(n, Alpha(alpha), values)
    before = f.call_count
    witness = check_alpha_bisubmodular(f)
    assert f.call_count - before == 3**n
    expected = _naive_witness(values, n, alpha)
    if expected is None:
        assert witness is None
    else:
        assert witness is not None
        assert (witness.a, witness.b, witness.lhs, witness.rhs) == expected
    # A second check reads every value once more.
    check_alpha_bisubmodular(f)
    assert f.call_count - before == 2 * 3**n


@st.composite
def rational_tables(draw):
    n = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(_ALPHAS))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    values = {u: draw(entry) for u in all_labelings(n)}
    return values, n, alpha


@settings(max_examples=60, deadline=None)
@given(rational_tables())
def test_random_rational_tables(case):
    _assert_checker_matches(*case)


@st.composite
def nudged_tables(draw):
    # A valid generated table with one entry moved to its boundary, or just
    # short of it or just past it, where the scaled integer test must be
    # exact to agree with the Fraction scan.
    n = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(_ALPHAS))
    seed = draw(st.integers(0, 10**6))
    g = expand_to_table(generate_instance(n, Alpha(alpha), num_terms=n + 1, max_scope=2, seed=seed))
    values = {u: g[u] for u in all_labelings(n)}
    u = draw(st.sampled_from(list(values)))
    sign = draw(st.sampled_from((1, -1)))
    t = boundary_shift(values, n, alpha, u, sign)
    if t is not None:
        eps = draw(st.sampled_from((Fraction(0), Fraction(1, 997), Fraction(-1, 997))))
        values[u] += sign * max(t + eps, Fraction(0))
    return values, n, alpha


@settings(max_examples=60, deadline=None)
@given(nudged_tables())
def test_tables_nudged_to_the_boundary(case):
    _assert_checker_matches(*case)
