"""The packed-integer checker against a naive Fraction scan of all pairs.

`check_alpha_bisubmodular` reads the values as integers over one
denominator, packs them into one wide int per vector and tests all
b >=lex a of one a at once.  The reference below evaluates the inequality
in Fractions at every one of the 9^n ordered pairs, in lex order, and
returns the first violating one.  Both must agree on the witness, or on
None, for a table built from a mapping and for the same table loaded from
a JSON document.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    NEG,
    POS,
    TableFunction,
    ZERO,
    all_labelings,
    check_alpha_bisubmodular,
    expand_to_table,
    format_labeling,
    generate_instance,
    instance_from_json,
    numeric,
)
from skewbisub.rationals import format_rational
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


def _assert_checks_match(f, expected):
    """f's witness is `expected`, and each check reads f once: 3^n calls."""
    n = f.arity
    before = f.call_count
    witness = check_alpha_bisubmodular(f)
    assert f.call_count - before == 3**n
    if expected is None:
        assert witness is None
    else:
        assert witness is not None
        assert (witness.a, witness.b, witness.lhs, witness.rhs) == expected
    # A second check reads every value once more.
    check_alpha_bisubmodular(f)
    assert f.call_count - before == 2 * 3**n


def _loaded(texts, n, alpha):
    """The table document with the given value per labeling, loaded."""
    doc = {
        "format": "table",
        "n": n,
        "alpha": format_rational(alpha),
        "values": {format_labeling(u): texts[u] for u in all_labelings(n)},
    }
    return instance_from_json(json.loads(json.dumps(doc)))


def _assert_checker_matches(values, n, alpha):
    # The same table built from the mapping and loaded from its document.
    expected = _naive_witness(values, n, alpha)
    _assert_checks_match(TableFunction(n, Alpha(alpha), values), expected)
    texts = {u: format_rational(v) for u, v in values.items()}
    _assert_checks_match(_loaded(texts, n, alpha), expected)


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


@st.composite
def arity_four_tables(draw):
    # From n = 4 on, a has at least three prefix levels above its last digit.
    alpha = draw(st.sampled_from(_ALPHAS))
    seed = draw(st.integers(0, 10**6))
    g = expand_to_table(generate_instance(4, Alpha(alpha), num_terms=5, max_scope=2, seed=seed))
    values = {u: g[u] for u in all_labelings(4)}
    u = draw(st.sampled_from(list(values)))
    values[u] += draw(st.sampled_from((Fraction(0), Fraction(1, 7), Fraction(-1, 7), Fraction(3))))
    return values, 4, alpha


@settings(max_examples=20, deadline=None)
@given(arity_four_tables())
def test_arity_four_tables(case):
    _assert_checker_matches(*case)


@st.composite
def huge_rational_tables(draw):
    # A generated table times a huge rational, plus a linear term with huge
    # rational coefficients (which meets the inequality with equality at
    # every pair), with one entry then moved to its boundary or just past
    # it: numerators up to about 10^40 and denominators up to 10^9, so every
    # packed field is far wider than 64 bits.
    n = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(_ALPHAS))
    seed = draw(st.integers(0, 10**6))
    huge = st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**9)
    scale = abs(draw(huge)) + 1
    coeffs = [draw(huge) for _ in range(n)]
    g = expand_to_table(generate_instance(n, Alpha(alpha), num_terms=n + 1, max_scope=2, seed=seed))
    al = Alpha(alpha)
    values = {
        u: scale * g[u] + sum(c * x for c, x in zip(coeffs, numeric(u, al)))
        for u in all_labelings(n)
    }
    u = draw(st.sampled_from(list(values)))
    sign = draw(st.sampled_from((1, -1)))
    t = boundary_shift(values, n, alpha, u, sign)
    if t is not None:
        eps = draw(st.sampled_from((Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9))))
        values[u] += sign * max(t + eps, Fraction(0))
    return values, n, alpha


@settings(max_examples=60, deadline=None)
@given(huge_rational_tables())
def test_huge_rational_tables(case):
    _assert_checker_matches(*case)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(_ALPHAS),
    st.lists(
        st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**9),
        min_size=27,
        max_size=27,
    ),
)
def test_random_huge_rationals(n, alpha, entries):
    _assert_checker_matches(dict(zip(all_labelings(n), entries)), n, alpha)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.sampled_from(_ALPHAS),
    st.lists(st.sampled_from((-1, 0, 1)), min_size=27, max_size=27),
)
def test_fields_at_both_ends_of_their_range(n, alpha, signs):
    # Entries in {-M, 0, M}: a pair with M at its meet and joins and -M at
    # a and b has excess 4qM, the top of a field's range, and the reverse
    # pair -4qM, its bottom.
    big = Fraction(10**25, 3)
    _assert_checker_matches({u: big * s for u, s in zip(all_labelings(n), signs)}, n, alpha)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1)])
def test_all_zero_table(n, alpha):
    # M = 0: one-bit fields, and the checker must still accept.
    _assert_checker_matches({u: Fraction(0) for u in all_labelings(n)}, n, alpha)


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("value", [Fraction(7), Fraction(-7), Fraction(-(10**30), 3)])
def test_constant_tables(n, alpha, value):
    # Every field of a constant table sits at 0 or 2M; alpha = 1 puts zero
    # weight on join1.
    _assert_checker_matches({u: value for u in all_labelings(n)}, n, alpha)


def _single_violation(n, last, bump):
    # h(k) at every labeling with k nonzero labels, plus `bump` at u.  h is
    # nondecreasing and concave, so h(k) alone meets the inequality; its
    # steps are 3n, 3n - 3, ..., 6 and then 1.  u is '-...-0' (or '+...+0'
    # when `last`), the meet and the join0 of a = '-...--' and b = '-...-+'
    # (or '+...+-' and '+...++'), whose slack is 1 + alpha, the last step
    # times 1 + alpha; every other pair that u enters has slack at least 3,
    # with u at weight at most 1.  So a bump of 1 makes (a, b) an exact
    # equality, and a bump of 2 its only violation.  These are the
    # lex-first and the lex-last pairs with a <lex b at which the
    # inequality can fail: comparable pairs meet it with equality.
    side = POS if last else NEG
    u = (side,) * (n - 1) + (ZERO,)
    steps = [3 * (n - j) for j in range(n - 1)] + [1]
    values = {
        v: Fraction(sum(steps[: sum(label is not ZERO for label in v)]))
        for v in all_labelings(n)
    }
    values[u] += bump
    return values, u, (side,) * (n - 1) + (NEG,), (side,) * (n - 1) + (POS,)


def _violating_pairs(values, n, alpha):
    """Every violating pair (a, b) with a <lex b, in lex order."""
    labelings = list(all_labelings(n))
    pairs = []
    for i, a in enumerate(labelings):
        for b in labelings[i + 1 :]:
            lhs, rhs = pair_sides(values, alpha, a, b)
            if lhs > rhs:
                pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(3, 4), Fraction(1)])
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_only_violation_is_the_first_or_the_last_pair(n, alpha, last):
    values, _, a, b = _single_violation(n, last, 2)
    assert _violating_pairs(values, n, alpha) == [(a, b)]
    _assert_checker_matches(values, n, alpha)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1)])
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_equality_at_the_largest_magnitude_is_not_a_violation(n, alpha, last):
    # The same tables times 10^40 / 7, with the bump that makes the pair an
    # exact equality: its field lands one below the top bit.  1/(7 10^9)
    # more at u makes the pair the only violation.
    values, u, a, b = _single_violation(n, last, Fraction(1))
    values = {v: Fraction(10**40, 7) * x for v, x in values.items()}
    lhs, rhs = pair_sides(values, alpha, a, b)
    assert lhs == rhs
    assert _violating_pairs(values, n, alpha) == []
    _assert_checker_matches(values, n, alpha)
    values[u] += Fraction(1, 7 * 10**9)
    assert _violating_pairs(values, n, alpha) == [(a, b)]
    _assert_checker_matches(values, n, alpha)


@st.composite
def mixed_documents(draw):
    # Table documents as people write them: plain JSON ints, 'p/q' texts
    # over mixed and unreduced denominators, and a sign on either; at unit
    # scale or with every numerator times about 10^40, so the integer
    # numerators over the lcm are far wider than 64 bits.
    n = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from(_ALPHAS))
    scale = draw(st.sampled_from((1, 10**40 + 7)))
    texts = {}
    values = {}
    for u in all_labelings(n):
        num = draw(st.integers(-30, 30)) * scale
        den = draw(st.sampled_from((1, 1, 2, 3, 4, 6, 7, 12)))
        if den == 1 and draw(st.booleans()):
            texts[u] = num
        else:
            texts[u] = f"{'+' if num >= 0 and draw(st.booleans()) else ''}{num}/{den}"
        values[u] = Fraction(num, den)
    return texts, values, n, alpha


@settings(max_examples=80, deadline=None)
@given(mixed_documents())
def test_loaded_documents_with_mixed_values(case):
    texts, values, n, alpha = case
    _assert_checks_match(_loaded(texts, n, alpha), _naive_witness(values, n, alpha))


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_loaded_single_violations_at_every_alpha(alpha, last):
    # The tables of `_single_violation` at n = 3, times 10^40 / 7, written
    # with mixed denominators: the bump that makes (a, b) an exact
    # equality, then 1/(7 10^9) more, which makes it the only violation.
    n = 3
    values, u, a, b = _single_violation(n, last, Fraction(1))
    values = {v: Fraction(10**40, 7) * x for v, x in values.items()}
    for extra in (Fraction(0), Fraction(1, 7 * 10**9)):
        bumped = {**values, u: values[u] + extra}
        texts = {
            v: x.numerator if x.denominator == 1 else format_rational(x)
            for v, x in bumped.items()
        }
        expected = _naive_witness(bumped, n, alpha)
        assert expected is None if extra == 0 else expected[:2] == (a, b)
        _assert_checks_match(_loaded(texts, n, alpha), expected)
