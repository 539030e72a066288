"""The generator against the algorithm it replaced.

`generate_instance` draws a table's values with `functions._randints`,
which spells out CPython's `randint` on `getrandbits`, and rejects a draw
at the first failing pair of `functions._pair_tests`, the pairs a <lex b
that can fail.  The reference below draws with `rng.randint` and scans all
9^k ordered pairs, as the generator once did.  Both must give the same
instances, byte for byte, and the pair tuple must accept exactly what the
full scan and the checker accept.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    POS,
    SumFunction,
    TableFunction,
    Term,
    ZERO,
    all_labelings,
    check_alpha_bisubmodular,
    expand_to_table,
    generate_instance,
    instance_to_json,
    join,
    meet0,
    numeric,
)
from skewbisub.functions import _VALUE_RANGE, _accepts, _pair_tests, _randints
from conftest import boundary_shift

_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 7), Fraction(5, 9)]


def _all_ordered_pairs(k):
    """(a, b, meet0, join0, join1) as lex indices, for all 9^k ordered pairs."""
    labelings = list(all_labelings(k))
    index = {u: i for i, u in enumerate(labelings)}
    return [
        (index[a], index[b], index[meet0(a, b)], index[join(a, b, ZERO)], index[join(a, b, POS)])
        for a in labelings
        for b in labelings
    ]


def _full_scan_accepts(values, pairs, p, q):
    for a, b, m, j0, j1 in pairs:
        if q * values[m] + p * values[j0] + (q - p) * values[j1] > q * (values[a] + values[b]):
            return False
    return True


def reference_generate(n, alpha, num_terms, max_scope, seed):
    """The generator as it was: `randint` draws and the all-ordered-pairs scan."""
    lo, hi = _VALUE_RANGE
    rng = random.Random(seed)
    p, q = alpha.value.numerator, alpha.value.denominator
    terms = []
    for _ in range(num_terms):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(sorted(rng.sample(range(n), k)))
        pairs = _all_ordered_pairs(k)
        while True:
            values = [rng.randint(lo, hi) for _ in range(3**k)]
            if _full_scan_accepts(values, pairs, p, q):
                break
        table = TableFunction(k, alpha, {u: Fraction(v) for u, v in zip(all_labelings(k), values)})
        terms.append(Term(scope, table))
    return SumFunction(n, alpha, terms)


@pytest.mark.parametrize("max_scope", [1, 2])
@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
def test_generator_matches_the_randint_full_scan_reference(alpha, max_scope):
    # Two terms, so the second term's scope and table are drawn from the
    # stream the first term's rejections left.
    alpha = Alpha(alpha)
    for seed in range(50):
        for n in range(1, 9):
            args = (n, alpha, 2, max_scope, seed)
            assert json.dumps(instance_to_json(generate_instance(*args))) == json.dumps(
                instance_to_json(reference_generate(*args))
            ), args


def test_randints_is_randint():
    drawn, reference = random.Random(2013), random.Random(2013)
    assert _randints(drawn, -10, 10, 10**5) == [reference.randint(-10, 10) for _ in range(10**5)]
    # The same words were consumed, so the streams go on alike.
    assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("lo, hi", [(0, 0), (-1, 0), (1, 2), (-10, 10), (-16, 15), (5, 2**40)])
def test_randints_is_randint_on_other_ranges(lo, hi):
    drawn, reference = random.Random(7), random.Random(7)
    for count in (1, 3, 9):
        assert _randints(drawn, lo, hi, count) == [reference.randint(lo, hi) for _ in range(count)]
        assert drawn.getstate() == reference.getstate()


def _verdicts(values, k, alpha):
    """(pair tuple, full scan, checker) acceptance of an integer table."""
    p, q = alpha.numerator, alpha.denominator
    table = TableFunction(k, Alpha(alpha), dict(zip(all_labelings(k), values)))
    return (
        _accepts(values, _pair_tests(k, p, q), p, q),
        _full_scan_accepts(values, _all_ordered_pairs(k), p, q),
        check_alpha_bisubmodular(table) is None,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from(_ALPHAS),
            st.lists(st.integers(-10, 10), min_size=3**k, max_size=3**k),
        )
    )
)
def test_pair_tuple_accepts_what_the_full_scan_accepts(case):
    k, alpha, values = case
    verdict = _verdicts(values, k, alpha)
    assert verdict in ((True, True, True), (False, False, False))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2),
    st.sampled_from(_ALPHAS),
    st.integers(0, 10**6),
    st.data(),
)
def test_boundary_tables_are_accepted_with_equality(k, alpha, seed, data):
    # An accepted generated table with one entry moved to its boundary: at
    # the boundary some pair holds with equality and the table is accepted,
    # one step further it is rejected.  The table is scaled first so that
    # the boundary is an integer step.
    g = expand_to_table(generate_instance(k, Alpha(alpha), num_terms=2, max_scope=k, seed=seed))
    base = {u: g[u] for u in all_labelings(k)}
    u = data.draw(st.sampled_from(list(base)))
    sign = data.draw(st.sampled_from((1, -1)))
    t = boundary_shift(base, k, alpha, u, sign)
    if t is None:
        return
    scale = t.denominator
    values = [int(scale * base[v]) for v in all_labelings(k)]
    position = list(all_labelings(k)).index(u)
    values[position] += sign * int(scale * t)
    assert _verdicts(values, k, alpha) == (True, True, True)
    values[position] += sign
    assert _verdicts(values, k, alpha) == (False, False, False)


@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
def test_linear_tables_hold_with_equality_everywhere(k, alpha):
    # f(u) = c + sum_j c_j q numeric(u_j) is integer and meets every pair's
    # inequality with equality.
    q = alpha.denominator
    rng = random.Random(k)
    for _ in range(20):
        c = rng.randint(-10, 10)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        values = [
            c + sum(int(cj * q * x) for cj, x in zip(coeffs, numeric(u, Alpha(alpha))))
            for u in all_labelings(k)
        ]
        assert _verdicts(values, k, alpha) == (True, True, True)
