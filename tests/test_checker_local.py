"""The checker's local test against its full pair scan.

`check_alpha_bisubmodular` accepts when every local pair
(`checker.local_pairs`: clash pairs and orthant squares) meets the
inequality, and scans all pairs only to name the witness of a table that
fails.  By the theorem in `checker` the two verdicts agree on every table;
here they are compared on random, perturbed and boundary-nudged tables up
to n = 6, where a table nudged to the boundary that the local pairs alone
draw would pass the local test and fail the scan if the local set missed a
pair.
"""

import math
from fractions import Fraction
from itertools import combinations

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
    generate_instance,
    join,
    meet0,
)
from skewbisub import checker
from skewbisub.functions import _pair_tests
from skewbisub.lattice import labeling_at, lex_index

_ALPHAS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(3, 4),
    Fraction(1, 10),
    Fraction(1, 10**30 + 7),
]


def _verdicts(values, n, alpha):
    """(local test, full scan) acceptance of the table with these values."""
    d = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (d // v.denominator) for v in values]
    packed = checker._packed(ints, n, alpha.numerator, alpha.denominator)
    return checker._locally_convex(packed), checker._first_violation(packed) is None


def _generated(n, alpha, seed):
    g = expand_to_table(generate_instance(n, Alpha(alpha), num_terms=2 * n, max_scope=2, seed=seed))
    return [g[u] for u in all_labelings(n)]


def _local_boundary(values, n, alpha, u, sign):
    """The least t >= 0 past which moving f(u) by sign * t breaks a local
    pair, or None when no local pair's slack shrinks in that direction."""
    best = None
    for x in all_labelings(n):
        for pair in checker.local_pairs(x):
            a, b, m, j0, j1 = pair
            c = (a == u) + (b == u) - (m == u) - alpha * (j0 == u) - (1 - alpha) * (j1 == u)
            if c * sign < 0:
                lhs = values[m] + alpha * values[j0] + (1 - alpha) * values[j1]
                t = (values[a] + values[b] - lhs) / (-c * sign)
                best = t if best is None else min(best, t)
    return best


@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_random_tables(n, alpha, data):
    values = data.draw(st.lists(st.integers(-6, 6), min_size=3**n, max_size=3**n))
    local, scan = _verdicts([Fraction(v) for v in values], n, alpha)
    assert local == scan


@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10**6), data=st.data())
def test_perturbed_generated_tables(n, alpha, seed, data):
    values = _generated(n, alpha, seed)
    assert _verdicts(values, n, alpha) == (True, True)
    for _ in range(data.draw(st.integers(1, 3))):
        u = data.draw(st.integers(0, 3**n - 1))
        values[u] += data.draw(st.sampled_from((-3, -1, Fraction(-1, 7), Fraction(1, 7), 1, 3)))
    local, scan = _verdicts(values, n, alpha)
    assert local == scan


@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10**6), data=st.data())
def test_tables_nudged_to_the_local_boundary(n, alpha, seed, data):
    # One entry moved to where its first local pair holds with equality,
    # then 1/D further or back, D the table's denominator there.
    values = _generated(n, alpha, seed)
    u = data.draw(st.integers(0, 3**n - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    t = _local_boundary(values, n, alpha, u, sign)
    if t is None:
        return
    values[u] += sign * t
    assert _verdicts(values, n, alpha) == (True, True)
    d = math.lcm(*[v.denominator for v in values])
    values[u] += data.draw(st.sampled_from((1, -1))) * Fraction(1, d)
    local, scan = _verdicts(values, n, alpha)
    assert local == scan


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_local_tuple_is_a_genuine_pair(n):
    # Its meet0 and joins are those of (a, b), a <lex b, and (a, b) is a
    # clash pair or an orthant square at its meet0.
    total = 0
    for x in all_labelings(n):
        zeros = [i for i, label in enumerate(x) if label is ZERO]
        pairs = checker.local_pairs(x)
        assert len(pairs) == len(zeros) + 4 * len(list(combinations(zeros, 2)))
        assert len(set(pairs)) == len(pairs)
        for a, b, m, j0, j1 in pairs:
            assert a < b
            u, v = labeling_at(a, n), labeling_at(b, n)
            assert (m, j0, j1) == (
                lex_index(meet0(u, v)),
                lex_index(join(u, v, ZERO)),
                lex_index(join(u, v, POS)),
            )
            assert m == lex_index(x)
            moved = [i for i in range(n) if u[i] is not x[i] or v[i] is not x[i]]
            assert moved and set(moved) <= set(zeros) and len(moved) <= 2
            if len(moved) == 1:
                assert {u[moved[0]], v[moved[0]]} == {NEG, POS}
        total += len(pairs)
    # 3^n (n/3 + 2n(n - 1)/9) local pairs in all.
    assert 9 * total == 3**n * (3 * n + 2 * n * (n - 1))


def test_the_generator_tests_the_local_pairs():
    assert len(_pair_tests(1)) == 1
    assert len(_pair_tests(2)) == 10
    assert _pair_tests(2) == tuple(t for x in all_labelings(2) for t in checker.local_pairs(x))


def test_an_accepted_table_is_never_scanned(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pair scan ran on a locally convex table")

    monkeypatch.setattr(checker, "_scan", refuse)
    values = _generated(5, Fraction(1, 3), seed=11)
    table = TableFunction(5, Alpha(Fraction(1, 3)), dict(zip(all_labelings(5), values)))
    assert check_alpha_bisubmodular(table) is None


def test_a_local_failure_without_a_witness_raises(monkeypatch):
    # The scan must name a witness once a local pair fails; a scan that
    # found none would be a fault, never an acceptance.
    monkeypatch.setattr(checker, "_scan", lambda *args: None)
    values = _generated(3, Fraction(1, 2), seed=3)
    values[lex_index((ZERO,) * 3)] += 1000
    table = TableFunction(3, Alpha(Fraction(1, 2)), dict(zip(all_labelings(3), values)))
    with pytest.raises(AssertionError, match="no violating pair"):
        check_alpha_bisubmodular(table)


def test_masks_are_kept_only_while_small():
    # A wide-field n = 8 check keeps nothing; an n = 3 accept keeps its
    # local tests, and a reject its scan's moves as well.  (The generator
    # checks its term tables, so the cache is cleared after it.)
    g = expand_to_table(generate_instance(8, Alpha(Fraction(1, 3)), 16, 2, seed=5))
    values = _generated(3, Fraction(1, 2), seed=3)
    checker._kept_results.cache_clear()
    assert check_alpha_bisubmodular(g) is None
    assert checker._kept_results.cache_info().currsize == 0
    table = TableFunction(3, Alpha(Fraction(1, 2)), dict(zip(all_labelings(3), values)))
    assert check_alpha_bisubmodular(table) is None
    assert checker._kept_results.cache_info().currsize == 1
    values[lex_index((ZERO,) * 3)] += 1000
    table = TableFunction(3, Alpha(Fraction(1, 2)), dict(zip(all_labelings(3), values)))
    checker._kept_results.cache_clear()
    assert check_alpha_bisubmodular(table) is not None
    assert checker._kept_results.cache_info().currsize == 2
