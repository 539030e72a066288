"""The generator against the algorithm it replaced.

`generate_instance` reads a term's tables ahead in batches: many Mersenne
Twister words per read (`functions._read_values`), the batch's tables
packed into one int per position (`functions._packed`), and each pair of
`functions._pair_tests` tested on all of them at once
(`functions._first_accepted`); then it rewinds the stream to just past the
first accepted table (`functions._words_used`).  The reference below draws
with `rng.randint` and scans all 9^k ordered pairs one table at a time, as
the generator once did.  Both must give the same instances, byte for byte,
and leave the stream in the same state; the packed test must accept exactly
what the full scan and the checker accept.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    GenerationBudgetError,
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
from skewbisub import functions
from skewbisub.functions import (
    _VALUE_RANGE,
    _draw_table,
    _first_accepted,
    _packed,
    _pair_tests,
    _read_values,
    _words_used,
)
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


def reference_table(rng, k, p, q):
    """The first table of 3^k `randint` values the full scan accepts, and
    how many tables were drawn to reach it, that one included."""
    lo, hi = _VALUE_RANGE
    pairs = _all_ordered_pairs(k)
    drawn = 0
    while True:
        values = [rng.randint(lo, hi) for _ in range(3**k)]
        drawn += 1
        if _full_scan_accepts(values, pairs, p, q):
            return values, drawn


def reference_draws(n, alpha, num_terms, max_scope, seed):
    """Per term of the reference, its scope, its table's values and the
    tables drawn for it."""
    rng = random.Random(seed)
    p, q = alpha.value.numerator, alpha.value.denominator
    draws = []
    for _ in range(num_terms):
        k = rng.randint(1, min(max_scope, n))
        scope = tuple(sorted(rng.sample(range(n), k)))
        draws.append((scope, *reference_table(rng, k, p, q)))
    return draws


def reference_generate(n, alpha, num_terms, max_scope, seed):
    """The generator as it was: `randint` draws and the all-ordered-pairs scan."""
    terms = [
        Term(
            scope,
            TableFunction(
                len(scope), alpha, {u: Fraction(v) for u, v in zip(all_labelings(len(scope)), values)}
            ),
        )
        for scope, values, _ in reference_draws(n, alpha, num_terms, max_scope, seed)
    ]
    return SumFunction(n, alpha, terms)


def _same_documents(args):
    return json.dumps(instance_to_json(generate_instance(*args))) == json.dumps(
        instance_to_json(reference_generate(*args))
    )


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


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 1000000007), Fraction(1, 10**30 + 7)], ids=["1e9+7", "1e30+7"]
)
def test_wide_fields_match_the_reference(alpha):
    # 2q(hi - lo) needs 37 and 106 bits here: a field narrower than that
    # would let a violating table's negative value pass as >= 0.
    alpha = Alpha(alpha)
    for seed in range(12):
        for n in (2, 5):
            args = (n, alpha, 3, 2, seed)
            assert _same_documents(args), args


@pytest.mark.parametrize("words, more_words", [(1, 1), (1, 2), (2, 5), (3, 3), (7, 40)])
def test_small_reads_carry_tables_over(words, more_words, monkeypatch):
    # With reads of a few words, tables straddle reads, a read can give no
    # value or no whole table, and a term takes many reads.  The seeds
    # alternate between the case's two read sizes.
    for alpha in (Fraction(1, 2), Fraction(2, 7), Fraction(1)):
        for seed in range(6):
            monkeypatch.setattr(functions, "_READ_WORDS", (words, more_words)[seed % 2])
            args = (5, Alpha(alpha), 3, 2, seed)
            assert _same_documents(args), args


@pytest.mark.parametrize("words, more_words", [(512, 2048), (1, 3)])
@pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
def test_a_draw_leaves_the_stream_where_randint_leaves_it(alpha, words, more_words, monkeypatch):
    # The seeds alternate between the case's two read sizes.
    p, q = alpha.numerator, alpha.denominator
    for seed in range(4):
        monkeypatch.setattr(functions, "_READ_WORDS", (words, more_words)[seed % 2])
        drawn, reference = random.Random(seed), random.Random(seed)
        for k in (2, 1, 2):
            assert _draw_table(drawn, k, p, q, 10000) == reference_table(reference, k, p, q)[0]
            assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("words, more_words", [(512, 2048), (1, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_the_budget_counts_tables_drawn(seed, words, more_words, monkeypatch):
    # A budget of exactly the tables the reference drew for its hardest
    # term succeeds; one fewer fails at that term, with the same message.
    # The seeds alternate between the case's two read sizes.
    monkeypatch.setattr(functions, "_READ_WORDS", (words, more_words)[seed % 2])
    args = (4, Alpha(Fraction(1, 2)), 4, 2, seed)
    drawn = [count for _, _, count in reference_draws(*args)]
    budget = max(drawn)
    assert json.dumps(instance_to_json(generate_instance(*args, max_rejections=budget))) == (
        json.dumps(instance_to_json(reference_generate(*args)))
    )
    with pytest.raises(GenerationBudgetError) as caught:
        generate_instance(*args, max_rejections=budget - 1)
    assert str(caught.value) == (
        f"term {drawn.index(budget)}: no accepted table within {budget - 1} draws"
    )


def test_bulk_read_is_randint():
    lo, hi = _VALUE_RANGE
    drawn, reference = random.Random(2013), random.Random(2013)
    start = drawn.getstate()
    tops, values = _read_values(drawn, 10**5)
    assert [lo + r for r in values] == [reference.randint(lo, hi) for _ in range(len(values))]
    # The values took the words up to the last one kept: rewound and
    # advanced by those words, the stream is where randint left it.
    drawn.setstate(start)
    drawn.getrandbits(32 * _words_used(tops, len(values)))
    assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("words", [1, 2, 3, 623, 624, 625])
def test_bulk_read_is_randint_at_any_length(words):
    # Reads of one word up to just past the 624-word Twister state, back to
    # back; each read's first `count` values take `_words_used` words, as
    # many as randint takes for them.
    lo, hi = _VALUE_RANGE
    drawn, reference = random.Random(7), random.Random(7)
    for _ in range(3):
        start = drawn.getstate()
        tops, values = _read_values(drawn, words)
        for count in {0, 1, len(values) // 2, len(values)}:
            probe, replay = random.Random(), random.Random()
            probe.setstate(start)
            replay.setstate(start)
            probe.getrandbits(32 * _words_used(tops, count))
            for _ in range(count):
                replay.randint(lo, hi)
            assert probe.getstate() == replay.getstate()
        assert [lo + r for r in values] == [reference.randint(lo, hi) for _ in range(len(values))]
        # The read ends on words that may all be redraws.
        reference.getrandbits(32 * (words - _words_used(tops, len(values))))
        assert drawn.getstate() == reference.getstate()


def _columns(tables, width):
    """The packed columns, spelled out: position j of table t in field t."""
    return [
        sum(table[j] << (8 * width * t) for t, table in enumerate(tables))
        for j in range(len(tables[0]))
    ]


def _packed_verdict(values, k, p, q):
    """The packed test on a one-table batch, asserting that it picks the
    table out of batches that hold it at every position."""
    pairs = _pair_tests(k, p, q)
    low = min(values)
    table = [v - low for v in values]
    # All-Zero alone at 1 fails the pair of -0...0 and +0...0.
    filler = [int(u == (ZERO,) * k) for u in all_labelings(k)]
    width = (2 * q * max(max(table), 1)).bit_length() // 8 + 1
    verdict = _first_accepted(_columns([table], width), 1, width, pairs, p, q) == 0
    for i in range(5):
        batch = [filler] * i + [table] + [table, filler] * 2
        columns = _columns(batch, width)
        if max(table) < 256:
            flat = bytes(r for tab in batch for r in tab)
            assert _packed(flat, len(batch), 3**k, width) == columns
        assert _first_accepted(columns, len(batch), width, pairs, p, q) == (i if verdict else None)
    return verdict


def _verdicts(values, k, alpha):
    """(packed test, full scan, checker) acceptance of an integer table."""
    p, q = alpha.numerator, alpha.denominator
    table = TableFunction(k, Alpha(alpha), dict(zip(all_labelings(k), values)))
    return (
        _packed_verdict(values, k, p, q),
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
