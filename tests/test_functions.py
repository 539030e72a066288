"""Oracle contracts, the skew-bisubmodularity checker, generation, and JSON."""

import json
import math
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    ArityMismatchError,
    DEFAULT_ENUM_CAP,
    GenerationBudgetError,
    InstanceFormatError,
    LEX_ORDER,
    NEG,
    POS,
    SumFunction,
    TableFunction,
    Term,
    ZERO,
    all_labelings,
    check_alpha_bisubmodular,
    expand_to_table,
    format_labeling,
    generate_instance,
    instance_from_json,
    instance_to_json,
    join,
    meet0,
    numeric,
    parse_labeling,
)
from skewbisub import functions
from skewbisub.functions import exceeds_cap
from skewbisub.rationals import format_rational, parse_rational


def inequality_sides(f, a, b):
    """Both sides of the defining inequality, evaluated directly."""
    al = f.alpha.value
    lhs = (
        f.evaluate(meet0(a, b))
        + al * f.evaluate(join(a, b, ZERO))
        + (1 - al) * f.evaluate(join(a, b, POS))
    )
    rhs = f.evaluate(a) + f.evaluate(b)
    return lhs, rhs


def linear_table(n, alpha, coeffs):
    return TableFunction(
        n,
        alpha,
        {
            a: sum(c * v for c, v in zip(coeffs, numeric(a, alpha)))
            for a in all_labelings(n)
        },
    )


class TestValueOracle:
    def test_call_count(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 1, "0": 2, "+": 3})
        assert f.call_count == 0
        f.evaluate((ZERO,))
        f.evaluate((ZERO,))
        assert f.call_count == 2

    def test_deterministic(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": "7/3", "0": 0, "+": -2})
        assert f.evaluate((POS,)) == f.evaluate((POS,)) == Fraction(-2)

    def test_arity_mismatch(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 1, "0": 2, "+": 3})
        with pytest.raises(ArityMismatchError):
            f.evaluate((ZERO, ZERO))

    def test_table_requires_all_entries(self, alpha_half):
        with pytest.raises(InstanceFormatError, match="missing value"):
            TableFunction(1, alpha_half, {"-": 1, "0": 2})
        with pytest.raises(InstanceFormatError, match="length"):
            TableFunction(1, alpha_half, {"-": 1, "0": 2, "++": 3})

    def test_uncounted_getitem(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": 1, "0": 2, "+": 3})
        assert f[(POS,)] == 3
        assert f.call_count == 0


def reference_sum_value(f, labeling):
    """The sum of the term values as Fractions, one Label tuple per term."""
    total = Fraction(0)
    for scope, table in f.terms:
        total += table[tuple(labeling[i] for i in scope)]
    return total


_VALUES = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7])),
    st.sampled_from([Fraction(10**400), Fraction(-(10**400)), Fraction(-(10**400), 7)]),
)


@st.composite
def sum_documents(draw):
    """A sum-form JSON document, n <= 7, with scopes in arbitrary order."""
    n = draw(st.integers(1, 7))
    alpha = draw(st.sampled_from(["1/3", "1/2", "1", "5/9"]))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        scope = draw(st.permutations(range(n)))[: draw(st.integers(1, min(3, n)))]
        values = {
            format_labeling(u): format_rational(draw(_VALUES))
            for u in all_labelings(len(scope))
        }
        terms.append({"scope": list(scope), "values": values})
    points = draw(st.lists(st.tuples(*[st.sampled_from(LEX_ORDER)] * n), min_size=1, max_size=8))
    return {"format": "sum", "n": n, "alpha": alpha, "terms": terms}, points


@settings(max_examples=100, deadline=None)
@given(sum_documents())
def test_sum_evaluation_matches_the_fraction_reference(case):
    doc, points = case
    f = instance_from_json(doc)
    for calls, u in enumerate(points, start=1):
        value = f.evaluate(u)
        assert type(value) is Fraction
        assert value == reference_sum_value(f, u)
        assert f.call_count == calls


def _term(scope, values):
    """A sum document's term on `scope` with `values` in lex order."""
    labelings = all_labelings(len(scope))
    texts = {format_labeling(u): format_rational(Fraction(v)) for u, v in zip(labelings, values)}
    return {"scope": list(scope), "values": texts}


_HUGE = 10**400

#: (sum terms at n = 4, the number of tables they merge into).
_MERGED_SUMS = {
    "repeated scope": ([_term((0, 1), range(9)), _term((0, 1), range(0, 27, 3))], 1),
    "pair and its reverse": (
        [_term((0, 2), range(9)), _term((2, 0), [5, -1, 2, 7, 0, 3, -4, 8, 1])],
        1,
    ),
    "covered unary": ([_term((1,), [1, 0, 2]), _term((1, 3), range(9))], 1),
    "covered unary after its cover": ([_term((3, 1), range(9)), _term((1,), ["1/2", 0, 3])], 1),
    "uncovered unary": (
        [_term((3,), [4, 0, -1]), _term((0, 1), range(9)), _term((3,), [1, 1, 1])],
        2,
    ),
    "3-ary term covers unary": (
        [_term((2, 0, 3), range(27)), _term((3,), [-2, 0, "5/3"]), _term((0,), [1, 2, 3])],
        1,
    ),
    "10^400 values": (
        [
            _term((1, 0), [_HUGE, 0, -_HUGE, 1, 2, 3, Fraction(-_HUGE, 7), 4, 5]),
            _term((0, 1), [Fraction(_HUGE, 3)] * 9),
            _term((0,), [-_HUGE, _HUGE, 0]),
            _term((2,), [0, Fraction(1, 7), _HUGE]),
        ],
        2,
    ),
}


@pytest.mark.parametrize("name", list(_MERGED_SUMS))
def test_merged_tables_read_the_term_sum(name):
    # Terms on one set of coordinates, in any order, and the unary terms that
    # a larger scope covers are read from one merged table; every read is
    # still the sum of the term values and one oracle call.
    terms, tables = _MERGED_SUMS[name]
    doc = {"format": "sum", "n": 4, "alpha": "1/3", "terms": terms}
    f = instance_from_json(doc)
    assert len(f._pairs) + len(f._others) == tables
    for calls, u in enumerate(all_labelings(4), start=1):
        numerator = f.numerator(u)
        value = f.evaluate(u)
        assert f.call_count == 2 * calls
        assert value == Fraction(numerator, f.denominator) == reference_sum_value(f, u)
    # The terms come back as given, unmerged and in order.
    assert len(f.terms) == len(terms)
    assert instance_to_json(instance_from_json(doc)) == doc
    built = SumFunction(4, f.alpha, f.terms)
    assert all(built.numerator(u) * f.denominator == f.numerator(u) * built.denominator
               for u in all_labelings(4))


@st.composite
def table_documents(draw):
    """A table-form JSON document, n <= 4, and points to read it at."""
    n = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from(["1/3", "1/2", "1", "5/9"]))
    values = {format_labeling(u): format_rational(draw(_VALUES)) for u in all_labelings(n)}
    points = draw(st.lists(st.tuples(*[st.sampled_from(LEX_ORDER)] * n), min_size=1, max_size=8))
    return {"format": "table", "n": n, "alpha": alpha, "values": values}, points


@settings(max_examples=100, deadline=None)
@given(st.one_of(sum_documents(), table_documents()))
def test_integer_reads_are_the_values_over_one_denominator(case):
    # numerator(u) / denominator is evaluate(u) at every point, with one
    # denominator per oracle, and each read of either kind is one call.
    doc, points = case
    f = instance_from_json(doc)
    denominator = f.denominator
    assert type(denominator) is int and denominator > 0
    for calls, u in enumerate(points, start=1):
        numerator = f.numerator(u)
        assert type(numerator) is int
        assert f.call_count == 2 * calls - 1
        assert f.evaluate(u) == Fraction(numerator, denominator)
        assert f.call_count == 2 * calls
    assert f.denominator == denominator
    with pytest.raises(ArityMismatchError):
        f.numerator((ZERO,) * (f.arity + 1))
    assert f.call_count == 2 * len(points)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sum_documents(), table_documents()))
def test_the_bulk_read_is_every_numerator_in_lex_order(case):
    # numerators() is the tuple of numerator(u) over all u in lex order and
    # counts exactly 3^n calls, for a loaded sum or table and for a table
    # built from a mapping of the same values.
    doc, _ = case
    f = instance_from_json(doc)
    g = TableFunction(f.arity, f.alpha, {u: f.evaluate(u) for u in all_labelings(f.arity)})
    points = 3**f.arity
    for oracle in (f, g):
        before = oracle.call_count
        row = oracle.numerators()
        assert type(row) is tuple and all(type(v) is int for v in row)
        assert oracle.call_count - before == points
        assert list(row) == [oracle.numerator(u) for u in all_labelings(oracle.arity)]
        assert oracle.call_count - before == 2 * points
    assert [Fraction(v, f.denominator) for v in f.numerators()] == [
        Fraction(v, g.denominator) for v in g.numerators()
    ]


def test_a_table_is_integer_from_the_moment_it_is_loaded(monkeypatch):
    # Every table holds its values as Fractions in lex order, beside integer
    # numerators over the lcm of their denominators, however it was built.
    # So `expand_to_table` makes one Fraction per point, and reading a
    # loaded, an expanded or a generated table makes none: `evaluate`,
    # `__getitem__`, the checker's 3^n counted calls when it accepts, and
    # `instance_to_json`.  A witness makes two, its two sides.  Fractions
    # are counted where every module makes them, at `Fraction.__new__`.
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def reads_make_none(table):
        made.clear()
        calls = table.call_count
        assert check_alpha_bisubmodular(table) is None
        assert table.call_count == calls + 3**table.arity
        labelings = list(all_labelings(table.arity))
        values = [table.evaluate(u) for u in labelings]
        assert values == [table[u] for u in labelings]
        assert instance_to_json(table)["values"] == {
            format_labeling(u): format_rational(v) for u, v in zip(labelings, values)
        }
        assert made == []
        return values

    doc = {"format": "table", "n": 1, "alpha": "1/2", "values": {"-": "1/2", "0": "2/3", "+": 3}}
    expected = [Fraction(1, 2), Fraction(2, 3), Fraction(3)]
    instance_from_json(doc)
    monkeypatch.setattr(Fraction, "__new__", counted)
    Alpha.parse(doc["alpha"])
    alpha_made = len(made)
    made.clear()
    f = instance_from_json(doc)
    assert f.numerators() == (3, 4, 18) and f.denominator == 6
    # Past the alpha's, a load makes one Fraction, for the int value: the
    # first load parsed the texts.
    assert f.call_count == 3 and made[alpha_made:] == [(3,)]
    made.clear()
    assert check_alpha_bisubmodular(f) is None
    assert f.call_count == 6 and made == []
    values = [f.evaluate(u) for u in all_labelings(1)]
    assert values == expected
    assert f.call_count == 9 and made == []
    assert reads_make_none(f) == expected

    made.clear()
    g = expand_to_table(f)
    assert len(made) == 3
    assert g.numerators() == f.numerators()
    made.clear()
    assert [g.evaluate(u) for u in all_labelings(1)] == values
    assert g.call_count == 6 and made == []
    assert check_alpha_bisubmodular(g) is None
    assert g.call_count == 9 and made == []
    assert reads_make_none(g) == expected

    generated = generate_instance(3, Alpha(Fraction(1, 3)), num_terms=3, max_scope=2, seed=4)
    for term in generated.terms:
        reads_make_none(term.table)
    made.clear()
    instance_to_json(generated)
    assert made == []

    made.clear()
    spike = instance_from_json({**doc, "values": {"-": 0, "0": 1, "+": 0}})
    # Past the alpha's, one Fraction per int value.
    assert len(made) == alpha_made + 3
    made.clear()
    witness = check_alpha_bisubmodular(spike)
    assert witness is not None and spike.call_count == 3 and len(made) == 2


class TestSumFunction:
    def test_evaluates_as_sum(self, alpha_half):
        t1 = TableFunction(1, alpha_half, {"-": 1, "0": 2, "+": 4})
        t2 = TableFunction(2, alpha_half, {format_labeling(u): i for i, u in enumerate(all_labelings(2))})
        f = SumFunction(3, alpha_half, [Term((0,), t1), Term((2, 1), t2)])
        x = parse_labeling("+-0")
        assert f.evaluate(x) == t1[(POS,)] + t2[parse_labeling("0-")]

    def test_scope_validation(self, alpha_half):
        t1 = TableFunction(1, alpha_half, {"-": 1, "0": 2, "+": 4})
        with pytest.raises(ValueError, match="out of range"):
            SumFunction(2, alpha_half, [Term((2,), t1)])
        with pytest.raises(ValueError, match="repeated"):
            SumFunction(2, alpha_half, [Term((0, 0), TableFunction(2, alpha_half, {format_labeling(u): 0 for u in all_labelings(2)}))])
        with pytest.raises(ValueError, match="at least one term"):
            SumFunction(2, alpha_half, [])


class TestChecker:
    def test_constant_passes(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(5) for u in all_labelings(2)})
        assert check_alpha_bisubmodular(f) is None

    @pytest.mark.parametrize("alpha_num", [1, 2, 3, 4])
    def test_linear_passes_with_equality(self, alpha_num):
        alpha = Alpha(Fraction(alpha_num, 4))
        coeffs = (Fraction(3), Fraction(-2))
        f = linear_table(2, alpha, coeffs)
        assert check_alpha_bisubmodular(f) is None
        for a in all_labelings(2):
            for b in all_labelings(2):
                lhs, rhs = inequality_sides(f, a, b)
                assert lhs == rhs

    def test_unary_spike_witness(self, alpha_half):
        # f(Zero)=1, f(Pos)=f(Neg)=0 cannot be skew bisubmodular: recombining
        # the clash pair routes weight 1 + alpha onto the spike.
        f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
        # independent oracle: scan the 9 ordered pairs directly, in lex order
        expected = None
        for a in all_labelings(1):
            for b in all_labelings(1):
                lhs, rhs = inequality_sides(f, a, b)
                if lhs > rhs:
                    expected = (a, b, lhs, rhs)
                    break
            if expected:
                break
        witness = check_alpha_bisubmodular(f)
        assert witness is not None
        assert (witness.a, witness.b, witness.lhs, witness.rhs) == expected
        # frozen values from the scan above
        assert format_labeling(witness.a) == "-"
        assert format_labeling(witness.b) == "+"
        assert witness.lhs == Fraction(3, 2)
        assert witness.rhs == 0

    def test_witness_consistency(self):
        # whatever pair comes back, re-evaluating both sides reproduces it
        rng = random.Random(11)
        found = 0
        alpha = Alpha(Fraction(1, 3))
        while found < 10:
            f = TableFunction(
                2, alpha, {u: Fraction(rng.randint(-10, 10)) for u in all_labelings(2)}
            )
            witness = check_alpha_bisubmodular(f)
            if witness is None:
                continue
            found += 1
            lhs, rhs = inequality_sides(f, witness.a, witness.b)
            assert lhs == witness.lhs
            assert rhs == witness.rhs
            assert lhs > rhs

    def test_adding_linear_preserves_verdict(self, alpha_half):
        rng = random.Random(23)
        coeffs = (Fraction(5), Fraction(-7, 2))
        for _ in range(20):
            table = {u: Fraction(rng.randint(-8, 8)) for u in all_labelings(2)}
            f = TableFunction(2, alpha_half, table)
            shifted = TableFunction(
                2,
                alpha_half,
                {
                    u: table[u] + sum(c * v for c, v in zip(coeffs, numeric(u, alpha_half)))
                    for u in all_labelings(2)
                },
            )
            w1 = check_alpha_bisubmodular(f)
            w2 = check_alpha_bisubmodular(shifted)
            assert (w1 is None) == (w2 is None)
            if w1 is not None:
                assert (w1.a, w1.b) == (w2.a, w2.b)


class TestGenerator:
    def test_deterministic(self, alpha_half):
        a = generate_instance(4, alpha_half, num_terms=3, max_scope=2, seed=99)
        b = generate_instance(4, alpha_half, num_terms=3, max_scope=2, seed=99)
        assert instance_to_json(a) == instance_to_json(b)

    def test_terms_pass_checker_and_sum_lifts(self, alpha_half):
        f = generate_instance(4, alpha_half, num_terms=3, max_scope=2, seed=5)
        for term in f.terms:
            assert check_alpha_bisubmodular(term.table) is None
        # closure under lifting + addition: the expanded table passes too
        assert check_alpha_bisubmodular(expand_to_table(f)) is None

    def test_unary_only(self):
        alpha = Alpha(Fraction(3, 4))
        f = generate_instance(1, alpha, num_terms=1, max_scope=1, seed=0)
        assert check_alpha_bisubmodular(expand_to_table(f)) is None

    def test_bad_arguments(self, alpha_half):
        with pytest.raises(ValueError):
            generate_instance(3, alpha_half, num_terms=0, max_scope=2, seed=0)
        with pytest.raises(ValueError):
            generate_instance(0, alpha_half, num_terms=1, max_scope=2, seed=0)
        with pytest.raises(ValueError):
            generate_instance(3, alpha_half, num_terms=1, max_scope=3, seed=0)

    def test_budget_exhaustion(self, alpha_half, monkeypatch):
        # seed 0 draws a binary scope whose first table fails the checker
        monkeypatch.setattr(functions, "_MAX_REJECTIONS", 1)
        with pytest.raises(GenerationBudgetError):
            generate_instance(2, alpha_half, num_terms=1, max_scope=2, seed=0)


class TestExpand:
    def test_table_expands_to_itself(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(i, 3) for i, u in enumerate(all_labelings(2))})
        g = expand_to_table(f)
        for u in all_labelings(2):
            assert g[u] == f[u]

    def test_sum_expands_pointwise(self, alpha_half):
        f = generate_instance(3, alpha_half, num_terms=2, max_scope=2, seed=3)
        g = expand_to_table(f)
        for u in all_labelings(3):
            assert g.evaluate(u) == f.evaluate(u)

    def test_full_arity_single_term(self, alpha_half):
        inner = TableFunction(2, alpha_half, {u: Fraction(i) for i, u in enumerate(all_labelings(2))})
        f = SumFunction(2, alpha_half, [Term((0, 1), inner)])
        g = expand_to_table(f)
        for u in all_labelings(2):
            assert g[u] == inner[u]

    def test_keeps_the_least_denominator(self):
        # The sum's D is 6, the lcm of every term value's denominator, but
        # the constant 1/2 and -1/2 terms cancel, so the values need only
        # thirds: the table's denominator is the lcm of its values' reduced
        # denominators, and its document holds the values as they read.
        doc = {
            "format": "sum",
            "n": 2,
            "alpha": "1",
            "terms": [
                {"scope": [0], "values": {"-": "1/2", "0": "1/2", "+": "1/2"}},
                {"scope": [1], "values": {"-": "-1/3", "0": "0", "+": "1/3"}},
                {"scope": [0], "values": {"-": "-1/2", "0": "-1/2", "+": "-1/2"}},
                {"scope": [0], "values": {"-": "2/3", "0": "0", "+": "-2/3"}},
            ],
        }
        f = instance_from_json(doc)
        assert f.denominator == 6
        table = expand_to_table(f)
        labelings = list(all_labelings(2))
        values = [f.evaluate(u) for u in labelings]
        assert table.denominator == math.lcm(*(v.denominator for v in values)) == 3
        assert [Fraction(v, 3) for v in table.numerators()] == values
        assert instance_to_json(table)["values"] == {
            format_labeling(u): format_rational(v) for u, v in zip(labelings, values)
        }
        # A table from each way of building one reads back as written.
        alpha = Alpha(Fraction(1, 3))
        generated = generate_instance(3, alpha, num_terms=3, max_scope=2, seed=2)
        built = TableFunction(2, alpha, {u: Fraction(k, 4) for k, u in enumerate(labelings)})
        for g in (table, built, f.terms[1].table, generated.terms[0].table, generated):
            written = instance_to_json(g)
            assert instance_to_json(instance_from_json(written)) == written


class TestExceedsCap:
    CAPS = sorted(
        {0, 1, 2, 3, 8, 9, 10, 26, 27, 28, 3**6, 3**8, 3**8 + 1, 2**63, 3**40 - 1, 3**40, 3**40 + 1}
        | {3**k + d for k in range(1, 41, 3) for d in (-1, 0, 1)}
    )

    @pytest.mark.parametrize("cap", CAPS)
    def test_equals_the_power_comparison(self, cap):
        assert [exceeds_cap(n, cap) for n in range(1, 41)] == [3**n > cap for n in range(1, 41)]

    def test_huge_arity_returns_at_once(self):
        # 3^(10^18) has about 1.6e18 bits, so only a short cut can answer.
        assert exceeds_cap(10**18, DEFAULT_ENUM_CAP)
        assert exceeds_cap(10**18, 10**100)


class TestJson:
    def test_table_roundtrip(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(i, 2) for i, u in enumerate(all_labelings(2))})
        doc = instance_to_json(f)
        g = instance_from_json(doc)
        assert isinstance(g, TableFunction)
        assert instance_to_json(g) == doc

    def test_sum_roundtrip_and_fixed_point(self, alpha_half):
        f = generate_instance(5, alpha_half, num_terms=4, max_scope=2, seed=17)
        doc = instance_to_json(f)
        text = json.dumps(doc)
        again = instance_to_json(instance_from_json(json.loads(text)))
        assert again == doc

    def test_values_match_after_parse(self, alpha_half):
        f = generate_instance(3, alpha_half, num_terms=2, max_scope=2, seed=8)
        g = instance_from_json(instance_to_json(f))
        for u in all_labelings(3):
            assert g.evaluate(u) == f.evaluate(u)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("format"), "missing key 'format'"),
            (lambda d: d.update(format="tables"), "unknown format"),
            (lambda d: d.update(n=0), "'n' must be a positive integer"),
            (lambda d: d.update(alpha="5/4"), "alpha"),
            (lambda d: d["values"].pop("--"), "missing value for labeling '--'"),
            (lambda d: d["values"].update({"--": 1.5}), "floats are not accepted"),
            (lambda d: d["values"].update({"--": "x"}), "bad rational"),
        ],
    )
    def test_malformed_table_documents(self, alpha_half, mutate, message):
        doc = instance_to_json(
            TableFunction(2, alpha_half, {u: 1 for u in all_labelings(2)})
        )
        mutate(doc)
        with pytest.raises(InstanceFormatError, match=message):
            instance_from_json(doc)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"-": 0, "0": 0, "x": 0}, "labeling 'x': bad character 'x' at position 0"),
            ({"-": 0, "0": 0, "+": 0, "+x": 0}, "labeling '+x': bad character 'x' at position 1"),
            ({"": 0, "-": 0, "0": 0, "+": 0}, "labeling must have length >= 1"),
            ({"-": 0, "0": 0, "+-": 0}, "values: key '+-' has length 2, expected 1"),
            ({"-": 0, "+": 0}, "values: missing value for labeling '0'"),
            (
                {"-": "1.5", "0": 0, "+": 0},
                "values['-']: bad rational literal '1.5' (expected 'p' or 'p/q')",
            ),
            (
                {"-": 0, "0": 0.5, "+": 0},
                "values['0']: floats are not accepted (got 0.5); use an exact 'p/q' string",
            ),
            ({"-": 0, "0": 0, "+": True}, "values['+']: expected a rational, got boolean True"),
            ({"-": 0, "0": 0, "+": [1]}, "values['+']: expected a rational, got list"),
        ],
    )
    def test_malformed_table_messages(self, values, message):
        # The exact messages, word for word.
        doc = {"format": "table", "n": 1, "alpha": "1/2", "values": values}
        with pytest.raises(InstanceFormatError) as raised:
            instance_from_json(doc)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("-x", 0, "terms[1]: labeling '-x': bad character 'x' at position 1"),
            ("---", 0, "terms[1]: values: key '---' has length 3, expected 2"),
            ("0+", None, "terms[1]: values: missing value for labeling '0+'"),
            (
                "+0",
                "1/0",
                "terms[1]: values['+0']: bad rational literal '1/0' (expected 'p' or 'p/q')",
            ),
        ],
    )
    def test_malformed_term_messages(self, key, value, message):
        values = {format_labeling(u): 0 for u in all_labelings(2)}
        if value is None:
            del values[key]
        else:
            values[key] = value
        doc = {
            "format": "sum",
            "n": 2,
            "alpha": "1/2",
            "terms": [
                {"scope": [0], "values": {"-": 0, "0": 0, "+": 0}},
                {"scope": [0, 1], "values": values},
            ],
        }
        with pytest.raises(InstanceFormatError) as raised:
            instance_from_json(doc)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"-": 0, (NEG,): 1, "0": 0, "+": 0}, "values: duplicate key '-'"),
            ({(ZERO,): 0, "0": 1, "-": 0, "+": 0}, "values: duplicate key '0'"),
            ({5: 0, "-": 0, "0": 0, "+": 0}, "values: bad labeling key 5"),
            ({(NEG, "0"): 0}, "values: bad labeling key (Label.NEG, '0')"),
            ({(NEG, NEG): 0}, "values: key '--' has length 2, expected 1"),
        ],
    )
    def test_malformed_table_keys(self, alpha_half, values, message):
        with pytest.raises(InstanceFormatError) as raised:
            TableFunction(1, alpha_half, values)
        assert str(raised.value) == message

    def test_an_unhashable_key_is_a_bad_key(self, alpha_half):
        # A Mapping other than a dict can yield a key that cannot be hashed.
        class Pairs(Mapping):
            def __init__(self, items):
                self._items = items

            def __getitem__(self, key):
                return next(v for k, v in self._items if k == key)

            def __iter__(self):
                return iter([k for k, _ in self._items])

            def __len__(self):
                return len(self._items)

        for values in (Pairs([("-", 0), (["0"], 1), ("+", 2)]), Pairs([(["0"], 1)])):
            with pytest.raises(InstanceFormatError) as raised:
                TableFunction(1, alpha_half, values)
            assert str(raised.value) == "values: bad labeling key ['0']"

    def test_malformed_sum_scope(self, alpha_half):
        doc = instance_to_json(generate_instance(3, alpha_half, num_terms=1, max_scope=2, seed=2))
        doc["terms"][0]["scope"] = [0, 7]
        with pytest.raises(InstanceFormatError, match="out of range"):
            instance_from_json(doc)


class TestLoadCaches:
    """Value texts are parsed once per process, with no change to what a
    load accepts or to the messages it gives."""

    @staticmethod
    def _table(values):
        return {"format": "table", "n": 1, "alpha": "1/2", "values": values}

    @staticmethod
    def _fill_caches():
        for seed in range(3):
            instance_from_json(instance_to_json(
                generate_instance(4, Alpha(Fraction(1, 2)), num_terms=4, max_scope=2, seed=seed)
            ))
        instance_from_json(TestLoadCaches._table({"-": "1", "0": 1, "+": "1/1"}))

    @pytest.mark.parametrize(
        "raw, message",
        [
            (True, "values['+']: expected a rational, got boolean True"),
            (1.0, "values['+']: floats are not accepted (got 1.0); use an exact 'p/q' string"),
        ],
    )
    def test_a_non_text_equal_to_one_is_still_rejected(self, raw, message):
        # True == 1 == 1.0 == Fraction(1), and "1" and 1 have been loaded.
        self._fill_caches()
        with pytest.raises(InstanceFormatError) as raised:
            instance_from_json(self._table({"-": "1", "0": 1, "+": raw}))
        assert str(raised.value) == message

    @pytest.mark.parametrize("text", ["1/0", "x"])
    def test_a_bad_text_names_its_key_every_time(self, text):
        for _ in range(2):
            for key in ("-", "0", "+"):
                values = {"-": 0, "0": 0, "+": 0, key: text}
                with pytest.raises(InstanceFormatError) as raised:
                    instance_from_json(self._table(values))
                assert str(raised.value) == (
                    f"values[{key!r}]: bad rational literal {text!r} (expected 'p' or 'p/q')"
                )
            self._fill_caches()

    def test_a_bad_key_text_fails_every_time(self):
        for _ in range(2):
            with pytest.raises(InstanceFormatError) as raised:
                instance_from_json(self._table({"-": 0, "0": 0, "x": 0}))
            assert str(raised.value) == "labeling 'x': bad character 'x' at position 0"
            self._fill_caches()

    def test_equal_texts_give_equal_values(self):
        texts = ["1/2", " 1/2", "2/4", "-3", "-3/1", "+7/21", "0", "-0", "10/4"]
        for _ in range(2):
            for text in texts:
                f = instance_from_json(self._table({"-": text, "0": text, "+": 0}))
                assert f[(NEG,)] == f[(ZERO,)] == parse_rational(text)
                assert type(f[(NEG,)]) is Fraction
        f = instance_from_json(self._table({"-": "2/4", "0": "1/2", "+": "+1/2"}))
        assert f[(NEG,)] == f[(ZERO,)] == f[(POS,)] == Fraction(1, 2)

    def test_both_caches_are_bounded(self):
        maxsize = functions._parsed_entry.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
