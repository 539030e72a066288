"""Oracle contracts, the skew-bisubmodularity checker, generation, and JSON."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewbisub import (
    Alpha,
    ArityMismatchError,
    CapExceededError,
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
from skewbisub.rationals import format_rational


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

    def test_cap(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: 0 for u in all_labelings(2)})
        with pytest.raises(CapExceededError):
            check_alpha_bisubmodular(f, cap=3)


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

    def test_budget_exhaustion(self, alpha_half):
        # seed 0 draws a binary scope whose first table fails the checker
        with pytest.raises(GenerationBudgetError):
            generate_instance(
                2, alpha_half, num_terms=1, max_scope=2, seed=0, max_rejections=1
            )


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

    def test_cap(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: 0 for u in all_labelings(2)})
        with pytest.raises(CapExceededError):
            expand_to_table(f, cap=3)


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

    def test_malformed_sum_scope(self, alpha_half):
        doc = instance_to_json(generate_instance(3, alpha_half, num_terms=1, max_scope=2, seed=2))
        doc["terms"][0]["scope"] = [0, 7]
        with pytest.raises(InstanceFormatError, match="out of range"):
            instance_from_json(doc)
