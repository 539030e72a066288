"""Tests of the benchmark's independent reference, on hand-made n <= 3 cases."""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference  # noqa: E402
import skewbisub  # noqa: E402
import workloads  # noqa: E402
from reference import Instance, brute_force_min, first_violation  # noqa: E402

ALPHAS = workloads.ALPHAS


def table_doc(n, alpha, values):
    return {"format": "table", "n": n, "alpha": alpha, "values": values}


def nonzero_indicator(alpha):
    """[x != 0] on one coordinate: skew bisubmodular for every alpha."""
    return table_doc(1, alpha, {"-": 1, "0": 0, "+": 1})


def tilt_term(j, alpha, c):
    minus = -Fraction(alpha) * c
    return {"scope": [j], "values": {"-": str(minus), "0": 0, "+": c}}


def test_labelings_are_lexicographic():
    assert reference.labelings(2) == ["--", "-0", "-+", "0-", "00", "0+", "+-", "+0", "++"]
    assert [reference.lex_index(u) for u in reference.labelings(3)] == list(range(27))


def test_meet_and_joins_follow_the_order():
    # '0' lies below '-' and '+'; the {'+', '-'} clash meets at '0' and joins
    # at '0' (join0) or '+' (join1).
    meets = {"--": "-", "-0": "0", "-+": "0", "00": "0", "0+": "0", "++": "+"}
    joins0 = {"--": "-", "-0": "-", "-+": "0", "00": "0", "0+": "+", "++": "+"}
    joins1 = {"--": "-", "-0": "-", "-+": "+", "00": "0", "0+": "+", "++": "+"}
    for pair, m in meets.items():
        for x, y in (pair, pair[::-1]):
            assert reference.meet_label(x, y) == m
            assert reference.join_label(x, y, "0") == joins0[pair]
            assert reference.join_label(x, y, "+") == joins1[pair]
    # The scan's index tables lift them componentwise.
    names = reference.labelings(2)
    meets, joins0, joins1 = reference._pair_tables(2)
    for ia, a in enumerate(names):
        for ib, b in enumerate(names):
            k = 9 * ia + ib
            assert names[meets[k]] == "".join(map(reference.meet_label, a, b))
            assert names[joins0[k]] == "".join(reference.join_label(x, y, "0") for x, y in zip(a, b))
            assert names[joins1[k]] == "".join(reference.join_label(x, y, "+") for x, y in zip(a, b))
    assert names[meets[9 * names.index("+-") + names.index("-0")]] == "00"
    assert names[joins0[9 * names.index("+-") + names.index("-+")]] == "00"
    assert names[joins1[9 * names.index("+-") + names.index("-0")]] == "+-"


def test_evaluates_sum_and_table_documents():
    doc = {
        "format": "sum",
        "n": 3,
        "alpha": "1/2",
        "terms": [
            {"scope": [0, 2], "values": {u: i for i, u in enumerate(reference.labelings(2))}},
            {"scope": [1], "values": {"-": "-1/2", "0": 0, "+": 1}},
        ],
    }
    f = Instance(doc)
    # term 0 reads (x0, x2) = "+-", index 6; term 1 reads x1 = "-".
    assert f.value("+--") == Fraction(6) - Fraction(1, 2)
    assert f.value("0+0") == Fraction(4) + 1
    table = Instance(table_doc(2, "1", {u: i - 4 for i, u in enumerate(reference.labelings(2))}))
    assert table.value("-+") == -2
    assert table.value("++") == 4
    with pytest.raises(ValueError):
        table.value("+")


def test_brute_force_min_breaks_ties_lexicographically():
    values = {"--": 3, "-0": "-7/2", "-+": 0, "0-": 1, "00": "-7/2", "0+": 2, "+-": 5, "+0": 1, "++": 0}
    assert brute_force_min(Instance(table_doc(2, "1/2", values))) == ("-0", Fraction(-7, 2))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_valid_tables_have_no_violation(alpha):
    assert first_violation(Instance(nonzero_indicator(alpha))) is None
    constant = table_doc(2, alpha, {u: 5 for u in reference.labelings(2)})
    assert first_violation(Instance(constant)) is None


def test_negated_indicator_violates_at_the_clash():
    # -[x != 0]: the pair ('-', '+') gives lhs = (1 - alpha) * -1 > rhs = -2.
    doc = table_doc(1, "1/2", {"-": -1, "0": 0, "+": -1})
    assert first_violation(Instance(doc)) == ("-", "+", Fraction(-1, 2), Fraction(-2))


def test_first_violating_pair_of_a_raised_corner():
    # f = 10 at '++', 0 elsewhere.  With alpha = 1 only join0 counts, and the
    # first pair joining to '++' without being it is ('0+', '+0').  With
    # alpha = 1/2, join1 reaches '++' already at ('-+', '+-').
    values = {u: 10 if u == "++" else 0 for u in reference.labelings(2)}
    assert first_violation(Instance(table_doc(2, "1", values))) == ("0+", "+0", 10, 0)
    assert first_violation(Instance(table_doc(2, "1/2", values))) == ("-+", "+-", 5, 0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_a_tilt_keeps_an_instance_skew_bisubmodular(alpha):
    rng = random.Random(alpha)
    for _ in range(5):
        terms = [{"scope": [j], "values": nonzero_indicator(alpha)["values"]} for j in range(3)]
        terms += [tilt_term(j, alpha, rng.randint(-20, 20)) for j in range(3)]
        doc = {"format": "sum", "n": 3, "alpha": alpha, "terms": terms}
        assert first_violation(Instance(doc)) is None


def test_pairs_scanned_counts_up_to_the_witness():
    assert reference.pairs_scanned(2, None) == 81
    assert reference.pairs_scanned(2, ("--", "--")) == 1
    assert reference.pairs_scanned(2, ("-+", "+-")) == 2 * 9 + 6 + 1


# The program against the reference, on the inputs the benchmark builds.


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tilted_instances_pass_the_reference_scan(alpha):
    f = workloads.tilted_instance(3, skewbisub.Alpha.parse(alpha), random.Random(7))
    doc = skewbisub.instance_to_json(f)
    assert first_violation(Instance(doc)) is None
    ref_min = brute_force_min(Instance(doc))
    assert skewbisub.brute_force_min(f)[1] == ref_min[1]


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_late_violation_witness_is_zero_minus_against_all_plus(n, alpha):
    f = workloads.tilted_instance(n, skewbisub.Alpha.parse(alpha), random.Random(n))
    raised = workloads.late_violation(skewbisub.expand_to_table(f))
    expected = first_violation(Instance(skewbisub.instance_to_json(raised)))
    assert expected[:2] == ("0" + "-" * (n - 1), "+" * n)
    witness = skewbisub.check_alpha_bisubmodular(raised).to_json()
    assert (witness["a"], witness["b"]) == expected[:2]
    assert (Fraction(witness["lhs"]), Fraction(witness["rhs"])) == expected[2:]


def test_reference_scan_agrees_with_the_program_on_random_tables():
    rng = random.Random(1)
    violations = 0
    for trial in range(40):
        alpha = ALPHAS[trial % 4]
        values = {u: rng.randint(-3, 3) for u in reference.labelings(2)}
        doc = table_doc(2, alpha, values)
        expected = first_violation(Instance(doc))
        witness = skewbisub.check_alpha_bisubmodular(skewbisub.instance_from_json(doc))
        if expected is None:
            assert witness is None
            continue
        violations += 1
        got = witness.to_json()
        assert (got["a"], got["b"], Fraction(got["lhs"]), Fraction(got["rhs"])) == expected
    assert violations > 0
