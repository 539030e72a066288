"""Exhaustive checks of the three-element domain and its lifted operations."""

import itertools
from fractions import Fraction

import pytest

from skewbisub import (
    Alpha,
    ArityMismatchError,
    LEX_ORDER,
    NEG,
    POS,
    ZERO,
    all_labelings,
    format_labeling,
    join,
    leq,
    less,
    meet0,
    numeric,
    parse_labeling,
)
from skewbisub.lattice import label_leq, label_less, labeling_at, lex_index

ALPHAS = [Alpha(Fraction(1, 4)), Alpha(Fraction(1, 2)), Alpha(Fraction(3, 4)), Alpha(Fraction(1)), Alpha(Fraction(2, 7))]


class TestAlpha:
    def test_accepts_unit_interval(self):
        assert Alpha(Fraction(1)).value == 1
        assert Alpha(Fraction(1, 1000)).value == Fraction(1, 1000)

    @pytest.mark.parametrize(
        "bad", [0, Fraction(0), Fraction(-1, 2), Fraction(3, 2), 2, 0.1, 0.5, "0.5", "1e-1", True]
    )
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            Alpha(bad)

    def test_parse(self):
        assert Alpha.parse("1/2").value == Fraction(1, 2)
        assert Alpha.parse(1).value == 1
        with pytest.raises(ValueError):
            Alpha.parse("0.5")  # floats spelled as decimals are not rationals
        with pytest.raises(ValueError):
            Alpha.parse(0.5)


class TestOrder:
    def test_single_label_order(self):
        assert label_less(ZERO, POS)
        assert label_less(ZERO, NEG)
        # Pos and Neg are incomparable, both ways
        assert not label_less(POS, NEG)
        assert not label_less(NEG, POS)
        # strictness
        for a in LEX_ORDER:
            assert not label_less(a, a)
            assert label_leq(a, a)
        assert not label_less(POS, ZERO)
        assert not label_less(NEG, ZERO)

    def test_strict_partial_order_small_n(self):
        for n in (1, 2):
            points = list(all_labelings(n))
            for a in points:
                assert not less(a, a)
            for a, b in itertools.product(points, repeat=2):
                if less(a, b):
                    assert not less(b, a)
            for a, b, c in itertools.product(points, repeat=3):
                if less(a, b) and less(b, c):
                    assert less(a, c)

    def test_componentwise(self):
        a = parse_labeling("0-")
        b = parse_labeling("+-")
        assert leq(a, b)
        assert less(a, b)
        assert not less(b, a)
        assert not less(a, a)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            leq(parse_labeling("+"), parse_labeling("+0"))
        with pytest.raises(ArityMismatchError):
            meet0(parse_labeling("+"), parse_labeling("+0"))
        with pytest.raises(ArityMismatchError):
            join(parse_labeling("+"), parse_labeling("+0"), ZERO)


class TestMeetJoin:
    def test_clash_cases(self):
        assert meet0((POS,), (NEG,)) == (ZERO,)
        assert meet0((NEG,), (POS,)) == (ZERO,)
        assert join((POS,), (NEG,), ZERO) == (ZERO,)
        assert join((POS,), (NEG,), POS) == (POS,)
        assert join((NEG,), (POS,), ZERO) == (ZERO,)
        assert join((NEG,), (POS,), POS) == (POS,)

    def test_worked_componentwise_examples(self):
        assert meet0(parse_labeling("+0"), parse_labeling("+-")) == parse_labeling("+0")
        assert join(parse_labeling("0-"), parse_labeling("--"), ZERO) == parse_labeling("--")

    def test_neg_tiebreak_rejected(self):
        with pytest.raises(ValueError):
            join((POS,), (NEG,), NEG)

    def test_commutative_idempotent(self):
        for a, b in itertools.product(LEX_ORDER, repeat=2):
            assert meet0((a,), (b,)) == meet0((b,), (a,))
            for t in (ZERO, POS):
                assert join((a,), (b,), t) == join((b,), (a,), t)
        for a in LEX_ORDER:
            assert meet0((a,), (a,)) == (a,)
            for t in (ZERO, POS):
                assert join((a,), (a,), t) == (a,)

    def test_meet_below_joins(self):
        # meet <= join0 <= join1 holds for every pair
        for a, b in itertools.product(LEX_ORDER, repeat=2):
            m = meet0((a,), (b,))
            j0 = join((a,), (b,), ZERO)
            j1 = join((a,), (b,), POS)
            assert leq(m, j0)
            assert leq(j0, j1)

    def test_min_max_against_order(self):
        # away from the clash, meet is the order-minimum and joins the maximum
        for a, b in itertools.product(LEX_ORDER, repeat=2):
            if {a, b} == {POS, NEG}:
                continue
            m = meet0((a,), (b,))[0]
            assert label_leq(m, a) and label_leq(m, b)
            for t in (ZERO, POS):
                j = join((a,), (b,), t)[0]
                assert label_leq(a, j) and label_leq(b, j)


class TestNumeric:
    def test_values(self):
        al = Alpha(Fraction(1, 2))
        assert numeric(parse_labeling("+0-"), al) == (Fraction(1), Fraction(0), Fraction(-1, 2))
        assert numeric(parse_labeling("000"), al) == (Fraction(0),) * 3
        assert numeric(parse_labeling("-"), Alpha(Fraction(1))) == (Fraction(-1),)

    def test_label_rendering(self):
        al = Alpha(Fraction(2, 7))
        assert numeric((NEG,), al) == (Fraction(-2, 7),)
        assert numeric((ZERO,), al) == (0,)
        assert numeric((POS,), al) == (1,)


class TestRecombinationIdentity:
    """meet + alpha*join0 + (1-alpha)*join1 recombines to a + b, exactly."""

    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    def test_single_labels(self, alpha):
        for a, b in itertools.product(LEX_ORDER, repeat=2):
            left = (
                numeric((a if a is b else ZERO,), alpha)[0]
                + alpha.value * numeric(join((a,), (b,), ZERO), alpha)[0]
                + (1 - alpha.value) * numeric(join((a,), (b,), POS), alpha)[0]
            )
            assert left == numeric((a,), alpha)[0] + numeric((b,), alpha)[0]

    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    def test_vectors_n3(self, alpha):
        for a, b in itertools.product(all_labelings(3), repeat=2):
            mv = numeric(meet0(a, b), alpha)
            j0 = numeric(join(a, b, ZERO), alpha)
            j1 = numeric(join(a, b, POS), alpha)
            av = numeric(a, alpha)
            bv = numeric(b, alpha)
            for m, x, y, p, q in zip(mv, j0, j1, av, bv):
                assert m + alpha.value * x + (1 - alpha.value) * y == p + q


class TestEncoding:
    def test_roundtrip(self):
        for n in (1, 2, 3):
            for a in all_labelings(n):
                assert parse_labeling(format_labeling(a)) == a

    def test_lex_order_starts_all_neg(self):
        first = next(iter(all_labelings(3)))
        assert format_labeling(first) == "---"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lex_index_numbers_all_labelings_in_order(self, n):
        labelings = list(all_labelings(n))
        assert [lex_index(u) for u in labelings] == list(range(3**n))
        assert [labeling_at(k, n) for k in range(3**n)] == labelings

    def test_all_zero_and_unit_steps(self):
        n = 5
        zero = (ZERO,) * n
        assert lex_index(zero) == (3**n - 1) // 2
        for j in range(n):
            for label, sign in ((POS, 1), (NEG, -1)):
                u = zero[:j] + (label,) + zero[j + 1 :]
                assert lex_index(u) == lex_index(zero) + sign * 3 ** (n - 1 - j)

    @pytest.mark.parametrize("k, n", [(-1, 2), (9, 2), (3**40, 39)])
    def test_labeling_at_rejects_an_index_out_of_range(self, k, n):
        with pytest.raises(ValueError, match="out of range"):
            labeling_at(k, n)

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            parse_labeling("+x")
        with pytest.raises(ValueError):
            parse_labeling("")
