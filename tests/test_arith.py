import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosmo.arith import (
    IntegerTooLong,
    Slope,
    parse_int,
    _twelve_s,
    dedekind_sum_fast,
    dedekind_sum_naive,
    dedekind_symbol,
    sawtooth,
)


def literal_dedekind_sum(p, q):
    """Independent oracle: the defining sum, term by term with Fractions."""

    def saw(x):
        assert x.denominator != 1
        return x - math.floor(x) - Fraction(1, 2)

    m = abs(q)
    return sum(
        (saw(Fraction(k, q)) * saw(Fraction(k * p, q)) for k in range(1, m)),
        Fraction(0),
    )


coprime_pairs = st.tuples(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-300, max_value=300),
).filter(lambda t: t[0] != 0 and t[1] != 0).map(
    lambda t: (t[0] // math.gcd(*t), t[1] // math.gcd(*t))
)


class TestSawtooth:
    def test_small_values(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
        assert sawtooth(Fraction(1, 2)) == 0
        assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)

    def test_integer_rejected(self):
        for n in (0, 1, -5):
            with pytest.raises(ValueError):
                sawtooth(Fraction(n))

    @given(st.fractions(max_denominator=1000))
    def test_range_and_periodicity(self, x):
        if x.denominator == 1:
            with pytest.raises(ValueError):
                sawtooth(x)
        else:
            v = sawtooth(x)
            assert -Fraction(1, 2) < v < Fraction(1, 2)
            assert sawtooth(x + 1) == v
            assert sawtooth(-x) == -v


class TestDedekindSum:
    # Values frozen from the literal-summation oracle above.
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (1, 3, Fraction(1, 18)),
            (2, 5, Fraction(0)),
            (5, 2, Fraction(0)),
            (1, 5, Fraction(1, 5)),
            (3, 7, Fraction(-1, 14)),
        ],
    )
    def test_frozen_values(self, p, q, expected):
        assert literal_dedekind_sum(p, q) == expected
        assert dedekind_sum_naive(p, q) == expected
        assert dedekind_sum_fast(p, q) == expected

    def test_closed_form_small(self):
        for p in range(1, 60):
            assert dedekind_sum_naive(1, p) == Fraction((p - 1) * (p - 2), 12 * p)

    def test_closed_form_fast_large(self):
        assert dedekind_sum_fast(1, 1000) == Fraction(999 * 998, 12000)

    def test_modulus_one_is_empty_sum(self):
        for p in (-3, -1, 0, 1, 7):
            assert dedekind_sum_naive(p, 1) == 0
            assert dedekind_sum_naive(p, -1) == 0
            assert dedekind_sum_fast(p, 1) == 0
            assert dedekind_sum_fast(p, -1) == 0

    def test_rejects_zero_modulus_and_common_factors(self):
        with pytest.raises(ValueError):
            dedekind_sum_naive(1, 0)
        with pytest.raises(ValueError):
            dedekind_sum_fast(1, 0)
        with pytest.raises(ValueError):
            dedekind_sum_naive(2, 4)
        with pytest.raises(ValueError):
            dedekind_sum_fast(6, 9)
        with pytest.raises(ValueError, match=r"Dedekind sum needs gcd\(p, q\) = 1, got p=4, q=6"):
            dedekind_sum_fast(4, 6)
        with pytest.raises(ValueError, match="Dedekind sum needs a nonzero modulus q"):
            dedekind_sum_fast(1, 0)

    @given(coprime_pairs)
    def test_fast_matches_naive(self, pq):
        p, q = pq
        assert dedekind_sum_fast(p, q) == dedekind_sum_naive(p, q)

    def test_fast_matches_naive_seeded(self):
        rng = random.Random(20260602)
        checked = 0
        while checked < 500:
            p, q = rng.randint(-10**6, 10**6), rng.choice([-1, 1]) * rng.randint(1, 2000)
            if math.gcd(p, q) == 1:
                assert dedekind_sum_fast(p, q) == dedekind_sum_naive(p, q), (p, q)
                checked += 1

    def test_twelve_s_pair_has_the_modulus_as_denominator(self):
        # the surgery formulas read 12 |q| s(p, q) off the pair as an integer
        rng = random.Random(20261020)
        checked = 0
        while checked < 500:
            p, q = rng.randint(-10**6, 10**6), rng.choice([-1, 1]) * rng.randint(1, 2000)
            if math.gcd(p, q) == 1:
                assert _twelve_s(p, q) == (12 * abs(q) * dedekind_sum_naive(p, q), abs(q)), (p, q)
                checked += 1

    def test_six_q_times_sum_is_integer(self):
        # the surgery formula sums q S(p/q) = 12 q s(p, q) as an integer
        for q in range(1, 80):
            for p in range(-q, q + 1):
                if math.gcd(p, q) == 1:
                    assert (6 * q * dedekind_sum_naive(p, q)).denominator == 1, (p, q)

    @given(coprime_pairs)
    def test_parity_symmetries(self, pq):
        p, q = pq
        s = dedekind_sum_naive(p, q)
        assert dedekind_sum_naive(-p, q) == -s
        assert dedekind_sum_naive(p, -q) == s
        assert dedekind_sum_naive(p + q, q) == s


class TestDedekindSymbol:
    def test_examples(self):
        assert dedekind_symbol(Slope(1, 1)) == 0
        assert dedekind_symbol(Slope(2, 5)) == 0
        assert dedekind_symbol(Slope(1, 3)) == Fraction(2, 3)

    def test_fraction_invariance(self):
        assert dedekind_symbol(Slope(-2, -5)) == dedekind_symbol(Slope(2, 5))
        assert dedekind_symbol(Slope(3, -7)) == dedekind_symbol(Slope(-3, 7))

    def test_twelve_times_sum_seeded(self):
        rng = random.Random(20261019)
        checked = negative = 0
        while checked < 500:
            p, q = rng.randint(-10**6, 10**6), rng.randint(1, 2000)
            if math.gcd(p, q) == 1:
                got = dedekind_symbol(Slope(p, q))
                assert type(got) is Fraction and got == 12 * dedekind_sum_fast(p, q), (p, q)
                checked += 1
                negative += p < 0
        assert negative > 200

    @given(coprime_pairs)
    def test_reciprocity(self, pq):
        p, q = pq
        lhs = dedekind_symbol(Slope(p, q)) + dedekind_symbol(Slope(q, p))
        pq_sign = 1 if p * q > 0 else -1
        rhs = Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q) - 3 * pq_sign
        assert lhs == rhs


class TestSlope:
    def test_canonicalization(self):
        s = Slope(-2, -4)
        assert (s.p, s.q) == (1, 2)
        assert Slope(3, -6) == Slope(-1, 2)
        assert Slope(0, 5) == Slope(0, 1)
        assert Slope(4) == Slope(4, 1)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            Slope(1, 0)
        with pytest.raises(ValueError, match="slope p/0"):
            Slope.parse("1/0")

    def test_parse(self):
        assert Slope.parse("3/1") == Slope(3, 1)
        assert Slope.parse("-1/1") == Slope(-1, 1)
        assert Slope.parse("7") == Slope(7, 1)
        assert Slope.parse(" -4/6 ") == Slope(-2, 3)
        for bad in ("", "x", "1/2/3", "3.5", "1/"):
            with pytest.raises(ValueError, match="malformed slope"):
                Slope.parse(bad)

    def test_parse_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        line = f"integer too long: {limit + 1} digits > Python's int() limit of {limit} digits"
        for text in (f"{'7' * (limit + 1)}/3", f" -1/{'7' * (limit + 1)} "):
            with pytest.raises(IntegerTooLong) as info:
                Slope.parse(text)
            assert str(info.value) == line
        with pytest.raises(ValueError, match="malformed slope"):
            Slope.parse(f"{'7' * (limit + 1)}x/3")

    def test_fraction_and_str(self):
        assert Slope(-4, 6).fraction == Fraction(-2, 3)
        assert str(Slope(5, 1)) == "5/1"


class TestParseInt:
    def test_reads_what_int_reads(self):
        for text in ("0", "-12", "+7", " 42 ", "1_000", "\t-3\n", "١٢"):
            assert parse_int(text) == int(text)

    def test_malformed_text_keeps_ints_error(self):
        for text in ("", "x", "1.5", "1__0", "_1", "1_", "- 1", "0x1f"):
            with pytest.raises(ValueError) as info:
                parse_int(text)
            assert type(info.value) is ValueError
            assert str(info.value) == f"invalid literal for int() with base 10: {text!r}"

    def test_past_the_limit_gives_the_length_only(self):
        limit = sys.get_int_max_str_digits()
        assert parse_int("9" * limit) == 10**limit - 1
        for text, digits in (("9" * (limit + 1), limit + 1), (f" -{'12_' * limit}3 ", 2 * limit + 1)):
            with pytest.raises(IntegerTooLong) as info:
                parse_int(text)
            assert isinstance(info.value, ValueError)
            assert str(info.value) == f"integer too long: {digits} digits > Python's int() limit of {limit} digits"
