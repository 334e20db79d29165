"""Surgery formula tests: lens values, consistency, exact identities."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cosmo.arith import Q, Slope, dedekind_sum_naive, dedekind_symbol
from cosmo.casson_walker import (
    LinkingMatrix2,
    SurgeryResult,
    casson_boyer_lines,
    casson_walker_link_surgery,
    lambda_w_from_lambda,
    linking_matrix,
    signature_2x2,
)
from cosmo.links import LinkSurgeryInvariants, v3


def coprime_slope(p_lo, p_hi, q_hi):
    return (
        st.tuples(
            st.integers(min_value=p_lo, max_value=p_hi).filter(lambda p: p != 0),
            st.integers(min_value=1, max_value=q_hi),
        )
        .filter(lambda t: math.gcd(t[0], t[1]) == 1)
        .map(lambda t: Slope(*t))
    )


small_ints = st.integers(min_value=-5, max_value=5)

zero_lk_invariants = st.tuples(small_ints, small_ints, small_ints).map(
    lambda t: LinkSurgeryInvariants(a2_x=t[0], a2_y=t[1], a3=t[2], lk=0)
)


class TestLinkingMatrix:
    def test_construction_examples(self):
        a = linking_matrix(0, Slope(3, 1), Slope(-1, 1))
        assert (a.xx, a.yy, a.xy) == (3, -1, 0)
        assert a.det == -3

        b = linking_matrix(0, Slope(5, 1), Slope(7, 3))
        assert b.det == Fraction(35, 3)

        c = linking_matrix(1, Slope(1, 1), Slope(1, 1))
        assert c.det == 0

    def test_off_diagonal_must_be_integer(self):
        with pytest.raises(ValueError):
            LinkingMatrix2(xx=Fraction(1), yy=Fraction(1), xy=Fraction(1, 2))


class TestSignature2x2:
    def test_definite_cases(self):
        assert signature_2x2(LinkingMatrix2(Fraction(3), Fraction(5), 0)) == 2
        assert signature_2x2(LinkingMatrix2(Fraction(-2), Fraction(-3), 0)) == -2

    def test_indefinite_cases(self):
        assert signature_2x2(LinkingMatrix2(Fraction(-3), Fraction(5), 0)) == 0
        assert signature_2x2(LinkingMatrix2(Fraction(2), Fraction(-7, 3), 0)) == 0

    def test_negative_rational_diagonal(self):
        # second slope with numerator and denominator of opposite sign
        assert signature_2x2(linking_matrix(0, Slope(4, 1), Slope(-5, 3))) == 0

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="not a rational homology sphere"):
            signature_2x2(LinkingMatrix2(Fraction(1), Fraction(1), 1))

    @settings(max_examples=50, deadline=None)
    @given(coprime_slope(-9, 9, 9), coprime_slope(-9, 9, 9), st.integers(-3, 3))
    def test_matches_float_eigenvalue_signs(self, sx, sy, lk):
        a = linking_matrix(lk, sx, sy)
        assume(a.det != 0)
        # independent route: eigenvalue signs of the symmetric 2x2 float matrix
        xx, yy, xy = float(a.xx), float(a.yy), float(a.xy)
        mean = (xx + yy) / 2.0
        spread = math.hypot((xx - yy) / 2.0, xy)
        eigs = [mean - spread, mean + spread]
        expected = sum(1 if e > 0 else -1 for e in eigs)
        assert signature_2x2(a) == expected


class TestSurgeryResultType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="nonzero determinant"):
            SurgeryResult(Fraction(0), Fraction(0), 0, Fraction(0))
        with pytest.raises(ValueError, match="twice"):
            SurgeryResult(Fraction(1), Fraction(3), 2, Fraction(1))
        with pytest.raises(ValueError, match="signature"):
            SurgeryResult(Fraction(1), Fraction(3), 1, Fraction(1, 2))

    def test_doubling_helper(self):
        assert lambda_w_from_lambda(0) == 0
        assert lambda_w_from_lambda(Fraction(-1, 36)) == Fraction(-1, 18)
        assert lambda_w_from_lambda(Fraction(1, 4)) == Fraction(1, 2)


class TestLinkSurgery:
    def test_lens_space_values(self):
        inv = LinkSurgeryInvariants(0, 0, 0, 0)
        r = casson_walker_link_surgery(inv, Slope(3, 1), Slope(1, 1))
        assert r.lambda_w == Fraction(-1, 18)
        assert r.D == 3
        assert r.sigma == 2
        assert r.lambda_ == Fraction(-1, 36)

        assert casson_walker_link_surgery(inv, Slope(2, 1), Slope(1, 1)).lambda_w == 0

    def test_second_coefficient_contribution(self):
        inv = LinkSurgeryInvariants(1, 0, 0, 0)
        assert casson_walker_link_surgery(inv, Slope(1, 1), Slope(1, 1)).lambda_w == 2

    def test_singular_framing_rejected(self):
        inv = LinkSurgeryInvariants(0, 0, 0, 1)
        with pytest.raises(ValueError, match="not a rational homology sphere"):
            casson_walker_link_surgery(inv, Slope(1, 1), Slope(1, 1))

    @pytest.mark.parametrize(
        "inv",
        [LinkSurgeryInvariants(0, 0, 0, Fraction(1, 2)), LinkSurgeryInvariants(0, 0, Fraction(1, 5), 1)],
    )
    def test_non_integer_invariants_rejected(self, inv):
        with pytest.raises(ValueError, match="must be integers"):
            casson_walker_link_surgery(inv, Slope(3, 2), Slope(5, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(small_ints, small_ints, small_ints, st.integers(-3, 3)).map(
            lambda t: LinkSurgeryInvariants(*t)
        ),
        coprime_slope(-12, 12, 6),
        coprime_slope(-12, 12, 6),
    )
    def test_swap_symmetry(self, inv, sx, sy):
        a = linking_matrix(inv.lk, sx, sy)
        assume(a.det != 0)
        swapped = LinkSurgeryInvariants(inv.a2_y, inv.a2_x, inv.a3, inv.lk)
        left = casson_walker_link_surgery(inv, sx, sy)
        right = casson_walker_link_surgery(swapped, sy, sx)
        assert left.lambda_w == right.lambda_w
        assert left.sigma == right.sigma
        assert left.D == right.D

    @settings(max_examples=100, deadline=None)
    @given(small_ints, coprime_slope(-20, 20, 20))
    def test_consistent_with_knot_formula_on_split_unknot(self, a2, s):
        inv = LinkSurgeryInvariants(a2_x=a2, a2_y=0, a3=0, lk=0)
        link_route = casson_walker_link_surgery(inv, s, Slope(1, 1)).lambda_w
        knot_route = casson_boyer_lines(Fraction(0), 2 * a2, s)
        assert link_route == lambda_w_from_lambda(knot_route)


class TestSlamDunk:
    def test_knot_with_a_meridian(self):
        # K with a meridian of linking number eps has invariants
        # (a2(K), 0, eps a2(K), eps), and n on K with r on the meridian is
        # n - 1/r on K alone; the knot formula takes delta2 = 2 a2
        rng = random.Random(2102)
        checked = 0
        while checked < 600:
            a2, eps, n = rng.randint(-6, 6), rng.choice((1, -1)), rng.randint(-15, 15)
            r = Slope(rng.choice([p for p in range(-30, 31) if p]), rng.randint(1, 12))
            if n * r.p == r.q:  # the framing matrix is singular
                continue
            inv = LinkSurgeryInvariants(a2_x=a2, a2_y=0, a3=eps * a2, lk=eps)
            knot_route = casson_boyer_lines(Fraction(0), 2 * a2, Slope(n * r.p - r.q, r.p))
            assert casson_walker_link_surgery(inv, Slope(n), r).lambda_w == 2 * knot_route, (inv, n, r)
            checked += 1


def minus_continued_fraction(r: Fraction) -> list[int]:
    """[c1, c2, ...] with r = c1 - 1/(c2 - 1/(...)), taking c = ceil(r) at each step."""
    out = []
    while True:
        out.append(math.ceil(r))
        if r == out[-1]:
            return out
        r = 1 / (out[-1] - r)


def chain_slope(chain: list[int]) -> tuple[int, int]:
    """(P, Q) with P/Q = [a1, ..., aj]: the first column of the product of the [[a, -1], [1, 0]]."""
    (p, p_next), (q, q_next) = (1, 0), (0, 1)
    for a in chain:
        p, p_next = p * a + p_next, -p
        q, q_next = q * a + q_next, -q
    return p, q


class TestHopfChain:
    def test_hopf_link_at_two_rational_slopes(self):
        # r1 = [c1, ..., ck] and r2 = [d1, ..., dm] on the Hopf link is the
        # linear chain [ck, ..., c1, d1, ..., dm] of unknots, that is P/Q on
        # the unknot; Q = 0 gives S^3
        rng = random.Random(2205)
        cases = [(Slope(0), Slope(0), 1), (Slope(0), Slope(0), -1)]  # S^3
        while len(cases) < 1700:
            r1, r2 = (Slope(rng.randint(-25, 25), rng.randint(1, 9)) for _ in range(2))
            cases.append((r1, r2, rng.choice((1, -1))))
        checked = to_s3 = 0
        for r1, r2, lk in cases:
            p, q = chain_slope(minus_continued_fraction(r1.fraction)[::-1] + minus_continued_fraction(r2.fraction))
            if p == 0:  # the framing matrix is singular
                continue
            inv = LinkSurgeryInvariants(a2_x=0, a2_y=0, a3=0, lk=lk)
            lambda_w = casson_walker_link_surgery(inv, r1, r2).lambda_w
            if q == 0:
                assert lambda_w == 0, (r1, r2, lk)
                to_s3 += 1
            else:
                assert lambda_w == 2 * casson_boyer_lines(Fraction(0), 0, Slope(p, q)), (r1, r2, lk)
            checked += 1
        assert checked > 1600 and to_s3 >= 10

    def test_chain_helpers(self):
        assert minus_continued_fraction(Fraction(7, 3)) == [3, 2, 2]  # 3 - 1/(2 - 1/2) = 7/3
        assert minus_continued_fraction(Fraction(-5, 2)) == [-2, 2]
        assert chain_slope([3, 2, 2]) == (7, 3) and chain_slope([0, 0]) == (-1, 0)
        rng = random.Random(2206)
        for _ in range(200):
            r = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
            p, q = chain_slope(minus_continued_fraction(r))
            assert Fraction(p, q) == r


def ten_term_fraction_route(inv, sx, sy):
    """The surgery formula as a sum of ten Fraction terms, kept as an oracle.

    The library sums the same terms as one integer over 24 qx^2 qy^2.
    """
    a = linking_matrix(inv.lk, sx, sy)
    sigma = signature_2x2(a)
    d = a.det
    px, qx, py, qy = sx.p, sx.q, sy.p, sy.q
    lk2 = inv.lk * inv.lk
    rhs = (
        inv.a2_x * Q(py, qy)
        - Q(py, 24 * qy)
        - Q(py, 24 * qy * qx * qx)
        + Q(py * lk2, 24 * qy)
        + inv.a2_y * Q(px, qx)
        - Q(px, 24 * qx)
        - Q(px, 24 * qx * qy * qy)
        + Q(px * lk2, 24 * qx)
        + 2 * v3(inv)
        + (d / 24) * (dedekind_symbol(sx) - Q(px, qx) + dedekind_symbol(sy) - Q(py, qy))
    )
    lambda_w = 2 * (rhs / d + Q(sigma, 8))
    return SurgeryResult(lambda_w=lambda_w, D=d, sigma=sigma, lambda_=lambda_w / 2)


class TestTenTermOracle:
    def test_matches_fraction_route_on_seeded_inputs(self):
        rng = random.Random(20260601)

        def slope():
            p, q = rng.randint(-400, 400), rng.choice([1, rng.randint(1, 400)])
            return Slope(p, q)

        checked = singular = 0
        for _ in range(2400):
            inv = LinkSurgeryInvariants(
                rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-40, 40), rng.randint(-4, 4)
            )
            sx, sy = slope(), slope()
            if rng.random() < 0.05:  # a singular framing: px py = lk^2 qx qy
                px = rng.choice([1, 2, 4, 8, 16])
                inv, sx, sy = inv._replace(lk=rng.choice([-4, 4])), Slope(px), Slope(16 // px)
            try:
                expected = ten_term_fraction_route(inv, sx, sy)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    casson_walker_link_surgery(inv, sx, sy)
                singular += 1
                continue
            assert casson_walker_link_surgery(inv, sx, sy) == expected, (inv, sx, sy)
            checked += 1
        assert checked >= 2000 and singular > 0


class TestKnotSurgery:
    def test_integer_slope_closed_form(self):
        for p in range(1, 40):
            got = casson_boyer_lines(Fraction(0), 0, Slope(p, 1))
            assert got == Fraction(-(p - 1) * (p - 2), 24 * p)

    def test_unit_numerator(self):
        for q in (1, 2, 7, 30):
            assert casson_boyer_lines(Fraction(0), 2, Slope(1, q)) == q

    def test_ambient_passthrough(self):
        assert casson_boyer_lines(Fraction(1, 3), 0, Slope(1, 1)) == Fraction(1, 3)

    def test_zero_numerator_rejected(self):
        with pytest.raises(ValueError):
            casson_boyer_lines(Fraction(0), 0, Slope(0, 1))

    def test_matches_fraction_route_on_seeded_inputs(self):
        rng = random.Random(20261020)
        checked = negative = 0
        while checked < 400:
            p, q = rng.randint(-300, 300), rng.randint(1, 300)
            if p == 0 or math.gcd(p, q) != 1:
                continue
            lam = rng.choice([0, Fraction(rng.randint(-50, 50), rng.randint(1, 30))])
            delta2, s = rng.randint(-40, 40), Slope(p, q)
            sgn = 1 if p > 0 else -1
            expected = Q(lam) + Q(q, p) * Q(delta2, 2) - Q(sgn, 2) * dedekind_sum_naive(q, p)
            got = casson_boyer_lines(lam, delta2, s)
            assert type(got) is Fraction and got == expected, (lam, delta2, s)
            checked += 1
            negative += p < 0
        assert negative > 100

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(min_value=-3, max_value=3),
        st.integers(min_value=-6, max_value=6),
        coprime_slope(-15, 15, 15),
    )
    def test_ambient_term_is_additive(self, lam, delta2, s):
        base = casson_boyer_lines(Fraction(0), delta2, s)
        assert casson_boyer_lines(lam, delta2, s) == lam + base


class TestExactIdentities:
    @settings(max_examples=100, deadline=None)
    @given(
        zero_lk_invariants,
        st.integers(min_value=1, max_value=30),
        coprime_slope(-15, 15, 8),
    )
    def test_difference_identity(self, inv, p, s0):
        plus = casson_walker_link_surgery(inv, Slope(p, 1), s0).lambda_w
        minus = casson_walker_link_surgery(inv, Slope(-p, 1), s0).lambda_w
        sig_diff = signature_2x2(linking_matrix(0, Slope(p, 1), s0)) - signature_2x2(
            linking_matrix(0, Slope(-p, 1), s0)
        )
        assert sig_diff == 2
        quad = (
            p * p
            - Fraction(3 * sig_diff, 2) * p
            + 2
            - 24 * inv.a2_x
            + 24 * Fraction(s0.q, s0.p) * inv.a3
        )
        assert plus - minus == -quad / (6 * p)

    @settings(max_examples=100, deadline=None)
    @given(
        zero_lk_invariants,
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=25),
    )
    def test_chirality_sum_positive_framing(self, inv, p, p0):
        plus = casson_walker_link_surgery(inv, Slope(p, 1), Slope(p0, 1)).lambda_w
        minus = casson_walker_link_surgery(inv, Slope(-p, 1), Slope(p0, 1)).lambda_w
        expected = 2 * (
            Fraction(1, 4)
            + Fraction(2 * inv.a2_y, p0)
            - Fraction(1, 6 * p0)
            - Fraction(p0, 12)
        )
        assert plus + minus == expected

    @settings(max_examples=100, deadline=None)
    @given(
        zero_lk_invariants,
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=-25, max_value=25).filter(lambda v: v != 0),
    )
    def test_chirality_sum_any_framing(self, inv, p, p0):
        # the constant term tracks the two matrix signatures, which flip
        # together when the second framing goes negative
        sp = signature_2x2(linking_matrix(0, Slope(p, 1), Slope(p0, 1)))
        sm = signature_2x2(linking_matrix(0, Slope(-p, 1), Slope(p0, 1)))
        assert (sp + sm) == (2 if p0 > 0 else -2)
        plus = casson_walker_link_surgery(inv, Slope(p, 1), Slope(p0, 1)).lambda_w
        minus = casson_walker_link_surgery(inv, Slope(-p, 1), Slope(p0, 1)).lambda_w
        expected = 2 * (
            Fraction(sp + sm, 8)
            + Fraction(2 * inv.a2_y, p0)
            - Fraction(1, 6 * p0)
            - Fraction(p0, 12)
        )
        assert plus + minus == expected
