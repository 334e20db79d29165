"""Obstruction test coverage: frozen verdicts, exact roots, soundness links."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cosmo.arith import Slope
from cosmo.casson_walker import casson_walker_link_surgery
from cosmo.links import (
    LinkSurgeryInvariants,
    invariants_from_diagram,
    pretzel_diagram,
)
from cosmo.obstructions import (
    ObstructionReport,
    chirally_cosmetic_obstruction,
    chirally_cosmetic_obstruction_ihs,
    pretzel_a3_closed_form,
    pretzel_analysis,
    purely_cosmetic_candidates_ihs,
    purely_cosmetic_obstruction_bl,
    purely_cosmetic_obstruction_thm4,
    purely_cosmetic_quadratic,
)

small_ints = st.integers(min_value=-5, max_value=5)


def lambda_w_difference(inv, p, s0):
    plus = casson_walker_link_surgery(inv, Slope(p, 1), s0).lambda_w
    minus = casson_walker_link_surgery(inv, Slope(-p, 1), s0).lambda_w
    return plus - minus


class TestReportType:
    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            ObstructionReport("maybe", None, (), "")

    def test_rejects_unsorted_candidates(self):
        with pytest.raises(ValueError, match="increasing"):
            ObstructionReport("inconclusive", (2, 1), (), "")

    def test_rejects_nonpositive_candidates(self):
        with pytest.raises(ValueError, match="positive"):
            ObstructionReport("inconclusive", (0, 1), (), "")

    def test_verdict_candidate_consistency(self):
        with pytest.raises(ValueError, match="disagree"):
            ObstructionReport("obstructed", (3,), (), "")
        with pytest.raises(ValueError, match="disagree"):
            ObstructionReport("inconclusive", (), (), "")

    def test_rejects_inexact_evidence(self):
        with pytest.raises(ValueError, match="exact"):
            ObstructionReport("inconclusive", None, (("x", 0.5),), "")


class TestCandidateDerivation:
    def test_derived_set(self):
        assert purely_cosmetic_candidates_ihs() == {1, 2}


class TestScalarObstructions:
    def test_alexander_derivative_test(self):
        assert purely_cosmetic_obstruction_bl(2).verdict == "obstructed"
        assert purely_cosmetic_obstruction_bl(-4).verdict == "obstructed"
        report = purely_cosmetic_obstruction_bl(0)
        assert report.verdict == "inconclusive"
        assert report.candidates is None

    def test_ambient_value_test(self):
        assert chirally_cosmetic_obstruction_ihs(Fraction(1, 18)).verdict == "obstructed"
        assert chirally_cosmetic_obstruction_ihs(Fraction(-2)).verdict == "obstructed"
        assert chirally_cosmetic_obstruction_ihs(Fraction(0)).verdict == "inconclusive"

    def test_denominator_family_test(self):
        assert purely_cosmetic_obstruction_thm4(1, 1, 0).verdict == "obstructed"
        assert purely_cosmetic_obstruction_thm4(-2, 1, -2).verdict == "inconclusive"
        assert purely_cosmetic_obstruction_thm4(0, 3, -2).verdict == "obstructed"
        with pytest.raises(ValueError):
            purely_cosmetic_obstruction_thm4(1, 0, 1)

    def test_inexact_inputs_are_refused(self):
        # the scalar reports hold the caller's values, so they keep the
        # constructor's exactness check
        with pytest.raises(ValueError, match="must be exact"):
            purely_cosmetic_obstruction_bl(0.5)
        with pytest.raises(ValueError, match="must be exact"):
            purely_cosmetic_obstruction_thm4(1.5, 1, 0)


class TestChirallyCosmetic:
    def test_zero_a2_family(self):
        for p0 in list(range(3, 101)) + [-p for p in range(3, 101)]:
            assert chirally_cosmetic_obstruction(0, p0).verdict == "obstructed"
        assert chirally_cosmetic_obstruction(0, 1).verdict == "inconclusive"
        assert chirally_cosmetic_obstruction(0, 2).verdict == "inconclusive"

    def test_square_discriminant_family(self):
        # 96*10 + 1 = 961 = 31^2, so the roots are 17 and -14
        assert chirally_cosmetic_obstruction(10, 17).verdict == "inconclusive"
        assert chirally_cosmetic_obstruction(10, 5).verdict == "obstructed"
        assert chirally_cosmetic_obstruction(10, -14).verdict == "inconclusive"

    def test_zero_framing_rejected(self):
        with pytest.raises(ValueError):
            chirally_cosmetic_obstruction(0, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_ints, st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=8))
    def test_verdict_matches_surgery_sum_for_positive_framing(self, a2, p0, p):
        report = chirally_cosmetic_obstruction(a2, p0)
        inv = LinkSurgeryInvariants(a2_x=0, a2_y=a2, a3=0, lk=0)
        plus = casson_walker_link_surgery(inv, Slope(p, 1), Slope(p0, 1)).lambda_w
        minus = casson_walker_link_surgery(inv, Slope(-p, 1), Slope(p0, 1)).lambda_w
        if report.verdict == "inconclusive":
            assert plus + minus == 0
        else:
            assert plus + minus != 0
        assert dict(report.evidence)["chirality_sum"] == plus + minus

    def test_negative_framing_sum_carries_constant_offset(self):
        # at negative framing the two matrix signatures sum to -2, not +2,
        # so a vanishing quadratic no longer forces a vanishing surgery sum
        report = chirally_cosmetic_obstruction(10, -14)
        assert report.verdict == "inconclusive"
        inv = LinkSurgeryInvariants(a2_x=0, a2_y=10, a3=0, lk=0)
        for p in (1, 2, 3, 7):
            plus = casson_walker_link_surgery(inv, Slope(p, 1), Slope(-14, 1)).lambda_w
            minus = casson_walker_link_surgery(inv, Slope(-p, 1), Slope(-14, 1)).lambda_w
            assert plus + minus == -1


class TestQuadraticCandidates:
    def test_hypothesis_errors(self):
        with pytest.raises(ValueError, match="linking number zero"):
            purely_cosmetic_quadratic(LinkSurgeryInvariants(0, 0, 0, 1), Slope(1, 1))
        with pytest.raises(ValueError, match="not allowed"):
            purely_cosmetic_quadratic(LinkSurgeryInvariants(0, 0, 0, 0), Slope(0, 1))

    def test_trivial_invariants_recover_unit_candidates(self):
        report = purely_cosmetic_quadratic(LinkSurgeryInvariants(0, 0, 0, 0), Slope(1, 1))
        assert report.verdict == "inconclusive"
        assert report.candidates == (1, 2)
        assert dict(report.evidence)["quadratic_constant_term"] == 2

    def test_negative_discriminant_case(self):
        report = purely_cosmetic_quadratic(LinkSurgeryInvariants(0, 5, -2, 0), Slope(-1, 1))
        assert report.verdict == "obstructed"
        assert report.candidates == ()
        assert dict(report.evidence)["discriminant"] == -191

    def test_candidates_really_are_roots(self):
        # constant term 2 - 24 a2x + 24 (q0/p0) a3 = -18 gives roots 6 and -3
        inv = LinkSurgeryInvariants(a2_x=0, a2_y=0, a3=-5, lk=0)
        s0 = Slope(6, 1)
        report = purely_cosmetic_quadratic(inv, s0)
        assert report.candidates == (6,)
        assert lambda_w_difference(inv, 6, s0) == 0
        for p in range(1, 30):
            if p not in report.candidates:
                assert lambda_w_difference(inv, p, s0) != 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(small_ints, small_ints, small_ints).map(
            lambda t: LinkSurgeryInvariants(t[0], t[1], t[2], 0)
        ),
        st.tuples(
            st.integers(min_value=-9, max_value=9).filter(lambda p: p != 0),
            st.integers(min_value=1, max_value=9),
        ).map(lambda t: Slope(*t)),
    )
    def test_exactness_of_candidate_set(self, inv, s0):
        report = purely_cosmetic_quadratic(inv, s0)
        assert len(report.candidates) <= 2
        assert (report.verdict == "obstructed") == (report.candidates == ())
        for p in range(1, 21):
            diff = lambda_w_difference(inv, p, s0)
            assert (diff == 0) == (p in report.candidates)


def quadratic_fraction_route(inv, s0):
    """Oracle: the candidate quadratic x^2 + lin x + const in Fraction
    arithmetic, its discriminant, and its positive integer roots."""
    lin = -Fraction(3 * 2, 2)
    const = 2 - 24 * inv.a2_x + 24 * Fraction(s0.q, s0.p) * inv.a3
    disc = lin * lin - 4 * const
    roots = set()
    rn, rd = math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator)
    if disc >= 0 and rn * rn == disc.numerator and rd * rd == disc.denominator:
        for root in (Fraction(rn, rd), -Fraction(rn, rd)):
            x = (-lin + root) / 2
            if x.denominator == 1 and x > 0:
                roots.add(int(x))
    return tuple(sorted(roots)), (
        ("signature_difference", 2),
        ("quadratic_linear_coefficient", lin),
        ("quadratic_constant_term", const),
        ("discriminant", disc),
    )


class TestQuadraticOracle:
    def check(self, inv, s0):
        candidates, evidence = quadratic_fraction_route(inv, s0)
        report = purely_cosmetic_quadratic(inv, s0)
        assert report.candidates == candidates, (inv, s0)
        assert report.verdict == ("inconclusive" if candidates else "obstructed")
        assert report.evidence == evidence
        assert [type(v) for _, v in report.evidence] == [type(v) for _, v in evidence]
        return report

    @pytest.mark.parametrize(
        "a2x, a3, s0, disc, candidates",
        [
            (0, 0, Slope(1), 1, (1, 2)),
            (-3, 1, Slope(-1, 3), 1, (1, 2)),  # negative p0
            (0, -5, Slope(6), 81, (6,)),
            (-3, 1, Slope(-2, 7), 49, (5,)),  # negative p0, a negative root dropped
            (0, -1, Slope(12), 9, (3,)),  # constant term 0: the root 0 dropped
            (0, -2, Slope(-1), -191, ()),  # negative discriminant
            (6, 1, Slope(96), 576, ()),  # square discriminant of the wrong parity
            (0, 1, Slope(-51), Fraction(49, 17), ()),  # square over a non-square
            (0, -1, Slope(25), Fraction(121, 25), ()),  # square over a square: roots not integers
        ],
    )
    def test_frozen_cases(self, a2x, a3, s0, disc, candidates):
        report = self.check(LinkSurgeryInvariants(a2x, 7, a3, 0), s0)
        assert dict(report.evidence)["discriminant"] == disc
        assert report.candidates == candidates

    def test_matches_fraction_route_on_seeded_inputs(self):
        rng = random.Random(20261021)
        seen = set()
        for _ in range(3000):
            p0, q0 = rng.choice([-1, 1]) * rng.randint(1, 120), rng.randint(1, 40)
            if math.gcd(p0, q0) != 1:
                continue
            inv = LinkSurgeryInvariants(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-30, 30), 0)
            report = self.check(inv, Slope(p0, q0))
            disc = dict(report.evidence)["discriminant"]
            seen.add((p0 < 0, disc < 0, disc.denominator > 1, bool(report.candidates)))
        assert len(seen) >= 8

    def test_pretzel_shares_the_quadratic(self):
        rng = random.Random(20261022)
        for _ in range(200):
            a, b = rng.randint(1, 12), rng.choice([-1, 1]) * rng.randint(1, 12)
            s0 = Slope(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            report = pretzel_analysis(a, b, s0)
            inv = LinkSurgeryInvariants(0, a * (a + 1) // 2, pretzel_a3_closed_form(a, b), 0)
            inner = self.check(inv, s0)
            assert report.candidates == inner.candidates and report.verdict == inner.verdict
            assert report.evidence[3:] == inner.evidence
            assert [type(v) for _, v in report.evidence[3:]] == [type(v) for _, v in inner.evidence]
            assert report.narrative.endswith(inner.narrative)


class TestPretzelAnalysis:
    def test_frozen_negative_framing(self):
        report = pretzel_analysis(1, 1, Slope(-1, 1))
        assert report.verdict == "obstructed"
        assert report.candidates == ()
        assert dict(report.evidence)["discriminant"] == -191

    def test_second_twist_count_negative_framing(self):
        report = pretzel_analysis(1, 2, Slope(-1, 1))
        assert report.verdict == "obstructed"
        assert dict(report.evidence)["discriminant"] == -863
        assert dict(report.evidence)["discriminant"] < 0

    def test_positive_framing_irrational_roots(self):
        report = pretzel_analysis(1, 1, Slope(1, 1))
        assert report.verdict == "obstructed"
        assert report.candidates == ()
        assert dict(report.evidence)["discriminant"] == 193

    def test_evidence_matches_diagram_invariants(self):
        for a, b in [(1, 1), (1, -1), (2, 1), (1, 2)]:
            report = pretzel_analysis(a, b, Slope(-1, 1))
            ev = dict(report.evidence)
            inv = invariants_from_diagram(pretzel_diagram(a, b))
            assert ev["a3_whole_link"] == inv.a3
            assert ev["a2_knot_component"] == inv.a2_y
            assert ev["a2_unknot_component"] == inv.a2_x == 0

    def test_obstructed_verdicts_back_up_with_direct_differences(self):
        report = pretzel_analysis(1, 1, Slope(-1, 1))
        assert report.verdict == "obstructed"
        inv = LinkSurgeryInvariants(
            a2_x=0,
            a2_y=dict(report.evidence)["a2_knot_component"],
            a3=dict(report.evidence)["a3_whole_link"],
            lk=0,
        )
        for p in range(1, 51):
            assert lambda_w_difference(inv, p, Slope(-1, 1)) != 0

    def test_bad_parameters_propagate(self):
        with pytest.raises(ValueError):
            pretzel_analysis(0, 1, Slope(-1, 1))
        with pytest.raises(ValueError):
            pretzel_analysis(1, 0, Slope(-1, 1))
        with pytest.raises(ValueError):
            pretzel_analysis(1, 1, Slope(0, 1))

    @pytest.mark.parametrize("a, b", [(Fraction(3, 2), 1), (1, 1.0), (2.5, 1)])
    def test_non_integer_parameters_are_refused(self, a, b):
        with pytest.raises(ValueError, match="pretzel parameters must be integers"):
            pretzel_analysis(a, b, Slope(1, 1))
        with pytest.raises(ValueError, match="pretzel parameters must be integers"):
            pretzel_a3_closed_form(a, b)
