"""Cosmetic-surgery obstruction tests and candidate-slope enumeration.

Each test here is a necessary condition: "obstructed" means the cosmetic
pair in question is ruled out, "inconclusive" means the test is silent.  No
test ever asserts that a cosmetic pair exists.

Candidate enumeration is exact.  Quadratics are solved in rational
arithmetic with a perfect-square discriminant check, so a slope is reported
as a candidate only when it is a literal integer root.  Where a report has
no meaningful candidate set (the scalar tests, when silent), the field is
None rather than an empty tuple; an empty tuple always means "everything is
ruled out".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Q, Slope
from .links import LinkSurgeryInvariants, pretzel_a3_closed_form

__all__ = [
    "ObstructionReport",
    "purely_cosmetic_candidates_ihs",
    "purely_cosmetic_obstruction_bl",
    "chirally_cosmetic_obstruction_ihs",
    "purely_cosmetic_quadratic",
    "purely_cosmetic_obstruction_thm4",
    "chirally_cosmetic_obstruction",
    "pretzel_analysis",
]

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of one obstruction test, with the exact numbers behind it."""

    verdict: str
    candidates: tuple[int, ...] | None
    evidence: tuple[tuple[str, Fraction | int], ...]
    narrative: str

    def __post_init__(self) -> None:
        if self.verdict not in (OBSTRUCTED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.candidates is not None:
            if list(self.candidates) != sorted(set(self.candidates)):
                raise ValueError("candidates must be strictly increasing")
            if any(c < 1 for c in self.candidates):
                raise ValueError("candidates must be positive integers")
            if (self.verdict == OBSTRUCTED) != (len(self.candidates) == 0):
                raise ValueError("verdict and candidate set disagree")
        for name, value in self.evidence:
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"evidence {name!r} must be exact, got {type(value).__name__}")


def _exact_sqrt(f: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None if it is irrational."""
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Q(rn, rd)
    return None


def _positive_integer_roots(c1: Fraction, c0: Fraction) -> tuple[int, ...]:
    """Positive integer roots of the monic x^2 + c1 x + c0, found exactly."""
    root = _exact_sqrt(Q(c1 * c1 - 4 * c0))
    if root is None:
        return ()
    found = set()
    for s in (root, -root):
        x = (-c1 + s) / 2
        if x.denominator == 1 and x > 0:
            found.add(int(x))
    return tuple(sorted(found))


def purely_cosmetic_candidates_ihs() -> set[int]:
    """Slopes on which an integral homology sphere could share its surgery
    with the mirror slope, derived from where twice the Dedekind sum s(1, p)
    vanishes: the closed-form numerator (p-1)(p-2) = p^2 - 3p + 2 is solved
    exactly.
    """
    return set(_positive_integer_roots(Q(-3), Q(2)))


def purely_cosmetic_obstruction_bl(delta2: int) -> ObstructionReport:
    """Rules out purely cosmetic surgery pairs on a knot in an integral
    homology sphere whenever the Alexander second derivative at 1 is nonzero."""
    hit = delta2 != 0
    return ObstructionReport(
        verdict=OBSTRUCTED if hit else INCONCLUSIVE,
        candidates=() if hit else None,
        evidence=(("alexander_second_derivative_at_1", delta2),),
        narrative=(
            "no purely cosmetic surgery pair exists: the Alexander second derivative at 1 is nonzero"
            if hit
            else "test silent: the Alexander second derivative at 1 vanishes"
        ),
    )


def chirally_cosmetic_obstruction_ihs(lambda_w_sigma: Fraction) -> ObstructionReport:
    """Rules out integral chirally cosmetic surgeries on knots in an ambient
    homology sphere whose own Casson-Walker value is nonzero."""
    value = Q(lambda_w_sigma)
    hit = value != 0
    return ObstructionReport(
        verdict=OBSTRUCTED if hit else INCONCLUSIVE,
        candidates=() if hit else None,
        evidence=(("ambient_casson_walker", value),),
        narrative=(
            "no integral chirally cosmetic surgery pair exists: the ambient Casson-Walker value is nonzero"
            if hit
            else "test silent: the ambient Casson-Walker value vanishes"
        ),
    )


def purely_cosmetic_quadratic(inv: LinkSurgeryInvariants, s0: Slope) -> ObstructionReport:
    """Candidate surgery coefficients p for which +p and -p surgery on the
    first component (the second framed at s0) could agree.

    The difference of the two Casson-Walker values is a quadratic in p over
    the rationals, divided by -6p; its positive integer roots are the only
    possible candidates, and there are at most two.
    """
    if inv.lk != 0:
        raise ValueError("candidate test requires linking number zero")
    if s0.p == 0:
        raise ValueError("framing slope 0 on the second component is not allowed here")
    # With lk = 0 the framing matrices are diag(+-p, s0), and s0 != 0 gives
    # sig diag(p, s0) - sig diag(-p, s0) = 2 for every p > 0.
    sig_diff = 2
    lin = -Q(3 * sig_diff, 2)
    const = 2 - 24 * inv.a2_x + 24 * Q(s0.q, s0.p) * inv.a3
    disc = lin * lin - 4 * const
    candidates = _positive_integer_roots(lin, const)
    hit = len(candidates) == 0
    if hit:
        narrative = (
            "no purely cosmetic surgery pair (+p, -p) exists for any positive integer p: "
            "the candidate quadratic has no positive integer root"
        )
    else:
        listed = ", ".join(str(c) for c in candidates)
        narrative = (
            f"only p in {{{listed}}} could give a purely cosmetic pair (+p, -p); "
            "all other coefficients are ruled out"
        )
    return ObstructionReport(
        verdict=OBSTRUCTED if hit else INCONCLUSIVE,
        candidates=candidates,
        evidence=(
            ("signature_difference", sig_diff),
            ("quadratic_linear_coefficient", lin),
            ("quadratic_constant_term", const),
            ("discriminant", disc),
        ),
        narrative=narrative,
    )


def purely_cosmetic_obstruction_thm4(a2K: int, q0: int, a3L: int) -> ObstructionReport:
    """Rules out purely cosmetic pairs among surgeries p/q vs p/q' when the
    second component is framed at 1/q0, from a single integer difference."""
    if q0 == 0:
        raise ValueError("framing denominator q0 must be nonzero")
    diff = a2K - q0 * a3L
    hit = diff != 0
    return ObstructionReport(
        verdict=OBSTRUCTED if hit else INCONCLUSIVE,
        candidates=() if hit else None,
        evidence=(("a2_minus_q0_times_a3", diff),),
        narrative=(
            "no purely cosmetic pair of distinct denominators exists: a2 - q0*a3 is nonzero"
            if hit
            else "test silent: a2 - q0*a3 vanishes"
        ),
    )


def chirally_cosmetic_obstruction(a2K0: int, p0: int) -> ObstructionReport:
    """Rules out chirally cosmetic pairs (+p, -p) over all p at once: the sum
    of the two surgery values is independent of p and vanishes only when
    p0^2 - 3 p0 + 2 - 24 a2 does."""
    if p0 == 0:
        raise ValueError("framing coefficient p0 must be nonzero")
    value = p0 * p0 - 3 * p0 + 2 - 24 * a2K0
    hit = value != 0
    evidence: list[tuple[str, Fraction | int]] = [("quadratic_value", value)]
    if p0 > 0:
        evidence.append(("chirality_sum", Q(-value, 6 * p0)))
    return ObstructionReport(
        verdict=OBSTRUCTED if hit else INCONCLUSIVE,
        candidates=() if hit else None,
        evidence=tuple(evidence),
        narrative=(
            "no chirally cosmetic surgery pair (+p, -p) exists at this framing: "
            "the p-independent sum of the two surgery values is nonzero"
            if hit
            else "test silent: the sum of the two surgery values vanishes for every p"
        ),
    )


def pretzel_analysis(a: int, b: int, s0: Slope) -> ObstructionReport:
    """Runs the quadratic candidate test on the pretzel family with twist
    counts (2a+1, 2b, 2b), using the closed forms for its invariants."""
    a3 = pretzel_a3_closed_form(a, b)
    a2_knot = a * (a + 1) // 2
    inv = LinkSurgeryInvariants(a2_x=0, a2_y=a2_knot, a3=a3, lk=0)
    inner = purely_cosmetic_quadratic(inv, s0)
    evidence = (
        ("a2_unknot_component", 0),
        ("a2_knot_component", a2_knot),
        ("a3_whole_link", a3),
    ) + inner.evidence
    return ObstructionReport(
        verdict=inner.verdict,
        candidates=inner.candidates,
        evidence=evidence,
        narrative=f"pretzel with twist counts ({2 * a + 1}, {2 * b}, {2 * b}): " + inner.narrative,
    )
