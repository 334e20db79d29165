"""Cosmetic-surgery obstruction tests and candidate-slope enumeration.

Each test here is a necessary condition: "obstructed" means the cosmetic
pair in question is ruled out, "inconclusive" means the test is silent.  No
test ever asserts that a cosmetic pair exists.

Candidate enumeration is exact and stays in integers: the candidate
quadratic is monic with an integer linear coefficient, so one ``math.isqrt``
of its discriminant in lowest terms finds every integer root, and a slope is
a candidate only when it is a literal integer root.  Each evidence
``Fraction`` is built once, from integer numerators.  Where a report has
no meaningful candidate set (the scalar tests, when silent), the field is
None rather than an empty tuple; an empty tuple always means "everything is
ruled out".

``purely_cosmetic_quadratic`` and ``pretzel_analysis`` build their
``ObstructionReport`` without the constructor's checks, because each holds
by construction: ``_positive_integer_roots`` returns sorted, distinct,
positive integers, the verdict is read off whether there are any, and the
evidence is ints and ``Fraction``s (a float input raises in ``Fraction``
before any report exists).  The scalar tests keep the public constructor,
since their evidence holds the caller's own values, which it checks are
exact; so do ``_make`` and ``_replace``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import LinkSurgeryInvariants, Q, Slope, pretzel_a3_closed_form

__all__ = [
    "ObstructionReport",
    "purely_cosmetic_candidates_ihs",
    "purely_cosmetic_obstruction_bl",
    "chirally_cosmetic_obstruction_ihs",
    "purely_cosmetic_quadratic",
    "purely_cosmetic_obstruction_thm4",
    "chirally_cosmetic_obstruction",
    "pretzel_analysis",
    "pretzel_a3_closed_form",
]

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


class _ObstructionReportFields(NamedTuple):
    verdict: str
    candidates: tuple[int, ...] | None
    evidence: tuple[tuple[str, Fraction | int], ...]
    narrative: str


class ObstructionReport(_ObstructionReportFields):
    """Outcome of one obstruction test, with the exact numbers behind it."""

    __slots__ = ()

    def __new__(
        cls,
        verdict: str,
        candidates: tuple[int, ...] | None,
        evidence: tuple[tuple[str, Fraction | int], ...],
        narrative: str,
    ) -> "ObstructionReport":
        if verdict not in (OBSTRUCTED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {verdict!r}")
        if candidates is not None:
            if list(candidates) != sorted(set(candidates)):
                raise ValueError("candidates must be strictly increasing")
            if any(c < 1 for c in candidates):
                raise ValueError("candidates must be positive integers")
            if (verdict == OBSTRUCTED) != (len(candidates) == 0):
                raise ValueError("verdict and candidate set disagree")
        for name, value in evidence:
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"evidence {name!r} must be exact, got {type(value).__name__}")
        return super().__new__(cls, verdict, candidates, evidence, narrative)

    @classmethod
    def _make(cls, iterable) -> "ObstructionReport":
        return cls(*iterable)  # so _replace validates too


def _positive_integer_roots(b: int, disc: Fraction | int) -> tuple[int, ...]:
    """Positive integer roots of a monic x^2 + b x + c with integer b, found
    from its discriminant b^2 - 4c in lowest terms.  The roots (-b +- r)/2
    are integers only when disc is an integer square r^2 with r = b mod 2.
    """
    n = disc.numerator
    if disc.denominator != 1 or n < 0:
        return ()
    r = math.isqrt(n)
    if r * r != n or (r - b) % 2:
        return ()
    return tuple(x for x in sorted({(-b - r) // 2, (-b + r) // 2}) if x > 0)


def purely_cosmetic_candidates_ihs() -> set[int]:
    """Slopes on which an integral homology sphere could share its surgery
    with the mirror slope, derived from where twice the Dedekind sum s(1, p)
    vanishes: the closed-form numerator (p-1)(p-2) = p^2 - 3p + 2 is solved
    exactly.
    """
    return set(_positive_integer_roots(-3, 9 - 4 * 2))


def _scalar_report(
    value: Fraction | int, evidence: tuple[tuple[str, Fraction | int], ...], obstructed: str, silent: str
) -> ObstructionReport:
    """The report of a one-number test, which obstructs exactly when its value is nonzero."""
    if value:
        return ObstructionReport(OBSTRUCTED, (), evidence, obstructed)
    return ObstructionReport(INCONCLUSIVE, None, evidence, silent)


def purely_cosmetic_obstruction_bl(delta2: int) -> ObstructionReport:
    """Rules out purely cosmetic surgery pairs on a knot in an integral
    homology sphere whenever the Alexander second derivative at 1 is nonzero."""
    return _scalar_report(
        delta2,
        (("alexander_second_derivative_at_1", delta2),),
        "no purely cosmetic surgery pair exists: the Alexander second derivative at 1 is nonzero",
        "test silent: the Alexander second derivative at 1 vanishes",
    )


def chirally_cosmetic_obstruction_ihs(lambda_w_sigma: Fraction) -> ObstructionReport:
    """Rules out integral chirally cosmetic surgeries on knots in an ambient
    homology sphere whose own Casson-Walker value is nonzero."""
    value = Q(lambda_w_sigma)
    return _scalar_report(
        value,
        (("ambient_casson_walker", value),),
        "no integral chirally cosmetic surgery pair exists: the ambient Casson-Walker value is nonzero",
        "test silent: the ambient Casson-Walker value vanishes",
    )


def _quadratic(a2_x: int, a3: int, s0: Slope) -> tuple:
    """The fields of ``purely_cosmetic_quadratic``'s report, for lk = 0.

    With s0 = p0/q0 the quadratic is x^2 - 3x + c/p0, where
    c = (2 - 24 a2_x) p0 + 24 q0 a3, so its discriminant is (9 p0 - 4c)/p0.
    """
    p0 = s0.p
    if p0 == 0:
        raise ValueError("framing slope 0 on the second component is not allowed here")
    # With lk = 0 the framing matrices are diag(+-p, s0), and s0 != 0 gives
    # sig diag(p, s0) - sig diag(-p, s0) = 2 for every p > 0.
    sig_diff = 2
    lin = -3  # -3 sig_diff / 2
    c = (2 - 24 * a2_x) * p0 + 24 * s0.q * a3
    disc = Fraction(lin * lin * p0 - 4 * c, p0)
    candidates = _positive_integer_roots(lin, disc)
    hit = len(candidates) == 0
    if hit:
        narrative = (
            "no purely cosmetic surgery pair (+p, -p) exists for any positive integer p: "
            "the candidate quadratic has no positive integer root"
        )
    else:
        listed = ", ".join(str(x) for x in candidates)
        narrative = (
            f"only p in {{{listed}}} could give a purely cosmetic pair (+p, -p); "
            "all other coefficients are ruled out"
        )
    evidence = (
        ("signature_difference", sig_diff),
        ("quadratic_linear_coefficient", Fraction(lin)),
        ("quadratic_constant_term", Fraction(c, p0)),
        ("discriminant", disc),
    )
    return OBSTRUCTED if hit else INCONCLUSIVE, candidates, evidence, narrative


def purely_cosmetic_quadratic(inv: LinkSurgeryInvariants, s0: Slope) -> ObstructionReport:
    """Candidate surgery coefficients p for which +p and -p surgery on the
    first component (the second framed at s0) could agree.

    The difference of the two Casson-Walker values is a quadratic in p over
    the rationals, divided by -6p; its positive integer roots are the only
    possible candidates, and there are at most two.
    """
    if inv.lk != 0:
        raise ValueError("candidate test requires linking number zero")
    return tuple.__new__(ObstructionReport, _quadratic(inv.a2_x, inv.a3, s0))


def purely_cosmetic_obstruction_thm4(a2K: int, q0: int, a3L: int) -> ObstructionReport:
    """Rules out purely cosmetic pairs among surgeries p/q vs p/q' when the
    second component is framed at 1/q0, from a single integer difference."""
    if q0 == 0:
        raise ValueError("framing denominator q0 must be nonzero")
    diff = a2K - q0 * a3L
    return _scalar_report(
        diff,
        (("a2_minus_q0_times_a3", diff),),
        "no purely cosmetic pair of distinct denominators exists: a2 - q0*a3 is nonzero",
        "test silent: a2 - q0*a3 vanishes",
    )


def chirally_cosmetic_obstruction(a2K0: int, p0: int) -> ObstructionReport:
    """Rules out chirally cosmetic pairs (+p, -p) over all p at once: the sum
    of the two surgery values is independent of p and vanishes only when
    p0^2 - 3 p0 + 2 - 24 a2 does."""
    if p0 == 0:
        raise ValueError("framing coefficient p0 must be nonzero")
    value = p0 * p0 - 3 * p0 + 2 - 24 * a2K0
    evidence: tuple[tuple[str, Fraction | int], ...] = (("quadratic_value", value),)
    if p0 > 0:
        evidence += (("chirality_sum", Q(-value, 6 * p0)),)
    return _scalar_report(
        value,
        evidence,
        "no chirally cosmetic surgery pair (+p, -p) exists at this framing: "
        "the p-independent sum of the two surgery values is nonzero",
        "test silent: the sum of the two surgery values vanishes for every p",
    )


def pretzel_analysis(a: int, b: int, s0: Slope) -> ObstructionReport:
    """Runs the quadratic candidate test on the pretzel family with twist
    counts (2a+1, 2b, 2b), using the closed forms for its invariants."""
    a3 = pretzel_a3_closed_form(a, b)
    a2_knot = a * (a + 1) // 2
    verdict, candidates, evidence, narrative = _quadratic(0, a3, s0)  # the first component is the unknot
    evidence = (("a2_unknot_component", 0), ("a2_knot_component", a2_knot), ("a3_whole_link", a3)) + evidence
    prefix = f"pretzel with twist counts ({2 * a + 1}, {2 * b}, {2 * b}): "
    return tuple.__new__(ObstructionReport, (verdict, candidates, evidence, prefix + narrative))
