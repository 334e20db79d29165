"""Surgery formulas for the Casson-Walker invariant.

Two routes are implemented.  ``casson_boyer_lines`` handles a knot in an
integral homology sphere: the surgered value is the ambient value plus a
term in the second derivative of the Alexander polynomial and a Dedekind
sum correction.  ``casson_walker_link_surgery`` handles surgery on both
components of a 2-component link with framing matrix
[[px/qx, lk], [lk, py/qy]]; the defining relation fixes lambda_w / 2 up to
the matrix signature times 1/8 and a sum of ten exact rational terms, and
is solved for lambda_w by division by the determinant, which must be
nonzero (the result is a rational homology sphere exactly then).  The ten
terms are summed as one integer over 24 qx^2 qy^2, exact because 6 q s(p, q)
is an integer.  The Dedekind sums enter as integer pairs, and a call builds
three ``Fraction``s, one each for lambda_w, D and lambda; the knot route
builds one term ``Fraction`` and adds the ambient value to it.

Both normalizations are carried: lambda_w (Walker) is twice lambda (Casson),
and SurgeryResult stores the pair so no caller needs to re-derive one from
the other.

``casson_walker_link_surgery`` builds its ``SurgeryResult`` without the
constructor's checks, because each holds by construction: ``_signature``
refuses a zero determinant and returns only -2, 0 or 2, and lambda_w and
lambda are built from the same numerator and denominator.  The public
constructor, ``_make`` and ``_replace`` keep every check for other callers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import LinkSurgeryInvariants, Q, Slope, _twelve_s

__all__ = [
    "LinkingMatrix2",
    "SurgeryResult",
    "linking_matrix",
    "signature_2x2",
    "casson_walker_link_surgery",
    "casson_boyer_lines",
    "lambda_w_from_lambda",
]


class _LinkingMatrix2Fields(NamedTuple):
    xx: Fraction
    yy: Fraction
    xy: int


class LinkingMatrix2(_LinkingMatrix2Fields):
    """Symmetric 2x2 framing matrix with rational diagonal, integer corner."""

    __slots__ = ()

    def __new__(cls, xx: Fraction, yy: Fraction, xy: int) -> "LinkingMatrix2":
        xx, yy = Q(xx), Q(yy)
        if not isinstance(xy, int):
            raise ValueError(f"off-diagonal entry must be an integer, got {xy!r}")
        return super().__new__(cls, xx, yy, xy)

    @classmethod
    def _make(cls, iterable) -> "LinkingMatrix2":
        return cls(*iterable)  # so _replace validates too

    @property
    def det(self) -> Fraction:
        return self.xx * self.yy - self.xy * self.xy

    @property
    def trace(self) -> Fraction:
        return self.xx + self.yy


class _SurgeryResultFields(NamedTuple):
    lambda_w: Fraction
    D: Fraction
    sigma: int
    lambda_: Fraction


class SurgeryResult(_SurgeryResultFields):
    """Exact surgery output: both normalizations, determinant, signature."""

    __slots__ = ()

    def __new__(cls, lambda_w: Fraction, D: Fraction, sigma: int, lambda_: Fraction) -> "SurgeryResult":
        if D == 0:
            raise ValueError("surgery result requires a nonzero determinant")
        if lambda_w != 2 * lambda_:
            raise ValueError("normalizations disagree: lambda_w must be twice lambda_")
        if sigma not in (-2, 0, 2):
            raise ValueError(f"signature of a nondegenerate 2x2 form must be -2, 0 or 2, got {sigma}")
        return super().__new__(cls, lambda_w, D, sigma, lambda_)

    @classmethod
    def _make(cls, iterable) -> "SurgeryResult":
        return cls(*iterable)  # so _replace validates too


def linking_matrix(lk: int, sx: Slope, sy: Slope) -> LinkingMatrix2:
    """Framing matrix of the surgery: slopes on the diagonal, lk off it."""
    return LinkingMatrix2(xx=sx.fraction, yy=sy.fraction, xy=lk)


def _signature(det, trace) -> int:
    """Signature of a symmetric 2x2 form from the signs of its determinant and trace."""
    if det == 0:
        raise ValueError("not a rational homology sphere (framing matrix is singular)")
    if det < 0:
        return 0
    return 2 if trace > 0 else -2


def signature_2x2(a: LinkingMatrix2) -> int:
    """Signature of the framing matrix, decided in exact rational arithmetic."""
    return _signature(a.det, a.trace)


def casson_walker_link_surgery(
    inv: LinkSurgeryInvariants, sx: Slope, sy: Slope
) -> SurgeryResult:
    """Casson-Walker invariant of surgery on both components of a link.

    The ten-term right side below, divided by the framing determinant and
    shifted by signature/8, is half of lambda_w.  Each line of n below is
    24 qx^2 qy^2 times the term in its comment, an integer since
    q S(p/q) = 12 q s(p, q) is one (Rademacher-Grosswald, *Dedekind Sums*,
    ch. 3).  With dn = det qx qy, lambda_w = (n + 3 sigma qx qy dn) / (12 qx qy dn).
    """
    a2_x, a2_y, a3, lk = inv
    if not (isinstance(a2_x, int) and isinstance(a2_y, int) and isinstance(a3, int) and isinstance(lk, int)):
        raise ValueError(f"link invariants must be integers, got {inv!r}")
    px, qx, py, qy = sx.p, sx.q, sy.p, sy.q
    qx2, qy2, lk2 = qx * qx, qy * qy, lk * lk
    dn = px * py - lk2 * qx * qy
    sigma = _signature(dn, px * qy + py * qx)  # det and trace times qx qy > 0
    v3_24 = 12 * (-a3 + (a2_x + a2_y) * lk) + lk * lk2 - lk  # 24 v3, as in arith.v3
    (qs_x, _), (qs_y, _) = _twelve_s(px, qx), _twelve_s(py, qy)  # q S(p/q), as q > 0
    n = (
        24 * a2_x * py * qy * qx2  # a2_x py/qy
        - py * qy * qx2  # - py/(24 qy)
        - py * qy  # - py/(24 qy qx^2)
        + py * lk2 * qy * qx2  # + py lk^2/(24 qy)
        + 24 * a2_y * px * qx * qy2  # + a2_y px/qx
        - px * qx * qy2  # - px/(24 qx)
        - px * qx  # - px/(24 qx qy^2)
        + px * lk2 * qx * qy2  # + px lk^2/(24 qx)
        + 2 * v3_24 * qx2 * qy2  # + 2 v3
        + dn * (qy * qs_x - px * qy + qx * qs_y - py * qx)  # + (det/24)(S(sx) - px/qx + S(sy) - py/qy)
    )
    num, den = n + 3 * sigma * qx * qy * dn, 12 * qx * qy * dn
    # _signature refused dn = 0 and returned -2, 0 or 2, and both
    # normalizations come from one num/den: every check of SurgeryResult holds
    return tuple.__new__(SurgeryResult, (Fraction(num, den), Fraction(dn, qx * qy), sigma, Fraction(num, 2 * den)))


def casson_boyer_lines(lambda_sigma: Fraction, delta2: int, s: Slope) -> Fraction:
    """Casson invariant of p/q surgery on a knot in an integral homology sphere.

    ambient + (q/p) * delta2 / 2 - sign(p)/2 * s(q, p), all exact; delta2 is
    the second derivative of the symmetric Alexander polynomial at 1.  With
    12 s(q, p) = n/|p| the last two terms are (12 q delta2 - n)/(24 p).
    """
    if s.p == 0:
        raise ValueError("surgery coefficient 0 does not give a rational homology sphere here")
    n, _ = _twelve_s(s.q, s.p)
    return Q(lambda_sigma) + Fraction(12 * s.q * delta2 - n, 24 * s.p)


def lambda_w_from_lambda(lam: Fraction) -> Fraction:
    """Walker normalization from Casson normalization (doubling)."""
    return 2 * Q(lam)
