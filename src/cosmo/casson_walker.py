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
is an integer.

Both normalizations are carried: lambda_w (Walker) is twice lambda (Casson),
and SurgeryResult stores the pair so no caller needs to re-derive one from
the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Q, Slope, dedekind_sum_fast, dedekind_symbol
from .links import LinkSurgeryInvariants, v3

__all__ = [
    "LinkingMatrix2",
    "SurgeryResult",
    "linking_matrix",
    "signature_2x2",
    "casson_walker_link_surgery",
    "casson_boyer_lines",
    "lambda_w_from_lambda",
]


@dataclass(frozen=True)
class LinkingMatrix2:
    """Symmetric 2x2 framing matrix with rational diagonal, integer corner."""

    xx: Fraction
    yy: Fraction
    xy: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "xx", Q(self.xx))
        object.__setattr__(self, "yy", Q(self.yy))
        if not isinstance(self.xy, int):
            raise ValueError(f"off-diagonal entry must be an integer, got {self.xy!r}")

    @property
    def det(self) -> Fraction:
        return self.xx * self.yy - self.xy * self.xy

    @property
    def trace(self) -> Fraction:
        return self.xx + self.yy


@dataclass(frozen=True)
class SurgeryResult:
    """Exact surgery output: both normalizations, determinant, signature."""

    lambda_w: Fraction
    D: Fraction
    sigma: int
    lambda_: Fraction

    def __post_init__(self) -> None:
        if self.D == 0:
            raise ValueError("surgery result requires a nonzero determinant")
        if self.lambda_w != 2 * self.lambda_:
            raise ValueError("normalizations disagree: lambda_w must be twice lambda_")
        if self.sigma not in (-2, 0, 2):
            raise ValueError(f"signature of a nondegenerate 2x2 form must be -2, 0 or 2, got {self.sigma}")


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
    if not all(isinstance(x, int) for x in inv):
        raise ValueError(f"link invariants must be integers, got {inv!r}")
    px, qx, py, qy, lk = sx.p, sx.q, sy.p, sy.q, inv.lk
    dn = px * py - lk * lk * qx * qy
    sigma = _signature(dn, px * qy + py * qx)  # det and trace times qx qy > 0
    qx2, qy2, lk2 = qx * qx, qy * qy, lk * lk
    v3_24 = (24 * v3(inv)).numerator  # 24 v3 = 12 (-a3 + (a2_x + a2_y) lk) + lk^3 - lk
    s_x, s_y = dedekind_symbol(sx), dedekind_symbol(sy)
    qs_x, qs_y = qx * s_x.numerator // s_x.denominator, qy * s_y.numerator // s_y.denominator
    n = (
        24 * inv.a2_x * py * qy * qx2  # a2_x py/qy
        - py * qy * qx2  # - py/(24 qy)
        - py * qy  # - py/(24 qy qx^2)
        + py * lk2 * qy * qx2  # + py lk^2/(24 qy)
        + 24 * inv.a2_y * px * qx * qy2  # + a2_y px/qx
        - px * qx * qy2  # - px/(24 qx)
        - px * qx  # - px/(24 qx qy^2)
        + px * lk2 * qx * qy2  # + px lk^2/(24 qx)
        + 2 * v3_24 * qx2 * qy2  # + 2 v3
        + dn * (qy * qs_x - px * qy + qx * qs_y - py * qx)  # + (det/24)(S(sx) - px/qx + S(sy) - py/qy)
    )
    lambda_w = Fraction(n + 3 * sigma * qx * qy * dn, 12 * qx * qy * dn)
    return SurgeryResult(lambda_w=lambda_w, D=Fraction(dn, qx * qy), sigma=sigma, lambda_=lambda_w / 2)


def casson_boyer_lines(lambda_sigma: Fraction, delta2: int, s: Slope) -> Fraction:
    """Casson invariant of p/q surgery on a knot in an integral homology sphere.

    ambient + (q/p) * delta2 / 2 - sign(p)/2 * s(q, p), all exact; delta2 is
    the second derivative of the symmetric Alexander polynomial at 1.
    """
    if s.p == 0:
        raise ValueError("surgery coefficient 0 does not give a rational homology sphere here")
    sgn = 1 if s.p > 0 else -1
    return (
        Q(lambda_sigma)
        + Q(s.q, s.p) * Q(delta2, 2)
        - Q(sgn, 2) * dedekind_sum_fast(s.q, s.p)
    )


def lambda_w_from_lambda(lam: Fraction) -> Fraction:
    """Walker normalization from Casson normalization (doubling)."""
    return 2 * Q(lam)
