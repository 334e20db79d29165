"""Exact rational arithmetic for surgery slopes and Dedekind sums.

Rationals are ``fractions.Fraction`` throughout: always reduced, positive
denominator, no floats anywhere.  The Dedekind sum used here is

    s(p, q) = sum_{k=1}^{|q|-1} ((k/q)) ((k p / q)),      gcd(p, q) = 1,

with the sawtooth ((x)) = x - floor(x) - 1/2 for non-integer x (and an error
at integers; the value 0 convention is never needed because the summation
skips integer arguments automatically when gcd(p, q) = 1).  The second
argument q is the modulus.  The literal sum is even in the sign of the
modulus, s(p, -q) = s(p, q), and odd in the first argument; the sign of a
fraction is carried by the normalized Dedekind symbol

    S(p/q) = 12 sign(q) s(p, q),

which is well defined on the fraction p/q and satisfies the reciprocity law

    S(p/q) + S(q/p) = p/q + q/p + 1/(pq) - 3 sign(pq).

All functions are pure; the module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

__all__ = [
    "Q",
    "Slope",
    "sawtooth",
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "dedekind_symbol",
]


@dataclass(frozen=True)
class Slope:
    """A finite surgery slope p/q in lowest terms with q > 0.

    The infinite slope 1/0 is rejected at construction: every slope handled
    by this package labels an honest Dehn filling, and the formulas downstream
    all require a finite coefficient.  The sign lives entirely in p.
    """

    p: int
    q: int = 1

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if q == 0:
            raise ValueError("slope p/0 rejected: infinite slope is not a valid surgery coefficient here")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q' or a bare integer 'p' (meaning p/1)."""
        try:
            nums = [int(t) for t in text.strip().split("/")]
        except ValueError:
            nums = []
        if not 1 <= len(nums) <= 2:
            raise ValueError(f"malformed slope {text!r}: expected 'p/q' with integer p, q")
        return cls(*nums)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)) = x - floor(x) - 1/2 for non-integer rational x."""
    x = Fraction(x)
    if x.denominator == 1:
        raise ValueError(f"sawtooth undefined at integer argument {x}")
    return x - math.floor(x) - Fraction(1, 2)


def _require_coprime(p: int, q: int) -> None:
    if q == 0:
        raise ValueError("Dedekind sum needs a nonzero modulus q")
    if math.gcd(p, q) != 1:
        raise ValueError(f"Dedekind sum needs gcd(p, q) = 1, got p={p}, q={q}")


def dedekind_sum_naive(p: int, q: int) -> Fraction:
    """s(p, q) by literal summation, O(|q|) integer operations.

    For 0 < k < |q| the sawtooth arguments are never integers (gcd(p, q) = 1),
    so ((k/m)) = (2k - m)/(2m) and ((kp/m)) = (2r - m)/(2m) with m = |q| and
    r = kp mod m; the whole sum collapses to one Fraction at the end.
    """
    _require_coprime(p, q)
    m = abs(q)
    acc = 0
    for k in range(1, m):
        r = (k * p) % m
        acc += (2 * k - m) * (2 * r - m)
    return Fraction(acc, 4 * m * m)


def dedekind_sum_fast(p: int, q: int) -> Fraction:
    """s(p, q) via the reciprocity recursion, O(log |q|) exact steps.

    Uses 12 s(h, k) = (h^2 + k^2 + 1 - 3 h k)/(h k) - 12 s(k mod h, h) for
    coprime 0 < h < k, unwinding like the Euclidean algorithm.  Evenness in
    the modulus sign and periodicity in the first argument are applied first.
    The terms are summed over one integer denominator, and one Fraction is
    built at the end.  6 q s(p, q) is an integer (Rademacher-Grosswald,
    *Dedekind Sums*, ch. 3), which the surgery formula relies on.
    """
    _require_coprime(p, q)
    k = abs(q)
    h = p % k  # reduces to 0 <= h < k; oddness is recovered through the recursion
    num, den, sign = 0, 1, 1  # 12 s = num/den
    while k > 1:
        hk = h * k
        num = num * hk + sign * (h * h + k * k + 1 - 3 * hk) * den
        den *= hk
        sign = -sign
        h, k = k % h, h
    return Fraction(num, 12 * den)


def dedekind_symbol(s: Slope) -> Fraction:
    """Normalized symbol S(p/q) = 12 sign(q) s(p, q) of a finite slope."""
    # Slope rejects q = 0 and keeps q > 0, so sign(q) = 1 after canonicalization.
    return 12 * dedekind_sum_fast(s.p, s.q)
