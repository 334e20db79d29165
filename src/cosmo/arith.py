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

The link data the surgery formula consumes, ``LinkSurgeryInvariants`` and
its finite-type combination ``v3``, live here too, and so does the closed
form for a3 of the (2a+1, 2b, 2b) pretzel links, ``pretzel_a3_closed_form``:
the formula and the obstruction tests need no diagram code, and the diagram
code needs no obstruction test.

All functions are pure; the module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

Q = Fraction

__all__ = [
    "Q",
    "IntegerTooLong",
    "parse_int",
    "Slope",
    "sawtooth",
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "dedekind_symbol",
    "LinkSurgeryInvariants",
    "v3",
]


class IntegerTooLong(ValueError):
    """A well-formed integer with more digits than Python reads from text."""


# the text int() reads, so that text it refuses that matches is past the
# limit; compiled on the first refusal, not on import
_INTEGER = r"\s*[+-]?\d+(?:_\d+)*\s*"


def parse_int(text: str) -> int:
    """``int(text)``, but past Python's limit on the digits int() reads the
    error is ``IntegerTooLong`` with one line that gives the length of the
    integer, not its digits."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(_INTEGER, text):
            raise
    digits, limit = sum(map(str.isdecimal, text)), sys.get_int_max_str_digits()
    raise IntegerTooLong(f"integer too long: {digits} digits > Python's int() limit of {limit} digits")


class _SlopeFields(NamedTuple):
    p: int
    q: int = 1


class Slope(_SlopeFields):
    """A finite surgery slope p/q in lowest terms with q > 0.

    The infinite slope 1/0 is rejected at construction: every slope handled
    by this package labels an honest Dehn filling, and the formulas downstream
    all require a finite coefficient.  The sign lives entirely in p.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int = 1) -> "Slope":
        if q == 0:
            raise ValueError("slope p/0 rejected: infinite slope is not a valid surgery coefficient here")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable) -> "Slope":
        return cls(*iterable)  # so _replace validates too

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q' or a bare integer 'p' (meaning p/1)."""
        try:
            nums = [parse_int(t) for t in text.strip().split("/")]
        except IntegerTooLong:
            raise
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


def _twelve_s(p: int, q: int) -> tuple[int, int]:
    """12 s(p, q) = num/|q| as an integer pair (num, |q|).

    With k = |q| > 1, h = p mod k, h/k = [0; a1, ..., an] and h h* = 1
    (mod k), Hickerson's continued-fraction form (1977) reads

        12 s(h, k) = a1 - a2 + ... + (-1)^(n+1) an + (h + h*)/k - (3 if n is odd else 1).

    Evenness in the modulus sign and periodicity in the first argument are
    applied first, and every integer in the Euclidean steps is at most k.

    The caller guarantees q != 0 and gcd(p, q) = 1: ``dedekind_sum_fast``
    checks its raw integers first, and the other callers pass the two fields
    of a ``Slope``, which are coprime with q > 0 by construction
    (``casson_boyer_lines`` passes them swapped, after refusing p = 0).
    """
    k = abs(q)
    if k == 1:
        return 0, 1
    h = p % k
    alt, odd, a, b = 0, False, k, h  # alt = an - ... + (-1)^(n+1) a1
    while b:
        alt, a, b = a // b - alt, b, a % b
        odd = not odd
    return (k * (alt - 3) if odd else -k * (alt + 1)) + h + pow(h, -1, k), k


def dedekind_sum_fast(p: int, q: int) -> Fraction:
    """s(p, q) from the continued fraction of p/q: O(log |q|) divisions of
    integers no larger than |q|.

    6 q s(p, q) is an integer (Rademacher-Grosswald, *Dedekind Sums*, ch. 3),
    which the surgery formula relies on.
    """
    _require_coprime(p, q)
    num, den = _twelve_s(p, q)
    return Fraction(num, 12 * den)


def dedekind_symbol(s: Slope) -> Fraction:
    """Normalized symbol S(p/q) = 12 sign(q) s(p, q) of a finite slope."""
    # Slope rejects q = 0 and keeps q > 0, so sign(q) = 1 after canonicalization.
    return Fraction(*_twelve_s(s.p, s.q))


class LinkSurgeryInvariants(NamedTuple):
    """The diagram data the surgery formula consumes."""

    a2_x: int
    a2_y: int
    a3: int
    lk: int


def v3(inv: LinkSurgeryInvariants) -> Fraction:
    """The degree-3 finite-type invariant feeding the surgery formula.

    v3 = ( -a3 + (a2_x + a2_y) lk + (lk^3 - lk)/12 ) / 2, exactly.
    """
    lk = inv.lk
    return Fraction(-inv.a3 + (inv.a2_x + inv.a2_y) * lk, 2) + Fraction(lk**3 - lk, 24)


def _check_pretzel(a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError(f"pretzel parameters must be integers, got a={a!r}, b={b!r}")
    if a < 1:
        raise ValueError(f"pretzel parameter a must be >= 1, got {a}")
    if b == 0:
        raise ValueError("pretzel parameter b must be nonzero")


# its public homes are obstructions and links, which re-export it
def pretzel_a3_closed_form(a: int, b: int) -> int:
    """a3 of the (2a+1, 2b, 2b) pretzel link: -b (2b^2 + 6ab + 3b + 1) / 6."""
    _check_pretzel(a, b)
    # the numerator is -(b (b+1) (2b+1) + 6 a b^2), a multiple of 6 for every b
    return -b * (2 * b * b + 6 * a * b + 3 * b + 1) // 6
