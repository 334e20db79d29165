"""Seifert-matrix invariants: Conway/Alexander data, signatures, surgery tau.

The determinant route to the Conway polynomial evaluates det(x S - x^-1 S^T)
by fraction-free elimination over integer polynomials and rewrites the
resulting Laurent polynomial in z = x - x^-1.  It is deliberately independent
of the skein recursion in ``links`` so the two can check each other.

Signatures of the Hermitian form (1-w) S + (1-conj(w)) S^T at unit-modulus w
come from cyclic Jacobi rotations on the complex matrix itself: each rotation
first turns its pivot entry real by a phase, then applies the real rotation.
Eigenvalues within 1e-9 of zero (relative to the max row sum of |Re| + |Im|)
count as zero; the matrices here are tiny, so robustness is worth more than
speed.

The text format for matrices is: first line the size n, then n rows of n
integers; ``#`` starts a comment.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import Q, Slope, dedekind_sum_fast
from .links import ConwayPoly

__all__ = [
    "SeifertMatrix",
    "seifert_torus2",
    "conway_from_seifert",
    "alexander_second_derivative",
    "levine_tristram_signature",
    "total_p_signature",
    "casson_gordon_tau",
    "parse_seifert_matrix",
]

_ZERO_TOL = 1e-9


class SeifertMatrix:
    """Square integer matrix of strand linkings; size 0 is the unknot."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"entry {v!r} is not an integer")
        self.entries = rows

    @property
    def size(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeifertMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SeifertMatrix({[list(r) for r in self.entries]!r})"


def seifert_torus2(n: int) -> SeifertMatrix:
    """Seifert matrix of the positive (2, n) torus knot, odd n >= 3.

    The genus-(n-1)/2 surface gives the banded form with -1 on the diagonal
    and +1 just above it.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"seifert_torus2 needs odd n >= 3, got {n}")
    g2 = n - 1
    return SeifertMatrix(
        tuple(
            tuple(-1 if i == j else (1 if j == i + 1 else 0) for j in range(g2))
            for i in range(g2)
        )
    )


# ---------------------------------------------------------------------------
# dense integer polynomials (index = degree) and fraction-free determinants


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _ptrim(out)


def _psub(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = list(p) + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    return _ptrim(out)


def _pdiv_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division in Z[y]; the elimination below only produces exact cases."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(num)
    quo = [0] * max(len(rem) - len(den) + 1, 0)
    lead = den[-1]
    while len(rem) >= len(den):
        q, r = divmod(rem[-1], lead)
        if r:
            raise ArithmeticError("inexact polynomial division in determinant elimination")
        k = len(rem) - len(den)
        quo[k] = q
        for i, b in enumerate(den):
            rem[k + i] -= q * b
        _ptrim(rem)
    if rem:
        raise ArithmeticError("inexact polynomial division in determinant elimination")
    return _ptrim(quo)


def _poly_det(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer polynomials, Bareiss elimination."""
    n = len(m)
    if n == 0:
        return [1]
    m = [row[:] for row in m]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return []
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _psub(_pmul(m[k][k], m[i][j]), _pmul(m[i][k], m[k][j]))
                m[i][j] = _pdiv_exact(num, prev)
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def _laurent_to_z(laurent: dict[int, int]) -> dict[int, int]:
    """Rewrite a Laurent polynomial in x as a polynomial in z = x - x^-1.

    Peels the top exponent d by subtracting c (x - x^-1)^d; a residue that
    cannot be absorbed is reported, because it means the input never was a
    Seifert-matrix determinant.
    """
    work = {e: c for e, c in laurent.items() if c}
    out: dict[int, int] = {}
    while work:
        d = max(work)
        if d < 0 or -min(work) > d:
            raise ValueError("matrix is not a valid Seifert matrix for this pipeline")
        c = work[d]
        out[d] = out.get(d, 0) + c
        for j in range(d + 1):
            e = d - 2 * j
            v = work.get(e, 0) - c * ((-1) ** j) * math.comb(d, j)
            if v:
                work[e] = v
            else:
                work.pop(e, None)
    return {e: c for e, c in out.items() if c}


def conway_from_seifert(s: SeifertMatrix) -> ConwayPoly:
    """Conway polynomial via det(x S - x^-1 S^T), rewritten in z = x - x^-1."""
    n = s.size
    if n == 0:
        return ConwayPoly.one()
    # det(x S - x^-1 S^T) = x^-n det(y S - S^T) at y = x^2
    m = [
        [_ptrim([-s.entries[j][i], s.entries[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    p = _poly_det(m)
    laurent = {2 * k - n: c for k, c in enumerate(p) if c}
    return ConwayPoly(_laurent_to_z(laurent))


def alexander_second_derivative(s: SeifertMatrix) -> int:
    """Second derivative at 1 of the symmetric Alexander polynomial of a knot.

    Delta(t) = sum_k a_2k (t - 2 + 1/t)^k, and (t - 2 + 1/t)^k = (t - 1)^(2k) / t^k
    vanishes to order 2k at t = 1, so only the k = 1 term has a second
    derivative there: Delta''(1) = 2 a_2.
    """
    nabla = conway_from_seifert(s)
    if nabla.coefficient(0) != 1:
        raise ValueError("second derivative needs a knot matrix (constant Conway coefficient 1)")
    return 2 * nabla.coefficient(2)


# ---------------------------------------------------------------------------
# signatures


def _jacobi_spectrum(m: list[list[complex]]) -> list[float]:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations."""
    n = len(m)
    a = [row[:] for row in m]
    scale = math.sqrt(sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n)))
    if scale == 0.0:
        return [0.0] * n
    for _ in range(60):
        off = math.sqrt(sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(i + 1, n)))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p][q])
                if r == 0.0:
                    continue
                ph = a[p][q] / r
                phc = ph.conjugate()
                theta = (a[q][q].real - a[p][p].real) / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], phc * a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], ph * a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return [a[i][i].real for i in range(n)]


def levine_tristram_signature(s: SeifertMatrix, omega: complex) -> int:
    """Signature of (1-w) S + (1-conj(w)) S^T at a unit-modulus w.

    Degenerate directions (eigenvalues at zero within tolerance) contribute
    nothing, so the value at a jump point is the signature of the degenerate
    form itself.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise ValueError(f"omega must lie on the unit circle, got |omega| = {abs(omega)!r}")
    n = s.size
    if n == 0:
        return 0
    u, v = 1.0 - omega, 1.0 - omega.conjugate()
    herm = [
        [u * s.entries[i][j] + v * s.entries[j][i] for j in range(n)]
        for i in range(n)
    ]
    norm = max(sum(abs(x.real) + abs(x.imag) for x in row) for row in herm)
    tol = _ZERO_TOL * norm
    spectrum = _jacobi_spectrum(herm)
    return sum(1 for lam in spectrum if lam > tol) - sum(1 for lam in spectrum if lam < -tol)


def total_p_signature(s: SeifertMatrix, p: int) -> int:
    """Sum of the unit-circle signatures over all p-th roots of unity."""
    if p < 1:
        raise ValueError(f"root count p must be a positive integer, got {p}")
    return sum(
        levine_tristram_signature(s, cmath.exp(2j * cmath.pi * k / p))
        for k in range(p)
    )


def casson_gordon_tau(s: SeifertMatrix, slope: Slope) -> Fraction:
    """Surgery value -4 p s(q,p) - (total p-signature) at slope p/q, p > 0."""
    if slope.p <= 0:
        raise ValueError("formula applied outside its stated range (needs p > 0)")
    dede = dedekind_sum_fast(slope.q, slope.p)
    return Q(-4) * slope.p * dede - total_p_signature(s, slope.p)


# ---------------------------------------------------------------------------
# text format


def parse_seifert_matrix(text: str) -> SeifertMatrix:
    """Parse the matrix format: first line the size n, then n rows of ints."""
    rows: list[list[int]] = []
    size: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(t) for t in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
        if size is None:
            if len(values) != 1 or values[0] < 0:
                raise ValueError(f"line {lineno}: first line must be the size, a single integer >= 0")
            size = values[0]
        else:
            rows.append(values)
    if size is None:
        raise ValueError("empty matrix input")
    if len(rows) != size:
        raise ValueError(f"expected {size} rows, got {len(rows)}")
    try:
        m = SeifertMatrix(rows)
    except ValueError as exc:
        raise ValueError(f"bad matrix: {exc}") from None
    return m
