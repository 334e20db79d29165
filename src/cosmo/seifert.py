"""Seifert-matrix invariants: Conway/Alexander data, signatures, surgery tau.

Both exact routes run on one fraction-free integer elimination (Bareiss).
The determinant route to the Conway polynomial evaluates det(y S - S^T) at
y = 0..n, recovers its integer coefficients from forward differences, and
rewrites det(x S - x^-1 S^T) in z = x - x^-1.  It is deliberately
independent of the skein recursion in ``links`` so the two can check each
other.  The total signature over the p-th roots of unity, which is all that
surgery tau needs, is the signature of one symmetric integer matrix of size
n(p-1), read off the signs of its pivots; no float is involved.

Signatures of the Hermitian form (1-w) S + (1-conj(w)) S^T at an arbitrary
unit-modulus w come from cyclic Jacobi rotations on the complex matrix
itself: each rotation first turns its pivot entry real by a phase, then
applies the real rotation.  Eigenvalues within 1e-9 of zero (relative to the
max row sum of |Re| + |Im|) count as zero.  This is the only float code.

The text format for matrices is: first line the size n, then n rows of n
integers; ``#`` starts a comment.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

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
# fraction-free integer elimination


def _pivots(rows: list[dict[int, int]], symmetric: bool) -> list[int]:
    """Nonzero pivots of fraction-free (Bareiss) elimination without swaps.

    ``rows[i]`` maps column to entry and is consumed; its keys must include
    every i' > i with rows[i'][i] != 0, which a symmetric sparse matrix and a
    dense one both satisfy.  The pivots are the successive leading principal
    minors after unimodular changes that keep the determinant and, for a
    symmetric matrix, the congruence class:

    - a zero pivot k with rows[j][k] != 0 for some j > k gets row j added to
      row k.  When symmetric, column j is added to column k as well, both
      times t for the sign t in {1, -1} that makes the new pivot
      2 t m[k][j] + m[j][j] nonzero;
    - a column with nothing at or below the diagonal gives no pivot.  In a
      symmetric matrix its row is zero as well, so it lies in the radical.

    A row that pivot k does not reach keeps the units of the last pivot that
    did (``at``) and is rescaled only when next used, so a banded matrix is
    worked only inside its band.  The rescaled entries are minors of the
    matrix again (Sylvester's identity), so every division is exact.
    """
    at = [1] * len(rows)
    prev = 1
    pivots: list[int] = []

    def lift(r: int) -> dict[int, int]:
        if at[r] != prev:
            rows[r] = {c: v * prev // at[r] for c, v in rows[r].items()}
            at[r] = prev
        return rows[r]

    for k in range(len(rows)):
        row = lift(k)
        if not row.get(k):
            j = next((j for j in row if j > k and rows[j].get(k)), None)
            if j is None:
                continue
            other = lift(j)
            t = -1 if symmetric and 2 * other[k] + other.get(j, 0) == 0 else 1
            for c, v in other.items():
                row[c] = row.get(c, 0) + t * v
            if symmetric:
                for i in [i for i in other if i >= k]:
                    rows[i][k] = rows[i].get(k, 0) + t * rows[i].get(j, 0)
        piv = row[k]
        for i in [i for i in row if i > k and rows[i].get(k)]:
            other = lift(i)
            f = other[k]
            rows[i] = {
                c: (piv * other.get(c, 0) - f * row.get(c, 0)) // prev
                for c in other.keys() | row.keys()
                if c > k
            }
            at[i] = piv
        pivots.append(piv)
        prev = piv
    return pivots


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
    """Conway polynomial via det(x S - x^-1 S^T), rewritten in z = x - x^-1.

    det(x S - x^-1 S^T) = x^-n f(x^2) for f(y) = det(y S - S^T), of degree at
    most n.  f is evaluated at y = 0..n by integer elimination; its k-th
    forward difference at 0 is k! times the integer c_k in the Newton form
    f(y) = sum_k c_k y (y - 1) ... (y - k + 1), expanded here by Horner.
    """
    n = s.size
    if n == 0:
        return ConwayPoly.one()
    e = s.entries
    values = []
    for y in range(n + 1):
        pivots = _pivots([{j: y * e[i][j] - e[j][i] for j in range(n)} for i in range(n)], symmetric=False)
        values.append(pivots[-1] if len(pivots) == n else 0)
    newton = []
    for k in range(n + 1):
        newton.append(values[0] // math.factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
    f = [0] * (n + 1)
    for k in range(n, -1, -1):
        f = [a - k * b for a, b in zip([0] + f, f)]
        f[0] += newton[k]
    return ConwayPoly(_laurent_to_z({2 * k - n: c for k, c in enumerate(f) if c}))


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
    form itself.  The tolerance is relative to the matrix norm, so a matrix
    with wide entries can lose a small nonzero eigenvalue:
    [[-10831, -7463], [-7464, -5143]], congruent to ``seifert_torus2(3)``,
    gives -1 at e^(+-2 pi i/5) where the trefoil gives -2.  For sums over
    the p-th roots of unity, ``total_p_signature`` is exact.
    """
    omega = complex(omega)
    if not abs(abs(omega) - 1.0) <= 1e-12:
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
    """Sum of the unit-circle signatures over all p-th roots of unity.

    Computed exactly as the signature of the integer form of size n(p-1)
    with diagonal blocks S + S^T, -S just above them and -S^T just below
    (Kauffman-Taylor).  The block circulant with p such block rows splits
    over the p-th roots w into (1-w) S + (1-conj(w)) S^T, and dropping its
    last block row and column removes the radical of the w = 1 summand.
    The pivots are leading principal minors, so each sign change along
    1, d_1, d_2, ... is one negative square (Jacobi).
    """
    if p < 1:
        raise ValueError(f"root count p must be a positive integer, got {p}")
    n, e = s.size, s.entries
    blocks = (
        (-1, [[-e[j][i] for j in range(n)] for i in range(n)]),
        (0, [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]),
        (1, [[-e[i][j] for j in range(n)] for i in range(n)]),
    )
    rows = [
        {(b + d) * n + j: v for d, block in blocks if 0 <= b + d < p - 1 for j, v in enumerate(block[i]) if v}
        for b in range(p - 1)
        for i in range(n)
    ]
    pivots = _pivots(rows, symmetric=True)
    negative = sum((a < 0) != (b < 0) for a, b in zip([1] + pivots, pivots))
    return len(pivots) - 2 * negative


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
