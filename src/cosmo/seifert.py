"""Seifert-matrix invariants: Conway/Alexander data, signatures, surgery tau.

Both exact routes run on fraction-free integer elimination (Bareiss), each
with a kernel of its own on list rows.  The determinant route to the Conway
polynomial evaluates det(y S - S^T) once, at a power of two y = 2^B wide
enough that the integer coefficients are its balanced base-2^B digits
(Kronecker substitution), by dense elimination (``_det``), and reads
det(x S - x^-1 S^T) in z = x - x^-1 off it, through the symmetry x -> -1/x.
f is evaluated once per matrix: the polynomial is kept on the
``SeifertMatrix``, whose entries are read-only, and Delta''(1) reads it from
there.  The route is deliberately independent of the skein recursion in
``links`` so the two can check each other.  The total
signature over the p-th roots of unity, which is all that surgery tau needs,
is the signature of one symmetric integer form of size n(p-1), read off the
signs of its pivots; no float is involved.  ``_sym_pivots`` stores only the
upper envelope of each row (the diagonal entry up to the last nonzero one),
repairs a zero pivot by one congruence, and rescales a row that a pivot does
not reach only when it is next used (lazy units), so the block-banded form is
worked inside its envelope.  ``TAU_WORK_BUDGET`` bounds that elimination
before it runs.

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
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable

from .arith import IntegerTooLong, Q, Slope, dedekind_sum_fast, parse_int

if TYPE_CHECKING:
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
    "TAU_WORK_BUDGET",
]

_ZERO_TOL = 1e-9

# Bounds the integer eliminations of one tau, checked before they run: N rows
# on a Seifert matrix of size n are charged N (n + 1)^2, since each row meets
# O(n) others over O(n) columns of its envelope and costs a little on its own.
# At the budget the (2, k) torus knots take at most about 0.45 s of CPU and
# 17 MB of peak RSS (the trefoil at p = 55,556; CPython 3.11, one core of a
# 2-core x86-64 machine).  Pivots that grow with N, as they do when the
# Alexander polynomial has roots off the unit circle, cost more.  The
# costliest tau the tests, scripts and benchmark evaluate, the trefoil at
# p = 1002, is charged 18,018.
TAU_WORK_BUDGET = 1_000_000


class SeifertMatrix:
    """Square integer matrix of strand linkings; size 0 is the unknot.

    ``entries`` is read-only, so the Conway polynomial that
    ``conway_from_seifert`` keeps on the matrix cannot go stale.
    """

    __slots__ = ("_entries", "_conway")

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"entry {v!r} is not an integer")
        self._entries = rows
        self._conway: ConwayPoly | None = None

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._entries

    @property
    def size(self) -> int:
        return len(self._entries)

    def transpose(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(tuple(tuple(self._entries[j][i] for j in range(n)) for i in range(n)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeifertMatrix):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"SeifertMatrix({[list(r) for r in self._entries]!r})"


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


def _sym_pivots(rows: list[list[int]]) -> list[int]:
    """Nonzero pivots of fraction-free (Bareiss) elimination of a symmetric form.

    ``rows[i]`` is the upper envelope of row i: its entries at columns i,
    i + 1, ... up to (at least) its last nonzero one, so that
    ``rows[i][c - i]`` is entry (i, c) and an entry past the end is zero.
    The kernel replaces rows and never changes one in place, so rows may
    share one list.  Entry (c, i) below the diagonal is (i, c), so pivot k
    updates only the rows i > k with (k, i) != 0, and in each only the
    columns c >= i, using the pivot row's (k, i) in place of (i, k).

    The pivots are the successive leading principal minors, up to two
    congruences that keep the signature:

    - a zero pivot k is repaired with the first j > k with (k, j) != 0: row
      and column k gain t times row and column j, for the t in {1, -1} that
      makes the new pivot 2 t (k, j) + (j, j) nonzero.  Only row k's
      envelope changes; its entries at k < c < j read (j, c) = (c, j) from
      row c;
    - a zero pivot row with nothing after its diagonal is a zero row of the
      form still to be eliminated, so it lies in the radical and gives no
      pivot.

    A row that pivot k does not reach keeps the units of the last pivot that
    did (``at``) and is rescaled only when next used, so a banded form is
    worked only inside its envelope.  The rescaled entries are minors of the
    form again (Sylvester's identity), so every division is exact.
    """
    at = [1] * len(rows)
    prev = 1
    pivots: list[int] = []

    def lift(r: int) -> list[int]:
        if at[r] != prev:
            rows[r] = [v * prev // at[r] for v in rows[r]]
            at[r] = prev
        return rows[r]

    for k in range(len(rows)):
        row = lift(k)
        if not row or not row[0]:
            d = next((d for d, v in enumerate(row) if v), 0)
            if not d:
                continue
            j = k + d
            low = lift(j)
            diag = low[0] if low else 0
            t = -1 if 2 * row[d] + diag == 0 else 1
            repaired = 2 * t * row[d] + diag
            # (j, c) for c from k on: (c, j) from row c below j, then row j
            col = [0] * d
            for c in range(k + 1, j):
                r = lift(c)
                if j - c < len(r):
                    col[c - k] = r[j - c]
            row = [a + t * b for a, b in zip_longest(row, col + low, fillvalue=0)]
            row[0] = repaired
            rows[k] = row
        piv = row[0]
        for d, f in enumerate(row):
            if f and d:
                i = k + d
                other, unit = rows[i], at[i]
                if unit != prev:  # lift(i), inline in the kernel's hot loop
                    other = [v * prev // unit for v in other]
                rows[i] = [(piv * a - f * b) // prev for a, b in zip_longest(other, row[d:], fillvalue=0)]
                at[i] = piv
        rows[k] = None  # never read again
        pivots.append(piv)
        prev = piv
    return pivots


def _trimmed(row: list[int]) -> list[int]:
    """``row`` without its trailing zeros."""
    while row and not row[-1]:
        row.pop()
    return row


def _check_tau_work(n: int, rows: int) -> None:
    """Refuse an elimination of ``rows`` rows on a size-n Seifert matrix past the budget."""
    work = rows * (n + 1) ** 2
    if work > TAU_WORK_BUDGET:
        raise ValueError(
            f"Seifert matrix too costly for tau: {rows} elimination rows at size {n} "
            f"cost {work} > budget {TAU_WORK_BUDGET}"
        )


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix of list rows, by dense Bareiss elimination.

    Each step drops the pivot column, so row r's entry 0 is its entry in the
    current pivot column.  A zero pivot gains the first row below it with a
    nonzero entry there, which keeps the determinant; with none, it is 0.
    """
    prev = 1
    while m:
        j = next((j for j, row in enumerate(m) if row[0]), None)
        if j is None:
            return 0
        top = m[0] if j == 0 else [a + b for a, b in zip(m[0], m[j])]
        piv, top = top[0], top[1:]
        m = [[(piv * a - row[0] * b) // prev for a, b in zip(row[1:], top)] for row in m[1:]]
        prev = piv
    return prev


def conway_from_seifert(s: SeifertMatrix) -> ConwayPoly:
    """Conway polynomial via det(x S - x^-1 S^T), rewritten in z = x - x^-1.

    The first call on a matrix evaluates it (``_conway``) and keeps the
    polynomial on the matrix, whose entries are read-only; every later call,
    ``alexander_second_derivative``'s included, returns it.  A failed
    evaluation keeps nothing, so it fails again on the next call.
    """
    nabla = s._conway
    if nabla is None:
        nabla = s._conway = _conway(s.entries)
    return nabla


def _conway(e: tuple[tuple[int, ...], ...]) -> ConwayPoly:
    """Conway polynomial of the Seifert matrix with rows ``e``.

    det(x S - x^-1 S^T) = x^-n f(x^2) for f(y) = det(y S - S^T), of degree at
    most n, and f is evaluated once, at y = 2^B (Kronecker substitution).
    Its coefficient c_k of y^k is a signed sum, over permutations sigma, of
    products that take s_(i sigma(i)) or -s_(sigma(i) i) from each row i, so

        |c_k| <= per(|S| + |S^T|) <= prod_i sum_j (|s_ij| + |s_ji|) = bound.

    B = bound.bit_length() + 1 puts every c_k strictly inside +-2^(B-1), so
    the c_k are the balanced base-2^B digits of f(2^B).  The elimination is
    exact on any integer matrix, so nothing else is needed; a zero row and
    column gives bound = 0 and f = 0.

    x -> -1/x turns x S - x^-1 S^T into its transpose, so it fixes the
    determinant: its coefficients l_m of x^m have l_-m = (-1)^m l_m.  Pairing
    the two gives

        det(x S - x^-1 S^T) = l_0 + sum_(m > 0) l_m V_m(z),

    with V_m = x^m + (-x^-1)^m, so V_0 = 2, V_1 = z and V_(m+1) = z V_m +
    V_(m-1); l_m is c_((n+m)/2) when n + m is even and 0 otherwise.
    """
    from .links import ConwayPoly  # here, so that tau alone does not load links

    n = len(e)
    if n == 0:
        return ConwayPoly.one()
    bound = math.prod(sum(abs(e[i][j]) + abs(e[j][i]) for j in range(n)) for i in range(n))
    shift = bound.bit_length() + 1
    value = _det([[(e[i][j] << shift) - e[j][i] for j in range(n)] for i in range(n)])
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    f = []
    for _ in range(n + 1):
        value += half
        f.append((value & mask) - half)
        value >>= shift
    nabla = [f[n // 2] if n % 2 == 0 else 0] + [0] * n  # coefficients of z^0 .. z^n, from l_0
    low, high = [2], [0, 1]  # V_(m-1) and V_m, coefficients of z^0 .. z^m
    for m in range(1, n + 1):
        if (n + m) % 2 == 0:
            for j, v in enumerate(high):
                nabla[j] += f[(n + m) // 2] * v
        low, high = high, [a + b for a, b in zip_longest([0] + high, low, fillvalue=0)]
    return ConwayPoly({j: nabla[j] for j in range(n, -1, -1)})  # top degree first, the order repr shows


def alexander_second_derivative(s: SeifertMatrix) -> int:
    """Second derivative at 1 of the symmetric Alexander polynomial of a knot.

    Delta(t) = sum_k a_2k (t - 2 + 1/t)^k, and (t - 2 + 1/t)^k = (t - 1)^(2k) / t^k
    vanishes to order 2k at t = 1, so only the k = 1 term has a second
    derivative there: Delta''(1) = 2 a_2.  It reads the Conway polynomial
    that ``conway_from_seifert`` keeps on the matrix, so f(y) is evaluated
    once per matrix whichever of the two runs first; the knot check runs on
    every call.
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
    n, e = s.size, s.entries
    if n == 0:
        return 0
    u, v = 1.0 - omega, 1.0 - omega.conjugate()
    herm = [[u * e[i][j] + v * e[j][i] for j in range(n)] for i in range(n)]
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
    The pivots are the leading principal minors of a congruent form with
    its radical dropped (``_sym_pivots``), so each sign change along
    1, d_1, d_2, ... is one negative square (Jacobi).  An elimination past
    ``TAU_WORK_BUDGET`` raises ValueError before it starts.  The unknot
    (n = 0) and p = 1 give a form of size 0, so nothing is built or charged.
    """
    if p < 1:
        raise ValueError(f"root count p must be a positive integer, got {p}")
    n, e = s.size, s.entries
    if n == 0 or p == 1:
        return 0
    _check_tau_work(n, n * (p - 1))
    # the envelope of row i of a block row: S + S^T from the diagonal on, then
    # -S in the next block column, which the last block row does not have;
    # the block rows before it share one list per i
    last = [[e[i][j] + e[j][i] for j in range(i, n)] for i in range(n)]
    mid = [_trimmed(last[i] + [-v for v in e[i]]) for i in range(n)]
    pivots = _sym_pivots(mid * (p - 2) + [_trimmed(row) for row in last])
    negative = sum((a < 0) != (b < 0) for a, b in zip([1] + pivots, pivots))
    return len(pivots) - 2 * negative


def _check_tau_slope(slope: Slope) -> None:
    if slope.p <= 0:
        raise ValueError("formula applied outside its stated range (needs p > 0)")


def casson_gordon_tau(s: SeifertMatrix, slope: Slope) -> Fraction:
    """Surgery value -4 p s(q,p) - (total p-signature) at slope p/q, p > 0."""
    _check_tau_slope(slope)
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
            values = [parse_int(t) for t in line.split()]
        except IntegerTooLong as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
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
