"""Seifert pipeline tests: determinant route, signatures, surgery tau."""

import cmath
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosmo.arith import Slope, dedekind_sum_fast
from cosmo.links import ConwayPoly, conway_polynomial, torus2_diagram
from cosmo.seifert import (
    TAU_WORK_BUDGET,
    SeifertMatrix,
    alexander_second_derivative,
    casson_gordon_tau,
    conway_from_seifert,
    levine_tristram_signature,
    parse_seifert_matrix,
    seifert_torus2,
    total_p_signature,
)
from cosmo.seifert import _det, _laurent_to_z, _sym_pivots
import cosmo.seifert as seifert_module


def hermitian_signature_2x2(s: SeifertMatrix, omega: complex) -> int:
    """Independent route for 2x2 matrices: trace/determinant case analysis."""
    u, v = 1 - omega, 1 - omega.conjugate()
    h = [
        [u * s.entries[i][j] + v * s.entries[j][i] for j in range(2)]
        for i in range(2)
    ]
    tr = (h[0][0] + h[1][1]).real
    det = (h[0][0] * h[1][1] - h[0][1] * h[1][0]).real
    # det is quadratic and the trace linear in the entries, so each gets its
    # own tolerance: near omega = 1 the scale is far below 1.
    scale = max(abs(h[i][j]) for i in range(2) for j in range(2))
    if det > 1e-9 * scale * scale:
        return 2 if tr > 0 else -2
    if det < -1e-9 * scale * scale:
        return 0
    if abs(tr) <= 1e-9 * scale:
        return 0
    return 1 if tr > 0 else -1


def leibniz_laurent(s: SeifertMatrix) -> dict[int, int]:
    """det(x S - x^-1 S^T) as {exponent: coefficient}, by the permutation expansion."""
    n = s.size
    out: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        terms = {0: (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))}
        for i, j in enumerate(perm):
            entry = {1: s.entries[i][j], -1: -s.entries[j][i]}
            step: dict[int, int] = {}
            for e1, c1 in terms.items():
                for e2, c2 in entry.items():
                    step[e1 + e2] = step.get(e1 + e2, 0) + c1 * c2
            terms = step
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def newton_conway(s: SeifertMatrix) -> ConwayPoly:
    """The n+1-evaluation route: f(y) = det(y S - S^T) at y = 0..n, Newton form, Horner."""
    n, e = s.size, s.entries
    if n == 0:
        return ConwayPoly.one()
    values = [_det([[y * e[i][j] - e[j][i] for j in range(n)] for i in range(n)]) for y in range(n + 1)]
    newton = []
    for k in range(n + 1):
        newton.append(values[0] // math.factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
    f = [0] * (n + 1)
    for k in range(n, -1, -1):
        f = [a - k * b for a, b in zip([0] + f, f)]
        f[0] += newton[k]
    return ConwayPoly(_laurent_to_z({2 * k - n: c for k, c in enumerate(f) if c}))


def scrambled(rng: random.Random, s: SeifertMatrix, steps: int) -> SeifertMatrix:
    """P S P^T for a random unimodular P, a product of elementary row operations."""
    n = s.size
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -3))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    e = s.entries
    return SeifertMatrix(
        [[sum(p[i][a] * e[a][b] * p[j][b] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]
    )


def torus2_sum(ks: tuple[int, ...]) -> SeifertMatrix:
    """Block sum of the (2, k) torus-knot matrices: a Seifert matrix of their connected sum."""
    blocks = [seifert_torus2(k).entries for k in ks]
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - len(b)) for row in b]
        at += len(b)
    return SeifertMatrix(rows)


def seeded_torus2_sums(rng: random.Random, count: int) -> list[SeifertMatrix]:
    """Unimodular scrambles of (2, k) torus sums of size at most 8."""
    out = []
    while len(out) < count:
        ks = tuple(rng.choice((3, 5, 7, 9)) for _ in range(rng.randint(1, 3)))
        n = sum(k - 1 for k in ks)
        if n <= 8:
            out.append(scrambled(rng, torus2_sum(ks), rng.randint(n, 3 * n)))
    return out


def second_derivative_by_trace(s: SeifertMatrix) -> int:
    """Delta''(1) of a knot matrix by a route that shares nothing with the determinant one.

    A = S - S^T is unimodular, and with M = A^-1 S, det(y S - S^T) =
    det(A) det(I + (y - 1) M).  Expanding Delta(t) = t^(-n/2) det(t S - S^T)
    to second order at t = 1 gives tr M = n/2 and Delta''(1) = n/2 - tr(M^2).
    """
    n, e = s.size, s.entries
    # Gauss-Jordan on [A | S] over the rationals gives [I | M]
    rows = [[Fraction(e[i][j] - e[j][i]) for j in range(n)] + [Fraction(v) for v in e[i]] for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    m = [row[n:] for row in rows]
    assert all(v.denominator == 1 for row in m for v in row), s  # A is unimodular
    trace_m2 = sum(m[i][j] * m[j][i] for i in range(n) for j in range(n))
    value = Fraction(n, 2) - trace_m2
    assert value.denominator == 1, s
    return int(value)


def torus2_total_signature(n: int, p: int) -> int:
    """Total p-signature of the (2, n) torus knot from its signature function.

    At e^(2 pi i t), 0 <= t <= 1/2, the signature is -2 per root
    (2j - 1)/(2n) < 1/2 of the Alexander polynomial below t, and -1 at a root.
    """
    roots = [Fraction(2 * j - 1, 2 * n) for j in range(1, (n + 1) // 2)]
    total = 0
    for k in range(p):
        t = min(Fraction(k, p), 1 - Fraction(k, p))
        total -= sum(2 if r < t else r == t for r in roots)
    return total


def z_to_laurent(poly: ConwayPoly) -> dict[int, int]:
    """Expand sum c_d z^d at z = x - x^-1 by the binomial theorem."""
    out: dict[int, int] = {}
    for d, c in poly.coefficients.items():
        for j in range(d + 1):
            out[d - 2 * j] = out.get(d - 2 * j, 0) + c * (-1) ** j * math.comb(d, j)
    return {e: c for e, c in out.items() if c}


def descartes_signature(a: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix from its characteristic polynomial.

    All its roots are real, so Descartes' rule of signs counts the positive
    ones exactly, and the negative ones as the positive roots of p(-t).
    """
    n = len(a)
    # Faddeev-LeVerrier: c[k] is the coefficient of t^(n-k)
    c = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (c[-1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        c.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)

    def changes(seq):
        nonzero = [x for x in seq if x]
        return sum((x < 0) != (y < 0) for x, y in zip(nonzero, nonzero[1:]))

    return changes(c) - changes([x * (-1) ** k for k, x in enumerate(c)])


def cofactor_det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * v * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]]) for j, v in enumerate(m[0]) if v
    )


def envelope_rows(a: list[list[int]]) -> list[list[int]]:
    """The upper envelope of each row of a symmetric matrix, trailing zeros trimmed."""
    rows = []
    for i, row in enumerate(a):
        env = row[i:]
        while env and not env[-1]:
            env.pop()
        rows.append(env)
    return rows


def pivot_signature(pivots: list[int]) -> int:
    return len(pivots) - 2 * sum((a < 0) != (b < 0) for a, b in zip([1] + pivots, pivots))


def line_runs(func, marker: str, call) -> int:
    """How often the line of ``func`` that contains ``marker`` runs during ``call()``."""
    lines, first = inspect.getsourcelines(func)
    (target,) = [first + i for i, line in enumerate(lines) if marker in line]
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno == target
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        call()
    finally:
        sys.settrace(old)
    return runs


small_matrices = st.integers(min_value=-4, max_value=4)


def matrix_strategy(n):
    return st.lists(
        st.lists(small_matrices, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(SeifertMatrix)


def knot_matrix_strategy(n):
    """Matrices whose skew part is the standard symplectic form, so the
    Conway polynomial is honestly normalized (constant coefficient 1)."""

    def build(upper):
        it = iter(upper)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = next(it)
            for j in range(i + 1, n):
                rows[i][j] = next(it)
                skew = 1 if (j == i + 1 and i % 2 == 0) else 0
                rows[j][i] = rows[i][j] - skew
        return SeifertMatrix(rows)

    assert n % 2 == 0
    return st.lists(
        small_matrices, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(build)


unit_omegas = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1)
).map(lambda t: cmath.exp(2j * cmath.pi * float(t)))


class TestMatrixType:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            SeifertMatrix([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            SeifertMatrix([[1.5]])

    def test_size_zero(self):
        assert SeifertMatrix([]).size == 0

    def test_transpose(self):
        m = SeifertMatrix([[1, 2], [3, 4]])
        assert m.transpose() == SeifertMatrix([[1, 3], [2, 4]])

    def test_torus_catalog(self):
        assert seifert_torus2(3) == SeifertMatrix([[-1, 1], [0, -1]])
        m = seifert_torus2(5)
        assert m.size == 4
        with pytest.raises(ValueError):
            seifert_torus2(4)
        with pytest.raises(ValueError):
            seifert_torus2(1)


class TestConwayRoute:
    def test_unknot(self):
        assert conway_from_seifert(SeifertMatrix([])) == ConwayPoly.one()

    def test_annulus_generator(self):
        # det(x - x^-1) for the 1x1 matrix [1]
        assert conway_from_seifert(SeifertMatrix([[1]])) == ConwayPoly({1: 1})
        assert conway_from_seifert(SeifertMatrix([[0]])) == ConwayPoly.zero()

    def test_matches_skein_oracle_on_torus_family(self):
        for n in (3, 5, 7, 9):
            det_route = conway_from_seifert(seifert_torus2(n))
            skein_route = conway_polynomial(torus2_diagram(n))
            assert det_route == skein_route

    def test_frozen_second_coefficients(self):
        assert conway_from_seifert(seifert_torus2(5)).coefficient(2) == 3
        assert conway_from_seifert(seifert_torus2(7)).coefficient(2) == 6

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy(2))
    def test_always_produces_a_polynomial(self, s):
        poly = conway_from_seifert(s)
        parity = s.size % 2
        assert all(e % 2 == parity for e in poly.coefficients)

    @settings(max_examples=25, deadline=None)
    @given(matrix_strategy(3))
    def test_odd_size_gives_odd_exponents(self, s):
        poly = conway_from_seifert(s)
        assert all(e % 2 == 1 for e in poly.coefficients)

    def test_matches_leibniz_expansion(self):
        rng = random.Random(20261019)
        cases = [SeifertMatrix([[0] * n for _ in range(n)]) for n in (1, 2, 3)]
        cases += [
            SeifertMatrix([[1, 2, 0], [-1, 1, 0], [0, 0, 0]]),  # a zero row and column
            SeifertMatrix([[1, 2], [2, 4]]),  # symmetric and singular: (x - x^-1)^2 det S = 0
        ]
        for _ in range(250):
            n = rng.randint(1, 4)
            cases.append(SeifertMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))
        singular = 0
        for s in cases:
            expected = leibniz_laurent(s)
            singular += not expected
            assert z_to_laurent(conway_from_seifert(s)) == expected, s
        assert singular >= 15
        assert {s.size % 2 for s in cases} == {0, 1}

    def test_matches_newton_route_on_seeded_wide_matrices(self):
        rng = random.Random(20261101)
        for n in range(1, 9):
            for bound in (1, 9, 10**3, 10**6):
                for _ in range(12):
                    s = SeifertMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
                    assert conway_from_seifert(s) == newton_conway(s), s

    def test_matches_newton_route_on_degenerate_matrices(self):
        rng = random.Random(20261102)
        cases = []
        for n in range(1, 9):
            # a zero row and column at a random index
            rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
            k = rng.randrange(n)
            rows[k] = [0] * n
            for row in rows:
                row[k] = 0
            cases.append(SeifertMatrix(rows))
        singular = []
        for n in range(2, 9):
            # symmetric of rank 1 (u u^T) and of rank at most 2 (u v^T + v u^T)
            u = [rng.randint(-1000, 1000) for _ in range(n)]
            v = [rng.randint(-1000, 1000) for _ in range(n)]
            singular.append(SeifertMatrix([[a * b for b in u] for a in u]))
            if n > 2:
                singular.append(SeifertMatrix([[a * d + b * c for c, d in zip(u, v)] for a, b in zip(u, v)]))
        for s in cases + singular:
            assert conway_from_seifert(s) == newton_conway(s), s
        for s in singular:
            # S = S^T gives det((x - x^-1) S) = z^n det S = 0
            assert conway_from_seifert(s) == ConwayPoly.zero(), s

    @pytest.mark.parametrize("n", range(1, 9))
    def test_scalar_matrices_near_the_digit_bound(self, n):
        # det(y cI - cI) = c^n (y - 1)^n: coefficients c^n C(n, k) of alternating
        # sign, the middle one within a factor 4 of the bound (2c)^n
        for c in (1, 2, 7, 10**6 - 1, 10**6):
            for sign in (1, -1):
                s = SeifertMatrix([[sign * c * (i == j) for j in range(n)] for i in range(n)])
                poly = conway_from_seifert(s)
                assert poly == newton_conway(s)
                assert poly == ConwayPoly({n: (sign * c) ** n})

    @pytest.mark.parametrize("k", range(1, 5))
    def test_coefficient_at_the_digit_bound(self, k):
        # k diagonal blocks [[0, c], [0, 0]]: det(y S - S^T) = (c^2 y)^k, whose
        # one coefficient equals the bound c^(2k), so the digit needs B's extra bit
        for c in (1, 2, 7, -1, -(10**6)):
            n = 2 * k
            s = SeifertMatrix([[c if j == i + 1 and i % 2 == 0 else 0 for j in range(n)] for i in range(n)])
            poly = conway_from_seifert(s)
            assert poly == newton_conway(s)
            assert poly == ConwayPoly({0: c**n})

    def test_scrambled_torus_matrices_match_skein(self):
        rng = random.Random(20261103)
        for n in (3, 5, 7, 9):
            skein = conway_polynomial(torus2_diagram(n))
            for _ in range(6):
                s = scrambled(rng, seifert_torus2(n), rng.randint(n, 3 * n))
                assert conway_from_seifert(s) == newton_conway(s) == skein, s

    def test_reduction_rejects_non_symmetric_laurent(self):
        with pytest.raises(ValueError, match="not a valid Seifert matrix"):
            _laurent_to_z({1: 1, -1: 1})


class TestEliminationKernels:
    @staticmethod
    def symmetric_cases(rng: random.Random) -> list[list[list[int]]]:
        """Seeded symmetric matrices: zero diagonals, ragged envelopes, radicals."""
        cases = []
        for trial in range(240):
            n = rng.randint(1, 8)
            a = [[0] * n for _ in range(n)]
            density = rng.choice((0.25, 0.5, 1.0))
            for i in range(n):
                if trial % 3:  # two thirds keep a zero diagonal
                    a[i][i] = 0
                else:
                    a[i][i] = rng.choice((0, 1, -1, 2, -5))
                for j in range(i + 1, n):
                    if rng.random() < density:
                        a[i][j] = a[j][i] = rng.randint(-9, 9)
            if trial % 4 == 1 and n > 1:  # a zero row and column
                k = rng.randrange(n)
                for i in range(n):
                    a[i][k] = a[k][i] = 0
            if trial % 4 == 3 and n > 1:  # a radical that is no coordinate axis: Q^T A Q
                q = [[int(i == j) for j in range(n - 1)] + [rng.randint(-2, 2)] for i in range(n - 1)]
                a = [
                    [sum(q[k][i] * a[k][l] * q[l][j] for k in range(n - 1) for l in range(n - 1)) for j in range(n)]
                    for i in range(n)
                ]
            cases.append(a)
        return cases

    def test_sym_pivots_match_characteristic_polynomial(self):
        cases = self.symmetric_cases(random.Random(20261201))
        inputs = [envelope_rows(a) for a in cases]
        copies = [[list(r) for r in rows] for rows in inputs]
        given = [list(rows) for rows in inputs]
        pivots = []
        repairs = line_runs(_sym_pivots, "repaired = ", lambda: pivots.extend(map(_sym_pivots, inputs)))
        for a, got in zip(cases, pivots):
            assert all(got) and pivot_signature(got) == descartes_signature(a), a
        assert given == copies  # rows are replaced, never changed in place
        assert repairs >= 150
        assert sum(len(a) - len(got) for a, got in zip(cases, pivots)) >= 200  # radical rows

    def test_sym_pivots_accept_shared_rows(self):
        # the path graph's adjacency form: a zero diagonal, so pivots need
        # repairs, and every row but the last is one list
        row = [0, 1]
        for n in range(1, 12):
            a = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
            assert pivot_signature(_sym_pivots([row] * (n - 1) + [[0]])) == descartes_signature(a) == 0
            assert row == [0, 1]

    def test_repair_sign_keeps_the_pivot_nonzero(self):
        # 2 (k, j) + (j, j) = 0, so only t = -1 gives a nonzero pivot; in the
        # last form the pair meets only after the first pivot
        for a in ([[0, 1], [1, -2]], [[0, -3], [-3, 6]], [[1, 0, 0], [0, 0, 2], [0, 2, -4]]):
            pivots = _sym_pivots(envelope_rows(a))
            assert all(pivots) and len(pivots) == len(a), a
            assert pivot_signature(pivots) == descartes_signature(a), a

    def test_repair_pads_the_shorter_row(self):
        # p = 2 gives the form S + S^T; its first pivot is repaired with row 1,
        # longer than row 0, and dropping the overhang gave 0 here
        s = SeifertMatrix([[0, 0, -1], [3, 3, -2], [3, 2, 0]])
        form = [[0, 3, 2], [3, 6, 0], [2, 0, 0]]
        assert total_p_signature(s, 2) == pivot_signature(_sym_pivots(envelope_rows(form))) == 1
        assert descartes_signature(form) == 1

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(20261202)
        cases = []
        for n in range(1, 7):
            for _ in range(40):
                m = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
                kind = rng.randrange(4)
                if kind == 1 and n > 2:  # singular: one row a combination of two others
                    i, j, k = rng.sample(range(n), 3)
                    m[i] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(m[j], m[k])]
                elif kind == 2 and n > 1:  # a zero first pivot with a nonzero entry below it
                    m[0][0] = 0
                    m[rng.randrange(1, n)][0] = rng.choice((1, -3))
                elif kind == 3:  # a zero first column: determinant 0
                    for row in m:
                        row[0] = 0
                cases.append(m)
        singular = repaired = 0
        for m in cases:
            expected = cofactor_det(m)
            singular += expected == 0
            repaired += m[0][0] == 0 and any(row[0] for row in m)
            assert _det([list(row) for row in m]) == expected, m
        assert singular >= 60 and repaired >= 60
        assert _det([]) == 1


class TestSecondDerivative:
    def test_frozen_values(self):
        assert alexander_second_derivative(SeifertMatrix([])) == 0
        assert alexander_second_derivative(seifert_torus2(3)) == 2
        assert alexander_second_derivative(seifert_torus2(5)) == 6

    def test_rejects_non_knot(self):
        with pytest.raises(ValueError, match="constant Conway coefficient 1"):
            alexander_second_derivative(SeifertMatrix([[1]]))

    def test_matches_trace_route(self):
        rng = random.Random(2202)
        cases = [
            SeifertMatrix([[-1, 1], [0, 1]]),  # figure-eight
            SeifertMatrix([[10, 1], [0, -10]]),
            SeifertMatrix([[2, 1], [0, 3]]),
            SeifertMatrix([[-10831, -7463], [-7464, -5143]]),  # congruent to the trefoil's
        ]
        cases += seeded_torus2_sums(rng, 400)
        # wide: long scrambles of small sums, entries past 32 bits
        cases += [scrambled(rng, torus2_sum(ks), 40) for ks in [(3,), (5,), (3, 3), (3, 5), (7,)] * 4]
        for s in cases:
            assert alexander_second_derivative(s) == second_derivative_by_trace(s), s
        assert [alexander_second_derivative(s) for s in cases[:4]] == [-2, -200, 12, 2]
        assert max(abs(v) for s in cases[-20:] for row in s.entries for v in row).bit_length() > 32

    @settings(max_examples=80, deadline=None)
    @given(knot_matrix_strategy(2))
    def test_equals_twice_second_conway_coefficient(self, s):
        poly = conway_from_seifert(s)
        assert poly.coefficient(0) == 1
        assert alexander_second_derivative(s) == 2 * poly.coefficient(2)

    @settings(max_examples=25, deadline=None)
    @given(knot_matrix_strategy(4))
    def test_equals_twice_second_conway_coefficient_4x4(self, s):
        poly = conway_from_seifert(s)
        assert poly.coefficient(0) == 1
        assert alexander_second_derivative(s) == 2 * poly.coefficient(2)


class TestStoredPolynomial:
    """conway_from_seifert keeps its polynomial on the matrix; nothing else changes."""

    @staticmethod
    def counted_det(monkeypatch) -> list[int]:
        """Record the size of every determinant the route evaluates."""
        calls, real = [], seifert_module._det

        def det(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(seifert_module, "_det", det)
        return calls

    def test_entries_are_read_only(self):
        s = seifert_torus2(3)
        with pytest.raises(AttributeError):
            s.entries = ((1,),)
        assert s.entries == ((-1, 1), (0, -1))

    def test_both_orders_match_newton_and_a_fresh_matrix(self, monkeypatch):
        calls = self.counted_det(monkeypatch)
        cases = seeded_torus2_sums(random.Random(2203), 60)
        for trial, s in enumerate(cases):
            expected = newton_conway(s)
            del calls[:]
            if trial % 2:
                d2, nabla = alexander_second_derivative(s), conway_from_seifert(s)
            else:
                nabla, d2 = conway_from_seifert(s), alexander_second_derivative(s)
            assert conway_from_seifert(s) == nabla and alexander_second_derivative(s) == d2
            assert calls == [s.size]  # f(y) is evaluated once for the matrix
            fresh = SeifertMatrix(s.entries)
            assert nabla == expected == conway_from_seifert(fresh), s
            assert d2 == alexander_second_derivative(SeifertMatrix(s.entries)) == 2 * expected.coefficient(2), s

    def test_returned_coefficients_are_a_copy(self):
        s = seifert_torus2(5)
        coefficients = conway_from_seifert(s).coefficients
        coefficients[2] = 99
        coefficients[6] = 1
        assert conway_from_seifert(s) == ConwayPoly({0: 1, 2: 3, 4: 1})
        assert alexander_second_derivative(s) == 6

    def test_transpose_and_equal_matrices_keep_their_own(self, monkeypatch):
        calls = self.counted_det(monkeypatch)
        s = scrambled(random.Random(2204), torus2_sum((3, 5)), 12)
        twin, flipped = SeifertMatrix(s.entries), s.transpose()
        nabla = conway_from_seifert(s)
        assert calls == [6]
        assert twin == s and hash(twin) == hash(s)  # equality ignores what is kept
        # det(x S^T - x^-1 S) is the transpose of det(x S - x^-1 S^T): same polynomial
        assert conway_from_seifert(twin) == conway_from_seifert(flipped) == nabla
        assert calls == [6, 6, 6]
        assert conway_from_seifert(flipped.transpose()) == nabla
        assert calls == [6, 6, 6, 6]

    def test_failed_evaluation_keeps_nothing(self, monkeypatch):
        # no integer matrix gives a determinant that _laurent_to_z refuses, so
        # a wrong determinant stands in for one: f = 1 is no polynomial in z
        s = seifert_torus2(3)
        monkeypatch.setattr(seifert_module, "_det", lambda m: 1)
        for call in (conway_from_seifert, conway_from_seifert, alexander_second_derivative, conway_from_seifert):
            with pytest.raises(ValueError, match="not a valid Seifert matrix"):
                call(s)
        monkeypatch.undo()
        assert conway_from_seifert(s) == ConwayPoly({0: 1, 2: 1})
        assert alexander_second_derivative(s) == 2

    def test_non_knot_is_refused_on_every_call(self):
        refused, kept = SeifertMatrix([[1]]), SeifertMatrix([[1]])
        assert conway_from_seifert(kept) == ConwayPoly({1: 1})
        for s in (refused, kept, refused, kept):
            with pytest.raises(ValueError, match="constant Conway coefficient 1"):
                alexander_second_derivative(s)
        assert conway_from_seifert(refused) == ConwayPoly({1: 1})


class TestSignatures:
    def test_trefoil_values(self):
        tre = seifert_torus2(3)
        assert levine_tristram_signature(tre, -1) == -2
        assert levine_tristram_signature(tre, 1) == 0
        assert levine_tristram_signature(tre, cmath.exp(1j * cmath.pi / 3)) == -1
        assert levine_tristram_signature(SeifertMatrix([]), -1) == 0

    def test_modulus_checked(self):
        with pytest.raises(ValueError, match="unit circle"):
            levine_tristram_signature(seifert_torus2(3), 2.0)

    @pytest.mark.parametrize("omega", [complex(math.nan, 0), complex(math.nan, 1)])
    def test_nan_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="unit circle"):
            levine_tristram_signature(seifert_torus2(3), omega)

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy(2), unit_omegas)
    @example(SeifertMatrix([[3, 1], [1, 0]]), complex(0.9999999985000066, 5.4772133583559324e-05))
    def test_against_exact_2x2_route(self, s, omega):
        assert levine_tristram_signature(s, omega) == hermitian_signature_2x2(s, omega)

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy(3), unit_omegas)
    def test_bounds_hold(self, s, omega):
        sig = levine_tristram_signature(s, omega)
        assert abs(sig) <= s.size

    def test_total_signature_values(self):
        tre = seifert_torus2(3)
        assert total_p_signature(tre, 1) == 0
        assert total_p_signature(tre, 2) == -2
        assert total_p_signature(tre, 6) == -8
        assert total_p_signature(SeifertMatrix([]), 7) == 0
        with pytest.raises(ValueError):
            total_p_signature(tre, 0)

    def test_wide_congruent_matrix(self):
        # congruent to seifert_torus2(3); at e^(2 pi i/5) its form has an eigenvalue of -2.4e-5,
        # below the float route's zero tolerance
        wide = SeifertMatrix([[-10831, -7463], [-7464, -5143]])
        assert total_p_signature(wide, 5) == total_p_signature(seifert_torus2(3), 5) == -8
        assert casson_gordon_tau(wide, Slope(5, 1)) == 4

    @pytest.mark.xfail(strict=True, reason="the float route's zero tolerance scales with the matrix norm")
    def test_float_route_on_wide_congruent_matrix(self):
        # congruent matrices have equal signatures; the float route gives -1, not -2, at e^(+-2 pi i/5)
        wide = SeifertMatrix([[-10831, -7463], [-7464, -5143]])
        roots = [cmath.exp(2j * cmath.pi * k / 5) for k in range(5)]
        assert [levine_tristram_signature(wide, w) for w in roots] == [
            levine_tristram_signature(seifert_torus2(3), w) for w in roots
        ]

    def test_total_matches_float_route_on_small_matrices(self):
        rng = random.Random(20261020)
        for _ in range(200):
            n = rng.randint(1, 4)
            s = SeifertMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            p = rng.randint(1, 9)
            float_route = sum(levine_tristram_signature(s, cmath.exp(2j * cmath.pi * k / p)) for k in range(p))
            assert total_p_signature(s, p) == float_route, (s, p)

    @pytest.mark.parametrize("p", [1001, 1002])
    def test_trefoil_closed_form_at_large_p(self, p):
        # the trefoil's signature at e^(2 pi i t), 0 <= t < 1
        def sigma(t):
            if Fraction(1, 6) < t < Fraction(5, 6):
                return -2
            return -1 if t in (Fraction(1, 6), Fraction(5, 6)) else 0

        assert total_p_signature(seifert_torus2(3), p) == sum(sigma(Fraction(k, p)) for k in range(p))

    def test_degenerate_symmetric_forms(self):
        # For symmetric S = A each (1-w) A + (1-conj(w)) A is a positive multiple
        # of A, so the total over p-th roots is (p - 1) sig(A).  Zero diagonals
        # force the pivot repair; every other matrix A = Q^T A0 Q has a radical.
        rng = random.Random(20261021)
        for trial in range(300):
            n = rng.randint(1, 5)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = a[j][i] = rng.choice((0, 0, 1, -1, 2, -3))
            if trial % 2 and n > 1:
                q = [[int(i == j) for j in range(n - 1)] + [rng.randint(-2, 2)] for i in range(n - 1)]
                a = [
                    [sum(q[k][i] * a[k][l] * q[l][j] for k in range(n - 1) for l in range(n - 1)) for j in range(n)]
                    for i in range(n)
                ]
            sig = descartes_signature(a)
            assert total_p_signature(SeifertMatrix(a), 2) == sig, a
            assert total_p_signature(SeifertMatrix(a), 5) == 4 * sig, a

    @settings(max_examples=20, deadline=None)
    @given(matrix_strategy(2), st.integers(min_value=1, max_value=6), st.data())
    def test_invariant_under_unimodular_conjugation(self, s, p, data):
        # build a unimodular matrix from a few elementary operations
        u = [[1, 0], [0, 1]]
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            k = data.draw(st.integers(min_value=-2, max_value=2))
            if data.draw(st.booleans()):
                u = [[u[0][0] + k * u[1][0], u[0][1] + k * u[1][1]], u[1]]
            else:
                u = [u[0], [u[1][0] + k * u[0][0], u[1][1] + k * u[0][1]]]
        conj = [
            [
                sum(u[a][i] * s.entries[a][b] * u[b][j] for a in range(2) for b in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert total_p_signature(SeifertMatrix(conj), p) == total_p_signature(s, p)


class TestSurgeryTau:
    def test_trefoil_two_surgery(self):
        assert casson_gordon_tau(seifert_torus2(3), Slope(2, 1)) == 2

    def test_unknot_reduces_to_dedekind_term(self):
        for p, q in [(2, 1), (3, 1), (5, 2), (7, 3), (13, 5)]:
            got = casson_gordon_tau(SeifertMatrix([]), Slope(p, q))
            assert got == -4 * p * dedekind_sum_fast(q, p)

    def test_positive_numerator_required(self):
        with pytest.raises(ValueError, match="outside its stated range"):
            casson_gordon_tau(SeifertMatrix([]), Slope(-2, 1))
        with pytest.raises(ValueError, match="outside its stated range"):
            casson_gordon_tau(SeifertMatrix([]), Slope(0, 1))

    @settings(max_examples=25, deadline=None)
    @given(
        matrix_strategy(2),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    def test_denominator_change_cancels_signature_part(self, s, p, q1, q2):
        assume(math.gcd(p, q1) == 1 and math.gcd(p, q2) == 1)
        diff = casson_gordon_tau(s, Slope(p, q1)) - casson_gordon_tau(s, Slope(p, q2))
        expected = 4 * p * (dedekind_sum_fast(q2, p) - dedekind_sum_fast(q1, p))
        assert diff == expected


class TestTauBudget:
    # T(2, 21) has a Seifert matrix of size 20, so p/q surgery runs an
    # elimination of 20 (p - 1) rows, charged 20 (p - 1) 21^2
    def test_last_slope_within_budget_answers(self):
        assert 20 * 113 * 21**2 <= TAU_WORK_BUDGET < 20 * 114 * 21**2
        assert total_p_signature(seifert_torus2(21), 114) == torus2_total_signature(21, 114)

    @pytest.mark.parametrize("p", [115, 10000])
    def test_past_budget_is_refused_before_elimination(self, p):
        work = 20 * (p - 1) * 21**2
        message = (
            f"Seifert matrix too costly for tau: {20 * (p - 1)} elimination rows at size 20 "
            f"cost {work} > budget {TAU_WORK_BUDGET}"
        )
        with pytest.raises(ValueError) as info:
            casson_gordon_tau(seifert_torus2(21), Slope(p, 1))
        assert str(info.value) == message


class TestMatrixParsing:
    def test_round_trip_small(self):
        text = "2\n-1 1\n0 -1\n"
        assert parse_seifert_matrix(text) == seifert_torus2(3)

    def test_comments_and_blanks(self):
        text = "# trefoil\n2\n\n-1 1  # first row\n0 -1\n"
        assert parse_seifert_matrix(text) == seifert_torus2(3)

    def test_size_zero(self):
        assert parse_seifert_matrix("0\n").size == 0

    def test_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_seifert_matrix("x\n")
        with pytest.raises(ValueError, match="first line"):
            parse_seifert_matrix("1 2\n")
        with pytest.raises(ValueError, match="expected 2 rows"):
            parse_seifert_matrix("2\n1 0\n")
        with pytest.raises(ValueError, match="bad matrix"):
            parse_seifert_matrix("2\n1 0\n1\n")
        with pytest.raises(ValueError, match="empty"):
            parse_seifert_matrix("# nothing\n")
