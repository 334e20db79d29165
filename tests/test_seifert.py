"""Seifert pipeline tests: determinant route, signatures, surgery tau."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosmo.arith import Slope, dedekind_sum_fast
from cosmo.links import ConwayPoly, conway_polynomial, torus2_diagram
from cosmo.seifert import (
    SeifertMatrix,
    alexander_second_derivative,
    casson_gordon_tau,
    conway_from_seifert,
    levine_tristram_signature,
    parse_seifert_matrix,
    seifert_torus2,
    total_p_signature,
)
from cosmo.seifert import _laurent_to_z


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

    def test_reduction_rejects_non_symmetric_laurent(self):
        with pytest.raises(ValueError, match="not a valid Seifert matrix"):
            _laurent_to_z({1: 1, -1: 1})


class TestSecondDerivative:
    def test_frozen_values(self):
        assert alexander_second_derivative(SeifertMatrix([])) == 0
        assert alexander_second_derivative(seifert_torus2(3)) == 2
        assert alexander_second_derivative(seifert_torus2(5)) == 6

    def test_rejects_non_knot(self):
        with pytest.raises(ValueError, match="constant Conway coefficient 1"):
            alexander_second_derivative(SeifertMatrix([[1]]))

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
