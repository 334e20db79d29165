"""Independent computations that the benchmark checks cosmo's outputs against.

Nothing here imports cosmo.  Each function is written from the definition
or a classical closed form, so a fault in the program cannot hide by being
copied into its own check:

- Dedekind sums by the literal sawtooth sum, and by the reciprocity law
  for moduli too large to sum;
- the Casson-Walker value of surgery on a 2-component link, from the
  ten-term surgery relation with the benchmark's own Dedekind sums;
- the candidate slopes of a purely cosmetic pair, by fitting the
  difference of direct evaluations at +p and -p;
- Conway polynomials and Levine-Tristram signatures of (2, n) torus knots;
- Alexander polynomials of braid closures from the reduced Burau matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Dedekind sums

LITERAL_SUM_LIMIT = 5000


def sawtooth_sum(p: int, q: int) -> Fraction:
    """s(p, q) = sum_{k=1}^{|q|-1} ((k/q)) ((kp/q)), summed term by term.

    For 0 < k < m = |q| and gcd(p, q) = 1 neither argument is an integer, so
    ((k/m)) = (2k - m) / 2m and ((kp/m)) = (2 (kp mod m) - m) / 2m.
    """
    m = abs(q)
    total = sum((2 * k - m) * (2 * (k * p % m) - m) for k in range(1, m))
    return Fraction(total, 4 * m * m)


def reciprocity_rhs(h: int, k: int) -> Fraction:
    """Right side of s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1) / 12hk."""
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4)


def dedekind(p: int, q: int) -> Fraction:
    """s(p, q) for coprime p, q: the literal sum for small moduli, otherwise
    the reciprocity law applied along the Euclidean algorithm."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"s({p}, {q}) needs coprime arguments")
    m = abs(q)
    if m <= LITERAL_SUM_LIMIT:
        return sawtooth_sum(p, m)
    h = p % m
    # s(h, m) = rhs(h, m) - s(m, h) and s(m, h) = s(m mod h, h)
    return reciprocity_rhs(h, m) - dedekind(m % h, h)


def euclid_steps(p: int, q: int) -> int:
    """Reciprocity steps that s(p, q) needs: Euclid on (p mod |q|, |q|)."""
    k = abs(q)
    h = p % k
    steps = 0
    while k > 1:
        h, k = k % h, h
        steps += 1
    return steps


def symbol(p: int, q: int) -> Fraction:
    """Normalized Dedekind symbol S(p/q) = 12 sign(q) s(p, q)."""
    return 12 * (1 if q > 0 else -1) * dedekind(p, q)


# ---------------------------------------------------------------------------
# Casson-Walker value of surgery on a 2-component link


def framing(px: int, qx: int, py: int, qy: int, lk: int) -> tuple[Fraction, int]:
    """Determinant and signature of the framing matrix [[px/qx, lk], [lk, py/qy]]."""
    d = Fraction(px * py, qx * qy) - lk * lk
    if d <= 0:
        return d, 0
    return d, 2 if Fraction(px, qx) + Fraction(py, qy) > 0 else -2


def lambda_w(a2x: int, a2y: int, a3: int, lk: int, sx: tuple[int, int], sy: tuple[int, int]) -> Fraction:
    """lambda_w of (sx, sy) surgery on a link with the given invariants.

    lambda_w / 2 = R / D + sigma / 8, where D is the determinant of the framing
    matrix [[sx, lk], [lk, sy]], sigma its signature and R the ten-term sum
    below, written over the common denominator 24 qx^2 qy^2.  Slopes are
    (p, q) pairs in lowest terms with q > 0.
    """
    px, qx = sx
    py, qy = sy
    d, sigma = framing(px, qx, py, qy, lk)
    if d == 0:
        raise ValueError("singular framing matrix")
    lk2 = lk * lk
    v3_times_24 = 12 * (-a3 + (a2x + a2y) * lk) + lk**3 - lk
    # 24 qx^2 qy^2 times each of the first nine terms
    num = (
        24 * a2x * py * qx * qx * qy
        - py * qx * qx * qy
        - py * qy
        + py * lk2 * qx * qx * qy
        + 24 * a2y * px * qx * qy * qy
        - px * qx * qy * qy
        - px * qx
        + px * lk2 * qx * qy * qy
        + 2 * v3_times_24 * qx * qx * qy * qy
    )
    rhs = Fraction(num, 24 * qx * qx * qy * qy) + d / 24 * (
        symbol(px, qx) - Fraction(px, qx) + symbol(py, qy) - Fraction(py, qy)
    )
    return 2 * (rhs / d + Fraction(sigma, 8))


def knot_surgery_lambda(lambda_sigma: Fraction, delta2: int, p: int, q: int) -> Fraction:
    """Casson's lambda of p/q surgery on a knot in a homology sphere."""
    sgn = 1 if p > 0 else -1
    return Fraction(lambda_sigma) + Fraction(q * delta2, 2 * p) - Fraction(sgn, 2) * dedekind(q, p)


def cosmetic_candidates(a2x: int, a2y: int, a3: int, s0: tuple[int, int]) -> tuple[int, ...]:
    """Positive integers p at which +p/1 and -p/1 surgery on the first
    component (the second framed at s0, lk = 0) give equal lambda_w.

    p * (lambda_w(+p) - lambda_w(-p)) is a polynomial of degree at most 2 in
    p; it is fitted through p = 1, 2, 3 by direct evaluation, confirmed at
    p = 4 and 7, and its positive integer roots are confirmed once more by
    direct evaluation.
    """

    def gap(p: int) -> Fraction:
        return p * (lambda_w(a2x, a2y, a3, 0, (p, 1), s0) - lambda_w(a2x, a2y, a3, 0, (-p, 1), s0))

    y1, y2, y3 = gap(1), gap(2), gap(3)
    c2 = (y3 - 2 * y2 + y1) / 2
    c1 = y2 - y1 - 3 * c2
    c0 = y1 - c1 - c2
    for p in (4, 7):
        if gap(p) != c2 * p * p + c1 * p + c0:
            raise ArithmeticError("surgery difference is not quadratic over p")
    if c2 == 0:
        roots = [] if c1 == 0 else [-c0 / c1]
    else:
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            roots = []
        else:
            rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
            if rn * rn != disc.numerator or rd * rd != disc.denominator:
                roots = []
            else:
                root = Fraction(rn, rd)
                roots = [(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)]
    found = sorted({int(r) for r in roots if r.denominator == 1 and r > 0})
    if any(gap(p) != 0 for p in found):
        raise ArithmeticError("fitted root is not a root of the direct evaluation")
    return tuple(found)


def pretzel_a3(a: int, b: int) -> Fraction:
    """a3 of the (2a+1, 2b, 2b) pretzel link: -b (2b^2 + 6ab + 3b + 1) / 6."""
    return Fraction(-b * (2 * b * b + 6 * a * b + 3 * b + 1), 6)


# ---------------------------------------------------------------------------
# (2, n) torus knots


def torus_conway(n: int) -> dict[int, int]:
    """Conway polynomial of T(2, n), n odd: sum_j C(m + j, 2j) z^{2j}, m = (n-1)/2."""
    m = (n - 1) // 2
    return {2 * j: math.comb(m + j, 2 * j) for j in range(m + 1)}


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def torus_signature(n: int, k: int, p: int) -> int:
    """Levine-Tristram signature of the positive T(2, n) at exp(2 pi i k / p).

    The Alexander roots on the unit circle are exp(i pi (2j - 1) / n) other
    than -1.  Each root passed on the way from 1 lowers the signature by 2; at
    a root itself the value is the midpoint of the two sides.
    """
    k = k % p
    k = min(k, p - k)  # the signature is symmetric under conjugation
    below = at = 0
    for j in range(1, (n + 1) // 2):
        # root angle pi (2j - 1) / n against 2 pi k / p, compared exactly
        lhs, rhs = (2 * j - 1) * p, 2 * k * n
        if lhs < rhs:
            below += 1
        elif lhs == rhs:
            at += 1
    return -(2 * below + at)


def tau(torus_ns: tuple[int, ...], p: int, q: int) -> Fraction:
    """Casson-Gordon tau of p/q surgery on the connected sum of T(2, n), n in torus_ns."""
    signature = sum(torus_signature(n, k, p) for n in torus_ns for k in range(p))
    return -4 * p * dedekind(q, p) - signature


# ---------------------------------------------------------------------------
# Braid closures: Alexander polynomial from the reduced Burau matrix
#
# Laurent polynomials in t are dicts {exponent: coefficient}.


def _ladd(a: dict[int, int], b: dict[int, int], sign: int = 1) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict[int, int] = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = _ladd(acc, poly_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _det(m) -> dict[int, int]:
    n = len(m)
    if n == 1:
        return m[0][0]
    total: dict[int, int] = {}
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = _ladd(total, poly_mul(m[0][j], _det(minor)), 1 if j % 2 == 0 else -1)
    return total


def _burau_generator(i: int, inverse: bool, strands: int):
    """Reduced Burau matrix of sigma_i, or of its inverse, in B_strands.

    sigma_i is the identity except for row i - 1, which reads (t, -t, 1) in
    columns i - 2, i - 1, i; its inverse reads (1, -1/t, 1/t) there.  Entries
    that fall outside the matrix are dropped.
    """
    size = strands - 1
    r = i - 1
    m = [[{0: 1} if row == col else {} for col in range(size)] for row in range(size)]
    left, mid, right = ({0: 1}, {-1: -1}, {-1: 1}) if inverse else ({1: 1}, {1: -1}, {0: 1})
    m[r][r] = mid
    if r > 0:
        m[r][r - 1] = left
    if r < size - 1:
        m[r][r + 1] = right
    return m


def burau_alexander_times_cyclotomic(word: list[int], strands: int) -> dict[int, int]:
    """det(I - B(t)) for the reduced Burau matrix B of the braid word, which
    is (1 + t + ... + t^(strands-1)) times the Alexander polynomial of its
    closure, up to a unit +-t^k."""
    size = strands - 1
    if size == 0:
        return {0: 1}
    b = [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]
    for letter in word:
        b = _mat_mul(b, _burau_generator(abs(letter), letter < 0, strands))
    eye_minus_b = [
        [_ladd({0: 1} if r == c else {}, b[r][c], -1) for c in range(size)] for r in range(size)
    ]
    return _det(eye_minus_b)


def _normalize_unit(poly: dict[int, int]) -> dict[int, int]:
    """Representative of poly up to +-x^k: lowest exponent 0, positive top coefficient."""
    if not poly:
        return {}
    low = min(poly)
    sign = 1 if poly[max(poly)] > 0 else -1
    return {e - low: sign * c for e, c in poly.items()}


def conway_matches_burau(nabla: dict[int, int], word: list[int], strands: int) -> bool:
    """Check nabla(x - 1/x) (1 + x^2 + ... + x^(2(strands-1))) against det(I - B(x^2)) up to +-x^k."""
    lhs: dict[int, int] = {}
    z = {1: 1, -1: -1}
    for e, c in nabla.items():
        term = {0: c}
        for _ in range(e):
            term = poly_mul(term, z)
        lhs = _ladd(lhs, term)
    lhs = poly_mul(lhs, {2 * j: 1 for j in range(strands)})
    rhs = {2 * e: c for e, c in burau_alexander_times_cyclotomic(word, strands).items()}
    return _normalize_unit(lhs) == _normalize_unit(rhs)
