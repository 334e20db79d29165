"""The skein oracle against an independent route: the reduced Burau representation.

For a braid word on n strands with reduced Burau matrix B(t),
det(I - B(t)) = (1 + t + ... + t^(n-1)) * Delta(t) up to a unit +-t^k, where
Delta is the Alexander polynomial of the closure (zero for a split link).
With t = x^2 and Delta(x^2) = nabla(x - 1/x) up to a unit, the Conway
polynomial of the closure is checked against linear algebra over Z[t, 1/t].

The oracle below is plain integer arithmetic and uses no cosmo code; only
the closures and their Conway polynomials come from cosmo.
"""

import random

from cosmo.links import braid_closure, conway_polynomial

# Laurent polynomials are dicts {exponent: coefficient} without zero entries.


def ladd(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def lmul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def identity(size):
    return [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]


def burau_generator(i, inverse, strands):
    """Reduced Burau matrix of sigma_i (or its inverse) in B_strands.

    It is the identity except for row i - 1, which reads (t, -t, 1) in
    columns i - 2, i - 1, i, or (1, -1/t, 1/t) for the inverse; entries that
    fall outside the matrix are dropped.
    """
    size, r = strands - 1, i - 1
    m = identity(size)
    left, mid, right = ({0: 1}, {-1: -1}, {-1: 1}) if inverse else ({1: 1}, {1: -1}, {0: 1})
    m[r][r] = mid
    if r > 0:
        m[r][r - 1] = left
    if r < size - 1:
        m[r][r + 1] = right
    return m


def matmul(a, b):
    n = len(a)
    out = identity(n)
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = ladd(acc, lmul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def det(m):
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total = ladd(total, lmul(entry, det(minor)), -1 if j % 2 else 1)
    return total


def burau_alexander_times_cyclotomic(word, strands):
    """det(I - B(t)) for the reduced Burau matrix B of the braid word."""
    size = strands - 1
    b = identity(size)
    for letter in word:
        b = matmul(b, burau_generator(abs(letter), letter < 0, strands))
    eye = identity(size)
    return det([[ladd(eye[r][c], b[r][c], -1) for c in range(size)] for r in range(size)])


def up_to_unit(p):
    """Representative of p up to +-x^k: lowest exponent 0, positive top coefficient."""
    if not p:
        return {}
    low, sign = min(p), (1 if p[max(p)] > 0 else -1)
    return {e - low: sign * c for e, c in p.items()}


def conway_matches_burau(nabla, word, strands):
    """nabla(x - 1/x) (1 + x^2 + ... + x^(2(strands-1))) against det(I - B(x^2)), up to +-x^k."""
    lhs = {}
    for e, c in nabla.items():
        term = {0: c}
        for _ in range(e):
            term = lmul(term, {1: 1, -1: -1})
        lhs = ladd(lhs, term)
    lhs = lmul(lhs, {2 * j: 1 for j in range(strands)})
    rhs = {2 * e: c for e, c in burau_alexander_times_cyclotomic(word, strands).items()}
    return up_to_unit(lhs) == up_to_unit(rhs)


def test_oracle_on_known_closures():
    assert conway_matches_burau({0: 1, 2: 1}, [1, 1, 1], 2)  # trefoil
    assert conway_matches_burau({0: 1, 2: -1}, [1, -2, 1, -2], 3)  # figure eight
    assert conway_matches_burau({1: 1}, [1, 1], 2)  # positive Hopf link
    assert conway_matches_burau({}, [], 3)  # three-component unlink
    assert not conway_matches_burau({0: 1}, [1, 1, 1], 2)


def test_skein_oracle_matches_burau_on_seeded_braids():
    rng = random.Random(11)
    components = []
    for _ in range(320):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))]
        d = braid_closure(word, strands)
        components.append(len(d.components))
        assert conway_matches_burau(conway_polynomial(d).coefficients, word, strands), (word, strands)
    assert components.count(1) >= 50
    assert len(components) - components.count(1) >= 50
