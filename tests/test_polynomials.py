from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pencillab.polynomials import (PONE, PZERO, linear_valuation, padd, pdeg,
                                   pdivides, pdivmod, pmonic, pmul, pnorm, psub,
                                   rational_roots, s_minus, smith_diagonal)


def test_poly_basics():
    assert pnorm((1, 2, 0, 0)) == (F(1), F(2))
    assert pnorm(()) == PZERO
    assert pdeg(PZERO) == -1 and pdeg(PONE) == 0
    assert padd((F(1),), (F(-1), F(1))) == (F(0), F(1))
    assert psub((F(1), F(1)), (F(1),)) == (F(0), F(1))
    assert pmul(PZERO, PONE) == PZERO
    assert pmonic(pnorm((2, 4))) == (F(1, 2), F(1))


def test_divmod_property():
    import random
    rng = random.Random(3)
    for _ in range(200):
        a = pnorm([F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(rng.randint(0, 6))])
        b = pnorm([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        q, r = pdivmod(a, b)
        assert padd(pmul(q, b), r) == a
        assert pdeg(r) < pdeg(b)
    with pytest.raises(ZeroDivisionError):
        pdivmod(PONE, PZERO)


def test_pdivides():
    assert pdivides(s_minus(F(2)), pmul(s_minus(F(2)), s_minus(F(3))))
    assert not pdivides(s_minus(F(1)), s_minus(F(2)))
    assert pdivides(PONE, PZERO)


def test_linear_valuation_and_roots():
    p = pmul(pmul(s_minus(F(2)), s_minus(F(2))), s_minus(F(-1, 2)))
    assert linear_valuation(p, F(2))[0] == 2
    assert linear_valuation(p, F(5))[0] == 0
    assert rational_roots(p) == {F(2): 2, F(-1, 2): 1}
    # zero roots handled before divisor enumeration
    assert rational_roots(pnorm((0, 0, 1))) == {F(0): 2}
    # irreducible over the rationals
    assert rational_roots(pnorm((-2, 0, 1))) == {}


def test_rational_roots_skips_primes_with_colliding_roots():
    # 1..12 collide modulo 3, 5, 7 and 11, so the first prime that keeps
    # every root simple is 13
    p = PONE
    for i in range(1, 13):
        p = pmul(p, s_minus(F(i)))
    assert rational_roots(p) == {F(i): 1 for i in range(1, 13)}


# heights spread evenly over the digit counts, up to 10^30 / 10^12
numerators = st.integers(0, 30).flatmap(lambda k: st.integers(-10**k, 10**k))
denominators = st.integers(0, 12).flatmap(lambda k: st.integers(1, 10**k))
linear_factors = st.lists(st.tuples(numerators, denominators, st.integers(1, 3)),
                          min_size=1, max_size=4)
quadratic_factors = st.lists(
    st.tuples(st.integers(1, 50), st.integers(-50, 50), st.integers(-50, 50),
              st.integers(1, 2)),
    max_size=2)
contents = st.tuples(st.integers(1, 10**6) | st.integers(-10**6, -1), st.integers(1, 10**6))


@given(linear_factors, quadratic_factors, contents)
def test_rational_roots_recover_planted_roots(linears, quadratics, content):
    p = (F(*content),)
    planted = Counter()
    for num, den, mult in linears:
        planted[F(num, den)] += mult
        for _ in range(mult):
            p = pmul(p, s_minus(F(num, den)))
    for a, b, c, mult in quadratics:
        disc = b * b - 4 * a * c
        assume(disc < 0 or isqrt(disc) ** 2 != disc)  # irreducible over Q
        for _ in range(mult):
            p = pmul(p, pnorm((c, b, a)))
    assert rational_roots(p) == dict(planted)


def test_smith_diagonal_hand_cases():
    s = s_minus(F(0))
    one = PONE
    # [[s, 1], [0, s]] has invariant factors (1, s^2)
    mat = [[s, one], [PZERO, s]]
    assert smith_diagonal(mat, 2, 2) == [one, pnorm((0, 0, 1))]
    # diag(s, s(s-1)) is already in form
    mat = [[s, PZERO], [PZERO, pmul(s, s_minus(F(1)))]]
    assert smith_diagonal(mat, 2, 2) == [s, pmul(s, s_minus(F(1)))]
    # divisibility fixup needed: diag(s, s-1) -> (1, s(s-1))
    mat = [[s, PZERO], [PZERO, s_minus(F(1))]]
    assert smith_diagonal(mat, 2, 2) == [one, pmul(s, s_minus(F(1)))]
    assert smith_diagonal([[PZERO]], 1, 1) == []
    # a remainder in the pivot column, then one in the pivot row, re-pivots
    s2_plus_1 = pnorm((1, 0, 1))
    assert smith_diagonal([[s], [s2_plus_1]], 2, 1) == [one]
    assert smith_diagonal([[s, s2_plus_1]], 1, 2) == [one]


def _det(mat):
    """Determinant of a square polynomial matrix by cofactor expansion."""
    if not mat:
        return PONE
    total = PZERO
    for j, x in enumerate(mat[0]):
        if x:
            term = pmul(x, _det([row[:j] + row[j + 1:] for row in mat[1:]]))
            total = padd(total, term) if j % 2 == 0 else psub(total, term)
    return total


def _pgcd(p, q):
    while q:
        p, q = q, pdivmod(p, q)[1]
    return pmonic(p)


def determinantal_invariant_factors(mat, m, n):
    """d_k = D_k / D_{k-1}, with D_k the monic gcd of all k x k minors."""
    factors, prev = [], PONE
    for k in range(1, min(m, n) + 1):
        dk = PZERO
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                dk = _pgcd(dk, _det([[mat[i][j] for j in cols] for i in rows]))
        if not dk:
            break
        factors.append(pdivmod(dk, prev)[0])
        prev = dk
    return factors


# small coefficients, some with denominators, and 20-digit ones
coefficients = (st.integers(-3, 3)
                | st.builds(F, st.integers(-3, 3), st.integers(1, 4))
                | st.integers(10**19, 10**20) | st.integers(-10**20, -10**19))
polys = st.lists(coefficients, max_size=3).map(pnorm)


def _linear_product(roots):
    p = PONE
    for r in roots:
        p = pmul(p, s_minus(F(r)))
    return p


# products of up to three factors s - r, r in -1..1: diagonals of these need
# the pivot loop's divisibility fix-up when one does not divide the next
linear_products = st.lists(st.integers(-1, 1), max_size=3).map(_linear_product)


@st.composite
def polynomial_matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        mat = [[draw(polys) for _ in range(n)] for _ in range(m)]
    else:
        # a diagonal matrix hidden by one constant row operation
        mat = [[draw(linear_products) if i == j else PZERO for j in range(n)]
               for i in range(m)]
        if m > 1:
            k = pnorm((draw(st.integers(-3, 3)),))
            mat[1] = [padd(x, pmul(k, y)) for x, y in zip(mat[1], mat[0])]
    if m > 1 and draw(st.booleans()):
        # rank-deficient: the last row is a polynomial multiple of the first
        # plus the second (when there is a second)
        f = draw(polys)
        mat[-1] = [padd(pmul(f, x), mat[1][j] if m > 2 else PZERO)
                   for j, x in enumerate(mat[0])]
    return mat, m, n


@given(polynomial_matrices())
def test_smith_diagonal_matches_determinantal_divisors(case):
    mat, m, n = case
    assert smith_diagonal(mat, m, n) == determinantal_invariant_factors(mat, m, n)
