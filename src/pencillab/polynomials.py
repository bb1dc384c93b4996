"""Univariate polynomial arithmetic over the rationals, Smith normal form of
polynomial matrices, and rational root extraction.

Polynomials are tuples of Fractions in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

Poly = tuple[Fraction, ...]

PZERO: Poly = ()
PONE: Poly = (Fraction(1),)


def pnorm(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if any(not isinstance(x, Fraction) for x in c):
        return tuple(Fraction(x) for x in c)
    return tuple(c)


def pdeg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def padd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, x in enumerate(q):
        out[i] += x
    return pnorm(out)


def psub(p: Poly, q: Poly) -> Poly:
    out = list(p) + [Fraction(0)] * (len(q) - len(p))
    for i, x in enumerate(q):
        out[i] -= x
    return pnorm(out)


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return PZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return pnorm(out)


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [Fraction(0)] * max(0, len(p) - dq)
    for k in range(len(quo) - 1, -1, -1):
        f = rem[k + dq] / lead
        if f:
            quo[k] = f
            # the top coefficient rem[k + dq] cancels exactly
            for i in range(dq):
                rem[k + i] -= f * q[i]
    return pnorm(quo), pnorm(rem[:dq])


def pmonic(p: Poly) -> Poly:
    if not p:
        return PZERO
    lead = p[-1]
    return p if lead == 1 else tuple(x / lead for x in p)


def peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pdivides(d: Poly, p: Poly) -> bool:
    if not p:
        return True
    if not d:
        return False
    return not pdivmod(p, d)[1]


def s_minus(lam: Fraction) -> Poly:
    """The linear polynomial s - lam."""
    return pnorm((-lam, 1))


def linear_valuation(p: Poly, lam: Fraction) -> tuple[int, Poly]:
    """Multiplicity of lam as a root of p, and the deflated quotient."""
    if not p:
        raise ValueError("zero polynomial has no finite valuation")
    if lam == 0:
        mult = next((i for i, c in enumerate(p) if c), len(p))
        return mult, p[mult:]
    mult = 0
    while peval(p, lam) == 0:
        # synthetic division by (s - lam)
        out = list(p[1:])
        acc = p[-1]
        for i in range(len(p) - 2, 0, -1):
            acc = p[i] + lam * acc
            out[i - 1] = acc
        p = tuple(out)
        mult += 1
    return mult, p


def _primitive(c: list[int]) -> list[int]:
    """Integer coefficients divided by their content, with a positive
    leading coefficient."""
    g = 0
    for x in c:
        g = gcd(g, x)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _int_eval(c: list[int], x: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _int_derivative(c: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials, by the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = a
        while len(r) >= len(b):
            c, k = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _int_exact_div(f: list[int], g: list[int]) -> list[int]:
    """f / g for a primitive g dividing f; the quotient is integral by
    Gauss's lemma, so every step divides exactly."""
    f = list(f)
    out = [0] * (len(f) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = f[k + len(g) - 1] // g[-1]
        out[k] = c
        for i, y in enumerate(g):
            f[k + i] -= c * y
    return out


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """All rational roots of p with multiplicities (p nonzero).

    p-adic lifting (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 15): with f the squarefree part of p over the integers and a its
    leading coefficient, the rational roots of f are y/a for the integer
    roots y of the monic F(y) = a^(d-1) f(y/a).  Each such y reduces to a
    simple root of F modulo a prime q that keeps all its roots simple, and
    Newton's step lifts that root to y modulo q^(2^k).  Every y divides
    F(0) != 0, so a modulus above 2 max|F_i| pins it down.  The time is
    polynomial in the size of p.
    """
    if not p:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    v = next(i for i, c in enumerate(p) if c)
    if v:
        roots[Fraction(0)] = v
        p = p[v:]
    if pdeg(p) < 1:
        return roots
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = _primitive([int(c * den) for c in p])
    f = _int_exact_div(ints, _int_gcd(ints, _int_derivative(ints)))
    d, a = len(f) - 1, f[-1]
    big_f = [c * a ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    big_df = _int_derivative(big_f)
    q = 1
    while True:
        q += 2
        if not _is_prime(q):
            continue
        f_q = [c % q for c in big_f]
        residues = [r for r in range(q) if _int_eval(f_q, r) % q == 0]
        if all(_int_eval(big_df, r) % q for r in residues):
            break
    bound = 2 * max(abs(c) for c in big_f)
    for y in residues:
        m = q
        while m <= bound:
            m *= m
            y = (y - _int_eval(big_f, y) * pow(_int_eval(big_df, y), -1, m)) % m
        if y > m // 2:
            y -= m
        if _int_eval(big_f, y) == 0:
            lam = Fraction(y, a)
            roots[lam] = linear_valuation(p, lam)[0]
    return roots


def smith_diagonal(mat: list[list[Poly]], m: int, n: int) -> list[Poly]:
    """Smith normal form diagonal of an m x n polynomial matrix over Q[s].

    Gcd elimination with minimal-degree pivoting; returns the monic nonzero
    invariant factors d_1 | d_2 | ... in divisibility order.  Every nonzero
    remainder has a lower degree than the pivot and becomes the next pivot,
    so the pivot degree falls at each restart and the loop terminates.
    """
    a = [row[:] for row in mat]
    diag: list[Poly] = []
    t = 0
    while t < min(m, n):
        # the first minimal-degree nonzero entry of the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    d = pdeg(a[i][j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
                        if d == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pivot = a[t][t]
        # row operations clear column t down to remainders
        for i in range(t + 1, m):
            if a[i][t]:
                q, a[i][t] = pdivmod(a[i][t], pivot)
                for j in range(t + 1, n):
                    if a[t][j]:
                        a[i][j] = psub(a[i][j], pmul(q, a[t][j]))
        if any(a[i][t] for i in range(t + 1, m)):
            continue
        # with column t clear, a column operation changes row t alone
        for j in range(t + 1, n):
            if a[t][j]:
                a[t][j] = pdivmod(a[t][j], pivot)[1]
        if any(a[t][t + 1:]):
            continue
        # the pivot must divide every remaining entry; a constant always does
        if pdeg(pivot) > 0:
            bad = next((i for i in range(t + 1, m)
                        if any(x and not pdivides(pivot, x) for x in a[i][t + 1:])), None)
            if bad is not None:
                a[t] = [padd(x, y) for x, y in zip(a[t], a[bad])]
                continue
        diag.append(pmonic(pivot))
        t += 1
    for k in range(len(diag) - 1):
        assert pdivides(diag[k], diag[k + 1]), "invariant factors out of order"
    return diag
