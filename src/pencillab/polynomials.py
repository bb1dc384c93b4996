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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """All rational roots of p with multiplicities (p nonzero)."""
    if not p:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    # strip the root at 0 first
    v = 0
    while p and p[0] == 0:
        p = p[1:]
        v += 1
    if v:
        roots[Fraction(0)] = v
    if pdeg(p) < 1:
        return roots
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    dens = _divisors(ints[-1])
    for num in _divisors(ints[0]):
        for q in dens:
            for cand in (Fraction(num, q), Fraction(-num, q)):
                if peval(p, cand) == 0:
                    mult, p = linear_valuation(p, cand)
                    roots[cand] = mult
                    if pdeg(p) < 1:
                        return roots
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
