"""Univariate polynomial arithmetic over the rationals, Smith normal form of
polynomial matrices, and rational root extraction.

Polynomials are tuples of Fractions in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.  The Smith form and the root
finder take and return such polynomials but work inside on primitive
integer coefficient lists, where a nonzero constant factor (a unit of Q[s])
can be dropped at will.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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


def _pseudo_divmod(x: list[int], p: list[int]) -> tuple[int, list[int], list[int]]:
    """(c, q, r) with c x = q p + r, c a nonzero integer dividing a power of
    p's leading coefficient, and deg r < deg p."""
    dp = len(p) - 1
    lead = p[-1]
    if not dp:
        g = gcd(lead, *x)
        return lead // g, [v // g for v in x], []
    r = list(x)
    q = [0] * (len(x) - dp)
    c = 1
    for k in range(len(q) - 1, -1, -1):
        top = r[k + dp]
        if not top:
            continue
        g = gcd(top, lead)
        f, scale = top // g, lead // g
        if scale != 1:
            r = [v * scale for v in r[:k + dp]]
            q = [v * scale for v in q]
            c *= scale
        q[k] = f
        for i in range(dp):
            r[k + i] -= f * p[i]
    del r[dp:]
    while r and not r[-1]:
        r.pop()
    return c, q, r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials, by the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_divmod(a, b)[2]
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


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
    # the gcd is primitive with a positive leading coefficient, so the
    # quotient is integral (Gauss's lemma) and the pseudo-division scales by 1
    f = _pseudo_divmod(ints, _int_gcd(ints, _int_derivative(ints)))[1]
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


def _int_entries(row) -> list[list[int]]:
    """A row of polynomials with int or Fraction coefficients as integer
    coefficient lists without trailing zeros, the row's denominators
    cleared."""
    den = lcm(*[x.denominator for p in row for x in p])
    if den == 1:
        out = [list(map(int, p)) for p in row]
    else:
        out = [[x.numerator * (den // x.denominator) for x in p] for p in row]
    for c in out:
        while c and not c[-1]:
            c.pop()
    return out


def _sub_mul(y: list[int], q: list[int], z: list[int]) -> list[int]:
    """y - q z."""
    out = y + [0] * (len(q) + len(z) - 1 - len(y))
    for i, a in enumerate(q):
        if a:
            for j, b in enumerate(z):
                if b:
                    out[i + j] -= a * b
    while out and not out[-1]:
        out.pop()
    return out


def _divide_content(polys: list[list[int]]) -> list[list[int]]:
    """The polynomials divided by the integer content they share."""
    g = 0
    for p in polys:
        if p:
            g = gcd(g, *p)
            if g == 1:
                return polys
    if g == 0:
        return polys
    return [[c // g for c in p] for p in polys]


def smith_diagonal(mat: list[list[Poly]], m: int, n: int) -> list[Poly]:
    """Smith normal form diagonal of an m x n polynomial matrix over Q[s].

    Entries may have int or Fraction coefficients, in ascending degree, and
    trailing zeros; each row's denominators are cleared on entry and the
    work is in integers.  Gcd elimination with minimal-degree pivoting: an
    entry x below the pivot p is replaced by its pseudo-remainder,
    c x = q p + r, through the row operation row_i <- c row_i - q row_t,
    and an entry right of it through the matching column operation.  A
    nonzero constant is a unit of Q[s], so scaling a row or column, and
    dividing it by its integer content after each operation (which keeps
    the coefficients from growing from step to step), leaves the invariant
    factors unchanged.  Every nonzero remainder has a lower degree than the
    pivot; the pivot's (degree, |leading coefficient|) never rises and falls
    within two restarts, so the loop terminates.  Returns the monic nonzero
    invariant factors d_1 | d_2 | ... in divisibility order, with Fraction
    coefficients.
    """
    a = [_divide_content(_int_entries(row)) for row in mat]
    pivots: list[list[int]] = []
    t = 0
    while t < min(m, n):
        # the first nonzero entry of least degree, then least leading
        # coefficient, in the trailing block
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or len(x) < best[0]
                          or len(x) == best[0] and abs(x[-1]) < best[1]):
                    best = (len(x), abs(x[-1]), i, j)
                    if best[:2] == (1, 1):
                        break
            else:
                continue
            break
        if best is None:
            break
        bi, bj = best[2:]
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pivot, prow = a[t][t], a[t]
        # row operations clear column t down to remainders
        for i in range(t + 1, m):
            if len(a[i][t]) >= len(pivot):
                c, q, rem = _pseudo_divmod(a[i][t], pivot)
                row = a[i]
                row[t] = rem
                for j in range(t + 1, n):
                    y = row[j] if c == 1 else [v * c for v in row[j]]
                    row[j] = _sub_mul(y, q, prow[j]) if prow[j] else y
                row[t:] = _divide_content(row[t:])
        if any(a[i][t] for i in range(t + 1, m)):
            continue
        # with column t clear, the column operation col_j <- col_j - (q/c) col_t
        # changes row t alone; a nonzero remainder r/c is kept as r by
        # scaling the rest of column j by c
        for j in range(t + 1, n):
            if len(prow[j]) >= len(pivot):
                c, _, prow[j] = _pseudo_divmod(prow[j], pivot)
                if prow[j]:
                    for i in range(t + 1, m):
                        a[i][j] = [v * c for v in a[i][j]]
                    col = _divide_content([a[i][j] for i in range(t, m)])
                    for i in range(t, m):
                        a[i][j] = col[i - t]
        if any(prow[t + 1:]):
            continue
        # the pivot must divide every remaining entry; a constant always does
        if len(pivot) > 1:
            bad = next((i for i in range(t + 1, m)
                        if any(x and _pseudo_divmod(x, pivot)[2] for x in a[i][t + 1:])),
                       None)
            if bad is not None:
                # row_t <- row_t + row_bad brings the offending entry into row t
                a[t] = [_sub_mul(x, [-1], y) for x, y in zip(a[t], a[bad])]
                continue
        pivots.append(pivot)
        t += 1
    for k in range(len(pivots) - 1):
        assert not _pseudo_divmod(pivots[k + 1], pivots[k])[2], \
            "invariant factors out of order"
    return [tuple(Fraction(c, p[-1]) for c in p) for p in pivots]
