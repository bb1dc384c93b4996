"""Matrix pencils H(s) = A + sB over the rationals.

Eigenvalue labels are exact rationals, with ``INF`` (math.inf) as the
distinguished label for the eigenvalue at infinity; evaluating a pencil at
``INF`` yields its degree-one coefficient.  The spectrum handled by this
package is restricted to rational points, which keeps every computation
exact and every equality decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rmatrix import Matrix, rank

INF = math.inf

Eigenvalue = Fraction | float  # a Fraction, or INF


def eigenvalue(value) -> Eigenvalue:
    """Coerce a user-supplied eigenvalue label."""
    if value == INF:
        return INF
    if isinstance(value, float):
        raise TypeError("finite eigenvalues must be exact rationals")
    return Fraction(value)


def eigenvalue_str(lam: Eigenvalue) -> str:
    return "inf" if lam == INF else str(lam)


def parse_eigenvalue(text: str) -> Eigenvalue:
    return INF if text.strip() == "inf" else Fraction(text)


@dataclass(frozen=True)
class Pencil:
    """H(s) = a + s*b with a, b of identical shape."""

    a: Matrix
    b: Matrix

    def __post_init__(self) -> None:
        if (self.a.rows, self.a.cols) != (self.b.rows, self.b.cols):
            raise ValueError("pencil coefficient shapes differ")

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols

    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def add(self, other: "Pencil") -> "Pencil":
        return Pencil(self.a.add(other.a), self.b.add(other.b))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "A": self.a.to_json(), "B": self.b.to_json()}

    @staticmethod
    def from_json(data: dict) -> "Pencil":
        m, n = int(data["m"]), int(data["n"])
        return Pencil(Matrix.from_json(data["A"], m, n), Matrix.from_json(data["B"], m, n))


def evaluate(h: Pencil, lam: Eigenvalue) -> Matrix:
    """H(lam) for finite lam; the degree-one coefficient for lam = INF."""
    if lam == INF:
        return h.b
    return h.a.add(h.b.scale(Fraction(lam)))


def transpose(h: Pencil) -> Pencil:
    return Pencil(h.a.transpose(), h.b.transpose())


def reversal(h: Pencil) -> Pencil:
    """Swap the coefficients, exchanging the eigenvalues 0 and infinity."""
    return Pencil(h.b, h.a)


def normal_rank(h: Pencil) -> int:
    """Rank over the rational function field.

    A nonzero k x k minor has degree at most min(m, n), so evaluating at
    min(m, n) + 1 distinct finite points cannot miss it.
    """
    bound = min(h.m, h.n)
    best = 0
    for j in range(bound + 1):
        best = max(best, rank(evaluate(h, Fraction(j))))
        if best == bound:
            break
    return best


def apply_equivalence(h: Pencil, p: Matrix, q: Matrix) -> Pencil:
    """P * H(s) * Q for invertible constant P, Q; preserves all invariants."""
    if p.rows != p.cols or p.rows != h.m or rank(p) != p.rows:
        raise ValueError("left transform must be invertible m x m")
    if q.rows != q.cols or q.rows != h.n or rank(q) != q.rows:
        raise ValueError("right transform must be invertible n x n")
    return Pencil(p.matmul(h.a).matmul(q), p.matmul(h.b).matmul(q))


class RankOneKind(Enum):
    """Shape of a rank-one pencil.

    COLUMN: P(s) = u * v(s)^T with constant u (all columns share one constant
    direction; no positive row minimal indices).
    ROW: P(s) = u(s) * v^T with constant v (no positive column minimal
    indices).
    """

    COLUMN = "col"
    ROW = "row"


@dataclass(frozen=True)
class RankOneDecomposition:
    """P(s) = (u0 + s u1) (v0 + s v1)^T, with u1 = 0 for COLUMN kind and
    v1 = 0 for ROW kind."""

    kind: RankOneKind
    u0: tuple[Fraction, ...]
    u1: tuple[Fraction, ...]
    v0: tuple[Fraction, ...]
    v1: tuple[Fraction, ...]

    def reconstruct(self) -> Pencil:
        m, n = len(self.u0), len(self.v0)
        a = Matrix(m, n, tuple(tuple(self.u0[i] * self.v0[j] for j in range(n))
                               for i in range(m)))
        b = Matrix(m, n, tuple(tuple(self.u0[i] * self.v1[j] + self.u1[i] * self.v0[j]
                                     for j in range(n)) for i in range(m)))
        return Pencil(a, b)


def classify_rank_one(p: Pencil) -> RankOneDecomposition:
    """Factor a rank-one pencil; COLUMN preferred when both kinds apply."""
    if normal_rank(p) != 1:
        raise ValueError("classify_rank_one requires a pencil of normal rank 1")
    zero_m = (Fraction(0),) * p.m
    zero_n = (Fraction(0),) * p.n
    if rank(p.a.hstack(p.b)) == 1:
        u = _common_column(p)
        i0 = next(i for i, x in enumerate(u) if x)
        v0 = tuple(p.a.entries[i0][j] / u[i0] for j in range(p.n))
        v1 = tuple(p.b.entries[i0][j] / u[i0] for j in range(p.n))
        dec = RankOneDecomposition(RankOneKind.COLUMN, u, zero_m, v0, v1)
    elif rank(p.a.vstack(p.b)) == 1:
        v = _common_row(p)
        j0 = next(j for j, x in enumerate(v) if x)
        u0 = tuple(p.a.entries[i][j0] / v[j0] for i in range(p.m))
        u1 = tuple(p.b.entries[i][j0] / v[j0] for i in range(p.m))
        dec = RankOneDecomposition(RankOneKind.ROW, u0, u1, v, zero_n)
    else:
        raise AssertionError("rank-one pencil admits neither factorization")
    assert dec.reconstruct() == p, "rank-one factors failed to reconstruct input"
    return dec


def _common_column(p: Pencil) -> tuple[Fraction, ...]:
    for mat in (p.a, p.b):
        for j in range(p.n):
            col = tuple(mat.entries[i][j] for i in range(p.m))
            if any(col):
                return col
    raise AssertionError("zero pencil cannot have rank one")


def _common_row(p: Pencil) -> tuple[Fraction, ...]:
    for mat in (p.a, p.b):
        for i in range(p.m):
            row = mat.entries[i]
            if any(row):
                return row
    raise AssertionError("zero pencil cannot have rank one")
