"""Dense exact-rational matrices and the small amount of linear algebra the
laboratory needs: reduced row echelon form, rank, and seeded unimodular
transform generation.

Matrices are immutable; 0-row and 0-column shapes are fully supported
because zero minimal indices produce empty Kronecker blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Row = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[Row, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(data: Sequence[Sequence], rows: int | None = None,
                  cols: int | None = None) -> "Matrix":
        ents = tuple(tuple(_frac(x) for x in row) for row in data)
        m = len(ents) if rows is None else rows
        if cols is None:
            if not ents:
                raise ValueError("column count required for 0-row matrix")
            n = len(ents[0])
        else:
            n = cols
        return Matrix(m, n, ents)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        z = Fraction(0)
        return Matrix(rows, cols, tuple(tuple([z] * cols) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                                  for i in range(n)))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def scale(self, a) -> "Matrix":
        a = _frac(a)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a * x for x in row) for row in self.entries))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Matrix(self.rows, self.cols,
                      tuple(tuple(x + y for x, y in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        ot = other.transpose().entries
        return Matrix(self.rows, other.cols,
                      tuple(tuple(sum(a * b for a, b in zip(row, col) if a and b)
                                  for col in ot) for row in self.entries))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("shape mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("shape mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]], rows: int, cols: int) -> "Matrix":
        ents = tuple(tuple(Fraction(str(x)) for x in row) for row in data)
        return Matrix(rows, cols, ents)


def rref(mat: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in mat]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # prefer a +-1 pivot to keep the arithmetic integral
        piv = -1
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                if piv == -1:
                    piv = i
                if abs(rows[i][c]) == 1:
                    piv = i
                    break
        if piv == -1:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(rref(m.entries, m.cols)[0])


def random_unimodular(n: int, rng: random.Random, ops: int | None = None) -> Matrix:
    """Integer matrix of determinant +-1 built from random elementary row
    operations with small multipliers."""
    if n == 0:
        return Matrix(0, 0, ())
    ents = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if ops is None:
        ops = 2 * n + 2
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            f = Fraction(rng.choice((-2, -1, 1, 2)))
            ents[i] = [a + f * b for a, b in zip(ents[i], ents[j])]
        elif kind == 1 and i != j:
            ents[i], ents[j] = ents[j], ents[i]
        else:
            ents[i] = [-a for a in ents[i]]
    return Matrix(n, n, tuple(tuple(r) for r in ents))
