"""Integer linear algebra for the extractor hot paths.

Scaling a pencil by a positive integer is a strict equivalence, so the
staircase can clear all denominators once and work with plain ints:
fraction-free row reduction with primitive rows is canonical (it is the
rational RREF with each row scaled to primitive integers, positive pivot).

Preimages under one fixed matrix M reuse a single reduction of [M | I]
(:func:`eliminate`): it yields ker M, a left kernel N with im M = ker N,
and the rows that map each w in im M to a particular solution of M x = w,
so each preimage costs a small kernel and some dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

IntRow = tuple[int, ...]


def vec_primitive(v) -> IntRow:
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(x // g for x in v)


_GROWTH_LIMIT = 1 << 48


def reduced_basis(rows, ncols: int) -> tuple[tuple[IntRow, ...], list[int]]:
    """Canonical reduced echelon basis (primitive rows, positive pivots)."""
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, len(work)):
            if work[i][c]:
                if piv == -1 or abs(work[i][c]) < abs(work[piv][c]):
                    piv = i
                    if abs(work[i][c]) == 1:
                        break
        if piv == -1:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row = [p * a - f * b for a, b in zip(work[i], work[r])]
                # primitive reduction is only needed for canonical output;
                # mid-elimination it just tames coefficient growth
                if any(x > _GROWTH_LIMIT or x < -_GROWTH_LIMIT for x in row):
                    row = list(vec_primitive(row))
                work[i] = row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(vec_primitive(work[i]) for i in range(r)), pivots


def int_rank(rows, ncols: int) -> int:
    return len(reduced_basis(rows, ncols)[0])


def _echelon_kernel(basis, pivots: list[int], ncols: int) -> tuple[IntRow, ...]:
    """Primitive kernel basis of a reduced echelon basis, one vector per free
    column."""
    pivset = set(pivots)
    den = lcm(*(row[pc] for row, pc in zip(basis, pivots)))
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [0] * ncols
        v[f] = den
        for row, pc in zip(basis, pivots):
            v[pc] = -row[f] * (den // row[pc])
        out.append(vec_primitive(v))
    return tuple(out)


def kernel_ints(rows, ncols: int) -> tuple[IntRow, ...]:
    """Primitive integer basis of the right kernel."""
    return _echelon_kernel(*reduced_basis(rows, ncols), ncols)


def mat_vec(rows, v: IntRow) -> IntRow:
    return tuple(sum(map(mul, row, v)) for row in rows)


@dataclass(frozen=True)
class Elimination:
    """One fraction-free reduction of [M | I] on the columns of M.

    For w in im M, the vector x with x[pivots[i]] = solve[i] . w and zeros
    elsewhere solves M x = L w, for one positive integer L shared by all
    rows of ``solve``."""

    kernel: tuple[IntRow, ...]
    left: tuple[IntRow, ...]
    pivots: tuple[int, ...]
    solve: tuple[IntRow, ...]
    ncols: int


def eliminate(rows, ncols: int) -> Elimination:
    """ker M, a left kernel basis N (im M = ker N) and the particular-solution
    rows of the m x ncols integer matrix M."""
    m = len(rows)
    aug = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(rows)]
    basis, pivots = reduced_basis(aug, ncols + m)
    rank = sum(pc < ncols for pc in pivots)
    # each row is [R | E] with R = E M: the rows with R = 0 span the left
    # kernel, the others hold M's reduced echelon form
    top, pivots = basis[:rank], pivots[:rank]
    den = lcm(*(row[pc] for row, pc in zip(top, pivots)))
    solve = tuple(tuple(x * (den // row[pc]) for x in row[ncols:])
                  for row, pc in zip(top, pivots))
    return Elimination(_echelon_kernel(top, pivots, ncols),
                       tuple(row[ncols:] for row in basis[rank:]),
                       tuple(pivots), solve, ncols)


def preimage_basis(elim: Elimination, wbasis) -> tuple[IntRow, ...]:
    """Basis of {x : M x in span(wbasis)}: ker M, then one particular
    solution per basis vector of span(wbasis) meet im M."""
    ws = wbasis
    if elim.left and wbasis:
        # W c lies in im M = ker N exactly when N W c = 0
        combos = kernel_ints(list(zip(*(mat_vec(elim.left, w) for w in wbasis))),
                             len(wbasis))
        wt = list(zip(*wbasis))
        ws = [mat_vec(wt, c) for c in combos]
    out = list(elim.kernel)
    for w in ws:
        x = [0] * elim.ncols
        for pc, v in zip(elim.pivots, mat_vec(elim.solve, w)):
            x[pc] = v
        out.append(vec_primitive(x))
    return tuple(out)
