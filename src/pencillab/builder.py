"""Construction of pencils with prescribed Weyr characteristic, plus the
seeded random generators and exhaustive enumerators used by the
verification campaigns.

Block conventions: a column-singular block of index e is the e x (e+1)
pencil with s on the main diagonal and 1 on the superdiagonal (e = 0 gives
an empty-row, one-column block); row-singular blocks are the transposes;
a finite eigenvalue lam of size k contributes s*I - J_k(lam); infinity
contributes I + s*N_k.  Acceptance is via the extractor round trip, so any
consistent sign convention would do.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from .extractor import WeyrChar, weyr_char
from .partitions import Partition, Star, conjugate, iter_partitions, partition, star
from .pencils import (INF, Eigenvalue, Pencil, RankOneDecomposition,
                      RankOneKind, apply_equivalence)
from .randomness import make_rng
from .rmatrix import Matrix, random_unimodular

EIGENVALUE_POOL: tuple[Eigenvalue, ...] = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), INF)


Block = tuple[int, int, list[list[Fraction]], list[list[Fraction]]]


def _block_column_singular(e: int) -> Block:
    a = [[Fraction(0)] * (e + 1) for _ in range(e)]
    b = [[Fraction(0)] * (e + 1) for _ in range(e)]
    for i in range(e):
        b[i][i] = Fraction(1)
        a[i][i + 1] = Fraction(1)
    return e, e + 1, a, b


def _block_row_singular(e: int) -> Block:
    _, _, a, b = _block_column_singular(e)
    at = [[a[i][j] for i in range(e)] for j in range(e + 1)]
    bt = [[b[i][j] for i in range(e)] for j in range(e + 1)]
    return e + 1, e, at, bt


def _block_finite(lam: Fraction, k: int) -> Block:
    # s*I - J_k(lam)
    a = [[Fraction(0)] * k for _ in range(k)]
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        a[i][i] = -lam
        b[i][i] = Fraction(1)
        if i + 1 < k:
            a[i][i + 1] = Fraction(-1)
    return k, k, a, b


def _block_infinite(k: int) -> Block:
    # I + s*N_k
    a = [[Fraction(0)] * k for _ in range(k)]
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        a[i][i] = Fraction(1)
        if i + 1 < k:
            b[i][i + 1] = Fraction(1)
    return k, k, a, b


def _direct_sum(blocks: Sequence[Block], total_rows: int, total_cols: int) -> Pencil:
    z = Fraction(0)
    a = [[z] * total_cols for _ in range(total_rows)]
    b = [[z] * total_cols for _ in range(total_rows)]
    r = c = 0
    for h, w, ba, bb in blocks:
        for i in range(h):
            for j in range(w):
                a[r + i][c + j] = ba[i][j]
                b[r + i][c + j] = bb[i][j]
        r += h
        c += w
    assert (r, c) == (total_rows, total_cols)
    return Pencil(Matrix(total_rows, total_cols, tuple(tuple(x) for x in a)),
                  Matrix(total_rows, total_cols, tuple(tuple(x) for x in b)))


def build_pencil(omega: WeyrChar) -> Pencil:
    """Kronecker-canonical pencil whose Weyr characteristic is ``omega``.

    The result is (rho + s0) x (rho + r0) where rho is the total tail
    weight; zero minimal indices contribute genuine zero columns/rows, so
    0 x k and k x 0 shapes are possible.
    """
    rho = omega.rank
    m = rho + omega.row_star.zeroth
    n = rho + omega.col_star.zeroth
    blocks = []
    for lam, w in omega.regular:
        for k in conjugate(w):
            if lam == INF:
                blocks.append(_block_infinite(k))
            else:
                blocks.append(_block_finite(Fraction(lam), k))
    col_indices = conjugate(omega.col_star.tail)
    col_indices = col_indices + (0,) * (omega.col_star.zeroth - len(col_indices))
    row_indices = conjugate(omega.row_star.tail)
    row_indices = row_indices + (0,) * (omega.row_star.zeroth - len(row_indices))
    for e in col_indices:
        blocks.append(_block_column_singular(e))
    for e in row_indices:
        blocks.append(_block_row_singular(e))
    return _direct_sum(blocks, m, n)


def random_partition(rng: random.Random, total: int) -> Partition:
    parts: list[int] = []
    remaining = total
    while remaining > 0:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return partition(sorted(parts, reverse=True))


def random_weyr(seed: int, size_budget: int) -> WeyrChar:
    """Seeded random characteristic with total tail weight <= size_budget,
    eigenvalues drawn from the small standard pool."""
    rng = make_rng("weyr", seed)
    budget = rng.randint(0, size_budget)
    w_total = rng.randint(0, budget)
    r_total = rng.randint(0, budget - w_total)
    s_total = budget - w_total - r_total
    regular: dict[Eigenvalue, Partition] = {}
    eigs = list(EIGENVALUE_POOL)
    rng.shuffle(eigs)
    remaining = w_total
    for lam in eigs:
        if remaining == 0:
            break
        chunk = rng.randint(1, remaining)
        regular[lam] = random_partition(rng, chunk)
        remaining -= chunk
    r_tail = random_partition(rng, r_total)
    s_tail = random_partition(rng, s_total)
    r0 = (r_tail[0] if r_tail else 0) + rng.randint(0, 2)
    s0 = (s_tail[0] if s_tail else 0) + rng.randint(0, 2)
    return weyr_char(regular, Star(r0, r_tail), Star(s0, s_tail))


def random_vector(rng: random.Random, n: int, nonzero: bool = True) -> tuple[Fraction, ...]:
    while True:
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        if not nonzero or any(v):
            return v


def random_rank_one(seed: int, m: int, n: int, kind: RankOneKind,
                    unambiguous: bool = True) -> Pencil:
    """Seeded rank-one pencil of the requested kind with small integer
    entries.

    With ``unambiguous`` the two pencil-coefficient factors are kept
    non-parallel so the classifier recovers the kind whenever the shape
    allows it (COLUMN needs n >= 2, ROW needs m >= 2); without it the draw
    covers the full rank-one family of that shape, degenerate overlaps
    included."""
    if m < 1 or n < 1:
        raise ValueError("rank-one pencils need at least one row and column")
    rng = make_rng("rank-one", seed, m, n, kind.value)
    zero_m = (Fraction(0),) * m
    zero_n = (Fraction(0),) * n
    while True:
        if kind is RankOneKind.COLUMN:
            u = random_vector(rng, m)
            v0 = random_vector(rng, n, nonzero=False)
            v1 = random_vector(rng, n, nonzero=False)
            if not (any(v0) or any(v1)):
                continue
            if unambiguous and n >= 2 and _parallel(v0, v1):
                continue
            dec = RankOneDecomposition(kind, u, zero_m, v0, v1)
        else:
            v = random_vector(rng, n)
            u0 = random_vector(rng, m, nonzero=False)
            u1 = random_vector(rng, m, nonzero=False)
            if not (any(u0) or any(u1)):
                continue
            if unambiguous and m >= 2 and _parallel(u0, u1):
                continue
            dec = RankOneDecomposition(kind, u0, u1, v, zero_n)
        return dec.reconstruct()


def _parallel(x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    n = len(x)
    return all(x[i] * y[j] == x[j] * y[i] for i in range(n) for j in range(i + 1, n))


def random_equivalence(h: Pencil, seed: int) -> Pencil:
    """Apply a seeded random unimodular strict equivalence."""
    rng = make_rng("equiv", seed)
    p = random_unimodular(h.m, rng)
    q = random_unimodular(h.n, rng)
    return apply_equivalence(h, p, q)


def _iter_weyr_multiset_maps(total: int, finite_pool: Sequence[Eigenvalue]
                             ) -> Iterator[tuple[tuple[Eigenvalue, Partition], ...]]:
    """Regular parts of weight exactly ``total``: a partition at infinity
    plus a canonically ordered multiset of partitions assigned to the finite
    pool eigenvalues in order."""
    nonempty = {}
    for w in range(1, total + 1):
        nonempty[w] = list(iter_partitions(w))

    def multisets(remaining: int, max_key: tuple, count: int
                  ) -> Iterator[tuple[Partition, ...]]:
        if remaining == 0:
            yield ()
            return
        if count == 0:
            return
        for w in range(remaining, 0, -1):
            for p in nonempty[w]:
                key = (w, p)
                if key > max_key:
                    continue
                for rest in multisets(remaining - w, key, count - 1):
                    yield (p,) + rest

    for inf_w in range(total + 1):
        for inf_part in iter_partitions(inf_w):
            fin_total = total - inf_w
            for ms in multisets(fin_total, (fin_total + 1, ()), len(finite_pool)):
                entry: list[tuple[Eigenvalue, Partition]] = []
                if inf_part:
                    entry.append((INF, inf_part))
                entry.extend(zip(finite_pool, ms))
                yield tuple(entry)


def _iter_weyr_labeled_maps(total: int, pool: Sequence[Eigenvalue]
                            ) -> Iterator[tuple[tuple[Eigenvalue, Partition], ...]]:
    """Regular parts of weight exactly ``total`` with an individual partition
    for every pool eigenvalue."""
    def rec(slots: int, remaining: int) -> Iterator[tuple[Partition, ...]]:
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for w in range(remaining + 1):
            for p in iter_partitions(w):
                for rest in rec(slots - 1, remaining - w):
                    yield (p,) + rest

    for combo in rec(len(pool), total):
        yield tuple((lam, p) for lam, p in zip(pool, combo) if p)


def iter_weyr_chars(max_total: int, labeled: bool = False,
                    pool: Sequence[Eigenvalue] = EIGENVALUE_POOL) -> Iterator[WeyrChar]:
    """All Weyr characteristics with regular weight + both star weights
    (zeroth terms included) at most ``max_total``, over the eigenvalue pool.

    ``labeled`` enumerates every assignment of partitions to pool
    eigenvalues; the default canonical mode assigns partition multisets to
    the finite eigenvalues in pool order, which covers every structure up
    to relabeling.
    """
    finite_pool = tuple(lam for lam in pool if lam != INF)
    star_cache: dict[int, list[Star]] = {}
    for w in range(max_total + 1):
        star_cache[w] = [star(p) for p in iter_partitions(w)]
    for w_reg in range(max_total + 1):
        maps = (_iter_weyr_labeled_maps(w_reg, pool) if labeled
                else _iter_weyr_multiset_maps(w_reg, finite_pool))
        for regular in maps:
            for r_sw in range(max_total - w_reg + 1):
                for col in star_cache[r_sw]:
                    for s_sw in range(max_total - w_reg - r_sw + 1):
                        for row in star_cache[s_sw]:
                            yield weyr_char(regular, col, row)


__all__ = [
    "EIGENVALUE_POOL", "build_pencil", "random_weyr", "random_rank_one",
    "random_equivalence", "random_partition", "iter_weyr_chars",
]
