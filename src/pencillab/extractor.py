"""Complete strict-equivalence invariants of a rational pencil: invariant
factors, partial multiplicities, minimal indices, and the assembled Weyr
characteristic.

Both kernels run on the pencil's integer coefficient rows (denominators
cleared once, a strict equivalence).  Partial multiplicities come from the
Smith normal form over Q[s] of A + sB (infinity through the reversal
B + sA).  Minimal indices come from a subspace staircase: with S_0 = ker A
and S_{d+1} = A^{-1}(B S_d), the dimension of S_d intersected with ker B
equals the number of column minimal indices that are <= d.  A is reduced
once per staircase; each step then needs a basis of B S_d and the part of
it inside im A.  Since S_d lies in S_{d+1}, the staircase stops when the
dimension stops growing.  An explicit block-convolution-matrix oracle of
the same counts is provided for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from math import gcd

from . import polynomials as pl
from .intlinalg import eliminate, int_rank, mat_vec, preimage_basis, reduced_basis
from .partitions import Partition, Star, conjugate, partition, weight
from .pencils import INF, Eigenvalue, Pencil, eigenvalue_str, parse_eigenvalue, reversal
from .pencils import transpose as pencil_transpose
from .rmatrix import Matrix, rank


class IrrationalSpectrumError(ValueError):
    """The pencil has an eigenvalue outside the rationals."""


@dataclass(frozen=True)
class WeyrChar:
    """Weyr characteristic: per-eigenvalue partitions plus the column and
    row star partitions.  Only eigenvalues with nonzero partition are
    stored, sorted with finite values ascending and infinity last."""

    regular: tuple[tuple[Eigenvalue, Partition], ...]
    col_star: Star
    row_star: Star

    def w(self, lam: Eigenvalue) -> Partition:
        for mu, p in self.regular:
            if mu == lam:
                return p
        return ()

    def spectrum(self) -> tuple[Eigenvalue, ...]:
        return tuple(lam for lam, _ in self.regular)

    @property
    def regular_weight(self) -> int:
        return sum(weight(p) for _, p in self.regular)

    @property
    def rank(self) -> int:
        return (self.regular_weight + self.col_star.tail_weight
                + self.row_star.tail_weight)

    @property
    def m(self) -> int:
        return self.rank + self.row_star.zeroth

    @property
    def n(self) -> int:
        return self.rank + self.col_star.zeroth

    def transpose_swap(self) -> "WeyrChar":
        return WeyrChar(self.regular, self.row_star, self.col_star)

    def to_json(self) -> dict:
        return {
            "regular": [{"lambda": eigenvalue_str(lam), "weyr": list(p)}
                        for lam, p in self.regular],
            "r_star": {"zeroth": self.col_star.zeroth, "tail": list(self.col_star.tail)},
            "s_star": {"zeroth": self.row_star.zeroth, "tail": list(self.row_star.tail)},
        }

    @staticmethod
    def from_json(data: dict) -> "WeyrChar":
        return weyr_char(
            {parse_eigenvalue(e["lambda"]): tuple(e["weyr"]) for e in data["regular"]},
            Star(int(data["r_star"]["zeroth"]), tuple(data["r_star"]["tail"])),
            Star(int(data["s_star"]["zeroth"]), tuple(data["s_star"]["tail"])),
        )


def weyr_char(regular: dict[Eigenvalue, Partition] | tuple, col_star: Star,
              row_star: Star) -> WeyrChar:
    """Canonicalizing constructor: strips empty partitions, sorts eigenvalues."""
    items = regular.items() if isinstance(regular, dict) else regular
    cleaned = [(lam, partition(p)) for lam, p in items if partition(p)]
    cleaned.sort(key=lambda t: t[0])
    return WeyrChar(tuple(cleaned), col_star, row_star)


@dataclass(frozen=True)
class KroneckerStructure:
    """Rank, per-eigenvalue partial multiplicities, and minimal index lists
    (zero entries significant)."""

    rank: int
    multiplicities: tuple[tuple[Eigenvalue, Partition], ...]
    column_minimal: tuple[int, ...]
    row_minimal: tuple[int, ...]


def _smith(arows, brows, m: int, n: int) -> list[pl.Poly]:
    """Invariant factors of the integer pencil arows + s brows."""
    return pl.smith_diagonal([list(zip(ra, rb)) for ra, rb in zip(arows, brows)], m, n)


def smith_invariant_factors(h: Pencil) -> list[pl.Poly]:
    """Monic invariant factors d_1 | d_2 | ... | d_rho of H(s) over Q[s]."""
    return _smith(*_int_rows(h), h.m, h.n)


def partial_multiplicities(h: Pencil, lam: Eigenvalue) -> Partition:
    """Exponent partition of (s - lam) across the invariant factors; the
    infinite eigenvalue is read off the reversal pencil at 0."""
    if lam == INF:
        return partial_multiplicities(reversal(h), Fraction(0))
    lam = Fraction(lam)
    factors = smith_invariant_factors(h)
    mults = [pl.linear_valuation(d, lam)[0] for d in factors]
    return partition(sorted(mults, reverse=True))


def _int_rows(h: Pencil) -> tuple[list[list[int]], list[list[int]]]:
    """Clear denominators globally (a strict equivalence, so invariants are
    untouched) and return plain integer coefficient rows."""
    den = 1
    for mat in (h.a, h.b):
        for row in mat.entries:
            for x in row:
                if x.denominator != 1:
                    den = den * x.denominator // gcd(den, x.denominator)
    if den == 1:
        arows = [[x.numerator for x in row] for row in h.a.entries]
        brows = [[x.numerator for x in row] for row in h.b.entries]
    else:
        arows = [[int(x * den) for x in row] for row in h.a.entries]
        brows = [[int(x * den) for x in row] for row in h.b.entries]
    return arows, brows


def column_index_counts(h: Pencil) -> list[int]:
    """counts[d] = number of column minimal indices <= d; the last entry is
    the stabilized total n - rank."""
    arows, brows = _int_rows(h)
    return _column_index_counts_int(arows, brows, h.m, h.n)


def _column_index_counts_int(arows, brows, m: int, n: int) -> list[int]:
    elim = eliminate(arows, n)
    s_d = elim.kernel
    counts: list[int] = []
    while True:
        img_basis = reduced_basis([mat_vec(brows, x) for x in s_d], m)[0]
        counts.append(len(s_d) - len(img_basis))
        s_next = preimage_basis(elim, img_basis)
        # S_d lies in S_{d+1}, so equal dimensions mean equal subspaces
        if len(s_next) == len(s_d):
            break
        s_d = s_next
    return counts


def _counts_to_indices(counts: list[int]) -> tuple[int, ...]:
    out: list[int] = []
    prev = 0
    for d, c in enumerate(counts):
        out.extend([d] * (c - prev))
        prev = c
    return tuple(sorted(out, reverse=True))


def minimal_indices(h: Pencil) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(column, row) minimal indices, weakly decreasing, zeros included."""
    cols = _counts_to_indices(column_index_counts(h))
    rows = _counts_to_indices(column_index_counts(pencil_transpose(h)))
    return cols, rows


def convolution_kernel_dim(h: Pencil, d: int) -> int:
    """Dimension of the degree <= d polynomial solutions of H(s) x(s) = 0,
    via the explicit ((d+2)m) x ((d+1)n) block convolution matrix.  Slow;
    kept as an independent oracle for the staircase counts."""
    m, n = h.m, h.n
    big_rows = (d + 2) * m
    big_cols = (d + 1) * n
    z = Fraction(0)
    ents = [[z] * big_cols for _ in range(big_rows)]
    for blk in range(d + 1):
        for i in range(m):
            for j in range(n):
                if h.a.entries[i][j]:
                    ents[blk * m + i][blk * n + j] = h.a.entries[i][j]
                if h.b.entries[i][j]:
                    ents[(blk + 1) * m + i][blk * n + j] = h.b.entries[i][j]
    mat = Matrix(big_rows, big_cols, tuple(tuple(r) for r in ents))
    return big_cols - rank(mat)


def column_index_counts_convolution(h: Pencil, dmax: int) -> list[int]:
    """Oracle version of :func:`column_index_counts` up to degree dmax."""
    dims = [convolution_kernel_dim(h, d) for d in range(dmax + 1)]
    return [dims[0]] + [dims[d] - dims[d - 1] for d in range(1, dmax + 1)]


def _transpose_int(rows, m: int, n: int) -> list[list[int]]:
    return [[rows[i][j] for i in range(m)] for j in range(n)]


def kronecker_structure(h: Pencil) -> KroneckerStructure:
    """Full Kronecker data; raises IrrationalSpectrumError when a finite
    eigenvalue falls outside the rationals."""
    arows, brows = _int_rows(h)
    col_counts = _column_index_counts_int(arows, brows, h.m, h.n)
    row_counts = _column_index_counts_int(_transpose_int(arows, h.m, h.n),
                                          _transpose_int(brows, h.m, h.n), h.n, h.m)
    cols = _counts_to_indices(col_counts)
    rows = _counts_to_indices(row_counts)
    rho = h.n - col_counts[-1]
    if h.m - row_counts[-1] != rho:
        raise AssertionError("column and row staircases disagree on the rank")

    mult: dict[Eigenvalue, list[int]] = {}
    inf_weight = 0
    if int_rank(brows, h.n) < rho:
        rev_factors = _smith(brows, arows, h.m, h.n)
        per = [next((i for i, c in enumerate(d) if c), len(d)) for d in rev_factors]
        inf_weight = sum(per)
        mult[INF] = sorted(per, reverse=True)

    # the invariant weights sum to the rank, so a shortfall here certifies
    # the presence of finite eigenvalues (and only then is Smith needed)
    if sum(cols) + sum(rows) + inf_weight < rho:
        factors = _smith(arows, brows, h.m, h.n)
        assert len(factors) == rho, "Smith form rank disagrees with staircase rank"
        top = factors[-1]
        roots = pl.rational_roots(top)
        residual = top
        for lam, k in roots.items():
            residual = pl.linear_valuation(residual, lam)[1]
        if pl.pdeg(residual) >= 1:
            raise IrrationalSpectrumError(
                f"invariant factor has a non-rational factor of degree {pl.pdeg(residual)}")
        for lam in roots:
            per = [pl.linear_valuation(d, lam)[0] for d in factors]
            mult[lam] = sorted(per, reverse=True)
        finite_degrees = sum(pl.pdeg(d) for d in factors)
        assert finite_degrees + inf_weight + sum(cols) + sum(rows) == rho, \
            "invariant weights do not sum to the rank"

    items = tuple(sorted(((lam, partition(p)) for lam, p in mult.items() if any(p)),
                         key=lambda t: t[0]))
    return KroneckerStructure(rho, items, cols, rows)


def weyr_characteristic(h: Pencil) -> WeyrChar:
    """Weyr characteristic (W, r*, s*) of the pencil."""
    ks = kronecker_structure(h)
    regular = {lam: conjugate(z) for lam, z in ks.multiplicities}
    col = Star(h.n - ks.rank, conjugate(ks.column_minimal))
    row = Star(h.m - ks.rank, conjugate(ks.row_minimal))
    out = weyr_char(regular, col, row)
    assert out.rank == ks.rank
    return out


def strictly_equivalent(g: Pencil, h: Pencil) -> bool:
    """Equality of the complete invariant system (same-shape pencils)."""
    if g.shape() != h.shape():
        raise ValueError(f"shape mismatch: {g.shape()} vs {h.shape()}")
    return weyr_characteristic(g) == weyr_characteristic(h)
