"""Brute-force row-completion oracle and the concordance sweep that pits it
against the combinatorial characterization.

For a fixed subpencil characteristic the oracle stacks every candidate row
h(s) = a + bs with entries from a small grid on top of the canonical
subpencil and extracts the resulting characteristic.  Two rows reach
strictly equivalent completions whenever they differ by a nonzero scalar
and a constant combination of subpencil rows, so candidates are deduped by
that orbit before extraction; the entry grid itself is the oracle's known
blind spot (wider grids live in the slow test tier).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .bounds import RankRelation
from .builder import build_pencil, iter_weyr_chars
from .completion import check_completion_full
from .extractor import IrrationalSpectrumError, WeyrChar, weyr_characteristic
from .intlinalg import reduced_basis, vec_primitive
from .partitions import Star, conjugate
from .pencils import INF, Pencil
from .rmatrix import Matrix


def _stack_row(sub: Pencil, row_a, row_b) -> Pencil:
    """The pencil with the row a + bs stacked on top of sub."""
    return Pencil(Matrix(sub.m + 1, sub.n, (tuple(map(Fraction, row_a)),) + sub.a.entries),
                  Matrix(sub.m + 1, sub.n, (tuple(map(Fraction, row_b)),) + sub.b.entries))


def completed_characteristics(omega_sub: WeyrChar,
                              entries: tuple[int, ...] = (-1, 0, 1)) -> set[WeyrChar]:
    """Every Weyr characteristic reachable by stacking one extra row with
    coefficient entries from the grid onto the canonical subpencil.

    Rows differing by a nonzero scalar and a constant combination of
    subpencil rows complete to strictly equivalent pencils, so the grid is
    deduped by that orbit: reduce the 2n coefficient vector against the
    subpencil row space (integer arithmetic on the free coordinates) and
    normalize to a primitive vector.
    """
    sub = build_pencil(omega_sub)
    n = sub.n
    basis, pivots = reduced_basis(
        [[int(x) for x in ra] + [int(x) for x in rb]
         for ra, rb in zip(sub.a.entries, sub.b.entries)], 2 * n)
    pivset = set(pivots)
    free = [c for c in range(2 * n) if c not in pivset]
    den = 1
    for row, pc in zip(basis, pivots):
        den = den * row[pc] // gcd(den, row[pc])
    scaled = [tuple((den // row[pc]) * row[f] for f in free)
              for row, pc in zip(basis, pivots)]
    q = len(free)

    achieved: dict[tuple[int, ...], WeyrChar | None] = {}
    results: set[WeyrChar] = set()
    for coeffs in itertools.product(entries, repeat=2 * n):
        lead = next((x for x in coeffs if x), None)
        if lead is not None and lead < 0:
            continue  # the negated twin reaches the same orbit
        w = [den * coeffs[f] for f in free]
        for r, pc in enumerate(pivots):
            vpc = coeffs[pc]
            if vpc:
                srow = scaled[r]
                for idx in range(q):
                    w[idx] -= vpc * srow[idx]
        key = vec_primitive(w)
        if key in achieved:
            continue
        full = [0] * (2 * n)
        for idx, f in enumerate(free):
            full[f] = key[idx]
        stacked = _stack_row(sub, full[:n], full[n:])
        try:
            omega = weyr_characteristic(stacked)
        except IrrationalSpectrumError:
            # cannot match any rational-spectrum candidate
            achieved[key] = None
            continue
        achieved[key] = omega
        results.add(omega)
    return results


@dataclass(frozen=True)
class Mismatch:
    omega_sub: WeyrChar
    omega_full: WeyrChar
    relation: RankRelation
    predicted: bool
    oracle: bool


def companion_completion_witness(omega_sub: WeyrChar,
                                 omega_full: WeyrChar) -> Pencil | None:
    """Explicit completion row for the oracle's entry-budget blind spot.

    When the subpencil has a single column-singular chain of length k and
    the target differs only by k+1 fresh simple eigenvalues, the chain can
    be closed into a companion block of the new characteristic polynomial;
    the row entries are that polynomial's coefficients, which is exactly
    where entries outside the +-1 grid become necessary.  Returns the
    stacked pencil (verified by extraction) or None when the shape does not
    apply.
    """
    sub_reg = dict(omega_sub.regular)
    extra: list = []
    for lam, p in omega_full.regular:
        if sub_reg.get(lam, ()) == p:
            continue
        if lam in sub_reg or p != (1,):
            return None
        extra.append(lam)
    if any(lam not in dict(omega_full.regular) for lam in sub_reg):
        return None
    chain = conjugate(omega_sub.col_star.tail)
    if len(chain) > 1:
        return None
    k = chain[0] if chain else 0
    if len(extra) != k + 1:
        return None
    if omega_sub.col_star.zeroth < 1:
        return None  # no singular chain available to close
    if omega_full.col_star != Star(omega_sub.col_star.zeroth - 1, ()):
        return None
    if omega_full.row_star != omega_sub.row_star:
        return None
    has_inf = INF in extra
    finite = [lam for lam in extra if lam != INF]
    chi = _poly_from_roots(finite)  # coefficients of prod (s - lam), ascending
    offset = omega_sub.regular_weight  # companion chain sits after the blocks
    n = omega_sub.n
    row_a = [Fraction(0)] * n
    row_b = [Fraction(0)] * n
    for j in range(min(k + 1, len(chi))):
        row_a[offset + j] = (-1) ** (k + j) * chi[j]
    if not has_inf:
        row_b[offset + k] = Fraction(1)
    stacked = _stack_row(build_pencil(omega_sub), row_a, row_b)
    try:
        if weyr_characteristic(stacked) == omega_full:
            return stacked
    except IrrationalSpectrumError:
        return None
    return None


def _poly_from_roots(roots) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for lam in roots:
        lam = Fraction(lam)
        coeffs = [Fraction(0)] + coeffs
        coeffs = [coeffs[i] - lam * (coeffs[i + 1] if i + 1 < len(coeffs) else 0)
                  for i in range(len(coeffs))]
    return coeffs


def concordance_mismatches(max_total: int,
                           entries: tuple[int, ...] = (-1, 0, 1),
                           ambient_cols: int | None = None) -> tuple[int, list[Mismatch]]:
    """Compare the characterization with the oracle over all characteristic
    pairs of total weight <= max_total (and column count <= ambient_cols if
    given); returns (pairs compared, mismatches)."""
    universe = list(iter_weyr_chars(max_total))
    if ambient_cols is not None:
        universe = [om for om in universe if om.n <= ambient_cols]
    by_shape: dict[tuple[int, int], list[WeyrChar]] = {}
    for om in universe:
        by_shape.setdefault((om.m, om.n), []).append(om)

    compared = 0
    bad: list[Mismatch] = []
    for omega_sub in universe:
        candidates = by_shape.get((omega_sub.m + 1, omega_sub.n), [])
        if not candidates:
            continue
        achieved = completed_characteristics(omega_sub, entries)
        for omega_full in candidates:
            gap = omega_full.rank - omega_sub.rank
            if gap == 0:
                relation = RankRelation.EQUAL
            elif gap == 1:
                relation = RankRelation.PLUS_ONE
            else:
                relation = None
            predicted = (relation is not None
                         and check_completion_full(omega_sub, omega_full, relation))
            oracle = omega_full in achieved
            compared += 1
            if predicted != oracle:
                bad.append(Mismatch(omega_sub, omega_full,
                                    relation or RankRelation.UNKNOWN, predicted, oracle))
    return compared, bad


def split_mismatches(mismatches: list[Mismatch]) -> tuple[list[Mismatch], list[Mismatch]]:
    """Split mismatches into (witnessed, unexplained).

    A witnessed mismatch is the oracle's entry-grid blind spot: a predicted
    completion the grid misses, realized by an extraction-verified
    companion_completion_witness row.  Every other mismatch, in particular
    any completion the oracle reaches but the characterization rejects, is
    unexplained.
    """
    witnessed: list[Mismatch] = []
    unexplained: list[Mismatch] = []
    for mm in mismatches:
        if (mm.predicted and not mm.oracle
                and companion_completion_witness(mm.omega_sub, mm.omega_full) is not None):
            witnessed.append(mm)
        else:
            unexplained.append(mm)
    return witnessed, unexplained
