"""Row-completion characterizations and constructions.

``check_completion_full`` decides whether a pencil with one characteristic
can appear as a one-row-smaller subpencil of another.  A ``Prescription``
decides the same question when only one component of the missing side is
pinned down, and ``realize_companion`` produces an explicit full
companion characteristic witnessing feasibility.  A seeded Monte-Carlo
search for explicit rank-one perturbation witnesses rounds the module off.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bounds import RankRelation
from .builder import random_rank_one
from .extractor import (IrrationalSpectrumError, WeyrChar, weyr_char,
                        weyr_characteristic)
from .partitions import (Partition, Star, deficit_construct, deficit_feasible,
                         is_conjugate_majorized, part, partition, weight)
from .pencils import Eigenvalue, Pencil, RankOneKind

WMap = dict[Eigenvalue, Partition]


class Target(Enum):
    """Which Weyr component a prescription pins down."""

    REGULAR_PART = "regular"
    COLUMN_STAR = "col"
    ROW_STAR = "row"


class Direction(Enum):
    """FULL_PRESCRIBED: the full pencil is known, one subpencil invariant is
    prescribed.  SUBPENCIL_PRESCRIBED: the subpencil is known, one invariant
    of the completed pencil is prescribed."""

    FULL_PRESCRIBED = "sub"
    SUBPENCIL_PRESCRIBED = "completion"


@dataclass(frozen=True)
class Prescription:
    """A prescription problem shape: which component is pinned, on which
    side, and under which rank relation."""

    target: Target
    direction: Direction
    rank_relation: RankRelation

    @property
    def completion_relation(self) -> RankRelation:
        """rank(full) relative to rank(sub): a subpencil rank drop is, seen
        from the completion, a rank gain."""
        if self.rank_relation is RankRelation.MINUS_ONE:
            return RankRelation.PLUS_ONE
        return self.rank_relation

    def conditions(self, omega_known: WeyrChar, prescribed) -> list["Condition"]:
        prescribed = _validate_prescribed(self.target, prescribed)
        if self.direction is Direction.FULL_PRESCRIBED:
            return _sub_conditions(omega_known, self.target, prescribed,
                                   self.rank_relation)
        return _completion_conditions(omega_known, self.target, prescribed,
                                      self.rank_relation)

    def feasible(self, omega_known: WeyrChar, prescribed) -> bool:
        return all(ok for _, ok in self.conditions(omega_known, prescribed))

    def realize(self, omega_known: WeyrChar, prescribed) -> WeyrChar:
        return realize_companion(omega_known, self.target, prescribed,
                                 self.rank_relation, self.direction)


Condition = tuple[str, bool]


def _w_map(omega: WeyrChar) -> WMap:
    return dict(omega.regular)


def _interlace_up(low: WMap, high: WMap) -> bool:
    """w_i <= w1_i <= w_i + 1 for every index and eigenvalue."""
    for lam in set(low) | set(high):
        a, b = low.get(lam, ()), high.get(lam, ())
        for i in range(1, max(len(a), len(b)) + 1):
            if not part(a, i) <= part(b, i) <= part(a, i) + 1:
                return False
    return True


def _interlace_down(high: WMap, low: WMap) -> bool:
    """w_i - 1 <= w1_i <= w_i for every index and eigenvalue."""
    for lam in set(low) | set(high):
        a, b = high.get(lam, ()), low.get(lam, ())
        for i in range(1, max(len(a), len(b)) + 1):
            if not part(a, i) - 1 <= part(b, i) <= part(a, i):
                return False
    return True


def _z1_sum(wmap: WMap) -> int:
    """Sum over eigenvalues of the number of nonzero Weyr entries."""
    return sum(len(p) for p in wmap.values())


def _w_weight(wmap: WMap) -> int:
    return sum(weight(p) for p in wmap.values())


def completion_conditions(omega_sub: WeyrChar, omega_full: WeyrChar,
                          relation: RankRelation) -> list[Condition]:
    """Named conditions for the one-row completion characterization.

    ``omega_sub`` describes the (m-1) x n subpencil, ``omega_full`` the
    m x n pencil; the relation compares rank(full) to rank(sub)."""
    if omega_full.n != omega_sub.n:
        raise ValueError("completion requires equal column counts")
    w_full, w_sub = _w_map(omega_full), _w_map(omega_sub)
    if relation is RankRelation.EQUAL:
        return [
            ("rank-equal", omega_full.rank == omega_sub.rank),
            ("interww1w+1", _interlace_up(w_full, w_sub)),
            ("coleqconj", omega_full.col_star == omega_sub.col_star),
            ("rowprecconj", is_conjugate_majorized(omega_sub.row_star, omega_full.row_star)),
        ]
    if relation is RankRelation.PLUS_ONE:
        return [
            ("rank-plus-one", omega_full.rank == omega_sub.rank + 1),
            ("interw-1w1w", _interlace_down(w_full, w_sub)),
            ("colprecconj", is_conjugate_majorized(omega_full.col_star, omega_sub.col_star)),
            ("roweqconj", omega_full.row_star == omega_sub.row_star),
        ]
    raise ValueError("a one-row completion keeps the rank or raises it by one")


def check_completion_full(omega_sub: WeyrChar, omega_full: WeyrChar,
                          relation: RankRelation) -> bool:
    """Can the subpencil be completed by one row to the full pencil?"""
    return all(ok for _, ok in completion_conditions(omega_sub, omega_full, relation))


def _validate_prescribed(target: Target, prescribed):
    """The prescription with each regular-part partition normalized."""
    if target is Target.REGULAR_PART:
        if not isinstance(prescribed, dict):
            raise ValueError("regular-part prescription must map eigenvalues to partitions")
        return {lam: partition(p) for lam, p in prescribed.items()}
    if not isinstance(prescribed, Star):
        raise ValueError("star prescriptions must be star partitions")
    return prescribed


def _sub_conditions(omega: WeyrChar, target: Target, prescribed,
                    relation: RankRelation) -> list[Condition]:
    """Feasibility conditions with the full pencil known and one invariant
    of the one-row-smaller subpencil prescribed (already validated)."""
    w_full = _w_map(omega)
    r_star, s_star = omega.col_star, omega.row_star
    if relation is RankRelation.EQUAL:
        if target is Target.REGULAR_PART:
            x = _w_weight(prescribed) - omega.regular_weight
            return [("interww1w+1", _interlace_up(w_full, prescribed)),
                    ("eqs0geq1+eqws", deficit_feasible(s_star, x))]
        if target is Target.COLUMN_STAR:
            return [("coleqconj", prescribed == r_star),
                    ("eqs0geq1", s_star.zeroth >= 1)]
        return [("rowprecconj", is_conjugate_majorized(prescribed, s_star)),
                ("abss1leqabss", prescribed.star_weight < s_star.star_weight)]
    if relation is RankRelation.MINUS_ONE:
        if target is Target.REGULAR_PART:
            return [("interw-1w1w", _interlace_down(w_full, prescribed)),
                    ("eqwr+", _w_weight(prescribed) - omega.regular_weight + 1
                     <= r_star.tail_weight)]
        if target is Target.COLUMN_STAR:
            delta = prescribed.tail_weight - r_star.tail_weight + 1
            return [("colprecconj", is_conjugate_majorized(r_star, prescribed)),
                    ("eqrmins1leqz1", 0 <= delta <= _z1_sum(w_full))]
        return [("roweqconj", prescribed == s_star),
                ("eqabswabsrgeq1", omega.regular_weight + r_star.star_weight
                 > r_star.zeroth)]
    raise ValueError("subpencil rank is the full rank or one less")


def _completion_conditions(omega_sub: WeyrChar, target: Target, prescribed,
                           relation: RankRelation) -> list[Condition]:
    """Feasibility conditions with the subpencil known and one invariant of
    the one-row-larger completed pencil prescribed (already validated)."""
    w_sub = _w_map(omega_sub)
    r1_star, s1_star = omega_sub.col_star, omega_sub.row_star
    if relation is RankRelation.EQUAL:
        if target is Target.REGULAR_PART:
            return [("interww1w+1", _interlace_up(prescribed, w_sub))]
        if target is Target.COLUMN_STAR:
            return [("coleqconj", prescribed == r1_star)]
        delta = prescribed.tail_weight - s1_star.tail_weight
        return [("rowprecconj", is_conjugate_majorized(s1_star, prescribed)),
                ("eqqsmins1leqz", 0 <= delta <= _z1_sum(w_sub))]
    if relation is RankRelation.PLUS_ONE:
        if target is Target.REGULAR_PART:
            x = _w_weight(prescribed) - _w_weight(w_sub) - 1
            return [("interw-1w1w", _interlace_down(prescribed, w_sub)),
                    ("eqr10+eqwr", deficit_feasible(r1_star, x))]
        if target is Target.COLUMN_STAR:
            return [("colprecconj", is_conjugate_majorized(prescribed, r1_star)),
                    ("eqrr1", r1_star.tail_weight - prescribed.tail_weight + 1 >= 0)]
        return [("roweqconj", prescribed == s1_star),
                ("eqr10", r1_star.zeroth >= 1)]
    raise ValueError("the completed rank is the subpencil rank or one more")


def _fresh_eigenvalue(wmap: WMap) -> Eigenvalue:
    """Deterministic eigenvalue outside the current spectrum for the
    eigenvalue-bump constructions: 0, 1, -1, 2, -2, ..."""
    k = 0
    while True:
        for cand in (Fraction(k), Fraction(-k)) if k else (Fraction(0),):
            if cand not in wmap:
                return cand
        k += 1


def _bump(wmap: WMap, amount: int) -> WMap:
    """Attach an all-ones partition of the given length to a fresh
    eigenvalue (the height-`amount` column bump of the constructions)."""
    out = dict(wmap)
    if amount > 0:
        out[_fresh_eigenvalue(out)] = (1,) * amount
    return out


def _shrink_last_ones(wmap: WMap, total: int) -> WMap:
    """Lower the last `x(lam)` positive entries of each Weyr partition by
    one, distributing `total` greedily across eigenvalues."""
    out = dict(wmap)
    remaining = total
    for lam in sorted(out):
        if remaining == 0:
            break
        p = out[lam]
        take = min(len(p), remaining)
        lowered = p[:len(p) - take] + tuple(x - 1 for x in p[len(p) - take:])
        out[lam] = partition(lowered)
        remaining -= take
    assert remaining == 0, "not enough nonzero Weyr entries to shrink"
    return out


def realize_companion(omega_known: WeyrChar, target: Target, prescribed,
                      relation: RankRelation, direction: Direction) -> WeyrChar:
    """Full characteristic for the unprescribed side, following the explicit
    constructions; the result is always re-verified against
    check_completion_full."""
    problem = Prescription(target, direction, relation)
    if not problem.feasible(omega_known, prescribed):
        raise ValueError("prescription is infeasible")
    prescribed = _validate_prescribed(target, prescribed)
    if direction is Direction.FULL_PRESCRIBED:
        companion = _realize_sub(omega_known, target, prescribed, relation)
        pair = (companion, omega_known)
    else:
        companion = _realize_completion(omega_known, target, prescribed, relation)
        pair = (omega_known, companion)
    assert check_completion_full(*pair, problem.completion_relation), \
        "companion construction failed its own characterization"
    return companion


def _realize_sub(omega: WeyrChar, target: Target, prescribed,
                 relation: RankRelation) -> WeyrChar:
    w_full = _w_map(omega)
    r_star, s_star = omega.col_star, omega.row_star
    if relation is RankRelation.EQUAL:
        if target is Target.REGULAR_PART:
            x = _w_weight(prescribed) - omega.regular_weight
            return weyr_char(prescribed, r_star, deficit_construct(s_star, x))
        if target is Target.COLUMN_STAR:
            u1 = len(s_star.tail)
            w_sub = _bump(w_full, u1)
            return weyr_char(w_sub, r_star, s_star.decremented(u1))
        x = s_star.tail_weight - prescribed.tail_weight
        return weyr_char(_bump(w_full, x), r_star, prescribed)
    # relation MINUS_ONE
    if target is Target.REGULAR_PART:
        x = omega.regular_weight - _w_weight(prescribed) - 1
        if x == -1:
            c1 = len(r_star.tail)
            tail = list(r_star.tail)
            tail[c1 - 1] -= 1
            col = Star(r_star.zeroth + 1, partition(tail))
        else:
            col = r_star.plus_partition((1,) * (x + 1))
        return weyr_char(prescribed, col, s_star)
    if target is Target.COLUMN_STAR:
        x = prescribed.tail_weight - r_star.tail_weight + 1
        return weyr_char(_shrink_last_ones(w_full, x), prescribed, s_star)
    # ROW_STAR prescribed equal to the full row star
    if r_star.tail_weight == 0:
        col = Star(r_star.zeroth + 1, ())
        w_sub = _shrink_last_ones(w_full, 1)
    else:
        c1 = len(r_star.tail)
        tail = list(r_star.tail)
        tail[c1 - 1] -= 1
        col = Star(r_star.zeroth + 1, partition(tail))
        w_sub = w_full
    return weyr_char(w_sub, col, prescribed)


def _realize_completion(omega_sub: WeyrChar, target: Target, prescribed,
                        relation: RankRelation) -> WeyrChar:
    w_sub = _w_map(omega_sub)
    r1_star, s1_star = omega_sub.col_star, omega_sub.row_star
    if relation is RankRelation.EQUAL:
        if target is Target.REGULAR_PART:
            x = _w_weight(w_sub) - _w_weight(prescribed)
            return weyr_char(prescribed, r1_star, s1_star.plus_partition((1,) * (x + 1)))
        if target is Target.COLUMN_STAR:
            return weyr_char(w_sub, r1_star, Star(s1_star.zeroth + 1, s1_star.tail))
        y = prescribed.tail_weight - s1_star.tail_weight
        return weyr_char(_shrink_last_ones(w_sub, y), r1_star, prescribed)
    # relation PLUS_ONE
    if target is Target.REGULAR_PART:
        x = _w_weight(prescribed) - _w_weight(w_sub) - 1
        return weyr_char(prescribed, deficit_construct(r1_star, x), s1_star)
    if target is Target.COLUMN_STAR:
        x = r1_star.tail_weight - prescribed.tail_weight + 1
        return weyr_char(_bump(w_sub, x), prescribed, s1_star)
    # ROW_STAR prescribed equal to the subpencil row star
    c1 = len(r1_star.tail)
    col = r1_star.decremented(c1)
    return weyr_char(_bump(w_sub, c1 + 1), col, prescribed)


def search_rank_one_witness(h: Pencil, omega_target: WeyrChar, kind: RankOneKind,
                            budget: int, seed: int = 0) -> Pencil | None:
    """Seeded search for a rank-one pencil P of the given kind with
    weyr(h + P) equal to the target; None after `budget` trials proves
    nothing.  Trial randomness derives from (seed, trial), so the result is
    independent of any work partitioning."""
    if (omega_target.m, omega_target.n) != h.shape():
        raise ValueError("target characteristic has the wrong ambient size")
    for trial in range(budget):
        p = random_rank_one(seed * 1_000_003 + trial, h.m, h.n, kind,
                            unambiguous=False)
        candidate = h.add(p)
        try:
            if weyr_characteristic(candidate) == omega_target:
                return p
        except IrrationalSpectrumError:
            continue
    return None
