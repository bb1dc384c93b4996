"""Interval formulas for the change of the Weyr characteristic under
one-row completion and rank-one perturbation, and the checker that compares
observed before/after characteristics against them.

Every interval carries a formula tag so reports stay traceable; square
roots are exact integer square roots throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .extractor import WeyrChar
from .pencils import Eigenvalue, RankOneKind, eigenvalue_str


def isqrt(k: int) -> int:
    if k < 0:
        raise ValueError("isqrt of a negative number")
    return math.isqrt(k)


class RankRelation(Enum):
    """Rank of the perturbed (or completed) pencil relative to the original."""

    EQUAL = "equal"
    MINUS_ONE = "minus-one"
    PLUS_ONE = "plus-one"
    UNKNOWN = "unknown"

    @classmethod
    def of_gap(cls, gap: int) -> "RankRelation":
        """The relation of a rank change (after minus before) of 0, -1 or +1."""
        for rel, g in _RANK_GAPS.items():
            if g == gap:
                return rel
        raise ValueError(f"rank changed by {gap}, not by at most one")

    @property
    def gap(self) -> int:
        """The rank change (after minus before) of a resolved relation."""
        return _RANK_GAPS[self]


_RANK_GAPS = {RankRelation.EQUAL: 0, RankRelation.MINUS_ONE: -1, RankRelation.PLUS_ONE: 1}


@dataclass(frozen=True)
class Scenario:
    """What is assumed known about a rank-one perturbation: the kind of the
    perturbing pencil (None = unknown) and the rank relation."""

    kind: RankOneKind | None
    rank_relation: RankRelation

    def coarsenings(self) -> list["Scenario"]:
        """This scenario together with every strictly coarser one."""
        kinds = [self.kind] + ([None] if self.kind is not None else [])
        rels = [self.rank_relation]
        if self.rank_relation is not RankRelation.UNKNOWN:
            rels.append(RankRelation.UNKNOWN)
        return [Scenario(k, r) for k in kinds for r in rels]

    def label(self) -> str:
        kind = self.kind.value if self.kind else "unknown"
        return f"kind={kind},rank={self.rank_relation.value}"


@dataclass(frozen=True)
class Interval:
    lower: int
    upper: int
    tag: str

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise AssertionError(f"empty interval {self.lower}..{self.upper} ({self.tag})")

    def contains(self, x: int) -> bool:
        return self.lower <= x <= self.upper

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lower, other.lower), max(self.upper, other.upper),
                        f"{self.tag}|{other.tag}")

    def covers(self, other: "Interval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "formula_tag": self.tag}


Intervals = dict[str, Interval]  # keys "w", "r", "s"


def completion_bounds(omega_known: WeyrChar, relation: RankRelation) -> Intervals:
    """One-row completion intervals for (w, r, s) differences (full pencil
    minus subpencil).

    EQUAL expects the subpencil characteristic (its row star weight enters
    the formula); PLUS_ONE expects the completed pencil characteristic (its
    column tail weight enters).
    """
    if relation is RankRelation.EQUAL:
        s1 = omega_known.row_star.star_weight
        return {
            "w": Interval(-1, 0, "eqgpboundw01req"),
            "r": Interval(0, 0, "eqgpboundr01lreq"),
            "s": Interval(1 - isqrt(s1 + 1), 1, "eqgpbounds01lreq"),
        }
    if relation is RankRelation.PLUS_ONE:
        r = omega_known.col_star.tail_weight
        return {
            "w": Interval(0, 1, "eqgpboundw01rdif"),
            "r": Interval(-1, isqrt(r), "eqgpboundr01lrdif"),
            "s": Interval(0, 0, "eqgpbounds01lrdif"),
        }
    raise ValueError(f"one-row completion admits EQUAL or PLUS_ONE, not {relation}")


def two_sided_completion_bounds(omega: WeyrChar, case: int) -> Intervals:
    """Intervals for two completions sharing a subpencil, by rank case:
    1 = both ranks equal the subpencil's, 2 = both exceed it by one,
    3 = the second pencil drops rank, 4 = the second pencil gains rank.
    All data comes from the first pencil's characteristic ``omega``."""
    r = omega.col_star.tail_weight
    s = omega.row_star.tail_weight
    s_star = omega.row_star.star_weight
    if case == 1:
        if s == 0:
            s_iv = Interval(0, 1, "eqgpboundsrrr1")
        else:
            s_iv = Interval(-isqrt(s_star), isqrt(s_star), "eqgpboundsrrr1")
        return {"w": Interval(-1, 1, "eqgpboundwrrr1"),
                "r": Interval(0, 0, "eqgpboundrrrr1"),
                "s": s_iv}
    if case == 2:
        if r == 0:
            r_iv = Interval(0, 2, "eqgpboundrrrr1+")
        else:
            r_iv = Interval(-isqrt(r) - 1, isqrt(r - 1) + 2, "eqgpboundrrrr1+")
        return {"w": Interval(-1, 1, "eqgpboundwrrr1"),
                "r": r_iv,
                "s": Interval(0, 0, "eqgpboundsrrr1+")}
    if case == 3:
        return {"w": Interval(-2, 0, "eqgpboundwrr+"),
                "r": Interval(-isqrt(r), 1, "eqgpboundrrr+"),
                "s": Interval(1 - isqrt(s_star + 1), 1, "eqgpboundsrr+")}
    if case == 4:
        return {"w": Interval(0, 2, "eqgpboundwr+r"),
                "r": Interval(-1, isqrt(r + 1), "eqgpboundrr+r"),
                "s": Interval(-1, -1 + isqrt(s_star), "eqgpboundsr+r")}
    raise ValueError(f"case must be 1..4, got {case}")


def _column_kind_bounds(omega: WeyrChar, relation: RankRelation) -> Intervals:
    """Perturbation by a constant-column rank-one pencil (row completions
    behind the scenes, hence the two-sided cases 2/3/4)."""
    if relation is RankRelation.EQUAL:
        both = two_sided_completion_bounds(omega, 1)
        return {"w": both["w"],
                "r": two_sided_completion_bounds(omega, 2)["r"],
                "s": both["s"]}
    if relation is RankRelation.MINUS_ONE:
        return two_sided_completion_bounds(omega, 3)
    if relation is RankRelation.PLUS_ONE:
        return two_sided_completion_bounds(omega, 4)
    raise ValueError("rank relation must be resolved here")


# Formula tags of the derived families, (w, r, s), as the paper prints them.
_DERIVED_TAGS: dict[tuple[RankOneKind | None, RankRelation], tuple[str, str, str]] = {
    (RankOneKind.ROW, RankRelation.EQUAL):
        ("eqgpboundwrrr1", "eqgpboundrrrr1col", "eqgpboundsrrr1+col"),
    (RankOneKind.ROW, RankRelation.MINUS_ONE):
        ("eqgpboundwrr+", "eqgpboundrrr+col", "eqgpboundsrr+col"),
    (RankOneKind.ROW, RankRelation.PLUS_ONE):
        ("eqgpboundwr+r", "eqgpboundrr+rcol", "eqgpboundsr+rcol"),
    (None, RankRelation.EQUAL):
        ("eqgpboundwrrr1", "eqgpboundrrrr1gilt", "eqgpboundrrrr1gilts"),
    (None, RankRelation.MINUS_ONE):
        ("eqgpboundwrr+", "eqgpboundrrr+rowcol", "eqgpboundsrr+rowcol"),
    (None, RankRelation.PLUS_ONE):
        ("eqgpboundwr+r", "eqgpboundrr+rrowcol", "eqgpboundsr+rrowcol"),
    (None, RankRelation.UNKNOWN):
        ("eqgpboundw", "eqgpboundr", "eqgpbounds"),
}

_RESOLVED = (RankRelation.EQUAL, RankRelation.MINUS_ONE, RankRelation.PLUS_ONE)


def _retag(ivs: Intervals, key: tuple[RankOneKind | None, RankRelation]) -> Intervals:
    return {c: Interval(ivs[c].lower, ivs[c].upper, tag)
            for c, tag in zip("wrs", _DERIVED_TAGS[key])}


def _hull(cases: list[Intervals]) -> Intervals:
    out = cases[0]
    for ivs in cases[1:]:
        out = {c: out[c].hull(ivs[c]) for c in out}
    return out


def _kind_bounds(omega: WeyrChar, kind: RankOneKind, relation: RankRelation) -> Intervals:
    """A known kind and a resolved rank relation.  The row kind is the
    column kind on the transposed data, with the r and s intervals swapped."""
    if kind is RankOneKind.COLUMN:
        return _column_kind_bounds(omega, relation)
    col = _column_kind_bounds(omega.transpose_swap(), relation)
    return _retag({"w": col["w"], "r": col["s"], "s": col["r"]}, (kind, relation))


def perturbation_bounds(omega: WeyrChar, scenario: Scenario) -> Intervals:
    """Intervals for the Weyr differences of H + rank-one P versus H.

    Whatever the scenario leaves unknown is the per-component hull of the
    cases it allows, the literal disjunction: a known kind with unknown rank
    relation keeps the hull of that kind's three tags, and an unknown kind
    carries the merged formula's own tag.
    """
    kind, rel = scenario.kind, scenario.rank_relation
    kinds = (kind,) if kind is not None else (RankOneKind.COLUMN, RankOneKind.ROW)
    rels = (rel,) if rel is not RankRelation.UNKNOWN else _RESOLVED
    out = _hull([_kind_bounds(omega, k, r) for r in rels for k in kinds])
    return out if kind is not None else _retag(out, (None, rel))


@dataclass(frozen=True)
class Violation:
    component: str
    index: int
    eigenvalue: Eigenvalue | None
    observed: int
    interval: Interval

    def to_json(self) -> dict:
        data = {"component": self.component, "index": self.index,
                "observed": self.observed, "interval": self.interval.to_json()}
        if self.eigenvalue is not None:
            data["lambda"] = eigenvalue_str(self.eigenvalue)
        return data


@dataclass(frozen=True)
class BoundReport:
    scenario: Scenario
    intervals: Intervals
    w_diffs: tuple[tuple[Eigenvalue, tuple[int, ...]], ...]
    r_diffs: tuple[int, ...]
    s_diffs: tuple[int, ...]
    violations: tuple[Violation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "scenario": {"kind": self.scenario.kind.value if self.scenario.kind else "unknown",
                         "rank_relation": self.scenario.rank_relation.value},
            "intervals": {k: v.to_json() for k, v in sorted(self.intervals.items())},
            "differences": {
                "w": [{"lambda": eigenvalue_str(lam), "diffs": list(d)}
                      for lam, d in self.w_diffs],
                "r": list(self.r_diffs),
                "s": list(self.s_diffs),
            },
            "violations": [v.to_json() for v in self.violations],
        }


def check_bounds(before: WeyrChar, after: WeyrChar, scenario: Scenario) -> BoundReport:
    """Compare per-index differences of two characteristics against the
    intervals the scenario prescribes for the first one.

    Differences are evaluated one index past the joint support; beyond that
    both sides vanish.
    """
    if (before.m, before.n) != (after.m, after.n):
        raise ValueError("characteristics describe different ambient sizes")
    ivs = perturbation_bounds(before, scenario)
    violations: list[Violation] = []

    w_rows = []
    spectrum = sorted(set(before.spectrum()) | set(after.spectrum()))
    for lam in spectrum:
        wb, wa = before.w(lam), after.w(lam)
        top = max(len(wb), len(wa)) + 1
        diffs = tuple((wa[i] if i < len(wa) else 0) - (wb[i] if i < len(wb) else 0)
                      for i in range(top))
        w_rows.append((lam, diffs))
        for i, d in enumerate(diffs):
            if not ivs["w"].contains(d):
                violations.append(Violation("w", i + 1, lam, d, ivs["w"]))

    def star_diffs(component: str, sb, sa) -> tuple[int, ...]:
        top = max(sb.support(), sa.support()) + 1
        diffs = tuple(sa.get(i) - sb.get(i) for i in range(top + 1))
        for i, d in enumerate(diffs):
            if not ivs[component].contains(d):
                violations.append(Violation(component, i, None, d, ivs[component]))
        return diffs

    r_diffs = star_diffs("r", before.col_star, after.col_star)
    s_diffs = star_diffs("s", before.row_star, after.row_star)
    return BoundReport(scenario, ivs, tuple(w_rows), r_diffs, s_diffs, tuple(violations))
