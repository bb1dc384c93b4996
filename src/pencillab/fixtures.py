"""The built-in reachability fixture suite.

Thirteen cases exercise every bound formula at an endpoint: each case pins
the full characteristics of a pencil, a one-row subpencil, and a second
completion, drives the prescription predicates and companion constructions
over that data, and asserts the attained extremal differences exactly.
Large cases are validated at the partition level; the small ones also build
pencils and search for an explicit rank-one perturbation witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import RankRelation, Scenario, check_bounds
from .builder import build_pencil
from .completion import (Direction, Prescription, Target, check_completion_full,
                         search_rank_one_witness)
from .extractor import WeyrChar, weyr_char, weyr_characteristic
from .partitions import Star, part, rle, star
from .pencils import RankOneKind, classify_rank_one

F0 = Fraction(0)


@dataclass(frozen=True)
class Step:
    target: Target
    prescribed: object
    relation: RankRelation


@dataclass(frozen=True)
class Extreme:
    component: str          # "w", "r", "s"
    eigenvalue: object      # eigenvalue for "w", None otherwise
    index: int
    value: int
    endpoint: str           # "lower" or "upper"


@dataclass(frozen=True)
class FixtureCase:
    id: str
    omega: WeyrChar
    omega_sub: WeyrChar
    omega_hat: WeyrChar
    step1: Step             # prescribes a subpencil invariant from omega
    step2: Step             # prescribes a completed-pencil invariant from omega_sub
    scenario: Scenario
    extremes: tuple[Extreme, ...]
    witness_budget: int = 0  # >0: also search for an explicit perturbation
    witness_seed: int = 0


def _star(*runs: tuple[int, int]) -> Star:
    return star(rle(*runs))


def _cases() -> tuple[FixtureCase, ...]:
    eq, minus, plus = RankRelation.EQUAL, RankRelation.MINUS_ONE, RankRelation.PLUS_ONE
    col = RankOneKind.COLUMN
    cases = []

    cases.append(FixtureCase(
        id="reach-w-rank-equal",
        omega=weyr_char({F0: (1, 1)}, Star(1), Star(0)),
        omega_sub=weyr_char({F0: (1,)}, Star(2), Star(0)),
        omega_hat=weyr_char({F0: (2,)}, Star(1), Star(0)),
        step1=Step(Target.REGULAR_PART, {F0: (1,)}, minus),
        step2=Step(Target.REGULAR_PART, {F0: (2,)}, plus),
        scenario=Scenario(col, eq),
        extremes=(Extreme("w", F0, 1, 1, "upper"), Extreme("w", F0, 2, -1, "lower")),
        witness_budget=4000, witness_seed=1))

    cases.append(FixtureCase(
        id="reach-r-rank-equal-tail-zero",
        omega=weyr_char({F0: (1, 1)}, Star(2), Star(0)),
        omega_sub=weyr_char({}, Star(3, (1,)), Star(0)),
        omega_hat=weyr_char({}, Star(2, (2,)), Star(0)),
        step1=Step(Target.COLUMN_STAR, Star(3, (1,)), minus),
        step2=Step(Target.COLUMN_STAR, Star(2, (2,)), plus),
        scenario=Scenario(col, eq),
        extremes=(Extreme("r", None, 1, 2, "upper"), Extreme("r", None, 2, 0, "lower")),
        witness_budget=4000, witness_seed=1))

    cases.append(FixtureCase(
        id="reach-r-lower",
        omega=weyr_char({}, _star((11, 11), (1, 3)), Star(0)),
        omega_sub=weyr_char({}, _star((12, 10), (1, 4)), Star(0)),
        omega_hat=weyr_char({F0: (1,) * 14}, _star((11, 10)), Star(0)),
        step1=Step(Target.COLUMN_STAR, _star((12, 10), (1, 4)), minus),
        step2=Step(Target.COLUMN_STAR, _star((11, 10)), plus),
        scenario=Scenario(col, eq),
        extremes=(Extreme("r", None, 10, -11, "lower"),)))

    cases.append(FixtureCase(
        id="reach-r-upper",
        omega=weyr_char({F0: (1,) * 10}, _star((10, 9)), Star(0)),
        omega_sub=weyr_char({}, _star((11, 9), (1, 1)), Star(0)),
        omega_hat=weyr_char({}, _star((10, 10)), Star(0)),
        step1=Step(Target.COLUMN_STAR, _star((11, 9), (1, 1)), minus),
        step2=Step(Target.COLUMN_STAR, _star((10, 10)), plus),
        scenario=Scenario(col, eq),
        extremes=(Extreme("r", None, 9, 10, "upper"),)))

    cases.append(FixtureCase(
        id="reach-s-rank-equal-tail-zero",
        omega=weyr_char({F0: (1,)}, Star(0), Star(2)),
        omega_sub=weyr_char({F0: (1,)}, Star(0), Star(1)),
        omega_hat=weyr_char({}, Star(0), Star(2, (1,))),
        step1=Step(Target.ROW_STAR, Star(1), eq),
        step2=Step(Target.ROW_STAR, Star(2, (1,)), eq),
        scenario=Scenario(col, eq),
        extremes=(Extreme("s", None, 0, 0, "lower"), Extreme("s", None, 1, 1, "upper")),
        witness_budget=4000, witness_seed=1))

    cases.append(FixtureCase(
        id="reach-s-lower",
        omega=weyr_char({}, Star(0), _star((101, 102))),
        omega_sub=weyr_char({F0: (1,) * 101}, Star(0), _star((100, 102))),
        omega_hat=weyr_char({F0: (1,) * 101}, Star(0), _star((101, 101))),
        step1=Step(Target.ROW_STAR, _star((100, 102)), eq),
        step2=Step(Target.ROW_STAR, _star((101, 101)), eq),
        scenario=Scenario(col, eq),
        extremes=(Extreme("s", None, 101, -101, "lower"),)))

    cases.append(FixtureCase(
        id="reach-s-upper",
        omega=weyr_char({F0: (1,) * 10}, Star(0), _star((10, 10))),
        omega_sub=weyr_char({F0: (1,) * 10}, Star(0), _star((9, 11))),
        omega_hat=weyr_char({}, Star(0), _star((10, 11))),
        step1=Step(Target.ROW_STAR, _star((9, 11)), eq),
        step2=Step(Target.ROW_STAR, _star((10, 11)), eq),
        scenario=Scenario(col, eq),
        extremes=(Extreme("s", None, 10, 10, "upper"),)))

    cases.append(FixtureCase(
        id="reach-w-rank-minus",
        omega=weyr_char({F0: (2,)}, Star(0), Star(0)),
        omega_sub=weyr_char({F0: (1,)}, Star(1), Star(0)),
        omega_hat=weyr_char({}, Star(1), Star(1, (1,))),
        step1=Step(Target.REGULAR_PART, {F0: (1,)}, minus),
        step2=Step(Target.REGULAR_PART, {}, eq),
        scenario=Scenario(col, RankRelation.MINUS_ONE),
        extremes=(Extreme("w", F0, 1, -2, "lower"), Extreme("w", F0, 2, 0, "upper")),
        witness_budget=4000, witness_seed=1))

    cases.append(FixtureCase(
        id="reach-r-rank-minus",
        omega=weyr_char({}, _star((100, 101)), Star(0)),
        omega_sub=weyr_char({}, _star((101, 100)), Star(0)),
        omega_hat=weyr_char({}, _star((101, 100)), Star(1)),
        step1=Step(Target.COLUMN_STAR, _star((101, 100)), minus),
        step2=Step(Target.COLUMN_STAR, _star((101, 100)), eq),
        scenario=Scenario(col, RankRelation.MINUS_ONE),
        extremes=(Extreme("r", None, 1, 1, "upper"), Extreme("r", None, 100, -100, "lower"))))

    cases.append(FixtureCase(
        id="reach-s-rank-minus",
        omega=weyr_char({}, Star(1, (1,)), _star((50, 54), (1, 1))),
        omega_sub=weyr_char({}, Star(2), _star((50, 54), (1, 1))),
        omega_hat=weyr_char({}, Star(2), _star((51, 52), (50, 1))),
        step1=Step(Target.ROW_STAR, _star((50, 54), (1, 1)), minus),
        step2=Step(Target.ROW_STAR, _star((51, 52), (50, 1)), eq),
        scenario=Scenario(col, RankRelation.MINUS_ONE),
        extremes=(Extreme("s", None, 1, 1, "upper"), Extreme("s", None, 53, -50, "lower"))))

    cases.append(FixtureCase(
        id="reach-w-rank-plus",
        omega=weyr_char({}, Star(2), Star(1, (1,))),
        omega_sub=weyr_char({F0: (1,)}, Star(2), Star(0)),
        omega_hat=weyr_char({F0: (2,)}, Star(1), Star(0)),
        step1=Step(Target.REGULAR_PART, {F0: (1,)}, eq),
        step2=Step(Target.REGULAR_PART, {F0: (2,)}, plus),
        scenario=Scenario(col, RankRelation.PLUS_ONE),
        extremes=(Extreme("w", F0, 1, 2, "upper"), Extreme("w", F0, 2, 0, "lower")),
        witness_budget=4000, witness_seed=1))

    cases.append(FixtureCase(
        id="reach-r-rank-plus",
        omega=weyr_char({}, _star((10, 10)), Star(1)),
        omega_sub=weyr_char({}, _star((10, 10)), Star(0)),
        omega_hat=weyr_char({F0: (1,)}, _star((9, 11)), Star(0)),
        step1=Step(Target.COLUMN_STAR, _star((10, 10)), eq),
        step2=Step(Target.COLUMN_STAR, _star((9, 11)), plus),
        scenario=Scenario(col, RankRelation.PLUS_ONE),
        extremes=(Extreme("r", None, 1, -1, "lower"), Extreme("r", None, 10, 9, "upper"))))

    cases.append(FixtureCase(
        id="reach-s-rank-plus",
        omega=weyr_char({}, Star(1), _star((100, 100))),
        omega_sub=weyr_char({}, Star(1), _star((99, 101))),
        omega_hat=weyr_char({F0: (1,)}, Star(0), _star((99, 101))),
        step1=Step(Target.ROW_STAR, _star((99, 101)), eq),
        step2=Step(Target.ROW_STAR, _star((99, 101)), plus),
        scenario=Scenario(col, RankRelation.PLUS_ONE),
        extremes=(Extreme("s", None, 1, -1, "lower"), Extreme("s", None, 100, 99, "upper"))))

    return tuple(cases)


FIXTURES: tuple[FixtureCase, ...] = _cases()


@dataclass
class FixtureResult:
    id: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, info: str = "") -> None:
        self.checks.append((name, bool(ok), info))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {"id": self.id, "passed": self.passed,
                "checks": [{"name": n, "ok": ok, **({"info": i} if i else {})}
                           for n, ok, i in self.checks]}


def _record_step(res: FixtureResult, name: str, problem: Prescription,
                 known: WeyrChar, prescribed) -> None:
    feasible = problem.feasible(known, prescribed)
    res.record(f"{name}-feasible", feasible)
    # realize raises on an infeasible prescription and re-verifies the
    # companion it builds, so the companion exists exactly when it returns
    if feasible:
        problem.realize(known, prescribed)
    res.record(f"{name}-companion", feasible)


def run_fixture(case: FixtureCase) -> FixtureResult:
    res = FixtureResult(case.id)
    omega, sub, hat = case.omega, case.omega_sub, case.omega_hat

    res.record("ambient", (hat.m, hat.n) == (omega.m, omega.n)
               and (sub.m, sub.n) == (omega.m - 1, omega.n))

    step1 = Prescription(case.step1.target, Direction.FULL_PRESCRIBED, case.step1.relation)
    _record_step(res, "step1", step1, omega, case.step1.prescribed)
    res.record("sub-completes-to-omega",
               check_completion_full(sub, omega, step1.completion_relation))

    step2 = Prescription(case.step2.target, Direction.SUBPENCIL_PRESCRIBED,
                         case.step2.relation)
    _record_step(res, "step2", step2, sub, case.step2.prescribed)
    res.record("sub-completes-to-hat", check_completion_full(sub, hat, case.step2.relation))

    report = check_bounds(omega, hat, case.scenario)
    res.record("bounds-respected", report.ok, f"{len(report.violations)} violations")

    for ext in case.extremes:
        if ext.component == "w":
            observed = part(dict(report.w_diffs).get(ext.eigenvalue, ()), ext.index)
        else:
            diffs = report.r_diffs if ext.component == "r" else report.s_diffs
            observed = part(diffs, ext.index + 1)  # star differences start at index 0
        iv = report.intervals[ext.component]
        bound = iv.lower if ext.endpoint == "lower" else iv.upper
        res.record(f"extreme-{ext.component}{ext.index}",
                   observed == ext.value and bound == ext.value,
                   f"observed {observed}, bound {bound}, expected {ext.value}")

    if case.witness_budget:
        h = build_pencil(omega)
        res.record("builds", weyr_characteristic(h) == omega)
        p = search_rank_one_witness(h, hat, case.scenario.kind, case.witness_budget,
                                    case.witness_seed)
        found = p is not None
        res.record("witness-found", found)
        if found:
            res.record("witness-kind", classify_rank_one(p).kind is case.scenario.kind)
            observed_rank = weyr_characteristic(h.add(p)).rank
            expect = omega.rank + case.scenario.rank_relation.gap
            res.record("witness-rank-relation", observed_rank == expect)
    return res


def run_fixtures() -> list[FixtureResult]:
    return [run_fixture(case) for case in FIXTURES]
