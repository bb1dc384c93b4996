"""Randomized verification campaigns: seeded rank-one perturbation trials
checked against every bound scenario, a small exhaustive completion
concordance sweep, and an out-of-hypothesis fault-injection probe.

Per-trial randomness derives from (seed, trial index), so results are
independent of execution order and reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bounds import RankRelation, Scenario, check_bounds
from .builder import build_pencil, random_rank_one, random_weyr
from .concordance import concordance_mismatches, split_mismatches
from .extractor import IrrationalSpectrumError, WeyrChar, weyr_characteristic
from .pencils import Pencil, RankOneKind, classify_rank_one
from .randomness import make_rng

# both dimensions of a trial pencil lie in 1..MAX_DIM
MAX_DIM = 6


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    trials: int = 1000
    size_budget: int = 6
    kinds: tuple[RankOneKind, ...] = (RankOneKind.COLUMN, RankOneKind.ROW)
    concordance_weight: int = 3
    fault_injection: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")


def _trial_pencil(seed: int, trial: int, budget: int) -> Pencil:
    """Deterministic trial pencil with both dimensions in 1..MAX_DIM."""
    attempt = 0
    while True:
        omega = random_weyr(seed * 2_000_003 + trial * 1009 + attempt, budget)
        if 1 <= omega.m <= MAX_DIM and 1 <= omega.n <= MAX_DIM:
            return build_pencil(omega)
        attempt += 1


def rational_perturbation(h: Pencil, draw: Callable[[int], Pencil]
                          ) -> tuple[Pencil, WeyrChar, int]:
    """The first of draw(0), draw(1), ... whose sum with h has a rational
    spectrum, the characteristic of that sum, and the number of draws
    rejected before it.

    The bounds hold for every rank-one perturbation, and the lab checks the
    outcomes it can represent exactly, so a draw that pushes the spectrum
    off the rationals is redrawn; each caller's seed formula keeps the
    redraws deterministic."""
    for attempt in range(10_000):
        p = draw(attempt)
        try:
            return p, weyr_characteristic(h.add(p)), attempt
        except IrrationalSpectrumError:
            continue
    raise ValueError("no rational-spectrum perturbation found")


def perturbation_trial(config: CampaignConfig, trial: int) -> dict:
    """One seeded perturbation: returns observed data and any violations
    across the exact scenario and all coarser ones."""
    rng = make_rng("campaign", config.seed, trial)
    h = _trial_pencil(config.seed, trial, config.size_budget)
    kind = rng.choice(config.kinds)
    before = weyr_characteristic(h)
    p, after, redraws = rational_perturbation(h, lambda attempt: random_rank_one(
        config.seed * 7_000_003 + trial + 4099 * attempt, h.m, h.n, kind))
    observed_kind = classify_rank_one(p).kind
    relation = RankRelation.of_gap(after.rank - before.rank)
    scenario = Scenario(observed_kind, relation)
    violations = []
    for sc in scenario.coarsenings():
        report = check_bounds(before, after, sc)
        for v in report.violations:
            violations.append({"scenario": sc.label(), **v.to_json()})
    return {
        "trial": trial,
        "pencil": h.to_json(),
        "perturbation": p.to_json(),
        "kind": observed_kind.value,
        "rank_relation": relation.value,
        "redraws": redraws,
        "violations": violations,
    }


def fault_injection_trial(config: CampaignConfig, trial: int) -> dict:
    """Out-of-hypothesis probe: a rank-two perturbation checked against the
    rank-one intervals.  Violations are data, not failures.  A probe that
    moves the rank by two lies outside every scenario's hypotheses: it is
    not checked and counts 0 violations; its ``rank_gap`` tells it apart."""
    h = _trial_pencil(config.seed, trial, config.size_budget)
    before = weyr_characteristic(h)

    def probe(attempt: int) -> Pencil:
        p1 = random_rank_one(config.seed * 11_000_003 + trial + 7 * attempt,
                             h.m, h.n, RankOneKind.COLUMN)
        p2 = random_rank_one(config.seed * 13_000_007 + trial + 11 * attempt,
                             h.m, h.n, RankOneKind.ROW)
        return p1.add(p2)

    _, after, _ = rational_perturbation(h, probe)
    gap = after.rank - before.rank
    count = 0
    if -1 <= gap <= 1:
        relation = RankRelation.of_gap(gap)
        for sc in (Scenario(None, relation), Scenario(None, RankRelation.UNKNOWN)):
            count += len(check_bounds(before, after, sc).violations)
    return {"trial": trial, "rank_gap": gap, "violations": count}


def run_campaign(config: CampaignConfig) -> dict:
    """Full campaign summary (deterministic for a fixed config)."""
    violations = redraws = 0
    counterexamples = []
    # trials per observed (kind, rank relation), zeros included, so a
    # scenario the sampling never reaches shows in the output
    relations = (RankRelation.EQUAL, RankRelation.PLUS_ONE, RankRelation.MINUS_ONE)
    scenarios = {kind.value: {rel.value: 0 for rel in relations} for kind in RankOneKind}
    for trial in range(config.trials):
        outcome = perturbation_trial(config, trial)
        redraws += outcome["redraws"]
        scenarios[outcome["kind"]][outcome["rank_relation"]] += 1
        if outcome["violations"]:
            violations += len(outcome["violations"])
            if len(counterexamples) < 10:
                counterexamples.append(outcome)
    compared, mismatches = concordance_mismatches(config.concordance_weight)
    witnessed, unexplained = split_mismatches(mismatches)
    summary = {
        "config": {
            "seed": config.seed,
            "trials": config.trials,
            "size_budget": config.size_budget,
            "max_dim": MAX_DIM,
            "kinds": [k.value for k in config.kinds],
            "concordance_weight": config.concordance_weight,
        },
        "perturbation": {"trials": config.trials, "violations": violations,
                         "counterexamples": counterexamples, "redraws": redraws,
                         "scenarios": scenarios},
        "concordance": {"pairs": compared, "mismatches": len(unexplained),
                        "witnessed": len(witnessed)},
    }
    if config.fault_injection:
        probes = [fault_injection_trial(config, t) for t in range(min(config.trials, 50))]
        summary["fault_injection"] = {
            "probes": len(probes),
            "violating_probes": sum(1 for p in probes if p["violations"] > 0),
            "out_of_hypothesis": sum(1 for p in probes if abs(p["rank_gap"]) > 1),
        }
    return summary
