"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read captured output).

1. Reachability fixtures: all 13 built-in cases, extremal values exact.
2. Builder/extractor round trip: exhaustive to total weight 10 plus 200
   random strict-equivalence transforms.
3. Perturbation-bound soundness: 1000 seeded rank-one trials on pencils up
   to 6 x 6, zero violations at every scenario coarseness.
4. Completion concordance: characterization vs brute-force row oracle for
   all pairs of total weight <= 5; oracle entry-budget blind spots must
   carry an explicitly verified wider-entry witness.
5. Combinatorial oracles: conjugation, majorization duality, gap-index facts,
   deficit feasibility vs brute force.
6. Interval nesting: coarser scenarios contain finer ones, 500 random
   characteristics.

Pinned runtime targets (from the release contract): (1) < 5 s,
(2) < 2 min, (3) < 2 min, (4) < 10 min, (5) < 1 min, (6) < 10 s.
"""

import time
from fractions import Fraction as F

from pencillab.bounds import RankRelation, Scenario, perturbation_bounds
from pencillab.builder import (build_pencil, iter_weyr_chars, random_equivalence,
                               random_weyr)
from pencillab.campaign import CampaignConfig, perturbation_trial
from pencillab.concordance import concordance_mismatches, split_mismatches
from pencillab.extractor import weyr_characteristic
from pencillab.fixtures import run_fixtures
from pencillab.partitions import (Star, conjugate, deficit_construct,
                                  deficit_feasible, gap_index, is_1step_majorized,
                                  is_conjugate_majorized, iter_decreasing_sequences,
                                  iter_partitions, partition,
                                  star_from_finite_sequence)
from pencillab.pencils import RankOneKind
from pencillab.randomness import make_rng


def _report(name: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_reachability_fixtures():
    t0 = time.time()
    results = run_fixtures()
    ok = len(results) == 13 and all(r.passed for r in results)
    _report("criterion-1 reachability fixtures", ok, t0, 5)


def test_criterion_2_round_trip_identity():
    t0 = time.time()
    corpus = []
    for om in iter_weyr_chars(10):
        corpus.append(om)
        assert weyr_characteristic(build_pencil(om)) == om, om
    # labeled tier: every pool eigenvalue slot individually, smaller weight
    for om in iter_weyr_chars(6, labeled=True):
        assert weyr_characteristic(build_pencil(om)) == om, om
    rng = make_rng("acceptance-transforms")
    for trial in range(200):
        om = corpus[rng.randrange(len(corpus))]
        g = random_equivalence(build_pencil(om), seed=trial)
        assert weyr_characteristic(g) == om, om
    _report("criterion-2 round-trip identity", True, t0, 120)


def test_criterion_3_perturbation_soundness():
    t0 = time.time()
    config = CampaignConfig(seed=2024, trials=1000, size_budget=6)
    violations = 0
    for trial in range(config.trials):
        outcome = perturbation_trial(config, trial)
        violations += len(outcome["violations"])
    _report("criterion-3 perturbation soundness", violations == 0, t0, 120)


def test_criterion_4_completion_concordance():
    t0 = time.time()
    compared, mismatches = concordance_mismatches(5)
    _, unexplained = split_mismatches(mismatches)
    ok = compared > 16000 and not unexplained
    _report("criterion-4 completion concordance", ok, t0, 600)


def test_criterion_5_combinatorial_oracles():
    t0 = time.time()
    ok = True
    for p in iter_partitions(9):
        ok &= conjugate(conjugate(p)) == p
    for m in range(0, 4):
        for cseq in iter_decreasing_sequences(m + 1, 6):
            r = star_from_finite_sequence(cseq)
            for dseq in iter_decreasing_sequences(m, 6):
                s = star_from_finite_sequence(dseq)
                ok &= is_1step_majorized(cseq, dseq) == is_conjugate_majorized(s, r)
    stars = [Star(p[0], p[1:]) if p else Star(0) for w in range(13)
             for p in iter_partitions(w)]
    for r in stars:
        for s in stars:
            if not is_conjugate_majorized(s, r):
                continue
            g = gap_index(r, s)
            k = r.tail_weight - s.tail_weight
            ok &= k <= g
            top = max(r.support(), s.support()) + 1
            ok &= all(0 <= s.get(i) - r.get(i) <= g - k for i in range(g + 1, top + 1))
            c = conjugate(r.tail)
            c1, c2 = (c[0] if c else 0), (c[1] if len(c) > 1 else 0)
            ok &= g == c1 or g <= c2
    for p in stars:
        cap = p.zeroth - 1
        for x in range(-12, 13):
            brute = any(
                (not tail or tail[0] <= cap) and
                is_conjugate_majorized(Star(cap, tail), p)
                for tail in iter_partitions(p.tail_weight - x)
            ) if (p.zeroth >= 1 and p.tail_weight - x >= 0) else False
            ok &= deficit_feasible(p, x) == brute
            if brute:
                q = deficit_construct(p, x)
                ok &= is_conjugate_majorized(q, p) and q.tail_weight == p.tail_weight - x
    _report("criterion-5 combinatorial oracles", ok, t0, 60)


def test_criterion_6_interval_nesting():
    t0 = time.time()
    ok = True
    rank_cases = (RankRelation.EQUAL, RankRelation.MINUS_ONE, RankRelation.PLUS_ONE)
    for seed in range(500):
        om = random_weyr(seed, 9)
        outer = perturbation_bounds(om, Scenario(None, RankRelation.UNKNOWN))
        for rel in rank_cases:
            mid = perturbation_bounds(om, Scenario(None, rel))
            ok &= all(outer[k].covers(mid[k]) for k in ("w", "r", "s"))
            for kind in (RankOneKind.COLUMN, RankOneKind.ROW):
                inner = perturbation_bounds(om, Scenario(kind, rel))
                ok &= all(mid[k].covers(inner[k]) for k in ("w", "r", "s"))
    _report("criterion-6 interval nesting", ok, t0, 10)
