import json

import pytest

from pencillab.campaign import (CampaignConfig, fault_injection_trial,
                                perturbation_trial, run_campaign)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(trials=0)


def test_small_campaign_clean_and_deterministic():
    cfg = CampaignConfig(seed=11, trials=60, size_budget=5, concordance_weight=2)
    first = run_campaign(cfg)
    assert first["perturbation"]["violations"] == 0
    assert first["concordance"]["mismatches"] == 0
    assert first["concordance"]["witnessed"] == 0
    assert json.dumps(first) == json.dumps(run_campaign(cfg))


def test_fault_injection_probes_break_rank_one_intervals():
    cfg = CampaignConfig(seed=5, trials=40, size_budget=5)
    hits = sum(1 for t in range(40) if fault_injection_trial(cfg, t)["violations"] > 0)
    # rank-two perturbations are outside every stated hypothesis; if none of
    # them ever violated the rank-one intervals the checker would be vacuous
    assert hits > 0


def test_campaign_counts_scenarios_and_redraws():
    cfg = CampaignConfig(seed=11, trials=60, size_budget=5, concordance_weight=1)
    pert = run_campaign(cfg)["perturbation"]
    assert sum(sum(by_rel.values()) for by_rel in pert["scenarios"].values()) == cfg.trials
    assert set(pert["scenarios"]) == {"col", "row"}
    assert all(set(by_rel) == {"equal", "plus-one", "minus-one"}
               for by_rel in pert["scenarios"].values())
    outcomes = [perturbation_trial(cfg, t) for t in range(cfg.trials)]
    for kind, by_rel in pert["scenarios"].items():
        for rel, count in by_rel.items():
            assert count == sum(o["kind"] == kind and o["rank_relation"] == rel
                                for o in outcomes)
    assert pert["redraws"] == sum(o["redraws"] for o in outcomes) > 0
    assert run_campaign(cfg)["perturbation"]["redraws"] == pert["redraws"]
