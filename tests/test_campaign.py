import json

import pytest

from pencillab.campaign import CampaignConfig, fault_injection_trial, run_campaign


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
