"""Tests of the benchmark itself: each correctness check rejects a corrupted
output, and traced and untraced runs attempt the same items.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import run
import tracing
import workloads
from pencillab import builder, campaign, concordance, extractor
from pencillab.bounds import RankRelation
from pencillab.extractor import weyr_char
from pencillab.partitions import Star
from pencillab.pencils import Pencil
from pencillab.rmatrix import Matrix


def _round(workload, tmp_path, seed=3):
    state = workload.setup(seed, tmp_path)
    result = workload.run_round(state)
    assert result.failed == 0
    assert workload.check(state, result.outputs) == []
    assert workload.verify(state, result.outputs) == []
    return state, result.outputs


def test_roundtrip_check_rejects_a_mismatched_round_trip(tmp_path):
    wl = workloads.Roundtrip(max_total=3, scrambles=4, verify_sample=3)
    state, outputs = _round(wl, tmp_path)
    outputs[-1] = outputs[0] if outputs[0] != outputs[-1] else outputs[1]
    assert len(wl.check(state, outputs)) == 1


def test_campaign_check_rejects_an_injected_bound_violation(tmp_path):
    wl = workloads.Campaign(trials=4, verify_sample=2)
    state, outputs = _round(wl, tmp_path)
    code, text = outputs[1]
    summary = json.loads(text)
    summary["perturbation"]["violations"] = 1
    bad = [outputs[0], (code, json.dumps(summary))]
    assert any("bound violations" in p for p in wl.check(state, bad))

    config = campaign.CampaignConfig(seed=workloads.CAMPAIGN_SEED, trials=wl.trials)
    outcome = campaign.perturbation_trial(config, 0)
    assert wl.check_trial(outcome) == []
    injected = dict(outcome, violations=[{"component": "w", "index": 1, "observed": 5}])
    assert wl.check_trial(injected)
    flipped = {"equal": "plus-one", "plus-one": "equal", "minus-one": "equal"}
    assert wl.check_trial(dict(outcome, rank_relation=flipped[outcome["rank_relation"]]))


def test_campaign_check_rejects_a_missed_fixture_extreme(tmp_path):
    wl = workloads.Campaign(trials=1)
    results = json.loads(workloads._call_cli(["fixtures"])[1])
    assert wl._check_fixtures(results) == []
    chk = next(c for c in results[0]["checks"] if c["name"].startswith("extreme-"))
    chk["info"] = "observed 0, bound 1, expected 1"
    assert wl._check_fixtures(results)


BLIND_SUB = weyr_char({F(0): (1,)}, Star(1, (1, 1)), Star(0))
BLIND_FULL = weyr_char({F(-1): (1,), F(0): (1,), F(1): (1,), F(2): (1,)}, Star(0), Star(0))


def test_concordance_check_rejects_a_dropped_witness(tmp_path):
    wl = workloads.Concordance(max_total=2, random_rows=10)
    state, outputs = _round(wl, tmp_path)
    compared, mismatches, witnesses = outputs[0]
    assert wl.check(state, [(compared + 1, mismatches, witnesses)])

    blind = concordance.Mismatch(BLIND_SUB, BLIND_FULL, RankRelation.PLUS_ONE,
                                 predicted=True, oracle=False)
    witness = concordance.companion_completion_witness(BLIND_SUB, BLIND_FULL)
    assert wl.check_mismatch(blind, witness) == []
    assert wl.check_mismatch(blind, None)
    row = tuple(x + 1 for x in witness.a.entries[0])
    tampered = Pencil(Matrix(witness.m, witness.n, (row,) + witness.a.entries[1:]), witness.b)
    assert wl.check_mismatch(blind, tampered)
    unpredicted = concordance.Mismatch(BLIND_SUB, BLIND_FULL, RankRelation.PLUS_ONE,
                                       predicted=False, oracle=True)
    assert wl.check_mismatch(unpredicted, None)


def test_spectrum_check_rejects_a_wrong_planted_eigenvalue(tmp_path):
    wl = workloads.Spectrum(tiers=(3, 5), per_tier=2)
    state, outputs = _round(wl, tmp_path)
    digits, om, h, path = state["cases"][0]
    big = next(lam for lam, _ in om.regular if lam not in workloads.SMALL_POOL
               and lam != float("inf"))
    moved = dict(om.regular)
    moved[big + 1] = moved.pop(big)
    wrong = weyr_char(moved, om.col_star, om.row_star)
    state["cases"][0] = (digits, wrong, h, path)
    assert len(wl.check(state, outputs)) == 1
    assert len(wl.verify(state, outputs)) == 1


@pytest.mark.parametrize("name", ["roundtrip", "spectrum"])
def test_traced_and_untraced_runs_attempt_the_same_items(tmp_path, name):
    wl = {"roundtrip": workloads.Roundtrip(max_total=3, scrambles=5, verify_sample=2),
          "spectrum": workloads.Spectrum(tiers=(3,), per_tier=3)}[name]
    plain = run.run(wl, 5, 0, False, tmp_path)
    traced = run.run(wl, 5, 0, True, tmp_path, tmp_path / "spans.tsv.gz")
    assert plain["correct"] and traced["correct"]
    assert [r["traced"] for r in traced["rounds"]] == [False, True]
    items = {r["items"] for r in plain["rounds"] + traced["rounds"]}
    assert len(items) == 1
    assert plain["attempted"] == traced["attempted"] // 2 == items.pop()
    assert plain["failed"] == traced["failed"] == 0
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert set(traced["metrics"]) == set(tracing.METRIC_UNITS)
    # one extraction per item, none in either set-up
    calls = traced["metrics"]["extractor.weyr_characteristic.calls"]["value"]
    assert calls == plain["attempted"]
    # the wrappers are gone once the run ends
    assert extractor.weyr_characteristic.__module__ == "pencillab.extractor"
    assert not hasattr(extractor.weyr_characteristic, "__wrapped__")


def test_a_run_whose_operations_raise_is_incorrect(tmp_path, monkeypatch):
    def broken(h):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(extractor, "weyr_characteristic", broken)
    wl = workloads.Roundtrip(max_total=2, scrambles=2, verify_sample=1)
    record = run.run(wl, 5, 0, False, tmp_path)
    assert record["failed"] == record["attempted"] > 0
    assert not record["correct"]
    assert any("injected" in p for p in record["problems"])


def test_self_time_excludes_nested_layers():
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        builder.random_equivalence(builder.build_pencil(BLIND_FULL), 1)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    fold = tracer.fold()
    assert fold.calls["builder.build_pencil"] == fold.calls["builder.random_equivalence"] == 1
    assert fold.calls["rmatrix.rank"] == 2  # both transforms are checked invertible
    assert fold.spans == sum(fold.calls.values()) == 4
    # self times partition the two root spans, so they never add up to more
    assert 0 < sum(fold.self_s.values()) <= wall


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "spectrum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
