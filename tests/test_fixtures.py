from dataclasses import replace

from pencillab.bounds import isqrt
from pencillab.fixtures import FIXTURES, run_fixture, run_fixtures
from pencillab.partitions import Star


def test_thirteen_cases():
    assert len(FIXTURES) == 13
    assert len({c.id for c in FIXTURES}) == 13


def test_all_fixtures_pass():
    for res in run_fixtures():
        assert res.passed, (res.id, [c for c in res.checks if not c[1]])


def test_stated_extremes_match_integer_square_roots():
    by_id = {c.id: c for c in FIXTURES}
    assert by_id["reach-s-lower"].extremes[0].value == -isqrt(10302) == -101
    assert by_id["reach-r-lower"].extremes[0].value == -isqrt(113) - 1 == -11
    assert by_id["reach-r-upper"].extremes[0].value == isqrt(79) + 2 == 10
    assert by_id["reach-s-upper"].extremes[0].value == isqrt(100) == 10
    assert by_id["reach-r-rank-minus"].extremes[1].value == -isqrt(10000) == -100
    assert by_id["reach-s-rank-minus"].extremes[1].value == 1 - isqrt(2702) == -50
    assert by_id["reach-s-rank-plus"].extremes[1].value == isqrt(10000) - 1 == 99
    w_ids = {"reach-w-rank-equal": (1, -1), "reach-w-rank-minus": (-2, 0),
             "reach-w-rank-plus": (2, 0)}
    for fid, values in w_ids.items():
        assert tuple(e.value for e in by_id[fid].extremes) == values


def test_fixture_report_shape():
    res = run_fixture(FIXTURES[0])
    data = res.to_json()
    assert data["id"] == FIXTURES[0].id
    assert data["passed"] is True
    assert any(c["name"] == "witness-found" for c in data["checks"])


def test_infeasible_step_fails_without_raising():
    case = FIXTURES[1]
    infeasible = replace(case, step1=replace(case.step1, prescribed=Star(9, (5,))))
    res = run_fixture(infeasible)
    checks = {name: ok for name, ok, _ in res.checks}
    assert checks["step1-feasible"] is False
    assert checks["step1-companion"] is False
    assert res.passed is False
