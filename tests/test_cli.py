import json
import time
from fractions import Fraction as F

import pytest

from pencillab.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def weyr_file(tmp_path):
    data = {"regular": [{"lambda": "0", "weyr": [2]}],
            "r_star": {"zeroth": 1, "tail": [1]},
            "s_star": {"zeroth": 0, "tail": []}}
    path = tmp_path / "weyr.json"
    path.write_text(json.dumps(data))
    return str(path), data


def test_generate_invariants_round_trip(capsys, tmp_path, weyr_file):
    path, data = weyr_file
    code, out, _ = run(capsys, "generate", path)
    assert code == 0
    pencil_path = tmp_path / "pencil.json"
    pencil_path.write_text(out)
    code, out2, _ = run(capsys, "invariants", str(pencil_path))
    assert code == 0
    assert json.loads(out2) == data


def test_generate_seeded_changes_matrix_not_invariants(capsys, tmp_path, weyr_file):
    path, data = weyr_file
    _, plain, _ = run(capsys, "generate", path)
    code, scrambled, _ = run(capsys, "generate", path, "--seed", "9")
    assert code == 0 and scrambled != plain
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(plain)
    b.write_text(scrambled)
    code, out, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_generate_degenerate_dimensions(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"regular": [], "r_star": {"zeroth": 3, "tail": []},
                                "s_star": {"zeroth": 0, "tail": []}}))
    code, out, _ = run(capsys, "generate", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 0 and data["n"] == 3 and data["A"] == []


def test_equiv_negative_exit(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"m": 2, "n": 2, "A": [["0", "1"], ["0", "0"]],
                             "B": [["1", "0"], ["0", "1"]]}))
    b.write_text(json.dumps({"m": 2, "n": 2, "A": [["0", "0"], ["0", "0"]],
                             "B": [["1", "0"], ["0", "1"]]}))
    code, out, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 1 and json.loads(out)["equivalent"] is False


def test_perturb_random_report(capsys, tmp_path, weyr_file):
    path, _ = weyr_file
    _, pencil_json, _ = run(capsys, "generate", path)
    pencil_path = tmp_path / "h.json"
    pencil_path.write_text(pencil_json)
    code, out, _ = run(capsys, "perturb", str(pencil_path), "--random",
                       "--kind", "col", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert len(report["reports"]) == 4
    assert all(not r["violations"] for r in report["reports"])
    tags = {r["intervals"]["w"]["formula_tag"] for r in report["reports"]}
    assert tags  # formula tags present

    # byte-identical reruns
    code2, out2, _ = run(capsys, "perturb", str(pencil_path), "--random",
                         "--kind", "col", "--seed", "4")
    assert out2 == out


def test_perturb_rejects_rank_zero(capsys, tmp_path, weyr_file):
    path, _ = weyr_file
    _, pencil_json, _ = run(capsys, "generate", path)
    h = tmp_path / "h.json"
    h.write_text(pencil_json)
    data = json.loads(pencil_json)
    zero = {"m": data["m"], "n": data["n"],
            "A": [["0"] * data["n"] for _ in range(data["m"])],
            "B": [["0"] * data["n"] for _ in range(data["m"])]}
    z = tmp_path / "z.json"
    z.write_text(json.dumps(zero))
    code, _, err = run(capsys, "perturb", str(h), str(z))
    assert code == 2 and "rank 1" in err


def test_feasible_verdict_and_companion(capsys, tmp_path, weyr_file):
    path, _ = weyr_file
    presc = tmp_path / "p.json"
    presc.write_text(json.dumps({"zeroth": 1, "tail": [1]}))
    code, out, _ = run(capsys, "feasible", path, str(presc),
                       "--direction", "sub", "--target", "col", "--rel", "equal")
    assert code == 1  # needs a positive row count on the known side
    verdict = json.loads(out)
    assert verdict["feasible"] is False
    assert {c["tag"] for c in verdict["conditions"]} == {"coleqconj", "eqs0geq1"}

    code, out, _ = run(capsys, "feasible", path, str(presc),
                       "--direction", "completion", "--target", "col", "--rel", "equal")
    verdict = json.loads(out)
    assert code == 0 and verdict["feasible"] is True
    assert "companion" in verdict


def test_fixtures_command(capsys):
    code, out, _ = run(capsys, "--format", "text", "fixtures")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 13 and all(l.startswith("PASS") for l in lines)
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 13 and all(r["passed"] for r in data)


def test_campaign_command(capsys):
    code, out, _ = run(capsys, "campaign", "--trials", "25", "--budget", "4",
                       "--concordance-weight", "2", "--seed", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["perturbation"]["violations"] == 0
    code2, out2, _ = run(capsys, "campaign", "--trials", "25", "--budget", "4",
                         "--concordance-weight", "2", "--seed", "3")
    assert out2 == out


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "invariants", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 2


def test_irrational_spectrum_exit_2(capsys, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"m": 2, "n": 2, "A": [["0", "-2"], ["1", "0"]],
                             "B": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, "invariants", str(h))
    assert code == 2 and "IRRATIONAL_SPECTRUM" in err


def test_invariants_of_a_40_digit_eigenvalue(capsys, tmp_path):
    data = {"regular": [{"lambda": str(F(-(10**39 + 3), 7)), "weyr": [1, 1]},
                        {"lambda": "1", "weyr": [1]}],
            "r_star": {"zeroth": 1, "tail": [1]},
            "s_star": {"zeroth": 0, "tail": []}}
    weyr = tmp_path / "weyr.json"
    weyr.write_text(json.dumps(data))
    code, pencil_json, _ = run(capsys, "generate", str(weyr), "--seed", "1")
    assert code == 0
    h = tmp_path / "h.json"
    h.write_text(pencil_json)
    started = time.perf_counter()
    code, out, _ = run(capsys, "invariants", str(h))
    assert time.perf_counter() - started < 10
    assert code == 0 and json.loads(out) == data


def test_text_format(capsys, tmp_path, weyr_file):
    path, _ = weyr_file
    code, out, _ = run(capsys, "--format", "text", "generate", path)
    assert code == 0 and "A:" in out
