import json

import pytest

from padiclie.cli import main
from padiclie.reports import merge_reports


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_explog_selftest_passes_and_is_deterministic(capsys, tmp_path):
    code, rep1 = _run(capsys, ["explog-selftest", "--p", "5", "--N", "4",
                               "--seed", "7", "--trials", "40"])
    assert code == 0 and rep1["passed"]
    code, rep2 = _run(capsys, ["explog-selftest", "--p", "5", "--N", "4",
                               "--seed", "7", "--trials", "40"])
    assert rep1["digest"] == rep2["digest"]
    stripped1 = {k: v for k, v in rep1.items() if k != "timing_seconds"}
    stripped2 = {k: v for k, v in rep2.items() if k != "timing_seconds"}
    assert stripped1 == stripped2
    code, rep3 = _run(capsys, ["explog-selftest", "--p", "5", "--N", "4",
                               "--seed", "8", "--trials", "40"])
    assert rep3["digest"] != rep1["digest"]


def test_approx_worst_case_certify(capsys):
    code, rep = _run(capsys, ["approx", "--worst-case", "--p", "3", "--n", "4",
                              "--certify-optimality"])
    assert code == 0
    case = rep["cases"][0]
    assert case["m_achieved"] == 2
    assert case["optimal_refuted_at"] == 3


def test_approx_lattice_input(capsys, tmp_path):
    lattice = {"p": 3, "N": 7, "columns": [[0, 1, 0], [1, 0, 0], [0, 0, 81]]}
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice))
    code, rep = _run(capsys, ["approx", "--p", "3", "--n", "4", "--N", "7",
                              "--input", str(path)])
    assert code == 0
    assert rep["cases"][0]["m_achieved"] == 4


def test_approx_requires_headroom(capsys):
    code = main(["approx", "--worst-case", "--p", "3", "--n", "4", "--N", "5"])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["approx", "--frobnicate"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_budget_exit_3(capsys):
    code = main(["count", "--poly", "x0+x1+x2", "--p", "101", "--n", "3",
                 "--mode", "affine"])
    assert code == 3


def test_phi_command(capsys):
    code, rep = _run(capsys, ["phi", "--p", "3", "--n", "2", "--K", "gamma0",
                              "--x", "[[1,1],[0,1]]"])
    assert code == 0
    case = rep["cases"][0]
    assert case["match"] is True
    assert case["ratio"] == "1/4"
    assert case["count"] * 4 == case["total"]


def test_cdelta_decay_table_csv(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, rep = _run(capsys, ["cdelta", "--gamma", "[[1,1],[0,1]]",
                              "--decay-table", "--primes", "3,5", "--nmax", "2",
                              "--csv", str(csv_path)])
    assert code == 0
    assert all(case["passed"] for case in rep["cases"])
    text = csv_path.read_text()
    assert text.splitlines()[0].startswith("count")
    assert len(text.splitlines()) == 1 + len(rep["cases"])


def test_count_command_modes(capsys):
    code, rep = _run(capsys, ["count", "--poly", "x0^2+x1^2", "--p", "3",
                              "--n", "2", "--mode", "affine"])
    assert code == 0 and rep["cases"][0]["passed"]
    code, rep = _run(capsys, ["count", "--poly", "x0*x1", "--p", "5",
                              "--mode", "schmidt"])
    assert code == 0 and rep["cases"][0]["count"] == 9
    code, rep = _run(capsys, ["count", "--poly", "x1", "--p", "5",
                              "--mode", "sl2"])
    assert code == 0 and rep["cases"][0]["count"] == 20


def test_count_affine_constant_mod_p(capsys):
    code, rep = _run(capsys, ["count", "--poly", "5*x0+1", "--p", "5", "--n", "2"])
    assert code == 0
    assert rep["cases"][0]["count"] == 0
    assert rep["cases"][0]["passed"] is True


def test_count_rejects_composite_p(capsys):
    for mode in ("affine", "schmidt", "sl2"):
        code = main(["count", "--poly", "x0*x1-1", "--p", "9", "--n", "2", "--mode", mode])
        assert code == 2
        assert "not prime" in capsys.readouterr().err


def test_nori_command(capsys):
    code, rep = _run(capsys, ["nori", "--p", "5"])
    assert code == 0
    case = rep["cases"][0]
    assert case["subgroup_count"] == 8
    assert case["smallest_passing_p_so_far"] == 5


def test_report_merge(capsys, tmp_path):
    _, rep1 = _run(capsys, ["count", "--poly", "x0", "--p", "3", "--n", "1"])
    _, rep2 = _run(capsys, ["count", "--poly", "x0^2", "--p", "3", "--n", "2"])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(json.dumps(rep1))
    p2.write_text(json.dumps(rep2))
    code, merged = _run(capsys, ["report-merge", str(p1), str(p2)])
    assert code == 0
    assert len(merged["cases"]) == 2
    # merge order is deterministic regardless of argument order
    code, merged2 = _run(capsys, ["report-merge", str(p2), str(p1)])
    assert merged["cases"] == merged2["cases"]


def test_json_schema_flag(capsys):
    code = main(["--json-schema"])
    out = capsys.readouterr().out
    assert code == 0
    schema = json.loads(out)
    assert schema["properties"]["digest"]["type"] == "string"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["count", "--poly", "x0", "--p", "3", "--n", "1", "--out", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["command"] == "count"
