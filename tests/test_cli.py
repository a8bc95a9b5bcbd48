import json
from fractions import Fraction

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


@pytest.mark.parametrize("trials", ["0", "-4"])
def test_explog_selftest_refuses_no_trials(capsys, trials):
    # no trial checks nothing: refused, not passed vacuously
    assert main(["explog-selftest", "--p", "5", "--N", "4", f"--trials={trials}"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_explog_selftest_refuses_precision_below_the_domain_floor(capsys):
    # at p = 2 the congruence domain 4 gl(2) needs N >= 2
    assert main(["explog-selftest", "--p", "2", "--N", "1"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "N >= eps_p = 2" in captured.err
    assert captured.out == ""
    code, rep = _run(capsys, ["explog-selftest", "--p", "2", "--N", "2"])
    assert code == 0 and rep["passed"]


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
    for bad in (1.7, "2", True):
        lattice["columns"][0][1] = bad
        path.write_text(json.dumps(lattice))
        assert main(["approx", "--p", "3", "--n", "4", "--N", "7", "--input", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_approx_runs_at_p2_against_its_floor(capsys, tmp_path):
    # at p = 2 the guaranteed depth is ceil(n/2) - 1
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"p": 2, "N": 8, "columns": [[0, 1, 0], [2, 0, 0], [0, 0, 16]]}))
    code, rep = _run(capsys, ["approx", "--p", "2", "--n", "4", "--N", "8", "--input", str(path)])
    assert code == 0
    case = rep["cases"][0]
    assert (case["floor"], case["m_achieved"], case["passed"]) == (1, 1, True)


def test_approx_worst_case_runs_at_p2(capsys):
    # the built-in worst case has a unit coordinate mod 2
    code, rep = _run(capsys, ["approx", "--worst-case", "--p", "2", "--n", "4"])
    assert code == 0
    case = rep["cases"][0]
    assert (case["floor"], case["m_achieved"], case["passed"]) == (1, 2, True)


def test_approx_rejects_malformed_literal(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    good = {"p": 3, "N": 7, "columns": [[0, 1, 0], [1, 0, 0], [0, 0, 81]]}
    bad_literals = [{**good, "p": bad} for bad in (5.9, "5", True)]
    bad_literals += [{**good, "N": bad} for bad in (7.5, "7", True)]
    bad_literals.append({**good, "columns": [5, [0, 1, 0]]})
    for lattice in bad_literals:
        path.write_text(json.dumps(lattice))
        assert main(["approx", "--p", "3", "--n", "4", "--N", "7", "--input", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_approx_rejects_literal_at_another_modulus(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"p": 5, "N": 4, "columns": [[0, 1, 0], [1, 0, 0], [0, 0, 5]]}))
    assert main(["approx", "--p", "7", "--n", "1", "--N", "5", "--input", str(path)]) == 2
    assert "config error: lattice literal is at p = 5, N = 4" in capsys.readouterr().err
    # --N defaults to n + 3 before the comparison: 4 matches, 5 does not
    code, rep = _run(capsys, ["approx", "--p", "5", "--n", "1", "--input", str(path)])
    assert code == 0 and rep["config"]["N"] == 4
    assert main(["approx", "--p", "5", "--n", "2", "--input", str(path)]) == 2
    assert "not p = 5, N = 5" in capsys.readouterr().err


def test_approx_requires_headroom(capsys):
    code = main(["approx", "--worst-case", "--p", "3", "--n", "4", "--N", "5"])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["approx", "--frobnicate"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_count_refuses_a_misplaced_product_sign(capsys):
    assert main(["count", "--poly", "x0 * + x1", "--p", "5", "--n", "1"]) == 2
    assert "misplaced" in capsys.readouterr().err


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


@pytest.mark.parametrize("x", ["[[2,1],[1,1]]", "[[1,0],[0,1]]", "[[8,0],[0,8]]"])
def test_phi_gamma0_outside_the_closed_form(capsys, x):
    # not upper triangular, or r >= n: only the brute-force count is reported
    code, rep = _run(capsys, ["phi", "--p", "3", "--n", "2", "--K", "gamma0", "--x", x])
    assert code == 0 and rep["passed"]
    (case,) = rep["cases"]
    assert set(case) == {"count", "total", "ratio"}
    assert case["total"] == 648 and Fraction(case["ratio"]) * 648 == case["count"]


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


def test_nori_command_runs_each_prime_once(capsys, monkeypatch):
    from padiclie import nori

    calls = []
    check = nori.roundtrip_check_fp

    def counting(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(nori, "roundtrip_check_fp", counting)
    code, rep = _run(capsys, ["nori", "--p", "5"])
    assert code == 0 and rep["cases"][0]["smallest_passing_p_so_far"] == 5
    assert calls == [5]
    code, rep = _run(capsys, ["nori", "--p", "7"])
    assert code == 0 and rep["cases"][0]["smallest_passing_p_so_far"] == 5
    assert calls == [5, 7, 5]


@pytest.mark.parametrize(
    "p, digest",
    [
        (5, "d55b173bb07fc54c64245d704efac6bad68f8db1a5f6bb22ecac828978ea4970"),
        (7, "b46cce7e02d80885380b0728289d0435aa911257b6fabb0e02a7746068f229bf"),
        (11, "5803d14dee9d1466a8c96ca25fb25cd298a8963045665770a4caf90d9b811b58"),
        (13, "98160359378ee7edf3b291b22c88b982de4962c027a7fef8a5d387565f743e83"),
    ],
)
def test_nori_command_digests(capsys, p, digest):
    code, rep = _run(capsys, ["nori", "--p", str(p)])
    assert code == 0 and rep["digest"] == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("phi --p 3 --n 2 --K gamma0 --x [[1,1],[0,1]]",
         "fe170011bb716cd6bf8dc7f3381a0996eb5d4ee37edfb2c96a1ee5ff35f7f2cc"),
        ("phi --p 5 --n 2 --K principal:1 --x [[2,1],[1,1]]",
         "9994d730242dc75673d4a03583748b6f150933249d7261875baadd0164890ee1"),
        ("cdelta --gamma [[1,1],[0,1]] --decay-table",
         "c098aa4d89cb5fc5a22ce61c91b070ab14708c8c5afcb08d7ff1cfc8bd71735d"),
        ("cdelta --gamma [[2,1],[1,1]] --full-level 12",
         "1dd8510d18024b15d893e2566cbe2294f99b729d5250242a8ccb751cad065f13"),
        ("cdelta --gamma [[2,1],[1,1]] --gamma0 360",
         "db97eb14fa7428ac68e36ac0a3bf8811f563651145c1e5f1aac2b28384568200"),
        ("explog-selftest --p 5 --N 4 --seed 7 --trials 40",
         "cb33d2920991f440168ac55542cc248b710b42375e315c671b4729bca275d297"),
        ("approx --worst-case --p 3 --n 4 --certify-optimality",
         "13f357122ce47270feac626b7a0c97d589f980bb5d22e3ea9e886299538902f4"),
        ("nori --p 5",
         "d55b173bb07fc54c64245d704efac6bad68f8db1a5f6bb22ecac828978ea4970"),
        ("count --poly x0^2+x1^2 --p 3 --n 2 --mode affine",
         "0255d0777e8193ed4355370145dc5502a3d1688395b2d26ce9abbb8ca4c073bd"),
        ("count --poly x1 --p 5 --mode sl2",
         "6e8e50c371734199caf868a4582d2543587570d0fcfd5a6b09b1a07dbb653f7f"),
        ("count --poly x0*x1 --p 5 --mode schmidt",
         "cf7458eaf02e4d7d5f6c9adaa1dc08a93a428b5be319fd5f9d9da98589430281"),
        ("report-merge",
         "bc6973a0f56bd84f883dd05d7f5ed9a253751993fe1edc2ade55d968d88511a1"),
    ],
)
def test_volume_command_digests(capsys, tmp_path, argv, digest):
    argv = argv.split()
    if argv == ["report-merge"]:
        # the merged digest reads only the parts' digests, cases and verdicts
        for i, part in enumerate(_MERGE_PARTS):
            path = tmp_path / f"part{i}.json"
            assert main([*part.split(), "--out", str(path)]) == 0
            argv.append(str(path))
    code, rep = _run(capsys, argv)
    assert code == 0 and rep["digest"] == digest


_MERGE_PARTS = ["count --poly x0 --p 3 --n 1", "phi --p 3 --n 2 --K gamma0 --x [[1,1],[0,1]]"]


@pytest.mark.parametrize(
    "argv",
    [
        "phi --p 3 --n 2 --K gamma0 --x [[1.5,1],[0,1]]",
        "phi --p 3 --n 2 --K gamma0 --x [[true,1],[0,1]]",
        "phi --p 3 --n 2 --K gamma0 --x [[1,0,0],[0,1,0],[0,0,1]]",
        "phi --p 3 --n 2 --K gamma0 --x [1,1,0,1]",
        "cdelta --gamma [[1.0,0],[0,1.0]] --gamma0 9",
        "cdelta --gamma [[true,0],[0,true]] --gamma0 9",
        "cdelta --gamma [[true,0],[0,true]] --full-level 5",
        "phi --p 3 --n 2 --K principal:-1 --x [[1,1],[0,1]]",
        "phi --p 3 --n 2 --K principal:3 --x [[1,1],[0,1]]",
    ],
)
def test_volume_commands_reject_bad_literals(capsys, argv):
    assert main(argv.split()) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--primes=4", "--primes=3,4", "--primes=1", "--primes=-3", "--nmax=0"])
def test_cdelta_decay_table_rejects_bad_ranges(capsys, option):
    assert main(["cdelta", "--gamma", "[[1,1],[0,1]]", "--decay-table", option]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


@pytest.mark.parametrize("option", ["--gamma0=0", "--full-level=0", "--gamma0=1", "--full-level=-3"])
def test_cdelta_level_below_two_reaches_the_spec(capsys, option):
    # a level of 0 is passed, not missing: the spec refuses it
    assert main(["cdelta", "--gamma", "[[1,1],[0,1]]", option]) == 2
    captured = capsys.readouterr()
    assert "config error: level M must be >= 2" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "modes",
    [
        [],
        ["--gamma0=9", "--full-level=5"],
        ["--gamma0=0", "--decay-table"],
        ["--full-level=5", "--decay-table"],
        ["--gamma0=9", "--full-level=5", "--decay-table"],
    ],
)
def test_cdelta_takes_exactly_one_mode(capsys, modes):
    assert main(["cdelta", "--gamma", "[[1,1],[0,1]]", *modes]) == 2
    captured = capsys.readouterr()
    assert "pass one of --gamma0, --full-level or --decay-table" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("p", ["4", "-5", "9", "3"])
def test_nori_rejects_non_prime_or_small_p(capsys, p):
    assert main(["nori", f"--p={p}"]) == 2
    assert "config error" in capsys.readouterr().err


def test_nori_refuses_primes_above_budget(capsys):
    assert main(["nori", "--p", "17"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


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


def test_report_merge_time_is_parts_plus_merge(capsys, tmp_path):
    _, rep1 = _run(capsys, ["count", "--poly", "x0", "--p", "3", "--n", "1"])
    _, rep2 = _run(capsys, ["count", "--poly", "x0^2", "--p", "3", "--n", "2"])
    parts_time = rep1["timing_seconds"] + rep2["timing_seconds"]
    assert merge_reports([rep1, rep2]).timing_seconds == parts_time
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(json.dumps(rep1))
    p2.write_text(json.dumps(rep2))
    code, merged = _run(capsys, ["report-merge", str(p1), str(p2)])
    assert code == 0 and merged["timing_seconds"] > parts_time


@pytest.mark.parametrize("part", [[1, 2], 5, "report", {"cases": 5}, {"anomalies": {"a": 1}},
                                  {"cases": [], "timing_seconds": "slow"}, {"digest": 7}])
def test_report_merge_refuses_malformed_parts(capsys, tmp_path, part):
    # a malformed part is a config error, not a traceback with exit 1
    _, rep = _run(capsys, ["count", "--poly", "x0", "--p", "3", "--n", "1"])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(rep))
    bad.write_text(json.dumps(part))
    assert main(["report-merge", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    with pytest.raises(ValueError):
        merge_reports([rep, part])


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


def test_invariant_violation_is_not_a_config_error(monkeypatch, capsys):
    # a broken invariant is a bug: it propagates instead of exiting 2
    from padiclie import cli
    from padiclie.errors import InvariantViolation, PrecisionExceeded

    def broken(args):
        raise InvariantViolation("pivoting invariant broken")

    monkeypatch.setattr(cli, "_cmd_nori", broken)
    with pytest.raises(InvariantViolation):
        main(["nori", "--p", "5"])

    def misconfigured(args):
        raise PrecisionExceeded("m = 9 outside [0, 3]")

    monkeypatch.setattr(cli, "_cmd_nori", misconfigured)
    assert main(["nori", "--p", "5"]) == 2
    assert "config error" in capsys.readouterr().err
