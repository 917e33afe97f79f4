"""End-to-end checks of the command-line interface."""

import dataclasses
import json
import math

import pytest

from platevac import adiabatic as ad
from platevac import algebra as alg
from platevac import casimir as cas
from platevac.cli import main, parse_options


def _read(path):
    return path.read_text()


def _exit_code(argv):
    """Exit code of `main`, also when argparse rejects the input."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_charges_certificate(tmp_path):
    code = main(["cocycle", "--builtin", "poincare21", "--charges", "1,2,3",
                 "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["feasible"] is True
    assert report["cocycle_residual"] == "0/1"
    assert report["jacobi_residual"] == "0/1"
    assert report["h2_dimension"] == 0
    assert report["certificate"] == {
        "H": "-1/1", "P1": "-2/1", "P2": "-3/1",
        "J": "0/1", "K1": "0/1", "K2": "0/1",
    }


def test_cocycle_rational_charges(tmp_path):
    code = main(["cocycle", "--builtin", "poincare21", "--charges", "3/7,-2/5,1/3",
                 "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["certificate"]["H"] == "-3/7"
    assert report["certificate"]["P1"] == "2/5"


def test_cocycle_abelian_infeasible(tmp_path):
    code = main(["cocycle", "--builtin", "abelian2", "--charges-raw", "P1,P2=1",
                 "--outdir", str(tmp_path)])
    assert code == 0  # infeasibility is a result, not an error
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["feasible"] is False
    assert report["certificate"] is None
    assert report["kernel_dim"] == 2
    assert report["rank_deficit"] == 1
    assert report["h2_dimension"] == 1


def test_cocycle_one_generator_file(tmp_path):
    # a cocycle file with no entries on a 1-generator algebra: the zero form
    one = tmp_path / "one.txt"
    one.write_text("basis P1\n")
    code = main(["cocycle", "--builtin", "abelian1", "--cocycle-file", str(one),
                 "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["feasible"] is True
    assert report["kernel_dim"] == 1
    assert report["rank_deficit"] == 0
    assert report["certificate"] == {"P1": "0/1"}
    assert report["h2_dimension"] == 0


def test_cocycle_algebra_only_report(tmp_path):
    code = main(["cocycle", "--builtin", "heisenberg1", "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["cocycle"] is None
    assert report["feasible"] is None
    assert report["h2_dimension"] == 2


def test_cocycle_file_inputs(tmp_path):
    algebra = alg.build_poincare_2plus1()
    algebra_path = tmp_path / "algebra.txt"
    cocycle_path = tmp_path / "cocycle.txt"
    alg.save_algebra(algebra, algebra_path)
    alg.save_cocycle(alg.shift_cocycle(1, 0, 0), cocycle_path)
    code = main(["cocycle", "--algebra-file", str(algebra_path),
                 "--cocycle-file", str(cocycle_path), "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["algebra"]["builtin"] is None
    assert report["feasible"] is True
    assert report["certificate"]["H"] == "-1/1"


def test_cocycle_selftest_deterministic(tmp_path):
    args = ["cocycle", "--builtin", "poincare21", "--selftest", "25",
            "--seed", "11", "--outdir", str(tmp_path)]
    assert main(args) == 0
    first = _read(tmp_path / "cocycle_report.json")
    assert main(args) == 0
    assert _read(tmp_path / "cocycle_report.json") == first
    report = json.loads(first)
    assert report["selftest"] == {"trials": 25, "failures": 0}


def test_cocycle_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("basis H P1\nf H P1 H 1 0\n")
    assert main(["cocycle", "--algebra-file", str(bad), "--outdir", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["cocycle", "--builtin", "nosuch", "--outdir", str(tmp_path)]) == 2
    assert main(["cocycle", "--builtin", "abelian2", "--charges", "1,2,3",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["cocycle", "--builtin", "poincare21", "--charges", "1,2",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["cocycle", "--builtin", "poincare21", "--charges-raw", "P1=1",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["cocycle", "--builtin", "abelian2", "--selftest", "5",
                 "--outdir", str(tmp_path)]) == 2


def test_charges_raw_agreeing_mirror_accepted(tmp_path):
    # a pair and its mirror with the negated value, as in a cocycle file
    args = ["cocycle", "--builtin", "abelian2", "--outdir", str(tmp_path)]
    assert main([*args, "--charges-raw", "P1,P2=1", "--charges-raw", "P2,P1=-1",
                 "--charges-raw", "P1,P2=1"]) == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["cocycle"] == {"P1,P2": "1/1"}
    assert report["feasible"] is False


def test_cocycle_source_flags_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["cocycle", "--builtin", "poincare21", "--algebra-file", "x",
              "--outdir", str(tmp_path)])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# algebra-verify


def test_algebra_verify_default_sweep(tmp_path, capsys):
    code = main(["algebra-verify", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    lines = _read(tmp_path / "central_relation.csv").splitlines()
    assert lines[0] == ("spacing,mass,sites,scalar_slot,ground_energy_trace,"
                        "scalar_discrepancy_rel,bulk_residual_norm,full_residual_norm")
    assert len(lines) == 1 + 3 * 2  # three spacings, two masses


def test_algebra_verify_order_gate_fails(tmp_path, capsys):
    code = main(["algebra-verify", "--order-min", "5.0", "--outdir", str(tmp_path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--mass0", "nan"],
    ["--mass1", "inf"],
    ["--spacings", "0.1,0.1,0.1"],
    ["--spacings", "0.2"],
    ["--spacings", "0.3,0.15"],  # 27 * 0.3 = 8.1 and 53 * 0.15 = 7.95, not 8
    ["--physical-size", "inf"],
    ["--physical-size", "nan"],
    ["--spacings", "0.2,0"],
    ["--spacings", "0.2,nan"],
    ["--spacings", "0.2,inf"],
    ["--spacings", "0.2,-0.1"],
    ["--check", "poincare", "--closure-size", "3"],  # bulk window 3 // 4 = 0
    ["--physical-size", "0.3", "--spacings", "0.1,0.05"],  # 3 sites at 0.1
    ["--mass0", "1e100"],
    ["--check", "poincare", "--closure-mass", "1e200"],
    ["--demo", "contradiction", "--closure-mass", "1e154"],
    ["--demo", "contradiction", "--closure-mass", "1e200"],
    ["--demo", "contradiction", "--closure-mass", "0"],  # zero mode: no vacuum
    ["--physical-size", "1e-7", "--spacings", "1e-8,5e-9"],  # mass lost to the rounding of V
])
def test_algebra_verify_bad_input_exit_code(tmp_path, capsys, argv):
    code = main(["algebra-verify", *argv, "--outdir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "FAIL" not in captured.out


def test_spacing_too_fine_for_the_mass_names_the_bound(tmp_path, capsys):
    argv = ["algebra-verify", "--physical-size", "1e-7", "--spacings", "1e-8,5e-9"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "mass 3.14159 is lost to the rounding of V at spacing 1e-08" in err
    assert "exceeds 0.01" in err
    assert not (tmp_path / "central_relation.csv").exists()


def test_ten_and_twenty_sites_fail_the_order_at_any_size(tmp_path):
    # not a rounding floor: the bulk order reads 0.074 at physical sizes 1e-1 to 1e-4
    argv = ["algebra-verify", "--physical-size", "1e-4", "--spacings", "1e-5,5e-6"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 3


def test_spacing_that_misses_the_physical_size_names_it(tmp_path, capsys):
    argv = ["algebra-verify", "--spacings", "0.2,0.3", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    assert "spacing 0.3 gives 27 sites of size 8.1" in capsys.readouterr().err
    assert not (tmp_path / "central_relation.csv").exists()


def test_algebra_verify_poincare_check(tmp_path, capsys):
    code = main(["algebra-verify", "--check", "poincare", "--outdir", str(tmp_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    lines = _read(tmp_path / "closure_residuals.csv").splitlines()
    assert lines[0] == "pair,residual_norm"
    assert len(lines) == 6  # header + five generator pairs


def test_massless_poincare_check_passes(tmp_path, capsys):
    # the paper's massless field: H is valid, and every gated residual is 0
    argv = ["algebra-verify", "--check", "poincare", "--closure-mass", "0"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    for line in _read(tmp_path / "closure_residuals.csv").splitlines()[1:]:
        pair, value = line.rsplit(",", 1)  # the pair is a quoted "A,B"
        assert pair == '"J,H full"' or float(value) == 0.0, line


def test_algebra_verify_contradiction_demo(tmp_path, capsys):
    code = main(["algebra-verify", "--demo", "contradiction", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lower bound" in out
    assert "PASS" in out


def test_contradiction_demo_fail_exits_3(tmp_path, capsys):
    # at m = 1e18 the smallest frequency can round below m, and the demo
    # then prints FAIL
    argv = ["algebra-verify", "--demo", "contradiction", "--closure-mass", "1e18"]
    code = main([*argv, "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == (3 if "vacuum energy > 0: FAIL" in out else 0)


# ---------------------------------------------------------------------------
# casimir


def test_casimir_default(tmp_path):
    code = main(["casimir", "--outdir", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "casimir.csv").splitlines()
    assert lines[0] == "L,method,energy_per_area,error_estimate,force_per_area"
    assert len(lines) == 4  # header + three methods for L=1
    assert lines[1].split(",")[1] == "zeta"


def test_casimir_diff_column(tmp_path):
    code = main(["casimir", "--L", "1", "--L", "2", "--diff", "--outdir", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "casimir.csv").splitlines()
    assert lines[0].endswith(",central_charge_diff_vs_first")
    first_row = lines[1].split(",")
    assert first_row[0] == "%.11e" % 1.0
    assert first_row[-1] == ""  # reference length has no difference entry
    zeta_l2 = lines[4].split(",")
    assert zeta_l2[1] == "zeta"
    assert zeta_l2[-1] == "%.11e" % cas.central_charge_difference(1.0, 2.0)


def _contour_off_by_1e15(monkeypatch):
    """Make the contour route miss 1/120 by 1e-15 relative, past --cross-tol 1e-18.

    The quadrature alone may land on 1/120 to the bit, and then no tolerance
    trips the cross-check.
    """
    monkeypatch.setattr(cas, "abel_plana_zeta3", lambda: ((1.0 + 1e-15) / 120.0, 1e-14))


def test_casimir_cross_check_exit_code(tmp_path, capsys, monkeypatch):
    _contour_off_by_1e15(monkeypatch)
    code = main(["casimir", "--L", "1", "--cross-tol", "1e-18",
                 "--outdir", str(tmp_path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_casimir_byte_deterministic(tmp_path):
    args = ["casimir", "--L", "0.5", "--L", "2", "--diff", "--outdir", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "casimir.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "casimir.csv").read_bytes() == first


def test_casimir_rejects_bad_length(tmp_path):
    assert main(["casimir", "--L", "0", "--outdir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# adiabatic


def test_adiabatic_scan_csv(tmp_path, capsys):
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "decay exponent" in out
    lines = _read(tmp_path / "adiabatic_scan.csv").splitlines()
    assert lines[0] == ("n,k,T,alpha_re,alpha_im,beta_re,beta_im,"
                        "particle_number,wronskian_drift")
    numbers = [float(line.split(",")[7]) for line in lines[1:]]
    assert len(numbers) == 3
    assert numbers[0] > numbers[1] > numbers[2]


def test_adiabatic_requires_lengths(tmp_path):
    assert main(["adiabatic", "--outdir", str(tmp_path)]) == 2


def test_adiabatic_short_list_skips_scan(tmp_path, capsys):
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--T", "1,2",
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert "decay exponent" not in capsys.readouterr().out
    assert len(_read(tmp_path / "adiabatic_scan.csv").splitlines()) == 3


def test_adiabatic_sudden_check(tmp_path, capsys):
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--sudden-check",
                 "--T", "2,4,8", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sudden-limit check: PASS" in out


def test_adiabatic_wronskian_exit_code(tmp_path, capsys, monkeypatch):
    # the integrator's drift is rounding, 1e-15 to 1e-14 here: report one just
    # above the bound so the gate trips on every platform
    integrate = ad.solve_ivp
    monkeypatch.setattr(ad, "solve_ivp", lambda *args, **kwargs: dataclasses.replace(
        integrate(*args, **kwargs), drift=2e-14))
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--wronskian-tol", "1e-14",
                 "--outdir", str(tmp_path)])
    assert code == 4
    assert "Wronskian" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_options(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[casimir]\nL = 1;2\ndiff = true\ncross-tol = 1e-8\n")
    code = main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "casimir.csv").splitlines()
    assert lines[0].endswith(",central_charge_diff_vs_first")
    assert len(lines) == 7  # two lengths, three methods each


def test_config_flags_override_file(tmp_path, monkeypatch):
    _contour_off_by_1e15(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text("[casimir]\ncross-tol = 1e-18\n")
    # config alone trips the designed cross-check failure
    assert main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)]) == 3
    # an explicit flag wins over the file
    assert main(["casimir", "--config", str(ini), "--cross-tol", "1e-8",
                 "--outdir", str(tmp_path)]) == 0


def test_config_rejects_unknown_keys(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[casimir]\nbogus = 1\n")
    assert main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_missing_file(tmp_path):
    assert main(["casimir", "--config", str(tmp_path / "absent.ini"),
                 "--outdir", str(tmp_path)]) == 2


def test_config_adiabatic_section(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[adiabatic]\nL0 = 1\nL1 = 2\nT = 2,4,8\nn = 1\nk = 0\n")
    code = main(["adiabatic", "--config", str(ini), "--outdir", str(tmp_path)])
    assert code == 0
    assert len(_read(tmp_path / "adiabatic_scan.csv").splitlines()) == 4


def test_config_flag_replaces_repeatable_file_value(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[casimir]\nL = 1;2\n")
    assert main(["casimir", "--config", str(ini), "--L", "3",
                 "--outdir", str(tmp_path)]) == 0
    rows = _read(tmp_path / "casimir.csv").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["%.11e" % 3.0] * 3


def test_config_flag_replaces_the_options_it_excludes(tmp_path):
    alg.save_algebra(alg.build_poincare_2plus1(), tmp_path / "algebra.txt")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[cocycle]\nalgebra-file = {tmp_path}/algebra.txt\ncharges = 1,2,3\n")
    assert main(["cocycle", "--config", str(ini), "--builtin", "abelian2",
                 "--charges-raw", "P1,P2=1", "--outdir", str(tmp_path)]) == 0
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["algebra"]["builtin"] == "abelian2"
    assert report["cocycle"] == {"P1,P2": "1/1"}


@pytest.mark.parametrize("command,section", [
    ("algebra-verify", "check = bogus"),
    ("algebra-verify", "demo = bogus"),
    ("casimir", "diff = maybe"),
    ("cocycle", "builtin = poincare21\nalgebra-file = {tmp}/algebra.txt"),
    ("casimir", "command = casimir"),
    ("casimir", "cross-tol = 1;2"),
    ("casimir", "cross-tol = nan"),
    ("casimir", "cross-tol = -1"),
    ("casimir", "L = 1e80"),
    ("cocycle", "selftest = -3"),
    ("casimir", "cross = 1e-8"),  # keys are full flag names, not abbreviations
    ("casimir", "config = /nonexistent.ini"),  # a config file names no other file
    ("cocycle", "selftest = 10001"),
])
def test_config_values_checked_like_flags(tmp_path, capsys, command, section):
    alg.save_algebra(alg.build_poincare_2plus1(), tmp_path / "algebra.txt")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{section.format(tmp=tmp_path)}\n")
    assert _exit_code([command, "--config", str(ini), "--outdir", str(tmp_path)]) == 2
    assert "PASS" not in capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == ["algebra.txt", "run.ini"]


def test_config_malformed_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("L = 1\n")  # no section header
    assert main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["casimir", "--cross-tol", "nan"],
    ["casimir", "--cross-tol", "-1"],
    ["casimir", "--L", "1e-100"],
    ["casimir", "--L", "1e80"],
    ["casimir", "--L", "inf"],
    ["casimir", "--diff", "maybe"],
    ["algebra-verify", "--check", "poincare", "--closure-tol", "-1"],
    ["algebra-verify", "--scalar-tol", "inf"],
    ["adiabatic", "--L0", "1", "--L1", "2", "--T", "2", "--wronskian-tol", "nan"],
    ["adiabatic", "--L0", "1", "--L1", "2", "--T", "2", "--wronskian-tol", "-1"],
    ["cocycle", "--selftest", "-3"],
    ["cocycle", "--selftest", "10001"],
    ["cocycle", "--selftest", "9" * 400],
    ["algebra-verify", "--check", "poincare", "--closure-size", "1000"],  # 10^6 sites
    ["algebra-verify", "--spacings", "0.0001,0.0002"],  # 80 000 sites
    ["adiabatic", "--L0", "1", "--L1", "2", "--T", "1e6"],  # 8e6 steps in the first sweep
    ["adiabatic", "--L0", "1", "--L1", "2", "--k", "nan"],
    ["adiabatic", "--L0", "1", "--L1", "2", "--k", "inf"],
    ["adiabatic", "--L0", "1e-310", "--L1", "2"],  # omega overflows
    ["adiabatic", "--L0", "1", "--L1", "inf", "--sudden-check"],  # omega_out = 0
    ["adiabatic", "--L0", "1e300", "--L1", "1e300", "--sudden-check"],  # omega^2 underflows
    ["adiabatic", "--L0", "1", "--L1", "2", "--n", "1" + "0" * 400],
    ["cocycle", "--builtin", "abelian65"],  # more than 64 generators
    ["cocycle", "--builtin", "abelian" + "9" * 400],
    ["cocycle", "--algebra-file", "{tmp}/wide.txt"],  # 65 basis labels
    ["cocycle", "--builtin", "abelian2", "--charges-raw", "P1,Q=1"],  # unknown label
    ["cocycle", "--builtin", "abelian2",  # the mirror disagrees
     "--charges-raw", "P1,P2=1", "--charges-raw", "P2,P1=1"],
    ["cocycle", "--builtin", "abelian2",  # one pair, two values
     "--charges-raw", "P1,P2=1", "--charges-raw", "P1,P2=2"],
    ["cocycle", "--builtin", "abelian2", "--cocycle-file", "{tmp}/widec.txt"],  # 65 labels
])
def test_bad_values_exit_2(tmp_path, capsys, argv):
    wide = "basis " + " ".join(f"X{i}" for i in range(65)) + "\n"
    (tmp_path / "wide.txt").write_text(wide)
    (tmp_path / "widec.txt").write_text(wide)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _exit_code([*argv, "--outdir", str(tmp_path)]) == 2
    assert "PASS" not in capsys.readouterr().out


def _sudden_off(monkeypatch):
    closed_form = ad.sudden_beta_magnitude
    monkeypatch.setattr(ad, "sudden_beta_magnitude", lambda *args: 2 * closed_form(*args))


def _coboundaries_infeasible(monkeypatch):
    monkeypatch.setattr(alg, "coboundary_solve",
                        lambda algebra, cocycle: alg.CoboundaryResult(False, None, 0, 1))


@pytest.mark.parametrize("argv,patch,verdict,output", [
    (["algebra-verify", "--check", "poincare", "--closure-tol", "0"], None,
     "closure residuals < 0: FAIL", "closure_residuals.csv"),  # a norm is never below 0
    (["adiabatic", "--L0", "1", "--L1", "2", "--sudden-check"], _sudden_off,
     "sudden-limit check: FAIL", "adiabatic_scan.csv"),
    (["cocycle", "--selftest", "5"], _coboundaries_infeasible, None, "cocycle_report.json"),
])
def test_failed_check_exits_3_and_still_writes(tmp_path, capsys, monkeypatch,
                                               argv, patch, verdict, output):
    if patch:
        patch(monkeypatch)
    assert main([*argv, "--outdir", str(tmp_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    if verdict:
        assert verdict in lines
    else:  # the selftest counts its failures in the report instead
        assert not [line for line in lines if "PASS" in line or "FAIL" in line]
        report = json.loads(_read(tmp_path / output))
        assert report["selftest"] == {"trials": 5, "failures": 5}
    assert (tmp_path / output).stat().st_size > 0


@pytest.mark.parametrize("argv,message", [
    (["--charges-raw", "P1,P1=1"], "pair (P1, P1) is diagonal"),
    (["--charges-raw", "P1,P2=1", "--charges-raw", "P2,P1=1"], "antisymmetry violated at (P2, P1)"),
    (["--cocycle-file", "{tmp}/widec.txt"], "65 labels, more than the 64 allowed"),
])
def test_cocycle_errors_name_labels(tmp_path, capsys, argv, message):
    (tmp_path / "widec.txt").write_text("basis " + " ".join(f"X{i}" for i in range(65)) + "\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(["cocycle", "--builtin", "abelian2", *argv, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_COMMANDS = ("cocycle", "algebra-verify", "casimir", "adiabatic")

# each option once as flags and once as the lines of its config section
_FLAG_AND_INI = [
    ("cocycle", ["--builtin", "abelian2"], "builtin = abelian2"),
    ("cocycle", ["--algebra-file", "a.txt"], "algebra-file = a.txt"),
    ("cocycle", ["--charges", "1,2,3"], "charges = 1,2,3"),
    ("cocycle", ["--charges-raw", "P1,P2=1", "--charges-raw", "H,P1=-2/3"],
     "charges-raw = P1,P2=1; H,P1=-2/3"),
    ("cocycle", ["--cocycle-file", "c.txt"], "cocycle-file = c.txt"),
    ("cocycle", ["--selftest", "5"], "selftest = 5"),
    *[(command, ["--seed", "7"], "seed = 7") for command in _COMMANDS],
    *[(command, ["--outdir", "out"], "outdir = out") for command in _COMMANDS],
    ("algebra-verify", ["--physical-size", "6"], "physical-size = 6"),
    ("algebra-verify", ["--spacings", "0.3,0.2"], "spacings = 0.3,0.2"),
    ("algebra-verify", ["--mass0", "1.5"], "mass0 = 1.5"),
    ("algebra-verify", ["--mass1", "2"], "mass1 = 2"),
    ("algebra-verify", ["--order-min", "1.5"], "order-min = 1.5"),
    ("algebra-verify", ["--scalar-tol", "1e-8"], "scalar-tol = 1e-8"),
    ("algebra-verify", ["--check", "poincare"], "check = poincare"),
    ("algebra-verify", ["--closure-size", "8"], "closure-size = 8"),
    ("algebra-verify", ["--closure-mass", "0.5"], "closure-mass = 0.5"),
    ("algebra-verify", ["--closure-tol", "1e-9"], "closure-tol = 1e-9"),
    ("algebra-verify", ["--demo", "contradiction"], "demo = contradiction"),
    ("casimir", ["--L", "1", "--L", "2"], "L = 1;2"),
    ("casimir", ["--diff"], "diff = true"),
    ("casimir", ["--diff", "off"], "diff = Off"),
    ("casimir", ["--cross-tol", "1e-7"], "cross-tol = 1e-7"),
    ("adiabatic", ["--L0", "1", "--L1", "2"], "L0 = 1\nL1 = 2"),
    ("adiabatic", ["--T", "1,2"], "T = 1,2"),
    ("adiabatic", ["--n", "3"], "n = 3"),
    ("adiabatic", ["--k", "-0.5"], "k = -0.5"),
    ("adiabatic", ["--sudden-check"], "sudden-check = yes"),
    ("adiabatic", ["--wronskian-tol", "1e-7"], "wronskian-tol = 1e-7"),
]


@pytest.mark.parametrize("command,flags,section", _FLAG_AND_INI)
def test_flag_and_config_key_resolve_alike(tmp_path, command, flags, section):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{section}\n")
    from_flags = parse_options([command, *flags])
    from_file = parse_options([command, "--config", str(ini)])
    assert from_file.pop("config") == str(ini)
    assert from_flags.pop("config") is None
    assert from_file == from_flags
    assert from_flags != parse_options([command])


def test_flag_and_config_cases_cover_every_option():
    covered = {(command, flag) for command, flags, _ in _FLAG_AND_INI
               for flag in flags if flag.startswith("--")}
    for command in _COMMANDS:
        names = set(parse_options([command])) - {"command", "handler", "config"}
        assert {(command, "--" + name.replace("_", "-")) for name in names} == {
            pair for pair in covered if pair[0] == command}
