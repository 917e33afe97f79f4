"""End-to-end checks of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from platevac import adiabatic as ad
from platevac import algebra as alg
from platevac import casimir as cas
from platevac.cli import main, parse_options

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_cocycle_condition_checked_once_per_cocycle(tmp_path, monkeypatch):
    # coboundary_solve checks the cocycle condition itself; the report's
    # residual is computed again only for a non-cocycle, which it refuses
    calls = []
    check = alg.cocycle_check
    monkeypatch.setattr(alg, "cocycle_check", lambda *a: calls.append(a) or check(*a))
    base = ["cocycle", "--builtin", "poincare21", "--outdir", str(tmp_path)]
    for extra, want in ((["--charges", "1,2,3"], 1), (["--selftest", "5"], 5),
                        (["--charges-raw", "H,P1=1"], 2)):
        calls.clear()
        assert main([*base, *extra]) == 0
        assert len(calls) == want, extra
    report = json.loads(_read(tmp_path / "cocycle_report.json"))
    assert report["cocycle_residual"] == "1/1" and report["feasible"] is None


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


def test_check_and_demo_exclude_each_other(tmp_path):
    argv = ["algebra-verify", "--check", "poincare", "--demo", "contradiction"]
    assert _exit_code([*argv, "--outdir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []
    ini = tmp_path / "run.ini"
    ini.write_text("[algebra-verify]\ndemo = contradiction\n")
    opts = parse_options(["algebra-verify", "--config", str(ini), "--check", "poincare"])
    assert (opts["check"], opts["demo"]) == ("poincare", None)


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_order_threshold_that_is_not_finite_is_bad_input(tmp_path, capsys, value):
    # a FAIL line reading "order >= nan" would blame the lattice for the input
    argv = ["algebra-verify", f"--order-min={value}", "--outdir", str(tmp_path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "need a finite float" in captured.err
    assert "FAIL" not in captured.out and "PASS" not in captured.out
    (tmp_path / "run.ini").write_text(f"[algebra-verify]\norder-min = {value}\n")
    assert _exit_code(["algebra-verify", "--config", str(tmp_path / "run.ini"),
                       "--outdir", str(tmp_path)]) == 2


def test_negative_order_threshold_is_accepted():
    assert parse_options(["algebra-verify", "--order-min=-0.5"])["order_min"] == -0.5


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


@pytest.mark.parametrize("masses", [["--mass1", "0"], ["--mass0", "0"]])
def test_zero_mass_refused_before_any_commutator(tmp_path, capsys, monkeypatch, masses):
    # lambda_min = m^2 in closed form, so a zero mass of either label is bad
    # input before the first spacing's label-0 check starts
    from platevac import lattice as lat

    calls = []
    commutator = lat.commutator
    monkeypatch.setattr(lat, "commutator", lambda *a: calls.append(a) or commutator(*a))
    argv = ["algebra-verify", *masses, "--spacings", "0.025,0.0125", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    assert "smallest potential eigenvalue 0.000e+00" in capsys.readouterr().err
    assert calls == []
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


def test_contradiction_demo_at_the_site_cap_stays_small(tmp_path):
    # the vacuum keeps no M x M covariance block (134 MB each at 4096 sites):
    # a fresh process running the demo at the cap peaks below 100 MB of RSS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = ["algebra-verify", "--demo", "contradiction", "--closure-size", "4096",
            "--outdir", str(tmp_path)]
    # a wrapper process, so that RUSAGE_CHILDREN holds this one run alone
    wrapper = ("import resource, subprocess, sys\n"
               "run = subprocess.run([sys.executable, '-m', 'platevac.cli', *sys.argv[1:]],"
               " stdout=subprocess.DEVNULL)\n"
               "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", wrapper, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "0"
    assert int(out[1]) * 1024 < 100e6  # ru_maxrss counts KiB on Linux


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
    want = cas.casimir_energy_per_area(1.0).value - cas.casimir_energy_per_area(2.0).value
    assert zeta_l2[-1] == "%.11e" % want


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


def _run_twice_alike(tmp_path, capsys, args):
    """Run `args` into two output directories: same exit code 0, stdout and file bytes."""
    runs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        capsys.readouterr()
        assert main([*args, "--outdir", str(outdir)]) == 0
        files = {path.relative_to(outdir): path.read_bytes() for path in outdir.rglob("*")}
        assert files
        runs.append((files, capsys.readouterr().out.replace(str(outdir), "OUTDIR")))
    assert runs[0] == runs[1]


def test_casimir_byte_deterministic(tmp_path, capsys):
    _run_twice_alike(tmp_path, capsys, ["casimir", "--L", "0.5", "--L", "2", "--diff"])


@pytest.mark.parametrize("args", [
    "algebra-verify",
    "algebra-verify --check poincare",
    "adiabatic --L0 1 --L1 2 --T 2,4,8",
    "cocycle --builtin poincare21 --charges 1,2,3",
])
def test_outputs_byte_deterministic(tmp_path, capsys, args):
    # README: identical inputs give byte-identical files
    _run_twice_alike(tmp_path, capsys, args.split())


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


def test_adiabatic_threshold_past_float_range_prints_inf(tmp_path, capsys):
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--T", "0.01,0.02,0.04",
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert "estimated T for |beta|^2 < 1e-06: inf\n" in capsys.readouterr().out


def test_adiabatic_sudden_check(tmp_path, capsys):
    code = main(["adiabatic", "--L0", "1", "--L1", "2", "--sudden-check",
                 "--T", "2,4,8", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sudden-limit check: PASS" in out
    # the check's duration is set against the mode's period, so it passes in any unit
    for l0, l1 in (("1e-5", "2e-5"), ("1e5", "2e5")):
        code = main(["adiabatic", "--L0", l0, "--L1", l1, "--sudden-check",
                     "--T", l1, "--outdir", str(tmp_path)])
        assert code == 0
        assert "sudden-limit check: PASS" in capsys.readouterr().out


def test_adiabatic_threshold_keeps_its_digits_at_any_scale(tmp_path, capsys):
    # the README scan with --k 0.5 estimates 5.7173; in units 1e100 times larger
    code = main(["adiabatic", "--L0", "1e-100", "--L1", "2e-100", "--T", "2e-100,4e-100,8e-100",
                 "--k", "5e99", "--outdir", str(tmp_path)])
    assert code == 0
    assert "estimated T for |beta|^2 < 1e-06: 5.7173e-100\n" in capsys.readouterr().out


def test_adiabatic_wronskian_exit_code(tmp_path, capsys, monkeypatch):
    # the integrator's drift is rounding, 1e-15 to 1e-14 here: report one just
    # above the bound so the gate trips on every platform
    integrate = ad.solve_ivp
    def drifting(*args, **kwargs):
        sol = integrate(*args, **kwargs)
        return type(sol)(sol.y, sol.t, sol.nfev, drift=2e-14)

    monkeypatch.setattr(ad, "solve_ivp", drifting)
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
    ("algebra-verify", "check = poincare\ndemo = contradiction"),
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


@pytest.mark.parametrize("text,message", [
    # raised by items(), not read(): the % interpolation is resolved on access
    ("[casimir]\ncross-tol = 1%\n", "'%' must be followed by '%' or '(', found: '%'"),
    ("[casimir]\nL = 1\nL = 2\n",
     "While reading from {ini!r} [line  3]: option 'L' in section 'casimir' already exists"),
    ("[casimir]\nL = 1\n[casimir]\nL = 2\n",
     "While reading from {ini!r} [line  3]: section 'casimir' already exists"),
], ids=["interpolation", "option-twice", "section-twice"])
def test_config_parser_errors_exit_2_with_the_parser_message(tmp_path, capsys, text, message):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(ini=str(ini))}\n"


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
    ["adiabatic", "--L0", "1e-160", "--L1", "2e-160", "--T", "2e-160"],  # omega^2 overflows
    ["adiabatic", "--L0", "1e162", "--L1", "2e162", "--T", "2e162",  # omega^2 is subnormal
     "--k", "5e-163"],
    ["casimir", "--L", "1", "--cross", "1e-3"],  # a prefix of --cross-tol, as the key 'cross'
    ["algebra-verify", "--sp", "0.2,0.1"],  # a prefix of --spacings
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
    (["--charges-raw", "P1,P2=1", "--charges-raw", "P1,P2=2"], "conflicting values at (P1, P2)"),
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
    ("cocycle", ["--seed", "7"], "seed = 7"),
    ("cocycle", ["--seed", "-3"], "seed = -3"),
    ("cocycle", ["--selftest", "5", "--seed", "7"], "selftest = 5\nseed = 7"),
    ("casimir", ["--L", "0.5"], "L = 0.5"),  # one value replaces the default list
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


@pytest.mark.parametrize("text", [
    "[DEFAULT]\ncross-tol = 1e-3\n",
    "[DEFAULT]\ncross-tol = 1e-3\n[casimir]\nL = 1;2\n",
])
def test_default_section_applies_with_or_without_the_command_section(tmp_path, text):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    opts = parse_options(["casimir", "--config", str(ini)])
    assert opts["cross_tol"] == 1e-3
    assert opts["L"] == ([1.0, 2.0] if "[casimir]" in text else [1.0])


@pytest.mark.parametrize("text,section", [
    ("[DEFAULT]\nbogus = 1\n", "DEFAULT"),
    ("[DEFAULT]\nbogus = 1\n[casimir]\nL = 1\n", "casimir"),
])
def test_unknown_key_names_the_section_read(tmp_path, capsys, text, section):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main(["casimir", "--config", str(ini), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: unknown key 'bogus' in config section [{section}]\n"


@pytest.mark.parametrize("command,flag,key,value", [
    ("algebra-verify", "--spacings", "spacings", "0.1,x"),
    ("algebra-verify", "--spacings", "spacings", "0.1;0.2"),
    ("adiabatic", "--T", "T", ""),
])
def test_bad_float_list_names_no_private_function(tmp_path, capsys, command, flag, key, value):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{key} = {value}\n")
    message = f"argument {flag}: need comma-separated floats, got {value!r}\n"
    for argv in ([f"{flag}={value}"], ["--config", str(ini)]):
        assert _exit_code([command, *argv, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(message) and "_floats" not in err


@pytest.mark.parametrize("argv", [["casimir", "--L", "1"], ["casimir", "--config", "{ini}"]])
def test_one_parser_per_run(tmp_path, monkeypatch, argv):
    from platevac import cli
    ini = tmp_path / "run.ini"
    ini.write_text("[casimir]\nL = 1;2\n")
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a, **k: calls.append(1) or build(*a, **k))
    parse_options([arg.format(ini=ini) for arg in argv])
    assert len(calls) == 1


def test_typed_defaults_are_fresh_per_run():
    assert parse_options(["algebra-verify"])["spacings"] == [0.2, 0.1, 0.05]
    assert parse_options(["adiabatic"])["T"] == [2.0, 4.0, 8.0]
    assert parse_options(["casimir"])["outdir"] == Path(".")
    parse_options(["casimir"])["L"].append(2.0)
    assert parse_options(["casimir"])["L"] == [1.0]


def test_readme_command_line_names_every_declared_option():
    # each declared key appears as --key in README's "Command line" section, and
    # each --flag there is declared, but for the --key=value placeholder and
    # the refused prefix --cross
    from platevac.cli import build_parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("## Command line")
    section = readme[start:readme.index("\n## ", start)]
    flags = set(re.findall(r"--([A-Za-z][\w-]*)", section))
    declared = {key for options in build_parser()[1].values() for key in options}
    assert not declared - flags
    assert flags - declared <= {"key", "cross"}
