"""Command-line front end.

Four subcommands expose the computational layers:

    cocycle         exact bracket-table diagnostics, cocycle feasibility, JSON report
    algebra-verify  lattice boost/translation commutator checks, convergence CSV
    casimir         plate energies by all routes, cross-checked, CSV
    adiabatic       mode evolution scans, CSV

Exit codes: 0 success, 2 bad input (malformed files, invalid parameters),
3 numerical cross-check failure, 4 integrator or scan-quality failure.
Each handler returns whether its checks passed and prints its PASS/FAIL
lines through `_verdict`; `main` alone maps every outcome to an exit code.

The layers are bound as lazy modules and run on their first use, so a run
executes only the layers its subcommand calls: only `algebra-verify` loads
numpy, through `lattice`. `configparser` loads only for --config or an
explicit flag value, `json` only for `cocycle`, `csv` only for a CSV file.

Every subcommand accepts --outdir and --config, and `cocycle` also --seed,
the seed of its --selftest draws.  The config file is INI-style with one
section per subcommand; keys are the long flag names without the leading
dashes.  A run reads its subcommand's section, [DEFAULT] keys included, or
[DEFAULT] alone if that section is missing.  Each line ``key = value`` is
parsed as the flag ``--key=value`` by the same declarations as the command
line, so file values are checked like flags; repeatable keys take
``;``-separated values.  An option is its declared default, overridden by
the file, overridden by a flag; a flag value starting with ``-`` needs the
``--key=value`` form.  CSV output uses 12-significant-digit scientific
notation and unix line endings, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path


def _lazy(layer: str):
    """The module `platevac.<layer>`, executed on its first attribute access.

    A layer imported already is reused as it is. A new one goes into
    `sys.modules` and onto the package, as an import would put it, so later
    imports and tracers find the same module object.
    """
    name = f"{__package__}.{layer}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], layer, module)
    return sys.modules[name]


ad = _lazy("adiabatic")
alg = _lazy("algebra")
cas = _lazy("casimir")
lat = _lazy("lattice")
_lazy("exactlin")  # algebra's: bound here too, so tracers set up before main find it

_FLOAT_FMT = "%.11e"
_SELFTEST_MAX = 10_000  # exact solves: about a minute
_SUDDEN_TOL = 1e-3  # relative deviation of the sudden-limit |beta|


def _rational(text: str) -> Fraction:
    from fractions import Fraction
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _write_csv(path: Path, header, rows):
    import csv
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _verdict(label: str, ok: bool) -> bool:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# argument plumbing


def _number(kind, least=-math.inf, most=math.inf):
    """Argument type of tolerances, thresholds and counts: a finite `kind` in [least, most]."""
    bound = (f" from {least} to {most}" if most < math.inf
             else f" >= {least}" if least > -math.inf else "")

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (least <= value <= most and abs(value) < math.inf):
            raise argparse.ArgumentTypeError(
                f"need a finite {kind.__name__}{bound}, got {text!r}")
        return value
    return convert


def _flag(text: str) -> bool:
    """Argument type of on/off options: the INI boolean spellings."""
    import configparser
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"need one of {', '.join(states)}, got {text!r}") from None


def _floats(text: str) -> list[float]:
    """Argument type of comma-separated lists of floats."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated floats, got {text!r}") from None


def build_parser():
    """Declare every subcommand and option: type, default, choices, repeats.

    Returns the parser and, per subcommand and config key (the long flag
    without dashes), the option's ``(dest, default, repeats, group)``: its
    typed default, whether it is repeatable, and its exclusive group or None.
    The parser itself defaults every option to ``argparse.SUPPRESS``, so a
    parse returns only the options its tokens name.
    """
    parser = argparse.ArgumentParser(
        prog="platevac",
        allow_abbrev=False,  # a flag is spelled out, as its config key must be
        description="Central charges from plate vacua: exact cocycle algebra, "
        "lattice commutators, regularized plate energies, mode evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    declared = {}

    def subcommand(name, handler, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        options = declared[name] = {}

        def option(flag, default=None, group=None, **kwargs):
            action = (group or p).add_argument(flag, default=argparse.SUPPRESS, **kwargs)
            options[flag[2:]] = action.dest, default, kwargs.get("action") == "append", group

        option("--outdir", type=Path, default=Path("."), help="directory for output files")
        option("--config", help="INI config file")
        return p, option

    p, option = subcommand("cocycle", cmd_cocycle, "exact algebra and cocycle diagnostics")
    src = p.add_mutually_exclusive_group()
    option("--builtin", default="poincare21", group=src,
           help="builtin algebra name (e.g. poincare21, abelian2)")
    option("--algebra-file", group=src, help="algebra data file")
    src = p.add_mutually_exclusive_group()
    option("--charges", group=src, help="c0,c1,c2 charge triple (poincare21 only)")
    option("--charges-raw", group=src, action="append", metavar="A,B=VALUE",
           help="explicit cocycle entry; repeatable")
    option("--cocycle-file", group=src, help="cocycle data file")
    option("--selftest", type=_number(int, 0, _SELFTEST_MAX), default=0, metavar="N",
           help="run N random charge triples through the solver")
    option("--seed", type=int, default=0, help="random seed of --selftest")

    p, option = subcommand("algebra-verify", cmd_algebra_verify, "lattice commutator verification")
    option("--physical-size", type=float, default=8.0)
    option("--spacings", type=_floats, default=[0.2, 0.1, 0.05],
           help="comma-separated spacings")
    option("--mass0", type=float, default=math.pi)
    option("--mass1", type=float, default=math.pi / 2.0)
    option("--order-min", type=_number(float), default=1.9,
           help="minimum accepted convergence order")
    option("--scalar-tol", type=_number(float, 0), default=1e-9,
           help="relative tolerance on the scalar slot")
    run = p.add_mutually_exclusive_group()
    option("--check", group=run, choices=["poincare"],
           help="run the periodic closure residual check instead")
    option("--closure-size", type=int, default=16)
    option("--closure-mass", type=float, default=1.0)
    option("--closure-tol", type=_number(float, 0), default=1e-10)
    option("--demo", group=run, choices=["contradiction"],
           help="print the positive vacuum-energy lower bound")

    _, option = subcommand("casimir", cmd_casimir, "plate energies, all routes")
    option("--L", action="append", type=float, default=[1.0],
           help="plate separation; repeatable")
    option("--diff", type=_flag, nargs="?", const=True, default=False,
           help="add energy-difference column relative to the first L")
    option("--cross-tol", type=_number(float, 0), default=1e-8,
           help="relative tolerance between zeta and contour routes")

    _, option = subcommand("adiabatic", cmd_adiabatic, "mode evolution through the schedule")
    option("--L0", type=float)
    option("--L1", type=float)
    option("--T", type=_floats, default=[2.0, 4.0, 8.0], help="comma-separated half-durations")
    option("--n", type=int, default=1)
    option("--k", type=float, default=0.0)
    option("--sudden-check", type=_flag, nargs="?", const=True, default=False,
           help="compare the integrator against the closed-form sudden limit")
    option("--wronskian-tol", type=_number(float, 0), default=1e-8)

    return parser, declared


def _config_tokens(options, path, command) -> list[str]:
    """The [command] section, else [DEFAULT], of the INI file at `path` as ``--key=value`` flags."""
    import configparser
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keys like L0 are case-sensitive
    try:
        if not ini.read(path):
            raise ValueError(f"config file not found: {path}")
        section = command if ini.has_section(command) else ini.default_section
        items = ini.items(section)
    except configparser.Error as exc:  # from read, or from items for an interpolation
        raise ValueError(str(exc)) from None
    tokens = []
    for key, raw in items:
        if key not in options or key == "config":  # a config file names no other file
            raise ValueError(f"unknown key {key!r} in config section [{section}]")
        _, _, repeats, _ = options[key]
        values = raw.split(";") if repeats else [raw]
        # the = form keeps a value like -0.1 from being read as a flag
        tokens += [f"--{key}={value.strip()}" for value in values]
    return tokens


def parse_options(argv=None) -> dict:
    """Resolve the options of one run: declared defaults, then the config file, then flags.

    The flags and the file's tokens are parsed apart and merged key by key,
    so a flag replaces a file value, also of a repeatable option, and of
    the options it excludes.
    """
    parser, declared = build_parser()
    given = vars(parser.parse_args(argv))
    command = given["command"]
    options = declared[command]
    from_file = {}
    if "config" in given:
        tokens = _config_tokens(options, given["config"], command)
        from_file = vars(parser.parse_args([command, *tokens]))
    flagged = {group for dest, *_, group in options.values() if dest in given} - {None}
    return {**{dest: default if group in flagged else from_file.get(dest, default)
               for dest, default, _, group in options.values()}, **given}


# ---------------------------------------------------------------------------
# cocycle subcommand


def _resolve_algebra(opts):
    if opts["algebra_file"]:
        return alg.load_algebra(opts["algebra_file"]), None
    try:
        return alg.builtin_algebra(opts["builtin"]), opts["builtin"]
    except KeyError as exc:
        raise ValueError(str(exc)) from exc


def _resolve_cocycle(algebra, builtin, opts):
    if opts["charges"]:
        if builtin != "poincare21":
            raise ValueError("--charges applies to the poincare21 algebra only")
        parts = opts["charges"].split(",")
        if len(parts) != 3:
            raise ValueError("--charges needs exactly three rationals c0,c1,c2")
        return alg.shift_cocycle(*(_rational(p) for p in parts))
    if opts["charges_raw"]:
        entries = []
        for item in opts["charges_raw"]:
            head, _, value = item.partition("=")
            labels = [x.strip() for x in head.split(",")]
            if len(labels) != 2 or not value:
                raise ValueError(f"bad --charges-raw entry {item!r}, want A,B=value")
            entries.append((labels, _rational(value)))
        return alg.TwoCocycle.from_entries(algebra.labels, entries)
    if opts["cocycle_file"]:
        cocycle = alg.load_cocycle(opts["cocycle_file"])
        if cocycle.labels != algebra.labels:
            raise ValueError(
                f"cocycle basis {cocycle.labels} does not match algebra basis "
                f"{algebra.labels}"
            )
        return cocycle
    return None


def _selftest(algebra, trials, seed):
    import random
    from fractions import Fraction
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        charges = [
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)
        ]
        cocycle = alg.shift_cocycle(*charges)
        try:  # coboundary_solve raises ValueError for a non-cocycle
            result = alg.coboundary_solve(algebra, cocycle)
        except ValueError:
            failures += 1
            continue
        if not result.feasible or result.certificate.induced_cocycle(algebra) != cocycle:
            failures += 1
    return {"trials": trials, "failures": failures}


def cmd_cocycle(opts) -> bool:
    algebra, builtin = _resolve_algebra(opts)
    report = {
        "algebra": {
            "builtin": builtin,
            "dim": algebra.dim,
            "labels": list(algebra.labels),
        },
        # h2_dimension raises on a nonzero Jacobi residual, so a written report has 0
        "jacobi_residual": "0/1",
        "h2_dimension": alg.h2_dimension(algebra),
        "cocycle": None,
        "cocycle_residual": None,
        "feasible": None,
        "certificate": None,
        "kernel_dim": None,
        "rank_deficit": None,
    }

    cocycle = _resolve_cocycle(algebra, builtin, opts)
    if cocycle is not None:
        labels = cocycle.labels
        report["cocycle"] = {
            f"{labels[a]},{labels[b]}": _fraction_str(value)
            for (a, b), value in cocycle.entries.items()
        }
        try:  # coboundary_solve checks the cocycle condition and raises on a residual
            solved = alg.coboundary_solve(algebra, cocycle)
        except ValueError:
            report["cocycle_residual"] = _fraction_str(alg.cocycle_check(algebra, cocycle))
        else:
            report["cocycle_residual"] = "0/1"
            report["feasible"] = solved.feasible
            report["kernel_dim"] = solved.kernel_dim
            report["rank_deficit"] = solved.rank_deficit
            if solved.certificate is not None:
                report["certificate"] = {
                    label: _fraction_str(value)
                    for label, value in zip(algebra.labels, solved.certificate.alpha)
                }

    passed = True
    if opts["selftest"]:
        if builtin != "poincare21":
            raise ValueError("--selftest runs on the poincare21 algebra only")
        report["selftest"] = _selftest(algebra, opts["selftest"], opts["seed"])
        passed = not report["selftest"]["failures"]

    import json
    out = opts["outdir"] / "cocycle_report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    verdict = report["feasible"]
    if verdict is not None:
        print(f"cocycle: {'coboundary (removable)' if verdict else 'not a coboundary'}")
    print(f"report written to {out}")
    return passed


# ---------------------------------------------------------------------------
# algebra-verify subcommand


def cmd_algebra_verify(opts) -> bool:
    outdir = opts["outdir"]
    if opts["demo"] == "contradiction":
        geom = lat.LatticeGeometry(1, opts["closure_size"], 0.5, boundary="periodic")
        demo = lat.contradiction_demo(geom, opts["closure_mass"])
        print(f"modes: {demo['n_modes']}")
        print(f"vacuum energy (trace route):     {_fmt(demo['vev_trace_route'])}")
        print(f"vacuum energy (mode sum):        {_fmt(demo['ground_energy'])}")
        print(f"positive lower bound M*m_min/2:  {_fmt(demo['lower_bound'])}")
        return _verdict("vacuum energy > 0", demo["ground_energy"] >= demo["lower_bound"])

    if opts["check"] == "poincare":
        geom = lat.LatticeGeometry(2, opts["closure_size"], 0.5, boundary="periodic")
        residuals = lat.verify_poincare_closure(geom, opts["closure_mass"])
        rows = [(pair, _fmt(value)) for pair, value in residuals.items()]
        _write_csv(outdir / "closure_residuals.csv", ("pair", "residual_norm"), rows)
        gated = ["H,P1", "H,P2", "P1,P2", "J,H bulk"]
        worst = max(residuals[p] for p in gated)
        for pair, value in residuals.items():
            print(f"  [{pair}] residual norm {_fmt(value)}")
        return _verdict(f"closure residuals < {opts['closure_tol']:g}",
                        worst < opts["closure_tol"])

    masses = (opts["mass0"], opts["mass1"])
    sweep = lat.central_relation_convergence(opts["physical_size"], opts["spacings"], masses)
    header = ("spacing", "mass", "sites", "scalar_slot", "ground_energy_trace",
              "scalar_discrepancy_rel", "bulk_residual_norm", "full_residual_norm")
    rows = []
    worst_scalar = 0.0
    for spacing, report in zip(sweep["spacings"], sweep["reports"]):
        for row in report["per_label"]:
            rows.append((
                _fmt(spacing), _fmt(row["mass"]), row["sites"],
                _fmt(row["scalar_slot"]), _fmt(row["ground_energy_trace"]),
                _fmt(row["scalar_discrepancy_rel"]),
                _fmt(row["bulk_residual_norm"]), _fmt(row["full_residual_norm"]),
            ))
            worst_scalar = max(worst_scalar, row["scalar_discrepancy_rel"])
    _write_csv(outdir / "central_relation.csv", header, rows)

    orders = sweep["bulk_orders"]
    order_ok = all(o >= opts["order_min"] for o in orders)
    scalar_ok = worst_scalar <= opts["scalar_tol"]
    for mass, order in zip(masses, orders):
        print(f"  bulk convergence order (mass {mass:g}): {order:.4f}")
    print(f"  worst scalar-slot relative discrepancy: {_fmt(worst_scalar)}")
    return _verdict(f"central relation (order >= {opts['order_min']:g}, "
                    f"scalar tol {opts['scalar_tol']:g})", order_ok and scalar_ok)


# ---------------------------------------------------------------------------
# casimir subcommand


def cmd_casimir(opts) -> bool:
    header = ["L", "method", "energy_per_area", "error_estimate", "force_per_area"]
    if opts["diff"]:
        header.append("central_charge_diff_vs_first")

    rows = []
    first = {}
    cross_ok = True
    for length in opts["L"]:
        force = cas.casimir_force_per_area(length)
        per_method = {}
        for method in cas.METHODS:
            result = cas.casimir_energy_per_area(length, method)
            per_method[method] = result
            row = [_fmt(length), method, _fmt(result.value),
                   _fmt(result.error_estimate), _fmt(force)]
            if opts["diff"]:  # the first L is the reference: no entry
                row.append(_fmt(first[method] - result.value) if method in first else "")
                first.setdefault(method, result.value)
            rows.append(row)
        zeta = per_method["zeta"].value
        contour = per_method["abel_plana"].value
        if abs(zeta - contour) > opts["cross_tol"] * abs(zeta):
            cross_ok = False
        cutoff = per_method["cutoff_extrapolation"]
        budget = per_method["zeta"].error_estimate + cutoff.error_estimate
        if abs(zeta - cutoff.value) > budget:
            cross_ok = False

    _write_csv(opts["outdir"] / "casimir.csv", header, rows)
    return _verdict("routes agree within tolerance", cross_ok)


# ---------------------------------------------------------------------------
# adiabatic subcommand


def cmd_adiabatic(opts) -> bool:
    if opts["L0"] is None or opts["L1"] is None:
        raise ValueError("adiabatic requires --L0 and --L1")
    times, n, k = opts["T"], opts["n"], opts["k"]

    ok = True
    if opts["sudden_check"]:
        closed = ad.sudden_beta_magnitude(n, k, opts["L0"], opts["L1"])
        # 1e-4 of the faster half-period, so the check holds in any unit of length
        fastest = max(ad.mode_frequency(n, k, opts["L0"]), ad.mode_frequency(n, k, opts["L1"]))
        run = ad.evolve_mode(ad.Schedule(opts["L0"], opts["L1"], 1e-4 * math.pi / fastest), n, k,
                             wronskian_tol=opts["wronskian_tol"])
        dev = abs(abs(run.beta) - closed) / closed if closed else abs(run.beta)
        print(f"sudden |beta| closed form:  {_fmt(closed)}")
        print(f"sudden |beta| integrator:   {_fmt(abs(run.beta))}")
        print(f"relative deviation:         {_fmt(dev)}")
        ok = _verdict("sudden-limit check", dev <= _SUDDEN_TOL)

    if len(times) >= 3:
        scan = ad.adiabatic_scan(opts["L0"], opts["L1"], times, n=n, k=k,
                                 wronskian_tol=opts["wronskian_tol"])
        results = scan.rows
        print(f"decay exponent (two largest T): {scan.decay_exponent:.4f}")
        print(f"estimated T for |beta|^2 < {scan.target:g}: "
              f"{scan.threshold_half_duration:.5g}")
    else:
        results = tuple(
            ad.evolve_mode(ad.Schedule(opts["L0"], opts["L1"], t), n, k,
                           wronskian_tol=opts["wronskian_tol"])
            for t in times
        )

    header = ("n", "k", "T", "alpha_re", "alpha_im", "beta_re", "beta_im",
              "particle_number", "wronskian_drift")
    rows = [
        (r.n, _fmt(r.k), _fmt(r.half_duration),
         _fmt(r.alpha.real), _fmt(r.alpha.imag),
         _fmt(r.beta.real), _fmt(r.beta.imag),
         _fmt(r.particle_number), _fmt(r.wronskian_drift))
        for r in results
    ]
    out = opts["outdir"] / "adiabatic_scan.csv"
    _write_csv(out, header, rows)
    print(f"scan written to {out}")
    return ok


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        opts = parse_options(argv)
        return 0 if opts["handler"](opts) else 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ad.IntegrationFailure, ad.WronskianViolation, ad.ScanQualityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
