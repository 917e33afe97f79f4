"""Seeded job lists, the layer call each job makes, and each job's oracle.

A workload's jobs come in rounds. Every round holds each job class of the
workload once, in an order and with inputs drawn from the seed, so runs
with different seeds do the same mix of work and their rates compare.

Oracles live here and do not call the package: closed forms, exact
re-substitution over the rationals, and invariants that hold by
construction of the inputs. A float tolerance gate also yields its margin,
log10(tol / err) with err floored at 1e-16 relative.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("lattice-ladder", "exact-cohomology", "plate-motion", "cli-cold")

# The imports a user of each workload needs; their cost is part of setup_s.
# cli-cold needs platevac.algebra only to write the data files of the
# README's file-based cocycle example.
MODULES = {
    "lattice-ladder": ("platevac.lattice",),
    "exact-cohomology": ("platevac.algebra",),
    "plate-motion": ("platevac.adiabatic", "platevac.casimir"),
    "cli-cold": ("platevac.algebra",),
}

# lattice-ladder: dense 2M x 2M matrices from 0.2 MB to 13 MB
PHYSICAL_SIZE = 8.0
MASS_PAIR = (math.pi, math.pi / 2.0)
CENTRAL_SIZES = (80, 160, 320, 640)
CLOSURE_SIZES = (8, 12, 16, 20, 24)
CLOSURE_SPACING = 0.5
CLOSURE_MASS = 1.0
CLOSURE_GATED = ("H,P1", "H,P2", "P1,P2", "J,H bulk")
DISPERSION_TOL = 1e-9
CLOSURE_TOL = 1e-10

# exact-cohomology
BATCHES_PER_ROUND = 10
BATCH_SIZE = 10
H2_SIZES = tuple(range(4, 13))

# plate-motion
L0, L1 = 1.0, 2.0
EVOLVE_N = (1, 2, 5, 10, 20)
EVOLVE_T = (2.0, 4.0, 8.0, 16.0)
EVOLVE_K = (0.0, 3.0)
SUDDEN_T = 1e-4
SUDDEN_TOL = 1e-3
NORMALIZATION_TOL = 1e-8  # the library's default Wronskian tolerance
FREQUENCY_TOL = 1e-12
CASIMIR_L = (0.5, 1.0, 2.0, 3.0)
CASIMIR_ROUTES = ("zeta", "abel_plana", "cutoff_extrapolation")
ZETA_TOL = 1e-12
CROSS_TOL = 1e-8  # the CLI's default --cross-tol

# cli-cold: the README examples, one fresh process each
CLI_COMMANDS = (
    ("cocycle", "--builtin", "poincare21", "--charges", "1,2,3"),
    ("cocycle", "--builtin", "abelian2", "--charges-raw", "P1,P2=1"),
    ("cocycle", "--algebra-file", "my_algebra.txt", "--cocycle-file", "my_cocycle.txt"),
    ("cocycle", "--builtin", "poincare21", "--selftest", "100", "--seed", "7"),
    ("algebra-verify",),
    ("algebra-verify", "--check", "poincare"),
    ("algebra-verify", "--demo", "contradiction"),
    ("casimir", "--L", "1"),
    ("casimir", "--L", "1", "--L", "2", "--diff"),
    ("adiabatic", "--L0", "1", "--L1", "2", "--T", "2,4,8", "--n", "1", "--k", "0"),
    ("adiabatic", "--L0", "1", "--L1", "2", "--sudden-check"),
)
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple
    slot: int = 0  # position in the unshuffled round: the same job class in every round


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    margin: float | None = None  # decades, for floating-point tolerance gates


@dataclass
class Context:
    """What a workload's jobs share: imported modules, fixed inputs, CLI state."""

    workload: str
    seed: int
    mods: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    tracer: object = None  # set while a traced pass runs


def exact_gate(name: str, ok: bool) -> Gate:
    return Gate(name, bool(ok))


def tol_gate(name: str, err: float, tol: float, scale: float = 1.0) -> Gate:
    """err < tol, with margin log10(tol / err) and err floored at 1e-16 * scale."""
    err = abs(err)
    if not math.isfinite(err):
        return Gate(name, False)
    return Gate(name, err < tol, math.log10(tol / max(err, 1e-16 * abs(scale))))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------------------
# job lists


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _basis_change(rng: random.Random, n: int) -> tuple:
    """Random invertible rational n x n matrix: unit lower times upper triangular."""
    lower = [[Fraction(int(i == j)) if j >= i else _small_rational(rng) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(0) if j < i else _small_rational(rng) for j in range(n)] for i in range(n)]
    for i in range(n):
        while upper[i][i] == 0:
            upper[i][i] = _small_rational(rng)
    return tuple(
        tuple(sum((lower[i][k] * upper[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _lattice_round(rng):
    return ([Job("central1d", (n,)) for n in CENTRAL_SIZES]
            + [Job("closure2d", (n,)) for n in CLOSURE_SIZES])


def _exact_round(rng):
    batches = [
        Job("coboundary_batch",
            tuple(tuple(_random_rational(rng) for _ in range(3)) for _ in range(BATCH_SIZE)))
        for _ in range(BATCHES_PER_ROUND)
    ]
    return (batches + [Job("abelian2_extension", ())]
            + [Job("h2_abelian", (n,)) for n in H2_SIZES]
            + [Job("h2_change_basis", (_basis_change(rng, 6),))])


def _plate_round(rng):
    evolve = [Job("evolve", (n, t, k)) for n in EVOLVE_N for t in EVOLVE_T for k in EVOLVE_K]
    sudden = Job("sudden", (rng.choice(EVOLVE_N), rng.choice(EVOLVE_K)))
    return evolve + [sudden] + [Job("casimir", (length,)) for length in CASIMIR_L]


def _cli_round(rng):
    return [Job("cli", command) for command in CLI_COMMANDS]


_ROUNDS = {
    "lattice-ladder": _lattice_round,
    "exact-cohomology": _exact_round,
    "plate-motion": _plate_round,
    "cli-cold": _cli_round,
}


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    """Job list of round `index`; the same (workload, seed, index) gives the same list."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = [replace(job, slot=i) for i, job in enumerate(_ROUNDS[workload](rng))]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, root: Path, work: Path) -> tuple[Context, list[Job], float]:
    """Import what the workload needs and make its inputs.

    Returns the context, the first round and the set-up time, measured from
    just before the first platevac import to the first job being ready.
    """
    t0 = time.perf_counter()
    ctx = Context(workload, seed)
    for name in MODULES[workload]:
        ctx.mods[name.rsplit(".", 1)[1]] = importlib.import_module(name)
    if workload == "exact-cohomology":
        alg = ctx.mods["algebra"]
        ctx.data["poincare"] = alg.build_poincare_2plus1()
        ctx.data["h2_reference"] = alg.h2_dimension(ctx.data["poincare"])
    elif workload == "cli-cold":
        _cli_setup(ctx, root, work)
    first = make_round(workload, seed, 0)
    return ctx, first, time.perf_counter() - t0


def _cli_setup(ctx: Context, root: Path, work: Path) -> None:
    alg = ctx.mods["algebra"]
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    rng = random.Random(f"cli-cold/{ctx.seed}/files")
    alg.save_algebra(alg.build_poincare_2plus1(), inputs / "my_algebra.txt")
    charges = [_random_rational(rng) for _ in range(3)]
    alg.save_cocycle(alg.shift_cocycle(*charges), inputs / "my_cocycle.txt")
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ctx.data.update(inputs=inputs, work=work, env=env, references={})


# ---------------------------------------------------------------------------
# layer calls


def run_job(ctx: Context, job: Job):
    """Make the job's layer call and return its result."""
    return _RUNNERS[job.kind](ctx, *job.params)


def _run_central1d(ctx, n):
    lat = ctx.mods["lattice"]
    geom = lat.LatticeGeometry(1, n, PHYSICAL_SIZE / n, "open")
    return lat.verify_central_relation(geom, MASS_PAIR)


def _run_closure2d(ctx, n):
    lat = ctx.mods["lattice"]
    geom = lat.LatticeGeometry(2, n, CLOSURE_SPACING, "periodic")
    return lat.verify_poincare_closure(geom, CLOSURE_MASS)


def _run_coboundary_batch(ctx, *triples):
    alg = ctx.mods["algebra"]
    out = []
    for triple in triples:
        cocycle = alg.shift_cocycle(*triple)
        res = alg.coboundary_solve(ctx.data["poincare"], cocycle)
        alpha = None if res.certificate is None else res.certificate.alpha
        out.append((cocycle.c, res.feasible, alpha, res.kernel_dim, res.rank_deficit))
    return out


def _run_abelian2_extension(ctx):
    alg = ctx.mods["algebra"]
    algebra = alg.abelian_algebra(2)
    cocycle = alg.TwoCocycle.from_entries(algebra.labels, {("P1", "P2"): 1})
    res = alg.coboundary_solve(algebra, cocycle)
    return (res.feasible, res.certificate, res.kernel_dim, res.rank_deficit)


def _run_h2_abelian(ctx, n):
    alg = ctx.mods["algebra"]
    return alg.h2_dimension(alg.abelian_algebra(n))


def _run_h2_change_basis(ctx, p_cols):
    alg = ctx.mods["algebra"]
    return alg.h2_dimension(alg.change_basis(ctx.data["poincare"], p_cols))


def _bogoliubov(res):
    return (res.omega_in, res.omega_out, res.alpha, res.beta, res.wronskian_drift)


def _run_evolve(ctx, n, t, k):
    ad = ctx.mods["adiabatic"]
    return _bogoliubov(ad.evolve_mode(ad.Schedule(L0, L1, t), n, k))


def _run_sudden(ctx, n, k):
    ad = ctx.mods["adiabatic"]
    return _bogoliubov(ad.evolve_mode(ad.Schedule(L0, L1, SUDDEN_T), n, k))


def _run_casimir(ctx, length):
    cas = ctx.mods["casimir"]
    out = []
    for method in CASIMIR_ROUTES:
        res = cas.casimir_energy_per_area(length, method)
        out.append((res.value, res.error_estimate))
    return tuple(out)


@dataclass(frozen=True)
class CliOutcome:
    returncode: int
    stdout: str
    files: tuple  # (name, bytes) pairs, sorted by name
    stderr: str = field(default="", compare=False, repr=False)


def _run_cli(ctx, *command):
    """Run one README command in a fresh interpreter with its own --outdir."""
    data, tracer = ctx.data, ctx.tracer
    outdir = tempfile.mkdtemp(prefix="out-", dir=data["work"])
    spans_path = Path(outdir + ".spans.json")
    argv = [*command, "--outdir", outdir]
    if tracer is None:
        cmd = [sys.executable, "-m", "platevac.cli", *argv]
    else:
        child = Path(__file__).with_name("cli_child.py")
        cmd = [sys.executable, str(child), str(spans_path), *argv]
    try:
        proc = subprocess.Popen(cmd, cwd=data["inputs"], env=data["env"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        files = tuple(sorted((p.name, p.read_bytes()) for p in Path(outdir).iterdir()))
        if tracer is not None and spans_path.exists():
            record = json.loads(spans_path.read_text())
            tracer.adopt(record["spans"])
            tracer.counters.update(record["counters"])
            tracer.counters["cli.output_bytes"] += sum(len(b) for _, b in files)
        return CliOutcome(proc.returncode, stdout.replace(outdir, "<outdir>"), files, stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)


_RUNNERS = {
    "central1d": _run_central1d,
    "closure2d": _run_closure2d,
    "coboundary_batch": _run_coboundary_batch,
    "abelian2_extension": _run_abelian2_extension,
    "h2_abelian": _run_h2_abelian,
    "h2_change_basis": _run_h2_change_basis,
    "evolve": _run_evolve,
    "sudden": _run_sudden,
    "casimir": _run_casimir,
    "cli": _run_cli,
}


# ---------------------------------------------------------------------------
# oracles


def free_end_ground_energy(n: int, spacing: float, mass: float) -> float:
    """1/2 sum_k omega_k of the open chain with free (Neumann) ends.

    The forward-difference chain Laplacian has eigenvalues
    (4/a^2) sin^2(pi k / 2N), k = 0..N-1, so omega_k^2 = m^2 + that.
    """
    return 0.5 * math.fsum(
        math.sqrt(mass * mass + (2.0 / spacing * math.sin(math.pi * k / (2 * n))) ** 2)
        for k in range(n)
    )


def plate_energy_per_area(length: float) -> float:
    """-pi^2 / (1440 L^3), the Dirichlet-plate vacuum energy per unit area."""
    return -(math.pi**2) / (1440.0 * length**3)


def mode_omega(n: int, k: float, length: float) -> float:
    return math.sqrt(k * k + (n * math.pi / length) ** 2)


def abelian_h2(n: int) -> int:
    """Every antisymmetric form on an abelian algebra is a cocycle, none a coboundary."""
    return n * (n - 1) // 2


def check_job(ctx: Context, job: Job, result) -> list[Gate]:
    """The job's oracle gates; the job passes when every gate is ok."""
    return _CHECKS[job.kind](ctx, result, *job.params)


def _check_central1d(ctx, report, n):
    gates = []
    for row, mass in zip(report["per_label"], MASS_PAIR):
        expected = free_end_ground_energy(n, PHYSICAL_SIZE / n, mass)
        err = max(rel_err(row["ground_energy_trace"], expected),
                  rel_err(row["ground_energy_eigensum"], expected),
                  rel_err(-row["scalar_slot"], expected))
        gates.append(tol_gate(f"dispersion L{row['L_label']}", err, DISPERSION_TOL))
    gates.append(exact_gate("labels", len(report["per_label"]) == 2))
    return gates


def _check_closure2d(ctx, residuals, n):
    return [tol_gate(pair, residuals[pair], CLOSURE_TOL) for pair in CLOSURE_GATED]


def _check_coboundary_batch(ctx, results, *triples):
    f = ctx.data["poincare"].f
    dim = len(f)
    gates = []
    for c, feasible, alpha, kernel_dim, deficit in results:
        ok = feasible and alpha is not None and kernel_dim == 0 and deficit == 0
        if ok:
            # exact re-substitution: (d alpha)[a][b] = sum_e f[e][a][b] alpha[e]
            ok = all(
                sum((f[e][a][b] * alpha[e] for e in range(dim)), Fraction(0)) == c[a][b]
                for a in range(dim) for b in range(a + 1, dim)
            )
        gates.append(exact_gate("certificate", ok))
    gates.append(exact_gate("batch size", len(results) == len(triples)))
    return gates


def _check_abelian2_extension(ctx, result):
    feasible, certificate, kernel_dim, deficit = result
    return [exact_gate("infeasible", not feasible and certificate is None),
            exact_gate("rank deficit", deficit == 1),
            exact_gate("kernel", kernel_dim == 2)]


def _check_h2_abelian(ctx, dim, n):
    return [exact_gate("h2", dim == abelian_h2(n))]


def _check_h2_change_basis(ctx, dim, p_cols):
    return [exact_gate("h2 basis invariance", dim == ctx.data["h2_reference"])]


def _check_bogoliubov(result, n, k):
    w_in, w_out, alpha, beta, _ = result
    return [tol_gate("omega_in", rel_err(w_in, mode_omega(n, k, L0)), FREQUENCY_TOL),
            tol_gate("omega_out", rel_err(w_out, mode_omega(n, k, L1)), FREQUENCY_TOL),
            tol_gate("normalization", abs(alpha) ** 2 - abs(beta) ** 2 - 1.0, NORMALIZATION_TOL)]


def _check_evolve(ctx, result, n, t, k):
    return _check_bogoliubov(result, n, k)


def _check_sudden(ctx, result, n, k):
    w_in, w_out = mode_omega(n, k, L0), mode_omega(n, k, L1)
    closed = abs(w_in - w_out) / (2.0 * math.sqrt(w_in * w_out))
    return _check_bogoliubov(result, n, k) + [
        tol_gate("sudden limit", rel_err(abs(result[3]), closed), SUDDEN_TOL)]


def _check_casimir(ctx, result, length):
    (zeta, zeta_err), (contour, _), (cutoff, cutoff_err) = result
    exact = plate_energy_per_area(length)
    return [tol_gate("zeta vs closed form", rel_err(zeta, exact), ZETA_TOL),
            tol_gate("contour vs zeta", rel_err(contour, zeta), CROSS_TOL),
            tol_gate("cutoff vs error budget", cutoff - exact, zeta_err + cutoff_err,
                     scale=exact)]


def _check_cli(ctx, outcome, *command):
    references = ctx.data["references"]
    reference = references.setdefault(command, outcome)
    status = "exit code" if outcome.returncode == 0 else \
        f"exit code {outcome.returncode}: {outcome.stderr.strip()[-300:]}"
    return [exact_gate(status, outcome.returncode == 0),
            exact_gate("byte-identical outputs", outcome == reference)]


_CHECKS = {
    "central1d": _check_central1d,
    "closure2d": _check_closure2d,
    "coboundary_batch": _check_coboundary_batch,
    "abelian2_extension": _check_abelian2_extension,
    "h2_abelian": _check_h2_abelian,
    "h2_change_basis": _check_h2_change_basis,
    "evolve": _check_evolve,
    "sudden": _check_sudden,
    "casimir": _check_casimir,
    "cli": _check_cli,
}
