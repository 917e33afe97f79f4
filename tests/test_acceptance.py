"""Acceptance suite: the nine headline checks, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each criterion also carries its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from platevac import adiabatic as ad
from platevac import algebra as alg
from platevac import casimir as cas
from platevac import lattice as lat


def _verdict(number: int, name: str, ok: bool, elapsed: float, budget: float):
    outcome = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[criterion {number}] {name}: {outcome} ({elapsed:.2f} s, budget {budget:g} s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget} s: {elapsed:.2f} s"


def test_criterion_1_exact_cocycle_elimination():
    start = time.perf_counter()
    algebra = alg.build_poincare_2plus1()
    rng = random.Random(401)
    ok = True
    for _ in range(100):
        charges = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)]
        cocycle = alg.shift_cocycle(*charges)
        if alg.cocycle_check(algebra, cocycle) != 0:
            ok = False
            break
        solved = alg.coboundary_solve(algebra, cocycle)
        if not solved.feasible:
            ok = False
            break
        if solved.certificate.induced_cocycle(algebra).c != cocycle.c:
            ok = False
            break
    _verdict(1, "charge shifts are exact coboundaries", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_nontrivial_extension_detected():
    start = time.perf_counter()
    algebra = alg.abelian_algebra(2)
    cocycle = alg.TwoCocycle.from_entries(algebra.labels, {("P1", "P2"): Fraction(1)})
    solved = alg.coboundary_solve(algebra, cocycle)
    ok = (not solved.feasible) and alg.h2_dimension(algebra) == 1
    _verdict(2, "rank-2 abelian extension is not removable", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_central_relation_scalar_and_convergence():
    start = time.perf_counter()
    spacings = [0.2, 0.1, 0.05]
    masses = (math.pi, math.pi / 2.0)
    sweep = lat.central_relation_convergence(8.0, spacings, masses)

    ok = True
    for spacing, report in zip(sweep["spacings"], sweep["reports"]):
        n = round(8.0 / spacing)
        for row in report["per_label"]:
            mass = row["mass"]
            # independent oracle: free-end chain dispersion, no shared code path
            freqs = [
                math.sqrt(mass**2 + (4.0 / spacing**2)
                          * math.sin(math.pi * k / (2 * n)) ** 2)
                for k in range(n)
            ]
            energy = 0.5 * math.fsum(freqs)
            if abs(row["scalar_slot"] - (-energy)) > 1e-9 * energy:
                ok = False
    if not all(order >= 1.9 for order in sweep["bulk_orders"]):
        ok = False
    _verdict(3, "boost-translation bracket gives H - E(L)", ok, time.perf_counter() - start, 60.0)


def _dense_block(x):
    """A dense M x M matrix as a DiagonalBlock on all its 2M - 1 diagonals.

    Every diagonal is kept, so x must have no all-zero one; a random matrix has none.
    """
    m = x.shape[0]
    offsets = np.arange(1 - m, m)
    cols = np.arange(m) + offsets[:, None]
    data = np.where((cols >= 0) & (cols < m), x[np.arange(m), np.clip(cols, 0, m - 1)], 0.0)
    return lat.DiagonalBlock(offsets, data)


def test_criterion_4_normal_ordering_shifts_only_the_scalar():
    start = time.perf_counter()
    geom = lat.LatticeGeometry(1, 6, 0.7, boundary="open")
    basis = lat.build_mode_basis(geom, 1.3)
    rng = np.random.default_rng(353)
    m = geom.n_sites

    ok = True
    for _ in range(50):
        def rand_obs():  # the symmetric part of a random dense 2M x 2M quad
            q = rng.standard_normal((2 * m, 2 * m))
            phi, pi = (0.5 * (x + x.T) for x in (q[:m, :m], q[m:, m:]))
            coupling = 0.5 * (q[m:, :m] + q[:m, m:].T)
            return lat.QuadraticObservable(
                m, *map(_dense_block, (phi, coupling, pi)), float(rng.standard_normal()),
            )
        a, b = rand_obs(), rand_obs()
        plain = lat.commutator(a, b)
        ordered = lat.commutator(lat.normal_ordered(a, basis), lat.normal_ordered(b, basis))
        reordered = lat.normal_ordered(plain, basis)
        if not np.array_equal(ordered.quad, reordered.quad):
            ok = False
        shift = ordered.scalar - reordered.scalar
        expect = lat.vacuum_expectation(plain, basis)
        if abs(shift - expect) > 1e-10 * max(1.0, abs(expect)):
            ok = False
    _verdict(4, "ordering changes only the scalar slot", ok, time.perf_counter() - start, 10.0)


def test_criterion_5_vacuum_energy_strictly_positive():
    start = time.perf_counter()
    geom = lat.LatticeGeometry(1, 16, 0.5, boundary="periodic")
    demo = lat.contradiction_demo(geom, 1.0)
    reported = demo["vev_trace_route"]
    mode_sum = demo["ground_energy"]
    bound = demo["lower_bound"]
    ok = (
        abs(reported - mode_sum) <= 1e-12 * mode_sum
        and reported >= bound
        and bound == 0.5 * demo["n_modes"] * 1.0
        and bound > 0.0
    )
    _verdict(5, "vacuum energy beats the M*m/2 bound", ok, time.perf_counter() - start, 1.0)


def test_criterion_6_dual_route_plate_energy():
    start = time.perf_counter()
    ok = True
    for length in (0.5, 1.0, 2.0):
        zeta = cas.casimir_energy_per_area(length, "zeta")
        contour = cas.casimir_energy_per_area(length, "abel_plana")
        analytic = -(math.pi**2) / (1440.0 * length**3)
        if abs(zeta.value - analytic) > 1e-14 * abs(analytic):
            ok = False
        if abs(zeta.value - contour.value) > 1e-8 * abs(zeta.value):
            ok = False

    # cutoff-subtraction oracle for the per-mode density at m = 1
    def damped(mass, lam):
        val, _ = quad(
            lambda k: 0.5 * math.sqrt(k * k + mass * mass)
            * math.exp(-math.sqrt(k * k + mass * mass) / lam) * k,
            0.0, math.inf, limit=200,
        )
        return val / (2.0 * math.pi)

    lams = [20.0, 40.0, 80.0, 160.0]
    subtracted = [damped(1.0, lam) - damped(0.0, lam) for lam in lams]
    extrapolated = np.polyfit([1.0 / lam for lam in lams], subtracted, 3)[-1]
    claimed = cas.mode_energy_density(1.0)
    if abs(extrapolated - claimed) > 1e-6 * abs(claimed):
        ok = False
    _verdict(6, "zeta, contour, and cutoff routes agree", ok, time.perf_counter() - start, 10.0)


def test_criterion_7_central_charge_difference():
    start = time.perf_counter()
    e1, e2 = (cas.casimir_energy_per_area(length).value for length in (1.0, 2.0))
    got = e1 - e2
    want = -(math.pi**2 / 1440.0) * (1.0 - 1.0 / 8.0)
    ok = abs(got - want) <= 1e-10 * abs(want) and e2 - e1 == -got
    _verdict(7, "plate-energy difference matches analytic value", ok, time.perf_counter() - start, 1.0)


def test_criterion_8_adiabatic_decay_and_sudden_limit():
    start = time.perf_counter()
    scan = ad.adiabatic_scan(1.0, 2.0, [2.0, 4.0, 8.0], n=1, k=0.0)
    numbers = [r.particle_number for r in scan.rows]
    ok = (
        numbers[0] > numbers[1] > numbers[2]
        and scan.decay_exponent >= 4.0
        and all(r.wronskian_drift <= 1e-8 for r in scan.rows)
    )
    sudden = ad.sudden_beta_magnitude(1, 0.0, 1.0, 2.0)
    run = ad.evolve_mode(ad.Schedule(1.0, 2.0, 1e-4), 1, 0.0)
    if abs(abs(run.beta) - sudden) > 1e-3 * sudden:
        ok = False
    if run.wronskian_drift > 1e-8:
        ok = False
    _verdict(8, "slow schedules suppress particle production", ok, time.perf_counter() - start, 30.0)


def test_criterion_9_translation_rotation_closure():
    start = time.perf_counter()
    geom = lat.LatticeGeometry(2, 16, 0.5, boundary="periodic")
    residuals = lat.verify_poincare_closure(geom, 1.0)
    # [J,H] is gated in the bulk window; the wrap-around seam of the torus
    # coordinate is excluded (the full-lattice norm is reported alongside).
    gated = ("H,P1", "H,P2", "P1,P2", "J,H bulk")
    ok = all(residuals[pair] < 1e-10 for pair in gated)
    _verdict(9, "space-time generators close on the torus", ok, time.perf_counter() - start, 30.0)
