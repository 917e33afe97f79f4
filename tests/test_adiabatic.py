"""Mode evolution through the smooth separation schedule."""

import cmath
import math

import numpy as np
import pytest

from platevac import _integrate
from platevac import adiabatic as ad


# ---------------------------------------------------------------------------
# schedule


def test_schedule_eval_midpoint_and_endpoints():
    s = ad.Schedule(1.0, 2.0, 3.0)
    assert ad.schedule_eval(s, 0.0) == pytest.approx(1.5, abs=1e-15)
    assert ad.schedule_eval(s, -3.0) == 1.0  # exact, no tan evaluation
    assert ad.schedule_eval(s, 3.0) == 2.0
    assert ad.schedule_eval(s, -100.0) == 1.0
    assert ad.schedule_eval(s, 100.0) == 2.0


def test_schedule_eval_quarter_point():
    s = ad.Schedule(1.0, 2.0, 3.0)
    want = 1.5 + 0.5 * math.tanh(1.0)  # s = tanh(tan(pi/4))
    assert ad.schedule_eval(s, 1.5) == pytest.approx(want, abs=1e-15)


def test_schedule_monotone_and_continuous_near_edges():
    s = ad.Schedule(1.0, 2.0, 2.0)
    ts = np.linspace(-2.0, 2.0, 4001)
    ls = [ad.schedule_eval(s, t) for t in ts]
    assert all(b >= a for a, b in zip(ls, ls[1:]))
    assert ls[0] == 1.0 and ls[-1] == 2.0
    assert abs(ad.schedule_eval(s, 2.0 * (1.0 - 1e-9)) - 2.0) < 1e-12


def test_schedule_validation_and_reversal():
    with pytest.raises(ValueError):
        ad.Schedule(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ad.Schedule(1.0, 1.0, -2.0)
    # the reversed schedule is the time mirror: L'(t) = L(-t)
    s, r = ad.Schedule(1.0, 2.0, 5.0), ad.Schedule(2.0, 1.0, 5.0)
    for t in (-6.0, -5.0, -1.3, 0.0, 2.7, 5.0):
        assert ad.schedule_eval(r, t) == pytest.approx(ad.schedule_eval(s, -t), abs=1e-15)


def test_mode_frequency():
    assert ad.mode_frequency(1, 0.0, 1.0) == pytest.approx(math.pi, abs=1e-15)
    assert ad.mode_frequency(2, 0.0, 2.0) == pytest.approx(math.pi, abs=1e-15)
    assert ad.mode_frequency(1, 3.0, 1.0) == pytest.approx(math.hypot(3.0, math.pi))
    with pytest.raises(ValueError):
        ad.mode_frequency(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ad.mode_frequency(1, -1.0, 1.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="transverse momentum"):
            ad.mode_frequency(1, k, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        ad.mode_frequency(1, 0.0, 1e-310)
    with pytest.raises(ValueError, match="overflows"):
        ad.mode_frequency(10**400, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ad.mode_frequency(1, 0.0, math.inf)  # a zero frequency
    with pytest.raises(ValueError, match="underflows"):
        ad.mode_frequency(1, 0.0, 1e300)


# ---------------------------------------------------------------------------
# single evolutions


def test_trivial_schedule_exact_phase_convention():
    r = ad.evolve_mode(ad.Schedule(1.3, 1.3, 2.0), 1, 0.5)
    assert r.alpha == 1.0 + 0.0j
    assert r.beta == 0.0 + 0.0j
    assert r.particle_number == 0.0
    assert r.omega_out * (r.particle_number + 0.5) == 0.5 * r.omega_out
    assert r.wronskian_drift == 0.0


def test_sudden_limit_matches_closed_form():
    want = math.sqrt(2.0) / 4.0
    assert ad.sudden_beta_magnitude(1, 0.0, 1.0, 2.0) == pytest.approx(want, abs=1e-15)
    r = ad.evolve_mode(ad.Schedule(1.0, 2.0, 1e-4), 1, 0.0)
    assert abs(abs(r.beta) - want) <= 1e-3 * want


def test_sudden_limit_convergence_rate():
    # deviation must shrink at least first order in T (this schedule does better)
    want = math.sqrt(2.0) / 4.0
    ts = [4e-3, 2e-3, 1e-3]
    devs = [
        abs(abs(ad.evolve_mode(ad.Schedule(1.0, 2.0, t), 1, 0.0).beta) - want)
        for t in ts
    ]
    slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
    assert slope >= 0.9


def test_normalization_invariant_randomized():
    rng = np.random.default_rng(19)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        k = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.1, 20.0))
        r = ad.evolve_mode(ad.Schedule(1.0, 2.0, t), n, k)
        assert abs(abs(r.alpha) ** 2 - abs(r.beta) ** 2 - 1.0) <= 1e-8
        assert r.wronskian_drift <= 1e-8
        assert r.particle_number == abs(r.beta) ** 2


def test_time_reversal_symmetry():
    fwd = ad.evolve_mode(ad.Schedule(1.0, 2.0, 2.0), 1, 0.3)
    rev = ad.evolve_mode(ad.Schedule(2.0, 1.0, 2.0), 1, 0.3)
    assert abs(abs(fwd.beta) - abs(rev.beta)) <= 1e-8


def test_evolve_validation(monkeypatch):
    s = ad.Schedule(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ad.evolve_mode(s, 0)
    # the integrator's own drift is rounding, about 1e-15 here: report a
    # drift just above the bound so the gate trips on every platform
    integrate = ad.solve_ivp
    def drifting(*args, **kwargs):
        sol = integrate(*args, **kwargs)
        return type(sol)(sol.y, sol.t, sol.nfev, drift=2e-14)

    monkeypatch.setattr(ad, "solve_ivp", drifting)
    with pytest.raises(ad.WronskianViolation):
        ad.evolve_mode(s, 1, wronskian_tol=1e-14)


def test_step_cap_bounds_the_work(monkeypatch):
    # 8 steps per period over 2T = 2e6 at omega = pi: 8e6 steps, over the cap
    with pytest.raises(ValueError, match="steps per sweep"):
        ad.evolve_mode(ad.Schedule(1.0, 2.0, 1e6), 1)
    # a doubling that reaches the cap fails instead of running on
    monkeypatch.setattr(_integrate, "MAX_STEPS", 64)
    with pytest.raises(ad.IntegrationFailure, match="64 steps per sweep"):
        ad.evolve_mode(ad.Schedule(1.0, 2.0, 2.0), 1)


def _initial_state(schedule, n, k):
    """(f, f') at t = -T: the positive-frequency mode of the in-vacuum."""
    w_in = ad.mode_frequency(n, k, schedule.L0)
    f0 = cmath.exp(1j * w_in * schedule.T) / math.sqrt(2.0 * w_in)
    return f0, -1j * w_in * f0


def _bogoliubov(schedule, n, k, f1, g1):
    """(alpha, beta) of the end state (f1, g1) at t = T."""
    w_out = ad.mode_frequency(n, k, schedule.L1)
    root = math.sqrt(0.5 * w_out)
    return (root * (f1 + 1j * g1 / w_out) * cmath.exp(1j * w_out * schedule.T),
            root * (f1 - 1j * g1 / w_out) * cmath.exp(-1j * w_out * schedule.T))


def _dop853_bogoliubov(schedule, n, k):
    """(alpha, beta) from scipy's DOP853 on the real 4-vector (f, f'), rtol 1e-12."""
    from scipy.integrate import solve_ivp  # here, so the scipy-free oracles run without it

    w_in = ad.mode_frequency(n, k, schedule.L0)
    w_out = ad.mode_frequency(n, k, schedule.L1)
    f0, g0 = _initial_state(schedule, n, k)

    def rhs(t, y):
        w2 = k * k + (n * math.pi / ad.schedule_eval(schedule, t)) ** 2
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    sol = solve_ivp(rhs, (-schedule.T, schedule.T), [f0.real, f0.imag, g0.real, g0.imag],
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    max_step=0.5 * math.pi / max(w_in, w_out))
    f1, g1 = complex(sol.y[0, -1], sol.y[1, -1]), complex(sol.y[2, -1], sol.y[3, -1])
    return _bogoliubov(schedule, n, k, f1, g1)


@pytest.mark.parametrize("n,k,t", [
    (1, 0.0, 1e-4), (1, 0.0, 2.0), (1, 0.0, 4.0), (1, 0.0, 8.0), (1, 0.5, 2.0),
    (1, 3.0, 8.0), (2, 3.0, 0.3), (5, 3.0, 4.0), (20, 0.0, 1e-4), (20, 3.0, 2.0),
    (20, 3.0, 16.0),
])
def test_magnus_matches_dop853(n, k, t):
    schedule = ad.Schedule(1.0, 2.0, t)
    r = ad.evolve_mode(schedule, n, k)
    alpha, beta = _dop853_bogoliubov(schedule, n, k)
    assert abs(r.beta - beta) <= 1e-9
    assert abs(r.alpha - alpha) <= 1e-9
    assert r.wronskian_drift <= 1e-12  # every step has determinant 1


_M4_GAUSS = math.sqrt(3.0) / 6.0  # Gauss points at 1/2 -+ sqrt(3)/6 of a step
_M4_COMMUTATOR = math.sqrt(3.0) / 12.0


def _magnus4_sweep(omega_sq, t0, h, steps, f, g):
    """`steps` Magnus-4 steps (Iserles & Norsett 1999) of size h from (f, g) at t0.

    A fourth-order oracle for `_integrate._sweep`, with the same arguments
    and return.
    """
    w0 = _integrate._wronskian(f, g)
    drift = 0.0
    early, late = (0.5 - _M4_GAUSS) * h, (0.5 + _M4_GAUSS) * h
    hh = h * h
    for i in range(steps):
        t = t0 + i * h
        a1 = omega_sq(t + early)
        a2 = omega_sq(t + late)
        # Omega = [[p, h], [r, -p]]: h (A1 + A2)/2 plus sqrt(3) h^2/12 [A2, A1]
        p = _M4_COMMUTATOR * hh * (a2 - a1)
        r = -0.5 * h * (a1 + a2)
        theta_sq = -(p * p + h * r)  # Omega^2 = -theta^2 I
        if theta_sq > 0.0:
            theta = math.sqrt(theta_sq)
            c, s = math.cos(theta), math.sin(theta) / theta
        elif theta_sq < 0.0:
            theta = math.sqrt(-theta_sq)
            c, s = math.cosh(theta), math.sinh(theta) / theta
        else:
            c, s = 1.0, 1.0
        # exp(Omega) = c I + s Omega, determinant c^2 + s^2 theta^2 = 1
        f, g = (c + s * p) * f + s * h * g, s * r * f + (c - s * p) * g
        d = abs(_integrate._wronskian(f, g) - w0)
        if d > drift:
            drift = d
    return f, g, drift


def _fixed_grid(sweep, schedule, n, k, steps):
    """(alpha, beta) from `steps` equal steps of `sweep` across [-T, T]."""
    def omega_sq(t):
        return k * k + (n * math.pi / ad.schedule_eval(schedule, t)) ** 2

    f1, g1, _ = sweep(omega_sq, -schedule.T, 2.0 * schedule.T / steps, steps,
                      *_initial_state(schedule, n, k))
    return _bogoliubov(schedule, n, k, f1, g1)


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_magnus6_matches_magnus4_oracle_on_fixed_grids(t):
    # 512 steps per period of omega_in = pi: the grid the Magnus-4 doubling
    # settled on for the README scan
    schedule = ad.Schedule(1.0, 2.0, t)
    steps = 512 * int(t)
    new = _fixed_grid(_integrate._sweep, schedule, 1, 0.0, steps)
    old = _fixed_grid(_magnus4_sweep, schedule, 1, 0.0, steps)
    assert abs(new[0] - old[0]) <= 1e-10
    assert abs(new[1] - old[1]) <= 1e-10


def test_magnus6_is_sixth_order():
    # 16, 32 and 64 steps per period at T = 2 against 256 per period; a wrong
    # commutator coefficient leaves a fourth-order step, whose error falls
    # about 16x per halving like the oracle's
    schedule, n = ad.Schedule(1.0, 2.0, 2.0), 32
    ref = _fixed_grid(_integrate._sweep, schedule, 1, 0.0, 16 * n)

    def ratios(sweep):
        errors = []
        for steps in (n, 2 * n, 4 * n):
            alpha, beta = _fixed_grid(sweep, schedule, 1, 0.0, steps)
            errors.append(max(abs(alpha - ref[0]), abs(beta - ref[1])))
        return errors[0] / errors[1], errors[1] / errors[2]

    assert min(ratios(_integrate._sweep)) >= 50.0
    assert all(12.0 <= r <= 20.0 for r in ratios(_magnus4_sweep))


@pytest.mark.parametrize("rho", [8.0, 4.0, 2.0, 1.0, 0.5])
def test_integrator_matches_tanh_closed_form(rho):
    # omega^2(t) = A + B tanh(rho t) from omega_in^2 = A - B to omega_out^2 = A + B:
    # |beta|^2 = sinh^2(pi w_minus / rho) / (sinh(pi omega_in / rho) sinh(pi omega_out / rho)),
    # w_minus = (omega_out - omega_in) / 2 (Bernard & Duncan, Ann. Phys. 107 (1977) 201).
    # The schedule gives only the README modes omega_in = pi, omega_out = pi/2 and the
    # window: at -+T = -+40 / rho, tanh is -+1 to rounding
    schedule = ad.Schedule(1.0, 2.0, 40.0 / rho)
    w_in, w_out = math.pi, math.pi / 2
    a, b = 0.5 * (w_out**2 + w_in**2), 0.5 * (w_out**2 - w_in**2)
    first_step = 2.0 * math.pi / (ad._STEPS_PER_PERIOD * max(w_in, w_out))  # as evolve_mode
    sol = _integrate.solve_ivp(lambda t: a + b * math.tanh(rho * t), (-schedule.T, schedule.T),
                               _initial_state(schedule, 1, 0.0), first_step)
    beta = _bogoliubov(schedule, 1, 0.0, *sol.y)[1]
    x = math.pi / rho
    exact = math.sinh(x * (w_out - w_in) / 2) ** 2 / (math.sinh(x * w_in) * math.sinh(x * w_out))
    assert abs(abs(beta) ** 2 - exact) <= 1e-8 * exact


def test_integration_failure_is_runtime_error():
    err = ad.IntegrationFailure("stopped")
    assert isinstance(err, RuntimeError)


# ---------------------------------------------------------------------------
# duration scans


def test_scan_decreasing_with_steep_tail():
    scan = ad.adiabatic_scan(1.0, 2.0, [2.0, 4.0, 8.0])
    numbers = [r.particle_number for r in scan.rows]
    assert numbers[0] > numbers[1] > numbers[2] > 0.0
    assert 1e-4 < numbers[0] < 1e-3
    assert scan.decay_exponent >= 4.0
    # |beta|^2 crosses 1e-6 between T=4 and T=8
    assert 4.0 < scan.threshold_half_duration < 8.0
    assert all(r.wronskian_drift <= 1e-8 for r in scan.rows)


def test_scan_energy_final_approaches_half_omega_out():
    scan = ad.adiabatic_scan(1.0, 2.0, [2.0, 4.0, 8.0])
    w_out = scan.rows[-1].omega_out
    gaps = [abs(r.omega_out * (r.particle_number + 0.5) - 0.5 * w_out) for r in scan.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6 * w_out


def test_scan_equal_lengths_all_zero():
    scan = ad.adiabatic_scan(1.5, 1.5, [2.0, 4.0, 8.0])
    assert [r.particle_number for r in scan.rows] == [0.0, 0.0, 0.0]
    assert scan.threshold_half_duration == 2.0  # below target from the start


def test_scan_extrapolates_beyond_range():
    scan = ad.adiabatic_scan(1.0, 2.0, [0.3, 0.6, 1.2])  # |beta|^2 stays above 1e-6
    assert scan.threshold_half_duration > 1.2
    assert math.isfinite(scan.threshold_half_duration)


def test_scan_threshold_past_float_range_is_inf():
    # |beta|^2 barely falls over near-sudden durations: the fitted law reaches
    # 1e-6 only past float range
    scan = ad.adiabatic_scan(1.0, 2.0, [0.01, 0.02, 0.04])
    assert scan.threshold_half_duration == math.inf


def test_scan_validation():
    with pytest.raises(ValueError):
        ad.adiabatic_scan(1.0, 2.0, [2.0, 4.0])
    with pytest.raises(ValueError):
        ad.adiabatic_scan(1.0, 2.0, [2.0, 8.0, 4.0])


def test_scan_quality_gate(monkeypatch):
    class _Stub:
        def __init__(self, p):
            self.particle_number = p

    values = iter([1e-3, 1e-4, 2e-4])  # rises on the final pair

    def fake_evolve(schedule, n, k, **kwargs):
        return _Stub(next(values))

    monkeypatch.setattr(ad, "evolve_mode", fake_evolve)
    with pytest.raises(ad.ScanQualityError):
        ad.adiabatic_scan(1.0, 2.0, [2.0, 4.0, 8.0])
