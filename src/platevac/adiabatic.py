"""Mode evolution through a smooth plate-separation schedule.

The plate distance follows a smooth interpolation between two static
configurations,

    L(t) = L0                                   for t <= -T,
    L(t) = (1 - s)/2 * L0 + (1 + s)/2 * L1      for -T < t < T,
    L(t) = L1                                   for t >= T,

with s = tanh(tan(pi t / (2 T))).  Every derivative of L vanishes at
t = +-T, so the schedule joins the static regions infinitely smoothly.

Each transverse-momentum / standing-wave mode is an oscillator with
time-dependent frequency omega(t)^2 = k^2 + (n pi / L(t))^2.  The complex
mode function solves f'' + omega(t)^2 f = 0 with positive-frequency data
in the far past; matching onto the out-basis at t = T yields Bogoliubov
coefficients (alpha, beta).  |beta|^2 is the number of quanta produced in
the mode, and omega_out * |beta|^2 is the excess energy over the final
vacuum, i.e. the failure of the evolution to be adiabatic.

Conventions:
    f(-T) = exp(+i omega_in T) / sqrt(2 omega_in),  f'(-T) = -i omega_in f(-T)
    f(T)  = (alpha exp(-i omega_out T) + beta exp(+i omega_out T)) / sqrt(2 omega_out)
    Wronskian W = i (conj(f) f' - conj(f') f) = 1, conserved.

The integrator (`solve_ivp` of the private `_integrate` module, standard
library only) is sixth-order Magnus (Blanes, Casas & Ros 2000): each step
samples omega^2 at three Gauss points and applies the closed-form
exponential of the traceless 2 x 2 generator, a matrix of determinant 1,
so W is conserved to rounding. Its drift is measured at every step
endpoint and gated by wronskian_tol. The first grid has 8 steps per
period of the fastest frequency; the step count doubles until (alpha,
beta) settle to 1e-11 relative, with at most 2^20 steps in one sweep.

A schedule with L0 == L1 short-circuits to (alpha, beta) = (1, 0); that
exact value fixes the global phase convention.
"""

from __future__ import annotations

import cmath
import math
import sys

from ._integrate import IntegrationFailure, solve_ivp
from ._record import Record

__all__ = [
    "Schedule",
    "BogoliubovResult",
    "ScanResult",
    "IntegrationFailure",
    "WronskianViolation",
    "ScanQualityError",
    "schedule_eval",
    "mode_frequency",
    "sudden_beta_magnitude",
    "evolve_mode",
    "adiabatic_scan",
]

_STEPS_PER_PERIOD = 8  # the first sweep's grid, at the fastest frequency
_NOISE_FLOOR = 1e-20  # |beta|^2 below this is integrator noise, not signal
_TARGET = 1e-6  # the |beta|^2 whose crossing duration a scan estimates


class WronskianViolation(RuntimeError):
    """Wronskian drift exceeded tolerance; the run is not trustworthy."""


class ScanQualityError(RuntimeError):
    """|beta|^2 failed to decrease along an increasing-duration scan."""


class Schedule(Record):
    """Smooth plate motion from L0 to L1 over the window [-T, T]."""

    L0: float
    L1: float
    T: float

    def __post_init__(self):
        for name in ("L0", "L1", "T"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def schedule_eval(schedule: Schedule, t: float) -> float:
    """Plate separation at time t.

    The endpoints are returned exactly for |t| >= T; tan is never
    evaluated at +-pi/2.
    """
    if t <= -schedule.T:
        return schedule.L0
    if t >= schedule.T:
        return schedule.L1
    s = math.tanh(math.tan(0.5 * math.pi * t / schedule.T))
    return 0.5 * (1.0 - s) * schedule.L0 + 0.5 * (1.0 + s) * schedule.L1


def mode_frequency(n: int, k: float, length: float) -> float:
    """omega for standing-wave index n and transverse momentum k."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    if not 0.0 <= k < math.inf:
        raise ValueError(f"transverse momentum must be finite and >= 0, got {k}")
    if not 0.0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    try:
        omega = math.hypot(k, n * math.pi / length)
    except OverflowError:  # an int n past float range
        omega = math.inf
    if omega * omega == math.inf:  # from a length of about 2.4e-154 at n = 1
        raise ValueError(f"frequency or its square overflows at n={n}, k={k}, length={length}")
    # a subnormal omega^2 has lost digits, and k^2 + (n pi / L)^2 may round to 0
    if omega * omega < sys.float_info.min:  # from a length of about 2.1e154 at k = 0
        raise ValueError(f"frequency squared underflows at n={n}, k={k}, length={length}")
    return omega


def sudden_beta_magnitude(n: int, k: float, l0: float, l1: float) -> float:
    """|beta| for an instantaneous jump L0 -> L1.

    Matching f and f' across the jump gives
    |beta| = |omega_in - omega_out| / (2 sqrt(omega_in omega_out)).
    """
    w_in = mode_frequency(n, k, l0)
    w_out = mode_frequency(n, k, l1)
    return abs(w_in - w_out) / (2.0 * math.sqrt(w_in * w_out))


class BogoliubovResult(Record):
    """Outcome of evolving one mode through a schedule."""

    n: int
    k: float
    half_duration: float
    omega_in: float
    omega_out: float
    alpha: complex
    beta: complex
    wronskian_drift: float
    particle_number: float = None  # |beta|^2, set by __post_init__

    def __post_init__(self):
        object.__setattr__(self, "particle_number", abs(self.beta) ** 2)


def evolve_mode(
    schedule: Schedule,
    n: int,
    k: float = 0.0,
    wronskian_tol: float = 1e-8,
) -> BogoliubovResult:
    """Integrate one mode across the schedule and extract (alpha, beta).

    Raises ValueError if the first grid is too large to refine within the
    integrator's step cap, IntegrationFailure if a doubling reaches the
    cap, and WronskianViolation if the conserved Wronskian drifts by more
    than wronskian_tol at any step endpoint.
    """
    w_in = mode_frequency(n, k, schedule.L0)
    w_out = mode_frequency(n, k, schedule.L1)

    if schedule.L0 == schedule.L1:
        return BogoliubovResult(
            n=n, k=k, half_duration=schedule.T, omega_in=w_in, omega_out=w_out,
            alpha=1.0 + 0.0j, beta=0.0 + 0.0j, wronskian_drift=0.0,
        )

    f0 = cmath.exp(1j * w_in * schedule.T) / math.sqrt(2.0 * w_in)
    g0 = -1j * w_in * f0

    def omega_sq(t):
        length = schedule_eval(schedule, t)
        return k * k + (n * math.pi / length) ** 2

    sol = solve_ivp(omega_sq, (-schedule.T, schedule.T), (f0, g0),
                    first_step=2.0 * math.pi / (_STEPS_PER_PERIOD * max(w_in, w_out)))
    drift = sol.drift
    if drift > wronskian_tol:
        raise WronskianViolation(
            f"mode (n={n}, k={k}): Wronskian drift {drift:.3e} exceeds {wronskian_tol:.3e}"
        )

    f1, g1 = sol.y
    root = math.sqrt(0.5 * w_out)
    alpha = root * (f1 + 1j * g1 / w_out) * cmath.exp(1j * w_out * schedule.T)
    beta = root * (f1 - 1j * g1 / w_out) * cmath.exp(-1j * w_out * schedule.T)
    return BogoliubovResult(
        n=n, k=k, half_duration=schedule.T, omega_in=w_in, omega_out=w_out,
        alpha=alpha, beta=beta, wronskian_drift=drift,
    )


class ScanResult(Record):
    """Particle production versus schedule duration."""

    rows: tuple[BogoliubovResult, ...]
    decay_exponent: float
    threshold_half_duration: float
    target: float


def adiabatic_scan(
    l0: float,
    l1: float,
    half_durations,
    n: int = 1,
    k: float = 0.0,
    wronskian_tol: float = 1e-8,
) -> ScanResult:
    """Evolve one mode over a ladder of schedule durations.

    The durations must be increasing with at least three entries.
    |beta|^2 must decrease from the second entry onward (pairs where both
    values sit below the integrator noise floor are exempt); a violation
    raises ScanQualityError rather than being reported as data.

    decay_exponent is the local power-law slope between the two largest
    durations; threshold_half_duration is where |beta|^2 crosses 1e-6 on
    the power law through the first pair that brackets it, or the last
    pair if none does (inf when that crossing is past float range). If the
    first duration's |beta|^2 is already below 1e-6, it is that duration:
    an upper bound, not a crossing. If a |beta|^2 of the pair is 0, it is
    the pair's later duration.
    """
    times = [float(t) for t in half_durations]
    if len(times) < 3:
        raise ValueError("need at least three durations")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("durations must be strictly increasing")

    rows = tuple(evolve_mode(Schedule(l0, l1, t), n, k, wronskian_tol=wronskian_tol)
                 for t in times)
    numbers = [r.particle_number for r in rows]

    for i in range(1, len(numbers) - 1):
        a, b = numbers[i], numbers[i + 1]
        if b >= a and max(a, b) > _NOISE_FLOOR:
            raise ScanQualityError(
                f"|beta|^2 not decreasing: {a:.3e} -> {b:.3e} between "
                f"T={times[i]:g} and T={times[i + 1]:g}"
            )

    decay_exponent = _local_exponent(times[-2], numbers[-2], times[-1], numbers[-1])
    return ScanResult(rows=rows, decay_exponent=decay_exponent,
                      threshold_half_duration=_threshold_duration(times, numbers),
                      target=_TARGET)


def _local_exponent(t_a, p_a, t_b, p_b):
    if p_a <= 0.0 or p_b <= 0.0:
        return math.inf
    return math.log(p_a / p_b) / math.log(t_b / t_a)


def _threshold_duration(times, numbers):
    if numbers[0] < _TARGET:
        return times[0]
    # the first pair that brackets the target, else the last pair
    i = next((i for i, p in enumerate(numbers) if p < _TARGET), len(numbers) - 1)
    slope = _local_exponent(times[i - 1], numbers[i - 1], times[i], numbers[i])
    if slope == math.inf:  # |beta|^2 reached 0
        return times[i]
    if not slope > 0.0:
        return math.inf
    try:
        return times[i - 1] * (numbers[i - 1] / _TARGET) ** (1.0 / slope)
    except OverflowError:  # the fitted law reaches the target past float range
        return math.inf
