"""Quadrature and oscillator integration with the standard library only.

`quad` is exp-sinh quadrature over [a, inf) (Takahasi & Mori 1974);
`solve_ivp` a sixth-order Magnus integrator (Blanes, Casas & Ros 2000) for
f'' + omega^2(t) f = 0. `casimir` and `adiabatic` bind them under these
names, where bench/tracer.py wraps them.
"""

from __future__ import annotations

import math
import sys

from ._record import Record

_HALF_PI = 0.5 * math.pi
_QUAD_T_MAX = 6.0  # exp(pi/2 sinh 6) is 1e137: far past any term that counts
_QUAD_HALVINGS = 8  # the finest step in the exp-sinh variable is 2^-8
_QUAD_RTOL = 1e-10

MAX_STEPS = 2**20  # steps in one sweep of `solve_ivp`
_IVP_RTOL = 1e-11  # of `solve_ivp`: (alpha, beta) to this keeps the phase of beta
_MIN_STEPS = 16
_GAUSS = math.sqrt(15.0) / 10.0  # Gauss points at 1/2 -+ sqrt(15)/10 and 1/2 of a step
_SPREAD = math.sqrt(15.0) / 3.0  # alpha2 = _SPREAD h (A3 - A1)
_CURVATURE = 10.0 / 3.0  # alpha3 = _CURVATURE h (A3 - 2 A2 + A1)


def quad(f, a: float) -> tuple[float, float]:
    """(value, error) of int_a^inf f(x) dx, by exp-sinh quadrature.

    x = a + exp(pi/2 sinh t) maps the t axis onto (a, inf), where an
    integrand with at most an algebraic singularity at a and exponential
    decay at infinity falls off double exponentially in t. The trapezoid
    step h halves from 1 until two levels agree to 1e-10 relative, or down
    to 2^-8; the result is I_{h/2} with error |I_h - I_{h/2}|.
    """
    if not math.isfinite(a):
        raise ValueError(f"exp-sinh quadrature needs a finite a, got {a!r}")

    def integrand(t):
        x = math.exp(_HALF_PI * math.sinh(t))
        return f(a + x) * _HALF_PI * math.cosh(t) * x

    # Walk the unit grid out from t = 0 until a term is below rounding; the
    # terms fall double exponentially, so the finer levels keep that span.
    terms = [integrand(0.0)]
    span = []
    for sign in (-1.0, 1.0):
        t = 0.0
        while t < _QUAD_T_MAX:
            t += 1.0
            terms.append(integrand(sign * t))
            if abs(terms[-1]) <= sys.float_info.epsilon * abs(math.fsum(terms)):
                break
        span.append(int(sign * t))
    total, h = math.fsum(terms), 1.0
    value, error = total, math.inf
    for level in range(1, _QUAD_HALVINGS + 1):
        h *= 0.5
        # the new nodes are the odd multiples of the halved step
        odd = range(span[0] * 2**level + 1, span[1] * 2**level, 2)
        total += math.fsum(integrand(j * h) for j in odd)
        value, error = h * total, abs(h * total - value)
        if error <= _QUAD_RTOL * abs(value):
            break
    return value, error


class IntegrationFailure(RuntimeError):
    """The integrator did not converge within its step cap."""


class OscillatorSolution(Record):
    """End state of `solve_ivp` and the effort spent on it."""

    y: tuple[complex, complex]  # (f, f') at t1 on the final grid
    t: range  # the final grid's step endpoints, by index
    nfev: int  # omega^2 at Gauss points: three per step, summed over all sweeps
    drift: float  # max |W - W(t0)| over the final grid's step endpoints


def _wronskian(f: complex, g: complex) -> float:
    """i (conj(f) g - conj(g) f), real for any complex f and g."""
    return -2.0 * (f.real * g.imag - f.imag * g.real)


def _sweep(omega_sq, t0: float, h: float, steps: int, f: complex, g: complex):
    """`steps` Magnus-6 steps of size h from (f, g) at t0: end state and drift."""
    w0 = _wronskian(f, g)
    drift = 0.0
    early, late = (0.5 - _GAUSS) * h, (0.5 + _GAUSS) * h
    half, hh = 0.5 * h, h * h
    for i in range(steps):
        t = t0 + i * h
        a1 = omega_sq(t + early)
        a2 = omega_sq(t + half)
        a3 = omega_sq(t + late)
        # A_i = [[0, 1], [-a_i, 0]], alpha1 = h A2, and -q and -u are the only
        # nonzero entries of alpha2 and alpha3. Then the Blanes-Casas-Ros
        # generator alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240,
        # C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60, is
        # Omega = [[p, b], [r, -p]]
        q = _SPREAD * h * (a3 - a1)
        u = _CURVATURE * h * (a3 - 2.0 * a2 + a1)
        p = h * q * (20.0 + hh * a2 * (4.0 / 3.0) + h * u / 30.0) / 240.0
        b = h + hh * (h * q * q + 20.0 * u) / 3600.0
        r = (-h * a2 - u / 12.0
             + h * (u * (20.0 * h * a2 + u) / 15.0 - 2.0 * q * q * (1.0 + hh * a2 / 30.0)) / 240.0)
        theta_sq = -(p * p + b * r)  # Omega^2 = -theta^2 I
        if theta_sq > 0.0:
            theta = math.sqrt(theta_sq)
            c, s = math.cos(theta), math.sin(theta) / theta
        elif theta_sq < 0.0:
            theta = math.sqrt(-theta_sq)
            c, s = math.cosh(theta), math.sinh(theta) / theta
        else:
            c, s = 1.0, 1.0
        # exp(Omega) = c I + s Omega, determinant c^2 + s^2 theta^2 = 1
        f, g = (c + s * p) * f + s * b * g, s * r * f + (c - s * p) * g
        d = abs(_wronskian(f, g) - w0)
        if d > drift:
            drift = d
    return f, g, drift


def solve_ivp(omega_sq, t_span, y0, first_step: float) -> OscillatorSolution:
    """Solve f'' + omega_sq(t) f = 0 over t_span from y0 = (f, f'), complex.

    A step samples A(t) = [[0, 1], [-omega_sq(t), 0]] at its three Gauss
    points and applies the closed-form exponential of the traceless
    Magnus-6 generator, a matrix of determinant 1: the Wronskian
    i (conj(f) f' - conj(f') f) holds to rounding, and its largest drift
    over the step endpoints is returned. The first sweep has about
    (t1 - t0)/first_step steps, at least 16; the count doubles until a
    sixty-third of the change from the previous sweep, the sixth-order
    error estimate, is within _IVP_RTOL in the normal-mode amplitudes
    sqrt(omega/2) (f +- i f'/omega) at t1 ((alpha, beta) of a mode
    function). A first sweep too large to double once within MAX_STEPS
    is a ValueError; a doubling past it raises IntegrationFailure.
    """
    t0, t1 = t_span
    first = (t1 - t0) / first_step
    if not first <= MAX_STEPS // 2:
        raise ValueError(
            f"a first sweep of {first:.3g} steps over [{t0:g}, {t1:g}] leaves no room "
            f"to refine within {MAX_STEPS} steps per sweep"
        )
    steps = max(math.ceil(first), _MIN_STEPS)
    w = math.sqrt(omega_sq(t1))
    f0, g0 = y0
    nfev, previous = 0, None
    while True:
        f, g, drift = _sweep(omega_sq, t0, (t1 - t0) / steps, steps, f0, g0)
        nfev += 3 * steps
        if previous is not None:
            df, dg = f - previous[0], g - previous[1]
            change = math.sqrt(w * abs(df) ** 2 + abs(dg) ** 2 / w)
            size = math.sqrt(w * abs(f) ** 2 + abs(g) ** 2 / w)
            if change <= 63.0 * _IVP_RTOL * size:
                return OscillatorSolution((f, g), range(steps + 1), nfev, drift)
        if 2 * steps > MAX_STEPS:
            raise IntegrationFailure(
                f"no convergence to rtol {_IVP_RTOL:g} within {MAX_STEPS} steps per sweep")
        previous = (f, g)
        steps *= 2
