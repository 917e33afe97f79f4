"""Regularized vacuum energy per unit plate area for the Dirichlet scalar.

A plate gap L quantizes the normal direction into a tower of transverse
masses m_n = n pi / L (n = 1, 2, ...). Each massive mode contributes the
formally divergent transverse integral int d^2k/(2pi)^2 (1/2) sqrt(k^2+m^2);
its analytic continuation is -m^3/(12 pi), and summing the tower gives

    E(L)/area = -(pi^2 / (12 L^3)) zeta(-3) = -pi^2 / (1440 L^3).

Three routes are implemented so no single regularization is trusted alone:

- zeta: the exact value zeta(-3) = -B_4 / 4 = 1/120 (Bernoulli number B_4 = -1/30),
- abel_plana: the regularized sum of n^3 as the contour integral
  2 int_0^inf t^3/(e^{2 pi t}-1) dt, numerically,
- cutoff_extrapolation: exponential damping e^{-omega/Lambda}, subtraction
  of the integral approximation of the tower sum, Richardson extrapolation
  in 1/Lambda.

All quantities use hbar = c = 1; L is the gap appearing in m_n = n pi / L.
"""

from __future__ import annotations

import math
import sys

from ._integrate import quad
from ._record import Record

__all__ = [
    "RegularizedSum",
    "mode_mass",
    "mode_energy_density",
    "abel_plana_zeta3",
    "cutoff_energy_density",
    "casimir_energy_per_area",
    "casimir_force_per_area",
    "METHODS",
]

METHODS = ("zeta", "abel_plana", "cutoff_extrapolation")
_CUTOFF_SCALES = (20.0, 40.0, 80.0)  # the cutoff route's ladder Lambda = scale / L


class RegularizedSum(Record):
    """Energy per unit area with an honest error bar."""

    value: float
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _check_gap(length: float) -> None:
    """Reject a gap unless it is positive and its powers stay in float range.

    The force goes as L^-4 and the cutoff route as (80/L)^4; both must be
    finite and nonzero, which holds for about 7e-76 < L < 1e77.
    """
    try:
        powers = (length**4, (_CUTOFF_SCALES[-1] / length) ** 4) if length > 0 else (0.0,)
    except OverflowError:
        powers = (0.0,)
    if not all(0 < p < math.inf for p in powers):
        raise ValueError(f"need a finite positive gap of about 7e-76 to 1e77, got {length!r}")


def mode_mass(n: int, length: float) -> float:
    """Transverse mass of tower level n at plate gap `length`: n pi / L."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_gap(length)
    return n * math.pi / length


def mode_energy_density(mass: float) -> float:
    """Regularized transverse energy per unit area of one massive mode.

    The continuation of int d^2k/(2 pi)^2 (1/2) sqrt(k^2 + m^2) is
    -m^3/(12 pi); the cutoff-subtraction oracle in the test suite
    validates this value independently.
    """
    if not mass > 0:
        raise ValueError("need a positive mass")
    return -(mass**3) / (12.0 * math.pi)


# ---------------------------------------------------------------------------
# Abel-Plana machinery


def _bose_factor(t: float) -> float:
    """1/(e^{2 pi t} - 1), overflow-safe for the quadrature tail."""
    x = 2.0 * math.pi * t
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def abel_plana_zeta3() -> tuple[float, float]:
    """(value, error) of 2 int_0^inf t^3/(e^{2 pi t} - 1) dt.

    This is the boundary-contour side of the Abel-Plana identity for the
    divergent sum of n^3 with the growing parts removed; it equals
    zeta(-3) = 1/120.
    """
    return quad(lambda t: 2.0 * t**3 * _bose_factor(t), 0.0)


# ---------------------------------------------------------------------------
# exponential-cutoff machinery


def cutoff_energy_density(mass: float, cutoff: float) -> float:
    """Transverse energy per unit area damped by e^{-omega/cutoff}, closed form.

    (1/(4 pi)) int_0^inf omega e^{-omega/Lambda} k dk with omega^2 = k^2+m^2
    integrates to (1/(4 pi)) e^{-m/Lambda} (m^2 Lambda + 2 m Lambda^2 + 2 Lambda^3);
    the m = 0 value Lambda^3/(2 pi) carries the entire divergence.
    """
    if mass < 0 or not cutoff > 0:
        raise ValueError("need mass >= 0 and cutoff > 0")
    lam = cutoff
    return (
        math.exp(-mass / lam) * (mass * mass * lam + 2.0 * mass * lam * lam + 2.0 * lam**3)
    ) / (4.0 * math.pi)


def _cutoff_tower_remainder(length: float, lam: float) -> tuple[float, float]:
    """Damped tower sum minus its integral approximation plus half the n=0 term.

    Euler-Maclaurin gives -g'(0)/12 + g'''(0)/720 - ... for this combination;
    g'(0) = 0 and g'''(0) = -pi^2/(2 L^3) is cutoff-independent, so the limit
    Lambda -> inf is the regularized energy with corrections O(1/Lambda^2).
    Returns the remainder and its rounding error. At the top rung the tower
    and the integral are each about 1e9 times the remainder, so the
    subtraction cancels about nine digits; the rounding left over is taken
    as 2 eps |integral|, about one rounding in each of the two.
    """
    n_max = int(50.0 * length * lam / math.pi) + 10
    tower = math.fsum(cutoff_energy_density(n * math.pi / length, lam) for n in range(1, n_max + 1))
    integral = (length / math.pi) * 3.0 * lam**4 / (2.0 * math.pi)
    rounding = 2.0 * sys.float_info.epsilon * integral
    return tower - integral + 0.5 * cutoff_energy_density(0.0, lam), rounding


def _cutoff_route(length: float) -> tuple[float, float]:
    lams = [scale / length for scale in _CUTOFF_SCALES]
    f, rounding = zip(*(_cutoff_tower_remainder(length, lam) for lam in lams))
    # two Richardson levels over the doubling ladder: kill 1/Lambda^2, then 1/Lambda^4;
    # together the weights are (1, -20, 64) / 45, which also carry the rungs' rounding
    r1 = [(4.0 * f[i + 1] - f[i]) / 3.0 for i in range(2)]
    r2 = (16.0 * r1[1] - r1[0]) / 15.0
    carried = (rounding[0] + 20.0 * rounding[1] + 64.0 * rounding[2]) / 45.0
    err = abs(r2 - r1[1]) + carried + 1e-13 * abs(r2)
    return r2, err


# ---------------------------------------------------------------------------
# public energy routes


def casimir_energy_per_area(length: float, method: str = "zeta") -> RegularizedSum:
    """Regularized plate energy per unit area at gap `length`."""
    # the tower sum_n -(n pi / L)^3 / (12 pi) is the n = 1 density times sum_n n^3
    prefactor = mode_energy_density(mode_mass(1, length))
    if method == "zeta":
        value = prefactor * (1 / 120)  # zeta(-3), the float nearest 1/120
        return RegularizedSum(value, 1e-15 * abs(value))
    if method == "abel_plana":
        zeta3_num, quad_err = abel_plana_zeta3()
        value = prefactor * zeta3_num
        err = abs(prefactor) * (quad_err + 1e-14 * abs(zeta3_num))
        return RegularizedSum(value, err)
    if method == "cutoff_extrapolation":
        return RegularizedSum(*_cutoff_route(length))
    raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")


def casimir_force_per_area(length: float) -> float:
    """-d/dL of the plate energy: -pi^2/(480 L^4), attractive for all L."""
    _check_gap(length)
    return -(math.pi**2) / (480.0 * length**4)

