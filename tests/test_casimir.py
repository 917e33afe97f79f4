"""Regularized plate energies: exact zeta values, dual routes, oracles."""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad

from platevac import casimir as cas


# ---------------------------------------------------------------------------
# exact rational layer: the oracle of the zeta route's constant


@cache
def _bernoulli(n):
    """B_n (B_1 = -1/2 convention) from sum_{j<=n} C(n+1, j) B_j = 0, exact."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, j) * _bernoulli(j) for j in range(n)) / (n + 1)


def _zeta_negative_odd(n):
    """zeta(-n) = -B_{n+1}/(n+1) for positive integers n, exact."""
    return -_bernoulli(n + 1) / (n + 1)


def test_bernoulli_frozen_values():
    assert _bernoulli(0) == 1
    assert _bernoulli(1) == Fraction(-1, 2)
    assert _bernoulli(2) == Fraction(1, 6)
    assert _bernoulli(4) == Fraction(-1, 30)
    assert _bernoulli(12) == Fraction(-691, 2730)
    for odd in (3, 5, 7, 9, 11):
        assert _bernoulli(odd) == 0


def test_zeta_negative_odd_values():
    assert _zeta_negative_odd(1) == Fraction(-1, 12)
    assert _zeta_negative_odd(3) == Fraction(1, 120)
    assert _zeta_negative_odd(5) == Fraction(-1, 252)
    # the zeta route takes the float nearest the exact zeta(-3), across the gap range
    zeta3 = float(_zeta_negative_odd(3))
    for length in (0.5, 1.0, 2.0, 3.0, 1e-75, 1e76):
        prefactor = cas.mode_energy_density(cas.mode_mass(1, length))
        assert cas.casimir_energy_per_area(length, "zeta").value == prefactor * zeta3


def test_mode_mass():
    assert abs(cas.mode_mass(1, math.pi) - 1.0) < 1e-15
    assert abs(cas.mode_mass(2, math.pi) - 2.0) < 1e-15
    assert abs(cas.mode_mass(3, 3.0) - math.pi) < 1e-15
    with pytest.raises(ValueError):
        cas.mode_mass(0, 1.0)
    with pytest.raises(ValueError):
        cas.mode_mass(1, 0.0)


# ---------------------------------------------------------------------------
# per-mode density and its cutoff-subtraction oracle


def test_mode_energy_density_basics():
    want = -1.0 / (12.0 * math.pi)
    assert abs(cas.mode_energy_density(1.0) - want) < 1e-15
    assert abs(cas.mode_energy_density(2.0) - 8.0 * cas.mode_energy_density(1.0)) < 1e-15
    assert abs(cas.mode_energy_density(1e-4)) < 1e-12  # m -> 0 limit
    with pytest.raises(ValueError):
        cas.mode_energy_density(0.0)
    with pytest.raises(ValueError):
        cas.mode_energy_density(-1.0)


def _damped_density_numeric(mass, cutoff):
    """(1/(2 pi)) int (1/2) sqrt(k^2+m^2) e^{-omega/cutoff} k dk by quadrature."""

    def integrand(k):
        omega = math.sqrt(k * k + mass * mass)
        return 0.5 * omega * math.exp(-omega / cutoff) * k

    val, _ = quad(integrand, 0.0, math.inf, limit=200)
    return val / (2.0 * math.pi)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_mode_energy_density_cutoff_oracle(mass):
    """Independent route: damp, subtract the massless divergence, extrapolate.

    The subtracted density is -m^3/(12 pi) + c1/Lambda + c2/Lambda^2 + ...,
    so a cubic fit in 1/Lambda over a doubling ladder recovers the
    continuation value without ever invoking it.
    """
    cutoffs = [s * max(1.0, mass) for s in (20.0, 40.0, 80.0, 160.0)]
    subtracted = [
        _damped_density_numeric(mass, lam) - _damped_density_numeric(0.0, lam)
        for lam in cutoffs
    ]
    coeffs = np.polyfit([1.0 / lam for lam in cutoffs], subtracted, 3)
    extrapolated = coeffs[-1]
    claimed = cas.mode_energy_density(mass)
    assert abs(extrapolated - claimed) < 1e-6 * abs(claimed)


def test_cutoff_energy_density_closed_form_matches_quadrature():
    for mass, lam in ((0.0, 10.0), (1.0, 25.0), (2.5, 40.0)):
        closed = cas.cutoff_energy_density(mass, lam)
        numeric = _damped_density_numeric(mass, lam)
        assert abs(closed - numeric) < 1e-10 * abs(closed)
    with pytest.raises(ValueError):
        cas.cutoff_energy_density(-1.0, 10.0)
    with pytest.raises(ValueError):
        cas.cutoff_energy_density(1.0, 0.0)


# ---------------------------------------------------------------------------
# Abel-Plana route


def _bose(t):
    """1/(e^{2 pi t} - 1), overflow-safe for the quadrature tail."""
    x = 2.0 * math.pi * t
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def _contour(eps):
    """Contour side with residual damping eps: int_0^inf 2 t^3 cos(eps t) bose(t) dt."""
    val, _ = quad(lambda t: 2.0 * t**3 * math.cos(eps * t) * _bose(t), 0.0, math.inf)
    return val


def _abel_plana_identity_gap(eps):
    """Residual of the Abel-Plana identity for f(x) = x^3 e^{-eps x}.

    sum_{n>=1} f(n) = 6/eps^4 + contour(eps), returned as |lhs - rhs|
    relative to the contour term. Meant for moderate eps; at tiny eps the
    6/eps^4 cancellation wipes out double precision.
    """
    n_max = max(60, int(60.0 / eps))
    lhs = math.fsum(n**3 * math.exp(-eps * n) for n in range(1, n_max + 1))
    contour = _contour(eps)
    return abs(lhs - (6.0 / eps**4 + contour)) / abs(contour)


def test_abel_plana_contour_equals_exact_zeta():
    value, err = cas.abel_plana_zeta3()
    assert abs(value - 1.0 / 120.0) < 1e-10
    assert err < 1e-8


def test_abel_plana_quadrature_against_scipy():
    # the exp-sinh rule's error estimate covers its distance to 1/120 and to
    # scipy's adaptive quadrature of the same integrand
    value, err = cas.abel_plana_zeta3()
    assert abs(value - 1.0 / 120.0) <= err <= 1e-12
    oracle, oracle_err = quad(lambda t: 2.0 * t**3 * _bose(t), 0.0, math.inf)
    assert abs(value - oracle) <= err + oracle_err


def test_abel_plana_identity_moderate_damping():
    # full identity, with the 6/eps^4 term still within float range
    assert _abel_plana_identity_gap(1.0) < 1e-10
    assert _abel_plana_identity_gap(0.5) < 1e-10


def test_abel_plana_damping_limit():
    # approaches 1/120 as eps -> 0
    assert abs(_contour(1e-3) - 1.0 / 120.0) < 1e-8
    gap_coarse = abs(_contour(1e-1) - 1.0 / 120.0)
    gap_fine = abs(_contour(1e-2) - 1.0 / 120.0)
    assert gap_fine < gap_coarse  # quadratic approach, strictly improving


# ---------------------------------------------------------------------------
# plate energy routes


def test_zeta_route_analytic():
    for length in (0.5, 1.0, 2.0):
        got = cas.casimir_energy_per_area(length, "zeta")
        want = -(math.pi**2) / (1440.0 * length**3)
        assert abs(got.value - want) <= 1e-13 * abs(want)
    frozen = cas.casimir_energy_per_area(1.0, "zeta").value
    assert abs(frozen - (-6.853891945200942e-3)) < 1e-15


def test_dual_route_agreement():
    for length in (0.5, 1.0, 2.0):
        z = cas.casimir_energy_per_area(length, "zeta")
        a = cas.casimir_energy_per_area(length, "abel_plana")
        assert abs(z.value - a.value) <= 1e-8 * abs(z.value)
        assert abs(z.value - a.value) <= z.error_estimate + a.error_estimate


def test_cutoff_route_within_error_bars():
    for length in (0.5, 1.0, 2.0):
        z = cas.casimir_energy_per_area(length, "zeta")
        c = cas.casimir_energy_per_area(length, "cutoff_extrapolation")
        assert abs(z.value - c.value) <= z.error_estimate + c.error_estimate


def test_cutoff_error_bar_counts_its_rounding():
    # the tower - integral step cancels about nine digits; the bar must
    # cover that loss at every gap and still stay below 1e-6 relative
    for length in np.logspace(-6.0, 6.0, 121):
        z = cas.casimir_energy_per_area(float(length), "zeta")
        c = cas.casimir_energy_per_area(float(length), "cutoff_extrapolation")
        assert abs(z.value - c.value) <= z.error_estimate + c.error_estimate, length
        assert c.error_estimate <= 1e-6 * abs(z.value), length


def test_energy_homogeneity_and_monotonicity():
    rng = np.random.default_rng(41)
    for lam in rng.uniform(0.5, 2.0, size=8):
        base = cas.casimir_energy_per_area(1.0).value
        scaled = cas.casimir_energy_per_area(float(lam)).value
        assert abs(scaled - base / lam**3) <= 1e-12 * abs(base)
    magnitudes = [abs(cas.casimir_energy_per_area(L).value) for L in (0.5, 0.8, 1.0, 1.7, 2.0)]
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


def test_energy_route_validation():
    with pytest.raises(ValueError):
        cas.casimir_energy_per_area(0.0)
    with pytest.raises(ValueError):
        cas.casimir_energy_per_area(1.0, "dimensional")
    with pytest.raises(ValueError):
        cas.RegularizedSum(1.0, -1.0)


@pytest.mark.parametrize("length", [0.0, -1.0, 1e-100, 1e80, math.inf, math.nan])
def test_gap_outside_float_range_rejected(length):
    # L^-4 or (80/L)^4 would overflow or vanish: a division by zero, an
    # OverflowError or a NaN tower length instead of a result
    with pytest.raises(ValueError, match="gap"):
        cas.mode_mass(1, length)
    for method in cas.METHODS:
        with pytest.raises(ValueError, match="gap"):
            cas.casimir_energy_per_area(length, method)
    with pytest.raises(ValueError, match="gap"):
        cas.casimir_force_per_area(length)


@pytest.mark.parametrize("length", [1e-75, 1e76])
def test_gap_range_edges_stay_finite(length):
    assert math.isfinite(cas.mode_mass(1, length))
    assert math.isfinite(cas.casimir_force_per_area(length))
    for method in cas.METHODS:
        result = cas.casimir_energy_per_area(length, method)
        assert math.isfinite(result.value) and result.value < 0.0
        assert math.isfinite(result.error_estimate)


# ---------------------------------------------------------------------------
# force


def test_force_analytic_and_finite_difference():
    want = -(math.pi**2) / 480.0
    got = cas.casimir_force_per_area(1.0)
    assert abs(got - want) < 1e-15
    h = 1e-4  # central difference of the zeta-route energy
    fd = -(cas.casimir_energy_per_area(1.0 + h).value
           - cas.casimir_energy_per_area(1.0 - h).value) / (2.0 * h)
    assert abs(fd - got) <= 1e-6 * abs(got)


def test_force_sign_and_scaling():
    for length in (0.3, 1.0, 4.0):
        assert cas.casimir_force_per_area(length) < 0.0  # attractive
    f1 = cas.casimir_force_per_area(1.0)
    f2 = cas.casimir_force_per_area(2.0)
    assert abs(f2 - f1 / 16.0) <= 1e-12 * abs(f1)


# ---------------------------------------------------------------------------
# central-charge difference


def _energy_difference(l0, l1):
    """E(L0) - E(L1) on the zeta route, as the CLI's --diff column takes it."""
    return cas.casimir_energy_per_area(l0).value - cas.casimir_energy_per_area(l1).value


def test_central_charge_difference_frozen():
    got = _energy_difference(1.0, 2.0)
    want = -(math.pi**2 / 1440.0) * (1.0 - 1.0 / 8.0)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_central_charge_difference_properties():
    assert _energy_difference(1.3, 1.3) == 0.0
    forward = _energy_difference(1.0, 2.0)
    assert _energy_difference(2.0, 1.0) == -forward  # exact float antisymmetry


def _single_mode_difference(l0, l1, n):
    return cas.mode_energy_density(cas.mode_mass(n, l0)) - cas.mode_energy_density(
        cas.mode_mass(n, l1))


def test_central_charge_single_mode():
    got = _single_mode_difference(1.0, 2.0, 1)
    want = -(math.pi**2 / 12.0) * (1.0 - 1.0 / 8.0)
    assert abs(got - want) <= 1e-12 * abs(want)
    sym = _single_mode_difference(2.0, 1.0, 1)
    assert sym == -got
