"""Quadratic observables for a massive scalar field on a finite lattice.

The canonical vector is xi = (phi_1..phi_M, pi_1..pi_M) with the lattice
measure absorbed into the variables (phi_x -> a^{dims/2} phi_x and likewise
for pi), so the commutation relations read [xi_a, xi_b] = i omega[a][b] with
omega the exact +-1 block matrix [[0, I], [-I, 0]].

Observables are at most quadratic, O = 1/2 xi^T Q xi + lin^T xi + scalar,
with Q symmetric; a symmetric Q is automatically Weyl (symmetric) ordered.
`QuadraticObservable(n_modes, phi, coupling, pi, lin, scalar)` stores Q as
its three M x M blocks,

    Q = [[phi, C^T], [C, pi]],

with phi and pi of outside input symmetrized (the builders, `commutator`,
`+` and `-` make symmetric blocks and skip that copy), C the pi-phi
coupling, and a block that is all zero stored as None. The dense 2M x 2M
matrix `quad` is a read-only view, built on first access; no computation
here reads it except the spectral norm of a quad with all three blocks
present. Every generator is block-diagonal (H, the t = 0 boost) or purely
off-diagonal (P, J), so most brackets cost a few M x M products.

`commutator` returns the rescaled product (1/i)[A, B], which is again
quadratic with real coefficients:

    quad   = Q_A omega Q_B - Q_B omega Q_A
    lin    = Q_A omega lin_B - Q_B omega lin_A
    scalar = lin_A^T omega lin_B

Omega is never built. With X = Q_A omega Q_B, block (i, j) of X is
A_i0 B_1j - A_i1 B_0j, products against a None block are skipped, and the
second quad term is -X^T because both Q are symmetric; so the result has
phi = X_00 + X_00^T, pi = X_11 + X_11^T and C = X_10 + X_01^T.

Input scalar slots never contribute (constants commute), so a commutator of
two pure Weyl quadratics carries no central term; central scalars only enter
through the normal-ordering bookkeeping handled by `verify_central_relation`.

The vacuum covariance Sigma is block-diagonal, so a vacuum expectation
needs only phi and pi. `build_hamiltonian` records its geometry and mass on
the H it returns, and `build_mode_basis` reads that record: the spectrum and
both covariance blocks of a lattice H come in closed form, from DCT-II
(free ends) or Fourier (periodic) modes per axis and one length-2N (or N)
FFT cosine sum per axis, with no eigendecomposition and no M x M product.
Any other [[V, 0], [0, I]] goes through a dense eigh.

Both residual norms take an observable: `spectral_norm` works from the
blocks of its quad, the largest |eigenvalue| of phi and pi, the top
singular value of a lone coupling block, or the largest |eigenvalue| of the
whole matrix when both kinds are present.

Sites are laid out once, by `_grid`: the N^dims sites in the C order of an
N x ... x N array, so site (i, j) is i * N + j. Bonds, difference stencils,
coordinates and the bulk window are index arrays derived from that grid.

Spatial derivatives follow two deliberate conventions: the gradient energy
in the Hamiltonian uses forward differences (keeps the potential matrix
positive semidefinite), while the momentum generator uses centered
differences (keeps its matrix an exact generator, antisymmetric in the site
indices). Their mismatch is an O(a^2) discretization effect that the
convergence report measures instead of hiding. The boost weights the
Hamiltonian's stencil by the site coordinate, each bond at its midpoint.
"""

from __future__ import annotations

import copy
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DegenerateVacuumError",
    "LatticeGeometry",
    "QuadraticObservable",
    "ModeBasis",
    "build_hamiltonian",
    "build_momentum",
    "build_boost",
    "build_rotation",
    "build_mode_basis",
    "commutator",
    "spectral_norm",
    "vacuum_expectation",
    "normal_ordered",
    "verify_central_relation",
    "central_relation_convergence",
    "verify_poincare_closure",
    "contradiction_demo",
    "fit_convergence_order",
]


class DegenerateVacuumError(ValueError):
    """The Hamiltonian has a (numerically) zero-frequency mode."""


# 2-d N = 64; one M x M block then takes 134 MB
_MAX_SITES = 4096


@dataclass(frozen=True)
class LatticeGeometry:
    """Finite spatial lattice: `dims` in (1, 2), N sites per direction, at most 4096 sites."""

    dims: int
    sites_per_dim: int
    spacing: float
    boundary: str = "open"

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if self.sites_per_dim < 3:
            raise ValueError("need at least 3 sites per direction")
        if self.n_sites > _MAX_SITES:
            raise ValueError(f"{self.n_sites} lattice sites, more than the {_MAX_SITES} allowed")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")

    @property
    def n_sites(self) -> int:
        return self.sites_per_dim**self.dims

    @property
    def physical_size(self) -> float:
        return self.sites_per_dim * self.spacing

    def centered_coordinate(self, direction: int) -> np.ndarray:
        """Site coordinate along `direction`, centered so it sums to zero."""
        if not 0 <= direction < self.dims:
            raise ValueError("direction out of range")
        n = self.sites_per_dim
        line = self.spacing * (np.arange(n) - (n - 1) / 2.0)
        return line[np.unravel_index(np.arange(self.n_sites), (n,) * self.dims)[direction]]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _blockwise(op, x, y):
    """op(x, y) for M x M blocks, None standing for an all-zero block."""
    if x is None and y is None:
        return None
    return op(0.0 if x is None else x, 0.0 if y is None else y)


def _transpose(x):
    return None if x is None else x.T


@dataclass(frozen=True, eq=False)
class QuadraticObservable:
    """O = 1/2 xi^T Q xi + lin^T xi + scalar, Q = [[phi, C^T], [C, pi]] symmetric (Weyl order).

    A block left None is zero. phi and pi are symmetrized, an all-zero block
    becomes None, and a None `lin` becomes the zero vector.
    """

    n_modes: int
    phi: np.ndarray | None = None
    coupling: np.ndarray | None = None
    pi: np.ndarray | None = None
    lin: np.ndarray | None = None
    scalar: float = 0.0

    def __post_init__(self):
        m = self.n_modes

        def block(x, symmetric):
            if x is None:
                return None
            x = np.asarray(x, dtype=float)
            if x.shape != (m, m):
                raise ValueError("quad blocks must be M x M")
            if symmetric:
                x = x + x.T
                x *= 0.5
            return x

        lin = np.zeros(2 * m) if self.lin is None else np.asarray(self.lin, dtype=float)
        if lin.shape != (2 * m,):
            raise ValueError("lin length must match quad dimension")
        self._store(block(self.phi, True), block(self.coupling, False), block(self.pi, True),
                    lin, self.scalar)

    @classmethod
    def _exact(cls, n_modes, phi=None, coupling=None, pi=None, lin=None, scalar=0.0):
        """The constructor for M x M blocks with phi and pi symmetric by construction
        (builders, `commutator`, `+`, `-`): only the all-zero -> None scan is left."""
        out = object.__new__(cls)
        object.__setattr__(out, "n_modes", n_modes)
        out._store(phi, coupling, pi, np.zeros(2 * n_modes) if lin is None else lin, scalar)
        return out

    def _store(self, phi, coupling, pi, lin, scalar):
        for name, value in (("phi", phi), ("coupling", coupling), ("pi", pi)):
            object.__setattr__(self, name, None if value is None or not value.any()
                               else _readonly(value))
        object.__setattr__(self, "lin", _readonly(lin))
        object.__setattr__(self, "scalar", float(scalar))

    @property
    def blocks(self) -> tuple:
        return self.phi, self.coupling, self.pi

    @cached_property
    def quad(self) -> np.ndarray:
        """Read-only dense 2M x 2M view of Q, None blocks as zeros, built on first access."""
        m = self.n_modes
        out = np.zeros((2 * m, 2 * m))
        if self.phi is not None:
            out[:m, :m] = self.phi
        if self.pi is not None:
            out[m:, m:] = self.pi
        if self.coupling is not None:
            out[m:, :m] = self.coupling
            out[:m, m:] = self.coupling.T
        return _readonly(out)

    def shifted(self, delta_scalar: float) -> "QuadraticObservable":
        out = copy.copy(self)  # the blocks are read-only, so the copy shares them
        object.__setattr__(out, "scalar", float(self.scalar + delta_scalar))
        return out

    def _combine(self, other: "QuadraticObservable", op) -> "QuadraticObservable":
        m = _same_modes(self, other)
        blocks = [_blockwise(op, x, y) for x, y in zip(self.blocks, other.blocks)]
        return QuadraticObservable._exact(m, *blocks, op(self.lin, other.lin),
                                          op(self.scalar, other.scalar))

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return self._combine(other, operator.add)

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return self._combine(other, operator.sub)


def _same_modes(a: QuadraticObservable, b: QuadraticObservable) -> int:
    if a.n_modes != b.n_modes:
        raise ValueError("observable dimensions differ")
    return a.n_modes


# ---------------------------------------------------------------------------
# lattice matrix assembly


def _grid(geom: LatticeGeometry) -> np.ndarray:
    """Flat index of every site, laid out as an N x ... x N array in C order."""
    return np.arange(geom.n_sites).reshape((geom.sites_per_dim,) * geom.dims)


def _bonds(geom: LatticeGeometry, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor pairs as index arrays (u, v), v one step from u along `direction`.

    An open lattice drops the bonds that wrap around.
    """
    u = _grid(geom)
    v = np.roll(u, -1, axis=direction)
    if geom.boundary == "open":
        inner = (slice(None),) * direction + (slice(0, -1),)
        u, v = u[inner], v[inner]
    return u.ravel(), v.ravel()


def _potential_matrix(geom: LatticeGeometry, mass: float, weight: np.ndarray) -> np.ndarray:
    """Site terms m^2 w_x plus forward-difference bonds, each weighted at its midpoint.

    All-ones weights give the potential matrix of H; the centered coordinate
    gives the weighted potential of a boost.
    """
    u, w = (np.concatenate(x) for x in zip(*(_bonds(geom, d) for d in range(geom.dims))))
    bond = 0.5 * (weight[u] + weight[w]) * (1.0 / (geom.spacing * geom.spacing))
    # bond by bond: (u,u) += b, (w,w) += b, (u,w) -= b, (w,u) -= b; np.add.at
    # adds in index order, so every diagonal sums its bonds in bond order
    rows = np.stack([u, w, u, w], axis=1).ravel()
    cols = np.stack([u, w, w, u], axis=1).ravel()
    v = np.diag((mass * mass) * weight)
    np.add.at(v, (rows, cols), np.stack([bond, bond, -bond, -bond], axis=1).ravel())
    return v


def _difference_matrix(geom: LatticeGeometry, direction: int) -> np.ndarray:
    """Centered difference along `direction`, one-sided at the edges of an open lattice."""
    d = np.zeros((geom.n_sites, geom.n_sites))
    u, v = _bonds(geom, direction)
    d[u, v] = 1.0 / (2.0 * geom.spacing)
    d[v, u] = -1.0 / (2.0 * geom.spacing)
    if geom.boundary == "open":
        layer = np.moveaxis(_grid(geom), direction, 0)  # layer[k]: the sites k steps in
        d[layer[0], layer[1]] = d[layer[-1], layer[-1]] = 1.0 / geom.spacing
        d[layer[0], layer[0]] = d[layer[-1], layer[-2]] = -1.0 / geom.spacing
    return d


# the residual norms square entries of order m^2 N; at physical size 8 they
# overflow from m = 1e78, so this leaves a wide margin
_MAX_MASS = 1e50


def _check_mass(mass: float) -> None:
    if not 0 <= mass <= _MAX_MASS:
        raise ValueError(f"mass must be finite, nonnegative and at most {_MAX_MASS:g}, "
                         f"got {mass!r}")


# V is assembled in floats, so it holds m^2 only to about eps ||V|| =
# eps (m^2 + 4 dims / a^2), and the trace route 1/2 tr(V Sigma) reads that V;
# the closed-form spectrum does not see the rounding, a dense eigh of V does.
# Measured with eigh on open 1-D lattices (N = 10 to 160, a down to 3e-9), the
# smallest eigenvalue's relative error stayed below that over m^2, and at 3.6 it
# was off by 44-124 %. The bound keeps m^2 to 1 %; tests and benchmark jobs reach
# 2.3e-12.
_MAX_ROUNDING_RATIO = 1e-2


def _check_vacuum_mass(geom: LatticeGeometry, mass: float) -> None:
    """_check_mass, and a positive mass must survive the rounding of V at this spacing."""
    _check_mass(mass)
    ma2 = (mass * geom.spacing) ** 2
    rounding = np.finfo(float).eps * (ma2 + 4 * geom.dims)
    if mass > 0 and rounding > _MAX_ROUNDING_RATIO * ma2:
        raise ValueError(
            f"mass {mass:g} is lost to eigh rounding at spacing {geom.spacing:g}: eps (m^2 + "
            f"4 dims / a^2) / m^2 = {rounding / ma2 if ma2 else math.inf:.3g} exceeds "
            f"{_MAX_ROUNDING_RATIO:g}")


def build_hamiltonian(geom: LatticeGeometry, mass: float) -> QuadraticObservable:
    """H = 1/2 sum_x [pi_x^2 + sum_i ((phi_{x+e_i} - phi_x)/a)^2 + m^2 phi_x^2].

    Scalar slot is 0 (plain Weyl form). A massless periodic lattice has an
    exact zero mode (the constant field) and is rejected outright.
    """
    _check_mass(mass)
    if mass == 0 and geom.boundary == "periodic":
        raise DegenerateVacuumError("massless periodic lattice has an exact zero mode")
    m = geom.n_sites
    h = QuadraticObservable._exact(m, phi=_potential_matrix(geom, mass, np.ones(m)), pi=np.eye(m))
    object.__setattr__(h, "_lattice", (geom, mass))  # read by build_mode_basis
    return h


def build_momentum(geom: LatticeGeometry, direction: int) -> QuadraticObservable:
    """Weyl-symmetrized pi * (centered difference of phi), summed over sites."""
    if not 0 <= direction < geom.dims:
        raise ValueError("direction out of range")
    return QuadraticObservable._exact(geom.n_sites, coupling=_difference_matrix(geom, direction))


def build_boost(
    geom: LatticeGeometry, direction: int, t: float, mass: float
) -> QuadraticObservable:
    """K = t * P - sum_x x_i h_x with the bond terms weighted at bond midpoints.

    Position weights need a definite coordinate, so the lattice must be open;
    coordinates are centered, x_i in {-(N-1)/2 .. (N-1)/2} * a.
    """
    if geom.boundary != "open":
        raise ValueError("boost generator needs an open boundary")
    if not 0 <= direction < geom.dims:
        raise ValueError("direction out of range")
    _check_mass(mass)
    coord = geom.centered_coordinate(direction)
    coupling = t * _difference_matrix(geom, direction) if t != 0.0 else None
    return QuadraticObservable._exact(geom.n_sites, -_potential_matrix(geom, mass, coord),
                                      coupling, -np.diag(coord))


def build_rotation(geom: LatticeGeometry) -> QuadraticObservable:
    """J = sum_x [x_1 (pi d_2 phi)_x - x_2 (pi d_1 phi)_x], two dimensions only.

    On a periodic lattice the centered coordinate jumps at the wrap seam, so
    the rotation residuals concentrate there; closure checks mask the seam.
    """
    if geom.dims != 2:
        raise ValueError("rotation generator needs dims = 2")
    x1 = geom.centered_coordinate(0)
    x2 = geom.centered_coordinate(1)
    b = x1[:, None] * _difference_matrix(geom, 1) - x2[:, None] * _difference_matrix(geom, 0)
    return QuadraticObservable._exact(geom.n_sites, coupling=b)


# ---------------------------------------------------------------------------
# vacuum structure


@dataclass(frozen=True)
class ModeBasis:
    """Eigenmode data of a Hamiltonian [[V, 0], [0, I]] with V = U diag(omega^2) U^T.

    The vacuum covariance Sigma[a][b] = <0| {xi_a, xi_b}/2 |0> is
    block-diagonal, stored as covariance_phi = U diag(1/omega) U^T / 2 and
    covariance_pi = U diag(omega) U^T / 2. `frequencies` ascend, and `modes`
    is U, its columns in the same order, built on first access.
    S = diag(omega^{1/2} U^T, omega^{-1/2} U^T) satisfies S^T omega S = omega
    and maps xi to mode variables in which H is sum_k omega_k (q_k^2 + p_k^2)/2.
    """

    frequencies: np.ndarray
    covariance_phi: np.ndarray
    covariance_pi: np.ndarray
    _build_modes: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self):
        for name in ("frequencies", "covariance_phi", "covariance_pi"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @cached_property
    def modes(self) -> np.ndarray:
        return _readonly(self._build_modes())

    @property
    def n_modes(self) -> int:
        return self.frequencies.shape[0]

    @property
    def energy(self) -> float:
        """Ground-state energy 1/2 sum_k omega_k."""
        return 0.5 * float(np.sum(self.frequencies))


_DEGENERACY_TOL = 1e-10


def build_mode_basis(hamiltonian: QuadraticObservable) -> ModeBasis:
    """Diagonalize a Hamiltonian of the block form [[V, 0], [0, I]].

    A Hamiltonian made by `build_hamiltonian` (or a `shifted` copy of one)
    gets its spectrum and covariance in closed form, see `_lattice_mode_basis`;
    any other V goes through a dense `eigh`. Raises DegenerateVacuumError
    when the smallest potential eigenvalue drops to 1e-10 (no normalizable
    vacuum).
    """
    m = hamiltonian.n_modes
    pi = hamiltonian.pi
    if (hamiltonian.coupling is not None or pi is None or np.count_nonzero(pi) != m
            or not (np.diagonal(pi) == 1.0).all()):
        raise ValueError("mode basis needs a Hamiltonian with unit pi block and no cross terms")
    lattice = getattr(hamiltonian, "_lattice", None)
    if lattice is not None:
        return _lattice_mode_basis(*lattice)
    v = np.zeros((m, m)) if hamiltonian.phi is None else hamiltonian.phi
    lam, u = np.linalg.eigh(v)
    omega = _frequencies(lam)
    return ModeBasis(omega, 0.5 * ((u * (1.0 / omega)) @ u.T), 0.5 * ((u * omega) @ u.T),
                     lambda: u)


def _frequencies(lam: np.ndarray) -> np.ndarray:
    """omega = sqrt(lam) of ascending potential eigenvalues, refusing a (near) zero mode."""
    if lam[0] <= _DEGENERACY_TOL:
        raise DegenerateVacuumError(f"smallest potential eigenvalue {lam[0]:.3e}")
    return np.sqrt(lam)


def _lattice_mode_basis(geom: LatticeGeometry, mass: float) -> ModeBasis:
    """The ModeBasis of build_hamiltonian(geom, mass), with no eigendecomposition.

    V is m^2 plus one second difference per axis, so its eigenvectors are
    products of one orthonormal basis per axis. With period P = 2N for free
    ends (DCT-II columns c_k cos(pi k (j + 1/2) / N)) and P = N for a
    periodic axis (real Fourier columns: cos(2 pi k j / N) for 2k <= N, sin
    above), axis mode k has the eigenvalue mu_k = (4/a^2) sin^2(pi k / P),
    and lambda = m^2 + sum over axes of mu.

    A covariance block U diag(F) U^T then depends on each axis through
    the offset i - j, and for free ends also i + j + 1: per axis, the block
    is the cosine sum g(d) = sum_k w_k F_k cos(2 pi k d / P) at those
    offsets, Toeplitz (circulant when periodic) plus Hankel. One length-P
    rfft per axis gives g for every offset; the blocks are filled from
    strided views of it, with no M x M product.
    """
    from numpy.fft import rfft  # loaded on first use: importing lattice stays cheap

    n, dims = geom.sites_per_dim, geom.dims
    free = geom.boundary == "open"
    period = 2 * n if free else n
    k = np.arange(n)
    # k and P - k share a periodic eigenvalue; the min makes the pair bit-equal
    mu = (4.0 / geom.spacing**2) * np.sin(np.pi / period * np.minimum(k, period - k)) ** 2
    lam = mass * mass + reduce(np.add.outer, [mu] * dims)
    order = np.argsort(lam, axis=None, kind="stable")
    omega = _frequencies(lam.ravel()[order])

    # Free ends: c_k^2 cos(pi k (2i + 1) / P) cos(pi k (2j + 1) / P) is
    # (c_k^2 / 2) [cos(2 pi k (i - j) / P) + cos(2 pi k (i + j + 1) / P)], with
    # c_k^2 / 2 = 1/(2N) at k = 0 and 1/N above. Periodic: the cos and sin columns
    # of k and N - k give (1/N) cos(2 pi k (i - j) / N) for each of the two.
    weight = np.full(n, 1.0 / n)
    offsets = [np.arange(1 - n, n)]  # i - j, read through a reversed window
    if free:
        weight[0] *= 0.5
        offsets.append(np.arange(1, 2 * n))  # i + j + 1
    # g(d) = g(P - d), and rfft returns d = 0 .. P // 2
    folded = [np.minimum(d % period, -d % period) for d in offsets]
    flips = [slice(None, None, -1), slice(None)]

    def covariance(f):
        g = f * reduce(np.multiply.outer, [weight] * dims)
        for axis in range(dims):
            g = rfft(g, period, axis=axis).real
        out = None
        for terms in product(range(len(offsets)), repeat=dims):
            table = g[np.ix_(*(folded[t] for t in terms))]
            window = sliding_window_view(table, (n,) * dims)[tuple(flips[t] for t in terms)]
            if out is None:
                out = window.copy()  # C order, axes i_1 i_2 .. j_1 j_2 ..
            else:
                out += window
        return out.reshape(geom.n_sites, geom.n_sites)

    def modes():
        # the integer k (2j + 1) (free) or k 2j (periodic) is reduced mod 2P
        # before it becomes an angle, so large N loses no digits
        angle = (np.pi / period) * ((2 * np.arange(n)[:, None] + free) * k % (2 * period))
        u = np.where(2 * k > period, np.sin(angle), np.cos(angle))
        u *= np.sqrt(np.where(2 * k % period == 0, 1.0, 2.0) / n)
        full = reduce(np.multiply.outer, [u] * dims)  # axes i_1 k_1 i_2 k_2 ..
        full = full.transpose(list(range(0, 2 * dims, 2)) + list(range(1, 2 * dims, 2)))
        return full.reshape(geom.n_sites, geom.n_sites)[:, order]

    root = np.sqrt(lam)
    return ModeBasis(omega, covariance(0.5 / root), covariance(0.5 * root), modes)


def vacuum_expectation(obs: QuadraticObservable, basis: ModeBasis) -> float:
    """<0|O|0> = 1/2 tr(quad Sigma) + scalar; the vacuum has <xi> = 0."""
    if obs.n_modes != basis.n_modes:
        raise ValueError("observable and basis dimensions differ")
    # Sigma is symmetric and block-diagonal, so tr(Q Sigma) is the
    # elementwise contraction of phi and pi with their covariance blocks
    pairs = ((obs.phi, basis.covariance_phi), (obs.pi, basis.covariance_pi))
    return 0.5 * sum(float(np.sum(q * s)) for q, s in pairs if q is not None) + obs.scalar


def normal_ordered(obs: QuadraticObservable, basis: ModeBasis) -> QuadraticObservable:
    """Shift the scalar slot so the vacuum expectation vanishes."""
    return obs.shifted(-vacuum_expectation(obs, basis))


# ---------------------------------------------------------------------------
# commutators


def _product_difference(p, q, r, s):
    """p @ q - r @ s, skipping a product with a None (all-zero) factor."""
    first = None if p is None or q is None else p @ q
    second = None if r is None or s is None else r @ s
    return _blockwise(operator.sub, first, second)


def _quad_apply(obs: QuadraticObservable, vec: np.ndarray) -> np.ndarray:
    """Q v from the blocks: (phi v_phi + C^T v_pi, C v_phi + pi v_pi)."""
    m = obs.n_modes
    out = np.zeros(2 * m)
    if obs.phi is not None:
        out[:m] += obs.phi @ vec[:m]
    if obs.coupling is not None:
        out[:m] += obs.coupling.T @ vec[m:]
        out[m:] += obs.coupling @ vec[:m]
    if obs.pi is not None:
        out[m:] += obs.pi @ vec[m:]
    return out


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """(1/i)[A, B] for Weyl-ordered quadratic observables.

    The input scalar slots drop out entirely; the output scalar comes only
    from the linear x linear cross term. With both quads symmetric,
    Q_B omega Q_A = -(Q_A omega Q_B)^T, so one block product X gives the quad.
    """
    m = _same_modes(a, b)
    ca, cb = _transpose(a.coupling), _transpose(b.coupling)
    # X = Q_A omega Q_B, block (i, j) = A_i0 B_1j - A_i1 B_0j, where
    # Q_00 = phi, Q_01 = C^T, Q_10 = C and Q_11 = pi
    x00 = _product_difference(a.phi, b.coupling, ca, b.phi)
    x01 = _product_difference(a.phi, b.pi, ca, cb)
    x10 = _product_difference(a.coupling, b.coupling, a.pi, b.phi)
    x11 = _product_difference(a.coupling, b.pi, a.pi, cb)

    def omega(vec):  # omega v = (v_pi, -v_phi)
        return np.concatenate([vec[m:], -vec[:m]])

    lin = _quad_apply(a, omega(b.lin)) - _quad_apply(b, omega(a.lin))
    scalar = float(a.lin[:m] @ b.lin[m:] - a.lin[m:] @ b.lin[:m])
    pairs = ((x00, x00), (x10, x01), (x11, x11))  # phi, C, pi of X + X^T
    quad = [_blockwise(operator.add, x, _transpose(y)) for x, y in pairs]
    return QuadraticObservable._exact(m, *quad, lin, scalar)


# ---------------------------------------------------------------------------
# residual norms


def spectral_norm(obs: QuadraticObservable) -> float:
    """Largest singular value of the symmetric quad Q of `obs`, from its blocks.

    Block-diagonal: the largest |eigenvalue| of phi and pi.
    Off-diagonal [[0, C^T], [C, 0]]: the top singular value of C.
    Otherwise: the largest |eigenvalue| of the whole matrix.
    """
    if obs.coupling is None:
        return max(_max_abs_eigenvalue(blk) for blk in (obs.phi, obs.pi))
    if obs.phi is None and obs.pi is None:
        return float(np.linalg.svd(obs.coupling, compute_uv=False)[0])
    return _max_abs_eigenvalue(obs.quad)


def _max_abs_eigenvalue(sym: np.ndarray | None) -> float:
    if sym is None:
        return 0.0
    eig = np.linalg.eigvalsh(sym)
    return float(max(-eig[0], eig[-1]))


def _bulk_window(geom: LatticeGeometry) -> int:
    """Sites kept clear of every edge or seam: a quarter of each direction.

    A window of 0 would take in the edges and the seam, so N < 4 raises
    ValueError; 2 * (N // 4) < N keeps the bulk itself nonempty.
    """
    if geom.sites_per_dim < 4:
        raise ValueError(f"a bulk window needs at least 4 sites per direction, "
                         f"got {geom.sites_per_dim}")
    return geom.sites_per_dim // 4


def _bulk_sites(geom: LatticeGeometry) -> np.ndarray:
    """Flat indices of the sites at least one bulk window from every edge or seam."""
    window = _bulk_window(geom)
    return _grid(geom)[(slice(window, geom.sites_per_dim - window),) * geom.dims].ravel()


_N_PROFILES = 3


def _bump_profiles(geom: LatticeGeometry) -> list[np.ndarray]:
    """Smooth compactly-supported site profiles living strictly inside the bulk.

    The shapes are fixed functions of the physical coordinate, so refining
    the lattice samples the same continuum profiles; residual norms against
    them expose the discretization order cleanly.
    """
    n = geom.sites_per_dim
    window = _bulk_window(geom)
    keep = _bulk_sites(geom)
    j = np.arange(window, n - window)
    y = (2.0 * j - (n - 1)) / (n - 2 * window)  # strictly inside (-1, 1)
    # polynomial window: C^3 at the support edge with moderate derivative
    # bounds, so the a^2 residual term dominates already at coarse spacings
    envelope = (1.0 - y * y) ** 4
    d_envelope = -8.0 * y * (1.0 - y * y) ** 3
    profiles = []
    for nu in range(1, _N_PROFILES + 1):
        rate = 0.3 * math.pi * nu
        phase = rate * y + 0.3 * nu
        f = envelope * np.cos(phase)
        df = d_envelope * np.cos(phase) - envelope * rate * np.sin(phase)
        full = np.zeros(geom.n_sites)
        dfull = np.zeros(geom.n_sites)
        # f x ... x f and df x f x ... on the bulk sub-grid, in its C order
        full[keep] = reduce(np.multiply.outer, [f] * geom.dims).ravel()
        dfull[keep] = reduce(np.multiply.outer, [df] + [f] * (geom.dims - 1)).ravel()
        profiles.append((full, dfull))
    return profiles


def bulk_residual_norm(residual: QuadraticObservable, geom: LatticeGeometry) -> float:
    """max over smooth bulk test vectors v of |R v|_2 / |v|_2, R the quad of `residual`.

    R v is taken block by block. The raw operator norm of a finite-difference
    residual does not shrink with the spacing (the residual acts like a^2
    times a second difference, an O(1) matrix); measuring against fixed
    smooth profiles recovers the continuum convergence order.
    """
    m = geom.n_sites
    worst = 0.0
    for f, df in _bump_profiles(geom):
        for v in (
            np.concatenate([f, np.zeros(m)]),
            np.concatenate([np.zeros(m), f]),
            np.concatenate([f, df]),
        ):
            norm_v = float(np.linalg.norm(v))
            if norm_v == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(_quad_apply(residual, v))) / norm_v)
    return worst


def _masked_operator_norm(obs: QuadraticObservable, geom: LatticeGeometry) -> float:
    """Spectral norm of Q restricted to the bulk sites, in both the phi and the pi half."""
    keep = _bulk_sites(geom)
    sub = np.ix_(keep, keep)
    blocks = [None if x is None else x[sub] for x in obs.blocks]
    return spectral_norm(QuadraticObservable._exact(keep.size, *blocks))


def _check_spacings(spacings) -> None:
    for a in spacings:
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"spacings must be finite and positive, got {a!r}")
    if np.unique(np.asarray(spacings, dtype=float)).size < 2:
        raise ValueError("a convergence order needs at least two distinct spacings")


def fit_convergence_order(spacings, residuals) -> float:
    """Least-squares slope of log(residual) against log(1/a)."""
    _check_spacings(spacings)
    x = np.log(np.asarray(spacings, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# verification reports


def verify_central_relation(geom: LatticeGeometry, mass_pair) -> dict:
    """Check (1/i)[K(L), P] against H(L) - E(L) on one open lattice.

    K and P act along direction 0, and K is the t = 0 boost: t drops out of
    the bracket because [P, P] = 0.

    The raw commutator of the pure quadratic generators has scalar slot
    exactly zero; the central constant lives in the bookkeeping that splits
    the result into the normal-ordered Hamiltonian plus E(L) times identity.
    The report carries, per plate label L:

    - scalar_slot: the central scalar -E(L) of the normal-ordered H(L),
      with E(L) from the covariance-trace route,
    - ground_energy_trace / ground_energy_eigensum: E(L) by the two routes
      (full Sigma contraction vs plain frequency sum),
    - bulk_residual_norm: smooth-profile norm of the quadratic residual
      R = (1/i)[K, P] - (H - E), restricted to the bulk window,
    - full_residual_norm: spectral norm of R over the whole lattice
      (edge-dominated, not expected to shrink with the spacing).

    The momentum generator is normal-ordered in the first label's vacuum;
    the final entry reports the central-charge difference E(L0) - E(L1).
    The bulk window needs N >= 4; a smaller lattice is a ValueError.
    """
    if geom.boundary != "open":
        raise ValueError("central-relation check needs an open boundary")
    if len(mass_pair) != 2:
        raise ValueError("mass_pair must hold exactly two masses")
    for mass in mass_pair:
        _check_vacuum_mass(geom, mass)
    window = _bulk_window(geom)
    h0 = build_hamiltonian(geom, mass_pair[0])
    basis0 = build_mode_basis(h0)
    momentum = normal_ordered(build_momentum(geom, 0), basis0)

    per_label = []
    energies = []
    for label, mass in enumerate(mass_pair):
        h = h0 if label == 0 else build_hamiltonian(geom, mass)
        basis = basis0 if label == 0 else build_mode_basis(h)
        e_trace = vacuum_expectation(h, basis)
        e_eig = basis.energy
        boost = build_boost(geom, 0, 0.0, mass)
        comm = commutator(boost, momentum)
        residual = comm - h.shifted(-e_trace)
        per_label.append(
            {
                "L_label": label,
                "mass": float(mass),
                "sites": geom.sites_per_dim,
                "spacing": geom.spacing,
                "bulk_window": window,
                "scalar_slot": -e_trace,
                "ground_energy_trace": e_trace,
                "ground_energy_eigensum": e_eig,
                "scalar_discrepancy_rel": abs(e_trace - e_eig) / abs(e_eig),
                "bulk_residual_norm": bulk_residual_norm(residual, geom),
                "full_residual_norm": spectral_norm(residual),
                "commutator_scalar_raw": comm.scalar,
            }
        )
        energies.append(e_trace)
    return {"per_label": per_label, "central_charge_difference": energies[0] - energies[1]}


def central_relation_convergence(physical_size: float, spacings, mass_pair) -> dict:
    """Run verify_central_relation over a spacing sweep at fixed physical size.

    Each spacing must divide physical_size into a whole number of sites: a
    realized size sites * a more than 1e-9 relative away from physical_size
    is a ValueError, since an order fitted across different sizes measures
    the size change too. The report adds fitted convergence orders of the
    bulk residual norms.
    """
    _check_spacings(spacings)
    if not (math.isfinite(physical_size) and physical_size > 0):
        raise ValueError(f"physical size must be finite and positive, got {physical_size!r}")
    geoms = [LatticeGeometry(dims=1, sites_per_dim=round(physical_size / a), spacing=a,
                             boundary="open") for a in spacings]  # reject bad sizes up front
    for geom in geoms:
        _bulk_window(geom)
        for mass in mass_pair:
            _check_vacuum_mass(geom, mass)
        if abs(geom.physical_size - physical_size) > 1e-9 * abs(physical_size):
            raise ValueError(
                f"spacing {geom.spacing:g} gives {geom.sites_per_dim} sites of size "
                f"{geom.physical_size:.12g}, not the physical size {physical_size:g}")
    rows = [verify_central_relation(geom, mass_pair) for geom in geoms]
    orders = []
    for label in range(2):
        norms = [r["per_label"][label]["bulk_residual_norm"] for r in rows]
        orders.append(fit_convergence_order(list(spacings), norms))
    return {"spacings": list(spacings), "reports": rows, "bulk_orders": orders}


def verify_poincare_closure(geom: LatticeGeometry, mass: float) -> dict:
    """Residual norms of the vanishing brackets on a periodic lattice.

    [P_1, P_2] and [H, P_i] are translation-invariant statements and get the
    plain spectral norm. [J, H] holds in the bulk but not across the
    coordinate seam of the torus, so its norm is restricted to rows and
    columns supported N // 4 sites away from the seam; in 2-D that needs
    N >= 4, and a smaller lattice is a ValueError.
    """
    if geom.boundary != "periodic":
        raise ValueError("closure check is defined on periodic lattices")
    if geom.dims == 2:
        _bulk_window(geom)
    h = build_hamiltonian(geom, mass)
    momenta = [build_momentum(geom, d) for d in range(geom.dims)]
    out = {}
    for d, p in enumerate(momenta):
        out[f"H,P{d + 1}"] = spectral_norm(commutator(h, p))
    if geom.dims == 2:
        out["P1,P2"] = spectral_norm(commutator(momenta[0], momenta[1]))
        rot = build_rotation(geom)
        comm_jh = commutator(rot, h)
        out["J,H bulk"] = _masked_operator_norm(comm_jh, geom)
        out["J,H full"] = spectral_norm(comm_jh)
    return out


def contradiction_demo(geom: LatticeGeometry, mass: float) -> dict:
    """Why <0|H|0> = 0 cannot hold for the plain Weyl Hamiltonian.

    Every mode frequency is at least the mass (the gradient coupling is
    positive semidefinite), so the ground-state energy is bounded below by
    M * m / 2 > 0; demanding zero contradicts the commutation relations
    that fix the 1/2 per mode.
    """
    _check_vacuum_mass(geom, mass)
    h = build_hamiltonian(geom, mass)
    basis = build_mode_basis(h)
    vev = vacuum_expectation(h, basis)
    return {
        "n_modes": basis.n_modes,
        "mass": float(mass),
        "ground_energy": basis.energy,
        "vev_trace_route": vev,
        "lower_bound": 0.5 * basis.n_modes * float(mass),
        "min_frequency": float(basis.frequencies[0]),
    }
