"""Quadratic observables for a massive scalar field on a finite lattice.

The canonical vector is xi = (phi_1..phi_M, pi_1..pi_M) with the lattice
measure absorbed into the variables (phi_x -> a^{dims/2} phi_x and likewise
for pi), so the commutation relations read [xi_a, xi_b] = i omega[a][b] with
omega the exact +-1 block matrix [[0, I], [-I, 0]].

Observables are at most quadratic, O = 1/2 xi^T Q xi + lin^T xi + scalar,
with Q symmetric; a symmetric Q is automatically Weyl (symmetric) ordered.
`commutator` returns the rescaled product (1/i)[A, B], which is again
quadratic with real coefficients:

    quad   = Q_A omega Q_B - Q_B omega Q_A
    lin    = Q_A omega lin_B - Q_B omega lin_A
    scalar = lin_A^T omega lin_B

Omega is never built: it is applied by indexing the phi and pi halves,
Q omega Q' = Q[:, :M] Q'[M:] - Q[:, M:] Q'[:M], with products against an
all-zero M x M block skipped, and the second quad term is the negative
transpose of the first because both Q are symmetric. Every generator here is
block-diagonal (H, the t = 0 boost) or purely off-diagonal (P, J), so most
brackets cost a few M x M products instead of dense 2M x 2M ones.

Input scalar slots never contribute (constants commute), so a commutator of
two pure Weyl quadratics carries no central term; central scalars only enter
through the normal-ordering bookkeeping handled by `verify_central_relation`.

Residual norms are spectral norms of symmetric quads, computed by
`spectral_norm` from the same block structure: the largest |eigenvalue| of
each diagonal block, the top singular value of a lone coupling block, or
the largest |eigenvalue| of the whole matrix when both kinds are present.

Spatial derivatives follow two deliberate conventions: the gradient energy
in the Hamiltonian uses forward differences (keeps the potential matrix
positive semidefinite), while the momentum generator uses centered
differences (keeps its matrix an exact generator, antisymmetric in the site
indices). Their mismatch is an O(a^2) discretization effect that the
convergence report measures instead of hiding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class LatticeGeometry:
    """Finite spatial lattice: `dims` in (1, 2), N sites per direction."""

    dims: int
    sites_per_dim: int
    spacing: float
    boundary: str = "open"

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if self.sites_per_dim < 3:
            raise ValueError("need at least 3 sites per direction")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")

    @property
    def n_sites(self) -> int:
        return self.sites_per_dim**self.dims

    @property
    def n_canonical(self) -> int:
        return 2 * self.n_sites

    @property
    def physical_size(self) -> float:
        return self.sites_per_dim * self.spacing

    def centered_coordinate(self, direction: int) -> np.ndarray:
        """Site coordinate along `direction`, centered so it sums to zero."""
        if not 0 <= direction < self.dims:
            raise ValueError("direction out of range")
        n = self.sites_per_dim
        line = self.spacing * (np.arange(n) - (n - 1) / 2.0)
        if self.dims == 1:
            return line
        if direction == 0:
            return np.repeat(line, n)
        return np.tile(line, n)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadraticObservable:
    """O = 1/2 xi^T quad xi + lin^T xi + scalar, quad symmetric (Weyl order)."""

    quad: np.ndarray
    lin: np.ndarray = None
    scalar: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.quad, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] % 2:
            raise ValueError("quad must be a square 2M x 2M matrix")
        object.__setattr__(self, "quad", _readonly(0.5 * (q + q.T)))
        lin = self.lin
        lin = np.zeros(q.shape[0]) if lin is None else np.asarray(lin, dtype=float)
        if lin.shape != (q.shape[0],):
            raise ValueError("lin length must match quad dimension")
        object.__setattr__(self, "lin", _readonly(lin))
        object.__setattr__(self, "scalar", float(self.scalar))

    @property
    def n_modes(self) -> int:
        return self.quad.shape[0] // 2

    def shifted(self, delta_scalar: float) -> "QuadraticObservable":
        return QuadraticObservable(self.quad, self.lin, self.scalar + delta_scalar)

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return QuadraticObservable(
            self.quad + other.quad, self.lin + other.lin, self.scalar + other.scalar
        )

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return QuadraticObservable(
            self.quad - other.quad, self.lin - other.lin, self.scalar - other.scalar
        )

    def __mul__(self, factor: float) -> "QuadraticObservable":
        factor = float(factor)
        return QuadraticObservable(factor * self.quad, factor * self.lin, factor * self.scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# lattice matrix assembly


def _bonds(geom: LatticeGeometry, direction: int) -> list[tuple[int, int]]:
    """Nearest-neighbor pairs (u, v) with v one step from u along `direction`."""
    n = geom.sites_per_dim
    wrap = geom.boundary == "periodic"
    steps = range(n) if wrap else range(n - 1)
    if geom.dims == 1:
        return [(i, (i + 1) % n) for i in steps]
    if direction == 0:
        return [(i * n + j, ((i + 1) % n) * n + j) for i in steps for j in range(n)]
    return [(i * n + j, i * n + (j + 1) % n) for i in range(n) for j in steps]


def _all_bonds(geom: LatticeGeometry) -> list[tuple[int, int]]:
    return [b for d in range(geom.dims) for b in _bonds(geom, d)]


def _potential_matrix(geom: LatticeGeometry, mass: float) -> np.ndarray:
    """m^2 I plus the forward-difference gradient coupling, positive semidefinite."""
    m_sites = geom.n_sites
    v = (mass * mass) * np.eye(m_sites)
    inv_a2 = 1.0 / (geom.spacing * geom.spacing)
    for u, w in _all_bonds(geom):
        v[u, u] += inv_a2
        v[w, w] += inv_a2
        v[u, w] -= inv_a2
        v[w, u] -= inv_a2
    return v


def _centered_difference_1d(n: int, spacing: float, periodic: bool) -> np.ndarray:
    d = np.zeros((n, n))
    half = 1.0 / (2.0 * spacing)
    for i in range(n):
        if periodic:
            d[i, (i + 1) % n] += half
            d[i, (i - 1) % n] -= half
        else:
            if 0 < i < n - 1:
                d[i, i + 1] += half
                d[i, i - 1] -= half
            elif i == 0:  # one-sided at the edges
                d[0, 1] += 1.0 / spacing
                d[0, 0] -= 1.0 / spacing
            else:
                d[n - 1, n - 1] += 1.0 / spacing
                d[n - 1, n - 2] -= 1.0 / spacing
    return d


def _difference_matrix(geom: LatticeGeometry, direction: int) -> np.ndarray:
    n = geom.sites_per_dim
    d1 = _centered_difference_1d(n, geom.spacing, geom.boundary == "periodic")
    if geom.dims == 1:
        return d1
    eye = np.eye(n)
    return np.kron(d1, eye) if direction == 0 else np.kron(eye, d1)


def _block_diag(phi_block: np.ndarray, pi_block: np.ndarray) -> np.ndarray:
    m = phi_block.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = phi_block
    out[m:, m:] = pi_block
    return out


def _off_diag(coupling: np.ndarray) -> np.ndarray:
    """Quadratic-form matrix of pi^T C phi: [[0, C^T], [C, 0]]."""
    m = coupling.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = coupling.T
    out[m:, :m] = coupling
    return out


def _check_mass(mass: float) -> None:
    if not (math.isfinite(mass) and mass >= 0):
        raise ValueError(f"mass must be finite and nonnegative, got {mass!r}")


def build_hamiltonian(geom: LatticeGeometry, mass: float) -> QuadraticObservable:
    """H = 1/2 sum_x [pi_x^2 + sum_i ((phi_{x+e_i} - phi_x)/a)^2 + m^2 phi_x^2].

    Scalar slot is 0 (plain Weyl form). A massless periodic lattice has an
    exact zero mode (the constant field) and is rejected outright.
    """
    _check_mass(mass)
    if mass == 0 and geom.boundary == "periodic":
        raise DegenerateVacuumError("massless periodic lattice has an exact zero mode")
    return QuadraticObservable(_block_diag(_potential_matrix(geom, mass), np.eye(geom.n_sites)))


def build_momentum(geom: LatticeGeometry, direction: int, ordering="weyl") -> QuadraticObservable:
    """Weyl-symmetrized pi * (centered difference of phi), summed over sites.

    `ordering` is either the string "weyl" or a ModeBasis, in which case the
    scalar slot is set to minus the Weyl-form vacuum expectation so the
    observable annihilates that vacuum on average.
    """
    if not 0 <= direction < geom.dims:
        raise ValueError("direction out of range")
    obs = QuadraticObservable(_off_diag(_difference_matrix(geom, direction)))
    if isinstance(ordering, str):
        if ordering != "weyl":
            raise ValueError("ordering must be 'weyl' or a ModeBasis")
        return obs
    return normal_ordered(obs, ordering)


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
    m_sites = geom.n_sites
    inv_a2 = 1.0 / (geom.spacing * geom.spacing)
    v_w = np.zeros((m_sites, m_sites))
    v_w[np.arange(m_sites), np.arange(m_sites)] = (mass * mass) * coord
    for u, w in _all_bonds(geom):
        mid = 0.5 * (coord[u] + coord[w])
        v_w[u, u] += mid * inv_a2
        v_w[w, w] += mid * inv_a2
        v_w[u, w] -= mid * inv_a2
        v_w[w, u] -= mid * inv_a2
    quad = -_block_diag(v_w, np.diag(coord))
    if t != 0.0:
        quad = quad + t * _off_diag(_difference_matrix(geom, direction))
    return QuadraticObservable(quad)


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
    return QuadraticObservable(_off_diag(b))


# ---------------------------------------------------------------------------
# vacuum structure


@dataclass(frozen=True)
class ModeBasis:
    """Eigenmode data of a Hamiltonian quadratic form.

    transform S satisfies S^T omega S = omega and maps xi to mode variables
    in which H is sum_k omega_k (q_k^2 + p_k^2)/2; vacuum_covariance is
    Sigma[a][b] = <0| {xi_a, xi_b}/2 |0>.
    """

    frequencies: np.ndarray
    transform: np.ndarray
    vacuum_covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _readonly(self.frequencies))
        object.__setattr__(self, "transform", _readonly(self.transform))
        object.__setattr__(self, "vacuum_covariance", _readonly(self.vacuum_covariance))

    @property
    def n_modes(self) -> int:
        return self.frequencies.shape[0]

    @property
    def energy(self) -> float:
        """Ground-state energy 1/2 sum_k omega_k."""
        return 0.5 * float(np.sum(self.frequencies))


def build_mode_basis(hamiltonian: QuadraticObservable, degeneracy_tol: float = 1e-10) -> ModeBasis:
    """Diagonalize a Hamiltonian of the block form [[V, 0], [0, I]].

    Raises DegenerateVacuumError when the smallest potential eigenvalue
    drops to `degeneracy_tol` (no normalizable vacuum).
    """
    q = hamiltonian.quad
    m = hamiltonian.n_modes
    v = q[:m, :m]
    if np.any(q[:m, m:] != 0) or not np.array_equal(q[m:, m:], np.eye(m)):
        raise ValueError("mode basis needs a Hamiltonian with unit pi block and no cross terms")
    lam, u = np.linalg.eigh(v)
    if lam[0] <= degeneracy_tol:
        raise DegenerateVacuumError(f"smallest potential eigenvalue {lam[0]:.3e}")
    omega = np.sqrt(lam)
    root = np.sqrt(omega)[:, None]
    s = _block_diag(root * u.T, (1.0 / root) * u.T)
    sigma = 0.5 * _block_diag((u * (1.0 / omega)) @ u.T, (u * omega) @ u.T)
    return ModeBasis(omega, s, sigma)


def vacuum_expectation(obs: QuadraticObservable, basis: ModeBasis) -> float:
    """<0|O|0> = 1/2 tr(quad Sigma) + scalar; the vacuum has <xi> = 0."""
    sigma = basis.vacuum_covariance
    if obs.quad.shape != sigma.shape:
        raise ValueError("observable and basis dimensions differ")
    # Sigma is symmetric, so tr(Q Sigma) is the elementwise contraction
    return 0.5 * float(np.sum(obs.quad * sigma)) + obs.scalar


def normal_ordered(obs: QuadraticObservable, basis: ModeBasis) -> QuadraticObservable:
    """Shift the scalar slot so the vacuum expectation vanishes."""
    return obs.shifted(-vacuum_expectation(obs, basis))


# ---------------------------------------------------------------------------
# commutators


def _blocks(quad: np.ndarray) -> list[list[np.ndarray | None]]:
    """The four M x M blocks [[phi-phi, phi-pi], [pi-phi, pi-pi]], None where all zero."""
    m = quad.shape[0] // 2
    halves = (slice(0, m), slice(m, 2 * m))
    blocks = [[quad[r, c] for c in halves] for r in halves]
    return [[blk if blk.any() else None for blk in row] for row in blocks]


def _omega_product(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Q_A omega Q_B, block (i, j) = A_i0 B_1j - A_i1 B_0j, zero-block products skipped."""
    m = qa.shape[0] // 2
    a, b = _blocks(qa), _blocks(qb)
    out = np.zeros_like(qa)
    for i in range(2):
        for j in range(2):
            block = out[i * m:(i + 1) * m, j * m:(j + 1) * m]
            if a[i][0] is not None and b[1][j] is not None:
                block += a[i][0] @ b[1][j]
            if a[i][1] is not None and b[0][j] is not None:
                block -= a[i][1] @ b[0][j]
    return out


def _omega_apply(quad: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Q omega v, with omega v = (v_pi, -v_phi)."""
    m = quad.shape[0] // 2
    return quad[:, :m] @ vec[m:] - quad[:, m:] @ vec[:m]


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """(1/i)[A, B] for Weyl-ordered quadratic observables.

    The input scalar slots drop out entirely; the output scalar comes only
    from the linear x linear cross term. With both quads symmetric,
    Q_B omega Q_A = -(Q_A omega Q_B)^T, so one block product gives the quad.
    """
    if a.quad.shape != b.quad.shape:
        raise ValueError("observable dimensions differ")
    m = a.n_modes
    x = _omega_product(a.quad, b.quad)
    lin = _omega_apply(a.quad, b.lin) - _omega_apply(b.quad, a.lin)
    scalar = float(a.lin[:m] @ b.lin[m:] - a.lin[m:] @ b.lin[:m])
    return QuadraticObservable(x + x.T, lin, scalar)


# ---------------------------------------------------------------------------
# residual norms


def spectral_norm(quad: np.ndarray) -> float:
    """Largest singular value of a symmetric 2M x 2M quad, from its block structure.

    Block-diagonal: the largest |eigenvalue| of the two M x M blocks.
    Off-diagonal [[0, C^T], [C, 0]]: the top singular value of C.
    Otherwise: the largest |eigenvalue| of the whole matrix.
    """
    quad = np.asarray(quad, dtype=float)
    if quad.ndim != 2 or quad.shape[0] != quad.shape[1] or quad.shape[0] % 2:
        raise ValueError("quad must be a square 2M x 2M matrix")
    if not np.array_equal(quad, quad.T):
        raise ValueError("spectral_norm needs a symmetric quad")
    (phi, coupling), (_, pi) = _blocks(quad)
    if coupling is None:
        return max(_max_abs_eigenvalue(blk) for blk in (phi, pi))
    if phi is None and pi is None:
        return float(np.linalg.svd(coupling, compute_uv=False)[0])
    return _max_abs_eigenvalue(quad)


def _max_abs_eigenvalue(sym: np.ndarray | None) -> float:
    if sym is None:
        return 0.0
    eig = np.linalg.eigvalsh(sym)
    return float(max(-eig[0], eig[-1]))


def _bulk_sites(geom: LatticeGeometry, window: int) -> np.ndarray:
    """Flat indices of sites at least `window` sites from every edge or seam."""
    n = geom.sites_per_dim
    if 2 * window >= n:
        raise ValueError(f"lattice too small for bulk window {window}")
    keep1d = np.arange(window, n - window)
    if geom.dims == 1:
        return keep1d
    return (keep1d[:, None] * n + keep1d[None, :]).ravel()


def _bump_profiles(geom: LatticeGeometry, window: int, count: int) -> list[np.ndarray]:
    """Smooth compactly-supported site profiles living strictly inside the bulk.

    The shapes are fixed functions of the physical coordinate, so refining
    the lattice samples the same continuum profiles; residual norms against
    them expose the discretization order cleanly.
    """
    n = geom.sites_per_dim
    j = np.arange(window, n - window)
    y = (2.0 * j - (n - 1)) / (n - 2 * window)  # strictly inside (-1, 1)
    # polynomial window: C^3 at the support edge with moderate derivative
    # bounds, so the a^2 residual term dominates already at coarse spacings
    envelope = (1.0 - y * y) ** 4
    d_envelope = -8.0 * y * (1.0 - y * y) ** 3
    profiles = []
    for nu in range(1, count + 1):
        rate = 0.3 * math.pi * nu
        phase = rate * y + 0.3 * nu
        f = envelope * np.cos(phase)
        df = d_envelope * np.cos(phase) - envelope * rate * np.sin(phase)
        full = np.zeros(geom.n_sites)
        dfull = np.zeros(geom.n_sites)
        if geom.dims == 1:
            full[j] = f
            dfull[j] = df
        else:
            idx = (j[:, None] * n + j[None, :]).ravel()
            full[idx] = np.outer(f, f).ravel()
            dfull[idx] = np.outer(df, f).ravel()
        profiles.append((full, dfull))
    return profiles


def bulk_residual_norm(
    quad_residual: np.ndarray, geom: LatticeGeometry, window: int, n_profiles: int = 3
) -> float:
    """max over smooth bulk test vectors v of |R v|_2 / |v|_2.

    The raw operator norm of a finite-difference residual does not shrink
    with the spacing (the residual acts like a^2 times a second difference,
    an O(1) matrix); measuring against fixed smooth profiles recovers the
    continuum convergence order.
    """
    m = geom.n_sites
    worst = 0.0
    for f, df in _bump_profiles(geom, window, n_profiles):
        for v in (
            np.concatenate([f, np.zeros(m)]),
            np.concatenate([np.zeros(m), f]),
            np.concatenate([f, df]),
        ):
            norm_v = float(np.linalg.norm(v))
            if norm_v == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(quad_residual @ v)) / norm_v)
    return worst


def _masked_operator_norm(quad: np.ndarray, geom: LatticeGeometry, window: int) -> float:
    keep = _bulk_sites(geom, window)
    idx = np.concatenate([keep, keep + geom.n_sites])
    return spectral_norm(quad[np.ix_(idx, idx)])


def _check_spacings(spacings) -> None:
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


def verify_central_relation(
    geom: LatticeGeometry,
    mass_pair,
    direction: int = 0,
    t: float = 0.0,
    bulk_window: int | None = None,
) -> dict:
    """Check (1/i)[K(L), P] against H(L) - E(L) on one open lattice.

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
      (edge-dominated, not expected to shrink with the spacing),
    - commutator_vev: vacuum expectation of the raw commutator, a
      discretization diagnostic.

    The momentum generator is normal-ordered in the first label's vacuum;
    the final entry reports the central-charge difference E(L0) - E(L1).
    """
    if geom.boundary != "open":
        raise ValueError("central-relation check needs an open boundary")
    if len(mass_pair) != 2:
        raise ValueError("mass_pair must hold exactly two masses")
    window = geom.sites_per_dim // 4 if bulk_window is None else bulk_window
    _bulk_sites(geom, window)  # validate early

    h0 = build_hamiltonian(geom, mass_pair[0])
    basis0 = build_mode_basis(h0)
    momentum = build_momentum(geom, direction, ordering=basis0)

    per_label = []
    energies = []
    for label, mass in enumerate(mass_pair):
        h = h0 if label == 0 else build_hamiltonian(geom, mass)
        basis = basis0 if label == 0 else build_mode_basis(h)
        e_trace = vacuum_expectation(h, basis)
        e_eig = basis.energy
        boost = build_boost(geom, direction, t, mass)
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
                "bulk_residual_norm": bulk_residual_norm(residual.quad, geom, window),
                "full_residual_norm": spectral_norm(residual.quad),
                "commutator_scalar_raw": comm.scalar,
                "commutator_vev": vacuum_expectation(comm, basis),
            }
        )
        energies.append(e_trace)
    return {
        "direction": direction,
        "per_label": per_label,
        "central_charge_difference": energies[0] - energies[1],
    }


def central_relation_convergence(
    physical_size: float,
    spacings,
    mass_pair,
    direction: int = 0,
    t: float = 0.0,
) -> dict:
    """Run verify_central_relation over a spacing sweep at fixed physical size.

    Site counts are physical_size / a rounded to the nearest integer; the
    report adds fitted convergence orders of the bulk residual norms.
    """
    _check_spacings(spacings)
    rows = []
    for a in spacings:
        n = round(physical_size / a)
        geom = LatticeGeometry(dims=1, sites_per_dim=n, spacing=a, boundary="open")
        rows.append(verify_central_relation(geom, mass_pair, direction, t))
    orders = []
    for label in range(2):
        norms = [r["per_label"][label]["bulk_residual_norm"] for r in rows]
        orders.append(fit_convergence_order(list(spacings), norms))
    return {"spacings": list(spacings), "reports": rows, "bulk_orders": orders}


def verify_poincare_closure(geom: LatticeGeometry, mass: float, bulk_window: int | None = None) -> dict:
    """Residual norms of the vanishing brackets on a periodic lattice.

    [P_1, P_2] and [H, P_i] are translation-invariant statements and get the
    plain spectral norm. [J, H] holds in the bulk but not across the
    coordinate seam of the torus, so its norm is restricted to rows and
    columns supported `bulk_window` sites away from the seam.
    """
    if geom.boundary != "periodic":
        raise ValueError("closure check is defined on periodic lattices")
    window = geom.sites_per_dim // 4 if bulk_window is None else bulk_window
    h = build_hamiltonian(geom, mass)
    momenta = [build_momentum(geom, d) for d in range(geom.dims)]
    out = {}
    for d, p in enumerate(momenta):
        out[f"H,P{d + 1}"] = spectral_norm(commutator(h, p).quad)
    if geom.dims == 2:
        out["P1,P2"] = spectral_norm(commutator(momenta[0], momenta[1]).quad)
        rot = build_rotation(geom)
        comm_jh = commutator(rot, h)
        out["J,H bulk"] = _masked_operator_norm(comm_jh.quad, geom, window)
        out["J,H full"] = spectral_norm(comm_jh.quad)
    return out


def contradiction_demo(geom: LatticeGeometry, mass: float) -> dict:
    """Why <0|H|0> = 0 cannot hold for the plain Weyl Hamiltonian.

    Every mode frequency is at least the mass (the gradient coupling is
    positive semidefinite), so the ground-state energy is bounded below by
    M * m / 2 > 0; demanding zero contradicts the commutation relations
    that fix the 1/2 per mode.
    """
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
