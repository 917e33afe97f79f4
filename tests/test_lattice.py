"""Lattice observables: commutator contract, vacuum structure, closure checks."""

import math
import tracemalloc

import numpy as np
import pytest

from platevac import lattice as lat


def _from_dense(q, lin=None, scalar=0.0):
    """The observable whose Q is the symmetric part of the dense 2M x 2M matrix q."""
    q = np.asarray(q, dtype=float)
    m = q.shape[0] // 2
    coupling = 0.5 * (q[m:, :m] + q[:m, m:].T)
    return lat.QuadraticObservable(m, q[:m, :m], coupling, q[m:, m:], lin, scalar)


def _rand_obs(rng, n_modes, with_lin=True):
    dim = 2 * n_modes
    quad = rng.standard_normal((dim, dim))
    lin = rng.standard_normal(dim) if with_lin else None
    return _from_dense(quad + quad.T, lin, rng.standard_normal())


def _omega(n_modes):
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def _block_diag(top, bottom):
    m = top.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m], out[m:, m:] = top, bottom
    return out


def _covariance(basis):
    """The dense vacuum covariance Sigma = diag(covariance_phi, covariance_pi)."""
    return _block_diag(basis.covariance_phi, basis.covariance_pi)


def _dense_commutator(a, b):
    """The commutator formulas with an explicit dense omega (reference)."""
    om = _omega(a.n_modes)
    quad = a.quad @ om @ b.quad - b.quad @ om @ a.quad
    lin = a.quad @ om @ b.lin - b.quad @ om @ a.lin
    return quad, lin, float(a.lin @ om @ b.lin)


def _dense_norm(quad):
    """Spectral norm by a full dense SVD (reference)."""
    return float(np.linalg.norm(quad, 2))


# ---------------------------------------------------------------------------
# construction and geometry


def test_geometry_validation():
    with pytest.raises(ValueError):
        lat.LatticeGeometry(3, 8, 0.5)
    with pytest.raises(ValueError):
        lat.LatticeGeometry(1, 2, 0.5)
    with pytest.raises(ValueError):
        lat.LatticeGeometry(1, 8, 0.0)
    with pytest.raises(ValueError):
        lat.LatticeGeometry(1, 8, 0.5, "mixed")
    # at most 4096 sites (2-d N = 64): a larger lattice is bad input, not a
    # multi-gigabyte allocation
    assert lat.LatticeGeometry(2, 64, 0.5).n_sites == 4096
    assert lat.LatticeGeometry(1, 4096, 0.5).n_sites == 4096
    for dims, sites in ((2, 65), (1, 4097), (2, 1000), (1, 80000)):
        with pytest.raises(ValueError, match="sites"):
            lat.LatticeGeometry(dims, sites, 0.5)


def test_geometry_counts():
    g = lat.LatticeGeometry(2, 5, 0.25, "periodic")
    assert g.n_sites == 25
    assert g.physical_size == 1.25


def test_centered_coordinate_sums_to_zero():
    g = lat.LatticeGeometry(2, 6, 0.5)
    for d in (0, 1):
        c = g.centered_coordinate(d)
        assert abs(c.sum()) < 1e-12
        assert c.max() == -c.min()


def test_quad_symmetrized_and_readonly():
    upper = np.array([[1.0, 2.0], [0.0, 3.0]])
    obs = lat.QuadraticObservable(2, phi=upper, coupling=upper, pi=-upper)
    assert np.array_equal(obs.phi, np.array([[1.0, 1.0], [1.0, 3.0]]))
    assert np.array_equal(obs.pi, -obs.phi)
    assert np.array_equal(obs.coupling, upper)  # the coupling is not symmetrized
    assert np.array_equal(obs.lin, np.zeros(4)) and obs.scalar == 0.0
    assert lat.QuadraticObservable(2, phi=np.zeros((2, 2))).phi is None
    for view in (obs.quad, obs.phi, obs.coupling, obs.pi, obs.lin):
        with pytest.raises(ValueError):
            view[0, ...] = 5.0
    with pytest.raises(ValueError, match="lin length"):
        lat.QuadraticObservable(1, lin=[1.0, 2.0, 3.0])
    for block in ("phi", "coupling", "pi"):
        with pytest.raises(ValueError, match="M x M"):
            lat.QuadraticObservable(2, **{block: np.eye(3)})


def test_observable_arithmetic():
    a = _from_dense(np.eye(2), [1.0, 0.0], 2.0)
    b = _from_dense(2 * np.eye(2), [0.0, 1.0], -1.0)
    s = a + b
    assert np.array_equal(s.quad, 3 * np.eye(2))
    assert s.scalar == 1.0
    assert a.shifted(-2.0).scalar == 0.0


# ---------------------------------------------------------------------------
# commutator contract


def test_commutator_canonical_pair_examples():
    # A = q^2/2, B = p^2/2 on one pair: (1/i)[A, B] = (qp + pq)/2
    q2 = lat.QuadraticObservable(1, phi=[[1.0]])
    p2 = lat.QuadraticObservable(1, pi=[[1.0]])
    c = lat.commutator(q2, p2)
    assert np.array_equal(c.quad, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert c.scalar == 0.0
    assert np.all(c.lin == 0.0)

    q = lat.QuadraticObservable(1, lin=[1.0, 0.0])
    p = lat.QuadraticObservable(1, lin=[0.0, 1.0])
    c = lat.commutator(q, p)
    assert c.scalar == 1.0
    assert np.all(c.quad == 0.0)

    same = lat.commutator(q2, q2)
    assert np.all(same.quad == 0.0) and same.scalar == 0.0


def test_commutator_ignores_input_scalars():
    rng = np.random.default_rng(3)
    a = _rand_obs(rng, 3)
    b = _rand_obs(rng, 3)
    base = lat.commutator(a, b)
    shifted = lat.commutator(a.shifted(5.0), b.shifted(-2.5))
    assert np.array_equal(base.quad, shifted.quad)
    assert np.array_equal(base.lin, shifted.lin)
    assert base.scalar == shifted.scalar


def test_commutator_antisymmetric_bilinear():
    rng = np.random.default_rng(7)
    a, b, c = (_rand_obs(rng, 4) for _ in range(3))
    ab = lat.commutator(a, b)
    ba = lat.commutator(b, a)
    assert np.allclose(ab.quad, -ba.quad, atol=1e-13)
    assert np.allclose(ab.lin, -ba.lin, atol=1e-13)
    assert abs(ab.scalar + ba.scalar) < 1e-13
    left = lat.commutator(a + b, c)
    split = lat.commutator(a, c) + lat.commutator(b, c)
    assert np.allclose(left.quad, split.quad, atol=1e-12)
    assert np.allclose(left.lin, split.lin, atol=1e-12)
    assert abs(left.scalar - split.scalar) < 1e-12


def test_commutator_jacobi_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (_rand_obs(rng, 3) for _ in range(3))
        total = (
            lat.commutator(a, lat.commutator(b, c))
            + lat.commutator(b, lat.commutator(c, a))
            + lat.commutator(c, lat.commutator(a, b))
        )
        scale = max(np.abs(total.quad).max(), 1.0) * 0 + sum(
            np.abs(x.quad).max() + np.abs(x.lin).max() for x in (a, b, c)
        )
        assert np.abs(total.quad).max() <= 1e-10 * scale**3
        assert np.abs(total.lin).max() <= 1e-10 * scale**3
        assert abs(total.scalar) <= 1e-10 * scale**3


def test_commutator_matches_explicit_omega():
    rng = np.random.default_rng(5)
    for n_modes in (1, 2, 5):
        for with_lin in (True, False):
            a = _rand_obs(rng, n_modes, with_lin)
            b = _rand_obs(rng, n_modes, with_lin)
            quad, lin, scalar = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max() * 2 * n_modes
            assert np.abs(got.quad - quad).max() <= 1e-13 * scale
            assert np.abs(got.lin - lin).max() <= 1e-13 * scale
            assert abs(got.scalar - scalar) <= 1e-13 * max(1.0, abs(scalar))


def test_commutator_of_generators_matches_explicit_omega():
    # block-diagonal, off-diagonal and mixed quads, so every zero-block skip
    # in the block product is taken
    g = lat.LatticeGeometry(1, 12, 0.5, "open")
    basis = lat.build_mode_basis(g, 1.0)
    h = lat.build_hamiltonian(g, 1.0)
    p = lat.normal_ordered(lat.build_momentum(g, 0), basis)
    k0 = lat.build_boost(g, 0, 0.0, 1.0)
    kt = lat.build_boost(g, 0, 0.7, 1.0)
    shifted = lat.QuadraticObservable(g.n_sites, *kt.blocks, np.linspace(-1.0, 1.0, 2 * g.n_sites), 0.3)
    obs = (h, p, k0, kt, shifted)
    for a in obs:
        for b in obs:
            quad, lin, scalar = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max()
            assert np.abs(got.quad - quad).max() <= 1e-14 * scale
            assert np.abs(got.lin - lin).max() <= 1e-14 * scale
            assert got.scalar == pytest.approx(scalar, rel=1e-14, abs=1e-14)


def test_commutator_dimension_mismatch():
    a = lat.QuadraticObservable(1)
    b = lat.QuadraticObservable(2)
    with pytest.raises(ValueError):
        lat.commutator(a, b)


def test_weyl_quadratics_have_no_central_term():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _rand_obs(rng, 4, with_lin=False)
        b = _rand_obs(rng, 4, with_lin=False)
        assert lat.commutator(a, b).scalar == 0.0


# ---------------------------------------------------------------------------
# truncated Fock-space oracle for the commutator coefficients

_FOCK_DIM = 24
_SAFE = _FOCK_DIM - 8


def _fock_ops(n_modes):
    """Canonical operator matrices (q_1..q_M, p_1..p_M) on a truncated tower."""
    lower = np.diag(np.sqrt(np.arange(1, _FOCK_DIM)), 1)
    q1 = (lower + lower.T) / math.sqrt(2.0)
    p1 = 1j * (lower.T - lower) / math.sqrt(2.0)
    if n_modes == 1:
        return [q1, p1]
    eye = np.eye(_FOCK_DIM)
    return [np.kron(q1, eye), np.kron(eye, q1), np.kron(p1, eye), np.kron(eye, p1)]


def _as_operator(obs, xi):
    dim = xi[0].shape[0]
    out = obs.scalar * np.eye(dim, dtype=complex)
    for i, op in enumerate(xi):
        out += obs.lin[i] * op
    for i in range(len(xi)):
        for j in range(len(xi)):
            if obs.quad[i, j] != 0.0:
                out += 0.5 * obs.quad[i, j] * (xi[i] @ xi[j])
    return out


def _low_block(mat, n_modes):
    if n_modes == 1:
        return mat[:_SAFE, :_SAFE]
    keep = [i * _FOCK_DIM + j for i in range(_SAFE) for j in range(_SAFE)]
    return mat[np.ix_(keep, keep)]


@pytest.mark.parametrize("n_modes", [1, 2])
def test_commutator_against_fock_oracle(n_modes):
    """Every coefficient path (quad x quad, quad x lin, lin x lin) checked
    against brute-force operator algebra on a truncated oscillator tower."""
    xi = _fock_ops(n_modes)
    rng = np.random.default_rng(17 + n_modes)
    for _ in range(4):
        a = _rand_obs(rng, n_modes)
        b = _rand_obs(rng, n_modes)
        claimed = lat.commutator(a, b)
        op_a = _as_operator(a, xi)
        op_b = _as_operator(b, xi)
        oracle = (op_a @ op_b - op_b @ op_a) / 1j
        got = _low_block(_as_operator(claimed, xi), n_modes)
        want = _low_block(oracle, n_modes)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


# ---------------------------------------------------------------------------
# block storage against the dense oracles

_PATTERNS = {  # which of (phi, coupling, pi) is nonzero
    "phi": (True, False, False),
    "coupling": (False, True, False),
    "pi": (False, False, True),
    "mixed": (True, True, True),
}


def _pattern_quad(rng, m, pattern):
    phi_on, coupling_on, pi_on = _PATTERNS[pattern]
    q = np.zeros((2 * m, 2 * m))
    if phi_on:
        q[:m, :m] = _sym(rng, m)
    if pi_on:
        q[m:, m:] = _sym(rng, m)
    if coupling_on:
        c = rng.standard_normal((m, m))
        q[m:, :m] = c
        q[:m, m:] = c.T
    return q


@pytest.mark.parametrize("m", [3, 8])
def test_zero_block_patterns_match_dense_oracles(m):
    rng = np.random.default_rng(43 + m)
    basis = lat.build_mode_basis(lat.LatticeGeometry(1, m, 0.5), 1.0)
    sigma = _covariance(basis)
    obs = {}
    for pattern, on in _PATTERNS.items():
        q = _pattern_quad(rng, m, pattern)
        a = _from_dense(q, rng.standard_normal(2 * m), rng.standard_normal())
        assert [x is not None for x in (a.phi, a.coupling, a.pi)] == list(on), pattern
        assert np.array_equal(a.quad, q) and a.quad is a.quad
        obs[pattern] = a
    for name_a, a in obs.items():
        shifted = a.shifted(1.5)
        assert np.array_equal(shifted.quad, a.quad) and np.array_equal(shifted.lin, a.lin)
        assert shifted.scalar == a.scalar + 1.5
        assert abs(lat.spectral_norm(a) - _dense_norm(a.quad)) <= 1e-12 * _dense_norm(a.quad)
        vev = 0.5 * float(np.trace(a.quad @ sigma)) + a.scalar
        assert lat.vacuum_expectation(a, basis) == pytest.approx(vev, rel=1e-13, abs=1e-13)
        zero = a - a
        assert (zero.phi, zero.coupling, zero.pi) == (None, None, None)
        for name_b, b in obs.items():
            pair = (name_a, name_b)
            assert np.array_equal((a + b).quad, a.quad + b.quad), pair
            assert np.array_equal((a - b).quad, a.quad - b.quad), pair
            quad, lin, scalar = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max() * 2 * m
            assert np.abs(got.quad - quad).max() <= 1e-13 * scale, pair
            assert np.abs(got.lin - lin).max() <= 1e-13 * scale, pair
            assert abs(got.scalar - scalar) <= 1e-13 * max(1.0, abs(scalar)), pair
            want = _dense_norm(quad)
            assert abs(lat.spectral_norm(got) - want) <= 1e-12 * scale, pair


def test_dense_views_read_only_and_cached():
    g = lat.LatticeGeometry(1, 6, 0.5)
    h = lat.build_hamiltonian(g, 1.0)
    basis = lat.build_mode_basis(g, 1.0)
    for view in (h.quad, basis.frequencies, basis.covariance_phi, basis.covariance_pi):
        with pytest.raises(ValueError):
            view[0, ...] = 1.0
    assert h.quad is h.quad
    assert h.coupling is None and np.array_equal(h.pi, np.eye(6))
    assert np.array_equal(h.quad[:6, :6], h.phi) and np.array_equal(h.quad[6:, 6:], h.pi)
    assert not h.quad[:6, 6:].any() and not h.quad[6:, :6].any()


def test_central_relation_peak_memory_stays_blockwise():
    # the observables keep M x M blocks: at N = 640 the whole check stays
    # below 8 dense 2M x 2M matrices (it took 13 with dense storage)
    n = 640
    g = lat.LatticeGeometry(1, n, 8.0 / n, "open")
    dense_bytes = (2 * n) ** 2 * 8
    tracemalloc.start()
    try:
        lat.verify_central_relation(g, (math.pi, math.pi / 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dense_bytes


# ---------------------------------------------------------------------------
# Hamiltonian, spectrum, vacuum


def _eigh_frequencies(h):
    """sqrt of the eigenvalues of the phi block by dense eigh (reference)."""
    return np.sqrt(np.linalg.eigvalsh(h.phi))


def test_periodic_dispersion():
    n, a, m = 16, 0.5, 1.0
    g = lat.LatticeGeometry(1, n, a, "periodic")
    h = lat.build_hamiltonian(g, m)
    basis = lat.build_mode_basis(g, m)
    expected = np.sort(np.sqrt(m * m + (4 / a**2) * np.sin(np.pi * np.arange(n) / n) ** 2))
    assert np.abs(np.sort(basis.frequencies) - expected).max() < 1e-12
    assert np.abs(basis.frequencies - _eigh_frequencies(h)).max() < 1e-12
    assert abs(basis.frequencies.min() - m) < 1e-10  # zero-momentum mode


def test_open_dispersion_free_end_chain():
    # forward-difference gradient with free ends diagonalizes in the
    # half-angle cosine basis: omega_k^2 = m^2 + (4/a^2) sin^2(pi k / 2N)
    n, a, m = 16, 0.5, 1.0
    g = lat.LatticeGeometry(1, n, a, "open")
    h = lat.build_hamiltonian(g, m)
    basis = lat.build_mode_basis(g, m)
    expected = np.sort(np.sqrt(m * m + (4 / a**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2))
    assert np.abs(np.sort(basis.frequencies) - expected).max() < 1e-12
    assert np.abs(basis.frequencies - _eigh_frequencies(h)).max() < 1e-12


def _no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on a lattice Hamiltonian")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


@pytest.mark.parametrize("dims,n", [(1, 7), (1, 8), (1, 640), (2, 7), (2, 8)])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_closed_form_mode_basis_matches_dense_eigh(monkeypatch, dims, n, boundary):
    g = lat.LatticeGeometry(dims, n, 8.0 / n, boundary)
    h = lat.build_hamiltonian(g, 1.3)
    lam, u = np.linalg.eigh(h.phi)
    omega = np.sqrt(lam)
    _no_eigh(monkeypatch)
    basis = lat.build_mode_basis(g, 1.3)
    assert np.abs(basis.frequencies - omega).max() <= 1e-14 * omega.max()
    energy = 0.5 * math.fsum(omega)
    assert abs(basis.energy - energy) <= 1e-14 * energy
    # trace route: 1/2 tr(V Sigma_phi) + 1/2 tr(Sigma_pi) with the eigh covariance
    sigma_phi = 0.5 * ((u / omega) @ u.T)
    sigma_pi = 0.5 * ((u * omega) @ u.T)
    trace = 0.5 * (float(np.sum(h.phi * sigma_phi)) + float(np.trace(sigma_pi)))
    assert abs(lat.vacuum_expectation(h, basis) - trace) <= 1e-14 * trace
    for got, want in ((basis.covariance_phi, sigma_phi), (basis.covariance_pi, sigma_pi)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_mode_basis_symplectic_and_energy():
    g = lat.LatticeGeometry(1, 12, 0.4, "open")
    h = lat.build_hamiltonian(g, 0.7)
    basis = lat.build_mode_basis(g, 0.7)
    # a pure Gaussian state: (2 Sigma omega)^2 = -I, every symplectic eigenvalue 1/2
    s = 2.0 * _covariance(basis) @ _omega(basis.n_modes)
    assert np.abs(s @ s + np.eye(2 * basis.n_modes)).max() < 1e-10
    assert np.linalg.eigvalsh(_covariance(basis)).min() > 0
    trace_route = lat.vacuum_expectation(h, basis)
    assert abs(trace_route - basis.energy) < 1e-12 * basis.energy


def test_degenerate_vacuum_errors(monkeypatch):
    # massless chain, ring, plane or torus: the constant field is an exact zero
    # mode, found in closed form (no eigh); the massless H itself is valid
    _no_eigh(monkeypatch)
    for dims in (1, 2):
        for boundary in ("open", "periodic"):
            g = lat.LatticeGeometry(dims, 8, 0.5, boundary)
            assert lat.build_hamiltonian(g, 0.0).phi is not None
            with pytest.raises(lat.DegenerateVacuumError, match="eigenvalue 0.000e"):
                lat.build_mode_basis(g, 0.0)


def test_lattice_vacua_need_no_eigh(monkeypatch):
    # every vacuum in src comes in closed form: the central relation, the demo
    # and 2-D vacua run with eigh refused
    _no_eigh(monkeypatch)
    rep = lat.verify_central_relation(lat.LatticeGeometry(1, 16, 0.5, "open"), (math.pi, 1.0))
    assert all(row["scalar_discrepancy_rel"] < 1e-12 for row in rep["per_label"])
    demo = lat.contradiction_demo(lat.LatticeGeometry(1, 16, 0.5, "periodic"), 1.0)
    assert demo["min_frequency"] == 1.0 and demo["ground_energy"] > demo["lower_bound"]
    for boundary in ("open", "periodic"):
        basis = lat.build_mode_basis(lat.LatticeGeometry(2, 8, 0.5, boundary), 1.0)
        assert basis.n_modes == 64 and basis.frequencies[0] == 1.0


def test_vacuum_expectation_makes_no_block_temporary():
    # one contraction per block: at N = 640 one M x M block is 3.3 MB, and the
    # call allocates none
    g = lat.LatticeGeometry(1, 640, 8.0 / 640, "open")
    h = lat.build_hamiltonian(g, 1.0)
    basis = lat.build_mode_basis(g, 1.0)
    tracemalloc.start()
    try:
        lat.vacuum_expectation(h, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_negative_mass_rejected():
    # non-finite masses too: nothing downstream may be left to choke on them
    g = lat.LatticeGeometry(1, 8, 0.5)
    for mass in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lat.build_hamiltonian(g, mass)
        with pytest.raises(ValueError):
            lat.build_boost(g, 0, 0.0, mass)
        with pytest.raises(ValueError):
            lat.build_mode_basis(g, mass)


# ---------------------------------------------------------------------------
# momentum and boost generators


def test_momentum_vacuum_expectation_exactly_zero():
    for boundary in ("open", "periodic"):
        g = lat.LatticeGeometry(1, 14, 0.5, boundary)
        basis = lat.build_mode_basis(g, 1.1)
        p = lat.build_momentum(g, 0)
        # quad lives purely off-diagonal, Sigma purely block-diagonal
        assert lat.vacuum_expectation(p, basis) == 0.0


def test_momentum_normal_ordering_and_metadata():
    g = lat.LatticeGeometry(1, 14, 0.5, "open")
    basis = lat.build_mode_basis(g, 1.1)
    p = lat.normal_ordered(lat.build_momentum(g, 0), basis)
    assert p.scalar == 0.0  # Weyl expectation already vanished
    with pytest.raises(ValueError):
        lat.build_momentum(g, 1)


def test_boost_structure():
    g = lat.LatticeGeometry(1, 12, 0.5, "open")
    k0 = lat.build_boost(g, 0, 0.0, 1.0)
    m = g.n_sites
    assert np.all(k0.quad[:m, m:] == 0.0)  # t = 0: no phi-pi coupling
    basis = lat.build_mode_basis(g, 1.0)
    assert abs(lat.vacuum_expectation(k0, basis)) < 1e-12  # mirror symmetry
    kt = lat.build_boost(g, 0, 0.7, 1.0)
    p = lat.build_momentum(g, 0)
    assert np.allclose(kt.quad - k0.quad, 0.7 * p.quad, atol=1e-14)
    with pytest.raises(ValueError):
        lat.build_boost(lat.LatticeGeometry(1, 12, 0.5, "periodic"), 0, 0.0, 1.0)


def _chain_potential(n, a, mass, weight):
    """phi block of sum_x w_x h_x on a 1-D open chain, written out as a tridiagonal.

    Site x carries m^2 w_x; the bond (x, x + 1) carries its midpoint weight
    (w_x + w_{x+1}) / 2 over a^2, on both diagonal ends and negated off the
    diagonal.
    """
    mid = (weight[:-1] + weight[1:]) / 2.0
    diagonal = mass**2 * weight + (np.append(mid, 0.0) + np.insert(mid, 0, 0.0)) / a**2
    return np.diag(diagonal) - np.diag(mid / a**2, 1) - np.diag(mid / a**2, -1)


@pytest.mark.parametrize("mass", [0.0, 1.0, math.pi, math.pi / 2])
def test_potential_blocks_match_hand_written_stencil(mass):
    # H: diagonal m^2 + (bond count) / a^2, off-diagonal -1 / a^2; the boost
    # -K: diagonal m^2 x_i + adjacent bond midpoints / a^2, off-diagonal -mid / a^2
    n, a = 9, 0.4
    ones = np.ones(n)
    x = a * (np.arange(n) - (n - 1) / 2.0)
    g = lat.LatticeGeometry(1, n, a, "open")
    hand_h = _chain_potential(n, a, mass, ones)
    assert np.array_equal(np.diag(hand_h), mass**2 + np.r_[1, [2] * (n - 2), 1] / a**2)
    assert np.allclose(lat.build_hamiltonian(g, mass).phi, hand_h, rtol=1e-14, atol=0)
    boost = lat.build_boost(g, 0, 0.0, mass)
    assert np.allclose(-boost.phi, _chain_potential(n, a, mass, x), rtol=1e-14, atol=1e-13)
    assert np.array_equal(-boost.pi, np.diag(x))

    # 2-D open, site (i, j) at flat index i * n + j: each direction adds its
    # chain, and a boost weights the bonds across its direction by the
    # (constant) coordinate of their line
    g2 = lat.LatticeGeometry(2, n, a, "open")
    eye, plain = np.eye(n), _chain_potential(n, a, 0.0, ones)
    hand_h2 = np.kron(_chain_potential(n, a, mass, ones), eye) + np.kron(eye, plain)
    assert np.allclose(lat.build_hamiltonian(g2, mass).phi, hand_h2, rtol=1e-14, atol=0)
    hand_k2 = (np.kron(_chain_potential(n, a, mass, x), eye) + np.kron(np.diag(x), plain),
               np.kron(eye, _chain_potential(n, a, mass, x)) + np.kron(plain, np.diag(x)))
    for direction, hand in enumerate(hand_k2):
        got = -lat.build_boost(g2, direction, 0.0, mass).phi
        assert np.allclose(got, hand, rtol=1e-14, atol=1e-13), direction


def _chain_difference(n, a, periodic):
    """Centered difference on a 1-D chain, written out row by row.

    Interior rows are +-1/(2a) on the two neighbors. A periodic chain wraps
    them around; an open one uses the one-sided +-1/a rows at its two ends.
    """
    d = np.zeros((n, n))
    for i in range(n):
        if periodic or 0 < i < n - 1:
            d[i, (i + 1) % n], d[i, (i - 1) % n] = 1 / (2 * a), -1 / (2 * a)
    if not periodic:
        d[0, 0], d[0, 1] = -1 / a, 1 / a
        d[n - 1, n - 2], d[n - 1, n - 1] = -1 / a, 1 / a
    return d


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_momentum_blocks_match_hand_written_stencil(boundary):
    n, a = 7, 0.4
    d1 = _chain_difference(n, a, boundary == "periodic")
    if boundary == "open":
        assert d1[3, 2] == -1.25 and d1[3, 4] == 1.25 and d1[0, 1] == 2.5 and d1[6, 6] == 2.5
    else:
        assert d1[0, 6] == -1.25 and d1[6, 0] == 1.25 and d1[0, 0] == 0.0
    p = lat.build_momentum(lat.LatticeGeometry(1, n, a, boundary), 0)
    assert p.phi is None and p.pi is None
    assert np.array_equal(p.coupling, d1)
    # 2-D, site (i, j) at flat index i * n + j: direction 0 steps i, direction 1 steps j
    g2 = lat.LatticeGeometry(2, n, a, boundary)
    eye = np.eye(n)
    for direction, hand in enumerate((np.kron(d1, eye), np.kron(eye, d1))):
        p = lat.build_momentum(g2, direction)
        assert p.phi is None and p.pi is None
        assert np.array_equal(p.coupling, hand), direction


@pytest.mark.parametrize("mass", [1.0, math.pi])
def test_periodic_potential_matches_hand_written_stencil(mass):
    # a ring: every site has two bonds, and the wrap bond joins sites 0 and n - 1
    n, a = 7, 0.4
    ring = (np.diag(np.full(n, mass**2 + 2 / a**2))
            - (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)) / a**2)
    assert ring[0, n - 1] == ring[n - 1, 0] == -1 / a**2
    h = lat.build_hamiltonian(lat.LatticeGeometry(1, n, a, "periodic"), mass)
    assert np.allclose(h.phi, ring, rtol=1e-14, atol=0)
    # the torus: a Kronecker sum of two rings, the mass counted once
    plain = ring - mass**2 * np.eye(n)
    torus = np.kron(ring, np.eye(n)) + np.kron(np.eye(n), plain)
    h2 = lat.build_hamiltonian(lat.LatticeGeometry(2, n, a, "periodic"), mass)
    assert np.allclose(h2.phi, torus, rtol=1e-14, atol=0)
    assert np.array_equal(h2.pi, np.eye(n * n))


def test_rotation_requires_two_dims():
    with pytest.raises(ValueError):
        lat.build_rotation(lat.LatticeGeometry(1, 8, 0.5))


# ---------------------------------------------------------------------------
# closure residuals


def test_translation_invariance_closure_1d():
    g = lat.LatticeGeometry(1, 16, 0.5, "periodic")
    h = lat.build_hamiltonian(g, 1.0)
    p = lat.build_momentum(g, 0)
    assert np.abs(lat.commutator(h, p).quad).max() == 0.0


def test_poincare_closure_periodic_2d():
    g = lat.LatticeGeometry(2, 16, 0.5, "periodic")
    report = lat.verify_poincare_closure(g, 1.0)
    assert report["H,P1"] < 1e-12
    assert report["H,P2"] < 1e-12
    assert report["P1,P2"] < 1e-12
    assert report["J,H bulk"] < 1e-12
    # the seam carries the coordinate jump: full norm is O(N/a), not small
    assert report["J,H full"] > 1.0


def test_closure_report_matches_dense_svd():
    g = lat.LatticeGeometry(2, 12, 0.5, "periodic")
    report = lat.verify_poincare_closure(g, 1.0)
    h = lat.build_hamiltonian(g, 1.0)
    p1, p2 = lat.build_momentum(g, 0), lat.build_momentum(g, 1)
    rot = lat.build_rotation(g)
    jh = _dense_commutator(rot, h)[0]
    keep = np.arange(3, 9)
    keep = (keep[:, None] * 12 + keep[None, :]).ravel()
    idx = np.concatenate([keep, keep + g.n_sites])
    dense = {
        "H,P1": _dense_norm(_dense_commutator(h, p1)[0]),
        "H,P2": _dense_norm(_dense_commutator(h, p2)[0]),
        "P1,P2": _dense_norm(_dense_commutator(p1, p2)[0]),
        "J,H bulk": _dense_norm(jh[np.ix_(idx, idx)]),
        "J,H full": _dense_norm(jh),
    }
    assert report.keys() == dense.keys()
    scale = np.abs(h.quad).max() * np.abs(rot.quad).max() * 2 * g.n_sites
    for pair, value in dense.items():
        assert abs(report[pair] - value) <= 1e-12 * max(value, scale), pair


def _forbid_norms(monkeypatch):
    def fail(*args):
        raise AssertionError("a norm was computed before the input was rejected")
    for name in ("spectral_norm", "bulk_residual_norm", "_masked_operator_norm"):
        monkeypatch.setattr(lat, name, fail)


def test_bulk_window_needs_four_sites(monkeypatch):
    # at N = 3 the window N // 4 is 0, so the "bulk" would take in the
    # edges and the seam: rejected before any norm is computed
    _forbid_norms(monkeypatch)
    with pytest.raises(ValueError, match="at least 4 sites"):
        lat.verify_poincare_closure(lat.LatticeGeometry(2, 3, 0.5, "periodic"), 1.0)
    with pytest.raises(ValueError, match="at least 4 sites"):
        lat.verify_central_relation(lat.LatticeGeometry(1, 3, 0.1), (1.0, 2.0))
    # 0.6 / 0.1 = 6 sites, then 0.6 / 0.2 = 3: the whole sweep is refused up front
    with pytest.raises(ValueError, match="at least 4 sites"):
        lat.central_relation_convergence(0.6, [0.1, 0.2], (1.0, 2.0))
    monkeypatch.undo()
    # the 1-D closure and the demo use no bulk and keep N = 3
    ring = lat.LatticeGeometry(1, 3, 0.5, "periodic")
    assert lat.verify_poincare_closure(ring, 1.0) == {"H,P1": 0.0}
    assert lat.contradiction_demo(ring, 1.0)["n_modes"] == 3
    # N = 4 is the smallest bulk: one site off each edge
    rep = lat.verify_central_relation(lat.LatticeGeometry(1, 4, 0.5), (1.0, 2.0))
    assert rep["per_label"][0]["bulk_window"] == 1


def test_mass_bound(monkeypatch):
    # every lattice check stays finite up to m = 1e50; above it the mass is bad input
    g1, torus = lat.LatticeGeometry(1, 16, 0.5), lat.LatticeGeometry(2, 8, 0.5, "periodic")
    with np.errstate(over="raise", invalid="raise"):
        rep = lat.verify_central_relation(g1, (1e50, 1.0))
        assert all(math.isfinite(v) for row in rep["per_label"] for v in row.values())
        assert all(math.isfinite(v) for v in lat.verify_poincare_closure(torus, 1e50).values())
        assert all(math.isfinite(v) for v in lat.contradiction_demo(g1, 1e50).values())
    _forbid_norms(monkeypatch)
    for bad in (1e51, 1e154, 1e200, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="mass"):
            lat.build_hamiltonian(g1, bad)
        with pytest.raises(ValueError, match="mass"):
            lat.build_boost(g1, 0, 0.0, bad)
        with pytest.raises(ValueError, match="mass"):
            lat.verify_central_relation(g1, (1.0, bad))


def test_mass_lost_to_eigh_rounding_is_bad_input(monkeypatch):
    # eps (m^2 + 4 / a^2) / m^2 is 7.3e-3 at a = 3.5e-7 and 1.4e-2 at a = 2.5e-7, m = 1
    fine = lat.LatticeGeometry(1, 8, 3.5e-7)
    assert lat.contradiction_demo(fine, 1.0)["min_frequency"] == pytest.approx(1.0, rel=1e-2)
    _forbid_norms(monkeypatch)
    finer = lat.LatticeGeometry(1, 8, 2.5e-7)
    with pytest.raises(ValueError, match="mass 1 is lost to the rounding of V at spacing 2.5e-07"):
        lat.verify_central_relation(finer, (2.0, 1.0))
    with pytest.raises(ValueError, match="rounding of V"):
        lat.contradiction_demo(finer, 1.0)
    with pytest.raises(ValueError, match="spacing 1e-07"):  # the whole sweep, before any work
        lat.central_relation_convergence(8e-6, [1e-6, 1e-7], (1.0, 2.0))
    with pytest.raises(lat.DegenerateVacuumError):  # a zero mass keeps its own error
        lat.contradiction_demo(finer, 0.0)


def test_closure_requires_periodic():
    with pytest.raises(ValueError):
        lat.verify_poincare_closure(lat.LatticeGeometry(2, 8, 0.5, "open"), 1.0)


# ---------------------------------------------------------------------------
# normal-ordering mechanism


def test_normal_ordering_scalar_mechanism():
    g = lat.LatticeGeometry(1, 8, 0.5, "open")
    basis = lat.build_mode_basis(g, 1.0)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = _rand_obs(rng, g.n_sites)
        b = _rand_obs(rng, g.n_sites)
        na = lat.normal_ordered(a, basis)
        nb = lat.normal_ordered(b, basis)
        assert abs(lat.vacuum_expectation(na, basis)) < 1e-10
        comm = lat.commutator(a, b)
        comm_of_normal = lat.commutator(na, nb)
        normal_of_comm = lat.normal_ordered(comm, basis)
        assert np.array_equal(comm_of_normal.quad, normal_of_comm.quad)
        assert np.array_equal(comm_of_normal.lin, normal_of_comm.lin)
        vev = lat.vacuum_expectation(comm, basis)
        diff = comm_of_normal.scalar - normal_of_comm.scalar
        assert abs(diff - vev) <= 1e-10 * max(1.0, abs(vev))


# ---------------------------------------------------------------------------
# central relation


def test_central_relation_report_small_lattice():
    g = lat.LatticeGeometry(1, 16, 0.5, "open")
    rep = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    assert len(rep["per_label"]) == 2
    for row in rep["per_label"]:
        assert row["bulk_window"] == 4  # a quarter of the sites
        assert row["commutator_scalar_raw"] == 0.0  # pure quadratics
        assert row["scalar_discrepancy_rel"] < 1e-12
        assert row["scalar_slot"] == -row["ground_energy_trace"]
    e0 = rep["per_label"][0]["ground_energy_trace"]
    e1 = rep["per_label"][1]["ground_energy_trace"]
    assert rep["central_charge_difference"] == e0 - e1
    assert e0 > e1  # heavier tower stores more zero-point energy


def test_central_relation_scalar_against_closed_form():
    # independent oracle: the free-end chain dispersion summed directly
    n, a = 16, 0.5
    g = lat.LatticeGeometry(1, n, a, "open")
    rep = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    for row in rep["per_label"]:
        m = row["mass"]
        closed = 0.5 * np.sum(
            np.sqrt(m * m + (4 / a**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2)
        )
        assert abs(row["ground_energy_trace"] - closed) < 1e-9 * closed


def test_central_relation_equal_masses_zero_difference():
    g = lat.LatticeGeometry(1, 16, 0.5, "open")
    rep = lat.verify_central_relation(g, (2.0, 2.0))
    assert rep["central_charge_difference"] == 0.0


def test_central_relation_input_validation():
    open_g = lat.LatticeGeometry(1, 16, 0.5, "open")
    with pytest.raises(ValueError):
        lat.verify_central_relation(lat.LatticeGeometry(1, 16, 0.5, "periodic"), (1.0, 2.0))
    with pytest.raises(ValueError):
        lat.verify_central_relation(open_g, (1.0, 2.0, 3.0))


def test_central_relation_report_matches_dense_svd():
    n = 160
    g = lat.LatticeGeometry(1, n, 8.0 / n, "open")
    masses = (math.pi, math.pi / 2)
    rep = lat.verify_central_relation(g, masses)
    basis0 = lat.build_mode_basis(g, masses[0])
    p = lat.normal_ordered(lat.build_momentum(g, 0), basis0)
    for row, mass in zip(rep["per_label"], masses):
        h = lat.build_hamiltonian(g, mass)
        basis = lat.build_mode_basis(g, mass)
        e = lat.vacuum_expectation(h, basis)
        assert row["ground_energy_trace"] == e
        assert row["scalar_slot"] == -e
        k = lat.build_boost(g, 0, 0.0, mass)
        quad, _, scalar = _dense_commutator(k, p)
        residual = 0.5 * (quad + quad.T) - h.quad
        assert row["commutator_scalar_raw"] == scalar == 0.0
        full = _dense_norm(residual)
        assert abs(row["full_residual_norm"] - full) <= 1e-12 * full
        bulk = lat.bulk_residual_norm(_from_dense(residual), g)
        assert abs(row["bulk_residual_norm"] - bulk) <= 1e-12 * full


def test_bulk_norm_halving_step():
    # one halving of the spacing at fixed physical size: residual shrinks
    # by at least 3.6 (order about two)
    reports = {}
    for a in (0.2, 0.1):
        n = round(8.0 / a)
        g = lat.LatticeGeometry(1, n, a, "open")
        rep = lat.verify_central_relation(g, (math.pi, math.pi / 2))
        reports[a] = [row["bulk_residual_norm"] for row in rep["per_label"]]
    for label in (0, 1):
        assert reports[0.2][label] / reports[0.1][label] >= 3.6


def test_fit_convergence_order_synthetic():
    spacings = [0.4, 0.2, 0.1]
    residuals = [5.0 * a**2.07 for a in spacings]
    assert abs(lat.fit_convergence_order(spacings, residuals) - 2.07) < 1e-10


@pytest.mark.parametrize("spacings", [[0.1], [0.1, 0.1, 0.1], [], [0.2, 0.0], [0.2, math.nan],
                                      [0.2, math.inf], [0.2, -0.1]])
def test_convergence_order_needs_two_spacings(spacings):
    with pytest.raises(ValueError):
        lat.fit_convergence_order(spacings, [1.0] * len(spacings))
    with pytest.raises(ValueError):
        lat.central_relation_convergence(8.0, spacings, (1.0, 2.0))


# ---------------------------------------------------------------------------
# spectral norm


def _sym(rng, m):
    x = rng.standard_normal((m, m))
    return x + x.T


@pytest.mark.parametrize("m", [1, 2, 7, 30])
@pytest.mark.parametrize("shape", ["block-diagonal", "off-diagonal", "mixed", "zero",
                                   "phi-only", "pi-only"])
def test_spectral_norm_matches_dense_svd(m, shape):
    rng = np.random.default_rng(37 * m + len(shape))
    for _ in range(5):
        q = np.zeros((2 * m, 2 * m))
        if shape in ("block-diagonal", "mixed", "phi-only"):
            q[:m, :m] = _sym(rng, m)
        if shape in ("block-diagonal", "mixed", "pi-only"):
            q[m:, m:] = 10.0 * _sym(rng, m)
        if shape in ("off-diagonal", "mixed"):
            c = rng.standard_normal((m, m))
            q[m:, :m] = c
            q[:m, m:] = c.T
        want = _dense_norm(q)
        got = lat.spectral_norm(_from_dense(q))
        assert abs(got - want) <= 1e-12 * want if want else got == 0.0


# ---------------------------------------------------------------------------
# contradiction demo


def test_contradiction_demo_frozen():
    g = lat.LatticeGeometry(1, 16, 0.5, "open")
    rep = lat.contradiction_demo(g, 1.0)
    assert rep["n_modes"] == 16
    assert rep["lower_bound"] == 8.0
    assert rep["ground_energy"] >= rep["lower_bound"]
    assert rep["min_frequency"] >= 1.0 - 1e-10
    assert abs(rep["vev_trace_route"] - rep["ground_energy"]) < 1e-12 * rep["ground_energy"]
    assert abs(rep["ground_energy"] - 21.664591995627813) < 1e-9
