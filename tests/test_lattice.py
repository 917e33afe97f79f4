"""Lattice observables: commutator contract, vacuum structure, closure checks."""

import itertools
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from platevac import lattice as lat


def _block(x):
    """The DiagonalBlock of a dense M x M matrix: its nonzero diagonals, empty if it has none."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    offsets = np.arange(1 - m, m)
    cols = np.arange(m) + offsets[:, None]
    data = np.where((cols >= 0) & (cols < m), x[np.arange(m), np.clip(cols, 0, m - 1)], 0.0)
    keep = data.any(axis=1)
    return lat.DiagonalBlock(offsets[keep], data[keep])


def _sym_block(x):
    """The DiagonalBlock of the symmetric part of a dense M x M matrix."""
    x = np.asarray(x, dtype=float)
    return _block(0.5 * (x + x.T))


def _rotation(geom):
    """J on a 2-d lattice, from its centered differences as the closure check builds it."""
    return lat._rotation(geom, [lat._difference_matrix(geom, d) for d in range(2)])


def _bulk_norm(residual, geom):
    """The bulk residual norm on `geom`'s test vectors, as the central check takes it."""
    return lat._bulk_residual_norm(residual, lat._bulk_test_vectors(geom))


def _from_dense(q, scalar=0.0):
    """The observable whose Q is the symmetric part of the dense 2M x 2M matrix q."""
    q = np.asarray(q, dtype=float)
    m = q.shape[0] // 2
    coupling = _block(0.5 * (q[m:, :m] + q[:m, m:].T))
    return lat.QuadraticObservable(m, _sym_block(q[:m, :m]), coupling, _sym_block(q[m:, m:]),
                                   scalar)


def _rand_obs(rng, n_modes):
    dim = 2 * n_modes
    quad = rng.standard_normal((dim, dim))
    return _from_dense(quad + quad.T, rng.standard_normal())


def _omega(n_modes):
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def _all_blocks(obs, size):
    """Whether every block of `obs` is a size x size DiagonalBlock."""
    return all(isinstance(x, lat.DiagonalBlock) and x.size == size for x in obs.blocks)


def _block_diag(top, bottom):
    m = top.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m], out[m:, m:] = top, bottom
    return out


def _sigma(basis, block):
    """The dense covariance block Sigma_phi or Sigma_pi, evaluated on every diagonal."""
    m = basis.n_modes
    offsets = np.arange(1 - m, m)
    return lat.DiagonalBlock(offsets, basis.covariance(block, offsets)).dense()


def _covariance(basis):
    """The dense vacuum covariance Sigma = diag(Sigma_phi, Sigma_pi)."""
    return _block_diag(_sigma(basis, "phi"), _sigma(basis, "pi"))


def _dense_commutator(a, b):
    """The commutator's quad with an explicit dense omega (reference); its scalar is 0."""
    om = _omega(a.n_modes)
    return a.quad @ om @ b.quad - b.quad @ om @ a.quad


def _quad_apply(obs, vec):
    """Q v from the blocks, (phi v_phi + C^T v_pi, C v_phi + pi v_pi), along vec's last axis."""
    v_phi, v_pi = vec[..., :obs.n_modes], vec[..., obs.n_modes:]
    return np.concatenate([obs.phi.dot(v_phi) + obs.coupling.T.dot(v_pi),
                           obs.coupling.dot(v_phi) + obs.pi.dot(v_pi)], axis=-1)


def _phi(obs):
    """The dense phi block, a slice of the .quad view."""
    return obs.quad[: obs.n_modes, : obs.n_modes]


def _coupling(obs):
    return obs.quad[obs.n_modes :, : obs.n_modes]


def _pi(obs):
    return obs.quad[obs.n_modes :, obs.n_modes :]


def _dense_norm(quad):
    """Spectral norm by a full dense SVD (reference)."""
    return float(np.linalg.norm(quad, 2))


def _check_norm(obs, want, tol):
    """spectral_norm(obs) is within tol of want, or a ValueError for a mixed quad."""
    if obs.coupling and (obs.phi or obs.pi):
        with pytest.raises(ValueError, match="coupling block beside a phi or pi block"):
            lat.spectral_norm(obs)
    else:
        assert abs(lat.spectral_norm(obs) - want) <= tol


# ---------------------------------------------------------------------------
# construction and geometry


def test_geometry_validation():
    with pytest.raises(ValueError):
        lat.LatticeGeometry(3, 8, 0.5)
    with pytest.raises(ValueError):
        lat.LatticeGeometry(1, 2, 0.5)
    for spacing in (0.0, -0.5, math.inf, math.nan, 1e155, 1e-160):
        with pytest.raises(ValueError, match="spacing"):
            lat.LatticeGeometry(1, 8, spacing)
    with pytest.raises(ValueError):
        lat.LatticeGeometry(1, 8, 0.5, "mixed")
    # at most 4096 sites (2-d N = 64): a larger lattice is bad input, not a
    # multi-gigabyte allocation
    assert lat.LatticeGeometry(2, 64, 0.5).n_sites == 4096
    assert lat.LatticeGeometry(1, 4096, 0.5).n_sites == 4096
    for dims, sites in ((2, 65), (1, 4097), (2, 1000), (1, 80000)):
        with pytest.raises(ValueError, match="sites"):
            lat.LatticeGeometry(dims, sites, 0.5)


def test_geometry_takes_integer_sizes_only():
    # 4.5 sites per direction once built a lattice of 20.25 sites, and dims = 1.0
    # passed as 1; numpy integers are stored as ints
    for dims, sites in ((2, 4.5), (1, 8.0), (1.0, 8), (2.0, 8), (1, "8"), (None, 8), (1, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            lat.LatticeGeometry(dims, sites, 0.5)
    g = lat.LatticeGeometry(np.int64(2), np.int32(5), 0.5)
    assert (type(g.dims), type(g.sites_per_dim), g.n_sites) == (int, int, 25)
    assert g == lat.LatticeGeometry(2, 5, 0.5)


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
    obs = lat.QuadraticObservable(2, phi=_sym_block(upper), coupling=_block(upper),
                                  pi=_sym_block(-upper))
    assert np.array_equal(_phi(obs), np.array([[1.0, 1.0], [1.0, 3.0]]))
    assert np.array_equal(_pi(obs), -_phi(obs))
    assert np.array_equal(_coupling(obs), upper)  # the coupling is not symmetrized
    assert obs.scalar == 0.0
    zero = _block(np.zeros((2, 2)))
    assert not zero and zero.offsets.shape == (0,) and zero.data.shape == (0, 2)
    views = [obs.quad] + [x for block in obs.blocks for x in (block.offsets, block.data)]
    for view in views:
        with pytest.raises(ValueError):
            view[0, ...] = 5.0
    # an observable rebuilds from another's blocks and scalar
    again = lat.QuadraticObservable(2, *obs.blocks, 0.3)
    assert again.blocks == obs.blocks and np.array_equal(again.quad, obs.quad)
    assert again.scalar == 0.3
    for block in ("phi", "coupling", "pi"):
        for bad in (np.eye(2), np.eye(3), _block(np.eye(3)), [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="M x M"):
                lat.QuadraticObservable(2, **{block: bad})


def test_observable_arithmetic():
    a = _from_dense(np.eye(2), 2.0)
    b = _from_dense(2 * np.eye(2), -1.0)
    s = a + b
    assert np.array_equal(s.quad, 3 * np.eye(2))
    assert s.scalar == 1.0
    assert a.shifted(-2.0).scalar == 0.0


# ---------------------------------------------------------------------------
# commutator contract


def test_commutator_canonical_pair_examples():
    # A = q^2/2, B = p^2/2 on one pair: (1/i)[A, B] = (qp + pq)/2
    q2 = lat.QuadraticObservable(1, phi=_block([[1.0]]))
    p2 = lat.QuadraticObservable(1, pi=_block([[1.0]]))
    c = lat.commutator(q2, p2)
    assert np.array_equal(c.quad, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert c.scalar == 0.0

    same = lat.commutator(q2, q2)
    assert np.all(same.quad == 0.0) and same.scalar == 0.0


def test_commutator_ignores_input_scalars():
    rng = np.random.default_rng(3)
    a = _rand_obs(rng, 3)
    b = _rand_obs(rng, 3)
    base = lat.commutator(a, b)
    shifted = lat.commutator(a.shifted(5.0), b.shifted(-2.5))
    assert np.array_equal(base.quad, shifted.quad)
    assert base.scalar == shifted.scalar


def test_commutator_antisymmetric_bilinear():
    rng = np.random.default_rng(7)
    a, b, c = (_rand_obs(rng, 4) for _ in range(3))
    ab = lat.commutator(a, b)
    ba = lat.commutator(b, a)
    assert np.allclose(ab.quad, -ba.quad, atol=1e-13)
    assert abs(ab.scalar + ba.scalar) < 1e-13
    left = lat.commutator(a + b, c)
    split = lat.commutator(a, c) + lat.commutator(b, c)
    assert np.allclose(left.quad, split.quad, atol=1e-12)
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
            np.abs(x.quad).max() for x in (a, b, c)
        )
        assert np.abs(total.quad).max() <= 1e-10 * scale**3
        assert abs(total.scalar) <= 1e-10 * scale**3


def test_commutator_matches_explicit_omega():
    rng = np.random.default_rng(5)
    for n_modes in (1, 2, 5):
        for _ in range(2):
            a = _rand_obs(rng, n_modes)
            b = _rand_obs(rng, n_modes)
            quad = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max() * 2 * n_modes
            assert np.abs(got.quad - quad).max() <= 1e-13 * scale
            assert got.scalar == 0.0


def test_commutator_of_generators_matches_explicit_omega():
    # block-diagonal, off-diagonal and mixed quads, so every zero-block skip
    # in the block product is taken
    g = lat.LatticeGeometry(1, 12, 0.5, "open")
    basis = lat.build_mode_basis(g, 1.0)
    h = lat.build_hamiltonian(g, 1.0)
    p = lat.normal_ordered(lat.build_momentum(g, 0), basis)
    k0 = lat.build_boost(g, 0, 0.0, 1.0)
    kt = lat.build_boost(g, 0, 0.7, 1.0)
    shifted = kt.shifted(0.3)
    obs = (h, p, k0, kt, shifted)
    for a in obs:
        for b in obs:
            quad = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max()
            assert np.abs(got.quad - quad).max() <= 1e-14 * scale
            assert got.scalar == 0.0


def test_commutator_dimension_mismatch():
    a = lat.QuadraticObservable(1)
    b = lat.QuadraticObservable(2)
    with pytest.raises(ValueError):
        lat.commutator(a, b)


def test_weyl_quadratics_have_no_central_term():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _rand_obs(rng, 4)
        b = _rand_obs(rng, 4)
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
    """The quad and scalar of the commutator checked against brute-force
    operator algebra on a truncated oscillator tower."""
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
        a = _from_dense(q, rng.standard_normal())
        assert [bool(x) for x in a.blocks] == list(on), pattern
        assert np.array_equal(a.quad, q) and a.quad is a.quad
        obs[pattern] = a
    for name_a, a in obs.items():
        shifted = a.shifted(1.5)
        assert np.array_equal(shifted.quad, a.quad)
        assert shifted.scalar == a.scalar + 1.5
        _check_norm(a, _dense_norm(a.quad), 1e-12 * _dense_norm(a.quad))
        vev = 0.5 * float(np.trace(a.quad @ sigma)) + a.scalar
        assert lat.vacuum_expectation(a, basis) == pytest.approx(vev, rel=1e-13, abs=1e-13)
        zero = a - a
        assert not any(zero.blocks) and all(x.size == m for x in zero.blocks)
        for name_b, b in obs.items():
            pair = (name_a, name_b)
            assert np.array_equal((a + b).quad, a.quad + b.quad), pair
            assert np.array_equal((a - b).quad, a.quad - b.quad), pair
            assert _all_blocks(a + b, m) and _all_blocks(a - b, m), pair
            quad = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max() * 2 * m
            assert np.abs(got.quad - quad).max() <= 1e-13 * scale, pair
            assert got.scalar == 0.0, pair
            _check_norm(got, _dense_norm(quad), 1e-12 * scale)


def test_dense_views_read_only_and_cached():
    g = lat.LatticeGeometry(1, 6, 0.5)
    h = lat.build_hamiltonian(g, 1.0)
    basis = lat.build_mode_basis(g, 1.0)
    for view in (h.quad, basis.frequencies, basis.cosine_phi, basis.cosine_pi):
        with pytest.raises(ValueError):
            view[0, ...] = 1.0
    # a basis compares and hashes by identity, as an observable does
    assert basis == basis and len({basis, lat.build_mode_basis(g, 1.0)}) == 2
    assert h.quad is h.quad
    assert not h.coupling and np.array_equal(_pi(h), np.eye(6))
    assert np.array_equal(_phi(h), h.phi.dense()) and np.array_equal(_pi(h), h.pi.dense())
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


def _central_residual(geom, mass):
    """(1/i)[K, P] - (H - E) at t = 0, the residual of the central check."""
    h = lat.build_hamiltonian(geom, mass)
    shift = lat.vacuum_expectation(h, lat.build_mode_basis(geom, mass))
    comm = lat.commutator(lat.build_boost(geom, 0, 0.0, mass), lat.build_momentum(geom, 0))
    return comm - h.shifted(-shift)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closure_and_bulk_norm_peaks_stay_bounded():
    # no product or norm makes a temporary of k_A k_B M entries or a stack of
    # all nine test vectors: 554 and 199 KiB here, 1368 and 368 KiB with them
    g2 = lat.LatticeGeometry(2, 24, 0.5, "periodic")
    lat.verify_poincare_closure(g2, 1.0)  # numpy's first-call allocations stay out of the peak
    assert _traced_peak(lambda: lat.verify_poincare_closure(g2, 1.0)) < 650 * 1024
    n = 640
    g1 = lat.LatticeGeometry(1, n, 8.0 / n, "open")
    residual = _central_residual(g1, math.pi)
    assert _traced_peak(lambda: _bulk_norm(residual, g1)) < 220 * 1024


# ---------------------------------------------------------------------------
# diagonal (DIA) storage against dense arithmetic


def _on_diagonals(rng, m, offsets):
    """A dense M x M matrix with random entries on exactly these diagonals."""
    x = np.zeros((m, m))
    for o in offsets:
        rows = np.arange(max(0, -o), min(m, m - o))
        x[rows, rows + o] = rng.uniform(0.5, 1.5, rows.size) * rng.choice([-1.0, 1.0], rows.size)
    return x


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_diagonal_blocks_match_dense_matrices(m):
    rng = np.random.default_rng(59 + m)
    dense = [
        rng.standard_normal((m, m)),  # every offset
        _on_diagonals(rng, m, [m - 1]),  # the corner alone
        _on_diagonals(rng, m, [-1, 0, 1]),
        _on_diagonals(rng, m, [1 - m, 0, m - 1]),  # the wrap offsets of a ring
        np.zeros((m, m)),  # the empty block
    ]
    # every site, a random subset in random order, and the bulk window of a chain
    keeps = [np.arange(m), rng.permutation(m)[:m // 2 + 1]]
    if m >= 4:
        keeps.append(lat._bulk_sites(lat.LatticeGeometry(1, m, 1.0)))
    for x in dense:
        b = _block(x)
        rows, cols = np.nonzero(x)
        assert b.offsets.tolist() == sorted(set((cols - rows).tolist()))
        assert np.array_equal(b.dense(), x) and np.array_equal(b.T.dense(), x.T)
        for keep in keeps:  # read off the diagonals, bit-equal to the cut dense matrix
            assert b.dense(keep).tobytes() == b.dense()[np.ix_(keep, keep)].tobytes()
        for keep, cols in itertools.product(keeps, repeat=2):  # and its rectangular cuts
            assert b.dense(keep, cols).tobytes() == b.dense()[np.ix_(keep, cols)].tobytes()
        assert np.array_equal((-b).dense(), -x)
        v = rng.standard_normal(m)
        assert np.array_equal(b.scaled(v).dense(), v[:, None] * x)
        assert np.abs(b.dot(v) - x @ v).max() <= 1e-14 * np.abs(x).sum() * np.abs(v).max()
        square = b @ b
        assert not b - b and not square - b @ b  # exact cancellation
        for y in dense:
            c = _block(y)
            assert np.array_equal((b + c).dense(), x + y)
            assert np.array_equal((b - c).dense(), x - y)
            got = b @ c
            assert got.size == m and (not got or got.offsets.max() < m and got.offsets.min() > -m)
            got = got.dense()
            scale = np.abs(x).max() * np.abs(y).max() * m
            assert np.abs(got - x @ y).max() <= 1e-14 * scale
    if m > 1:
        corner = _block(dense[1])
        assert not corner @ corner and (corner @ corner).size == m  # offset 2M - 2 leaves it
        assert (corner @ _block(dense[2])).offsets.tolist() == [m - 2, m - 1]  # M dropped


# ---------------------------------------------------------------------------
# the array-only kernels and the cell-list builders, kept as oracles of the
# kernels that number offsets on Python ints and of the direct stencil assembly


def _oracle_matmul(a, b):
    """A @ B: one gather, offsets numbered by np.unique, one bincount over the (q, p) pairs."""
    if not (a and b):
        return lat._zero(a.size)
    m = a.size
    gathered = b.data.take(lat._columns(a.offsets, m), axis=1, mode="clip")
    offsets, target = np.unique((b.offsets[:, None] + a.offsets).ravel(), return_inverse=True)
    cells = lat._columns(target * m, m).ravel()
    data = np.bincount(cells, (gathered * a.data).ravel(), offsets.size * m)
    return lat._diagonals(offsets, data.reshape(offsets.size, m))


def _oracle_transpose(b):
    """B^T by one np.where over a flat gather of B's rows."""
    if not b:
        return b
    m, k = b.size, b.offsets.size
    offsets = -b.offsets[::-1]
    rows = lat._columns(offsets, m)
    flat = rows + m * np.arange(k - 1, -1, -1)[:, None]
    inside = (rows >= 0) & (rows < m)
    return lat.DiagonalBlock(offsets, np.where(inside, b.data.take(flat, mode="clip"), 0.0))


def _oracle_merge(a, b, op):
    """A + B or A - B on the np.union1d of their offsets."""
    if not b:
        return a
    if not a:
        return b if op is operator.add else -b
    offsets = np.union1d(a.offsets, b.offsets)
    data = np.zeros((offsets.size, a.size))
    data[np.searchsorted(offsets, a.offsets)] = a.data
    rows = np.searchsorted(offsets, b.offsets)
    data[rows] = op(data[rows], b.data)
    return lat._diagonals(offsets, data)


def _oracle_dot(b, vec):
    """B v by a clipped take of every diagonal's columns."""
    gathered = vec.take(lat._columns(b.offsets, b.size), axis=-1, mode="clip")
    return (b.data * gathered).sum(-2)


def _oracle_from_cells(m, cells):
    """The M x M block that adds each value into its cell, (rows, cols, values) groups in order."""
    cells = [tuple(map(np.ravel, group)) for group in cells]
    offsets = np.unique(np.concatenate([cols - rows for rows, cols, _ in cells]))
    flat = np.concatenate([np.searchsorted(offsets, cols - rows) * m + rows
                           for rows, cols, _ in cells])
    data = np.bincount(flat, np.concatenate([v for *_, v in cells]), offsets.size * m)
    return lat._diagonals(offsets, data.reshape(offsets.size, m))


def _oracle_bonds(geom, direction):
    u = lat._grid(geom)
    v = np.roll(u, -1, axis=direction)
    if geom.boundary == "open":
        inner = (slice(None),) * direction + (slice(0, -1),)
        u, v = u[inner], v[inner]
    return u.ravel(), v.ravel()


def _oracle_potential(geom, mass, weight):
    u, w = (np.concatenate(x) for x in zip(*(_oracle_bonds(geom, d) for d in range(geom.dims))))
    bond = 0.5 * (weight[u] + weight[w]) * (1.0 / (geom.spacing * geom.spacing))
    rows = np.stack([u, w, u, w], axis=1)
    cols = np.stack([u, w, w, u], axis=1)
    sites = np.arange(geom.n_sites)
    return _oracle_from_cells(geom.n_sites, [
        (sites, sites, (mass * mass) * weight),
        (rows, cols, np.stack([bond, bond, -bond, -bond], axis=1))])


def _oracle_difference(geom, direction):
    u, v = _oracle_bonds(geom, direction)
    step = 1.0 / (2.0 * geom.spacing)
    cells = [(u, v, np.full(u.shape, step)), (v, u, np.full(u.shape, -step))]
    if geom.boundary == "open":
        layer = np.moveaxis(lat._grid(geom), direction, 0)
        half = np.full(layer[0].shape, step)
        cells += [(layer[0], layer[1], half), (layer[-1], layer[-1], 2 * half),
                  (layer[0], layer[0], -2 * half), (layer[-1], layer[-2], -half)]
    return _oracle_from_cells(geom.n_sites, cells)


# the per-axis builders as they were before each axis's bonds and stencils were
# written through one layered view of the diagonals (reference)


def _oracle_bond_rows(geom, directions):
    """Zero diagonals at 0 and at the bonds along `directions`, +-s and, periodic,
    -+(N - 1) s for a step s: sorted offsets, their (k, M) array, {offset: row}."""
    n = geom.sites_per_dim
    steps = (1, n - 1) if geom.boundary == "periodic" else (1,)
    offsets = sorted({0, *(sign * k * n ** (geom.dims - 1 - d)
                           for d in directions for k in steps for sign in (1, -1))})
    data = np.zeros((len(offsets), geom.n_sites))
    return offsets, data, dict(zip(offsets, data))


def _oracle_neighbor_diagonals(geom, direction, up, down, rows):
    """Write up[k] at (x, x + e) and down[k] at (x + e, x) into the diagonals {offset: row}.

    x runs over layer k along `direction` and e is one step along it; up and
    down hold one layer per bond, the last one the wrap bond of a periodic
    axis, whose entries sit on the offsets -+(N - 1) s instead of +-s.
    """
    n = geom.sites_per_dim
    stride = n ** (geom.dims - 1 - direction)
    lat._layers(geom, direction, rows[stride])[:n - 1] = up[:n - 1]
    lat._layers(geom, direction, rows[-stride])[1:] = down[:n - 1]
    if geom.boundary == "periodic":
        lat._layers(geom, direction, rows[-(n - 1) * stride])[n - 1] = up[n - 1]
        lat._layers(geom, direction, rows[(n - 1) * stride])[0] = down[n - 1]


def _oracle_potential_matrix(geom, mass, weight):
    """Site terms m^2 w_x plus forward-difference bonds, each weighted at its midpoint.

    All-ones weights give the potential matrix of H; the centered coordinate
    gives the weighted potential of a boost. A bond b between u and w adds b
    to (u, u) and (w, w) and -b to (u, w) and (w, u); a diagonal entry adds
    its site term, then its bonds axis by axis, the bond from the previous
    layer before the one to the next except where the former wraps.
    """
    offsets, data, rows = _oracle_bond_rows(geom, range(geom.dims))
    diagonal = np.multiply(mass * mass, weight, out=rows[0])
    inverse_a2 = 1.0 / (geom.spacing * geom.spacing)
    for direction in range(geom.dims):
        w, sites = lat._layers(geom, direction, weight), lat._layers(geom, direction, diagonal)
        if geom.boundary == "open":
            bond = 0.5 * (w[:-1] + w[1:]) * inverse_a2
            sites[1:] += bond
            sites[:-1] += bond
        else:
            bond = 0.5 * (w + np.roll(w, -1, axis=0)) * inverse_a2
            sites[1:] += bond[:-1]
            sites += bond
            sites[0] += bond[-1]
        # 0.0 - b, not -b, so that a bond of weight zero leaves +0.0 off the diagonal
        _oracle_neighbor_diagonals(geom, direction, 0.0 - bond, 0.0 - bond, rows)
    return lat._block(lat._pruned((offsets, data)), geom.n_sites)


def _oracle_difference_matrix(geom, direction):
    """Centered difference along `direction`, one-sided at the edges of an open lattice."""
    n = geom.sites_per_dim
    step = 1.0 / (2.0 * geom.spacing)
    shape = (n - (geom.boundary == "open"),) + (n,) * (geom.dims - 1)
    up, down = np.full(shape, step), np.full(shape, -step)
    offsets, data, rows = _oracle_bond_rows(geom, [direction])  # row 0 is dropped when periodic
    if geom.boundary == "open":
        # an open edge row adds a half step to its bond, one-sided: 2 * step is
        # exactly fl(1/a) while step is a normal float (a below about 2e307)
        up[0] += step
        down[-1] -= step
        edges = lat._layers(geom, direction, rows[0])
        edges[0], edges[-1] = -2 * step, 2 * step
    _oracle_neighbor_diagonals(geom, direction, up, down, rows)
    return lat._block(lat._pruned((offsets, data)), geom.n_sites)


def _oracle_rotation(geom, differences):
    """J = sum_x [x_1 (pi d_2 phi)_x - x_2 (pi d_1 phi)_x] on a 2-d `geom`, from its centered
    differences [D_1, D_2]: the coupling x_1 D_2 - x_2 D_1."""
    x1, x2 = geom.centered_coordinate(0), geom.centered_coordinate(1)
    return lat.QuadraticObservable(geom.n_sites,
                                   coupling=differences[1].scaled(x1) - differences[0].scaled(x2))


def _oracle_bulk_restriction(obs, geom):
    """Q with every entry zeroed whose row or column lies off the bulk sites, in both halves."""
    m = obs.n_modes
    bulk = np.zeros(m, bool)
    bulk[lat._bulk_sites(geom)] = True

    def masked(block):  # a column off the matrix holds a zero entry, so clipping it is safe
        return lat._diagonals(block.offsets,
                              block.data * (bulk & bulk[np.clip(lat._columns(block.offsets, m),
                                                                0, m - 1)]))

    return lat.QuadraticObservable(m, *(masked(block) if block else block for block in obs.blocks))


def _same(x, y):
    return (x.size == y.size and np.array_equal(x.offsets, y.offsets)
            and np.array_equal(x.data, y.data))


def _random_diagonals(rng, m, k, reach):
    """A block of k random diagonals (fewer if the band is narrower) with offsets in +-reach."""
    window = np.arange(-reach, reach + 1)
    offsets = np.sort(rng.choice(window, min(k, window.size), replace=False))
    data = rng.standard_normal((offsets.size, m))
    data[rng.random(data.shape) < 0.2] = 0.0
    cols = lat._columns(offsets, m)
    data[(cols < 0) | (cols >= m)] = 0.0
    return lat._diagonals(offsets, data)


def _check_kernels(rng, blocks):
    for a in blocks:
        assert _same(a.T, _oracle_transpose(a))
        vec = rng.standard_normal((3, a.size))
        assert np.array_equal(a.dot(vec), _oracle_dot(a, vec))
        assert np.array_equal(a.dot(vec[0]), _oracle_dot(a, vec[0]))
        same_offsets = a.scaled(rng.standard_normal(a.size))
        for b in blocks + [a.T, same_offsets]:
            assert _same(a @ b, _oracle_matmul(a, b))
            assert _same(a + b, _oracle_merge(a, b, operator.add))
            assert _same(a - b, _oracle_merge(a, b, operator.sub))


@pytest.mark.parametrize("m", [1, 2, 3, 64, 577])
def test_block_kernels_match_their_oracles(m):
    rng = np.random.default_rng(83 + m)
    blocks = [lat._zero(m)] + [_random_diagonals(rng, m, k, reach)
                               for k in range(10) for reach in (min(4, m - 1), m - 1)]
    assert {b.offsets.size for b in blocks} >= set(range(min(10, 2 * m)))
    _check_kernels(rng, blocks)


def _bits(block):
    """A block's size, offsets and data bytes: np.array_equal that also tells -0.0 from 0.0."""
    return block.size, block.offsets.tolist(), block.data.shape, block.data.tobytes()


def _random_on(rng, m, offsets):
    """A block with random entries, a fifth of them zero, on these diagonals inside the matrix."""
    offsets = np.asarray(offsets, dtype=np.int64)
    data = rng.standard_normal((offsets.size, m))
    data[rng.random(data.shape) < 0.2] = 0.0
    cols = lat._columns(offsets, m)
    data[(cols < 0) | (cols >= m)] = 0.0
    return lat._diagonals(offsets, data)


def test_products_match_the_gather_oracle_on_both_sides_of_the_size_rule():
    # _oracle_matmul is the one-gather, one-bincount product that every
    # product used before the per-diagonal passes; a product must keep its bits
    rng = np.random.default_rng(31)
    pairs = []
    for m in (80, 640, 2560):  # 1-d, 3 x 3 diagonals
        a, b = (_random_on(rng, m, [-1, 0, 1]) for _ in range(2))
        pairs += [(a, b), (-a, b)]
    for n in (8, 24, 64):  # 2-d periodic, 9 x 8 and 8 x 9, wrap offsets included
        g = lat.LatticeGeometry(2, n, 0.5, "periodic")
        nine = _random_on(rng, g.n_sites, lat.build_hamiltonian(g, 1.0).phi.offsets)
        eight = _random_on(rng, g.n_sites, _rotation(g).coupling.offsets)
        one = _random_on(rng, g.n_sites, [n])
        empty = lat._zero(g.n_sites)
        pairs += [(nine, eight), (eight, nine), (-eight, nine), (one, nine), (eight, one),
                  (empty, nine), (eight, empty)]
    sides = {a.offsets.size * b.offsets.size * a.size <= lat._GATHER_CELLS
             for a, b in pairs if a and b}
    assert sides == {True, False}
    for a, b in pairs:
        product = a @ b
        assert _bits(product) == _bits(_oracle_matmul(a, b))
        # X + Y^T of the oracle commutator, made in one array when the offsets mirror
        for x, y in ((product, product), (-product, product), (a, b)):
            assert _bits(_oracle_plus_transpose(x, y)) == _bits(x + y.T)


def _oracle_plus_transpose(x, y):
    """x + y^T; when y^T has the offsets of x, y^T's rows are made in the sum's own array."""
    if not (x and y) or x.offsets.tolist() != [-o for o in reversed(y.offsets.tolist())]:
        return x + y.T
    data = np.array(y.T.data)
    data += x.data
    return lat._diagonals(x.offsets, data)


def _oracle_commutator(a, b):
    """(1/i)[A, B] by block operations, one block per product, difference and sum (reference).

    The commutator before the fused kernel, with its `_plus_transpose`; the
    only change is that y^T's rows come from a copy of y.T.data.
    """
    m = lat._same_modes(a, b)
    ca, cb = a.coupling.T, b.coupling.T
    # X = Q_A omega Q_B, block (i, j) = A_i0 B_1j - A_i1 B_0j, where
    # Q_00 = phi, Q_01 = C^T, Q_10 = C and Q_11 = pi
    x00 = a.phi @ b.coupling - ca @ b.phi
    x01 = a.phi @ b.pi - ca @ cb
    x10 = a.coupling @ b.coupling - a.pi @ b.phi
    x11 = a.coupling @ b.pi - a.pi @ cb
    pairs = ((x00, x00), (x10, x01), (x11, x11))  # phi, C, pi of X + X^T
    return lat.QuadraticObservable(m, *(_oracle_plus_transpose(x, y) for x, y in pairs))


def _lone_diagonal_pairs(rng, m):
    """Observables with a lone main diagonal, some entries 0.0 or -0.0, in each block."""
    d = rng.standard_normal(m)
    d[::3], d[1::4] = 0.0, -0.0
    d[0] = 1.5  # so the diagonal is stored
    lone = lat._diagonal(d)
    other = _rand_obs(rng, m)
    for blocks in ((lone, None, None), (None, lone, None), (None, None, lone),
                   (lone, None, -lone), (other.phi, lone, lone)):
        obs = lat.QuadraticObservable(m, *blocks)
        yield obs, other
        yield other, obs
        yield obs, obs


def _commutator_pairs():
    """(name, A, B): the pairs of the central relation and closure checks, and random ones."""
    for n in (3, 4, 5, 8, 17, 80):
        g = lat.LatticeGeometry(1, n, 8.0 / n, "open")
        p, h = lat.build_momentum(g, 0), lat.build_hamiltonian(g, math.pi)
        for t in (0.0, 0.4, -1.5):
            k = lat.build_boost(g, 0, t, math.pi)
            for name, other in (("P", p), ("H", h)):
                yield f"1-d N={n} K(t={t}), {name}", k, other
                yield f"1-d N={n} {name}, K(t={t})", other, k
    for n in (4, 5, 8, 12, 16, 24, 64):
        g = lat.LatticeGeometry(2, n, 0.5, "periodic")
        h = lat.build_hamiltonian(g, 1.0)
        p1, p2 = lat.build_momentum(g, 0), lat.build_momentum(g, 1)
        j = _rotation(g)
        for name, a, b in (("H, P1", h, p1), ("H, P2", h, p2), ("P1, P2", p1, p2),
                           ("J, H", j, h), ("P1, J", p1, j)):
            yield f"2-d N={n} [{name}]", a, b
    rng = np.random.default_rng(41)
    for m in (1, 2, 5, 9):
        for i in range(3):
            yield f"random m={m} #{i}", _rand_obs(rng, m), _rand_obs(rng, m)
        for i, (a, b) in enumerate(_lone_diagonal_pairs(rng, m)):
            yield f"lone diagonal m={m} #{i}", a, b


def test_commutator_is_bit_equal_to_the_block_oracle():
    # size, offsets and data bytes of every block, signed zeros included
    cases = 0
    for name, a, b in _commutator_pairs():
        got, want = lat.commutator(a, b), _oracle_commutator(a, b)
        assert [_bits(x) for x in got.blocks] == [_bits(x) for x in want.blocks], name
        assert got.scalar == want.scalar == 0.0, name
        cases += 1
    assert cases >= 150


def test_commutator_makes_at_most_one_block_per_result_block(monkeypatch):
    # products, differences and sums stay raw (offsets, data) pairs; only the
    # three result blocks are made. At the block-by-block commutator, 4 to 7
    # blocks went through _diagonals
    calls, made, transposes = [], [], []
    diagonals, post_init = lat._diagonals, lat.DiagonalBlock.__post_init__
    transposed = lat._transposed
    monkeypatch.setattr(lat, "_diagonals", lambda *args: calls.append(1) or diagonals(*args))
    monkeypatch.setattr(lat, "_transposed", lambda *args: transposes.append(1) or transposed(*args))
    monkeypatch.setattr(lat.DiagonalBlock, "__post_init__",
                        lambda block: made.append(1) or post_init(block))
    g1 = lat.LatticeGeometry(1, 80, 0.1, "open")
    g2 = lat.LatticeGeometry(2, 8, 0.5, "periodic")
    p, h = lat.build_momentum(g1, 0), lat.build_hamiltonian(g1, math.pi)
    h2, j = lat.build_hamiltonian(g2, 1.0), _rotation(g2)
    pairs = [(lat.build_boost(g1, 0, 0.0, math.pi), p), (lat.build_boost(g1, 0, 0.4, math.pi), p),
             (lat.build_boost(g1, 0, 0.4, math.pi), h), (h2, lat.build_momentum(g2, 0)), (j, h2)]
    rng = np.random.default_rng(43)
    pairs += [(_rand_obs(rng, 6), _rand_obs(rng, 6)) for _ in range(3)]
    for a, b in pairs:
        a.coupling.T, b.coupling.T  # the transposes of the inputs are made once and kept
        calls.clear()
        made.clear()
        transposes.clear()
        lat.commutator(a, b)
        assert len(calls) <= 3 and len(made) <= 3
        # phi and pi of X + X^T come from X's upper half: only C = X_10 + X_01^T
        # transposes
        assert len(transposes) <= 1


def test_symmetrized_keeps_the_bits_of_x_plus_its_transpose():
    # X + X^T on X's upper half against X merged with its transpose, signed
    # zeros included, where X stores o and -o, only one of them, or 0 alone
    rng = np.random.default_rng(47)
    cases = 0
    for m in (1, 2, 5, 9, 40):
        for offsets in ([0], [1], [-1], [0, 2], [-3, -1, 0], [-2, 1, 2], [-4, -1, 1, 3, 4],
                        sorted(rng.choice(np.arange(1 - m, m), min(m, 6), replace=False))):
            offsets = [o for o in offsets if abs(o) < m]
            data = rng.standard_normal((len(offsets), m))
            data[rng.random(data.shape) < 0.3] = -0.0
            data[rng.random(data.shape) < 0.2] = 0.0
            cols = lat._columns(np.array(offsets, dtype=np.int64), m)
            data[(cols < 0) | (cols >= m)] = 0.0
            x = lat._pruned(([int(o) for o in offsets], data))
            got = lat._block(lat._symmetrized(x, m), m)
            want = lat._block(lat._merged(x, lat._transposed(x, m), np.add), m)
            assert _bits(got) == _bits(want), (m, offsets)
            cases += 1
    assert cases == 40


def _oracle_bulk_residual_norm(residual, geom):
    """The bulk norm from one (9, 2M) stack of test vectors, applied in one banded pass."""
    zero = np.zeros(geom.n_sites)
    vectors = np.array([np.concatenate(halves) for f, df in zip(*lat._bump_profiles(geom))
                        for halves in ((f, zero), (zero, f), (f, df))])
    worst = 0.0
    for v, image in zip(vectors, _quad_apply(residual, vectors)):
        norm_v = float(np.linalg.norm(v))
        if norm_v:
            worst = max(worst, float(np.linalg.norm(image)) / norm_v)
    return worst


@pytest.mark.parametrize("dims,n", [(1, 80), (1, 643), (2, 12), (2, 17)])
def test_bulk_residual_norm_matches_the_stacked_oracle(dims, n):
    # every block kind, alone and together, and the central residual itself
    rng = np.random.default_rng(7 + n)
    g = lat.LatticeGeometry(dims, n, 8.0 / n, "open")
    m = g.n_sites
    phi = _random_on(rng, m, [-1, 0, 1])
    phi = phi + phi.T
    c = _random_on(rng, m, [-n, -1, 0, 2])
    residuals = [lat.QuadraticObservable(m, *blocks)
                 for blocks in ((phi, None, None), (None, c, None), (None, None, -phi),
                                (phi, c, -phi))]
    if dims == 1:
        residuals.append(_central_residual(g, math.pi))
    for r in residuals:
        want = _oracle_bulk_residual_norm(r, g)
        assert want > 0
        assert _bulk_norm(r, g) == want


@pytest.mark.parametrize("n", [3, 4, 8, 24])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_stencil_assembly_matches_the_cell_oracle(boundary, dims, n):
    g = lat.LatticeGeometry(dims, n, 0.3, boundary)
    m = g.n_sites
    rng = np.random.default_rng(89 + 10 * n + dims)
    coords = [g.centered_coordinate(d) for d in range(dims)]
    for weight in [np.ones(m), *coords, rng.standard_normal(m)]:
        for mass in (0.0, 1.3):
            assert _same(lat._potential_matrix(g, mass, weight), _oracle_potential(g, mass, weight))
    differences = [_oracle_difference(g, d) for d in range(dims)]
    for d, oracle in enumerate(differences):
        assert _same(lat._difference_matrix(g, d), oracle), d
    h = lat.build_hamiltonian(g, 1.3)
    assert _same(h.phi, _oracle_potential(g, 1.3, np.ones(m)))
    gens = [h] + [lat.build_momentum(g, d) for d in range(dims)]
    for d, p in enumerate(gens[1:]):
        assert _same(p.coupling, differences[d])
    if boundary == "open":
        for d, coord in enumerate(coords):
            k = lat.build_boost(g, d, 0.4, 1.3)
            assert _same(k.phi, -_oracle_potential(g, 1.3, coord))
            assert _same(k.coupling, differences[d].scaled(0.4))
            gens.append(k)
    if dims == 2:
        j = _rotation(g)
        want = _oracle_merge(differences[1].scaled(coords[0]), differences[0].scaled(coords[1]),
                             operator.sub)
        assert _same(j.coupling, want)
        gens.append(j)
    _check_kernels(rng, [b for gen in gens for b in gen.blocks if b])


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_builders_keep_the_bits_of_their_per_axis_oracles(boundary, dims, n):
    # offsets and data bit for bit, -0.0 entries included, at the spacings
    # of the lattice reference and with unit, coordinate, random and
    # signed-zero weights
    rng = np.random.default_rng(97 + 10 * n + dims)
    for spacing in (0.5, 0.013, 7.1):
        g = lat.LatticeGeometry(dims, n, spacing, boundary)
        m = g.n_sites
        weights = [np.ones(m), *(g.centered_coordinate(d) for d in range(dims)),
                   rng.standard_normal(m), np.full(m, -0.0)]
        for weight, mass in itertools.product(weights, (0.0, 1.3)):
            assert _same(lat._potential_matrix(g, mass, weight),
                         _oracle_potential_matrix(g, mass, weight)), (spacing, mass)
        differences = [lat._difference_matrix(g, d) for d in range(dims)]
        for d, difference in enumerate(differences):
            assert _same(difference, _oracle_difference_matrix(g, d)), (spacing, d)
        observables = [lat.build_hamiltonian(g, 1.3), _from_dense(_sym(rng, 2 * m))]
        if dims == 2:
            j = lat._rotation(g, differences)
            assert not j.phi and not j.pi and j.scalar == 0.0
            assert _same(j.coupling, _oracle_rotation(g, differences).coupling), spacing
            observables += [j, lat.commutator(j, observables[0])]
        if n >= 4:
            for obs in observables:
                got, want = lat._bulk_restriction(obs, g), _oracle_bulk_restriction(obs, g)
                assert all(_same(x, y) for x, y in zip(got.blocks, want.blocks)), spacing


def test_transpose_is_made_once_and_read_only():
    b = _rotation(lat.LatticeGeometry(2, 5, 0.5, "periodic")).coupling
    assert b.T is b.T
    # bit-equal as a matrix; an entry off the matrix comes back as +0.0
    assert _same(b.T.T, b) and b.T.T.dense().tobytes() == b.dense().tobytes()
    assert not b.T.data.flags.writeable and not b.T.offsets.flags.writeable
    with pytest.raises(ValueError):
        b.T.data[0, 0] = 1.0
    made = lat.DiagonalBlock(np.zeros(0, np.int64), np.zeros((0, 3)))
    for empty in (lat._zero(b.size), b - b, made):
        assert not empty and empty.T is empty


def _generators(geom):
    gens = {"H": lat.build_hamiltonian(geom, 1.3)}
    for d in range(geom.dims):
        gens[f"P{d + 1}"] = lat.build_momentum(geom, d)
        if geom.boundary == "open":
            gens[f"K{d + 1}"] = lat.build_boost(geom, d, 0.4, 1.3)
    if geom.dims == 2:
        gens["J"] = _rotation(geom)
    return gens


def _masked_dense_norm(quad, geom):
    keep = lat._bulk_sites(geom)
    idx = np.concatenate([keep, keep + geom.n_sites])
    return _dense_norm(quad[np.ix_(idx, idx)])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_generator_arithmetic_matches_dense_quads(boundary, dims, n):
    g = lat.LatticeGeometry(dims, n, 0.7, boundary)
    m = g.n_sites
    gens = _generators(g)
    # H's stencil: the bonds of each axis, and on a periodic axis its wrap bonds
    steps = [1] if dims == 1 else [1, n]
    wraps = [n - 1] if dims == 1 else [n - 1, m - n]
    want = {0, *steps, *(-s for s in steps)}
    if boundary == "periodic":
        want |= {*wraps, *(-w for w in wraps)}
    assert set(gens["H"].phi.offsets.tolist()) == want
    # every block is a DiagonalBlock of the right size; an omitted one is empty
    assert not gens["H"].coupling and not gens["P1"].phi and not gens["P1"].pi
    assert not any(lat.QuadraticObservable(m).blocks)
    basis = lat.build_mode_basis(g, 1.3)
    sigma = _covariance(basis)
    rng = np.random.default_rng(61 + 10 * n + dims)

    def check_reads(obs, scale):
        assert _all_blocks(obs, m)
        vec = rng.standard_normal(2 * m)
        assert np.abs(_quad_apply(obs, vec) - obs.quad @ vec).max() <= 1e-13 * scale
        vev = 0.5 * float(np.trace(obs.quad @ sigma)) + obs.scalar
        assert abs(lat.vacuum_expectation(obs, basis) - vev) <= 1e-13 * scale
        _check_norm(obs, _dense_norm(obs.quad), 1e-12 * scale)
        if n >= 4:
            bulk = lat._bulk_restriction(obs, g)
            assert _all_blocks(bulk, m)
            # the entries off the bulk window, in either half, are zeroed; no site is dropped
            off = np.ones(2 * m, bool)
            off[np.concatenate([lat._bulk_sites(g), lat._bulk_sites(g) + m])] = False
            want = obs.quad.copy()
            want[off], want[:, off] = 0.0, 0.0
            assert np.array_equal(bulk.quad, want)
            _check_norm(bulk, _masked_dense_norm(obs.quad, g), 1e-12 * scale)

    for a in gens.values():
        check_reads(a, np.abs(a.quad).max() * 2 * m)
    for name_a, a in gens.items():
        for name_b, b in gens.items():
            pair = (name_a, name_b)
            assert np.array_equal((a + b).quad, a.quad + b.quad), pair
            assert np.array_equal((a - b).quad, a.quad - b.quad), pair
            assert _all_blocks(a + b, m) and _all_blocks(a - b, m), pair
            quad = _dense_commutator(a, b)
            got = lat.commutator(a, b)
            scale = np.abs(a.quad).max() * np.abs(b.quad).max() * 2 * m
            assert np.abs(got.quad - quad).max() <= 1e-13 * scale, pair
            assert got.scalar == 0.0, pair
            check_reads(got, scale)
    if boundary == "periodic":  # translations commute exactly: every block cancels to empty
        pairs = [("H", "P1"), ("H", "P2"), ("P1", "P2")] if dims == 2 else [("H", "P1")]
        for x, y in pairs:
            assert not any(lat.commutator(gens[x], gens[y]).blocks), (x, y)


def test_lattice_checks_never_read_the_dense_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense .quad view was read")

    monkeypatch.setattr(lat.QuadraticObservable, "quad", property(refuse))
    rep = lat.verify_central_relation(lat.LatticeGeometry(1, 16, 0.5, "open"), (math.pi, 1.0))
    assert rep["per_label"][0]["full_residual_norm"] > 0.0
    torus = lat.LatticeGeometry(2, 8, 0.5, "periodic")
    ring = lat.LatticeGeometry(1, 16, 0.5, "periodic")
    assert lat.verify_poincare_closure(torus, 1.0)["J,H full"] > 1.0
    assert lat.contradiction_demo(ring, 1.0)["n_modes"] == 16


@pytest.mark.parametrize("n", range(8, 25))
def test_gated_closure_residuals_exactly_zero(n):
    # at the spacing the CLI and the benchmark use; J,H full is ungated
    report = lat.verify_poincare_closure(lat.LatticeGeometry(2, n, 0.5, "periodic"), 1.0)
    assert [report[p] for p in ("H,P1", "H,P2", "P1,P2", "J,H bulk")] == [0.0] * 4
    assert report["J,H full"] > 1.0


# ---------------------------------------------------------------------------
# Hamiltonian, spectrum, vacuum


def _eigh_frequencies(h):
    """sqrt of the eigenvalues of the phi block by dense eigh (reference)."""
    return np.sqrt(np.linalg.eigvalsh(_phi(h)))


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
    lam, u = np.linalg.eigh(_phi(h))
    omega = np.sqrt(lam)
    _no_eigh(monkeypatch)
    basis = lat.build_mode_basis(g, 1.3)
    assert np.abs(basis.frequencies - omega).max() <= 1e-14 * omega.max()
    energy = 0.5 * math.fsum(omega)
    assert abs(basis.energy - energy) <= 1e-14 * energy
    # trace route: 1/2 tr(V Sigma_phi) + 1/2 tr(Sigma_pi) with the eigh covariance
    sigma_phi = 0.5 * ((u / omega) @ u.T)
    sigma_pi = 0.5 * ((u * omega) @ u.T)
    trace = 0.5 * (float(np.sum(_phi(h) * sigma_phi)) + float(np.trace(sigma_pi)))
    assert abs(lat.vacuum_expectation(h, basis) - trace) <= 1e-14 * trace
    for block, want in (("phi", sigma_phi), ("pi", sigma_pi)):
        assert np.abs(_sigma(basis, block) - want).max() <= 1e-12 * np.abs(want).max()


def _oracle_cosine_tables(geom, mass):
    """Sigma_phi's and Sigma_pi's cosine sums g, one rfft per axis for each block in turn."""
    from numpy.fft import rfft

    n, dims, free = geom.sites_per_dim, geom.dims, geom.boundary == "open"
    period = 2 * n if free else n
    k = np.arange(n)
    mu = (4.0 / geom.spacing**2) * np.sin(np.pi / period * np.minimum(k, period - k)) ** 2
    lam = mass * mass + reduce(np.add.outer, [mu] * dims)
    weight = np.full(n, 1.0 / n)
    if free:
        weight[0] *= 0.5
    tables = []
    for f in (0.5 / np.sqrt(lam), 0.5 * np.sqrt(lam)):
        g = f * reduce(np.multiply.outer, [weight] * dims)
        for axis in range(dims):
            g = rfft(g, period, axis=axis).real
        tables.append(g)
    return tables


def _oracle_covariance(geom, table, offsets):
    """Sigma at (i, i + o) from the table g, each index folded by two modulos."""
    n, m, free = geom.sites_per_dim, geom.n_sites, geom.boundary == "open"
    period = 2 * n if free else n
    rows, cols = ((np.divmod(x, n) if geom.dims == 2 else (x,))
                  for x in (np.arange(m), np.clip(lat._columns(offsets, m), 0, m - 1)))
    per_axis = [[np.minimum(d % period, -d % period)
                 for d in ((i - j, i + j + 1) if free else (i - j,))]
                for i, j in zip(rows, cols)]
    return reduce(operator.add, (table[terms] for terms in itertools.product(*per_axis)))


def _oracle_bump_profiles(geom):
    """(f, df) of each profile nu = 1, 2, 3, one profile at a time."""
    n, window, keep = geom.sites_per_dim, lat._bulk_window(geom), lat._bulk_sites(geom)
    y = (2.0 * np.arange(window, n - window) - (n - 1)) / (n - 2 * window)
    envelope, d_envelope = (1.0 - y * y) ** 4, -8.0 * y * (1.0 - y * y) ** 3
    out = np.zeros((2, lat._N_PROFILES, geom.n_sites))
    for nu in range(1, lat._N_PROFILES + 1):
        rate = 0.3 * math.pi * nu
        phase = rate * y + 0.3 * nu
        f = envelope * np.cos(phase)
        df = d_envelope * np.cos(phase) - envelope * rate * np.sin(phase)
        out[0, nu - 1, keep] = reduce(np.multiply.outer, [f] * geom.dims).ravel()
        out[1, nu - 1, keep] = reduce(np.multiply.outer, [df] + [f] * (geom.dims - 1)).ravel()
    return out


@pytest.mark.parametrize("dims,n", [(1, 8), (1, 80), (2, 8), (2, 16)])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_vacuum_tables_covariance_and_profiles_keep_the_loop_bits(dims, n, boundary):
    # one rfft per axis for both tables, covariance indices folded from their
    # known ranges and the three profiles in one broadcast: the same bits as
    # one block, two modulos and one profile at a time
    g = lat.LatticeGeometry(dims, n, 8.0 / n, boundary)
    basis = lat.build_mode_basis(g, 1.3)
    offsets = np.arange(1 - g.n_sites, g.n_sites)
    for block, table in zip(("phi", "pi"), _oracle_cosine_tables(g, 1.3)):
        assert getattr(basis, f"cosine_{block}").tobytes() == table.tobytes()
        want = _oracle_covariance(g, table, offsets)
        assert basis.covariance(block, offsets).tobytes() == want.tobytes()
    assert lat._bump_profiles(g).tobytes() == _oracle_bump_profiles(g).tobytes()


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
            assert lat.build_hamiltonian(g, 0.0).phi
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


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vacuum_expectation_makes_no_block_temporary():
    # Sigma is read on the stored diagonals only: at N = 640 one M x M block
    # is 3.3 MB, and the call allocates none
    g = lat.LatticeGeometry(1, 640, 8.0 / 640, "open")
    h = lat.build_hamiltonian(g, 1.0)
    basis = lat.build_mode_basis(g, 1.0)
    assert _peak_bytes(lambda: lat.vacuum_expectation(h, basis)) < 1_000_000
    # the vacuum itself keeps no M x M block either: at the 4096-site cap one
    # is 134 MB, and building the vacuum and reading E(L) stays below 5 MB
    g = lat.LatticeGeometry(2, 64, 8.0 / 64, "open")
    h = lat.build_hamiltonian(g, 1.0)
    assert _peak_bytes(lambda: lat.vacuum_expectation(h, lat.build_mode_basis(g, 1.0))) < 5_000_000


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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_boost_refuses_a_time_that_is_not_finite(t):
    with pytest.raises(ValueError, match="finite"):
        lat.build_boost(lat.LatticeGeometry(1, 12, 0.5, "open"), 0, t, 1.0)


def test_boost_at_time_zero_has_an_empty_coupling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a difference matrix was built for t = 0")

    g = lat.LatticeGeometry(2, 6, 0.5, "open")
    monkeypatch.setattr(lat, "_difference_matrix", refuse)
    for direction in range(2):
        k = lat.build_boost(g, direction, 0.0, 1.0)
        assert not k.coupling and k.coupling.size == g.n_sites


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
    assert np.allclose(_phi(lat.build_hamiltonian(g, mass)), hand_h, rtol=1e-14, atol=0)
    boost = lat.build_boost(g, 0, 0.0, mass)
    assert np.allclose(-_phi(boost), _chain_potential(n, a, mass, x), rtol=1e-14, atol=1e-13)
    assert np.array_equal(-_pi(boost), np.diag(x))

    # 2-D open, site (i, j) at flat index i * n + j: each direction adds its
    # chain, and a boost weights the bonds across its direction by the
    # (constant) coordinate of their line
    g2 = lat.LatticeGeometry(2, n, a, "open")
    eye, plain = np.eye(n), _chain_potential(n, a, 0.0, ones)
    hand_h2 = np.kron(_chain_potential(n, a, mass, ones), eye) + np.kron(eye, plain)
    assert np.allclose(_phi(lat.build_hamiltonian(g2, mass)), hand_h2, rtol=1e-14, atol=0)
    hand_k2 = (np.kron(_chain_potential(n, a, mass, x), eye) + np.kron(np.diag(x), plain),
               np.kron(eye, _chain_potential(n, a, mass, x)) + np.kron(plain, np.diag(x)))
    for direction, hand in enumerate(hand_k2):
        got = -_phi(lat.build_boost(g2, direction, 0.0, mass))
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
    n = 7
    d1 = _chain_difference(n, 0.4, boundary == "periodic")
    if boundary == "open":
        assert d1[3, 2] == -1.25 and d1[3, 4] == 1.25 and d1[0, 1] == 2.5 and d1[6, 6] == 2.5
    else:
        assert d1[0, 6] == -1.25 and d1[6, 0] == 1.25 and d1[0, 0] == 0.0
    # the open edge rows add a half step to the centered bond; 0.3 and 1/3 have
    # no exact 1/a, so equality pins that the sum rounds as the one-sided 1/a does
    for a in (0.4, 0.3, 1 / 3):
        d1 = _chain_difference(n, a, boundary == "periodic")
        p = lat.build_momentum(lat.LatticeGeometry(1, n, a, boundary), 0)
        assert not p.phi and not p.pi
        assert np.array_equal(_coupling(p), d1), a
        # 2-D, site (i, j) at flat index i * n + j: direction 0 steps i, direction 1 steps j
        g2 = lat.LatticeGeometry(2, n, a, boundary)
        eye = np.eye(n)
        for direction, hand in enumerate((np.kron(d1, eye), np.kron(eye, d1))):
            p = lat.build_momentum(g2, direction)
            assert not p.phi and not p.pi
            assert np.array_equal(_coupling(p), hand), (a, direction)


@pytest.mark.parametrize("mass", [1.0, math.pi])
def test_periodic_potential_matches_hand_written_stencil(mass):
    # a ring: every site has two bonds, and the wrap bond joins sites 0 and n - 1
    n, a = 7, 0.4
    ring = (np.diag(np.full(n, mass**2 + 2 / a**2))
            - (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)) / a**2)
    assert ring[0, n - 1] == ring[n - 1, 0] == -1 / a**2
    h = lat.build_hamiltonian(lat.LatticeGeometry(1, n, a, "periodic"), mass)
    assert np.allclose(_phi(h), ring, rtol=1e-14, atol=0)
    # the torus: a Kronecker sum of two rings, the mass counted once
    plain = ring - mass**2 * np.eye(n)
    torus = np.kron(ring, np.eye(n)) + np.kron(np.eye(n), plain)
    h2 = lat.build_hamiltonian(lat.LatticeGeometry(2, n, a, "periodic"), mass)
    assert np.allclose(_phi(h2), torus, rtol=1e-14, atol=0)
    assert np.array_equal(_pi(h2), np.eye(n * n))


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
    rot = _rotation(g)
    jh = _dense_commutator(rot, h)
    keep = np.arange(3, 9)
    keep = (keep[:, None] * 12 + keep[None, :]).ravel()
    idx = np.concatenate([keep, keep + g.n_sites])
    dense = {
        "H,P1": _dense_norm(_dense_commutator(h, p1)),
        "H,P2": _dense_norm(_dense_commutator(h, p2)),
        "P1,P2": _dense_norm(_dense_commutator(p1, p2)),
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
    for name in ("spectral_norm", "_bulk_residual_norm", "_bulk_restriction"):
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


def test_largest_spacing_takes_the_largest_mass():
    # (m a)^2 is past float range at m = 1e50, a = 1.3e154: the mass check reads inf
    report = lat.verify_central_relation(lat.LatticeGeometry(1, 8, 1.3e154), (1e50, 1e49))
    assert [row["mass"] for row in report["per_label"]] == [1e50, 1e49]


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
    # eps (m^2 + 4 / a^2) / m^2 is 8.9e-2 at a = 1e-3, m = 1e-4: every vacuum takes the rule
    with pytest.raises(ValueError, match="lost to the rounding"):
        lat.build_mode_basis(lat.LatticeGeometry(1, 10, 1e-3), 1e-4)


def test_central_relation_in_units_a_million_times_larger():
    # the default sweep with lengths x 1e6 and masses / 1e6: m^2 is 9.9e-12 but positive
    report = lat.central_relation_convergence(8e6, [2e5, 1e5, 5e4],
                                              (math.pi * 1e-6, math.pi / 2 * 1e-6))
    for row in report["reports"]:
        for label in row["per_label"]:
            assert label["scalar_discrepancy_rel"] <= 1e-9


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
        vev = lat.vacuum_expectation(comm, basis)
        diff = comm_of_normal.scalar - normal_of_comm.scalar
        assert abs(diff - vev) <= 1e-10 * max(1.0, abs(vev))


# ---------------------------------------------------------------------------
# central relation


def test_central_relation_report_small_lattice():
    g = lat.LatticeGeometry(1, 16, 0.5, "open")
    rep = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    assert len(rep["per_label"]) == 2
    momentum = lat.normal_ordered(lat.build_momentum(g, 0), lat.build_mode_basis(g, math.pi))
    for row in rep["per_label"]:
        assert row["bulk_window"] == 4  # a quarter of the sites
        boost = lat.build_boost(g, 0, 0.0, row["mass"])
        assert lat.commutator(boost, momentum).scalar == 0.0  # pure quadratics
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
        quad = _dense_commutator(k, p)
        residual = 0.5 * (quad + quad.T) - h.quad
        assert lat.commutator(k, p).scalar == 0.0
        full = _dense_norm(residual)
        assert abs(row["full_residual_norm"] - full) <= 1e-12 * full
        bulk = _bulk_norm(_from_dense(residual), g)
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
        _check_norm(_from_dense(q), want, 1e-12 * want)  # 0 exactly for the zero quad


def _gershgorin(block):
    """The largest absolute row sum of a block, which bounds every |eigenvalue|; 0 if empty."""
    return float(lat._row_sums(block).max(initial=0.0))


def _eigvalsh_norm(x):
    """Largest |eigenvalue| of a dense symmetric matrix by a full eigvalsh (reference)."""
    return float(np.abs(np.linalg.eigvalsh(x)).max())


def _record_eigvalsh(monkeypatch):
    """The sizes of the matrices np.linalg.eigvalsh receives from now on."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(x, *args, **kwargs):
        sizes.append(x.shape[0])
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


def _record_norm_inputs(monkeypatch):
    """The observables spectral_norm receives from now on."""
    seen = []
    norm = lat.spectral_norm
    monkeypatch.setattr(lat, "spectral_norm", lambda obs: seen.append(obs) or norm(obs))
    return seen


def _certified(block, theta, y, sums):
    """nu = |theta| if the Ritz pair (theta, y) of the band A certifies it as the norm; else None.

    With delta = 1e-13 nu, ||A y - theta y|| <= delta ||y|| puts an
    eigenvalue within delta of theta, so nu - delta is a lower bound on the
    norm, and `lat._bounded` gives the upper bound nu + delta (reference).
    """
    nu = abs(theta)
    r = block.dot(y) - theta * y
    if not math.sqrt(r @ r) <= lat._CERTIFIED_REL * nu * math.sqrt(y @ y):
        return None
    return float(nu) if lat._bounded(block, nu, sums) else None


def _lanczos(block):
    """The largest |eigenvalue| of a band by Lanczos, when `_certified` accepts it; else None.

    Lanczos with full reorthogonalisation (Paige 1972) runs from a fixed
    start vector for at most 32 steps. The first extreme Ritz pair
    whose estimated residual is below half of delta = 1e-13 |theta| goes to
    `_certified`, and its verdict is final (reference).
    """
    m = block.size
    steps = min(m, 32)
    basis = np.empty((steps, m))
    start = np.arange(1, m + 1) * 0.6180339887498949 % 1.0 - 0.5  # a Weyl sequence
    basis[0] = start / math.sqrt(start @ start)
    tridiagonal = np.zeros((steps, steps))  # the Lanczos T, upper triangle
    for j in range(steps):
        done = basis[:j + 1]
        w = block.dot(done[-1])
        tridiagonal[j, j] = done[-1] @ w
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= (done @ w) @ done
        beta = math.sqrt(w @ w)
        ritz, vectors = np.linalg.eigh(tridiagonal[:j + 1, :j + 1], "U")
        pick = 0 if -ritz[0] > ritz[-1] else -1
        # |beta s_j| is the Ritz pair's residual while the basis stays
        # orthonormal; half of delta leaves room for the explicit one
        if abs(beta * vectors[-1, pick]) <= 0.5 * lat._CERTIFIED_REL * abs(ritz[pick]):
            return _certified(block, ritz[pick], vectors[:, pick] @ done, lat._row_sums(block))
        if j + 1 < steps:
            basis[j + 1] = w / beta
            tridiagonal[j, j + 1] = beta
    return None


@pytest.mark.parametrize("physical_size", [8.0, 1e-4, 8e6])
@pytest.mark.parametrize("n", [80, 160, 320, 640, 1280, 2560])
def test_central_residual_norms_certified_without_eigvalsh(monkeypatch, n, physical_size):
    # the 1-d residual blocks are bands of at most two diagonals per side:
    # the window at a plate (its rows 0 .. 8 or 0 .. 9, or the mirror)
    # and its LDL^T certificate give the norm, with no dense solve of the
    # block, up to the CI sweep's N = 2560 and in the CLI's scaled units.
    # Lanczos checks the value: a dense eigvalsh of 2560 rows takes 1.9 s
    unit = physical_size / 8.0
    g = lat.LatticeGeometry(1, n, physical_size / n, "open")
    sizes = _record_eigvalsh(monkeypatch)
    residuals = _record_norm_inputs(monkeypatch)
    rep = lat.verify_central_relation(g, (math.pi / unit, math.pi / 2 / unit))
    monkeypatch.undo()
    # one window per label, the block with the larger Gershgorin bound; the other is pruned
    assert len(sizes) == 2 and max(sizes) <= 2 * lat._WINDOW_HALF_WIDTH + 1, sizes
    for row, residual in zip(rep["per_label"], residuals, strict=True):
        assert not residual.coupling
        assert max(abs(residual.phi.offsets).max(), abs(residual.pi.offsets).max()) <= 2
        first, second = sorted(residual.blocks[::2], key=_gershgorin, reverse=True)
        want = _lanczos(first)
        assert want is not None and _gershgorin(second) < want, row["L_label"]
        assert abs(row["full_residual_norm"] - want) <= 1e-12 * want, row["L_label"]


@pytest.mark.parametrize("n", [8, 12, 16, 17, 24, 32])
def test_seam_norm_solves_only_the_seam_rows(monkeypatch, n):
    # [J, H] is nonzero on the 4N - 4 rows next to the coordinate seam, at
    # the odd offsets +-1, +-(2N - 1) and +-(N^2 - N +- 1): its norm is one
    # eigvalsh of a Gram matrix of 2N - 2 rows, the other residuals take none
    g = lat.LatticeGeometry(2, n, 0.5, "periodic")
    sizes = _record_eigvalsh(monkeypatch)
    seen = _record_norm_inputs(monkeypatch)
    report = lat.verify_poincare_closure(g, 1.0)
    monkeypatch.undo()
    assert sizes == [2 * n - 2]
    full = seen[-1]
    assert not full.coupling and not full.pi
    assert full.phi.offsets.tolist() == sorted(
        sign * o for o in (1, 2 * n - 1, n * n - n - 1, n * n - n + 1) for sign in (1, -1))
    assert np.count_nonzero(lat._row_sums(full.phi)) == 4 * n - 4
    want = _eigvalsh_norm(full.phi.dense())
    assert abs(report["J,H full"] - want) <= 1e-13 * want
    assert report["J,H bulk"] == report["H,P1"] == report["H,P2"] == report["P1,P2"] == 0.0


def _odd_offset_block(rng, m, offsets, gone):
    """A random symmetric M x M matrix on the diagonals +-offsets, rows and columns `gone` zeroed."""
    x = _on_diagonals(rng, m, offsets)
    x = x + x.T
    x[gone] = 0.0
    x[:, gone] = 0.0
    return x


@pytest.mark.parametrize("m", [63, 64, 81])
def test_parity_norm_matches_dense_eigvalsh(monkeypatch, m):
    # a block with odd offsets only couples even rows to odd ones, so it is
    # [[0, B], [B^T, 0]]: one eigvalsh of the smaller Gram matrix of B gives
    # its norm, whichever parity class is smaller. One even offset sends the
    # block back to a dense eigvalsh of every kept row
    rng = np.random.default_rng(m)
    n = math.isqrt(m)
    offset_sets = [[1, 2 * n - 1, n * n - n - 1, n * n - n + 1],  # as on the torus seam
                   sorted(rng.choice(np.arange(3, m, 2), 3, replace=False).tolist()),
                   [m - 2 if m % 2 else m - 1, 5]]  # the farthest odd offset
    orders = set()
    for offsets in offset_sets:
        for parity, count in itertools.product((0, 1), (0, 1, m // 4)):
            gone = rng.choice(np.arange(parity, m, 2), count, replace=False)
            x = _odd_offset_block(rng, m, offsets, gone)
            kept = np.flatnonzero(x.any(axis=1))
            even, odd = np.count_nonzero(kept % 2 == 0), np.count_nonzero(kept % 2)
            orders.add(int(np.sign(even - odd)))
            for scale in (1.0, -1.0, 1e-200, 1e200):  # its Gram would underflow or overflow
                sizes = _record_eigvalsh(monkeypatch)
                got = lat._max_abs_eigenvalue(_block(scale * x))
                monkeypatch.undo()
                want = _eigvalsh_norm(scale * x)
                case = (offsets, parity, count, scale)
                assert abs(got - want) <= 1e-13 * want, case
                assert sizes == [min(even, odd)], case
            even_offset = _on_diagonals(rng, m, [2])
            y = x + even_offset + even_offset.T
            sizes = _record_eigvalsh(monkeypatch)
            got = lat._max_abs_eigenvalue(_block(y))
            monkeypatch.undo()
            want = _eigvalsh_norm(y)
            assert abs(got - want) <= 1e-13 * want, offsets
            assert sizes == [np.count_nonzero(y.any(axis=1))], offsets
    assert orders >= {-1, 1}, orders  # class sizes in both orders


def test_narrow_odd_band_tries_the_window_before_the_parity_class(monkeypatch):
    # the offsets +-1 alone make a narrow band: its window comes first, and
    # the Gram of a parity class only when the certificate rejects it
    rng = np.random.default_rng(2)
    x = _odd_offset_block(rng, 99, [1], [])
    x[40, 41] = x[41, 40] = 50.0  # an isolated extreme pair +-50, as the window needs
    for certified in (True, False):
        if not certified:
            monkeypatch.setattr(lat, "_positive_definite", lambda lower, shift: False)
        sizes = _record_eigvalsh(monkeypatch)
        got = lat._max_abs_eigenvalue(_block(x))
        monkeypatch.undo()
        want = _eigvalsh_norm(x)
        assert abs(got - want) <= 1e-13 * want, certified
        window = 2 * lat._WINDOW_HALF_WIDTH + 1
        assert sizes == ([window] if certified else [window, 49]), certified


def _random_band(rng, m, width, empty_rows=0):
    """A random symmetric band with `width` diagonals per side, some rows and columns zeroed."""
    x = np.triu(np.tril(rng.standard_normal((m, m)), width))
    x = x + x.T
    gone = rng.choice(m, empty_rows, replace=False)
    x[gone] = 0.0
    x[:, gone] = 0.0
    return x


@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("m", [99, 100, 200])
def test_banded_norm_matches_dense_eigvalsh(monkeypatch, width, m):
    rng = np.random.default_rng(7 * m + width)
    sizes = _record_eigvalsh(monkeypatch)
    for empty_rows in (0, 1, m // 3):
        for spike in (0.0, 50.0):
            x = _random_band(rng, m, width, empty_rows)
            x[0, 0] += spike  # an isolated extreme eigenvalue, as in the residuals
            x[-1, -1] += spike
            rows = np.count_nonzero(x.any(axis=1))
            for scale in (1.0, -1.0, 1e-30, 1e30):
                want = _eigvalsh_norm(scale * x)
                sizes.clear()
                got = lat._max_abs_eigenvalue(_block(scale * x))
                assert abs(got - want) <= 1e-12 * want, (empty_rows, spike, scale)
                # at most one window, then a dense solve of only the rows that hold an entry
                assert sizes[0] <= 2 * lat._WINDOW_HALF_WIDTH + 1, (empty_rows, spike, scale)
                assert sizes[1:] in ([], [rows]), (empty_rows, spike, scale)
                if spike:  # the Lanczos oracle certifies an isolated extreme eigenvalue
                    lanczos = _lanczos(_block(scale * x))
                    assert lanczos is not None and abs(lanczos - want) <= 1e-12 * want, (
                        empty_rows, scale)


def _lower(block):
    """The band's entries (i, i - k) as row k, the layout _positive_definite reads."""
    lower = np.zeros((3, block.size))
    below = block.offsets <= 0
    lower[-block.offsets[below]] = block.data[below]
    return lower


def test_band_certificate_brackets_the_top_eigenvalue():
    # shift I - A is positive definite exactly when shift exceeds lambda_max(A)
    rng = np.random.default_rng(5)
    for width in (0, 1, 2):
        for m in (1, 2, 3, 50):
            x = _random_band(rng, m, width)
            lower = _lower(_block(x))
            top = np.linalg.eigvalsh(x)[-1]
            room = 1e-9 * max(1.0, abs(top))
            assert lat._positive_definite(lower, top + room), (width, m)
            assert not lat._positive_definite(lower, top - room), (width, m)


def test_certificate_rejects_a_value_that_is_not_the_norm():
    # the Ritz residual puts an eigenvalue within delta of theta, and the two
    # inertia checks bound every |eigenvalue| by nu + delta; each alone
    # accepts a wrong value
    values = np.linspace(-1.0, 1.0, 150)
    values[3], values[7] = 5.0, -9.0
    unit = np.eye(150)
    for sign in (1.0, -1.0):
        block = _block(np.diag(sign * values))
        sums = lat._row_sums(block)
        assert _certified(block, sign * -9.0, unit[7], sums) == 9.0
        assert _certified(block, sign * 5.0, unit[3], sums) is None  # an eigenpair, not the top
        assert _certified(block, sign * 12.0, unit[3], sums) is None  # above the top, no eigenpair
        assert lat._max_abs_eigenvalue(block) == 9.0


@pytest.mark.parametrize("failure", ["no window", "inertia"])
def test_uncertified_band_falls_back_to_eigvalsh(monkeypatch, failure):
    g = lat.LatticeGeometry(1, 320, 8.0 / 320, "open")
    want = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    if failure == "no window":
        # no block is a narrow band: the whole block is the first and only try
        monkeypatch.setattr(lat, "_NARROW_BAND", -1)
        want_sizes = [320] * 2
    else:
        # the window at the plate is rejected, then the whole block is solved
        monkeypatch.setattr(lat, "_positive_definite", lambda lower, shift: False)
        want_sizes = [10, 320] * 2
    sizes = _record_eigvalsh(monkeypatch)
    got = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    assert sizes == want_sizes  # phi of each label; pi is pruned by its Gershgorin bound
    for old, new in zip(want["per_label"], got["per_label"]):
        value = old["full_residual_norm"]
        assert abs(new["full_residual_norm"] - value) <= 1e-12 * value


@pytest.mark.parametrize("n", [8, 16, 40, 80, 160, 320, 640, 1280])
def test_window_norm_of_central_residuals_matches_dense_eigvalsh(monkeypatch, n):
    # at every unit of length and mass pair, the window at a plate
    # certifies the norm of the block with the larger Gershgorin bound (phi
    # in the default units, the unit-free pi at 8e6) from N = 40 on; below
    # that the whole block may follow it. By interlacing the window's
    # value is never above the block's, but for rounding. The other block's
    # bound is below that value, so it is not solved
    eps = np.finfo(float).eps
    for physical_size in (8.0, 1e-4, 8e6):
        unit = physical_size / 8.0
        for masses in ((math.pi, math.pi / 2), (2.0, 0.5)):
            g = lat.LatticeGeometry(1, n, physical_size / n, "open")
            residuals = _record_norm_inputs(monkeypatch)
            rep = lat.verify_central_relation(g, tuple(mass / unit for mass in masses))
            monkeypatch.undo()
            for row, residual in zip(rep["per_label"], residuals, strict=True):
                first, second = sorted(residual.blocks[::2], key=_gershgorin, reverse=True)
                sizes = _record_eigvalsh(monkeypatch)
                got = lat._max_abs_eigenvalue(first)
                monkeypatch.undo()
                case = (physical_size, masses, row["L_label"], first is residual.pi, sizes)
                assert len(sizes) <= (1 if n >= 40 else 2), case
                assert sizes[0] <= 2 * lat._WINDOW_HALF_WIDTH + 1, case
                want = _eigvalsh_norm(first.dense())
                assert abs(got - want) <= 1e-12 * want, case
                lanczos = _lanczos(first)  # the oracle pair, on the same blocks
                assert lanczos is not None and abs(lanczos - want) <= 1e-12 * want, case
                assert got <= want * (1 + 8 * eps), case
                assert _gershgorin(second) < got and row["full_residual_norm"] == got, case


@pytest.mark.parametrize("m", [99, 200])
def test_window_away_from_the_top_is_rejected(monkeypatch, m):
    # row 20 is the centre of a star, row sum 4 but local top 2; the top
    # eigenvalue, about 3, sits on row m - 10, beyond the window. The
    # certificate rejects the window, and the dense solve of all m rows
    # gives the norm
    rng = np.random.default_rng(m)
    x = 0.01 * _random_band(rng, m, 2)
    for j in (18, 19, 21, 22):
        x[20, j] = x[j, 20] = 1.0
    x[m - 10, m - 10] = 3.0
    for scale in (1.0, -1.0, 1e-30, 1e30):
        sizes = _record_eigvalsh(monkeypatch)
        got = lat._max_abs_eigenvalue(_block(scale * x))
        monkeypatch.undo()
        want = _eigvalsh_norm(scale * x)
        assert abs(got - want) <= 1e-12 * want, scale
        assert sizes == [2 * lat._WINDOW_HALF_WIDTH + 1, m], scale


def test_spread_out_top_runs_one_window_then_the_fallback(monkeypatch):
    # H's phi at N = 640 has its top spread over the chain: the window at
    # its first interior row fails, and the dense solve runs
    g = lat.LatticeGeometry(1, 640, 8.0 / 640, "open")
    phi = lat.build_hamiltonian(g, math.pi).phi
    sizes = _record_eigvalsh(monkeypatch)
    got = lat._max_abs_eigenvalue(phi)
    monkeypatch.undo()
    assert sizes == [10, 640]
    want = _eigvalsh_norm(phi.dense())
    assert abs(got - want) <= 1e-12 * want


def _oracle_spectral_norm(obs):
    """spectral_norm of a block-diagonal quad with both blocks solved, no pruning (reference)."""
    assert not obs.coupling
    return max(lat._max_abs_eigenvalue(obs.phi), lat._max_abs_eigenvalue(obs.pi))


def _oracle_certified(block, theta, y):
    """_certified with both LDL^T inertia checks always run, no Gershgorin shortcut (reference)."""
    nu = abs(theta)
    delta = lat._CERTIFIED_REL * nu
    r = block.dot(y) - theta * y
    if not math.sqrt(r @ r) <= delta * math.sqrt(y @ y):
        return None
    lower = _lower(block)
    bounded = all(lat._positive_definite(sign * lower, nu + delta) for sign in (1, -1))
    return float(nu) if bounded else None


def _one_signed(x, sign):
    """x shifted by its Gershgorin bound times `sign`: definite of that sign (semidefinite at worst)."""
    bound = np.abs(x).sum(axis=1).max()
    return x + sign * bound * np.eye(x.shape[0])


def _band_pairs(rng, m):
    """(phi, pi) pairs of bands: random, one-signed and diagonal, at scale ratios near and far."""
    for width_phi, width_pi in ((0, 0), (1, 2), (2, 1), (2, 2)):
        for kind in ("random", "positive", "negative", "diagonal"):
            phi, pi = _random_band(rng, m, width_phi), _random_band(rng, m, width_pi)
            if kind == "diagonal":
                phi, pi = np.diag(np.diag(phi)), np.diag(np.diag(pi))
            elif kind != "random":
                phi, pi = (_one_signed(x, 1 if kind == "positive" else -1) for x in (phi, pi))
            for ratio in (1e-3, 0.3, 1.0, 3.0, 1e3):
                yield phi, ratio * pi


@pytest.mark.parametrize("m", [7, 120])
def test_pruned_spectral_norm_is_bit_equal_to_both_blocks_solved(monkeypatch, m):
    rng = np.random.default_rng(11 * m)
    solves = []
    max_abs = lat._max_abs_eigenvalue
    monkeypatch.setattr(lat, "_max_abs_eigenvalue",
                        lambda b, *args: solves.append(b) or max_abs(b, *args))
    pruned = 0
    for phi, pi in _band_pairs(rng, m):
        for a, b in ((phi, pi), (pi, phi)):
            obs = lat.QuadraticObservable(m, _block(a), None, _block(b))
            solves.clear()
            got = lat.spectral_norm(obs)
            pruned += len(solves) == 1
            assert got == _oracle_spectral_norm(obs)
    assert pruned >= 40  # the ratios 1e-3 and 1e3 prune every kind


@pytest.mark.parametrize("m", [30, 120])
def test_pruning_near_a_tie_returns_the_same_float(monkeypatch, m):
    # on a diagonal block the Gershgorin bound is the norm itself, so pi's
    # bound sits within 1e-13 of phi's value: pruned only below 1 - 4e-13
    rng = np.random.default_rng(m)
    values = rng.standard_normal(m)
    values[m // 2] = -3.0  # a lone extreme eigenvalue
    phi = _block(np.diag(values))
    solves = []
    max_abs = lat._max_abs_eigenvalue
    monkeypatch.setattr(lat, "_max_abs_eigenvalue",
                        lambda b, *args: solves.append(b) or max_abs(b, *args))
    for factor in (1 - 1e-12, 1 - 5e-13, 1 - 4e-13, 1 - 1e-13, 1 - 1e-16, 1.0, 1 + 1e-16,
                   1 + 1e-13, 1 + 5e-13):
        pi = _block(np.diag(values * factor))
        for obs in (lat.QuadraticObservable(m, phi, None, pi),
                    lat.QuadraticObservable(m, pi, None, phi)):
            solves.clear()
            got = lat.spectral_norm(obs)
            assert len(solves) == (1 if abs(factor - 1) > 4.5e-13 else 2), factor
            assert got == _oracle_spectral_norm(obs), factor


@pytest.mark.parametrize("m", [1, 5, 40, 150])
def test_one_sided_certificate_agrees_with_both_sides_checked(monkeypatch, m):
    rng = np.random.default_rng(3 * m)
    sweeps = []
    positive_definite = lat._positive_definite
    monkeypatch.setattr(lat, "_positive_definite",
                        lambda lower, shift: sweeps.append(shift) or positive_definite(lower, shift))
    skipped = accepted = 0
    for phi, pi in _band_pairs(rng, m):
        for x in (phi, pi):
            block = _block(x)
            if not block:
                continue
            values, vectors = np.linalg.eigh(x)
            for i in sorted({0, m // 2, m - 1}):
                for theta in (values[i], values[i] * (1 + 3e-14), values[i] * (1 - 3e-14)):
                    sweeps.clear()
                    got = _certified(block, theta, vectors[:, i], lat._row_sums(block))
                    run = len(sweeps)
                    sweeps.clear()
                    assert got == _oracle_certified(block, theta, vectors[:, i]), (m, i, theta)
                    skipped += run < len(sweeps)
                    accepted += got is not None
    # one-signed and diagonal bands clear a side; the top pair is accepted
    assert skipped >= 300 and accepted >= 100, (skipped, accepted)


@pytest.mark.parametrize("n", [160, 640])
def test_central_norm_sweeps_once_per_label_and_skips_pi(monkeypatch, n):
    # phi of a 1-d central residual is negative definite, so its upper
    # Gershgorin edge clears +A, and pi's bound is far below phi's value
    g = lat.LatticeGeometry(1, n, 8.0 / n, "open")
    sweeps, solves = [], []
    positive_definite, max_abs = lat._positive_definite, lat._max_abs_eigenvalue
    monkeypatch.setattr(lat, "_positive_definite",
                        lambda lower, shift: sweeps.append(shift) or positive_definite(lower, shift))
    monkeypatch.setattr(lat, "_max_abs_eigenvalue",
                        lambda b, *args: solves.append(b) or max_abs(b, *args))
    residuals = _record_norm_inputs(monkeypatch)
    rep = lat.verify_central_relation(g, (math.pi, math.pi / 2))
    monkeypatch.undo()
    assert len(sweeps) == 2
    assert len(solves) == 2 and all(b is r.phi for b, r in zip(solves, residuals, strict=True))
    for row, residual in zip(rep["per_label"], residuals, strict=True):
        assert row["full_residual_norm"] == _oracle_spectral_norm(residual)


def test_spectral_norm_returns_a_float():
    g = lat.LatticeGeometry(1, 160, 0.05, "open")
    h = lat.build_hamiltonian(g, 1.0)
    p = lat.build_momentum(g, 0)
    k = lat.build_boost(g, 0, 0.3, 1.0)
    for obs in (lat.QuadraticObservable(160), h, p, lat.commutator(k, p) - h):
        assert type(lat.spectral_norm(obs)) is float
    with pytest.raises(ValueError, match="coupling block beside"):  # K at t != 0 is mixed
        lat.spectral_norm(k)


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
