"""Quadratic observables for a massive scalar field on a finite lattice.

The canonical vector is xi = (phi_1..phi_M, pi_1..pi_M) with the lattice
measure absorbed into the variables (phi_x -> a^{dims/2} phi_x and likewise
for pi), so the commutation relations read [xi_a, xi_b] = i omega[a][b] with
omega the exact +-1 block matrix [[0, I], [-I, 0]].

Observables are quadratic plus a scalar, O = 1/2 xi^T Q xi + scalar, with Q
symmetric; a symmetric Q is automatically Weyl (symmetric) ordered.
`QuadraticObservable(n_modes, phi, coupling, pi, scalar)` takes Q as its
three M x M blocks,

    Q = [[phi, C^T], [C, pi]],

with phi and pi symmetric and C the pi-phi coupling. Each block is a
`DiagonalBlock`: a sorted offset array and one row per offset, row i of
diagonal o holding entry (i, i + o); an all-zero diagonal is dropped, so
the all-zero block is the empty block, which stores none and is false.
Every generator is a nearest-neighbor stencil, so a block holds 3
diagonals in 1-d and about 9 in 2-d (the wrap bonds of a periodic axis
sit at offsets +-(N - 1) and +-(M - N)). The builders write each axis's
neighbor diagonals directly, with no dense M x M array. Offsets are kept
on Python ints and numpy only sees the (k, M) data: a product of blocks
with k_A and k_B diagonals is O(M k_A k_B) work, one gather and one
bincount while its k_A k_B M pair cells fit 64 KiB, else one pass per
diagonal of A, so no temporary outgrows 64 KiB or B's own k_B rows;
a sum or difference adds rows on the union of the offsets; a transpose
moves each diagonal's rows to the opposite offset. The dense 2M x 2M
matrix `quad` is a read-only view built on first access; no computation
here reads it.

`commutator` returns the rescaled product (1/i)[A, B], which is again
quadratic with real coefficients and scalar 0:

    quad = Q_A omega Q_B - Q_B omega Q_A

Omega is never built. With X = Q_A omega Q_B, block (i, j) of X is
A_i0 B_1j - A_i1 B_0j, a product with an empty block is empty at once, and
the second quad term is -X^T because both Q are symmetric; so the result has
phi = X_00 + X_00^T, pi = X_11 + X_11^T and C = X_10 + X_01^T. The products,
differences and sums run on raw (offsets, data) pairs, and each result block
is made once, at the end; a lone main diagonal, such as Pi = I of H or
Pi = -x of a boost, scales the other factor's rows. Diagonals that cancel
exactly are dropped, so a residual that vanishes exactly is a quad of
empty blocks.

Input scalar slots never contribute (constants commute), so a commutator of
two pure Weyl quadratics carries no central term; central scalars only enter
through the normal-ordering bookkeeping handled by `verify_central_relation`.

The vacuum is fixed by the geometry and the mass alone:
`build_mode_basis(geom, mass)` gives the spectrum of
build_hamiltonian(geom, mass) in closed form, from a DCT-II (free ends) or
Fourier (periodic) basis per axis, with no eigendecomposition. Of the
vacuum covariance Sigma it keeps one FFT cosine-sum table per block, of
length P // 2 + 1 per axis, and an entry of Sigma is a few reads of it.
Sigma is block-diagonal, so a vacuum expectation needs only phi and pi,
and Sigma only on their stored diagonals; no M x M array is made.

Both residual norms take an observable. `bulk_residual_norm` applies each
block once to the three bump profiles (Pi to f and df in one pass, an empty
C not at all); `verify_central_relation` builds those vectors once for both
labels. `spectral_norm` works from the blocks of its quad: the largest
|eigenvalue| of phi and pi, or the square root of the largest eigenvalue of
C^T C for a lone coupling block C; a quad with both kinds is a ValueError,
so no path here builds the dense 2M x 2M matrix. Each block's absolute row
sums are taken once: the larger Gershgorin bound picks the block solved
first, the other is not solved when its bound falls below that value by
more than rounding, and only the rows with a nonzero sum count. A band of
at most 2 diagonals per side (every 1-d central residual is one) tries a
window, the eigvalsh of the rows within 8, then 32, sites of the largest
row sum; it gives a lower bound nu on the norm that `_bounded` certifies
by banded LDL^T inertia checks of (nu + delta) I -+ A, delta = 1e-13 nu.
Any other block, or a band whose windows fail, goes to the one fallback,
a dense eigvalsh of those rows alone, read straight from the diagonals by
`DiagonalBlock.dense(keep)`, one strided slice per diagonal for a run of
rows (the 2-d [J, H] seam residual keeps 4N - 4 of its N^2 rows). An
empty block is 0 without a solve.

Sites are numbered in the C order of an N x ... x N array: site (i, j) is
i * N + j. Bonds and stencils go onto the diagonals at +- the flat stride of
one step; coordinates come from the strides, the bulk window from `_grid`.
A bulk restriction zeroes the entries off that window: every block keeps all M sites.

Spatial derivatives follow two deliberate conventions: the gradient energy
in the Hamiltonian uses forward differences (keeps the potential matrix
positive semidefinite), while the momentum generator uses centered
differences (keeps its matrix an exact generator, antisymmetric in the site
indices). Their mismatch is an O(a^2) discretization effect that the
convergence report measures instead of hiding. The boost weights the
Hamiltonian's stencil by the site coordinate, each bond at its midpoint.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import chain, product

import numpy as np

__all__ = [
    "DegenerateVacuumError",
    "DiagonalBlock",
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


# 2-d N = 64. Blocks and vacua are O(k M); the cap bounds the dense eigvalsh of
# the kept rows in `_max_abs_eigenvalue`, the one fallback for any block, a band
# whose windows fail included: at M = 4096 rows it takes 3.6-4.7 s (2-vCPU Xeon,
# one BLAS thread), a 134 MB matrix and a process peak near 290 MB.
# No computation builds a 2M x 2M matrix; only the `.quad` view, on request, does.
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
        a2 = self.spacing * self.spacing  # 4 dims / a^2 tops the Laplacian spectrum
        if not (self.spacing > 0 and 0 < a2 < math.inf and 0 < 4 * self.dims / a2 < math.inf):
            raise ValueError(f"spacing must be positive with a^2 and 4 dims / a^2 finite and "
                             f"nonzero, got {self.spacing!r}")
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


def _readonly(arr: np.ndarray, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _columns(offsets: np.ndarray, m: int) -> np.ndarray:
    """Column i + o of row i on every diagonal o, as a (k, M) array; may leave [0, M)."""
    return np.arange(m) + offsets[:, None]


@dataclass(frozen=True, eq=False)
class DiagonalBlock:
    """An M x M block stored as its nonzero diagonals (DIA form).

    `offsets` is sorted; row i of `data[d]` holds the entry (i, i + offsets[d]),
    and the entries that fall outside the matrix are zero. `_diagonals` drops
    every all-zero diagonal, so a stored diagonal has a nonzero entry; every
    operation here keeps that. The all-zero block stores no diagonal (offsets
    of shape (0,), data of shape (0, M)) and is false; `@`, `+`, `-` and `.T`
    return at once when an operand is empty. They run on raw pairs (offsets
    as a list of ints, data), which keep these rules without a block. Blocks
    come from the builders and the operations below; the constructor itself
    checks none of these conditions. A block is immutable, so `.T` is made
    once and kept.
    """

    offsets: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", _readonly(self.offsets, np.int64))
        object.__setattr__(self, "data", _readonly(self.data))

    @property
    def size(self) -> int:
        return self.data.shape[1]

    def __bool__(self) -> bool:
        return self.offsets.size > 0

    def dense(self, keep: np.ndarray | None = None) -> np.ndarray:
        """The M x M matrix, or its rows and columns `keep` (distinct sites), off the diagonals."""
        m = self.size
        rows = np.arange(m) if keep is None else keep
        r, start = rows.size, int(rows[0]) if rows.size else 0
        out = np.zeros((r, r))
        if keep is None or keep.tolist() == list(range(start, start + r)):
            flat = out.reshape(-1)  # a run of sites, as every window: (i, i + o) is i (r + 1) + o
            for row, o in zip(self.data, self.offsets.tolist()):
                lo, hi = max(0, -o), min(r, r - o)
                if lo < hi:
                    flat[lo * (r + 1) + o:hi * (r + 1) + o:r + 1] = row[start + lo:start + hi]
            return out
        position = np.full(m + 1, -1)  # index in rows of each site; -1 off them and at M
        position[rows] = np.arange(r)
        sub = position[np.clip(rows + self.offsets[:, None], -1, m)]  # a column off the matrix: -1
        hit = sub >= 0
        out[np.nonzero(hit)[1], sub[hit]] = self.data[:, rows][hit]
        return out

    @property
    def _pair(self) -> tuple:
        return self.offsets.tolist(), self.data

    @cached_property
    def T(self) -> "DiagonalBlock":
        return DiagonalBlock(*_transposed(self._pair, self.size)) if self else self

    def dot(self, vec: np.ndarray) -> np.ndarray:
        """B v, sum_d data[d, i] v[i + offsets[d]], for each vector v along vec's last axis."""
        m = self.size
        out = np.zeros(vec.shape)
        for row, o in zip(self.data, self.offsets.tolist()):
            lo, hi = max(0, -o), min(m, m - o)
            out[..., lo:hi] += row[lo:hi] * vec[..., lo + o:hi + o]
        return out

    def scaled(self, factor) -> "DiagonalBlock":
        """diag(factor) @ B for a length-M factor; a scalar factor scales every entry."""
        return _diagonals(self.offsets, self.data * factor)

    def __neg__(self) -> "DiagonalBlock":
        return DiagonalBlock(self.offsets, -self.data)

    def __add__(self, other: "DiagonalBlock") -> "DiagonalBlock":
        return _block(_merged(self._pair, other._pair, np.add), self.size)

    def __sub__(self, other: "DiagonalBlock") -> "DiagonalBlock":
        return _block(_merged(self._pair, other._pair, np.subtract), self.size)

    def __matmul__(self, other: "DiagonalBlock") -> "DiagonalBlock":
        return _block(_product(self._pair, other._pair, self.size), self.size)


def _transposed(x: tuple, m: int) -> tuple:
    """X^T: each diagonal's rows move to the opposite offset, in a new array."""
    offsets, data = x
    out = np.zeros(data.shape)
    # entry (i, i + o), i in lo .. hi - 1, is entry (i + o, i): row i + o of diagonal -o
    for row, o, t in zip(data, offsets, out[::-1]):
        lo, hi = max(0, -o), min(m, m - o)
        t[lo + o:hi + o] = row[lo:hi]
    return [-o for o in reversed(offsets)], out


def _merged(x: tuple, y: tuple, op) -> tuple:
    """x + y or x - y (op np.add or np.subtract) on the union of the offsets; a result on
    y's offsets is made in y when y is writeable, a kernel's new array read once."""
    (xs, x_data), (ys, y_data) = x, y
    if not ys:
        return x
    out = y_data if y_data.flags.writeable else None
    if not xs:
        return y if op is np.add else (ys, np.negative(y_data, out=out))
    if xs == ys:
        return _pruned((xs, op(x_data, y_data, out=out)))
    offsets = sorted({*xs, *ys})
    index = {o: d for d, o in enumerate(offsets)}
    data = np.zeros((len(offsets), x_data.shape[1]))
    data[[index[o] for o in xs]] = x_data
    rows = [index[o] for o in ys]
    data[rows] = op(data[rows], y_data)
    return _pruned((offsets, data))


def _product(a: tuple, b: tuple, m: int) -> tuple:
    """A @ B: entry (i, i + p + q) gathers A(i, i + p) B(i + p, i + p + q).

    Every entry adds its diagonal pairs (q, p) from +0.0 in increasing q, so
    every route gives the same bits: a lone main diagonal of one factor
    scales the other's rows, + 0.0 turning -0.0 into that +0.0. Up to
    _GATHER_CELLS pair cells k_A k_B M, one gather makes every pair's row
    products and one bincount adds them, so no temporary exceeds 64 KiB.
    Above that, one pass per diagonal p of A, from the last, multiplies its
    row into the rows of B shifted by p and adds them into the diagonals
    p + q; a pass holds k_B rows, no more than B itself. The offset sums are
    sorted and numbered on Python ints.
    """
    (ps, a_data), (qs, b_data) = a, b
    if not (ps and qs):
        return [], np.zeros((0, m))
    if ps == [0]:
        return _pruned((qs, a_data * b_data + 0.0))
    if qs == [0]:
        return _pruned((ps, a_data * b_data[0].take(_columns(np.array(ps), m), mode="clip") + 0.0))
    offsets = sorted({q + p for q in qs for p in ps})
    index = {o: d for d, o in enumerate(offsets)}
    if len(ps) * len(qs) * m <= _GATHER_CELLS:
        rows = np.arange(m)
        # rows of B at l = i + p; where l leaves [0, M), A's entry is zero
        products = b_data.take(_columns(np.array(ps), m), axis=1, mode="clip")
        products *= a_data
        cells = np.array([index[q + p] * m for q in qs for p in ps])[:, None] + rows
        data = np.bincount(cells.ravel(), products.ravel(), len(offsets) * m).reshape(-1, m)
    else:
        # the rows where i + p leaves [0, M) would add only A's zeros
        data = np.zeros((len(offsets), m))
        for p, row in zip(reversed(ps), a_data[::-1]):
            lo, hi = max(0, -p), min(m, m - p)
            data[[index[q + p] for q in qs], lo:hi] += row[lo:hi] * b_data[:, lo + p:hi + p]
    return _pruned((offsets, data))


# pair cells of a product made in one gather, 64 KiB per temporary. A pass
# per diagonal of A costs a few numpy calls, so the gather is faster on small
# products (2-d 9 x 8 diagonals at N = 8 and 12: 1.3-2x), but its temporaries
# are mapped and faulted in afresh once they pass glibc's 128 KiB mmap
# threshold. On lattice-ladder jobs 8192 ran as fast as 16384 (4096 and the
# passes alone were slower at N = 8 and 12) with a third of the faults.
_GATHER_CELLS = 8192


def _pruned(x: tuple) -> tuple:
    """The pair without its all-zero diagonals, such as any with |offset| >= M."""
    offsets, data = x
    keep = data.any(axis=1).tolist()
    return x if all(keep) else ([o for o, k in zip(offsets, keep) if k], data[keep])


def _block(x: tuple, m: int) -> DiagonalBlock:
    """The M x M block of a pair."""
    return DiagonalBlock(*x) if x[0] else _zero(m)


def _diagonals(offsets: np.ndarray, data: np.ndarray) -> DiagonalBlock:
    """The block of these diagonals without the all-zero ones."""
    return _block(_pruned((offsets.tolist(), data)), data.shape[1])


@cache
def _zero(m: int) -> DiagonalBlock:
    """The all-zero M x M block."""
    return DiagonalBlock(np.zeros(0, np.int64), np.zeros((0, m)))


def _diagonal(values: np.ndarray) -> DiagonalBlock:
    """diag(values) as a block."""
    return _diagonals(np.zeros(1, np.int64), values[None])


@dataclass(frozen=True, eq=False)
class QuadraticObservable:
    """O = 1/2 xi^T Q xi + scalar, Q = [[phi, C^T], [C, pi]] symmetric (Weyl order).

    Each block is an M x M `DiagonalBlock`; an omitted (None) block is stored
    as the empty one. phi and pi must be symmetric, which is taken on trust
    (the builders, `commutator`, `+` and `-` make them so). Any other block
    is a ValueError.
    """

    n_modes: int
    phi: DiagonalBlock | None = None
    coupling: DiagonalBlock | None = None
    pi: DiagonalBlock | None = None
    scalar: float = 0.0

    def __post_init__(self):
        m = self.n_modes
        for name, block in zip(("phi", "coupling", "pi"), self.blocks):
            if block is None:
                object.__setattr__(self, name, _zero(m))
            elif not (isinstance(block, DiagonalBlock) and block.size == m):
                raise ValueError("quad blocks must be M x M DiagonalBlocks or None")
        object.__setattr__(self, "scalar", float(self.scalar))

    @property
    def blocks(self) -> tuple:
        return self.phi, self.coupling, self.pi

    @cached_property
    def quad(self) -> np.ndarray:
        """Read-only dense 2M x 2M view of Q, built on first access."""
        m = self.n_modes
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m], out[m:, :m], out[m:, m:] = (block.dense() for block in self.blocks)
        out[:m, m:] = out[m:, :m].T
        return _readonly(out)

    def shifted(self, delta_scalar: float) -> "QuadraticObservable":
        return replace(self, scalar=self.scalar + delta_scalar)  # shares the read-only blocks

    def _combine(self, other: "QuadraticObservable", op) -> "QuadraticObservable":
        m = _same_modes(self, other)
        blocks = [op(x, y) for x, y in zip(self.blocks, other.blocks)]
        return QuadraticObservable(m, *blocks, op(self.scalar, other.scalar))

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


def _layers(geom: LatticeGeometry, direction: int, site: np.ndarray) -> np.ndarray:
    """A view of the site-indexed `site` with `direction` first: entry [k] is layer k."""
    return site.reshape((geom.sites_per_dim,) * geom.dims).swapaxes(0, direction)


def _neighbor_diagonals(geom: LatticeGeometry, direction: int, up, down) -> dict:
    """The diagonals {offset: row} that put up[k] at (x, x + e) and down[k] at (x + e, x).

    x runs over layer k along `direction` and e is one step along it; up and
    down hold one layer per bond, the last one the wrap bond of a periodic
    axis, whose entries sit on the offsets -+(N - 1) s instead of +-s.
    """
    n, m = geom.sites_per_dim, geom.n_sites
    stride = n ** (geom.dims - 1 - direction)

    def row(layers, values):
        out = np.zeros(m)
        _layers(geom, direction, out)[layers] = values
        return out

    out = {stride: row(slice(0, n - 1), up[:n - 1]), -stride: row(slice(1, n), down[:n - 1])}
    if geom.boundary == "periodic":
        out[-(n - 1) * stride] = row(n - 1, up[n - 1])
        out[(n - 1) * stride] = row(0, down[n - 1])
    return out


def _stencil(diagonals: dict) -> DiagonalBlock:
    """The block of the diagonals {offset: row}."""
    offsets = sorted(diagonals)
    return _diagonals(np.array(offsets), np.stack([diagonals[o] for o in offsets]))


def _potential_matrix(geom: LatticeGeometry, mass: float, weight: np.ndarray) -> DiagonalBlock:
    """Site terms m^2 w_x plus forward-difference bonds, each weighted at its midpoint.

    All-ones weights give the potential matrix of H; the centered coordinate
    gives the weighted potential of a boost. A bond b between u and w adds b
    to (u, u) and (w, w) and -b to (u, w) and (w, u); a diagonal entry adds
    its site term, then its bonds axis by axis, the bond from the previous
    layer before the one to the next except where the former wraps.
    """
    diagonal = (mass * mass) * weight
    inverse_a2 = 1.0 / (geom.spacing * geom.spacing)
    neighbors = {}
    for direction in range(geom.dims):
        w, sites = _layers(geom, direction, weight), _layers(geom, direction, diagonal)
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
        neighbors |= _neighbor_diagonals(geom, direction, 0.0 - bond, 0.0 - bond)
    return _stencil({0: diagonal, **neighbors})


def _difference_matrix(geom: LatticeGeometry, direction: int) -> DiagonalBlock:
    """Centered difference along `direction`, one-sided at the edges of an open lattice."""
    n = geom.sites_per_dim
    step = 1.0 / (2.0 * geom.spacing)
    shape = (n - (geom.boundary == "open"),) + (n,) * (geom.dims - 1)
    up, down = np.full(shape, step), np.full(shape, -step)
    diagonal = np.zeros(geom.n_sites)  # all zero, so dropped, on a periodic lattice
    if geom.boundary == "open":
        # an open edge row adds a half step to its bond, one-sided: 2 * step is
        # exactly fl(1/a) while step is a normal float (a below about 2e307)
        up[0] += step
        down[-1] -= step
        edges = _layers(geom, direction, diagonal)
        edges[0], edges[-1] = -2 * step, 2 * step
    return _stencil({0: diagonal, **_neighbor_diagonals(geom, direction, up, down)})


# the residual norms square entries of order m^2 N; at physical size 8 they
# overflow from m = 1e78, so this leaves a wide margin
_MAX_MASS = 1e50


def _check_mass(mass: float) -> None:
    if not 0 <= mass <= _MAX_MASS:
        raise ValueError(f"mass must be finite, nonnegative and at most {_MAX_MASS:g}, "
                         f"got {mass!r}")


# V is assembled in floats, so it holds m^2 only to about eps ||V|| =
# eps (m^2 + 4 dims / a^2), and the trace route 1/2 tr(V Sigma) reads that V;
# the closed-form spectrum does not see the rounding. Measured with a dense
# eigenvalue solve on open 1-D lattices (N = 10 to 160, a down to 3e-9), the
# smallest eigenvalue of the rounded V was off by at most that over m^2, and at
# 3.6 by 44-124 %. The bound keeps m^2 to 1 %; tests and benchmark jobs reach
# 2.3e-12.
_MAX_ROUNDING_RATIO = 1e-2


def _check_vacuum_mass(geom: LatticeGeometry, mass: float) -> None:
    """The one vacuum rule: _check_mass; a zero mass is a DegenerateVacuumError (the
    constant field is a zero mode on every lattice), and a positive mass lost to the
    rounding of V at this spacing a ValueError. Neither test depends on the unit of length."""
    _check_mass(mass)
    if mass == 0:
        raise DegenerateVacuumError("smallest potential eigenvalue 0.000e+00")
    ma2 = mass * geom.spacing * (mass * geom.spacing)  # inf past float range; ** 2 raises
    rounding = np.finfo(float).eps * (ma2 + 4 * geom.dims)
    if rounding > _MAX_ROUNDING_RATIO * ma2:
        raise ValueError(
            f"mass {mass:g} is lost to the rounding of V at spacing {geom.spacing:g}: eps (m^2 + "
            f"4 dims / a^2) / m^2 = {rounding / ma2 if ma2 else math.inf:.3g} exceeds "
            f"{_MAX_ROUNDING_RATIO:g}")


def build_hamiltonian(geom: LatticeGeometry, mass: float) -> QuadraticObservable:
    """H = 1/2 sum_x [pi_x^2 + sum_i ((phi_{x+e_i} - phi_x)/a)^2 + m^2 phi_x^2].

    Scalar slot is 0 (plain Weyl form). A massless H is a valid operator; its
    constant field is a zero mode, so `build_mode_basis` refuses its vacuum.
    """
    _check_mass(mass)
    m = geom.n_sites
    return QuadraticObservable(m, phi=_potential_matrix(geom, mass, np.ones(m)),
                               pi=_diagonal(np.ones(m)))


def build_momentum(geom: LatticeGeometry, direction: int) -> QuadraticObservable:
    """Weyl-symmetrized pi * (centered difference of phi), summed over sites."""
    if not 0 <= direction < geom.dims:
        raise ValueError("direction out of range")
    return QuadraticObservable(geom.n_sites, coupling=_difference_matrix(geom, direction))


def build_boost(
    geom: LatticeGeometry, direction: int, t: float, mass: float
) -> QuadraticObservable:
    """K = t * P - sum_x x_i h_x with the bond terms weighted at bond midpoints.

    Position weights need a definite coordinate, so the lattice must be open;
    coordinates are centered, x_i in {-(N-1)/2 .. (N-1)/2} * a. A t that is
    not finite is a ValueError; at t = 0 the coupling block is empty.
    """
    if geom.boundary != "open":
        raise ValueError("boost generator needs an open boundary")
    if not math.isfinite(t):
        raise ValueError(f"boost time t must be finite, got {t!r}")
    _check_mass(mass)
    coord = geom.centered_coordinate(direction)
    coupling = _difference_matrix(geom, direction).scaled(t) if t else None
    return QuadraticObservable(geom.n_sites, -_potential_matrix(geom, mass, coord),
                               coupling, _diagonal(-coord))


def build_rotation(geom: LatticeGeometry) -> QuadraticObservable:
    """J = sum_x [x_1 (pi d_2 phi)_x - x_2 (pi d_1 phi)_x], two dimensions only.

    On a periodic lattice the centered coordinate jumps at the wrap seam, so
    the rotation residuals concentrate there; closure checks mask the seam.
    """
    if geom.dims != 2:
        raise ValueError("rotation generator needs dims = 2")
    return _rotation(geom, [_difference_matrix(geom, d) for d in range(2)])


def _rotation(geom: LatticeGeometry, differences: list) -> QuadraticObservable:
    """J from the centered differences [D_1, D_2] of `geom`: coupling x_1 D_2 - x_2 D_1."""
    x1, x2 = geom.centered_coordinate(0), geom.centered_coordinate(1)
    return QuadraticObservable(geom.n_sites,
                               coupling=differences[1].scaled(x1) - differences[0].scaled(x2))


# ---------------------------------------------------------------------------
# vacuum structure


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Vacuum of a lattice Hamiltonian [[V, 0], [0, I]] with V = U diag(omega^2) U^T.

    `frequencies` are the omega, ascending. The vacuum covariance
    Sigma[a][b] = <0| {xi_a, xi_b}/2 |0> is block-diagonal, Sigma_phi =
    U diag(1/omega) U^T / 2 and Sigma_pi = U diag(omega) U^T / 2; their
    product is I / 4, the minimum uncertainty of a pure Gaussian state.
    Neither block is stored: `cosine_phi` and `cosine_pi` are their cosine
    sums g on `geom` (see `build_mode_basis`), and `covariance` reads the
    entries a block's diagonals need off them.
    """

    frequencies: np.ndarray
    geom: LatticeGeometry
    cosine_phi: np.ndarray
    cosine_pi: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "cosine_phi", "cosine_pi"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_modes(self) -> int:
        return self.frequencies.shape[0]

    @property
    def energy(self) -> float:
        """Ground-state energy 1/2 sum_k omega_k."""
        return 0.5 * float(np.sum(self.frequencies))

    def covariance(self, block: str, offsets: np.ndarray) -> np.ndarray:
        """Sigma_phi or Sigma_pi (`block` "phi" or "pi") at (i, i + o) for each offset o.

        A (k, M) array; a column i + o outside [0, M) is clipped into it.
        Per axis, the index into g is the folded i - j, and for free ends
        also the folded i + j + 1; an entry sums g over every choice of one
        index per axis, in `product` order.
        """
        geom = self.geom
        n, m = geom.sites_per_dim, geom.n_sites
        free = geom.boundary == "open"
        period = 2 * n if free else n
        # per-axis coordinates of a site: site (i, j) is i * N + j
        rows, cols = ((np.divmod(x, n) if geom.dims == 2 else (x,))
                      for x in (np.arange(m), np.clip(_columns(offsets, m), 0, m - 1)))
        # g(d) = g(P - d), and the table holds d = 0 .. P // 2
        per_axis = [[np.minimum(d % period, -d % period)
                     for d in ((i - j, i + j + 1) if free else (i - j,))]
                    for i, j in zip(rows, cols)]
        table = getattr(self, f"cosine_{block}")
        return reduce(operator.add, (table[terms] for terms in product(*per_axis)))


def build_mode_basis(geom: LatticeGeometry, mass: float) -> ModeBasis:
    """The vacuum of build_hamiltonian(geom, mass), with no eigendecomposition.

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
    rfft per axis gives g for every offset, and the basis keeps that table.

    Each axis has mu_0 = 0, so the smallest lambda is m^2 on every lattice,
    and `_check_vacuum_mass` decides whether the vacuum exists: a zero mass
    is a DegenerateVacuumError (the constant field is a zero mode), a mass
    lost to the rounding of V a ValueError.
    """
    _check_vacuum_mass(geom, mass)
    from numpy.fft import rfft  # loaded on first use: importing lattice stays cheap

    n, dims = geom.sites_per_dim, geom.dims
    free = geom.boundary == "open"
    period = 2 * n if free else n
    k = np.arange(n)
    # k and P - k share a periodic eigenvalue; the min makes the pair bit-equal
    mu = (4.0 / geom.spacing**2) * np.sin(np.pi / period * np.minimum(k, period - k)) ** 2
    lam = mass * mass + reduce(np.add.outer, [mu] * dims)
    ascending = np.sort(lam, axis=None)

    # Free ends: c_k^2 cos(pi k (2i + 1) / P) cos(pi k (2j + 1) / P) is
    # (c_k^2 / 2) [cos(2 pi k (i - j) / P) + cos(2 pi k (i + j + 1) / P)], with
    # c_k^2 / 2 = 1/(2N) at k = 0 and 1/N above. Periodic: the cos and sin columns
    # of k and N - k give (1/N) cos(2 pi k (i - j) / N) for each of the two.
    weight = np.full(n, 1.0 / n)
    if free:
        weight[0] *= 0.5

    def cosine_sums(f):
        g = f * reduce(np.multiply.outer, [weight] * dims)
        for axis in range(dims):
            g = rfft(g, period, axis=axis).real
        return g

    root = np.sqrt(lam)
    return ModeBasis(np.sqrt(ascending), geom, cosine_sums(0.5 / root), cosine_sums(0.5 * root))


def vacuum_expectation(obs: QuadraticObservable, basis: ModeBasis) -> float:
    """<0|O|0> = 1/2 tr(quad Sigma) + scalar; the vacuum has <xi> = 0."""
    if obs.n_modes != basis.n_modes:
        raise ValueError("observable and basis dimensions differ")
    # Sigma is symmetric and block-diagonal, so tr(Q Sigma) is the
    # elementwise contraction of phi and pi with their covariance blocks,
    # read on the stored diagonals; an empty block adds nothing
    pairs = (("phi", obs.phi), ("pi", obs.pi))
    return 0.5 * sum(float(np.vdot(q.data, basis.covariance(name, q.offsets)))
                     for name, q in pairs if q) + obs.scalar


def normal_ordered(obs: QuadraticObservable, basis: ModeBasis) -> QuadraticObservable:
    """Shift the scalar slot so the vacuum expectation vanishes."""
    return obs.shifted(-vacuum_expectation(obs, basis))


# ---------------------------------------------------------------------------
# commutators


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """(1/i)[A, B] for Weyl-ordered quadratic observables, with scalar 0.

    The input scalar slots drop out entirely (constants commute). With both
    quads symmetric, Q_B omega Q_A = -(Q_A omega Q_B)^T, so one block product
    X gives the quad.
    """
    m = _same_modes(a, b)
    (a0, ac, a1), (b0, bc, b1) = ([x._pair for x in obs.blocks] for obs in (a, b))
    act, bct = a.coupling.T._pair, b.coupling.T._pair
    # X = Q_A omega Q_B, block (i, j) = A_i0 B_1j - A_i1 B_0j, where
    # Q_00 = phi, Q_01 = C^T, Q_10 = C and Q_11 = pi
    factors = ((a0, bc, act, b0), (a0, b1, act, bct), (ac, bc, a1, b0), (ac, b1, a1, bct))
    x00, x01, x10, x11 = (_merged(_product(p, q, m), _product(r, s, m), np.subtract)
                          for p, q, r, s in factors)
    return QuadraticObservable(m, *(_block(_merged(x, _transposed(y, m), np.add), m)
                                    for x, y in ((x00, x00), (x10, x01), (x11, x11))))  # X + X^T


# ---------------------------------------------------------------------------
# residual norms


def spectral_norm(obs: QuadraticObservable) -> float:
    """Largest singular value of the symmetric quad Q of `obs`, a float, from its blocks.

    Block-diagonal: the largest |eigenvalue| of phi and pi. The block with
    the larger Gershgorin bound is solved first, and the other is skipped
    when its bound is below that value by more than 4e-13 relative: its
    eigenvalues cannot reach it, so the max is the same float.
    Off-diagonal [[0, C^T], [C, 0]]: the square root of that of C^T C.
    A narrow band's value is a certified window at its largest row sum;
    any other block, or a band whose windows fail, gets a dense eigvalsh
    of the rows that hold an entry (`_max_abs_eigenvalue`).
    A mixed quad, a coupling block beside a phi or pi block, is a
    ValueError: every residual the checks norm is one of the two shapes.
    """
    if not (obs.phi or obs.pi):  # off-diagonal; the empty quad takes no row sums here
        return math.sqrt(_max_abs_eigenvalue(obs.coupling.T @ obs.coupling))
    if obs.coupling:
        raise ValueError("spectral_norm takes a block-diagonal or an off-diagonal quad, "
                         "not a coupling block beside a phi or pi block")
    blocks, sums = (obs.phi, obs.pi), [_row_sums(obs.phi), _row_sums(obs.pi)]
    bounds = [float(x.max(initial=0.0)) for x in sums]
    first, second = sorted((0, 1), key=bounds.__getitem__, reverse=True)
    top = _max_abs_eigenvalue(blocks[first], sums[first])
    if bounds[second] < top * (1 - 4 * _CERTIFIED_REL):
        return top
    return max(top, _max_abs_eigenvalue(blocks[second], sums[second]))


def _row_sums(block: DiagonalBlock) -> np.ndarray:
    """sum_j |B(i, j)| for each row i; the largest bounds every |eigenvalue| (Gershgorin 1931)."""
    return np.abs(block.data).sum(axis=0)


# A band of at most _NARROW_BAND diagonals per side (the LDL^T loop of
# `_positive_definite` reads two below the main one) tries the windows of
# _WINDOW_HALF_WIDTHS sites around its largest row sum before the whole block.
# A 1-d central residual's top eigenvector sits at a plate (beyond 8 sites its
# largest component is 2.4e-8 at N = 80), so the first window certifies it:
# 59 us at N = 80 and 560 us at 2560, mostly the LDL^T sweep, against 260 us
# and 1.9 s by a dense eigvalsh of the block (2-vCPU Xeon, one BLAS thread).
# H's phi, whose top is spread out, fails both windows (0.4 ms at 2560 rows)
# and goes to the dense eigvalsh.
_NARROW_BAND = 2
_WINDOW_HALF_WIDTHS = (8, 32)
_CERTIFIED_REL = 1e-13


def _max_abs_eigenvalue(block: DiagonalBlock, sums: np.ndarray | None = None) -> float:
    """Largest |eigenvalue| of a symmetric block; 0 for the empty block.

    Only the rows that hold a stored entry, a nonzero row sum (`sums`, else
    `_row_sums`), count: the rest add zero eigenvalues. Each try is the
    eigvalsh of the principal sub-block on some of those rows; its largest
    |eigenvalue| nu is at most the norm by Cauchy interlacing (Parlett 1980,
    10.1). A narrow band first tries the rows within each of
    _WINDOW_HALF_WIDTHS sites of its largest row sum. The last try, and the
    only one for any other block, is every kept row. A try is kept when
    `_bounded` certifies nu, or when it holds every kept row: then nu is the
    norm itself.
    """
    sums = _row_sums(block) if sums is None else sums
    keep = np.flatnonzero(sums)
    if not keep.size:
        return 0.0
    tries = [keep]
    if max(-block.offsets[0], block.offsets[-1]) <= _NARROW_BAND:
        centre = int(sums.argmax())
        tries = chain((keep[np.abs(keep - centre) <= half] for half in _WINDOW_HALF_WIDTHS), tries)
    for rows in tries:
        eig = np.linalg.eigvalsh(block.dense(rows))
        nu = float(max(-eig[0], eig[-1]))
        if rows.size == keep.size or _bounded(block, nu, sums):
            return nu


def _bounded(block: DiagonalBlock, nu: float, sums: np.ndarray) -> bool:
    """Whether every |eigenvalue| of the band A is at most nu + delta, delta = 1e-13 nu.

    Positive LDL^T pivots of (nu + delta) I - A and (nu + delta) I + A put
    every eigenvalue inside +-(nu + delta), by Sylvester's law of inertia.
    A side whose Gershgorin edge, max_i (+-A(i, i) + sum_(j != i) |A(i, j)|),
    is at most nu needs no LDL^T: every eigenvalue of +-A is below that
    edge, and delta covers its rounding, under 5 eps times a row sum, which
    is at most sqrt(5) nu on a band of 5 diagonals. With nu a lower bound,
    as a window's is, this makes nu the norm to 1e-13.
    """
    lower = np.zeros((_NARROW_BAND + 1, block.size))  # row k: the entries (i, i - k)
    below = block.offsets <= 0
    lower[-block.offsets[below]] = block.data[below]
    radius = sums - np.abs(lower[0])  # off-diagonal row sums
    shift = nu + _CERTIFIED_REL * nu
    return all((sign * lower[0] + radius).max() <= nu
               or _positive_definite(sign * lower, shift) for sign in (1, -1))


def _positive_definite(lower: np.ndarray, shift: float) -> bool:
    """Whether shift I - S is positive definite; S is symmetric with S(i, i - j) = lower[j][i].

    S has at most two diagonals below the main one. The LDL^T pivots come
    row by row: with k = -L(i, i - 1), v = S(i, i - 1) + S(i, i - 2) k_prev
    gives k = v / d_(i - 1) and d_i = shift - S(i, i) - v k - S(i, i - 2)^2 / d_(i - 2).
    """
    d2 = d1 = 1.0  # the pivots of rows i - 2 and i - 1; rows before 0 are unit padding
    k = 0.0
    for s0, s1, s2 in zip(*lower.tolist()):
        v = s1 + s2 * k
        k = v / d1
        d = shift - s0 - v * k - s2 * s2 / d2
        if not d > 0:
            return False
        d2, d1 = d1, d
    return True


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
    return _bulk_residual_norm(residual, _bulk_test_vectors(geom))


def _bulk_test_vectors(geom: LatticeGeometry) -> tuple:
    """The profiles f over their derivatives df, one row each, and |v| of each test vector.

    The test vectors are (f, 0), (0, f) and (f, df); each |v| is one dot over
    its 2M entries, as np.linalg.norm takes it.
    """
    f, df = (np.array(p) for p in zip(*_bump_profiles(geom)))
    zero = np.zeros(f.shape)
    norms = [[math.sqrt(v @ v) for v in np.concatenate(halves, axis=1)]
             for halves in ((f, zero), (zero, f), (f, df))]
    return np.concatenate([f, df]), norms


def _bulk_residual_norm(residual: QuadraticObservable, tests: tuple) -> float:
    """`bulk_residual_norm` on the test vectors `tests` of `_bulk_test_vectors`."""
    both, norms = tests
    f, (phi, c, pi) = both[:_N_PROFILES], residual.blocks
    phi_f, (pi_f, pi_df) = phi.dot(f), pi.dot(both).reshape(2, _N_PROFILES, -1)
    # the halves of R v: the sums of the full product, less the terms of a
    # zero half, which add exact zeros; an empty C gives its zeros with no dot
    zero = np.zeros(f.shape)
    c_f, ct_f, ct_df = (c.dot(f), *c.T.dot(both).reshape(2, _N_PROFILES, -1)) if c else [zero] * 3
    images = ((phi_f, c_f), (ct_f, pi_f), (phi_f + ct_df, c_f + pi_df))
    worst = 0.0
    for halves, norms_v in zip(images, norms):
        for image, norm_v in zip(np.concatenate(halves, axis=1), norms_v):
            if norm_v:
                worst = max(worst, math.sqrt(image @ image) / norm_v)
    return worst


def _bulk_restriction(obs: QuadraticObservable, geom: LatticeGeometry) -> QuadraticObservable:
    """Q with every entry zeroed whose row or column lies off the bulk sites, in both halves."""
    m = obs.n_modes
    bulk = np.zeros(m, bool)
    bulk[_bulk_sites(geom)] = True

    def masked(block):  # a column off the matrix holds a zero entry, so clipping it is safe
        return _diagonals(block.offsets,
                          block.data * (bulk & bulk[np.clip(_columns(block.offsets, m), 0, m - 1)]))

    return QuadraticObservable(m, *(masked(block) if block else block for block in obs.blocks))


def _check_spacings(spacings) -> None:
    for a in spacings:
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"spacings must be finite and positive, got {a!r}")
    if len(set(map(float, spacings))) < 2:
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

    P has no phi or pi block, so its vacuum value is 0 in every vacuum and
    one P serves both labels; the final entry reports the central-charge
    difference E(L0) - E(L1). Both vacua are built first, so a mass that
    has none fails before any generator is built. The bulk window needs
    N >= 4; a smaller lattice is a ValueError.
    """
    if geom.boundary != "open":
        raise ValueError("central-relation check needs an open boundary")
    if len(mass_pair) != 2:
        raise ValueError("mass_pair must hold exactly two masses")
    bases = [build_mode_basis(geom, mass) for mass in mass_pair]
    window = _bulk_window(geom)
    tests = _bulk_test_vectors(geom)  # one set for both labels
    momentum = build_momentum(geom, 0)
    per_label = []
    energies = []
    for label, (mass, basis) in enumerate(zip(mass_pair, bases)):
        h = build_hamiltonian(geom, mass)
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
                "bulk_residual_norm": _bulk_residual_norm(residual, tests),
                "full_residual_norm": spectral_norm(residual),
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
    coordinate seam of the torus, so its bulk norm zeroes every entry whose
    row or column lies within N // 4 sites of the seam; in 2-D that needs
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
        comm_jh = commutator(_rotation(geom, [p.coupling for p in momenta]), h)
        out["J,H bulk"] = spectral_norm(_bulk_restriction(comm_jh, geom))
        out["J,H full"] = spectral_norm(comm_jh)
    return out


def contradiction_demo(geom: LatticeGeometry, mass: float) -> dict:
    """Why <0|H|0> = 0 cannot hold for the plain Weyl Hamiltonian.

    Every mode frequency is at least the mass (the gradient coupling is
    positive semidefinite), so the ground-state energy is bounded below by
    M * m / 2 > 0; demanding zero contradicts the commutation relations
    that fix the 1/2 per mode.
    """
    basis = build_mode_basis(geom, mass)
    vev = vacuum_expectation(build_hamiltonian(geom, mass), basis)
    return {
        "n_modes": basis.n_modes,
        "mass": float(mass),
        "ground_energy": basis.energy,
        "vev_trace_route": vev,
        "lower_bound": 0.5 * basis.n_modes * float(mass),
        "min_frequency": float(basis.frequencies[0]),
    }
