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
neighbor diagonals into one (k, M) array at their sorted offsets, with no
dense M x M array. Offsets are kept on Python ints and numpy only sees the
(k, M) data: a product of blocks with k_A and k_B diagonals is O(M k_A k_B)
work, one gather and one bincount while its k_A k_B M pair cells fit
64 KiB, else one pass per diagonal of the factor with fewer, so no
temporary outgrows 64 KiB or the other factor's own rows; a sum or
difference adds rows on the union of the offsets; a transpose moves each
diagonal's rows to the opposite offset. The dense 2M x 2M
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
is made once, at the end. Phi and pi add each diagonal o >= 0 of X to its
mirror -o and copy that row to -o, so only C transposes a block. A lone
main diagonal, such as Pi = I of H or Pi = -x of a boost, scales the other
factor's rows. Diagonals that cancel exactly are dropped, so a residual
that vanishes exactly is a quad of empty blocks.

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

Both residual norms take an observable. `_bulk_residual_norm` applies each
block once to the three bump profiles (Pi to f and df in one pass, an empty
C not at all); `verify_central_relation` builds those vectors once for both
labels. `spectral_norm` works from the blocks of its quad: the largest
|eigenvalue| of phi and pi, or the square root of the largest eigenvalue of
C^T C for a lone coupling block C; a quad with both kinds is a ValueError,
so no path here builds the dense 2M x 2M matrix. Each block's absolute row
sums are taken once: the larger Gershgorin bound picks the block solved
first, the other is not solved when its bound falls below that value by
more than rounding, and only the rows with a nonzero sum count. A band of
at most 2 diagonals per side (every 1-d central residual is one) tries one
window, the eigvalsh of the rows within 8 sites of the largest row sum; it
gives a lower bound nu on the norm that `_bounded` certifies by banded
LDL^T inertia checks of (nu + delta) I -+ A, delta = 1e-13 nu. Any other
block, or a band whose window fails, is solved on those rows alone, read
straight from the diagonals by `DiagonalBlock.dense`, one strided slice
per diagonal for a run of rows. A block whose offsets are all odd couples
even rows to odd ones only, so it is [[0, B], [B^T, 0]] and its norm is
the square root of the top eigenvalue of the smaller Gram matrix, B^T B
or B B^T: the 2-d [J, H] seam residual, at offsets +-1, +-(2N - 1) and
+-(N^2 - N +- 1), keeps 4N - 4 of its N^2 rows and solves a Gram matrix
of 2N - 2. Any other block gets a dense eigvalsh of its kept rows. An
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
from itertools import product

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
# the kept rows in `_max_abs_eigenvalue`, the fallback for a block with an even
# offset: at M = 4096 rows it takes 3.6-4.7 s (2-vCPU Xeon, one BLAS thread),
# a 134 MB matrix and a process peak near 290 MB.
# No computation builds a 2M x 2M matrix; only the `.quad` view, on request, does.
_MAX_SITES = 4096


@dataclass(frozen=True)
class LatticeGeometry:
    """Finite spatial lattice: integer `dims` in (1, 2) and N per direction, at most 4096 sites."""

    dims: int
    sites_per_dim: int
    spacing: float
    boundary: str = "open"

    def __post_init__(self):
        for name in ("dims", "sites_per_dim"):  # a numpy integer is kept as an int
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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

    def dense(self, keep: np.ndarray | None = None, cols: np.ndarray | None = None) -> np.ndarray:
        """The M x M matrix, or its rows `keep` and columns `cols` (default `keep`; distinct
        sites each), off the diagonals."""
        m = self.size
        rows = np.arange(m) if keep is None else keep
        r, start = rows.size, int(rows[0]) if rows.size else 0
        if cols is None and (keep is None or keep.tolist() == list(range(start, start + r))):
            out = np.zeros((r, r))
            flat = out.reshape(-1)  # a run of sites, as every window: (i, i + o) is i (r + 1) + o
            for row, o in zip(self.data, self.offsets.tolist()):
                lo, hi = max(0, -o), min(r, r - o)
                if lo < hi:
                    flat[lo * (r + 1) + o:hi * (r + 1) + o:r + 1] = row[start + lo:start + hi]
            return out
        cols = rows if cols is None else cols
        out = np.zeros((r, cols.size))
        position = np.full(m + 1, -1)  # index in cols of each site; -1 off them and at M
        position[cols] = np.arange(cols.size)
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


def _symmetrized(x: tuple, m: int) -> tuple:
    """X + X^T, row o >= 0 X_o(i) + X_-o(i + o) and its twin -o a copy, with the bits of
    X merged with its transpose: where X stores only X_o, row o is X_o and row -o
    0.0 + X_o; where only X_-o, row o is 0.0 + X_-o and row -o is X_-o."""
    offsets, data = x
    result, stored = sorted({*offsets, *(-o for o in offsets)}), set(offsets)
    if result != offsets:  # X on the union of the offsets, a zero row where it stores none
        data = np.zeros((len(result), m))
        data[[result.index(o) for o in offsets]] = x[1]
    k, h = len(result), len(result) // 2  # result[h:] are the offsets o >= 0
    out = np.zeros((k, m))
    upper, downs, twins = out[h:], data[k - 1 - h::-1], out[k - 1 - h::-1]
    for o, down, row in zip(result[h:], downs, upper):
        row[:m - o] = down[o:]
    upper += data[h:]
    keep = upper.any(axis=1).tolist()
    for r, o in enumerate(result[h:]):
        if keep[r] and o:
            if o in stored:
                twins[r, o:] = upper[r, :m - o]
            else:
                twins[r] = downs[r]
            if -o not in stored:
                upper[r] = data[h + r]
    keep = keep[::-1][:h] + keep
    return (result, out) if all(keep) else ([o for o, kept in zip(result, keep) if kept], out[keep])


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
    Above that, one pass per diagonal of the narrower factor adds into the
    diagonals p + q: per q of B, in increasing q, A's rows times B's row at
    i + p, else per p of A, from the last, A's row times B's rows shifted by
    p; a pass holds the wider factor's rows. Offset sums are Python ints.
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
    elif len(qs) < len(ps):
        # B's row at i + p, clipped where A's entry is zero, for every p at once
        columns, data = _columns(np.array(ps), m), np.zeros((len(offsets), m))
        for q, row in zip(qs, b_data):
            data[[index[p + q] for p in ps]] += a_data * row.take(columns, mode="clip")
    else:
        # the rows where i + p leaves [0, M) would add only A's zeros
        data = np.zeros((len(offsets), m))
        for p, row in zip(reversed(ps), a_data[::-1]):
            lo, hi = max(0, -p), min(m, m - p)
            data[[index[q + p] for q in qs], lo:hi] += row[lo:hi] * b_data[:, lo + p:hi + p]
    return _pruned((offsets, data))


# pair cells of a product made in one gather, 64 KiB per temporary. A pass
# per diagonal of the narrower factor (4 for the 9 x 4 diagonals of V C in
# 2-d) costs a few numpy calls, so the gather is faster on small products
# (2-d 9 x 8 diagonals at N = 8 and 12: 1.3-2x), but its temporaries are
# mapped and faulted in afresh once they pass glibc's 128 KiB mmap
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
    """A view of `site`, sites on its last axis, with `direction` first: [..., k, :] is layer k."""
    shape = site.shape[:-1] + (geom.sites_per_dim,) * geom.dims
    return site.reshape(shape).swapaxes(-geom.dims, direction - geom.dims)


def _potential_matrix(geom: LatticeGeometry, mass: float, weight: np.ndarray) -> DiagonalBlock:
    """Site terms m^2 w_x plus forward-difference bonds, each weighted at its midpoint.

    All-ones weights give the potential matrix of H; the centered coordinate
    gives the weighted potential of a boost. A bond b between u and w adds b
    to (u, u) and (w, w) and -b to (u, w) and (w, u); a diagonal entry adds
    its site term, then its bonds axis by axis, the bond from the previous
    layer before the one to the next except where the former wraps. Along
    a periodic axis of step s the wrap bond, from layer N - 1 to layer 0,
    sits at the offsets -+(N - 1) s instead of +-s.
    """
    n, periodic = geom.sites_per_dim, geom.boundary == "periodic"
    strides = [n ** (geom.dims - 1 - d) for d in range(geom.dims)]
    steps = (1, n - 1) if periodic else (1,)
    offsets = sorted({0, *(sign * k * s for s in strides for k in steps for sign in (1, -1))})
    data = np.zeros((len(offsets), geom.n_sites))
    centre = offsets.index(0)
    np.multiply(mass * mass, weight, out=data[centre])
    inverse_a2 = 1.0 / (geom.spacing * geom.spacing)
    for direction, s in enumerate(strides):
        w, layers = _layers(geom, direction, weight), _layers(geom, direction, data)
        sites = layers[centre]
        if not periodic:
            bond = 0.5 * (w[:-1] + w[1:]) * inverse_a2
            sites[1:] += bond
            sites[:-1] += bond
        else:
            bond = 0.5 * (w + np.concatenate((w[1:], w[:1]))) * inverse_a2
            sites[1:] += bond[:-1]
            sites += bond
            sites[0] += bond[-1]
        # 0.0 - b, not -b, so that a bond of weight zero leaves +0.0 off the diagonal
        negative = 0.0 - bond
        layers[offsets.index(s), :n - 1] = layers[offsets.index(-s), 1:] = negative[:n - 1]
        if periodic:
            layers[offsets.index(-(n - 1) * s), n - 1] = negative[n - 1]
            layers[offsets.index((n - 1) * s), 0] = negative[n - 1]
    return _block(_pruned((offsets, data)), geom.n_sites)


def _difference_matrix(geom: LatticeGeometry, direction: int) -> DiagonalBlock:
    """Centered difference along `direction`, one-sided at the edges of an open lattice."""
    n, step = geom.sites_per_dim, 1.0 / (2.0 * geom.spacing)
    s = n ** (geom.dims - 1 - direction)
    periodic = geom.boundary == "periodic"
    offsets = [-(n - 1) * s, -s, s, (n - 1) * s] if periodic else [-s, 0, s]
    data = np.zeros((len(offsets), geom.n_sites))
    layers = _layers(geom, direction, data)
    up, down = offsets.index(s), offsets.index(-s)
    layers[up, :n - 1], layers[down, 1:] = step, -step
    if periodic:  # the wrap bond, from layer N - 1 to layer 0
        layers[0, n - 1], layers[3, 0] = step, -step
    else:
        # an open edge row adds a half step to its bond, one-sided: 2 * step, that
        # is step + step, is exactly fl(1/a) while step is a normal float (a below about 2e307)
        layers[up, 0] = layers[1, n - 1] = 2 * step
        layers[down, n - 1] = layers[1, 0] = -2 * step
    return DiagonalBlock(np.array(offsets), data)


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


def _rotation(geom: LatticeGeometry, differences: list) -> QuadraticObservable:
    """J = sum_x [x_1 (pi d_2 phi)_x - x_2 (pi d_1 phi)_x] on a 2-d `geom`, from its centered
    differences [D_1, D_2]: the coupling x_1 D_2 - x_2 D_1."""
    n, m = geom.sites_per_dim, geom.n_sites
    line = geom.spacing * (np.arange(n) - (n - 1) / 2.0)  # the centered coordinate of a layer
    # site i N + j has x_1 = line[i] and x_2 = line[j]
    (o1, d1), (o2, d2) = ((d.offsets.tolist(), d.data.reshape(-1, n, n)) for d in differences)
    x1_d2, x2_d1 = (d2 * line[:, None]).reshape(-1, m), (d1 * line).reshape(-1, m)
    coupling = _block(_merged((o2, x1_d2), (o1, x2_d1), np.subtract), m)
    return QuadraticObservable(m, coupling=coupling)


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
        # g(d) = g(P - d), and the table holds d = 0 .. P // 2; for free ends (P = 2N)
        # |i - j| < N needs no fold, and i + j + 1 lies in 1 .. P - 1
        per_axis = [(abs(i - j), np.minimum(i + j + 1, period - 1 - i - j)) if free
                    else (np.minimum(abs(i - j), period - abs(i - j)),) for i, j in zip(rows, cols)]
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
    rfft per axis, over the F of both blocks stacked, gives g for every
    offset, and the basis keeps the two tables.

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

    root = np.sqrt(lam)
    g = np.stack([0.5 / root, 0.5 * root]) * reduce(np.multiply.outer, [weight] * dims)
    for axis in range(1, dims + 1):
        g = rfft(g, period, axis=axis).real
    return ModeBasis(np.sqrt(ascending), geom, g[0], g[1])


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
    return QuadraticObservable(m, _block(_symmetrized(x00, m), m),  # X + X^T
                               _block(_merged(x10, _transposed(x01, m), np.add), m),
                               _block(_symmetrized(x11, m), m))


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
    any other block, or a band whose window fails, gets one eigvalsh on
    the rows that hold an entry: of the smaller Gram matrix of its even
    rows against its odd ones when every offset is odd, else of those rows
    (`_max_abs_eigenvalue`).
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
# `_positive_definite` reads two below the main one) tries the window of
# _WINDOW_HALF_WIDTH sites around its largest row sum before the whole block.
# A 1-d central residual's top eigenvector sits at a plate (beyond 8 sites its
# largest component is 2.4e-8 at N = 80), so the window certifies it:
# 59 us at N = 80 and 560 us at 2560, mostly the LDL^T sweep, against 260 us
# and 1.9 s by a dense eigvalsh of the block (2-vCPU Xeon, one BLAS thread).
# Where it failed on a check's input (N = 8 ... 2560, five units), a window of half-width
# 32 certified only as the whole block: the dense eigvalsh runs, as for H's spread-out phi.
_NARROW_BAND = 2
_WINDOW_HALF_WIDTH = 8
_CERTIFIED_REL = 1e-13


def _max_abs_eigenvalue(block: DiagonalBlock, sums: np.ndarray | None = None) -> float:
    """Largest |eigenvalue| of a symmetric block; 0 for the empty block.

    Only the rows that hold a stored entry, a nonzero row sum (`sums`, else
    `_row_sums`), count: the rest add zero eigenvalues. A narrow band first
    tries the eigvalsh of the rows within _WINDOW_HALF_WIDTH sites of its
    largest row sum; that largest |eigenvalue| nu is at most the norm by
    Cauchy interlacing (Parlett 1980, 10.1), and is kept when `_bounded`
    certifies it or the window holds every kept row. Then every kept row
    counts. With only odd offsets, even rows couple to odd ones alone: the
    block is [[0, B], [B^T, 0]], B the kept even rows by the kept odd
    columns, whose eigenvalues are +-sigma(B) (Jordan-Wielandt; Golub and
    Van Loan, Matrix Computations, 8.6), so the norm is the square root of
    the top eigenvalue of the smaller Gram, B^T B or B B^T. Any other block
    gets the eigvalsh of its kept rows.
    """
    sums = _row_sums(block) if sums is None else sums
    keep = np.flatnonzero(sums)
    if not keep.size:
        return 0.0
    if max(-block.offsets[0], block.offsets[-1]) <= _NARROW_BAND:
        rows = keep[np.abs(keep - int(sums.argmax())) <= _WINDOW_HALF_WIDTH]
        eig = np.linalg.eigvalsh(block.dense(rows))
        nu = float(max(-eig[0], eig[-1]))
        if rows.size == keep.size or _bounded(block, nu, sums):
            return nu
    if (block.offsets % 2).all():
        odd = (keep % 2).astype(bool)
        b = block.dense(keep[~odd], keep[odd])
        scale = np.abs(b).max()  # the Gram of b / scale can neither overflow nor underflow
        b /= scale
        gram = b.T @ b if b.shape[0] >= b.shape[1] else b @ b.T
        return float(scale * math.sqrt(np.linalg.eigvalsh(gram)[-1]))
    eig = np.linalg.eigvalsh(block.dense(keep))
    return float(max(-eig[0], eig[-1]))


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


def _bump_profiles(geom: LatticeGeometry) -> np.ndarray:
    """Smooth compactly-supported site profiles living strictly inside the bulk.

    The shapes are fixed functions of the physical coordinate, so refining
    the lattice samples the same continuum profiles; residual norms against
    them expose the discretization order cleanly. A (2, _N_PROFILES, M) array:
    the profiles f over their derivatives df, one row per profile.
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
    nu = np.arange(1, _N_PROFILES + 1)[:, None]  # one row per profile
    rate = 0.3 * math.pi * nu
    phase = rate * y + 0.3 * nu
    cos = np.cos(phase)
    f, df = envelope * cos, d_envelope * cos - envelope * rate * np.sin(phase)
    if geom.dims == 2:  # f x f and df x f on the bulk sub-grid, in its C order
        f, df = f[:, :, None] * f[:, None], df[:, :, None] * f[:, None]
    full = np.zeros((2, _N_PROFILES, geom.n_sites))
    full[:, :, keep] = np.stack([f, df]).reshape(2, _N_PROFILES, -1)
    return full


def _bulk_test_vectors(geom: LatticeGeometry) -> tuple:
    """The profiles f over their derivatives df, one row each, and |v| of each test vector.

    The test vectors are (f, 0), (0, f) and (f, df); each |v| is one dot over
    its 2M entries, as np.linalg.norm takes it.
    """
    f, df = profiles = _bump_profiles(geom)
    zero = np.zeros(f.shape)
    norms = [[math.sqrt(v @ v) for v in np.concatenate(halves, axis=1)]
             for halves in ((f, zero), (zero, f), (f, df))]
    return profiles.reshape(-1, geom.n_sites), norms


def _bulk_residual_norm(residual: QuadraticObservable, tests: tuple) -> float:
    """max over the bulk test vectors v of `tests` of |R v|_2 / |v|_2, R the quad of `residual`.

    R v is taken block by block. The raw operator norm of a finite-difference
    residual does not shrink with the spacing (the residual acts like a^2
    times a second difference, an O(1) matrix); measuring against fixed
    smooth profiles recovers the continuum convergence order.
    """
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
                          block.data * (bulk & bulk.take(_columns(block.offsets, m), mode="clip")))

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

    At spacing 0.5 [J, H] is exactly zero off the seam, and its full norm
    is a Gram solve of 2N - 2 rows. At other spacings a rounding residue
    (about 1e-12) on most rows holds even offsets, so both [J, H] norms are
    dense eigvalsh solves of most rows: 1.0-1.5 s per closure at N = 64
    (2-vCPU Xeon, one BLAS thread), against milliseconds at spacing 0.5.
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
