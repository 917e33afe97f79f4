"""Exact Lie-algebra structure constants, two-cocycles, and coboundaries.

Brackets are stored for the rescaled product <<A, B>> := i[A, B], so that
every structure constant of the hermitian-generator algebras handled here
is a real rational number and all computations stay over exact fractions.
Structure constants are indexed as f[c][a][b], meaning

    <<X_a, X_b>> = sum_c f[c][a][b] X_c.

Planar Poincare conventions (generator order H, P1, P2, J, K1, K2, with
eps_12 = +1):

    <<K_i, H>>   = P_i
    <<K_i, P_j>> = delta_ij H
    <<K_1, K_2>> = J
    <<J, P_i>>   = -eps_ij P_j
    <<J, K_i>>   = -eps_ij K_j

J rotates momenta and boosts in the same sense. Given the K brackets above,
this is the unique sign assignment (up to a global mirror) that closes the
Jacobi identity; it corresponds to reading raised spatial indices on the
rotation brackets with a mostly-minus metric.

A two-cocycle C adds central terms, <<X_a, X_b>> -> ... + C[a][b] * 1, and
must satisfy, for all triples (a, b, c),

    sum_d ( f[d][a][b] C[d][c] + f[d][b][c] C[d][a] + f[d][c][a] C[d][b] ) = 0.

A coboundary is C[a][b] = sum_c f[c][a][b] alpha[c] for some linear form
alpha; such charges are removable by the redefinition X_c -> X_c - alpha[c].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import exactlin

__all__ = [
    "AlgebraFormatError",
    "LieAlgebraSpec",
    "TwoCocycle",
    "CoboundaryCertificate",
    "CoboundaryResult",
    "build_poincare_2plus1",
    "abelian_algebra",
    "heisenberg_algebra",
    "galilei_1plus1",
    "builtin_algebra",
    "BUILTIN_NAMES",
    "jacobi_check",
    "cocycle_check",
    "shift_cocycle",
    "coboundary_solve",
    "h2_dimension",
    "change_basis",
    "save_algebra",
    "load_algebra",
    "save_cocycle",
    "load_cocycle",
]


class AlgebraFormatError(ValueError):
    """Malformed algebra or cocycle text file."""


def _freeze3(f):
    return tuple(tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in f)


def _freeze2(c):
    return tuple(tuple(Fraction(x) for x in row) for row in c)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Ordered basis labels plus exact structure constants f[c][a][b]."""

    labels: tuple[str, ...]
    f: tuple  # f[c][a][b], nested tuples of Fraction

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate basis labels")
        object.__setattr__(self, "f", _freeze3(self.f))
        if len(self.f) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in self.f
        ):
            raise ValueError("structure constants must be n x n x n")
        for c in range(n):
            for a in range(n):
                for b in range(a, n):
                    if self.f[c][a][b] != -self.f[c][b][a]:
                        raise ValueError(
                            f"antisymmetry violated at f[{c}][{a}][{b}]"
                        )

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown generator label {label!r}") from None

    def bracket(self, a: int, b: int) -> tuple[Fraction, ...]:
        """Coefficient vector of <<X_a, X_b>> in the basis."""
        return tuple(self.f[c][a][b] for c in range(self.dim))


def _algebra_from_brackets(labels, brackets) -> LieAlgebraSpec:
    """brackets: {(a_label, b_label): {c_label: coefficient}} for a-before-b."""
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    f = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (la, lb), comps in brackets.items():
        a, b = idx[la], idx[lb]
        for lc, v in comps.items():
            c = idx[lc]
            v = Fraction(v)
            f[c][a][b] += v
            f[c][b][a] -= v
    return LieAlgebraSpec(tuple(labels), f)


POINCARE_LABELS = ("H", "P1", "P2", "J", "K1", "K2")


def build_poincare_2plus1() -> LieAlgebraSpec:
    """Planar Poincare algebra in the conventions of the module docstring."""
    return _algebra_from_brackets(
        POINCARE_LABELS,
        {
            ("K1", "H"): {"P1": 1},
            ("K2", "H"): {"P2": 1},
            ("K1", "P1"): {"H": 1},
            ("K2", "P2"): {"H": 1},
            ("K1", "K2"): {"J": 1},
            ("J", "P1"): {"P2": -1},
            ("J", "P2"): {"P1": 1},
            ("J", "K1"): {"K2": -1},
            ("J", "K2"): {"K1": 1},
        },
    )


def abelian_algebra(n: int) -> LieAlgebraSpec:
    """n commuting translations, labelled P1..Pn."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _algebra_from_brackets(tuple(f"P{i + 1}" for i in range(n)), {})


def heisenberg_algebra() -> LieAlgebraSpec:
    """One canonical pair with its central element: <<Q1, P1>> = Z."""
    return _algebra_from_brackets(("Q1", "P1", "Z"), {("Q1", "P1"): {"Z": 1}})


def galilei_1plus1() -> LieAlgebraSpec:
    """Time translation, space translation, boost: <<K, H>> = P.

    The classical algebra has <<K, P>> = 0; the mass cocycle C[K][P] = m
    is the standard nontrivial central extension.
    """
    return _algebra_from_brackets(("H", "P", "K"), {("K", "H"): {"P": 1}})


BUILTIN_NAMES = ("poincare21", "abelianN (e.g. abelian2)", "heisenberg1", "galilei11")


def builtin_algebra(name: str) -> LieAlgebraSpec:
    if name == "poincare21":
        return build_poincare_2plus1()
    if name == "heisenberg1":
        return heisenberg_algebra()
    if name == "galilei11":
        return galilei_1plus1()
    m = re.fullmatch(r"abelian(\d+)", name)
    if m:
        return abelian_algebra(int(m.group(1)))
    raise KeyError(f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}")


@dataclass(frozen=True)
class TwoCocycle:
    """Antisymmetric central-term matrix C[a][b] over exact rationals."""

    labels: tuple[str, ...]
    c: tuple  # C[a][b], nested tuples of Fraction

    def __post_init__(self):
        n = len(self.labels)
        object.__setattr__(self, "c", _freeze2(self.c))
        if len(self.c) != n or any(len(row) != n for row in self.c):
            raise ValueError("cocycle matrix must be n x n")
        for a in range(n):
            for b in range(a, n):
                if self.c[a][b] != -self.c[b][a]:
                    raise ValueError(f"antisymmetry violated at C[{a}][{b}]")

    @classmethod
    def from_entries(cls, labels, entries) -> "TwoCocycle":
        """entries: {(a_label, b_label): value}; antisymmetric completion applied."""
        n = len(labels)
        idx = {lab: i for i, lab in enumerate(labels)}
        c = [[Fraction(0)] * n for _ in range(n)]
        for (la, lb), v in entries.items():
            a, b = idx[la], idx[lb]
            if a == b:
                raise ValueError(f"diagonal entry ({la}, {lb}) not allowed")
            v = Fraction(v)
            c[a][b] += v
            c[b][a] -= v
        return cls(tuple(labels), c)

    def entry(self, la: str, lb: str) -> Fraction:
        i = self.labels.index(la)
        j = self.labels.index(lb)
        return self.c[i][j]


@dataclass(frozen=True)
class CoboundaryCertificate:
    """Linear form alpha with (d alpha)[a][b] = sum_c f[c][a][b] alpha[c]."""

    labels: tuple[str, ...]
    alpha: tuple  # Fractions, one per generator

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(Fraction(x) for x in self.alpha))
        if len(self.alpha) != len(self.labels):
            raise ValueError("alpha length must match label count")

    def induced_cocycle(self, algebra: LieAlgebraSpec) -> TwoCocycle:
        if algebra.labels != self.labels:
            raise ValueError("certificate labels do not match algebra")
        n = algebra.dim
        c = [
            [
                sum((algebra.f[k][a][b] * self.alpha[k] for k in range(n)), Fraction(0))
                for b in range(n)
            ]
            for a in range(n)
        ]
        return TwoCocycle(self.labels, c)


@dataclass(frozen=True)
class CoboundaryResult:
    """Outcome of coboundary_solve.

    feasible: whether the cocycle is exactly a coboundary.
    certificate: one exact alpha when feasible (free components set to zero).
    kernel_dim: dimension of the space of alphas inducing the zero cocycle.
    rank_deficit: rank([A | b]) - rank(A) when infeasible, else 0.
    """

    feasible: bool
    certificate: CoboundaryCertificate | None
    kernel_dim: int
    rank_deficit: int


def jacobi_check(algebra: LieAlgebraSpec) -> Fraction:
    """Max absolute Jacobi residual, exactly zero for a genuine Lie algebra."""
    n = algebra.dim
    f = algebra.f
    worst = Fraction(0)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for e in range(n):
                    r = sum(
                        (
                            f[d][a][b] * f[e][d][c]
                            + f[d][b][c] * f[e][d][a]
                            + f[d][c][a] * f[e][d][b]
                            for d in range(n)
                        ),
                        Fraction(0),
                    )
                    if abs(r) > worst:
                        worst = abs(r)
    return worst


def cocycle_check(algebra: LieAlgebraSpec, cocycle: TwoCocycle) -> Fraction:
    """Max absolute residual of the cyclic cocycle condition, exact."""
    if algebra.labels != cocycle.labels:
        raise ValueError("cocycle labels do not match algebra labels")
    n = algebra.dim
    f, C = algebra.f, cocycle.c
    worst = Fraction(0)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                r = sum(
                    (
                        f[d][a][b] * C[d][c]
                        + f[d][b][c] * C[d][a]
                        + f[d][c][a] * C[d][b]
                        for d in range(n)
                    ),
                    Fraction(0),
                )
                if abs(r) > worst:
                    worst = abs(r)
    return worst


def shift_cocycle(c0, c1, c2) -> TwoCocycle:
    """Central charges of the planar Poincare algebra removable by constant
    shifts of the energy and momentum generators.

    c0 shifts the boost-momentum brackets, c1 and c2 the boost-energy and
    rotation-momentum brackets. The rotation entries carry the same epsilon
    convention as the J brackets: C[J][P1] = +c2, C[J][P2] = -c1.
    """
    c0, c1, c2 = Fraction(c0), Fraction(c1), Fraction(c2)
    return TwoCocycle.from_entries(
        POINCARE_LABELS,
        {
            ("K1", "H"): -c1,
            ("K2", "H"): -c2,
            ("K1", "P1"): -c0,
            ("K2", "P2"): -c0,
            ("J", "P1"): c2,
            ("J", "P2"): -c1,
        },
    )


def _pair_slots(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _coboundary_matrix(algebra: LieAlgebraSpec):
    """Rows indexed by slots (a < b), columns by generators: C[a][b] = A alpha."""
    n = algebra.dim
    return [[algebra.f[c][a][b] for c in range(n)] for a, b in _pair_slots(n)]


def coboundary_solve(algebra: LieAlgebraSpec, cocycle: TwoCocycle) -> CoboundaryResult:
    """Decide exactly whether `cocycle` is a coboundary.

    The input must pass cocycle_check with zero residual; a non-cocycle is a
    precondition violation and raises ValueError.
    """
    residual = cocycle_check(algebra, cocycle)
    if residual != 0:
        raise ValueError(f"input is not a cocycle, max residual {residual}")
    a_rows = _coboundary_matrix(algebra)
    b_col = [cocycle.c[a][b] for a, b in _pair_slots(algebra.dim)]
    kernel_dim = exactlin.nullity(a_rows)
    x = exactlin.solve(a_rows, b_col)
    if x is None:
        aug = [row + [rhs] for row, rhs in zip(a_rows, b_col)]
        deficit = exactlin.rank(aug) - exactlin.rank(a_rows)
        return CoboundaryResult(False, None, kernel_dim, deficit)
    cert = CoboundaryCertificate(algebra.labels, tuple(x))
    return CoboundaryResult(True, cert, kernel_dim, 0)


def h2_dimension(algebra: LieAlgebraSpec) -> int:
    """dim H^2(g, R) = dim(cocycles) - dim(coboundaries), by exact ranks."""
    if jacobi_check(algebra) != 0:
        raise ValueError("structure constants do not satisfy the Jacobi identity")
    n = algebra.dim
    slots = _pair_slots(n)
    slot_index = {ab: i for i, ab in enumerate(slots)}

    def slot_coeff(row, d, c, coeff):
        # C[d][c] expressed through upper-triangle unknowns
        if d == c:
            return
        if d < c:
            row[slot_index[(d, c)]] += coeff
        else:
            row[slot_index[(c, d)]] -= coeff

    z_rows = []
    f = algebra.f
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                row = [Fraction(0)] * len(slots)
                for d in range(n):
                    slot_coeff(row, d, c, f[d][a][b])
                    slot_coeff(row, d, a, f[d][b][c])
                    slot_coeff(row, d, b, f[d][c][a])
                z_rows.append(row)
    dim_cocycles = len(slots) - (exactlin.rank(z_rows) if z_rows else 0)
    dim_coboundaries = exactlin.rank(_coboundary_matrix(algebra))
    return dim_cocycles - dim_coboundaries


def change_basis(algebra: LieAlgebraSpec, p_cols) -> LieAlgebraSpec:
    """Structure constants in the basis X'_a = sum_b P[b][a] X_b.

    P is given by columns (new basis vectors in old components) and must be
    invertible over the rationals.
    """
    p = exactlin.as_matrix(p_cols)
    n = algebra.dim
    if len(p) != n or any(len(row) != n for row in p):
        raise ValueError("basis-change matrix must be n x n")
    pinv = exactlin.inverse(p)
    if pinv is None:
        raise ValueError("basis-change matrix is singular")
    f = algebra.f
    fp = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            # bracket of the new pair, in old components
            vec = [Fraction(0)] * n
            for c in range(n):
                pc = p[c][a]
                if pc == 0:
                    continue
                for d in range(n):
                    pd = p[d][b]
                    if pd == 0:
                        continue
                    w = pc * pd
                    for e in range(n):
                        if f[e][c][d] != 0:
                            vec[e] += w * f[e][c][d]
            for ep in range(n):
                comp = sum((pinv[ep][e] * vec[e] for e in range(n)), Fraction(0))
                fp[ep][a][b] = comp
                fp[ep][b][a] = -comp
    return LieAlgebraSpec(algebra.labels, fp)


# ---------------------------------------------------------------------------
# text-file round trip

_HEADER = "# platevac exact algebra data"


def save_algebra(algebra: LieAlgebraSpec, path) -> None:
    """Write `basis` plus sparse `f a b c num den` lines (a-index < b-index)."""
    lines = [_HEADER, "basis " + " ".join(algebra.labels)]
    n = algebra.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                v = algebra.f[c][a][b]
                if v != 0:
                    lines.append(
                        f"f {algebra.labels[a]} {algebra.labels[b]} "
                        f"{algebra.labels[c]} {v.numerator} {v.denominator}"
                    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_cocycle(cocycle: TwoCocycle, path) -> None:
    lines = [_HEADER, "basis " + " ".join(cocycle.labels)]
    n = len(cocycle.labels)
    for a in range(n):
        for b in range(a + 1, n):
            v = cocycle.c[a][b]
            if v != 0:
                lines.append(
                    f"c {cocycle.labels[a]} {cocycle.labels[b]} "
                    f"{v.numerator} {v.denominator}"
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_lines(path):
    basis = None
    f_entries = []
    c_entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "basis":
                if basis is not None:
                    raise AlgebraFormatError(f"line {lineno}: duplicate basis line")
                if len(parts) < 2:
                    raise AlgebraFormatError(f"line {lineno}: empty basis line")
                basis = tuple(parts[1:])
                if len(set(basis)) != len(basis):
                    raise AlgebraFormatError(f"line {lineno}: repeated basis label")
            elif kind == "f":
                if len(parts) != 6:
                    raise AlgebraFormatError(
                        f"line {lineno}: expected 'f A B C num den', got {line!r}"
                    )
                f_entries.append((lineno, parts[1], parts[2], parts[3], parts[4], parts[5]))
            elif kind == "c":
                if len(parts) != 5:
                    raise AlgebraFormatError(
                        f"line {lineno}: expected 'c A B num den', got {line!r}"
                    )
                c_entries.append((lineno, parts[1], parts[2], parts[3], parts[4]))
            else:
                raise AlgebraFormatError(f"line {lineno}: unknown record {kind!r}")
    if basis is None:
        raise AlgebraFormatError("missing basis line")
    return basis, f_entries, c_entries


def _to_fraction(lineno, num, den) -> Fraction:
    try:
        num_i, den_i = int(num), int(den)
    except ValueError:
        raise AlgebraFormatError(f"line {lineno}: non-integer rational {num}/{den}") from None
    if den_i == 0:
        raise AlgebraFormatError(f"line {lineno}: zero denominator")
    return Fraction(num_i, den_i)


def load_algebra(path) -> LieAlgebraSpec:
    basis, f_entries, c_entries = _parse_lines(path)
    if c_entries:
        raise AlgebraFormatError(
            f"line {c_entries[0][0]}: cocycle record in an algebra file"
        )
    idx = {lab: i for i, lab in enumerate(basis)}
    n = len(basis)
    f = [[[None] * n for _ in range(n)] for _ in range(n)]
    for lineno, la, lb, lc, num, den in f_entries:
        for lab in (la, lb, lc):
            if lab not in idx:
                raise AlgebraFormatError(f"line {lineno}: unknown label {lab!r}")
        a, b, c = idx[la], idx[lb], idx[lc]
        v = _to_fraction(lineno, num, den)
        for (i, j, w) in ((a, b, v), (b, a, -v)):
            prev = f[c][i][j]
            if prev is not None and prev != w:
                raise AlgebraFormatError(
                    f"line {lineno}: conflicting value for f[{lc}][{la}][{lb}]"
                )
            f[c][i][j] = w
    filled = [
        [[Fraction(0) if x is None else x for x in row] for row in plane] for plane in f
    ]
    return LieAlgebraSpec(basis, filled)


def load_cocycle(path) -> TwoCocycle:
    basis, f_entries, c_entries = _parse_lines(path)
    if f_entries:
        raise AlgebraFormatError(
            f"line {f_entries[0][0]}: structure-constant record in a cocycle file"
        )
    idx = {lab: i for i, lab in enumerate(basis)}
    n = len(basis)
    c = [[None] * n for _ in range(n)]
    for lineno, la, lb, num, den in c_entries:
        for lab in (la, lb):
            if lab not in idx:
                raise AlgebraFormatError(f"line {lineno}: unknown label {lab!r}")
        a, b = idx[la], idx[lb]
        if a == b:
            raise AlgebraFormatError(f"line {lineno}: diagonal entry {la},{lb}")
        v = _to_fraction(lineno, num, den)
        for (i, j, w) in ((a, b, v), (b, a, -v)):
            prev = c[i][j]
            if prev is not None and prev != w:
                raise AlgebraFormatError(
                    f"line {lineno}: conflicting value for C[{la}][{lb}]"
                )
            c[i][j] = w
    filled = [[Fraction(0) if x is None else x for x in row] for row in c]
    return TwoCocycle(basis, filled)
