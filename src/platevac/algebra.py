"""Exact Lie-algebra structure constants, two-cocycles, and coboundaries.

Brackets are stored for the rescaled product <<A, B>> := i[A, B], so that
every structure constant of the hermitian-generator algebras handled here
is a real rational number and all computations stay over exact fractions.
Structure constants are indexed as f[c][a][b], meaning

    <<X_a, X_b>> = sum_c f[c][a][b] X_c.

An algebra stores only its nonzero brackets, {(a, b): {c: f[c][a][b]}}
with a < b, at most MAX_DIM generators, and every check loops over those
brackets alone. A two-cocycle likewise stores only its nonzero central
terms, {(a, b): C[a][b]} with a < b, over at most MAX_DIM labels. Both
tables are folded by one rule: a (b, a) key comes in negated and must
agree with any (a, b) key. The dense tables `LieAlgebraSpec.f` and
`TwoCocycle.c` are read-only views, built on first access, for
independent oracles. Every rank, solve and inverse is one `exactlin.rref`
of sparse {column: value} rows: a bracket row {c: f[c][a][b]}, a cocycle
condition over pair slots {(d, z): coefficient}, or a row of [P | I].

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

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlin

__all__ = [
    "AlgebraFormatError",
    "MAX_DIM",
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


MAX_DIM = 64  # generators; H^2 of gl(8) takes under 1 s, of dense-coefficient tables far longer


def _check_dim(n: int, what: str = "generators") -> None:
    if n > MAX_DIM:
        raise ValueError(f"{n} {what}, more than the {MAX_DIM} allowed")


def _fold(pairs, labels, negate) -> dict:
    """{(a, b): v} with a < b, in index order and without zero values.

    `pairs` yields ((a, b), v) over indices into `labels`; a (b, a) pair
    comes in as negate(v) and must agree with any (a, b) pair. Errors name
    the pair by its labels.
    """
    n = len(labels)
    table = {}
    for (a, b), v in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) is out of range for {n} labels")
        if a == b:
            raise ValueError(f"pair ({labels[a]}, {labels[b]}) is diagonal")
        key, w = ((a, b), v) if a < b else ((b, a), negate(v))
        if table.setdefault(key, w) != w:
            raise ValueError(f"antisymmetry violated at ({labels[a]}, {labels[b]})")
    return {key: table[key] for key in sorted(table) if table[key]}


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Ordered basis labels plus the nonzero brackets {(a, b): {c: f[c][a][b]}}.

    A (b, a) key is folded in negated and must agree with any (a, b) entry.
    The stored table has a < b, Fraction values and no zeros, in index order.
    """

    labels: tuple[str, ...]
    brackets: dict

    def __post_init__(self):
        n = len(self.labels)
        _check_dim(n)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate basis labels")
        rows = []
        for ab, comps in self.brackets.items():
            if not all(0 <= c < n for c in comps):
                raise ValueError(f"bracket {ab} has a component out of range")
            row = ((c, Fraction(comps[c])) for c in sorted(comps))
            rows.append((ab, {c: v for c, v in row if v}))
        object.__setattr__(self, "brackets", _fold(
            rows, self.labels, lambda row: {c: -v for c, v in row.items()}))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def f(self) -> tuple:
        """Dense f[c][a][b] as nested tuples of Fraction, for oracles only."""
        n = self.dim
        f = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (a, b), comps in self.brackets.items():
            for c, v in comps.items():
                f[c][a][b], f[c][b][a] = v, -v
        return tuple(tuple(tuple(row) for row in plane) for plane in f)

    def terms(self, a: int, b: int):
        """(c, f[c][a][b]) pairs of the nonzero components of <<X_a, X_b>>."""
        if a < b:
            return self.brackets.get((a, b), {}).items()
        return [(c, -v) for c, v in self.brackets.get((b, a), {}).items()]


def _algebra_from_brackets(labels, brackets) -> LieAlgebraSpec:
    """brackets: {(a_label, b_label): {c_label: coefficient}}."""
    idx = {lab: i for i, lab in enumerate(labels)}
    return LieAlgebraSpec(tuple(labels), {
        (idx[la], idx[lb]): {idx[lc]: v for lc, v in comps.items()}
        for (la, lb), comps in brackets.items()
    })


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
    _check_dim(n)
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
    """Ordered basis labels plus the nonzero central terms {(a, b): C[a][b]}.

    A (b, a) key is folded in negated and must agree with any (a, b) entry.
    The stored table has a < b, Fraction values and no zeros, in index order.
    """

    labels: tuple[str, ...]
    entries: dict

    def __post_init__(self):
        _check_dim(len(self.labels), "labels")
        pairs = ((ab, Fraction(v)) for ab, v in self.entries.items())
        object.__setattr__(self, "entries", _fold(pairs, self.labels, operator.neg))

    @cached_property
    def c(self) -> tuple:
        """Dense C[a][b] as nested tuples of Fraction, for oracles only."""
        n = len(self.labels)
        c = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), v in self.entries.items():
            c[a][b], c[b][a] = v, -v
        return tuple(tuple(row) for row in c)

    @classmethod
    def from_entries(cls, labels, entries) -> "TwoCocycle":
        """entries: {(a_label, b_label): value}; a (b, a) key is folded in negated."""
        idx = {lab: i for i, lab in enumerate(labels)}
        try:
            table = {(idx[la], idx[lb]): v for (la, lb), v in entries.items()}
        except KeyError as exc:
            raise ValueError(f"unknown generator label {exc.args[0]!r}") from None
        return cls(tuple(labels), table)


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
        return TwoCocycle(self.labels, {
            ab: sum((w * self.alpha[k] for k, w in comps.items()), Fraction(0))
            for ab, comps in algebra.brackets.items()
        })


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


def _touched_triples(algebra: LieAlgebraSpec) -> list[tuple[int, int, int]]:
    """Triples a < b < c with a nonzero bracket among their pairs.

    Every cyclic sum over any other triple is zero term by term.
    """
    n = algebra.dim
    return sorted(
        {tuple(sorted((*ab, c))) for ab in algebra.brackets for c in range(n) if c not in ab}
    )


def _cyclic(a, b, c):
    return ((a, b, c), (b, c, a), (c, a, b))


def jacobi_check(algebra: LieAlgebraSpec) -> Fraction:
    """Max absolute Jacobi residual, exactly zero for a genuine Lie algebra."""
    worst = Fraction(0)
    for triple in _touched_triples(algebra):
        # <<<<X_x, X_y>>, X_z>> summed cyclically, component by component
        r = {}
        for x, y, z in _cyclic(*triple):
            for d, v in algebra.terms(x, y):
                for e, w in algebra.terms(d, z):
                    r[e] = r.get(e, 0) + v * w
        worst = max([worst, *map(abs, r.values())])
    return worst


def cocycle_check(algebra: LieAlgebraSpec, cocycle: TwoCocycle) -> Fraction:
    """Max absolute residual of the cyclic cocycle condition, exact."""
    if algebra.labels != cocycle.labels:
        raise ValueError("cocycle labels do not match algebra labels")
    C = cocycle.entries

    def at(a, b):
        return C.get((a, b), 0) if a < b else -C.get((b, a), 0)

    worst = Fraction(0)
    for triple in _touched_triples(algebra):
        r = sum(
            (v * at(d, z) for x, y, z in _cyclic(*triple) for d, v in algebra.terms(x, y)),
            Fraction(0),
        )
        worst = max(worst, abs(r))
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


def coboundary_solve(algebra: LieAlgebraSpec, cocycle: TwoCocycle) -> CoboundaryResult:
    """Decide exactly whether `cocycle` is a coboundary.

    The input must pass cocycle_check with zero residual; a non-cocycle is a
    precondition violation and raises ValueError. One row reduction of
    [A | C], with a row {c: f[c][a][b], n: C[a][b]} per slot a < b where the
    bracket or C is nonzero, decides everything: the pivots left of column n
    give rank(A), and a pivot in column n means C is not in the range of A.
    """
    residual = cocycle_check(algebra, cocycle)
    if residual != 0:
        raise ValueError(f"input is not a cocycle, max residual {residual}")
    n = algebra.dim
    rows = [
        {**algebra.brackets.get(ab, {}), n: cocycle.entries.get(ab, 0)}
        for ab in sorted(algebra.brackets.keys() | cocycle.entries.keys())
    ]
    red, pivots = exactlin.rref(rows)
    infeasible = n in pivots
    kernel_dim = n - (len(pivots) - infeasible)
    if infeasible:
        return CoboundaryResult(False, None, kernel_dim, 1)
    alpha = [Fraction(0)] * n  # free components set to zero
    for row, c in zip(red, pivots):
        alpha[c] = row.get(n, 0)
    return CoboundaryResult(True, CoboundaryCertificate(algebra.labels, alpha), kernel_dim, 0)


def h2_dimension(algebra: LieAlgebraSpec) -> int:
    """dim H^2(g, R) = dim(cocycles) - dim(coboundaries), by exact ranks."""
    if jacobi_check(algebra) != 0:
        raise ValueError("structure constants do not satisfy the Jacobi identity")
    z_rows = []
    for triple in _touched_triples(algebra):
        row = {}
        for x, y, z in _cyclic(*triple):
            for d, v in algebra.terms(x, y):
                # C[d][z] expressed through upper-triangle unknowns
                if d != z:
                    slot, w = ((d, z), v) if d < z else ((z, d), -v)
                    row[slot] = row.get(slot, 0) + w
        z_rows.append(row)
    dim_cocycles = math.comb(algebra.dim, 2) - len(exactlin.rref(z_rows)[1])
    dim_coboundaries = len(exactlin.rref(list(algebra.brackets.values()))[1])
    return dim_cocycles - dim_coboundaries


def change_basis(algebra: LieAlgebraSpec, p_cols) -> LieAlgebraSpec:
    """Structure constants in the basis X'_a = sum_b P[b][a] X_b.

    P is given by columns (new basis vectors in old components) and must be
    invertible over the rationals; its inverse is columns n.. of rref([P | I]).
    """
    p = [[Fraction(x) for x in row] for row in p_cols]
    n = algebra.dim
    if len(p) != n or any(len(row) != n for row in p):
        raise ValueError("basis-change matrix must be n x n")
    rows = [{j: x for j, x in enumerate(row) if x} | {n + i: 1} for i, row in enumerate(p)]
    red, pivots = exactlin.rref(rows)
    if pivots != list(range(n)):
        raise ValueError("basis-change matrix is singular")
    pinv = [{k - n: v for k, v in row.items() if k >= n} for row in red]
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        # bracket of the new pair, in old components
        vec = {}
        for (c, d), comps in algebra.brackets.items():
            w = p[c][a] * p[d][b] - p[d][a] * p[c][b]
            if w:
                for e, v in comps.items():
                    vec[e] = vec.get(e, 0) + w * v
        brackets[(a, b)] = {
            ep: sum((row.get(e, 0) * v for e, v in vec.items()), Fraction(0))
            for ep, row in enumerate(pinv)
        }
    return LieAlgebraSpec(algebra.labels, brackets)


# ---------------------------------------------------------------------------
# text-file round trip

_HEADER = "# platevac exact algebra data"


def save_algebra(algebra: LieAlgebraSpec, path) -> None:
    """Write `basis` plus sparse `f a b c num den` lines (a-index < b-index)."""
    lines = [_HEADER, "basis " + " ".join(algebra.labels)]
    for (a, b), comps in algebra.brackets.items():
        for c, v in comps.items():
            lines.append(
                f"f {algebra.labels[a]} {algebra.labels[b]} "
                f"{algebra.labels[c]} {v.numerator} {v.denominator}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_cocycle(cocycle: TwoCocycle, path) -> None:
    lines = [_HEADER, "basis " + " ".join(cocycle.labels)]
    for (a, b), v in cocycle.entries.items():
        lines.append(
            f"c {cocycle.labels[a]} {cocycle.labels[b]} {v.numerator} {v.denominator}"
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
    table = {}
    for lineno, la, lb, lc, num, den in f_entries:
        for lab in (la, lb, lc):
            if lab not in idx:
                raise AlgebraFormatError(f"line {lineno}: unknown label {lab!r}")
        a, b, c = idx[la], idx[lb], idx[lc]
        v = _to_fraction(lineno, num, den)
        if a > b:
            a, b, v = b, a, -v
        # a nonzero diagonal entry conflicts with its own mirror image
        if table.setdefault((a, b), {}).setdefault(c, v) != v or (a == b and v):
            raise AlgebraFormatError(
                f"line {lineno}: conflicting value for f[{lc}][{la}][{lb}]"
            )
    return LieAlgebraSpec(basis, {(a, b): row for (a, b), row in table.items() if a != b})


def load_cocycle(path) -> TwoCocycle:
    basis, f_entries, c_entries = _parse_lines(path)
    if f_entries:
        raise AlgebraFormatError(
            f"line {f_entries[0][0]}: structure-constant record in a cocycle file"
        )
    idx = {lab: i for i, lab in enumerate(basis)}
    table = {}
    for lineno, la, lb, num, den in c_entries:
        for lab in (la, lb):
            if lab not in idx:
                raise AlgebraFormatError(f"line {lineno}: unknown label {lab!r}")
        a, b = idx[la], idx[lb]
        if a == b:
            raise AlgebraFormatError(f"line {lineno}: diagonal entry {la},{lb}")
        v = _to_fraction(lineno, num, den)
        if a > b:
            a, b, v = b, a, -v
        if table.setdefault((a, b), v) != v:
            raise AlgebraFormatError(f"line {lineno}: conflicting value for C[{la}][{lb}]")
    return TwoCocycle(basis, table)
