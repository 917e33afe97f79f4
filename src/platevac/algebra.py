"""Exact Lie-algebra structure constants, two-cocycles, and coboundaries.

Brackets are stored for the rescaled product <<A, B>> := i[A, B], so that
every structure constant of the hermitian-generator algebras handled here
is a real rational number and all computations stay over exact fractions.
Structure constants are indexed as f[c][a][b], meaning

    <<X_a, X_b>> = sum_c f[c][a][b] X_c.

An algebra stores only its nonzero brackets, {(a, b): {c: f[c][a][b]}}
with a < b, at most MAX_DIM generators. A two-cocycle likewise stores
only its nonzero central terms, {(a, b): C[a][b]} with a < b, over at
most MAX_DIM labels. Every table (dict, file, builtin or command line)
is folded by one rule, `_fold`: a (b, a) key comes in negated, and a
diagonal pair, a mirror that is not the negation, or a key given twice
with two values raises. A bracket dict folds per row (a, b), a bracket
file per component (a, b, c); a file error names its line. The dense
tables `LieAlgebraSpec.f` and `TwoCocycle.c` are read-only views, built
on first access, for independent oracles. Every rank, solve and inverse
is one `exactlin.rref` of sparse {column: value} rows: a bracket row
{c: f[c][a][b]}, a cocycle row, or a row of [P | I].

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

The condition is stated once, in one row table cached per algebra: a
sparse row {(d, z): coefficient} (d < z) per triple that touches a nonzero
bracket. `cocycle_check` evaluates the rows at C, `jacobi_check` at
C[d][z] = f[e][d][z] for each component e, and `h2_dimension` reduces them.

A coboundary is C[a][b] = sum_c f[c][a][b] alpha[c] for some linear form
alpha; such charges are removable by the redefinition X_c -> X_c - alpha[c].
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import cached_property

from . import exactlin
from ._record import Record

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


def _index(labels, what: str = "labels") -> dict:
    """{label: index} of a basis: at most MAX_DIM labels, none repeated."""
    _check_dim(len(labels), what)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate basis labels")
    return index


def _resolve(labels, entries):
    """Yield the entries ((a, b, *rest), v) over `labels` as entries over indices.

    An unknown label raises as its entry is read, so a file reader can name its line.
    """
    index = _index(labels)
    for key, v in entries:
        try:
            key = tuple(index[lab] for lab in key)
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from None
        yield key, v


def _fold(entries, labels, negate=operator.neg) -> dict:
    """{(a, b, *rest): v} with a < b, in key order and without zero values.

    `entries` yields ((a, b, *rest), v) over indices into `labels`, in
    order. A (b, a, *rest) key comes in as negate(v) and must agree with
    an (a, b, *rest) key, and a key given twice must keep its value.
    Errors name the pair by its labels, in the order it was given.
    """
    n = len(labels)
    table = {}
    for (a, b, *rest), v in entries:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) is out of range for {n} labels")
        if a == b:
            raise ValueError(f"pair ({labels[a]}, {labels[b]}) is diagonal")
        key, w = ((a, b, *rest), v) if a < b else ((b, a, *rest), negate(v))
        ordered, u = table.setdefault(key, (a < b, w))
        if u != w:
            what = "conflicting values" if ordered == (a < b) else "antisymmetry violated"
            raise ValueError(f"{what} at ({labels[a]}, {labels[b]})")
    return {key: table[key][1] for key in sorted(table) if table[key][1]}


class LieAlgebraSpec(Record):
    """Ordered basis labels plus the nonzero brackets {(a, b): {c: f[c][a][b]}},
    with a < b and Fraction values, folded per (a, b) by `_fold`."""

    labels: tuple[str, ...]
    brackets: dict

    def __post_init__(self):
        n = len(_index(self.labels, "generators"))
        rows = []
        for (a, b), comps in self.brackets.items():
            if not all(0 <= c < n for c in comps):
                raise ValueError(f"bracket {(a, b)} has a component out of range")
            row = ((c, Fraction(comps[c])) for c in sorted(comps))
            rows.append(((a, b), {c: v for c, v in row if v}))
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

    @cached_property
    def _cocycle_rows(self) -> tuple:
        """One row {(d, z): coefficient} per triple a < b < c that touches a bracket.

        The row is the cyclic sum of f[d][x][y] C[d][z], each C[d][z] read
        through its d < z slot and the d = z terms dropped; over any other
        triple that sum is zero term by term.
        """
        touched = {tuple(sorted((*ab, c))) for ab in self.brackets
                   for c in range(self.dim) if c not in ab}
        rows = []
        for a, b, c in sorted(touched):
            row = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, v in self.terms(x, y):
                    if d != z:
                        slot, w = ((d, z), v) if d < z else ((z, d), -v)
                        row[slot] = row.get(slot, 0) + w
            rows.append(row)
        return tuple(rows)


def _algebra_from_brackets(labels, components) -> LieAlgebraSpec:
    """components: ((a_label, b_label, c_label), f[c][a][b]) pairs, folded
    per component in order and regrouped into rows."""
    rows = {}
    for (a, b, c), v in _fold(_resolve(labels, components), labels).items():
        rows.setdefault((a, b), {})[c] = v
    return LieAlgebraSpec(tuple(labels), rows)


POINCARE_LABELS = ("H", "P1", "P2", "J", "K1", "K2")


def build_poincare_2plus1() -> LieAlgebraSpec:
    """Planar Poincare algebra in the conventions of the module docstring."""
    return _algebra_from_brackets(POINCARE_LABELS, {
        ("K1", "H", "P1"): 1,
        ("K2", "H", "P2"): 1,
        ("K1", "P1", "H"): 1,
        ("K2", "P2", "H"): 1,
        ("K1", "K2", "J"): 1,
        ("J", "P1", "P2"): -1,
        ("J", "P2", "P1"): 1,
        ("J", "K1", "K2"): -1,
        ("J", "K2", "K1"): 1,
    }.items())


def abelian_algebra(n: int) -> LieAlgebraSpec:
    """n commuting translations, labelled P1..Pn."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_dim(n)
    return _algebra_from_brackets(tuple(f"P{i + 1}" for i in range(n)), ())


def heisenberg_algebra() -> LieAlgebraSpec:
    """One canonical pair with its central element: <<Q1, P1>> = Z."""
    return _algebra_from_brackets(("Q1", "P1", "Z"), {("Q1", "P1", "Z"): 1}.items())


def galilei_1plus1() -> LieAlgebraSpec:
    """Time translation, space translation, boost: <<K, H>> = P.

    The classical algebra has <<K, P>> = 0; the mass cocycle C[K][P] = m
    is the standard nontrivial central extension.
    """
    return _algebra_from_brackets(("H", "P", "K"), {("K", "H", "P"): 1}.items())


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


class TwoCocycle(Record):
    """Ordered basis labels plus the nonzero central terms {(a, b): C[a][b]},
    with a < b and Fraction values, folded by `_fold`."""

    labels: tuple[str, ...]
    entries: dict

    def __post_init__(self):
        _index(self.labels)
        pairs = (((a, b), Fraction(v)) for (a, b), v in self.entries.items())
        object.__setattr__(self, "entries", _fold(pairs, self.labels))

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
        """entries: {(a_label, b_label): value}, or such pairs folded in order."""
        pairs = entries.items() if isinstance(entries, dict) else entries
        pairs = _resolve(labels, ((ab, Fraction(v)) for ab, v in pairs))
        return cls(tuple(labels), _fold(pairs, labels))


class CoboundaryCertificate(Record):
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


class CoboundaryResult(Record):
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
    """Max absolute Jacobi residual, exactly zero for a genuine Lie algebra.

    Component e of the cyclic sum of <<<<X_x, X_y>>, X_z>> is the cocycle
    row of (x, y, z) at C[d][z] = f[e][d][z], which is antisymmetric.
    """
    worst = Fraction(0)
    for row in algebra._cocycle_rows:
        r = {}
        for dz, v in row.items():
            for e, w in algebra.brackets.get(dz, {}).items():
                r[e] = r.get(e, 0) + v * w
        worst = max([worst, *map(abs, r.values())])
    return worst


def cocycle_check(algebra: LieAlgebraSpec, cocycle: TwoCocycle) -> Fraction:
    """Max absolute residual of the cyclic cocycle condition, exact."""
    if algebra.labels != cocycle.labels:
        raise ValueError("cocycle labels do not match algebra labels")
    C = cocycle.entries
    return max((abs(sum((v * C.get(dz, 0) for dz, v in row.items()), Fraction(0)))
                for row in algebra._cocycle_rows), default=Fraction(0))


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
    dim_cocycles = math.comb(algebra.dim, 2) - len(exactlin.rref(algebra._cocycle_rows)[1])
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


def _save(path, kind, labels, entries) -> None:
    """Write `basis` plus one `kind` record per (index key, value) entry; `_load` reads it."""
    lines = [_HEADER, "basis " + " ".join(labels)]
    lines += [" ".join([kind, *(labels[i] for i in key), str(v.numerator), str(v.denominator)])
              for key, v in entries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_algebra(algebra: LieAlgebraSpec, path) -> None:
    """Write `basis` plus sparse `f a b c num den` lines (a-index < b-index)."""
    _save(path, "f", algebra.labels, (((a, b, c), v) for (a, b), comps in algebra.brackets.items()
                                      for c, v in comps.items()))


def save_cocycle(cocycle: TwoCocycle, path) -> None:
    _save(path, "c", cocycle.labels, cocycle.entries.items())


_RECORDS = {  # kind: (record form, its message in a file of the other kind)
    "f": ("f A B C num den", "structure-constant record in a cocycle file"),
    "c": ("c A B num den", "cocycle record in an algebra file"),
}


def _load(path, kind, build):
    """build(basis, entries) for the text file at `path` of `kind` "f" or "c".

    `entries` yields one entry per record, in file order: `f A B C num den`
    is ((A, B, C), num/den), so a bracket file folds per component, and
    `c A B num den` is ((A, B), num/den). An error of a line, or one that
    `build` raises while it reads the line's record, names that line.
    """
    basis, records, lineno = None, [], None

    def entries():
        nonlocal lineno
        for lineno, (*key, num, den) in records:
            try:
                value = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"bad rational {num}/{den}: want integers, nonzero denominator") from None
            yield key, value

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        for lineno, raw in enumerate(lines, start=1):
            head, *fields = raw.split() or ["#"]
            if head.startswith("#"):
                continue
            if head == "basis":
                if basis is not None:
                    raise ValueError("duplicate basis line")
                if not fields:
                    raise ValueError("empty basis line")
                basis = tuple(fields)
            elif head != kind:
                raise ValueError(_RECORDS[head][1] if head in _RECORDS
                                 else f"unknown record {head!r}")
            elif len(fields) + 1 != len(_RECORDS[kind][0].split()):
                raise ValueError(f"expected {_RECORDS[kind][0]!r}, got {raw.strip()!r}")
            else:
                records.append((lineno, fields))
        lineno = None  # an error before build reads a record, as of the labels, names no line
        if basis is None:
            raise ValueError("missing basis line")
        return build(basis, entries())
    except ValueError as exc:
        raise AlgebraFormatError(f"line {lineno}: {exc}" if lineno else str(exc)) from None


def load_algebra(path) -> LieAlgebraSpec:
    return _load(path, "f", _algebra_from_brackets)


def load_cocycle(path) -> TwoCocycle:
    return _load(path, "c", TwoCocycle.from_entries)
