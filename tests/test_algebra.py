"""Exact algebra layer: structure constants, cocycles, coboundaries, H^2."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from platevac import algebra as al
from platevac import exactlin


def _rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _matmul(a, b):
    """Exact product of two rational matrices given as lists of rows."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for row in a]


# ---------------------------------------------------------------------------
# exact elimination: the sparse rref against the dense Gauss-Jordan it replaced


def _dense_rref(rows):
    """Dense Gauss-Jordan on lists of rows, first nonzero pivot; the oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _dense_inverse(a):
    """Exact inverse by the dense oracle, or None when `a` is singular."""
    n = len(a)
    aug = [[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(a)]
    red, pivots = _dense_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def _sparse(dense_rows, keys):
    return [{k: x for k, x in zip(keys, row) if x} for row in dense_rows]


def test_rref_rank_known_matrix():
    rows = _sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]], range(3))
    red, pivots = exactlin.rref(rows)
    assert pivots == [0, 1]
    assert red == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert rows[1] == {0: 2, 1: 4, 2: 6}  # the input rows are left as they were


def test_rref_of_nothing():
    assert exactlin.rref([]) == ([], [])
    assert exactlin.rref([{}, {3: 0}]) == ([], [])


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _random_invertible(rng, n, span=9)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rows = [{j: x for j, x in enumerate(row) if x} | {n + i: 1} for i, row in enumerate(a)]
        red, pivots = exactlin.rref(rows)
        assert pivots == list(range(n))  # [P | I] reduces to [I | P^-1]
        inv = [[row.get(n + j, 0) for j in range(n)] for row in red]
        assert _matmul(a, inv) == ident
        assert inv == _dense_inverse(a)


def _random_sparse_system(rng):
    """Sparse rows with zero rows and repeated rows, over int or tuple keys."""
    ncols = rng.randint(1, 9)
    keys = sorted(rng.sample([(i, j) for i in range(4) for j in range(4)], ncols))
    if rng.random() < 0.5:
        keys = [4 * i + j for i, j in keys]  # plain int columns as well as tuples
    rows = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.15:
            rows.append({k: 0 for k in rng.sample(keys, rng.randint(0, ncols))})
        elif kind < 0.35 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            rows.append({k: _rand_fraction(rng, span=3)
                         for k in rng.sample(keys, rng.randint(1, min(3, ncols)))})
    return keys, rows


def test_sparse_rref_matches_dense_oracle_and_sympy_rank():
    rng = random.Random(53)
    ranks = []
    for _ in range(150):
        keys, rows = _random_sparse_system(rng)
        dense = [[row.get(k, 0) for k in keys] for row in rows]
        red, pivots = exactlin.rref(rows)
        oracle, oracle_pivots = _dense_rref(dense)
        assert pivots == [keys[c] for c in oracle_pivots]
        assert _sparse(oracle[:len(pivots)], keys) == red
        assert len(pivots) == (sympy.Matrix(dense).rank() if rows else 0)
        rng.shuffle(rows)
        assert exactlin.rref(rows) == (red, pivots)  # the RREF does not depend on row order
        ranks.append(len(pivots))
    assert min(ranks) == 0 and max(ranks) >= 5


# ---------------------------------------------------------------------------
# structure constants


def test_poincare_bracket_table():
    poi = al.build_poincare_2plus1()
    want = {
        ("K1", "H"): {"P1": 1},
        ("K2", "H"): {"P2": 1},
        ("K1", "P1"): {"H": 1},
        ("K2", "P2"): {"H": 1},
        ("K1", "P2"): {},
        ("K2", "P1"): {},
        ("K1", "K2"): {"J": 1},
        ("J", "P1"): {"P2": -1},
        ("J", "P2"): {"P1": 1},
        ("J", "K1"): {"K2": -1},
        ("J", "K2"): {"K1": 1},
        ("H", "P1"): {},
        ("H", "P2"): {},
        ("H", "J"): {},
        ("P1", "P2"): {},
    }
    for (la, lb), comps in want.items():
        got = {poi.labels[c]: v for c, v in poi.terms(poi.labels.index(la), poi.labels.index(lb))}
        assert got == {k: Fraction(v) for k, v in comps.items()}, (la, lb)


def test_jacobi_zero_for_all_builtins():
    for name in ("poincare21", "abelian2", "abelian5", "heisenberg1", "galilei11"):
        assert al.jacobi_check(al.builtin_algebra(name)) == 0


def _bent_poincare():
    """Poincare with <<K1, P2>> = H added: breaks the Jacobi identity."""
    poi = al.build_poincare_2plus1()
    h, p2, k1 = poi.labels.index("H"), poi.labels.index("P2"), poi.labels.index("K1")
    return al.LieAlgebraSpec(poi.labels, {**poi.brackets, (k1, p2): {h: 1}})


def test_jacobi_detects_broken_table():
    assert al.jacobi_check(_bent_poincare()) == 1


def test_antisymmetry_enforced_at_construction():
    # <<A, B>> = A and <<B, A>> = A cannot both hold
    with pytest.raises(ValueError, match="antisymmetry"):
        al.LieAlgebraSpec(("A", "B"), {(0, 1): {0: 1}, (1, 0): {0: 1}})


def test_mirrored_bracket_folds_in_negated():
    g = al.LieAlgebraSpec(("A", "B"), {(1, 0): {0: Fraction(3, 2), 1: 0}, (0, 1): {0: "-3/2"}})
    assert g.brackets == {(0, 1): {0: Fraction(-3, 2)}}  # zeros dropped
    assert g.f[0][1][0] == Fraction(3, 2)


@pytest.mark.parametrize("brackets", [
    {(0, 0): {1: 1}},  # diagonal pair
    {(0, 2): {1: 1}},  # no generator 2
    {(-1, 1): {0: 1}},
    {(0, 1): {2: 1}},  # component out of range
])
def test_bad_bracket_indices_rejected(brackets):
    with pytest.raises(ValueError):
        al.LieAlgebraSpec(("A", "B"), brackets)


def test_cocycle_folds_mirrors_and_drops_zeros():
    C = al.TwoCocycle(("A", "B", "C"), {(2, 0): Fraction(1, 2), (0, 2): "-1/2", (1, 2): 0})
    assert C.entries == {(0, 2): Fraction(-1, 2)}
    assert C == al.TwoCocycle.from_entries(("A", "B", "C"), {("C", "A"): Fraction(1, 2)})


@pytest.mark.parametrize("entries", [
    {(0, 1): 1, (1, 0): 1},  # the mirror disagrees
    {(1, 1): 1},  # diagonal pair
    {(0, 3): 1},  # no label 3
    {(-1, 1): 1},
])
def test_bad_cocycle_entries_rejected(entries):
    with pytest.raises(ValueError):
        al.TwoCocycle(("A", "B", "C"), entries)


def test_cocycle_labels_checked():
    with pytest.raises(ValueError, match="^unknown label 'Q'$"):
        al.TwoCocycle.from_entries(("P1", "P2"), {("P1", "Q"): 1})
    with pytest.raises(ValueError, match="antisymmetry"):
        al.TwoCocycle.from_entries(("P1", "P2"), {("P1", "P2"): 1, ("P2", "P1"): 1})
    labels = tuple(f"X{i}" for i in range(al.MAX_DIM + 1))
    with pytest.raises(ValueError, match="more than"):
        al.TwoCocycle(labels, {})
    with pytest.raises(ValueError, match="more than"):
        al.TwoCocycle.from_entries(labels, {})
    with pytest.raises(ValueError, match="duplicate basis labels"):
        al.TwoCocycle(("A", "A"), {})
    with pytest.raises(ValueError, match="duplicate basis labels"):
        al.TwoCocycle.from_entries(("A", "A"), {})


def test_cocycle_entry_pairs_fold_in_order():
    labels = ("P1", "P2")
    pairs = [(("P1", "P2"), 1), (("P2", "P1"), -1), (("P1", "P2"), 1)]
    assert al.TwoCocycle.from_entries(labels, pairs).entries == {(0, 1): 1}
    with pytest.raises(ValueError, match=r"^conflicting values at \(P1, P2\)$"):
        al.TwoCocycle.from_entries(labels, [(("P1", "P2"), 1), (("P1", "P2"), 2)])
    with pytest.raises(ValueError, match=r"^antisymmetry violated at \(P1, P2\)$"):
        al.TwoCocycle.from_entries(labels, [(("P2", "P1"), 1), (("P1", "P2"), 1)])


def test_dense_cocycle_view_is_read_only_and_cached():
    C = al.shift_cocycle(1, Fraction(-2, 3), 5)
    view = C.c
    assert C.c is view
    assert isinstance(view, tuple) and all(isinstance(row, tuple) for row in view)
    with pytest.raises(AttributeError):
        C.c = ()
    with pytest.raises(TypeError):
        view[0][1] = Fraction(1)
    n = len(C.labels)
    assert {(a, b): view[a][b] for a, b in _pairs(n) if view[a][b]} == C.entries
    assert all(view[a][b] == -view[b][a] for a in range(n) for b in range(n))


def test_dimension_capped():
    labels = tuple(f"X{i}" for i in range(al.MAX_DIM + 1))
    with pytest.raises(ValueError, match="more than"):
        al.LieAlgebraSpec(labels, {})
    with pytest.raises(ValueError, match="more than"):
        al.abelian_algebra(al.MAX_DIM + 1)
    assert al.abelian_algebra(al.MAX_DIM).dim == al.MAX_DIM


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        al.builtin_algebra("su2")


def test_abelian_labels():
    assert al.abelian_algebra(3).labels == ("P1", "P2", "P3")


# ---------------------------------------------------------------------------
# shift cocycle and coboundary certificates


def test_shift_cocycle_entries():
    poi = al.build_poincare_2plus1()
    C = al.shift_cocycle(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))

    def entry(la, lb):
        return C.c[C.labels.index(la)][C.labels.index(lb)]

    assert entry("K1", "H") == Fraction(2, 5)
    assert entry("K2", "H") == Fraction(-1, 3)
    assert entry("K1", "P1") == Fraction(-3, 7)
    assert entry("K2", "P2") == Fraction(-3, 7)
    assert entry("J", "P1") == Fraction(1, 3)
    assert entry("J", "P2") == Fraction(2, 5)
    assert entry("K1", "P2") == 0
    assert entry("K2", "P1") == 0
    assert al.cocycle_check(poi, C) == 0


def test_energy_only_charge_populates_boost_energy_and_rotation_slots():
    C = al.shift_cocycle(0, 1, 0)
    nonzero = {
        (C.labels[a], C.labels[b]): C.c[a][b]
        for a, b in _pairs(len(C.labels))
        if C.c[a][b] != 0
    }
    assert nonzero == {("H", "K1"): Fraction(1), ("P2", "J"): Fraction(1)}


def test_momentum_charge_populates_diagonal_boost_momentum_slots():
    C = al.shift_cocycle(1, 0, 0)
    nonzero = {
        (C.labels[a], C.labels[b]): C.c[a][b]
        for a, b in _pairs(len(C.labels))
        if C.c[a][b] != 0
    }
    assert nonzero == {("P1", "K1"): Fraction(1), ("P2", "K2"): Fraction(1)}


def test_shift_cocycle_is_coboundary_random_charges():
    poi = al.build_poincare_2plus1()
    rng = random.Random(5)
    for _ in range(25):
        c0, c1, c2 = (_rand_fraction(rng) for _ in range(3))
        C = al.shift_cocycle(c0, c1, c2)
        assert al.cocycle_check(poi, C) == 0
        res = al.coboundary_solve(poi, C)
        assert res.feasible
        assert res.kernel_dim == 0  # certificate is unique
        assert res.rank_deficit == 0
        alpha = dict(zip(poi.labels, res.certificate.alpha))
        assert alpha == {"H": -c0, "P1": -c1, "P2": -c2, "J": 0, "K1": 0, "K2": 0}
        assert res.certificate.induced_cocycle(poi).c == C.c


def test_coboundary_solve_rejects_non_cocycle():
    poi = al.build_poincare_2plus1()
    bad = al.TwoCocycle.from_entries(poi.labels, {("P1", "P2"): 1})
    assert al.cocycle_check(poi, bad) == 1
    with pytest.raises(ValueError, match="not a cocycle"):
        al.coboundary_solve(poi, bad)


def test_galilei_mass_charge_not_removable():
    gal = al.galilei_1plus1()
    mass = al.TwoCocycle.from_entries(gal.labels, {("K", "P"): Fraction(5, 3)})
    assert al.cocycle_check(gal, mass) == 0
    res = al.coboundary_solve(gal, mass)
    assert not res.feasible
    assert res.certificate is None
    assert res.rank_deficit == 1
    # the boost-energy slot IS removable, by shifting P
    removable = al.TwoCocycle.from_entries(gal.labels, {("K", "H"): 1})
    out = al.coboundary_solve(gal, removable)
    assert out.feasible
    assert dict(zip(gal.labels, out.certificate.alpha))["P"] == 1


def test_heisenberg_central_slot_not_removable():
    heis = al.heisenberg_algebra()
    # canonical slot is a coboundary through the central generator ...
    canon = al.TwoCocycle.from_entries(heis.labels, {("Q1", "P1"): 1})
    assert al.coboundary_solve(heis, canon).feasible
    # ... but slots pairing with Z are honest cohomology
    frozen = al.TwoCocycle.from_entries(heis.labels, {("Q1", "Z"): 1})
    assert al.cocycle_check(heis, frozen) == 0
    assert not al.coboundary_solve(heis, frozen).feasible


def test_abelian_every_antisymmetric_matrix_is_infeasible_cocycle():
    g = al.abelian_algebra(2)
    C = al.TwoCocycle.from_entries(g.labels, {("P1", "P2"): Fraction(7, 2)})
    assert al.cocycle_check(g, C) == 0
    res = al.coboundary_solve(g, C)
    assert not res.feasible
    assert res.kernel_dim == 2  # every alpha induces the zero cocycle


def test_one_dimensional_zero_cocycle_is_coboundary():
    # no slot a < b at all: the empty system has every alpha as a solution
    g = al.abelian_algebra(1)
    res = al.coboundary_solve(g, al.TwoCocycle(g.labels, {}))
    assert res.feasible
    assert res.kernel_dim == 1
    assert res.rank_deficit == 0
    assert res.certificate.alpha == (0,)


# ---------------------------------------------------------------------------
# the sparse checks against the dense loops over f they replaced


def _dense_jacobi(alg):
    n, f = alg.dim, alg.f
    worst = Fraction(0)
    for a, b, c in itertools.combinations(range(n), 3):
        for e in range(n):
            r = sum(
                (f[d][a][b] * f[e][d][c] + f[d][b][c] * f[e][d][a] + f[d][c][a] * f[e][d][b]
                 for d in range(n)),
                Fraction(0),
            )
            worst = max(worst, abs(r))
    return worst


def _dense_cocycle(alg, cocycle):
    n, f, C = alg.dim, alg.f, cocycle.c
    worst = Fraction(0)
    for a, b, c in itertools.combinations(range(n), 3):
        r = sum(
            (f[d][a][b] * C[d][c] + f[d][b][c] * C[d][a] + f[d][c][a] * C[d][b]
             for d in range(n)),
            Fraction(0),
        )
        worst = max(worst, abs(r))
    return worst


def _sparse_cases(rng):
    """Builtins, their images under a random basis change, and bent tables."""
    cases = [_bent_poincare()]
    for name in ("poincare21", "heisenberg1", "galilei11"):
        g = al.builtin_algebra(name)
        gp = al.change_basis(g, _random_invertible(rng, g.dim))
        cases += [g, gp]
        for base in (g, gp):
            a, b = sorted(rng.sample(range(g.dim), 2))
            bent = {**base.brackets, (a, b): {rng.randrange(g.dim): _rand_fraction(rng)}}
            cases.append(al.LieAlgebraSpec(g.labels, bent))
    return cases


def test_sparse_checks_match_dense_loops():
    rng = random.Random(41)
    jacobi = []
    for g in _sparse_cases(rng):
        jacobi.append(al.jacobi_check(g))
        assert jacobi[-1] == _dense_jacobi(g)
        for _ in range(3):
            # a random antisymmetric matrix, almost never a cocycle
            entries = {(g.labels[a], g.labels[b]): _rand_fraction(rng) for a, b in _pairs(g.dim)}
            C = al.TwoCocycle.from_entries(g.labels, entries)
            assert al.cocycle_check(g, C) == _dense_cocycle(g, C)
        if jacobi[-1] == 0:
            assert al.h2_dimension(g) == _h2_oracle(g)
    assert sum(1 for r in jacobi if r != 0) >= 4  # the bent tables really are bent


@pytest.mark.parametrize("name,cocycle", [
    ("poincare21", al.shift_cocycle(1, Fraction(-2, 3), 5)),  # removable
    ("galilei11", al.TwoCocycle(("H", "P", "K"), {(1, 2): Fraction(5, 3)})),  # mass: not
    ("heisenberg1", al.TwoCocycle(("Q1", "P1", "Z"), {(0, 2): 1})),  # not removable
])
def test_cached_cocycle_rows_survive_every_check(name, cocycle):
    # every check of one algebra reads one cached row table, so none may edit it
    g = al.builtin_algebra(name)
    rows = g._cocycle_rows
    assert rows
    before = [dict(row) for row in rows]
    al.h2_dimension(g)
    assert al.cocycle_check(g, cocycle) == 0
    al.coboundary_solve(g, cocycle)
    exactlin.rref(rows)
    assert g._cocycle_rows is rows
    assert list(rows) == before


# ---------------------------------------------------------------------------
# second cohomology, with an independent sympy rank oracle


def _h2_oracle(alg):
    """Rank computation routed through sympy instead of exactlin."""
    n = alg.dim
    slots = _pairs(n)
    pos = {ab: i for i, ab in enumerate(slots)}

    def put(row, d, c, coeff):
        if d == c:
            return
        if d < c:
            row[pos[(d, c)]] += sympy.Rational(coeff)
        else:
            row[pos[(c, d)]] -= sympy.Rational(coeff)

    z_rows = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                row = [sympy.Integer(0)] * len(slots)
                for d in range(n):
                    put(row, d, c, alg.f[d][a][b])
                    put(row, d, a, alg.f[d][b][c])
                    put(row, d, b, alg.f[d][c][a])
                z_rows.append(row)
    z_rank = sympy.Matrix(z_rows).rank() if z_rows else 0
    b_rows = [[sympy.Rational(alg.f[c][a][b]) for c in range(n)] for a, b in slots]
    b_rank = sympy.Matrix(b_rows).rank() if b_rows else 0
    return len(slots) - z_rank - b_rank


@pytest.mark.parametrize(
    "name,expected",
    [
        ("poincare21", 0),
        ("abelian2", 1),
        ("abelian3", 3),
        ("heisenberg1", 2),
        ("galilei11", 2),
        # every antisymmetric form on abelianN is a cocycle and none a coboundary
        ("abelian24", math.comb(24, 2)),
        ("abelian40", math.comb(40, 2)),
        ("abelian64", math.comb(64, 2)),
    ],
)
def test_h2_dimension_frozen_and_oracle(name, expected):
    g = al.builtin_algebra(name)
    assert al.h2_dimension(g) == expected
    if g.dim <= 6:  # the closed form C(N, 2) is the only oracle for the large tables
        assert _h2_oracle(g) == expected


def test_h2_requires_jacobi():
    with pytest.raises(ValueError, match="Jacobi"):
        al.h2_dimension(_bent_poincare())


def _gl(n):
    """gl(n) on the matrix units E_ij: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    labels = tuple(f"E{i}{j}" for i in range(n) for j in range(n))
    brackets = {}
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(
            enumerate(itertools.product(range(n), repeat=2)), 2):
        comps = {}
        if j == k:
            comps[i * n + l] = 1
        if l == i:
            comps[k * n + j] = comps.get(k * n + j, 0) - 1
        brackets[(a, b)] = comps
    return al.LieAlgebraSpec(labels, brackets)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_h2_of_gl_vanishes(n):
    # Whitehead's second lemma gives H^2(sl(n)) = 0, and with H^1(sl(n)) = 0
    # the Kunneth formula gives H^2(sl(n) + R) = 0
    g = _gl(n)
    assert al.jacobi_check(g) == 0
    assert al.h2_dimension(g) == 0
    if n == 3:
        assert _h2_oracle(g) == 0


# ---------------------------------------------------------------------------
# basis changes


def _random_invertible(rng, n, span=3):
    """Unit lower-triangular times unit upper-triangular: invertible by construction."""
    lo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lo[i][j] = _rand_fraction(rng, span)
            up[j][i] = _rand_fraction(rng, span)
    return _matmul(lo, up)


def test_change_basis_rejects_singular_and_misshapen_p():
    poi = al.build_poincare_2plus1()
    singular = _random_invertible(random.Random(5), 6)
    singular[4] = [x + 2 * y for x, y in zip(singular[1], singular[3])]  # row 4 from rows 1, 3
    assert _dense_inverse(singular) is None
    with pytest.raises(ValueError, match="singular"):
        al.change_basis(poi, singular)
    with pytest.raises(ValueError, match="singular"):
        al.change_basis(poi, [[0] * 6] * 6)
    with pytest.raises(ValueError, match="n x n"):
        al.change_basis(poi, singular[:5])


def test_change_basis_identity_is_noop():
    poi = al.build_poincare_2plus1()
    ident = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    assert al.change_basis(poi, ident).f == poi.f


def test_change_basis_preserves_jacobi_and_h2():
    rng = random.Random(23)
    for name in ("poincare21", "heisenberg1", "galilei11"):
        g = al.builtin_algebra(name)
        p = _random_invertible(rng, g.dim)
        gp = al.change_basis(g, p)
        assert al.jacobi_check(gp) == 0
        assert al.h2_dimension(gp) == al.h2_dimension(g)


def test_change_basis_matches_direct_bracket():
    rng = random.Random(31)
    g = al.build_poincare_2plus1()
    n = g.dim
    p = _random_invertible(rng, n)
    gp = al.change_basis(g, p)
    for a in range(n):
        for b in range(n):
            # bracket of columns a, b of P, computed in the old basis
            direct = [Fraction(0)] * n
            for c in range(n):
                for d in range(n):
                    w = p[c][a] * p[d][b]
                    if w == 0:
                        continue
                    for e in range(n):
                        direct[e] += w * g.f[e][c][d]
            # new structure constants mapped back through P
            mapped = [
                sum((p[e][k] * gp.f[k][a][b] for k in range(n)), Fraction(0))
                for e in range(n)
            ]
            assert direct == mapped


def test_scaling_energy_momentum_rescales_shift_certificate():
    # doubling H halves the alpha component that multiplies it
    poi = al.build_poincare_2plus1()
    p = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        p[i][i] = Fraction(1)
    p[0][0] = Fraction(2)
    gp = al.change_basis(poi, p)
    assert al.jacobi_check(gp) == 0
    # <<K1', P1'>> = <<K1, P1>> = H = H'/2
    assert dict(gp.terms(gp.labels.index("K1"), gp.labels.index("P1")))[0] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# text round trip


def test_algebra_file_roundtrip(tmp_path):
    poi = al.build_poincare_2plus1()
    path = tmp_path / "poi.alg"
    al.save_algebra(poi, path)
    back = al.load_algebra(path)
    assert back.labels == poi.labels
    assert back.f == poi.f


def test_cocycle_file_roundtrip(tmp_path):
    C = al.shift_cocycle(Fraction(1, 2), Fraction(-3, 4), 2)
    path = tmp_path / "charge.coc"
    al.save_cocycle(C, path)
    back = al.load_cocycle(path)
    assert back.labels == C.labels
    assert back.c == C.c


def test_sparse_cocycle_file_roundtrip_is_byte_identical(tmp_path):
    g = al.abelian_algebra(al.MAX_DIM)
    C = al.TwoCocycle.from_entries(g.labels, {
        ("P64", "P1"): Fraction(-5, 3), ("P2", "P40"): 7, ("P10", "P11"): Fraction(1, 9),
    })
    assert C.entries == {(0, 63): Fraction(5, 3), (1, 39): 7, (9, 10): Fraction(1, 9)}
    first, second = tmp_path / "first.coc", tmp_path / "second.coc"
    al.save_cocycle(C, first)
    back = al.load_cocycle(first)
    assert back == C
    al.save_cocycle(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert len(first.read_text().splitlines()) == 2 + len(C.entries)


def test_load_algebra_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("basis A B\nf A B 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match="line 2"):
        al.load_algebra(path)


def test_load_algebra_rejects_conflicting_duplicates(tmp_path):
    path = tmp_path / "dup.alg"
    path.write_text("basis A B C\nf A B C 1 1\nf B A C 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match=r"^line 3: antisymmetry violated at \(B, A\)$"):
        al.load_algebra(path)


def test_load_algebra_accepts_consistent_duplicates(tmp_path):
    path = tmp_path / "dup_ok.alg"
    path.write_text("basis A B C\nf A B C 1 2\nf B A C -1 2\n")
    g = al.load_algebra(path)
    assert g.f[2][0][1] == Fraction(1, 2)


def test_load_rejects_zero_denominator(tmp_path):
    path = tmp_path / "zde.alg"
    path.write_text("basis A B C\nf A B C 1 0\n")
    with pytest.raises(al.AlgebraFormatError, match="denominator"):
        al.load_algebra(path)


def test_load_rejects_unknown_label(tmp_path):
    path = tmp_path / "lab.coc"
    path.write_text("basis A B\nc A X 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match="unknown label"):
        al.load_cocycle(path)


def test_load_rejects_missing_basis(tmp_path):
    path = tmp_path / "nob.alg"
    path.write_text("f A B C 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match="basis"):
        al.load_algebra(path)


def test_kind_mixups_rejected(tmp_path):
    apath = tmp_path / "mix.alg"
    apath.write_text("basis A B\nc A B 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match="cocycle record"):
        al.load_algebra(apath)
    cpath = tmp_path / "mix.coc"
    cpath.write_text("basis A B C\nf A B C 1 1\n")
    with pytest.raises(al.AlgebraFormatError, match="structure-constant record"):
        al.load_cocycle(cpath)


def test_load_algebra_refuses_a_diagonal_record_of_any_value(tmp_path):
    path = tmp_path / "zdiag.alg"
    path.write_text("basis A B C\nf A A B 0 1\n")
    with pytest.raises(al.AlgebraFormatError, match=r"^line 2: pair \(A, A\) is diagonal$"):
        al.load_algebra(path)


def test_load_algebra_folds_each_component_apart(tmp_path):
    # a mirror record on another component adds to the bracket, not conflicts
    path = tmp_path / "mirror.alg"
    path.write_text("basis A B C D\nf A B C 1 2\nf B A D 1 1\n")
    assert al.load_algebra(path).brackets == {(0, 1): {2: Fraction(1, 2), 3: -1}}


def test_gl8_table_file_roundtrip_is_byte_identical(tmp_path):
    n = 8  # gl(8) on the matrix units: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    units = list(itertools.product(range(n), repeat=2))
    brackets = {(a, b): {**({i * n + l: 1} if j == k else {}), **({k * n + j: -1} if l == i else {})}
                for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units), 2)}
    g = al.LieAlgebraSpec(tuple(f"E{i}{j}" for i, j in units), brackets)
    first, second = tmp_path / "first.alg", tmp_path / "second.alg"
    al.save_algebra(g, first)
    back = al.load_algebra(first)
    assert back == g
    al.save_algebra(back, second)
    assert second.read_bytes() == first.read_bytes()
