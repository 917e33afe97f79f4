"""Exact linear algebra over fractions.Fraction for small dense systems.

Everything here works on lists of lists of Fraction and is meant for
matrices with at most a few dozen rows: `rref` (and `rank` from it) and
`inverse`. Rank decisions are exact, so any nonzero entry is an
acceptable pivot. A linear system A x = b is solved by reducing [A | b]
once with `rref`: b is consistent unless the last column is a pivot.
"""

from __future__ import annotations

from fractions import Fraction


def as_matrix(rows) -> list[list[Fraction]]:
    """Deep-copy `rows` into a rectangular list of Fractions."""
    out = [[Fraction(x) for x in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("ragged matrix")
    return out


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of `rows`.

    Returns (matrix, pivot_columns). Pivot search scans the remaining
    submatrix for the first nonzero entry, which over exact rationals
    is as rank-revealing as any pivoting strategy.
    """
    m = as_matrix(rows)
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def inverse(rows):
    """Exact inverse, or None when the matrix is singular."""
    a = as_matrix(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
