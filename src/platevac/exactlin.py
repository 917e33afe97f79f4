"""Exact sparse row reduction over fractions.Fraction.

`rref` is the one elimination routine of the package: ranks, solutions of
A x = b (reduce [A | b]; b is consistent unless its column is a pivot) and
inverses (reduce [P | I]) are all read off it. A row is a dict {column:
value}; absent columns are zero and column keys need only sort among
themselves (ints, or pair slots (a, b)). Rows stay sparse, so fill-in stays
inside each independent block of a system. Rank decisions are exact, so
any nonzero entry is an acceptable pivot.
"""

from __future__ import annotations

from fractions import Fraction


def _subtract(row: dict, factor, other: dict) -> None:
    """row -= factor * other in place, dropping the entries that cancel."""
    for k, v in other.items():
        w = row.get(k, 0) - factor * v
        if w:
            row[k] = w
        else:
            del row[k]


def rref(rows) -> tuple[list[dict], list]:
    """(reduced rows in pivot order, sorted pivot columns) of `rows`, left unchanged.

    This is the unique RREF of the row space, whatever the row order. Each
    row joins a basis keyed by its pivot, its smallest column, once the basis
    rows of its leading columns are subtracted; one back-substitution then
    clears each pivot column from the other rows. Zero rows leave no trace.
    """
    basis: dict = {}  # pivot column -> row scaled to 1 at the pivot
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        while row:
            pivot = min(row)
            if pivot not in basis:
                basis[pivot] = {k: v / row[pivot] for k, v in row.items()}
                break
            _subtract(row, row[pivot], basis[pivot])
    pivots = sorted(basis)
    # a basis row holds no column left of its pivot, so clearing from the
    # right subtracts only rows that are already fully reduced
    for pivot in reversed(pivots):
        row = basis[pivot]
        for k in [k for k in row if k != pivot and k in basis]:
            _subtract(row, row[k], basis[k])
    return [basis[p] for p in pivots], pivots
