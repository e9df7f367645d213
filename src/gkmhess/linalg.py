"""Exact rational linear algebra on sparse matrices.

Everything here is exact: rows are kept as integer sparse vectors (content
stripped after every combination, Bareiss style) and kernel bases come out
with Fraction entries.  There is no floating point and no modular
arithmetic; identical inputs produce bit-identical outputs.

:class:`Echelon` is the one elimination engine: kernels, ranks, and the
direct quotient and its trace in :mod:`gkmhess.cohomology` all reduce
through it.  :func:`kernel_of_rows` reduces a list of integer rows to
echelon form (pivot = smallest column of each row, rows inserted in the
given order) followed by a backward pass, and reads off the canonical
kernel basis: one column per free (non-pivot) column f, with entry 1 at
row f.  Those unit rows make coordinate extraction trivial, which the
higher layers exploit for traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


IntRow = dict[int, int]
FracCol = dict[int, Fraction]


def _strip_content(row: IntRow) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _reduce_by(row: IntRow, prow: IntRow, c: int) -> None:
    """In place: cancel column c of row using prow (integer, fraction-free)."""
    rc, pc = row[c], prow[c]
    g = gcd(rc, pc)
    mr, mp = pc // g, rc // g
    if mr < 0:
        mr, mp = -mr, -mp
    if mr != 1:
        for k in row:
            row[k] *= mr
    for k, v in prow.items():
        nv = row.get(k, 0) - mp * v
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)
    _strip_content(row)


class Echelon:
    """Incremental sparse integer echelon form (exact, deterministic)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}   # pivot column -> index in rows
        self.rows: list[tuple[int, IntRow]] = []

    def reduce(self, row: IntRow) -> IntRow:
        """Remainder of row against the current pivots, not stored.

        The remainder is empty exactly when row lies in the span of the
        rows; otherwise its smallest column is not a pivot.
        """
        r = dict(row)
        while r:
            c = min(r)
            idx = self.pivots.get(c)
            if idx is None:
                break
            _reduce_by(r, self.rows[idx][1], c)
        return r

    def insert(self, row: IntRow) -> bool:
        """Keep the remainder of row if nonzero; True when the rank grew."""
        r = self.reduce(row)
        if not r:
            return False
        c = min(r)
        self.pivots[c] = len(self.rows)
        self.rows.append((c, r))
        return True

    def copy(self) -> "Echelon":
        """An echelon with the same rows.  Inserting into either leaves the
        other unchanged; the row dicts are shared, so back-substitute first."""
        out = Echelon()
        out.pivots = dict(self.pivots)
        out.rows = list(self.rows)
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)

    def back_substitute(self) -> None:
        """Fully inter-reduce rows; afterwards each row meets pivot columns
        only at its own pivot."""
        for i in sorted(range(len(self.rows)), key=lambda i: -self.rows[i][0]):
            c, r = self.rows[i]
            while True:
                hits = [k for k in r if k != c and k in self.pivots]
                if not hits:
                    break
                k = min(hits)
                _reduce_by(r, self.rows[self.pivots[k]][1], k)

    def kernel_columns(self, ncols: int) -> tuple[list[FracCol], list[int]]:
        """Canonical kernel basis after back substitution.

        Returns (columns, free_cols); column j has entry 1 at row
        free_cols[j] and entry -row[f]/row[pivot] at each pivot row.
        """
        self.back_substitute()
        free = [c for c in range(ncols) if c not in self.pivots]
        # pivot-column -> (pivot value, row) for quick scans
        cols: list[FracCol] = []
        by_free: dict[int, list[tuple[int, Fraction]]] = {f: [] for f in free}
        for c, r in self.rows:
            pv = r[c]
            for k, v in r.items():
                if k != c and k in by_free:
                    by_free[k].append((c, Fraction(-v, pv)))
        for f in free:
            col: FracCol = {f: Fraction(1)}
            for c, val in by_free[f]:
                col[c] = val
            cols.append(col)
        return cols, free


@dataclass
class SubspaceBasis:
    """Columns spanning a subspace of Q^ambient_dim.

    ``unit_rows``, when set, lists rows where the columns restrict to the
    identity matrix (column j is 1 at unit_rows[j], 0 at other unit rows);
    kernel bases produced here always have this shape, which makes
    coordinates of a vector in the span just its values at those rows.
    """

    ambient_dim: int
    columns: list[FracCol]
    unit_rows: list[int] | None = None

    @property
    def dim(self) -> int:
        return len(self.columns)


def rank_of_int_rows(rows: list[IntRow]) -> int:
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    return ech.rank


def kernel_of_rows(rows: list[IntRow], ncols: int) -> SubspaceBasis:
    """Exact kernel of the row system as a SubspaceBasis with unit rows."""
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    cols, free = ech.kernel_columns(ncols)
    return SubspaceBasis(ncols, cols, unit_rows=free)


def columns_to_int_rows(columns: list[FracCol]) -> list[IntRow]:
    out = []
    for col in columns:
        den = lcm(*(v.denominator for v in col.values()))
        out.append({i: int(v * den) for i, v in col.items()})
    return out


def rank_of_columns(columns: list[FracCol]) -> int:
    return rank_of_int_rows(columns_to_int_rows(columns))
