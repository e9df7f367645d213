"""Exact rational linear algebra on sparse matrices.

Everything here is exact: rows and kernel columns are integer sparse
vectors, and every stored row is primitive (its content is stripped when
it is stored and when back substitution changes it).  There is no
floating point and no modular arithmetic; identical inputs produce
bit-identical outputs.

:class:`Echelon` is the one elimination engine: kernels, ranks, and the
direct quotient and its trace in :mod:`gkmhess.cohomology` all reduce
through it, pivoting on the smallest column of each row.  A
:class:`Kernel` keeps the back-substituted echelon of its rows and makes
a canonical basis column on demand; :func:`kernel_of_rows` makes them
all.  Column f is positive at row f and zero at every other free row, so
the coordinate of a kernel vector x along it is x[f] / col[f].
"""

from __future__ import annotations

from math import gcd, lcm


IntRow = dict[int, int]


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


class Echelon:
    """Incremental sparse integer echelon form (exact, deterministic)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}   # pivot column -> index in rows
        self.rows: list[tuple[int, IntRow]] = []

    @classmethod
    def of(cls, rows: list[IntRow]) -> "Echelon":
        """The echelon of rows, inserted shortest first, which keeps the
        fill-in small.  The order changes neither the span nor, after back
        substitution, the rows: each is then the primitive integer
        multiple, unique up to sign, of a row of the reduced echelon
        form."""
        ech = cls()
        for r in sorted(rows, key=len):
            ech.insert(r)
        return ech

    def reduce(self, row: IntRow) -> IntRow:
        """Remainder of row against the current pivots, not stored.

        The remainder is empty exactly when row lies in the span of the
        rows; otherwise its smallest column is not a pivot.  It is a
        positive multiple of the primitive remainder, not always primitive.
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
        _strip_content(r)
        c = min(r)
        self.pivots[c] = len(self.rows)
        self.rows.append((c, r))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def back_substitute(self) -> None:
        """Fully inter-reduce rows; afterwards each row meets pivot columns
        only at its own pivot.

        Rows are taken in descending pivot order, so every row a reduction
        uses is already reduced: it meets no pivot column but its own, and
        clearing one column never fills another.  One scan of each row
        therefore finds every column to clear.  A changed row has its
        content stripped before any later row uses it.
        """
        pivots = self.pivots
        for c, r in sorted(self.rows, key=lambda cr: -cr[0]):
            hits = [k for k in r if k != c and k in pivots]
            for k in hits:
                _reduce_by(r, self.rows[pivots[k]][1], k)
            if hits:
                _strip_content(r)

    def remainder_at(self, row: IntRow, f: int, scale: int) -> int:
        """scale times column f of row - sum_c row[c] / r_c[c] * r_c after
        back substitution, c over the pivot columns of row and r_c the row
        with pivot c; scale must be a multiple of every r_c[c].  That
        remainder is zero at every pivot column, and zero everywhere
        exactly when row lies in the span of the rows."""
        out = scale * row.get(f, 0)
        for c, v in row.items():
            if c in self.pivots:
                r = self.rows[self.pivots[c]][1]
                if f in r:
                    out -= v * r[f] * (scale // r[c])
        return out


class Kernel:
    """The kernel of rows on ncols columns, kept as the back-substituted
    echelon of the rows, with its canonical basis made on demand: one
    primitive integer column per free column f (unit_rows), positive at
    f, zero at every other free column, and -r[f] * col[f] / r[c] at the
    pivot c of each row r.  column(f) reads only the rows that meet f,
    columns all of them; neither depends on the order of the rows."""

    def __init__(self, rows: list[IntRow], ncols: int):
        self.echelon, self.ambient_dim = Echelon.of(rows), ncols
        self.echelon.back_substitute()
        self.unit_rows = [c for c in range(ncols)
                          if c not in self.echelon.pivots]
        self.dim = len(self.unit_rows)

    def column(self, f: int) -> IntRow:
        return _kernel_column(f, [(c, r[f], r[c]) for c, r in
                                  self.echelon.rows if f in r])

    @property
    def columns(self) -> list[IntRow]:
        by_free: dict[int, list] = {f: [] for f in self.unit_rows}
        for c, r in self.echelon.rows:
            pv = r[c]
            for k, v in r.items():
                if k != c:
                    by_free[k].append((c, v, pv))
        return [_kernel_column(f, by_free[f]) for f in self.unit_rows]


def _kernel_column(f: int, entries: list[tuple[int, int, int]]) -> IntRow:
    """The column of :class:`Kernel` at f, from (c, r[f], r[c]) by row r."""
    den = lcm(*(pv for _, _, pv in entries))
    col = {f: den}
    g = den
    for c, v, pv in entries:
        x = -v * (den // pv)
        col[c] = x
        if g != 1:
            g = gcd(g, x)
    return {k: x // g for k, x in col.items()} if g != 1 else col


class SubspaceBasis:
    """Columns spanning a subspace of Q^ambient_dim; ``unit_rows``, when
    set, lists rows where they restrict to a positive diagonal matrix, as
    the columns of a :class:`Kernel` do at its free columns."""

    def __init__(self, ambient_dim: int, columns: list[IntRow],
                 unit_rows: list[int] | None = None):
        self.ambient_dim, self.columns = ambient_dim, columns
        self.unit_rows = unit_rows

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def column(self, f: int) -> IntRow:
        return self.columns[self.unit_rows.index(f)]


def rank_of_int_rows(rows: list[IntRow]) -> int:
    return Echelon.of(rows).rank


def kernel_of_rows(rows: list[IntRow], ncols: int) -> SubspaceBasis:
    """The whole basis of :class:`Kernel`, as a SubspaceBasis."""
    kernel = Kernel(rows, ncols)
    return SubspaceBasis(ncols, kernel.columns, unit_rows=kernel.unit_rows)


def _restrict(cols: list[IntRow], free: set[int]) -> list[IntRow]:
    return [{c: v for c, v in col.items() if c in free} for col in cols]


def column_adjacency(rows: list[IntRow]):
    """Column -> [(row index, coefficient)] of a row system."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for ri, row in enumerate(rows):
        for c, v in row.items():
            adj.setdefault(c, []).append((ri, v))
    return adj


def first_violated_row(adj, col: dict) -> int | None:
    """Smallest index of a row (given by its column adjacency) that does
    not annihilate the integer vector col, or None."""
    residual: dict = {}
    for c, v in col.items():
        for ri, cf in adj.get(c, ()):
            residual[ri] = residual.get(ri, 0) + cf * v
    return min((ri for ri, x in residual.items() if x), default=None)
