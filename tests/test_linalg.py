"""Exact linear algebra: kernels and ranks through the integer echelon, and
dense Fraction oracles for kernels, ranks and restricting an endomorphism
to a subspace."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from gkmhess import linalg as L


def int_rows(matrix):
    """Sparse integer rows of a dense integer matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def kernel(matrix):
    return L.kernel_of_rows(int_rows(matrix), len(matrix[0]))


def rank(matrix):
    return L.rank_of_int_rows(int_rows(matrix))


def times(matrix, col):
    """Plain matrix-vector product of a dense matrix and a sparse column."""
    return [sum(v * col.get(j, 0) for j, v in enumerate(row))
            for row in matrix]


class NotInvariant(ValueError):
    """P maps some basis column outside the spanned subspace."""


def restrict_endomorphism(k: L.SubspaceBasis, p) -> list[list[Fraction]]:
    """Dense matrix M with P K = K M, when col(K) is P-invariant.

    Reference implementation: Gauss-Jordan elimination of [K | P K] over
    Fraction, sharing no code with the integer echelon.  Raises
    NotInvariant if some P K_j falls outside col(K).
    """
    n, d = k.ambient_dim, k.dim
    basis = [[Fraction(col.get(i, 0)) for col in k.columns] for i in range(n)]
    image = [[sum(Fraction(p[i][l]) * basis[l][j] for l in range(n))
              for j in range(d)] for i in range(n)]
    aug = [basis[i] + image[i] for i in range(n)]
    for c in range(d):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("basis columns are linearly dependent")
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    if any(any(row[d:]) for row in aug[d:]):
        raise NotInvariant("image of a basis column leaves the subspace")
    return [row[d:] for row in aug[:d]]


def trace(m) -> Fraction:
    return sum(m[i][i] for i in range(len(m)))


def fraction_rref(vectors, ncols):
    """Pivot columns and the reduced rows of sparse vectors: dense
    Gauss-Jordan over Fraction, sharing no code with the integer echelon."""
    rows = [[Fraction(v.get(j, 0)) for j in range(ncols)] for v in vectors]
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def fraction_kernel(rows, ncols):
    """Kernel basis of a sparse row system from its Fraction RREF."""
    pivots, red = fraction_rref(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        col = {f: Fraction(1)}
        for c, row in zip(pivots, red):
            if row[f]:
                col[c] = -row[f]
        out.append(col)
    return out


def fraction_rank(vectors, ncols) -> int:
    return len(fraction_rref(vectors, ncols)[0])


def same_span(a, b, ncols):
    return (fraction_rank(a, ncols) == fraction_rank(b, ncols)
            == fraction_rank(a + b, ncols))


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).dim == 0

    def test_zero_matrix(self):
        k = kernel([[0, 0, 0], [0, 0, 0]])
        assert k.dim == 3
        assert k.unit_rows == [0, 1, 2]

    def test_single_row(self):
        k = kernel([[1, -1]])
        assert k.dim == 1
        assert k.columns[0] == {0: Fraction(1), 1: Fraction(1)}

    def test_kernel_columns_annihilated(self):
        m = [[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 1, 4]]
        k = kernel(m)
        assert k.dim == 4 - rank(m)
        for col in k.columns:
            assert times(m, col) == [0, 0, 0]

    def test_unit_rows_shape(self):
        k = kernel([[1, 2, 3, 4], [0, 0, 1, 1]])
        for j, col in enumerate(k.columns):
            for i, r in enumerate(k.unit_rows):
                assert col.get(r, Fraction(0)) == (1 if i == j else 0)

    def test_non_unit_pivot_gives_primitive_integer_column(self):
        # oracle: ker [2 3] = span (-3, 2); ker [2 4] = span (-2, 1)
        assert kernel([[2, 3]]).columns == [{0: -3, 1: 2}]
        assert kernel([[2, 4]]).columns == [{0: -2, 1: 1}]
        k = kernel([[2, 0, 3], [0, 3, 1]])
        assert k.unit_rows == [2]
        assert k.columns == [{0: -9, 1: -2, 2: 6}]


class TestRank:
    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        for n in (1, 2, 5):
            assert rank([[int(i == j) for j in range(n)]
                         for i in range(n)]) == n

    def test_outer_product(self):
        u, v = [1, 2, 3], [2, -1, 4]
        assert rank([[a * b for b in v] for a in u]) == 1


class TestRestrict:
    def test_full_basis_returns_p(self):
        k = L.SubspaceBasis(2, [{0: Fraction(1)}, {1: Fraction(1)}])
        assert restrict_endomorphism(k, [[1, 2], [3, 4]]) == [[1, 2], [3, 4]]

    def test_identity_endomorphism(self):
        k = L.SubspaceBasis(3, [{0: Fraction(1), 2: Fraction(2)},
                                {1: Fraction(1)}])
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert restrict_endomorphism(k, eye) == [[1, 0], [0, 1]]

    def test_eigenspace(self):
        # oracle: P with eigenvalue 5 on span{(1,1,0),(0,0,1)}
        p = [[4, 1, 0], [1, 4, 0], [0, 0, 5]]
        k = L.SubspaceBasis(3, [{0: Fraction(1), 1: Fraction(1)},
                                {2: Fraction(1)}])
        assert restrict_endomorphism(k, p) == [[5, 0], [0, 5]]

    def test_not_invariant(self):
        k = L.SubspaceBasis(2, [{0: Fraction(1)}])
        with pytest.raises(NotInvariant):
            restrict_endomorphism(k, [[0, 1], [1, 0]])

    def test_trace_invariant_under_basis_change(self):
        p = [[1, 1, 0], [0, 2, 1], [0, 0, 3]]
        cols = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
        m1 = restrict_endomorphism(L.SubspaceBasis(3, cols), p)
        permuted = [cols[2], cols[0], cols[1]]
        m2 = restrict_endomorphism(L.SubspaceBasis(3, permuted), p)
        assert trace(m1) == trace(m2) == 6


matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    min_size=1, max_size=6)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    k = kernel(m)
    assert rank(m) + k.dim == 4
    for col in k.columns:
        assert not any(times(m, col))


@given(matrices)
@settings(max_examples=30, deadline=None)
def test_deterministic(m):
    a, b = kernel(m), kernel(m)
    assert a.columns == b.columns and a.unit_rows == b.unit_rows


@st.composite
def sparse_systems(draw):
    """Sparse integer row systems; entries up to 6, so pivots are often
    not +-1 and reductions scale rows."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-6, 6).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4)
    return draw(st.lists(row, max_size=8)), ncols


# a chain whose rows each meet the next pivot: reducing a row by one that
# is not yet reduced brings back a pivot column
CHAIN = ([{0: 1, 1: 2}, {1: 1, 2: 3}, {2: 2, 3: 1}, {3: 1, 4: 1}], 5)


@given(sparse_systems())
@example(CHAIN)
@settings(max_examples=150, deadline=None)
def test_engine_invariants(system):
    rows, ncols = system
    ech = L.Echelon()
    for r in rows:
        ech.insert(r)
    ech.back_substitute()
    for c, r in ech.rows:
        assert min(r) == c and r[c]
        assert [k for k in r if k in ech.pivots] == [c]
    kernel = L.Kernel(rows, ncols)
    cols, free = kernel.columns, kernel.unit_rows
    assert len(cols) + ech.rank == ncols
    assert free == [c for c in range(ncols) if c not in ech.pivots]
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    for j, col in enumerate(cols):
        assert all(type(v) is int and v for v in col.values())
        assert col[free[j]] > 0
        assert not set(free).intersection(col) - {free[j]}
        assert not any(times(dense, col))
    assert same_span(cols, fraction_kernel(rows, ncols), ncols)


@given(sparse_systems())
@example(CHAIN)
@settings(max_examples=150, deadline=None)
def test_on_demand_columns_are_the_basis(system):
    # column(f) reads only the rows that meet f; columns reads every row
    rows, ncols = system
    kernel = L.Kernel(rows, ncols)
    assert [kernel.column(f) for f in kernel.unit_rows] == kernel.columns
    assert kernel.dim == len(kernel.columns)
    assert L.kernel_of_rows(rows, ncols) == L.SubspaceBasis(
        ncols, kernel.columns, kernel.unit_rows)


@given(sparse_systems())
@example(CHAIN)
@settings(max_examples=150, deadline=None)
def test_stored_rows_are_primitive(system):
    # the content is stripped once per stored row, not per combination
    rows, _ = system
    ech = L.Echelon.of(rows)
    for stage in ("inserted", "back-substituted"):
        for c, r in ech.rows:
            assert min(r) == c, stage
            assert gcd(*r.values()) == 1, stage
        ech.back_substitute()


@given(sparse_systems(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_column_order_leaves_the_span(system, rnd: random.Random):
    rows, ncols = system
    perm = list(range(ncols))
    rnd.shuffle(perm)
    moved = L.kernel_of_rows(
        [{perm[c]: v for c, v in r.items()} for r in rows], ncols)
    inv = [perm.index(c) for c in range(ncols)]
    back = [{inv[c]: v for c, v in col.items()} for col in moved.columns]
    assert same_span(back, L.kernel_of_rows(rows, ncols).columns, ncols)


@given(sparse_systems(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_row_order_leaves_the_basis(system, rnd: random.Random):
    # the canonical basis is read off the reduced echelon form, which does
    # not depend on the order the rows are inserted in
    rows, ncols = system
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    a, b = L.kernel_of_rows(rows, ncols), L.kernel_of_rows(shuffled, ncols)
    assert a.columns == b.columns and a.unit_rows == b.unit_rows


@given(sparse_systems(), st.dictionaries(st.integers(0, 7),
                                         st.integers(-6, 6).filter(bool),
                                         max_size=5))
@example(([{0: 2, 2: 1}, {1: 3, 2: 1}], 3), {0: 1, 1: 1, 2: 1})
@settings(max_examples=150, deadline=None)
def test_remainder_at_is_the_exact_remainder(system, row):
    # oracle: row - sum_c row[c] / r_c[c] * r_c in Fractions, zero at
    # every pivot, and zero everywhere exactly when row lies in the span;
    # read as an integer over any common multiple of the pivot entries
    rows, ncols = system
    row = {c: v for c, v in row.items() if c < ncols}
    ech = L.Echelon.of(rows)
    ech.back_substitute()
    scale = 2 * lcm(*(r[c] for c, r in ech.rows))
    scaled = [ech.remainder_at(row, f, scale) for f in range(ncols)]
    assert all(isinstance(x, int) for x in scaled)
    rem = [Fraction(x, scale) for x in scaled]
    assert not any(rem[c] for c in ech.pivots)
    exact = {c: Fraction(v) for c, v in row.items()}
    for c, r in ech.rows:
        a = Fraction(row.get(c, 0), r[c])
        for j, v in r.items():
            exact[j] = exact.get(j, 0) - a * v
    assert rem == [exact.get(f, 0) for f in range(ncols)]
    in_span = fraction_rank(rows + [row], ncols) == fraction_rank(rows, ncols)
    assert (not any(rem)) == in_span
