"""Exact linear algebra: kernels and ranks through the integer echelon, and
a dense Fraction oracle for restricting an endomorphism to a subspace."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_fractions(self):
        # rank_of_columns clears each column's denominators first
        assert L.rank_of_columns([{0: Fraction(1, 2), 1: Fraction(1, 3)},
                                  {0: Fraction(3, 2), 1: Fraction(1)}]) == 1
        assert L.rank_of_columns([{0: Fraction(1, 2), 1: Fraction(1, 3)},
                                  {0: Fraction(1, 5), 1: Fraction(1)}]) == 2


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
