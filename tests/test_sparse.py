import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singpencil.errors import DimensionMismatch
from singpencil.sparse import (SparseMatrix, add_scaled, norm_estimate, spmv,
                               spmv_adjoint, two_norm_estimate)

from conftest import random_sparse


# -- construction and canonicalization ---------------------------------------

def test_from_coo_sums_duplicates_and_drops_zeros():
    M = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 0, 1, 1], [1.0, 2.0, 3.0, -3.0])
    assert M.nnz == 1
    assert M.to_dense()[0, 0] == 3.0


def test_one_entry_matrix_constructs():
    M = SparseMatrix(3, 2, [0, 0, 1], [2], [5.0])
    assert M.nnz == 1 and M.to_dense()[2, 1] == 5.0


def test_invariants_rejected():
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [0, 2, 2], [0, 0], [1.0, 1.0])  # repeated row in col 0
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])  # decreasing col_ptr
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(2, 2, [2], [0], [1.0])  # row out of range
    # inputs that pass the earlier checks and reach each later one
    with pytest.raises(DimensionMismatch, match="nondecreasing"):
        SparseMatrix(2, 3, [0, 2, 1, 3], [0, 1, 0], [1.0, 1.0, 1.0])
    for rows in ([2], [-1]):
        with pytest.raises(DimensionMismatch, match="row index out of range"):
            SparseMatrix(2, 1, [0, 1], rows, [1.0])
    with pytest.raises(DimensionMismatch, match="length ncols"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(DimensionMismatch, match="negative"):
        SparseMatrix(-1, 0, [0], [], [])
    with pytest.raises(DimensionMismatch, match="equal length"):
        SparseMatrix.from_coo(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(DimensionMismatch, match="2-d"):
        SparseMatrix.from_dense(np.ones(3))


coo_strategy = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.floats(-10, 10, allow_nan=False)),
                 min_size=0, max_size=25),
    )
)


@settings(max_examples=50, deadline=None)
@given(coo_strategy)
def test_from_coo_matches_dense_sum(data):
    n, triples = data
    dense = np.zeros((n, n), dtype=complex)
    rows = [t[0] for t in triples]
    cols = [t[1] for t in triples]
    vals = [t[2] for t in triples]
    for r, c, v in triples:
        dense[r, c] += v
    M = SparseMatrix.from_coo(n, n, rows, cols, vals)
    # duplicate summation order may differ from insertion order by an ulp
    np.testing.assert_allclose(M.to_dense(), dense, rtol=1e-13, atol=1e-13)
    assert not np.any(M.values == 0.0)


# -- spmv / spmv_adjoint ------------------------------------------------------

def test_spmv_identity():
    I3 = SparseMatrix.identity(3)
    np.testing.assert_array_equal(spmv(I3, [1, 2, 3]), [1, 2, 3])


def test_spmv_zero_matrix():
    Z = SparseMatrix.zeros(2, 2)
    np.testing.assert_array_equal(spmv(Z, [5, 7]), [0, 0])


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3, 0), (0, 3)])
def test_zero_matrix_products_are_zeros(shape):
    """A matrix with no entry, one with an empty dimension included, runs
    the general product path: zeros for a vector, a block and a block of
    zero columns."""
    n, m = shape
    Z = SparseMatrix.zeros(n, m)
    for k in ((), (2,), (0,)):
        y = spmv(Z, np.ones((m,) + k))
        assert y.shape == (n,) + k and not y.any()
        x = spmv_adjoint(Z, np.ones((n,) + k))
        assert x.shape == (m,) + k and not x.any()


def test_spmv_block_of_zero_columns(rng):
    M = random_sparse(rng, 7, 5, density=0.4)
    assert spmv(M, np.ones((5, 0))).shape == (7, 0)
    assert spmv_adjoint(M, np.ones((7, 0))).shape == (5, 0)


def test_spmv_small_dense_oracle():
    M = SparseMatrix.from_dense([[0, 1], [2, 0]])
    np.testing.assert_allclose(spmv(M, [3, 4]), [4, 6])


def test_spmv_dimension_error():
    M = SparseMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        spmv(M, [1, 2])
    with pytest.raises(DimensionMismatch):
        spmv_adjoint(M, [1, 2])
    with pytest.raises(DimensionMismatch):
        spmv(M, np.ones((3, 2, 1)))


def test_spmv_adjoint_examples():
    I3 = SparseMatrix.identity(3)
    np.testing.assert_array_equal(spmv_adjoint(I3, [1, 2, 3]), [1, 2, 3])
    M = SparseMatrix.from_dense([[0, 1], [2, 0]])
    np.testing.assert_allclose(spmv_adjoint(M, [3, 4]), [8, 3])
    C = SparseMatrix.from_coo(3, 3, [0], [0], [1 + 1j])
    out = spmv_adjoint(C, [1, 0, 0])
    np.testing.assert_allclose(out, [1 - 1j, 0, 0])


def test_spmv_matches_dense_oracle(rng):
    """Vectors against the dense product; a block, adjoint included, gives
    what its columns give one by one, bit for bit."""
    for _ in range(10):
        M = random_sparse(rng, 7, 5, density=0.4)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rel = np.linalg.norm(spmv(M, x) - M.to_dense() @ x)
        assert rel <= 1e-14 * max(1.0, np.linalg.norm(M.to_dense() @ x))
        X = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        np.testing.assert_array_equal(spmv(M, X), np.column_stack([spmv(M, c) for c in X.T]))
        np.testing.assert_allclose(spmv(M, X), M.to_dense() @ X, rtol=1e-14, atol=1e-14)
        Y = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        np.testing.assert_array_equal(spmv_adjoint(M, Y),
                                      np.column_stack([spmv_adjoint(M, c) for c in Y.T]))
        assert spmv(M, X[:, :1]).shape == (7, 1)


def test_spmv_bitwise_deterministic(rng):
    M = random_sparse(rng, 40, 40, density=0.2)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    y1 = spmv(M, x)
    y2 = spmv(M, x)
    assert y1.tobytes() == y2.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-120, max_magnitude=1e120,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=1e-120, max_magnitude=1e120,
                          allow_nan=False, allow_infinity=False))
def test_scalar_product_magnitude_bound(a, b):
    # normalized-range arithmetic only; gradual underflow is out of scope
    eps = np.finfo(float).eps
    assert abs(a * b) <= abs(a) * abs(b) * (1 + 4 * eps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adjoint_consistency(seed):
    rng = np.random.default_rng(seed)
    M = random_sparse(rng, 6, 4, density=0.5)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = np.vdot(y, spmv(M, x))
    rhs = np.vdot(spmv_adjoint(M, y), x)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-13 * scale


# -- norms ---------------------------------------------------------------------

def test_norm_estimate_examples():
    assert norm_estimate(SparseMatrix.identity(4)) == 1.0
    M = SparseMatrix.from_dense([[1, -3], [2, 4]])
    assert norm_estimate(M) == 7.0
    assert norm_estimate(SparseMatrix.zeros(3, 3)) == 0.0
    with pytest.raises(DimensionMismatch):
        norm_estimate(SparseMatrix.zeros(0, 3))


def test_two_norm_estimate_close_to_spectral(rng):
    for _ in range(5):
        M = random_sparse(rng, 12, 9, density=0.5)
        est = two_norm_estimate(M)
        true = np.linalg.norm(M.to_dense(), 2)
        assert 0.5 * true <= est <= true * (1 + 1e-8)


@pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
def test_two_norm_estimate_of_zero_matrix(shape):
    assert two_norm_estimate(SparseMatrix.zeros(*shape)) == 0.0


# -- helpers -------------------------------------------------------------------

def test_add_scaled(rng):
    A = random_sparse(rng, 4, 6, density=0.5)
    B = random_sparse(rng, 4, 6, density=0.5)
    np.testing.assert_allclose(add_scaled(A, -2.5j, B).to_dense(),
                               A.to_dense() - 2.5j * B.to_dense())
    with pytest.raises(DimensionMismatch):
        add_scaled(A, 1.0, SparseMatrix.identity(4))
