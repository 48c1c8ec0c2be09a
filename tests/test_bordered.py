import numpy as np
import pytest

from singpencil import problems, rank_lu
from singpencil.bordered import (Pencil, ShiftInvertOperator, assemble_bordered,
                                 p_matrix, regularize)
from singpencil.dense import dense_rank
from singpencil.errors import DimensionMismatch, NonFiniteInput, SingPencilError
from singpencil.sparse import SparseMatrix, add_scaled, spmv

from conftest import random_rank_matrix


TOY_BORDERED_AT_ZERO = np.array([
    [-1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0],
], dtype=complex)


def toy_bp(sigma=0.0, tau=1e-12):
    return regularize(problems.gen_kronecker_toy().pencil, sigma, tau)


def test_pencil_validation():
    with pytest.raises(DimensionMismatch):
        Pencil(SparseMatrix.identity(3), SparseMatrix.identity(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("which", ["A", "B"])
def test_pencil_rejects_non_finite(bad, which):
    M = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, bad])
    mats = {"A": SparseMatrix.identity(2), "B": SparseMatrix.identity(2), which: M}
    with pytest.raises(NonFiniteInput, match=f"matrix {which} "):
        Pencil(mats["A"], mats["B"])


def test_regularize_toy_reproduces_published_bordered_pencil():
    bp = toy_bp()
    assert bp.normal_rank == 3
    np.testing.assert_array_equal(bp.shifted_matrix.to_dense(), TOY_BORDERED_AT_ZERO)
    # bordered B is B padded by zeros
    Bd = bp.b_matrix.to_dense()
    np.testing.assert_array_equal(Bd[:4, :4],
                                  problems.gen_kronecker_toy().pencil.B.to_dense())
    assert np.all(Bd[4:, :] == 0) and np.all(Bd[:, 4:] == 0)


def test_regularize_regular_pencil_empty_border():
    p = Pencil(SparseMatrix.from_dense(np.diag([1.0, 2, 3, 4, 5])),
               SparseMatrix.identity(5))
    bp = regularize(p, 0.5, 1e-12)
    assert bp.normal_rank == 5
    assert bp.V.ncols == 0 and bp.W.ncols == 0
    assert bp.size == 5
    np.testing.assert_allclose(bp.shifted_matrix.to_dense(),
                               np.diag([0.5, 1.5, 2.5, 3.5, 4.5]))


def test_regularize_same_rank_at_two_shifts(rng):
    tol = problems.gen_tolerance_pencil()
    k1 = regularize(tol.pencil, 0.31 + 0.17j, 1e-10).normal_rank
    k2 = regularize(tol.pencil, -1.23, 1e-10).normal_rank
    assert k1 == k2 == 8


# -- shift-and-invert operator ---------------------------------------------------

def test_apply_shift_invert_annihilates_b_nullspace_units():
    bp = toy_bp()
    S = ShiftInvertOperator(bp, "forward")
    Bd = bp.b_matrix.to_dense()
    for j in range(bp.size):
        if np.all(Bd[:, j] == 0):
            out = S.apply(np.eye(bp.size)[j])
            assert np.linalg.norm(out) == 0.0


def test_apply_shift_invert_toy_eigenvector():
    bp = toy_bp()
    S = ShiftInvertOperator(bp, "forward")
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    np.testing.assert_allclose(S.apply(e1), e1, atol=1e-14)


def test_transposed_pencil_operator_matches_dense(rng):
    bp = toy_bp()
    St = ShiftInvertOperator(bp, "transposed_pencil")
    Md = bp.shifted_matrix.to_dense()
    Bd = bp.b_matrix.to_dense()
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    expected = np.linalg.solve(Md.conj().T, Bd.conj().T @ v)
    np.testing.assert_allclose(St.apply(v), expected, atol=1e-12)


def test_operator_validation():
    bp = toy_bp()
    with pytest.raises(ValueError):
        ShiftInvertOperator(bp, "sideways")
    with pytest.raises(DimensionMismatch):
        ShiftInvertOperator(bp, "forward").apply(np.ones(3))


# -- semi-inner products ----------------------------------------------------------

def test_p_matrix_identity_block_seminorm():
    bp = toy_bp()
    P = p_matrix(bp, "identity_block")
    kernel_vec = np.zeros(5, dtype=complex)
    kernel_vec[4] = 3.0
    assert P.norm(kernel_vec) == 0.0
    lead = np.array([1.0, 2.0, 2.0, 0.0, 7.0], dtype=complex)
    assert abs(P.norm(lead) - 3.0) <= 1e-15


def test_p_matrix_b_block_with_identity_is_euclidean(rng):
    p = Pencil(SparseMatrix.from_dense(np.diag([1.0, 2, 3])), SparseMatrix.identity(3))
    bp = regularize(p, 0.25, 1e-12)
    P = p_matrix(bp, "b_block")
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert abs(P.norm(v) - np.linalg.norm(v)) <= 1e-14


def test_p_matrix_b_block_rejects_bad_b():
    # non-Hermitian B
    Bn = SparseMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
    p = Pencil(SparseMatrix.identity(2), Bn)
    bp = regularize(p, 5.0, 1e-12)
    with pytest.raises(SingPencilError):
        p_matrix(bp, "b_block")
    # indefinite B
    p2 = Pencil(SparseMatrix.identity(2), SparseMatrix.from_dense(np.diag([1.0, -1.0])))
    bp2 = regularize(p2, 5.0, 1e-12)
    with pytest.raises(SingPencilError):
        p_matrix(bp2, "b_block")
    with pytest.raises(ValueError):
        p_matrix(bp2, "banana")


def test_p_matrix_adjoint_side_leading():
    rect = problems.gen_rectangular(n=12)
    bp = regularize(rect.pencil, 0.9, 1e-12)
    assert p_matrix(bp, "identity_block").leading == 10          # ncols
    assert p_matrix(bp, "identity_block", adjoint_side=True).leading == 12  # nrows


# -- rectangular paths --------------------------------------------------------------

def test_rectangular_tall_full_rank_border_count():
    A = SparseMatrix.from_dense(np.array([[1.0, 0], [0, 1], [0, 0]]))
    B = SparseMatrix.from_dense(np.array([[0.0, 0], [0, 0], [0.3, 0.7]]))
    bp = regularize(Pencil(A, B), 0.31, 1e-12)
    assert bp.V.ncols == 0 and bp.W.ncols == 1
    assert bp.size == 3


def test_rectangular_rank_deficient_5x3(rng):
    M = random_rank_matrix(rng, 5, 3, 2)
    zero = SparseMatrix.zeros(5, 3)
    p = Pencil(M, zero)
    sigma = 0.37 + 0.21j
    bp = regularize(p, sigma, 1e-10)
    shifted = add_scaled(p.A, -sigma, p.B)
    assert bp.normal_rank == dense_rank(shifted.to_dense(), 1e-10) == 2
    assert bp.V.ncols == 1 and bp.W.ncols == 3
    # bordered shifted matrix must be nonsingular
    assert np.linalg.cond(bp.shifted_matrix.to_dense()) < 1e12


def test_rectangular_small_section64_structure():
    rect = problems.gen_rectangular(n=20)
    bp = regularize(rect.pencil, 0.9, 1e-12)
    assert bp.V.ncols == 0
    assert bp.W.ncols == 2
    assert bp.normal_rank == 18


def test_wide_pencil_factored_as_given(rng):
    M = random_rank_matrix(rng, 3, 5, 2)
    p = Pencil(M, SparseMatrix.zeros(3, 5))
    bp = regularize(p, 0.4, 1e-10)
    assert bp.normal_rank == 2
    assert bp.V.ncols == 5 - 2 and bp.W.ncols == 3 - 2
    # both solves with the one factorization match dense solves
    Md = bp.shifted_matrix.to_dense()
    b = rng.standard_normal(bp.size) + 1j * rng.standard_normal(bp.size)
    np.testing.assert_allclose(rank_lu.solve(bp.lu, b), np.linalg.solve(Md, b),
                               atol=1e-9)
    np.testing.assert_allclose(rank_lu.solve_adjoint(bp.lu, b),
                               np.linalg.solve(Md.conj().T, b), atol=1e-9)
    S = ShiftInvertOperator(bp, "forward")
    v = rng.standard_normal(bp.size) + 1j * rng.standard_normal(bp.size)
    np.testing.assert_allclose(S.apply(v),
                               np.linalg.solve(Md, bp.b_matrix.to_dense() @ v),
                               atol=1e-9)


def test_assemble_bordered_validation():
    M = SparseMatrix.identity(3)
    V = SparseMatrix.zeros(2, 1)
    W = SparseMatrix.zeros(3, 1)
    with pytest.raises(DimensionMismatch):
        assemble_bordered(M, V, W)
