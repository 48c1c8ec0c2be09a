import numpy as np
import pytest

from singpencil import problems, rank_lu
from singpencil.arnoldi import arnoldi_run
from singpencil.bordered import Pencil, ShiftInvertOperator, assemble_bordered, regularize
from singpencil.dense import dense_rank
from singpencil.errors import DimensionMismatch, NonFiniteInput, StartVectorError
from singpencil.sparse import SparseMatrix, add_scaled

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
    for shape in [(0, 0), (3, 0), (0, 3)]:
        with pytest.raises(DimensionMismatch, match="empty"):
            Pencil(SparseMatrix.zeros(*shape), SparseMatrix.zeros(*shape))


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


def _shift_cases():
    toy = problems.gen_kronecker_toy().pencil
    for sigma in (0.0, 0.5, 2.0, 0.3 + 0.2j):
        yield pytest.param(toy, sigma, 1e-12, id=f"toy-sigma{sigma}")
    for perturbed in (False, True):
        p = problems.gen_tolerance_pencil(perturbed=perturbed).pencil
        for tau in (1e-16, 2.2e-15, 1e-10, 1e-5, 0.2):
            yield pytest.param(p, 0.0, tau, id=f"order10-{'perturbed' if perturbed else 'clean'}-tau{tau}")
    for seed in (1, 2):
        p = problems.gen_quadratic_companion(n=40, seed=seed).pencil
        yield pytest.param(p, 1.1, 1e-12, id=f"quadratic40-seed{seed}")
    yield pytest.param(problems.gen_rectangular(n=200).pencil, 0.9, 1e-12, id="rectangular200")


@pytest.mark.parametrize("p, sigma, tau", list(_shift_cases()))
def test_shifted_matrix_is_a_minus_sigma_b_bordered(p, sigma, tau):
    """The factored matrix, bordered A minus sigma times bordered B, is bit
    for bit the shifted pencil matrix assembled with the border."""
    bp = regularize(p, sigma, tau)
    expected = assemble_bordered(add_scaled(p.A, -bp.shift, p.B), bp.V, bp.W)
    got = bp.shifted_matrix
    assert got.shape == expected.shape
    for name in ("col_ptr", "row_idx", "values"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


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


def test_operator_leading_side():
    rect = problems.gen_rectangular(n=12)
    bp = regularize(rect.pencil, 0.9, 1e-12)
    assert ShiftInvertOperator(bp, "forward").leading == 10            # ncols
    assert ShiftInvertOperator(bp, "transposed_pencil").leading == 12  # nrows


def test_p_matrix_identity_block_seminorm():
    # the Krylov seminorm is diag(I, 0): border coordinates are ignored
    S = ShiftInvertOperator(toy_bp(), "forward")
    assert S.leading == 4
    kernel_vec = np.zeros(5, dtype=complex)
    kernel_vec[4] = 3.0
    with pytest.raises(StartVectorError):
        arnoldi_run(S, kernel_vec, 1)
    lead = np.array([1.0, 2.0, 2.0, 0.0, 7.0], dtype=complex)
    d = arnoldi_run(S, lead, 1)
    np.testing.assert_allclose(d.basis[:, 0], lead / 3.0, rtol=1e-15)


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
