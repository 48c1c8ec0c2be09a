from dataclasses import replace

import numpy as np
import pytest

from singpencil import problems, rank_lu
from singpencil.dense import dense_rank
from singpencil.errors import DimensionMismatch, FactorizationError
from singpencil.sparse import SparseMatrix, add_scaled

from conftest import dense_bordered, permutation_matrix, random_rank_matrix


def reconstruction_residual(F, M):
    lhs = permutation_matrix(F.perm) @ dense_bordered(M, F.V, F.W)
    rhs = F.L.to_dense() @ F.U.to_dense()
    return np.abs(lhs - rhs).max()


def check_factorization(F, M):
    """All RankLU structural invariants in one place."""
    nf = F.n_final
    assert nf == F.nrows + F.border_rows
    assert F.border_cols == F.nrows - F.detected_rank
    assert F.detected_rank == F.ncols - F.border_rows
    # L unit lower triangular with bounded entries
    Ld = F.L.to_dense()
    np.testing.assert_array_equal(np.diag(Ld), np.ones(nf))
    assert np.all(np.triu(Ld, 1) == 0.0)
    assert np.abs(Ld).max() <= 1 + F.tau + 1e-12
    # U upper triangular, diagonal regular by construction
    Ud = F.U.to_dense()
    assert np.all(np.tril(Ud, -1) == 0.0)
    d = np.abs(np.diag(Ud))
    assert np.all((d >= F.tau * F.alpha - 1e-300) | np.isclose(d, F.alpha))
    # borders: one entry of value alpha per column
    for B, rows in ((F.V, F.breakdown_steps), (F.W, None)):
        for j in range(B.ncols):
            r, v = B.column(j)
            assert r.size == 1 and v[0] == F.alpha
        if rows is not None:
            np.testing.assert_array_equal(B.row_idx, rows)
    # permutation-structure property: appended rows are always pivoted into
    # the leading block, so late positions only hold original rows
    assert np.all(np.flatnonzero(F.perm >= F.nrows) < F.ncols)
    # reconstruction
    assert reconstruction_residual(F, M) <= 1e-12 * F.alpha


def test_factor_identity():
    F = rank_lu.factor(SparseMatrix.identity(5), 1e-12)
    assert F.border_rows == 0 and F.border_cols == 0
    assert F.detected_rank == 5
    np.testing.assert_array_equal(F.L.to_dense(), np.eye(5))
    np.testing.assert_array_equal(F.U.to_dense(), np.eye(5))


def test_factor_kronecker_toy_matches_published_border():
    toy = problems.gen_kronecker_toy()
    F = rank_lu.factor(toy.pencil.A, 1e-12)
    assert F.detected_rank == 3
    assert F.border_rows == 1 and F.border_cols == 1
    np.testing.assert_array_equal(F.V.to_dense().real.ravel(), [0, 1, 0, 0])
    np.testing.assert_array_equal(F.W.to_dense().real.ravel(), [0, 0, 1, 0])
    check_factorization(F, toy.pencil.A)


def test_factor_order10_borders():
    tol = problems.gen_tolerance_pencil()
    A = tol.pencil.A
    F = rank_lu.factor(A, 2.2e-15)
    assert F.detected_rank == 8
    assert F.border_rows == 2 and F.border_cols == 2
    check_factorization(F, A)
    F2 = rank_lu.factor(A, 0.2)
    assert F2.border_rows == 3
    check_factorization(F2, A)


def test_factor_known_rank_20x20(rng):
    M = random_rank_matrix(rng, 20, 20, 17)
    F = rank_lu.factor(M, 1e-10)
    assert F.detected_rank == 17 == dense_rank(M.to_dense(), 1e-10)
    check_factorization(F, M)


def test_factor_rank_battery_random_pencils(rng):
    """Rank detection agrees with the dense full-pivot oracle on seeded
    known-rank pencil values, square and tall."""
    for trial in range(60):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(4, n + 1))
        k = int(rng.integers(1, m + 1))
        M = random_rank_matrix(rng, n, m, k)
        F = rank_lu.factor(M, 1e-10)
        assert F.detected_rank == dense_rank(M.to_dense(), 1e-10) == k
        assert F.V.ncols == m - k and F.W.ncols == n - k
        if trial % 7 == 0:
            check_factorization(F, M)


def test_tau_monotonicity_on_order10():
    A = problems.gen_tolerance_pencil().pencil.A
    taus = [1e-16, 2.2e-15, 1e-10, 1e-5, 0.2]
    sizes = [rank_lu.factor(A, t).border_rows for t in taus]
    assert sizes == sorted(sizes)


def test_breakdown_pivot_diagnostics():
    A = problems.gen_tolerance_pencil().pencil.A
    F = rank_lu.factor(A, 1e-5)
    assert F.breakdown_pivots.shape == F.breakdown_steps.shape
    assert np.all(F.breakdown_pivots < 1e-5 * F.alpha)


def test_factor_errors():
    with pytest.raises(FactorizationError):
        rank_lu.factor(SparseMatrix.identity(3), 1.0)
    with pytest.raises(FactorizationError):
        rank_lu.factor(SparseMatrix.identity(3), -0.1)
    with pytest.raises(FactorizationError):
        rank_lu.factor(SparseMatrix.zeros(3, 3), 1e-12)
    with pytest.raises(FactorizationError):
        rank_lu.factor(SparseMatrix.zeros(0, 0), 1e-12)


@pytest.mark.parametrize("n, m, k", [(3, 5, 2), (6, 9, 6), (10, 14, 4)])
def test_factor_wide_as_given(rng, n, m, k):
    """Wide input is factored directly: surplus columns break down and
    append rows until the bordered matrix is square."""
    M = random_rank_matrix(rng, n, m, k)
    F = rank_lu.factor(M, 1e-10)
    assert F.detected_rank == k
    assert F.V.ncols == m - k and F.W.ncols == n - k
    check_factorization(F, M)


def test_zero_u_diagonal_rejected():
    F = rank_lu.factor(SparseMatrix.identity(3), 1e-12)
    U = SparseMatrix.from_dense(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(FactorizationError, match="column 1"):
        replace(F, U=U)


# -- solve / solve_adjoint ------------------------------------------------------

def test_solve_identity():
    F = rank_lu.factor(SparseMatrix.identity(4), 1e-12)
    np.testing.assert_allclose(rank_lu.solve(F, [1, 2, 3, 4]), [1, 2, 3, 4])
    np.testing.assert_allclose(rank_lu.solve_adjoint(F, [1, 2, 3, 4]), [1, 2, 3, 4])


def test_solve_toy_vs_dense_oracle():
    toy = problems.gen_kronecker_toy()
    F = rank_lu.factor(toy.pencil.A, 1e-12)
    Bd = dense_bordered(toy.pencil.A, F.V, F.W)
    b = np.zeros(5, dtype=complex)
    b[0] = 1.0
    x = rank_lu.solve(F, b)
    assert np.linalg.norm(Bd @ x - b) <= 1e-12
    np.testing.assert_allclose(x, np.linalg.solve(Bd, b), atol=1e-12)
    c = np.arange(1.0, 6.0) + 0j
    y = rank_lu.solve_adjoint(F, c)
    assert np.linalg.norm(Bd.conj().T @ y - c) <= 1e-12
    np.testing.assert_allclose(y, np.linalg.solve(Bd.conj().T, c), atol=1e-12)


def test_solve_round_trip_and_adjoint_identity(rng):
    for _ in range(5):
        M = random_rank_matrix(rng, 12, 12, 9)
        F = rank_lu.factor(M, 1e-10)
        Bd = dense_bordered(M, F.V, F.W)
        nf = F.n_final
        b = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        c = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        x = rank_lu.solve(F, b)
        assert np.linalg.norm(Bd @ x - b) <= 1e-11 * max(1.0, np.linalg.norm(x)) * F.alpha
        lhs = np.vdot(c, x)
        rhs = np.vdot(rank_lu.solve_adjoint(F, c), b)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_solve_dimension_error():
    F = rank_lu.factor(SparseMatrix.identity(3), 1e-12)
    with pytest.raises(DimensionMismatch):
        rank_lu.solve(F, [1, 2])
    with pytest.raises(DimensionMismatch):
        rank_lu.solve_adjoint(F, [1, 2, 3, 4])


def test_reconstruction_sampled_columns_large_sparse():
    """Column-sampled reconstruction check at a scale that cannot be
    densified: P @ bordered column == L @ (U column)."""
    from singpencil.sparse import add_scaled, spmv
    rect = problems.gen_rectangular(n=2000)
    M = add_scaled(rect.pencil.A, -0.9, rect.pencil.B)
    F = rank_lu.factor(M, 1e-12)
    n, m = M.shape
    nf = F.n_final
    rng = np.random.default_rng(3)
    for c in sorted(rng.choice(nf, size=25, replace=False).tolist()):
        col = np.zeros(nf, dtype=complex)
        if c < m:
            rows, vals = M.column(c)
            col[rows] = vals
            for j in range(F.V.ncols):  # V* block rows
                r, v = F.V.column(j)
                if r.size and r[0] == c:
                    col[n + j] = np.conj(v[0])
        else:
            rows, vals = F.W.column(c - m)
            col[rows] = vals
        permuted = col[F.perm]
        urows, uvals = F.U.column(c)
        ucol = np.zeros(nf, dtype=complex)
        ucol[urows] = uvals
        rhs = spmv(F.L, ucol)
        assert np.abs(permuted - rhs).max() <= 1e-12 * F.alpha
