import hashlib
from dataclasses import replace

import numpy as np
import pytest

from singpencil import problems, rank_lu
from singpencil.dense import dense_rank
from singpencil.errors import DimensionMismatch, FactorizationError, NonFiniteInput
from singpencil.sparse import SparseMatrix, add_scaled, spmv, spmv_adjoint

from conftest import dense_bordered, permutation_matrix, random_rank_matrix


def reconstruction_residual(F, M):
    lhs = permutation_matrix(F.perm) @ dense_bordered(M, F.V, F.W)
    rhs = (np.eye(F.n_final) + F.L.to_dense()) @ (np.diag(F.pivots) + F.U.to_dense())
    return np.abs(lhs - rhs).max()


def check_factorization(F, M):
    """All RankLU structural invariants in one place."""
    nf = F.n_final
    assert nf == F.nrows + F.border_rows
    assert F.border_cols == F.nrows - F.detected_rank
    assert F.detected_rank == F.ncols - F.border_rows
    # L strictly lower triangular with bounded entries
    Ld = F.L.to_dense()
    assert np.all(np.triu(Ld) == 0.0)
    assert np.abs(Ld).max() <= 1 + F.tau + 1e-12
    # U strictly upper triangular, pivots regular by construction
    assert np.all(np.tril(F.U.to_dense()) == 0.0)
    assert F.pivots.shape == (nf,)
    d = np.abs(F.pivots)
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
    assert F.L.nnz == 0 and F.U.nnz == 0
    np.testing.assert_array_equal(F.pivots, np.ones(5))


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
    with pytest.raises(FactorizationError, match="column 1"):
        replace(F, pivots=np.array([1.0, 0.0, 1.0], dtype=complex))


@pytest.mark.parametrize("name, row, col", [("L", 1, 1), ("U", 2, 1)])
def test_triangle_entry_on_the_wrong_side_rejected(name, row, col):
    """An L entry on the diagonal or a U entry below it would break the
    triangular solves, so the record refuses it."""
    F = rank_lu.factor(SparseMatrix.identity(3), 1e-12)
    T = SparseMatrix.from_coo(3, 3, [row], [col], [0.5])
    with pytest.raises(FactorizationError, match=f"{name} is not strictly triangular at column {col}"):
        replace(F, **{name: T})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_factor_rejects_non_finite_entry(bad):
    with pytest.raises(NonFiniteInput):
        rank_lu.factor(SparseMatrix.from_dense([[bad, 0.0], [0.0, 1.0]]), 1e-12)


# -- sparse and dense kernels ----------------------------------------------------

def _factor_with(monkeypatch, kernel, M, tau):
    """Factor with the fill switch off (``"sparse"``) or taken at column 0
    (``"dense"``)."""
    with monkeypatch.context() as mp:
        if kernel == "sparse":
            mp.setattr(rank_lu, "_DENSE_MAX_BYTES", 0)
        else:
            mp.setattr(rank_lu, "_DENSE_MIN_COL", 0)
            mp.setattr(rank_lu, "_DENSE_FILL", 0.0)
        F = rank_lu.factor(M, tau)
    assert F.path == kernel
    return F


def _kernel_cases():
    toy = problems.gen_kronecker_toy().pencil
    for sigma in (0.0, 0.5, 2.0):
        yield pytest.param(add_scaled(toy.A, -sigma, toy.B), 1e-12, id=f"toy-sigma{sigma}")
    for perturbed in (False, True):
        A = problems.gen_tolerance_pencil(perturbed=perturbed).pencil.A
        for tau in (1e-16, 2.2e-15, 1e-12, 1e-10, 1e-5, 0.2):
            yield pytest.param(A, tau, id=f"order10-{'perturbed' if perturbed else 'clean'}-tau{tau}")
    for n in (40, 250):
        q = problems.gen_quadratic_companion(n=n).pencil
        yield pytest.param(add_scaled(q.A, -1.1, q.B), 1e-12, id=f"quadratic{n}")
    r = problems.gen_rectangular(n=200).pencil  # banded and tall: the sparse path's workload
    yield pytest.param(add_scaled(r.A, -0.9, r.B), 1e-12, id="rectangular200")
    rng = np.random.default_rng(7)
    for nrows, ncols, rank in ((70, 70, 50), (90, 60, 40), (40, 200, 30)):
        yield pytest.param(random_rank_matrix(rng, nrows, ncols, rank), 1e-10,
                           id=f"random{nrows}x{ncols}-rank{rank}")


@pytest.mark.parametrize("M, tau", list(_kernel_cases()))
def test_dense_kernel_matches_sparse_kernel(monkeypatch, M, tau):
    """The dense blocked kernel takes the sparse kernel's pivots and
    breakdowns, so both give the same permutation, borders and rank, and
    L, U and pivots that agree up to rounding: L's entries within 1e-11
    (they are at most about 1), U's and the pivots within 1e-11 of the
    largest of them."""
    S = _factor_with(monkeypatch, "sparse", M, tau)
    D = _factor_with(monkeypatch, "dense", M, tau)
    np.testing.assert_array_equal(D.breakdown_steps, S.breakdown_steps)
    np.testing.assert_array_equal(D.perm, S.perm)
    for a, b in ((D.V, S.V), (D.W, S.W)):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.row_idx, b.row_idx)
        np.testing.assert_array_equal(a.values, b.values)
    assert D.detected_rank == S.detected_rank
    scale = max(np.abs(S.U.values).max(initial=0.0), np.abs(S.pivots).max())
    for a, b, atol in ((D.L, S.L, 1e-11), (D.U, S.U, 1e-11 * scale)):
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), rtol=0, atol=atol)
    np.testing.assert_allclose(D.pivots, S.pivots, rtol=0, atol=1e-11 * scale)
    for F in (S, D):
        check_factorization(F, M)


#: (sparse, dense) digests of :func:`_factor_digest` per kernel case, from
#: the earlier layout that kept L's unit diagonal in L and the pivots in U:
#: its U diagonal hashed as ``pivots`` and its off-diagonal entries as L
#: and U.  The dense digests of the four inputs wider than one panel
#: (``_PANEL`` columns) were recorded again when the panel's U rows became
#: one triangular solve.  Recorded on x86-64 with numpy 2 and OpenBLAS 0.3;
#: a BLAS that rounds the dense kernel's products differently changes the
#: dense ones.
_FACTOR_DIGESTS = {
    "toy-sigma0.0": ("c7b932fac6c31645", "c7b932fac6c31645"),
    "toy-sigma0.5": ("bc8f8bc1f6ee51c3", "bc8f8bc1f6ee51c3"),
    "toy-sigma2.0": ("1f894c326fe6e155", "1f894c326fe6e155"),
    "order10-clean-tau1e-16": ("170fcb777c9d7a87", "170fcb777c9d7a87"),
    "order10-clean-tau2.2e-15": ("170fcb777c9d7a87", "170fcb777c9d7a87"),
    "order10-clean-tau1e-12": ("170fcb777c9d7a87", "170fcb777c9d7a87"),
    "order10-clean-tau1e-10": ("170fcb777c9d7a87", "170fcb777c9d7a87"),
    "order10-clean-tau1e-05": ("170fcb777c9d7a87", "170fcb777c9d7a87"),
    "order10-clean-tau0.2": ("059ffa3f7c21746d", "059ffa3f7c21746d"),
    "order10-perturbed-tau1e-16": ("69a9aaa2f210d788", "69a9aaa2f210d788"),
    "order10-perturbed-tau2.2e-15": ("879ed9724b25a969", "879ed9724b25a969"),
    "order10-perturbed-tau1e-12": ("879ed9724b25a969", "879ed9724b25a969"),
    "order10-perturbed-tau1e-10": ("879ed9724b25a969", "879ed9724b25a969"),
    "order10-perturbed-tau1e-05": ("1daee6a72a5fdfd9", "1daee6a72a5fdfd9"),
    "order10-perturbed-tau0.2": ("4de5d1dbafec9be6", "4de5d1dbafec9be6"),
    "quadratic40": ("d216d96aa3c0e948", "99f2177093fd969d"),
    "quadratic250": ("a4dd46026042e384", "418d5c4f1501bd0d"),
    "rectangular200": ("18d6bd3bd1ab15f9", "18d6bd3bd1ab15f9"),
    "random70x70-rank50": ("86723fb3309c8480", "5c6d6966834a8deb"),
    "random90x60-rank40": ("91914d88dca43850", "91914d88dca43850"),
    "random40x200-rank30": ("5c95c1a561b79d02", "ecdacef28ac00794"),
}


def _factor_digest(F):
    """Short SHA-256 of the pivots and the (row, column, value) triplets of
    L and U, in storage order."""
    h = hashlib.sha256()
    for a in (F.pivots, *F.L.coo(), *F.U.coo()):
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("M, tau", list(_kernel_cases()))
def test_kernel_factor_values_pinned(monkeypatch, request, M, tau):
    """Keeping the pivots apart from L and U moved no value: both kernels
    give, bit for bit, the pivots and off-diagonal entries the earlier
    layout held (see :data:`_FACTOR_DIGESTS` for the dense kernel on
    inputs wider than a panel)."""
    got = tuple(_factor_digest(_factor_with(monkeypatch, kernel, M, tau))
                for kernel in ("sparse", "dense"))
    assert got == _FACTOR_DIGESTS[request.node.callspec.id]


def test_dense_kernel_grows_its_working_array(monkeypatch):
    """70 breakdowns in a 100 x 100 matrix outgrow the dense working
    array's first max(n, m) + 64 rows; the kernels still agree."""
    M = random_rank_matrix(np.random.default_rng(7), 100, 100, 30)
    D = _factor_with(monkeypatch, "dense", M, 1e-10)
    assert D.n_final > max(M.shape) + rank_lu._PANEL
    S = _factor_with(monkeypatch, "sparse", M, 1e-10)
    np.testing.assert_array_equal(D.perm, S.perm)
    check_factorization(D, M)


def test_fill_switch_picks_the_path(monkeypatch):
    """A factor that fills in restarts in the dense kernel; sparse and
    small factors stay sparse, and so does one over the memory cap."""
    q = problems.gen_quadratic_companion(n=40).pencil
    M = add_scaled(q.A, -1.1, q.B)
    assert rank_lu.factor(M, 1e-12).path == "dense"
    rect = problems.gen_rectangular(n=200).pencil
    toy = problems.gen_kronecker_toy().pencil
    sparse_cases = [add_scaled(rect.A, -0.9, rect.B), toy.A,
                    problems.gen_tolerance_pencil().pencil.A,
                    problems.gen_tolerance_pencil(perturbed=True).pencil.A,
                    SparseMatrix.identity(200)]
    for S in sparse_cases:
        assert rank_lu.factor(S, 1e-12).path == "sparse"
    n, m = M.shape
    need = (n + m + rank_lu._PANEL) * m * 16  # the largest the working array can grow
    monkeypatch.setattr(rank_lu, "_DENSE_MAX_BYTES", need - 1)
    assert rank_lu.factor(M, 1e-12).path == "sparse"
    monkeypatch.setattr(rank_lu, "_DENSE_MAX_BYTES", need)
    assert rank_lu.factor(M, 1e-12).path == "dense"


def test_path_is_validated():
    F = rank_lu.factor(SparseMatrix.identity(3), 1e-12)
    with pytest.raises(FactorizationError, match="path"):
        replace(F, path="blocked")


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


def _pencil_at_shift(gen, sigma):
    return add_scaled(gen.pencil.A, -sigma, gen.pencil.B)


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
def test_solves_take_a_block_of_zero_columns(monkeypatch, kernel):
    """Both solves run a block of zero columns through the general plan,
    the plan of an empty U (rectangular) included."""
    for gen, sigma in ((problems.gen_kronecker_toy(), 0.5), (problems.gen_rectangular(n=200), 0.9)):
        F = _factor_with(monkeypatch, kernel, _pencil_at_shift(gen, sigma), 1e-12)
        for solve in (rank_lu.solve, rank_lu.solve_adjoint):
            assert solve(F, np.zeros((F.n_final, 0))).shape == (F.n_final, 0)


def test_solve_round_trip_and_adjoint_identity(rng):
    """Random rank-deficient matrices, plus one factor from each kernel:
    quadratic n=40 (dense path) and rectangular n=200 (sparse path).  A
    block of right-hand sides gives what the columns give one by one, in
    the solves and in the products with M."""
    cases = [(random_rank_matrix(rng, 12, 12, 9), 1e-10, None) for _ in range(5)]
    cases += [(_pencil_at_shift(problems.gen_quadratic_companion(n=40, seed=1), 1.1),
               1e-12, "dense"),
              (_pencil_at_shift(problems.gen_rectangular(n=200), 0.9), 1e-12, "sparse")]
    for M, tau, path in cases:
        F = rank_lu.factor(M, tau)
        assert path is None or F.path == path
        Bd = dense_bordered(M, F.V, F.W)
        nf = F.n_final
        b = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        c = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
        x = rank_lu.solve(F, b)
        assert np.linalg.norm(Bd @ x - b) <= 1e-11 * max(1.0, np.linalg.norm(x)) * F.alpha
        lhs = np.vdot(c, x)
        rhs = np.vdot(rank_lu.solve_adjoint(F, c), b)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)
        # a block, with a zero column, against its columns one at a time
        Bk = rng.standard_normal((nf, 3)) + 1j * rng.standard_normal((nf, 3))
        Bk[:, 1] = 0.0
        X = rank_lu.solve(F, Bk)
        assert X.shape == Bk.shape
        cols = np.column_stack([rank_lu.solve(F, col) for col in Bk.T])
        np.testing.assert_allclose(X, cols, rtol=0, atol=1e-13 * np.abs(cols).max())
        Y = rank_lu.solve_adjoint(F, Bk)
        cols = np.column_stack([rank_lu.solve_adjoint(F, col) for col in Bk.T])
        np.testing.assert_allclose(Y, cols, rtol=0, atol=1e-13 * np.abs(cols).max())
        assert rank_lu.solve(F, Bk[:, :1]).shape == (nf, 1)
        for mv, rhs in ((spmv, Bk[:M.ncols]), (spmv_adjoint, Bk[:M.nrows])):
            np.testing.assert_array_equal(mv(M, rhs), np.column_stack([mv(M, c) for c in rhs.T]))


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
@pytest.mark.parametrize("M, tau", list(_kernel_cases()))
def test_solve_plan_matches_dense_solve(monkeypatch, M, tau, kernel):
    """The blocked plan against ``np.linalg.solve`` on the dense bordered
    matrix and its adjoint, for a vector and a 3-column block with a zero
    column: the round-trip test's backward-error bound, and a forward error
    within the bound times the condition number."""
    F = _factor_with(monkeypatch, kernel, M, tau)
    Bd = dense_bordered(M, F.V, F.W)
    nf = F.n_final
    rng = np.random.default_rng(5)
    Bk = rng.standard_normal((nf, 3)) + 1j * rng.standard_normal((nf, 3))
    Bk[:, 1] = 0.0
    for A, solve in ((Bd, rank_lu.solve), (Bd.conj().T, rank_lu.solve_adjoint)):
        cond = np.linalg.cond(A)
        for b in (Bk[:, 0], Bk):
            x = solve(F, b)
            assert x.shape == b.shape
            for xj, bj in zip(x.reshape(nf, -1).T, b.reshape(nf, -1).T):
                nx = np.linalg.norm(xj)
                assert np.linalg.norm(A @ xj - bj) <= 1e-11 * max(1.0, nx) * F.alpha
                assert np.linalg.norm(xj - np.linalg.solve(A, bj)) <= 1e-11 * cond * max(1.0, nx)
        assert np.all(x[:, 1] == 0.0)


def test_block_inverse_max():
    """The stability record is exactly 1 when no diagonal block needs an
    inverse, and otherwise the largest |entry| of the inverted diagonal
    blocks of I + L and I + U diag(pivots)^-1, small on the benchmark's
    two pencil families."""
    assert rank_lu.factor(SparseMatrix.identity(40), 1e-12).block_inverse_max == 1.0
    for M in (_pencil_at_shift(problems.gen_quadratic_companion(n=40), 1.1),
              _pencil_at_shift(problems.gen_rectangular(n=200), 0.9)):
        F = rank_lu.factor(M, 1e-12)
        nf, b = F.n_final, rank_lu._BLOCK
        lower = np.eye(nf) + F.L.to_dense()
        upper = np.eye(nf) + F.U.to_dense() / F.pivots
        expected = max(np.abs(np.linalg.inv(T[j:j + b, j:j + b])).max()
                       for T in (lower, upper) for j in range(0, nf, b))
        assert F.block_inverse_max == pytest.approx(expected, rel=1e-12)
        assert 1.0 <= F.block_inverse_max <= 10.0


def test_solve_dimension_error():
    F = rank_lu.factor(SparseMatrix.identity(3), 1e-12)
    with pytest.raises(DimensionMismatch):
        rank_lu.solve(F, [1, 2])
    with pytest.raises(DimensionMismatch):
        rank_lu.solve_adjoint(F, [1, 2, 3, 4])


def test_reconstruction_sampled_columns_large_sparse():
    """Column-sampled reconstruction check at a scale that cannot be
    densified: P @ bordered column == (I + L) @ (U column + pivot)."""
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
        ucol[c] = F.pivots[c]
        rhs = ucol + spmv(F.L, ucol)
        assert np.abs(permuted - rhs).max() <= 1e-12 * F.alpha
