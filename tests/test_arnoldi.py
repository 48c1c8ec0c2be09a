import numpy as np
import pytest

from singpencil import problems
from singpencil.arnoldi import (arnoldi_run, implicit_restart_infinity, purify,
                                ritz_pairs, start_vector)
from singpencil.bordered import Pencil, ShiftInvertOperator, regularize
from singpencil.dense import hessenberg_eig
from singpencil.errors import StartVectorError
from singpencil.sparse import SparseMatrix


class DiagOperator:
    """Test operator: S = diag(entries), seen whole by the seminorm."""

    def __init__(self, entries):
        self.d = np.asarray(entries, dtype=complex)

    @property
    def size(self):
        return self.d.size

    @property
    def leading(self):
        return self.d.size

    def apply(self, v):
        return self.d * v


def toy_setup(sigma=0.0):
    bp = regularize(problems.gen_kronecker_toy().pencil, sigma, 1e-12)
    return bp, ShiftInvertOperator(bp, "forward")


def relation_residual(d, S):
    """Max seminorm residual of S V_l - V_{l+1} Hbar, column by column."""
    worst = 0.0
    for j in range(d.steps):
        r = S.apply(d.basis[:, j]) - d.basis @ d.hess[:, j]
        worst = max(worst, np.linalg.norm(r[:d.leading]))
    return worst


def seminorm_gram(d):
    lead = d.basis[:d.leading]
    return lead.conj().T @ lead


# -- arnoldi_run ---------------------------------------------------------------

def test_scalar_operator_immediate_breakdown():
    # A = 2I, B = I, sigma = 0 gives S = I/2 on an empty-border pencil
    p = Pencil(SparseMatrix.identity(3, 2.0), SparseMatrix.identity(3))
    bp = regularize(p, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    d = arnoldi_run(S, np.array([1.0, 2.0, -1.0]), 3)
    assert d.exact and d.breakdown == "lucky"
    assert d.steps == 1
    np.testing.assert_allclose(d.hess, [[0.5]], atol=1e-15)


def test_diag_operator_matches_hand_gram_schmidt():
    S = DiagOperator([1.0, 0.5, 1.0 / 3.0])
    v0 = np.ones(3) / np.sqrt(3)
    d = arnoldi_run(S, v0, 2)
    # explicit classical Gram-Schmidt on the Krylov sequence
    V = np.zeros((3, 3), dtype=complex)
    H = np.zeros((3, 2), dtype=complex)
    V[:, 0] = v0 / np.linalg.norm(v0)
    for i in range(2):
        w = S.d * V[:, i]
        for j in range(i + 1):
            H[j, i] = np.vdot(V[:, j], w)
            w = w - H[j, i] * V[:, j]
        H[i + 1, i] = np.linalg.norm(w)
        V[:, i + 1] = w / H[i + 1, i]
    np.testing.assert_allclose(d.hess, H, atol=1e-14)
    np.testing.assert_allclose(np.abs(d.basis), np.abs(V), atol=1e-14)


def test_toy_bordered_relation_residual(rng):
    bp, S = toy_setup()
    v0 = start_vector(S, 7)
    d = arnoldi_run(S, v0, 4)
    assert relation_residual(d, S) <= 1e-10 * max(1.0, np.abs(d.hess).max())


def test_p_orthonormality_and_real_subdiagonals(rng):
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    d = arnoldi_run(S, start_vector(S, 11), 6)
    cols = d.basis.shape[1]
    assert np.abs(seminorm_gram(d) - np.eye(cols)).max() <= 1e-10
    sub = np.diag(d.hess, -1)
    assert np.all(sub.imag == 0.0) and np.all(sub.real >= 0.0)


def test_start_vector_in_kernel_rejected():
    bp, S = toy_setup()
    v0 = np.zeros(5, dtype=complex)
    v0[4] = 1.0  # pure border coordinate: seminorm kernel
    with pytest.raises(StartVectorError):
        arnoldi_run(S, v0, 2)
    with pytest.raises(ValueError):
        arnoldi_run(S, np.ones(5), 0)


# -- implicit restart -------------------------------------------------------------

def test_restart_on_invariant_vector_keeps_ritz_value():
    S = DiagOperator([0.5, 0.25])
    v0 = np.array([1.0, 0.0])
    d = arnoldi_run(S, v0, 3)
    assert d.exact and d.steps == 1
    r = implicit_restart_infinity(d)
    assert r.steps == 1
    assert abs(r.hess[0, 0] - 0.5) <= 1e-12
    assert abs(np.abs(np.vdot(r.basis[:, 0], d.basis[:, 0])) - 1.0) <= 1e-12


def test_restart_shrinks_by_one_and_preserves_relation(rng):
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    d = arnoldi_run(S, start_vector(S, 5), 6)
    assert not d.exact
    r = implicit_restart_infinity(d)
    assert r.steps == d.steps - 1
    assert r.basis.shape[1] == d.basis.shape[1] - 1
    assert relation_residual(r, S) <= 1e-9 * max(1.0, np.abs(r.hess).max())
    # seminorm orthonormality survives the restart
    assert r.leading == d.leading
    assert np.abs(seminorm_gram(r) - np.eye(r.basis.shape[1])).max() <= 1e-10


def test_exact_restart_moves_nullspace_direction_last():
    """On a broken-down run whose invariant space holds a nullspace
    direction of S, the step keeps the dimension, moves that direction into
    the last basis column and zeroes the last row of hess; the leading
    block then carries the nonzero eigenvalues exactly."""
    S = DiagOperator([0.5, 0.25, 0.0])
    d = arnoldi_run(S, np.ones(3), 5)
    assert d.exact and d.breakdown == "lucky" and d.steps == 3
    before = np.sort(np.linalg.eigvals(d.hess[:2, :2]).real)
    assert np.abs(before - [0.25, 0.5]).max() > 1e-2  # the nullspace still mixes in
    r = implicit_restart_infinity(d)
    assert r.exact and r.breakdown == "lucky" and r.steps == 3
    assert np.abs(r.hess[2]).max() <= 1e-15
    np.testing.assert_allclose(np.abs(r.basis[:, 2]), [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(r.hess[:2, :2]).real),
                               [0.25, 0.5], atol=1e-14)


def test_restart_filters_space_by_operator(rng):
    """The restarted space is S times the previous space: every new basis
    column must lie in the span of S applied to the old basis."""
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    d = arnoldi_run(S, start_vector(S, 3), 6)
    r = implicit_restart_infinity(d)
    SV = np.column_stack([S.apply(d.basis[:, j]) for j in range(d.basis.shape[1])])
    Q, _ = np.linalg.qr(SV)
    proj = Q @ (Q.conj().T @ r.basis)
    assert np.abs(proj - r.basis).max() <= 1e-9


def test_restart_purges_coordinate_nullspace_semisimple():
    """For a semisimple nullspace (diagonal pencil with singular B) one
    restart leaves no components on the coordinate nullspace directions."""
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    B = SparseMatrix.from_dense(np.diag([1.0, 1.0, 1.0, 0.0]))
    bp = regularize(Pencil(A, B), 0.2, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)  # raw: e4 content
    d = arnoldi_run(S, v0, 3)
    r = implicit_restart_infinity(d)
    assert np.abs(r.basis[3, :]).max() <= 1e-10


def test_restart_requires_two_steps():
    S = DiagOperator([1.0, 0.5, 0.25])
    rng = np.random.default_rng(0)
    d = arnoldi_run(S, rng.standard_normal(3) + 0j, 1)
    if not d.exact:
        with pytest.raises(ValueError):
            implicit_restart_infinity(d)


# -- ritz pairs ---------------------------------------------------------------------

def test_ritz_single_breakdown_zero_residual():
    S = DiagOperator([0.5, 0.25])
    d = arnoldi_run(S, np.array([1.0, 0.0]), 2)
    theta, Z, residual = ritz_pairs(d)
    assert len(theta) == 1 and Z.shape == (1, 1)
    assert theta[0] == pytest.approx(0.5)
    assert residual[0] == 0.0


def test_ritz_full_run_recovers_diag_spectrum(rng):
    entries = np.array([1.0, 0.5, 1.0 / 3.0, 0.25])
    S = DiagOperator(entries)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    d = arnoldi_run(S, v0, 4)
    theta, _, residual = ritz_pairs(d)
    thetas = sorted(theta.real, reverse=True)
    np.testing.assert_allclose(thetas, sorted(entries, reverse=True), atol=1e-12)
    # an exact run ties every residual at zero, so the order stays hessenberg_eig's
    assert d.exact and not residual.any()
    np.testing.assert_array_equal(theta, hessenberg_eig(d.square_hess)[0])


def test_ritz_sorted_by_residual(rng):
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    d = arnoldi_run(S, start_vector(S, 9), 5)
    theta, Z, res = ritz_pairs(d)
    assert list(res) == sorted(res)
    # each residual is the recurrence estimate of its own Ritz vector
    np.testing.assert_array_equal(res, np.abs(d.hess[d.steps, d.steps - 1].real * Z[-1]))


def test_ritz_residual_after_restart():
    """On a restarted decomposition the residual is |h| |z_last|, which is
    the seminorm of S x - theta x for the Ritz vector x = V z."""
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    S = ShiftInvertOperator(bp, "forward")
    r = implicit_restart_infinity(arnoldi_run(S, start_vector(S, 5), 6))
    theta, Z, res = ritz_pairs(r)
    np.testing.assert_allclose(res, np.abs(r.hess[r.steps, r.steps - 1]) * np.abs(Z[-1]),
                               rtol=1e-15)
    X = r.basis[:, :r.steps] @ Z
    explicit = np.linalg.norm((S.apply(X) - theta * X)[:r.leading], axis=0)
    np.testing.assert_allclose(res, explicit, rtol=0, atol=1e-12)


# -- the compressed-operator equivalence ---------------------------------------------

def dense_euclid_arnoldi(Amat, x0, steps):
    n = Amat.shape[0]
    V = np.zeros((n, steps + 1), dtype=complex)
    H = np.zeros((steps + 1, steps), dtype=complex)
    V[:, 0] = x0 / np.linalg.norm(x0)
    for i in range(steps):
        w = Amat @ V[:, i]
        for j in range(i + 1):
            H[j, i] = np.vdot(V[:, j], w)
            w -= H[j, i] * V[:, j]
        H[i + 1, i] = np.linalg.norm(w)
        if H[i + 1, i] <= 1e-13 * np.linalg.norm(Amat @ V[:, i]):
            return V[:, :i + 1], H[:i + 1, :i + 1], True
        V[:, i + 1] = w / H[i + 1, i]
    return V, H, False


def test_hessenberg_equals_compressed_operator_arnoldi(rng):
    """With the leading-block seminorm, the Hessenberg matrix equals the one
    from plain Euclidean Arnoldi on the compressed operator."""
    bp, S = toy_setup()
    n = 4
    Md = bp.shifted_matrix.to_dense()
    Bd = bp.base.B.to_dense()
    compressed = np.linalg.solve(Md, np.vstack([Bd, np.zeros((1, 4))]))[:n, :]
    v0 = start_vector(S, 123)
    d = arnoldi_run(S, v0, 4)
    x0 = v0[:n]
    _, Hd, _ = dense_euclid_arnoldi(compressed, x0, 4)
    k = min(d.hess.shape[0], Hd.shape[0]), min(d.hess.shape[1], Hd.shape[1])
    np.testing.assert_allclose(d.hess[:k[0], :k[1]], Hd[:k[0], :k[1]], atol=1e-10)


def test_border_infinite_copies_not_seen():
    """The full bordered operator has one more zero eigenvalue than the
    compressed operator; the seminorm iteration never surfaces it."""
    bp, S = toy_setup()
    Md = bp.shifted_matrix.to_dense()
    Bhd = bp.b_matrix.to_dense()
    full_zeros = np.sum(np.abs(np.linalg.eigvals(np.linalg.solve(Md, Bhd))) <= 1e-12)
    compressed = np.linalg.solve(Md, Bhd)[:4, :4]
    comp_zeros = np.sum(np.abs(np.linalg.eigvals(compressed)) <= 1e-12)
    assert full_zeros == comp_zeros + 1  # the border-induced copy
    d = arnoldi_run(S, start_vector(S, 17), 5)
    thetas = ritz_pairs(d)[0]
    assert np.sum(np.abs(thetas) <= 1e-12) <= comp_zeros
    assert np.any(np.abs(thetas - 1.0) <= 1e-10)  # the true eigenvalue
    assert len(thetas) < bp.size  # the full spectrum is never materialized


# -- purification ----------------------------------------------------------------------

def test_purify_fixes_eigenvector():
    bp, S = toy_setup()
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    out, null = purify(S, e1)
    assert out.shape == e1.shape and not null
    assert 1.0 - abs(np.vdot(out, e1)) <= 1e-12


def test_purify_removes_constructed_contamination():
    bp, S = toy_setup()
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    null = np.zeros(5, dtype=complex)
    null[2] = 0.4   # zero column of B
    null[4] = -0.3  # border coordinate
    out, _ = purify(S, e1 + null)
    assert 1.0 - abs(np.vdot(out, e1)) <= 1e-10
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_purify_pure_nullspace_mask():
    """A column entirely in the nullspace comes back unchanged and masked;
    in a block it leaves the other columns' purification alone."""
    bp, S = toy_setup()
    null = np.zeros(5, dtype=complex)
    null[4] = 1.0
    out, mask = purify(S, null)
    assert mask
    np.testing.assert_array_equal(out, null)
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    X = np.column_stack([e1, null])
    Y, mask = purify(S, X)
    np.testing.assert_array_equal(mask, [False, True])
    np.testing.assert_array_equal(Y[:, 1], null)
    np.testing.assert_allclose(Y[:, 0], purify(S, e1)[0], rtol=0, atol=1e-15)
    assert 1.0 - abs(np.vdot(Y[:, 0], e1)) <= 1e-12
    np.testing.assert_array_equal(X, np.column_stack([e1, null]))  # input not written


@pytest.mark.parametrize("direction", ["forward", "transposed_pencil"])
def test_purify_block_of_zero_columns(direction):
    bp, _ = toy_setup()
    Y, null = purify(ShiftInvertOperator(bp, direction), np.zeros((bp.size, 0), dtype=complex))
    assert Y.shape == (bp.size, 0) and null.shape == (0,)
