import numpy as np
import pytest

from singpencil.dense import (dense_rank, hessenberg_eig, qr,
                              small_generalized_eig)
from singpencil.errors import ConvergenceError, DimensionMismatch
from singpencil import problems


# -- independent root-finding oracles -----------------------------------------

def char_poly_coeffs(M):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    trace recursion (independent of any eigenvalue routine)."""
    n = M.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(M @ Mk) / k
    return coeffs  # lambda^n + c1 lambda^(n-1) + ... + cn


def durand_kerner(coeffs, iters=500):
    """All roots of a monic polynomial by simultaneous iteration."""
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iters):
        new = roots.copy()
        for i in range(n):
            p = np.polyval(coeffs, new[i])
            d = np.prod([new[i] - new[j] for j in range(n) if j != i])
            new[i] = new[i] - p / d
        if np.abs(new - roots).max() < 1e-14:
            roots = new
            break
        roots = new
    return roots


def match_sets(a, b):
    """Greedy max distance between two equal-size multisets of complex."""
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    b = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b[j]))
        b.pop(j)
    return worst


# -- qr -------------------------------------------------------------------------

def test_qr_identity():
    f = qr(np.eye(3))
    np.testing.assert_allclose(f.Q, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(f.R, np.eye(3), atol=1e-15)


def test_qr_unitary_input():
    f = qr(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(abs(np.linalg.det(f.R)) - 1.0) < 1e-14


def test_qr_reconstruction_and_convention(rng):
    M = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    f = qr(M)
    assert np.linalg.norm(f.Q @ f.R - M) <= 1e-13 * np.linalg.norm(M)
    assert np.abs(f.Q.conj().T @ f.Q - np.eye(4)).max() <= 1e-12
    d = np.diag(f.R)
    assert np.all(d.real >= -1e-15) and np.abs(d.imag).max() <= 1e-15
    assert np.all(np.tril(f.R, -1) == 0.0)
    assert f.Q.shape == (6, 4) and f.R.shape == (4, 4)


def test_qr_full_mode_and_errors(rng):
    # qr has only the economy form: a tall input gives Q of its own shape
    M = rng.standard_normal((5, 3))
    f = qr(M)
    assert f.Q.shape == (5, 3) and f.R.shape == (3, 3)
    with pytest.raises(DimensionMismatch):
        qr(rng.standard_normal((3, 5)))
    with pytest.raises(DimensionMismatch):
        qr(np.ones(3))


def test_qr_rank_deficient_allowed():
    M = np.ones((4, 3))
    f = qr(M)
    assert np.linalg.norm(f.Q @ f.R - M) <= 1e-13 * np.linalg.norm(M)


# -- hessenberg_eig --------------------------------------------------------------

def test_hessenberg_diag():
    theta, Z = hessenberg_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(theta, [3, 1])
    np.testing.assert_allclose(np.abs(Z), np.eye(2))


def test_hessenberg_tie_break_order():
    theta, _ = hessenberg_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(theta, [1, -1], atol=1e-14)


def test_hessenberg_rejects_non_hessenberg():
    M = np.ones((4, 4))
    with pytest.raises(DimensionMismatch):
        hessenberg_eig(M)


def test_hessenberg_vs_root_oracle(rng):
    H = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1)
    theta, Z = hessenberg_eig(H)
    roots = durand_kerner(char_poly_coeffs(H))
    assert match_sets(theta, roots) <= 1e-8
    # descending modulus, unit-norm right eigenpairs
    assert np.all(np.diff(np.abs(theta)) <= 1e-12)
    np.testing.assert_allclose(np.linalg.norm(Z, axis=0), 1.0, rtol=1e-14)
    for i in range(8):
        r = np.linalg.norm(H @ Z[:, i] - theta[i] * Z[:, i])
        assert r <= 1e-10 * np.linalg.norm(H)


def test_hessenberg_diag_unitary_similarity_invariance(rng):
    H = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    D = np.diag(phases)
    H2 = D.conj().T @ H @ D  # still Hessenberg
    t1, _ = hessenberg_eig(H)
    t2, _ = hessenberg_eig(H2)
    assert np.abs(t1 - t2).max() <= 1e-10


# -- small_generalized_eig --------------------------------------------------------

def test_generalized_diagonal_case():
    eig = small_generalized_eig(np.eye(2), np.diag([0.5, 0.25]), sigma=0.0)
    np.testing.assert_allclose(eig.eigenvalues, [2, 4], atol=1e-14)
    assert not eig.infinite.any()


def test_generalized_all_infinite():
    eig = small_generalized_eig(np.diag([1.0, 1.0]), np.zeros((2, 2)))
    assert eig.infinite.all()
    assert np.isinf(eig.eigenvalues.real).all()


def test_generalized_det_sampling_oracle(rng):
    Ah = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Bh = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    eig = small_generalized_eig(Ah, Bh)
    # det(Ah - lam Bh) is degree <= 5; fit by sampling, then root-find
    pts = np.exp(2j * np.pi * np.arange(6) / 6) * 1.7
    dets = [np.linalg.det(Ah - z * Bh) for z in pts]
    V = np.vander(pts, 6, increasing=False)
    coeffs = np.linalg.solve(V, dets)
    coeffs = coeffs / coeffs[0]
    roots = durand_kerner(coeffs)
    finite = eig.eigenvalues[~eig.infinite]
    assert match_sets(finite, roots) <= 1e-8


def test_generalized_scaling_invariance(rng):
    Ah = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Bh = rng.standard_normal((4, 4))
    e1 = small_generalized_eig(Ah, Bh)
    e2 = small_generalized_eig((1.7 - 0.3j) * Ah, (1.7 - 0.3j) * Bh)
    assert match_sets(e1.eigenvalues, e2.eigenvalues) <= 1e-10 * max(
        1.0, np.abs(e1.eigenvalues).max())


def test_generalized_left_right_pairing(rng):
    Ah = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Bh = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    eig = small_generalized_eig(Ah, Bh)
    for i in range(4):
        if eig.infinite[i]:
            continue
        lam = eig.eigenvalues[i]
        x = eig.right_vectors[:, i]
        y = eig.left_vectors[:, i]
        assert np.linalg.norm(Ah @ x - lam * (Bh @ x)) <= 1e-8 * (
            np.linalg.norm(Ah) + abs(lam) * np.linalg.norm(Bh))
        assert np.linalg.norm(y.conj() @ Ah - lam * (y.conj() @ Bh)) <= 1e-8 * (
            np.linalg.norm(Ah) + abs(lam) * np.linalg.norm(Bh))


def test_generalized_singular_ah_rejected():
    with pytest.raises(ConvergenceError):
        small_generalized_eig(np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("Ah, Bh", [
    (np.eye(3), np.diag([1.0, 1.0], 1)),  # nilpotent: one defective theta = 0
    (np.eye(2), 0.5 * np.eye(2)),          # one double theta = 2
], ids=["nilpotent", "coincident"])
def test_generalized_left_vectors_are_null_vectors(Ah, Bh):
    eig = small_generalized_eig(Ah, Bh)
    theta = np.zeros(eig.eigenvalues.size, dtype=complex)
    theta[~eig.infinite] = 1.0 / eig.eigenvalues[~eig.infinite]
    Y = eig.left_vectors
    assert np.isfinite(Y).all()
    np.testing.assert_allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-14)
    for i in range(theta.size):
        assert np.linalg.norm(Y[:, i].conj() @ (Bh - theta[i] * Ah)) <= 1e-14
    if eig.infinite.all():  # nilpotent Bh: its only left null vector is e_3
        np.testing.assert_allclose(np.abs(Y[2]), 1.0, atol=1e-14)


# -- dense_rank -------------------------------------------------------------------

def test_dense_rank_examples(rng):
    assert dense_rank(np.eye(5), 1e-12) == 5
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert dense_rank(np.outer(u, v.conj()), 1e-12) == 1
    toy = problems.gen_kronecker_toy()
    assert dense_rank(toy.pencil.A.to_dense(), 1e-12) == 3


def test_dense_rank_adjoint_equality(rng):
    for _ in range(10):
        k = rng.integers(1, 5)
        g1 = rng.standard_normal((6, k))
        g2 = rng.standard_normal((k, 5))
        M = g1 @ g2
        assert dense_rank(M, 1e-12) == dense_rank(M.conj().T, 1e-12) == k


def test_dense_rank_tol_zero_and_empty():
    assert dense_rank(np.zeros((3, 3)), 0.0) == 0
    assert dense_rank(np.zeros((0, 0)), 1e-10) == 0
    with pytest.raises(ValueError):
        dense_rank(np.eye(2), -1.0)
