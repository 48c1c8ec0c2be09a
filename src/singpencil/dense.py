"""Small dense kernels: QR, Hessenberg eigensolver, projected generalized
eigentriplets, and a full-pivot rank oracle.

The eigen and QR kernels are LAPACK-backed (via :mod:`numpy.linalg`); the
rank oracle is a direct full-pivoting Gaussian elimination so it stays an
independent cross-check for the sparse factorization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatch

#: |theta| below this multiple of the operator scale is treated as an
#: eigenvalue at infinity of the underlying pencil.
INF_THETA_RTOL = 1e-14


@dataclass(frozen=True)
class DenseQR:
    """Unitary factor Q and upper-triangular factor R with nonnegative real
    diagonal."""
    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class DenseEig:
    """Eigenvalues with unit-norm right and left eigenvector columns.

    ``eigenvalues[i]`` is ``inf`` when ``infinite[i]`` is set; column i of
    ``right_vectors`` and of ``left_vectors`` belongs to ``eigenvalues[i]``.
    """
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    infinite: np.ndarray


def _phase_fix(Q, R):
    """Scale so diag(R) is real nonnegative; returns new (Q, R)."""
    Q = Q.copy()
    R = R.copy()
    for j in range(min(R.shape)):
        d = R[j, j]
        if d != 0.0:
            ph = d / abs(d)
            R[j, j:] *= np.conj(ph)
            Q[:, j] *= ph
    return Q, R


def qr(M):
    """Economy Householder QR of a tall or square dense matrix.

    Deterministic sign convention: the diagonal of R is real nonnegative.
    Rank-deficient input is allowed (R simply gets small or zero diagonal
    entries).
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise DimensionMismatch("qr expects a 2-d matrix with nrows >= ncols")
    Q, R = np.linalg.qr(M, mode="reduced")
    Q, R = _phase_fix(Q, R)
    return DenseQR(Q=Q, R=np.triu(R))


def _sort_order(values):
    # descending modulus, ties by descending real then descending imag;
    # keys are quantized so rounding-level modulus ties still sort by the
    # documented tie break
    scale = np.abs(values).max() if values.size else 1.0
    if scale == 0.0:
        scale = 1.0
    q = lambda x: np.round(x / scale, 12)
    return np.lexsort((-q(values.imag), -q(values.real), -q(np.abs(values))))


def _eig(M, what):
    try:
        return np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"{what}: eigenvalue iteration did not converge") from exc


def _unit_columns(V):
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    return V / norms


def hessenberg_eig(H):
    """Eigenvalues and unit-norm right eigenvector columns of a square
    upper Hessenberg matrix.

    Output is sorted by descending modulus (ties: descending real part,
    then descending imaginary part) so dominant values come first.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch("hessenberg_eig expects a square matrix")
    n = H.shape[0]
    if n > 2 and np.any(np.tril(H, -2) != 0.0):
        raise DimensionMismatch("matrix is not upper Hessenberg")
    theta, Z = _eig(H, "hessenberg_eig")
    order = _sort_order(theta)
    return theta[order], _unit_columns(Z[:, order])


def small_generalized_eig(Ah, Bh, sigma=0.0):
    """Eigentriplets of the projected pencil ``Ah - lambda Bh``.

    Right pairs come from ``eig(Ah^{-1} Bh)``.  The left vector of each
    eigenvalue ``theta`` of that matrix is the left null vector of
    ``Bh - theta Ah`` (its last left singular vector), so left and right
    vectors are paired by construction, also for a defective ``theta``.
    Eigenvalues are reported as ``sigma + 1/theta``, with ``theta`` below
    ``INF_THETA_RTOL`` times the operator scale flagged as infinite.
    ``Ah`` must be comfortably invertible.
    """
    Ah = np.asarray(Ah, dtype=np.complex128)
    Bh = np.asarray(Bh, dtype=np.complex128)
    if Ah.ndim != 2 or Ah.shape[0] != Ah.shape[1] or Ah.shape != Bh.shape:
        raise DimensionMismatch("small_generalized_eig expects square matrices of equal size")
    if np.linalg.cond(Ah) > 1e15:
        raise ConvergenceError("projected matrix Ah is numerically singular")
    T = np.linalg.solve(Ah, Bh)
    theta, Z = _eig(T, "small_generalized_eig")
    order = _sort_order(theta)
    theta, Z = theta[order], Z[:, order]
    Y = np.linalg.svd(Bh - theta[:, None, None] * Ah)[0][:, :, -1].T

    scale = np.linalg.norm(T, 2)
    infinite = np.abs(theta) <= INF_THETA_RTOL * scale
    lam = np.empty_like(theta)
    lam[infinite] = np.inf
    lam[~infinite] = sigma + 1.0 / theta[~infinite]
    return DenseEig(
        eigenvalues=lam,
        right_vectors=_unit_columns(Z),
        left_vectors=Y,
        infinite=infinite,
    )


def dense_rank(M, tol):
    """Rank by Gaussian elimination with full pivoting.

    Elimination stops when the largest remaining pivot is at most
    ``tol`` times the largest initial pivot.  ``tol == 0`` stops only at
    exact zeros.  This is the verification oracle for the sparse
    rank-detecting factorization.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    A = np.array(M, dtype=np.complex128, copy=True)
    if A.ndim != 2:
        raise DimensionMismatch("dense_rank expects a 2-d matrix")
    if A.size == 0:
        return 0
    scale = np.abs(A).max()
    if scale == 0.0:
        return 0
    rank = 0
    for step in range(min(A.shape)):
        sub = np.abs(A[step:, step:])
        p = sub.max()
        if p <= tol * scale or p == 0.0:
            break
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        i += step
        j += step
        if i != step:
            A[[step, i], :] = A[[i, step], :]
        if j != step:
            A[:, [step, j]] = A[:, [j, step]]
        piv = A[step, step]
        mult = A[step + 1:, step] / piv
        A[step + 1:, step:] -= np.outer(mult, A[step, step:])
        rank += 1
    return rank
