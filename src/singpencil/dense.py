"""Small dense kernels: QR, Hessenberg eigensolver, projected generalized
eigentriplets, and a full-pivot rank oracle.

The eigen and QR kernels are LAPACK-backed (via :mod:`numpy.linalg`); the
rank oracle is a direct full-pivoting Gaussian elimination so it stays an
independent cross-check for the sparse factorization.
"""

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, NonFiniteInput

#: |theta| at most this multiple of the operator scale is treated as an
#: eigenvalue at infinity of the underlying pencil.
INF_THETA_RTOL = 1e-14


def qr(M):
    """Economy Householder QR of a tall or square dense matrix.

    Returns ``(Q, R)``: Q has orthonormal columns and the shape of M, R is
    upper triangular with a real nonnegative diagonal (a deterministic sign
    convention).  Rank-deficient input is allowed (R simply gets small or
    zero diagonal entries).
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise DimensionMismatch("qr expects a 2-d matrix with nrows >= ncols")
    Q, R = np.linalg.qr(M, mode="reduced")
    d = np.diagonal(R)
    phase = np.divide(d, np.abs(d), out=np.ones_like(d), where=d != 0.0)
    return Q * phase, np.triu(np.conj(phase)[:, None] * R)


def _sorted_eig(M, what):
    """``(theta, Z, copy)``: the eigenvalues of a square M by descending
    modulus, ties by descending real then imaginary part, their unit-norm
    eigenvector columns, and each theta's copy index (0 for the first of a
    run of equal sort keys, 1 for the second...).  The keys are quantized
    to 12 digits of ``max|theta|`` (of 1 when that is 0), so rounding-level
    ties sort by the tie break and count as copies.  A LAPACK failure
    raises :class:`ConvergenceError` naming ``what``."""
    try:
        theta, Z = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"{what}: eigenvalue iteration did not converge") from exc
    scale = np.abs(theta).max(initial=0.0) or 1.0
    keys = np.round(np.stack((-theta.imag, -theta.real, -np.abs(theta))) / scale, 12)
    order = np.lexsort(keys)
    keys = keys[:, order]
    copy = np.zeros(theta.size, dtype=np.int64)
    for i in range(1, theta.size):
        copy[i] = copy[i - 1] + 1 if np.array_equal(keys[:, i], keys[:, i - 1]) else 0
    return theta[order], _unit_columns(Z[:, order]), copy


def _unit_columns(V):
    """Scale the columns of V to unit two-norm in place (a zero column stays
    zero); returns V."""
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    V /= norms
    return V


def hessenberg_eig(H):
    """Eigenvalues and unit-norm right eigenvector columns of a square
    upper Hessenberg matrix.

    Output is sorted by descending modulus (ties: descending real part,
    then descending imaginary part) so dominant values come first.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch("hessenberg_eig expects a square matrix")
    if np.any(np.tril(H, -2) != 0.0):
        raise DimensionMismatch("matrix is not upper Hessenberg")
    return _sorted_eig(H, "hessenberg_eig")[:2]


def _pencil_eigenvalues(theta, scale, sigma):
    """Map eigenvalues ``theta`` of the inverted operator, whose size is
    ``scale``, to ``(lam, infinite)``: ``infinite`` marks ``|theta| <=
    INF_THETA_RTOL * scale``, and ``lam`` is ``inf`` there and
    ``sigma + 1/theta`` elsewhere."""
    infinite = np.abs(theta) <= INF_THETA_RTOL * scale
    lam = np.full(theta.shape, np.inf, dtype=np.complex128)
    lam[~infinite] = sigma + 1.0 / theta[~infinite]
    return lam, infinite


def small_generalized_eig(Ah, Bh, sigma=0.0):
    """Eigentriplets of the projected pencil ``Ah - lambda Bh``.

    Right pairs come from ``eig(Ah^{-1} Bh)``.  The left vector of each
    eigenvalue ``theta`` of that matrix is a left null vector of
    ``Bh - theta Ah`` (its last left singular vector), so left and right
    vectors are paired by construction, also for a defective ``theta``.
    The r-th copy of a repeated ``theta`` takes the r-th last left singular
    vector instead, as long as the numerical null space of
    ``Bh - theta Ah`` has room for it, so the left vectors of a semisimple
    ``theta`` span its left eigenspace.
    Returns ``(lam, X, Y, infinite)``: eigenvalues ``sigma + 1/theta``
    (``inf`` where ``infinite``, see :func:`_pencil_eigenvalues`) with their
    unit-norm right and left eigenvector columns.  ``Ah`` must be
    comfortably invertible.
    """
    Ah = np.asarray(Ah, dtype=np.complex128)
    Bh = np.asarray(Bh, dtype=np.complex128)
    if Ah.ndim != 2 or Ah.shape[0] != Ah.shape[1] or Ah.shape != Bh.shape:
        raise DimensionMismatch("small_generalized_eig expects square matrices of equal size")
    if np.linalg.cond(Ah) > 1e15:
        raise ConvergenceError("projected matrix Ah is numerically singular")
    T = np.linalg.solve(Ah, Bh)
    theta, Z, copy = _sorted_eig(T, "small_generalized_eig")
    U, s, _ = np.linalg.svd(Bh - theta[:, None, None] * Ah)
    tol = 1e-12 * (np.linalg.norm(Bh) + np.abs(theta) * np.linalg.norm(Ah))
    null_dim = np.maximum((s <= tol[:, None]).sum(axis=1), 1)
    col = -1 - np.minimum(copy, null_dim - 1)
    Y = U[np.arange(theta.size), :, col].T

    lam, infinite = _pencil_eigenvalues(theta, np.linalg.norm(T, 2), sigma)
    return lam, Z, Y, infinite


def dense_rank(M, tol):
    """Rank by Gaussian elimination with full pivoting.

    Elimination stops when the largest remaining pivot is at most
    ``tol`` times the largest initial pivot.  ``tol == 0`` stops only at
    exact zeros.  This is the verification oracle for the sparse
    rank-detecting factorization; it raises :class:`NonFiniteInput` for an
    inf or NaN entry, whose rank it cannot tell.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    A = np.array(M, dtype=np.complex128)  # a copy: elimination works in place
    if A.ndim != 2:
        raise DimensionMismatch("dense_rank expects a 2-d matrix")
    if not np.all(np.isfinite(A)):
        raise NonFiniteInput("dense_rank: the matrix has a non-finite entry")
    scale = np.abs(A).max(initial=0.0)
    for step in range(min(A.shape)):
        sub = np.abs(A[step:, step:])
        if sub.max() <= tol * scale:
            return step
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if i:
            A[[step, step + i]] = A[[step + i, step]]
        if j:
            A[:, [step, step + j]] = A[:, [step + j, step]]
        mult = A[step + 1:, step] / A[step, step]
        A[step + 1:, step:] -= np.outer(mult, A[step, step:])
    return min(A.shape)
