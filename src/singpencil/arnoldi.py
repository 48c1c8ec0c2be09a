"""Seminorm shift-and-invert Arnoldi, implicit restarts with shift at
infinity, Ritz extraction and eigenvector purification.

The iteration orthogonalizes in the seminorm ``diag(I, 0)``, the Euclidean
product on the operator's leading (pencil) block, so the border-induced
eigenvalues at infinity stay invisible; classical Gram-Schmidt with one
unconditional reorthogonalization pass keeps the basis orthonormal in that
seminorm to working accuracy.  An implicit restart performs one
zero-shift QR step on the extended Hessenberg matrix, which multiplies the
Krylov space by the operator and thereby filters nullspace components.
"""

from dataclasses import dataclass

import numpy as np

from . import dense
from .errors import DimensionMismatch, StartVectorError

#: Seminorm below this multiple of the Euclidean norm counts as breakdown
BREAKDOWN_RTOL = 1e-13


@dataclass(frozen=True)
class ArnoldiDecomposition:
    """Semi-orthonormal Krylov basis with extended Hessenberg matrix.

    Normally ``basis`` has ``steps + 1`` columns and ``hess`` is
    ``(steps + 1) x steps``; when the iteration broke down the trailing
    vector is dropped, ``hess`` is square and ``exact`` holds (the basis
    then spans an invariant subspace of the operator, at least in the
    seminorm).  ``steps`` is the column count of ``hess``; ``exact``
    means ``breakdown`` is set.  ``leading`` is the length of the block
    the seminorm sees.
    ``breakdown`` is ``None``, ``"lucky"`` (candidate vector vanished) or
    ``"kernel"`` (candidate fell into the seminorm kernel).
    """

    basis: np.ndarray
    hess: np.ndarray
    leading: int
    breakdown: str | None = None

    @property
    def steps(self):
        return self.hess.shape[1]

    @property
    def exact(self):
        return self.breakdown is not None

    @property
    def square_hess(self):
        return self.hess[:self.steps, :self.steps]


def start_vector(S, seed):
    """Seeded complex Gaussian start vector, pre-filtered through S.

    The pre-application removes nullspace components so the iteration does
    not start inside the seminorm kernel.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(S.size) + 1j * rng.standard_normal(S.size)
    return S.apply(v)


def _seminorm(x, leading):
    return float(np.sqrt(max(np.vdot(x[:leading], x[:leading]).real, 0.0)))


def arnoldi_run(S, v0, steps):
    """Run ``steps`` iterations of seminorm Arnoldi on operator S.

    Parameters
    ----------
    S : ShiftInvertOperator (or any object with .size, .leading and .apply);
        the seminorm is the Euclidean norm of the first ``S.leading``
        coordinates.
    v0 : start vector; must not lie in the seminorm kernel.
    steps : requested Krylov dimension (>= 1).

    On breakdown the decomposition is truncated to an ``exact`` one;
    ``breakdown == "kernel"`` signals that a fresh start vector may
    uncover more of the space.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    v0 = np.asarray(v0, dtype=np.complex128).ravel()
    if v0.size != S.size:
        raise DimensionMismatch("start vector length does not match operator")
    ell = S.leading
    pn = _seminorm(v0, ell)
    if pn <= BREAKDOWN_RTOL * np.linalg.norm(v0):
        raise StartVectorError("start vector lies in the seminorm kernel")

    n = S.size
    V = np.zeros((n, steps + 1), dtype=np.complex128)
    H = np.zeros((steps + 1, steps), dtype=np.complex128)
    V[:, 0] = v0 / pn

    for i in range(steps):
        sv = S.apply(V[:, i])
        sv_norm = np.linalg.norm(sv)
        w = sv.copy()
        block = V[:, :i + 1]
        c1 = block[:ell].conj().T @ w[:ell]
        w -= block @ c1
        c2 = block[:ell].conj().T @ w[:ell]  # one unconditional reorthogonalization pass
        w -= block @ c2
        H[:i + 1, i] = c1 + c2
        hnext = _seminorm(w, ell)
        wnorm = np.linalg.norm(w)
        if hnext <= BREAKDOWN_RTOL * wnorm or wnorm <= BREAKDOWN_RTOL * sv_norm:
            kind = "lucky" if wnorm <= BREAKDOWN_RTOL * max(sv_norm, 1e-300) else "kernel"
            return ArnoldiDecomposition(V[:, :i + 1].copy(), H[:i + 1, :i + 1].copy(),
                                        ell, kind)
        H[i + 1, i] = hnext  # real nonnegative by construction
        V[:, i + 1] = w / hnext

    return ArnoldiDecomposition(V, H, ell)


def implicit_restart_infinity(d):
    """One implicit QR restart with shift at infinity (zero shift on the
    inverted operator): ``hess = QR``, basis ``basis Q``, Hessenberg
    ``RQ`` restricted to the kept columns.

    A regular decomposition loses one column and its Krylov space is
    multiplied by the operator, purging components of its nullspace.  An
    exact (broken-down) one keeps its dimension: its space is already
    invariant, and the step moves a nullspace direction it holds into the
    last column, whose row of ``hess`` then vanishes.
    """
    if not d.exact and d.steps < 2:
        raise ValueError("implicit restart needs at least 2 steps")
    Q, R = dense.qr(d.hess)
    steps = d.steps if d.exact else d.steps - 1
    hess = np.triu(R @ Q[:d.steps, :steps], -1)
    return ArnoldiDecomposition(d.basis @ Q, hess, d.leading, d.breakdown)


def ritz_pairs(d):
    """Eigenpairs of the square Hessenberg part with recurrence residuals.

    Returns arrays ``(theta, Z, residual)``: Ritz values, unit-norm
    eigenvector columns of ``d.square_hess`` and the estimates
    ``residual[i] = |h_{l+1,l}| |e_l* Z[:, i]|`` (zero after an exact
    breakdown), sorted by ascending residual; ties keep
    ``hessenberg_eig``'s order.  Ritz values map to pencil eigenvalues via
    ``lambda = sigma + 1/theta`` in the caller.
    """
    if d.steps < 1:
        raise ValueError("empty decomposition")
    theta, Z = dense.hessenberg_eig(d.square_hess)
    hlast = 0.0 if d.exact else abs(d.hess[d.steps, d.steps - 1])
    residual = np.abs(hlast * Z[-1])
    order = np.argsort(residual, kind="stable")
    return theta[order], Z[:, order], residual[order]


def purify(S, X):
    """One application of the shift-and-invert operator S to a vector or to
    each column of a block, normalized in place.

    Strips eigenvector components lying in the operator nullspace (the
    border-induced infinite eigenvalues).  Right vectors are purified with
    the forward operator, left vectors with the transposed-pencil one.
    Returns ``(Y, null)``: ``null`` marks the columns that lie entirely in
    the nullspace (pure infinite eigenvectors), which come back unchanged.
    """
    Y = S.apply(X)
    norms = np.linalg.norm(Y, axis=0)
    null = norms < 1e-280
    Y /= np.where(null, 1.0, norms)
    np.copyto(Y, X, where=null)
    return Y, null
