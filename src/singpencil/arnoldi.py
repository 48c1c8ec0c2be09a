"""P-orthogonal shift-and-invert Arnoldi, implicit restarts with shift at
infinity, Ritz extraction and eigenvector purification.

The iteration orthogonalizes in a positive semi-definite inner product so
the border-induced eigenvalues at infinity stay invisible; classical
Gram-Schmidt with one unconditional reorthogonalization pass keeps the
basis P-orthonormal to working accuracy.  An implicit restart performs one
zero-shift QR step on the extended Hessenberg matrix, which multiplies the
Krylov space by the operator and thereby filters nullspace components.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dense
from .bordered import ShiftInvertOperator
from .errors import DimensionMismatch, PurificationError, StartVectorError

#: P-norm below this multiple of the Euclidean norm counts as breakdown
BREAKDOWN_RTOL = 1e-13


@dataclass(frozen=True)
class ArnoldiDecomposition:
    """Semi-orthonormal Krylov basis with extended Hessenberg matrix.

    Normally ``basis`` has ``steps + 1`` columns and ``hess`` is
    ``(steps + 1) x steps``; when the iteration broke down the trailing
    vector is dropped, ``hess`` is square and ``exact`` is set (the basis
    then spans an invariant subspace of the operator, at least in the
    seminorm).  Subdiagonal entries of ``hess`` are real nonnegative.
    ``breakdown`` is ``None``, ``"lucky"`` (candidate vector vanished) or
    ``"kernel"`` (candidate fell into the seminorm kernel).
    """

    basis: np.ndarray
    hess: np.ndarray
    p: object
    steps: int
    exact: bool = False
    breakdown: str | None = None

    @property
    def square_hess(self):
        return self.hess[:self.steps, :self.steps]


class RitzPair(NamedTuple):
    theta: complex
    z: np.ndarray
    residual_estimate: float


def start_vector(S, seed):
    """Seeded complex Gaussian start vector, pre-filtered through S.

    The pre-application removes nullspace components so the iteration does
    not start inside the seminorm kernel.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(S.size) + 1j * rng.standard_normal(S.size)
    return S.apply(v)


def arnoldi_run(S, v0, p, steps, trace=None):
    """Run ``steps`` iterations of P-orthogonal Arnoldi on operator S.

    Parameters
    ----------
    S : ShiftInvertOperator (or any object with .size and .apply)
    v0 : start vector; must not lie in the seminorm kernel.
    p : PMatrix inner-product descriptor.
    steps : requested Krylov dimension (>= 1).
    trace : optional callable receiving one diagnostic line per iteration.

    On breakdown the decomposition is truncated and returned with the
    ``exact`` flag; ``breakdown == "kernel"`` signals that a fresh start
    vector may uncover more of the space.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    v0 = np.asarray(v0, dtype=np.complex128).ravel()
    if v0.size != S.size:
        raise DimensionMismatch("start vector length does not match operator")
    pn = p.norm(v0)
    if pn == 0.0 or pn <= BREAKDOWN_RTOL * np.linalg.norm(v0):
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
        c1 = p.inners(block, w)
        w -= block @ c1
        c2 = p.inners(block, w)  # one unconditional reorthogonalization pass
        w -= block @ c2
        H[:i + 1, i] = c1 + c2
        hnext = p.norm(w)
        wnorm = np.linalg.norm(w)
        if trace is not None:
            defect = np.abs(p.inners(block, w)).max()
            trace(f"step {i + 1}: h_col_norm={np.linalg.norm(H[:i + 2, i]):.6e} "
                  f"p_next={hnext:.6e} orth_defect={defect:.3e}")
        if hnext <= BREAKDOWN_RTOL * wnorm or wnorm <= BREAKDOWN_RTOL * sv_norm:
            kind = "lucky" if wnorm <= BREAKDOWN_RTOL * max(sv_norm, 1e-300) else "kernel"
            return ArnoldiDecomposition(
                basis=V[:, :i + 1].copy(), hess=H[:i + 1, :i + 1].copy(),
                p=p, steps=i + 1, exact=True, breakdown=kind)
        H[i + 1, i] = hnext  # real nonnegative by construction
        V[:, i + 1] = w / hnext

    return ArnoldiDecomposition(basis=V, hess=H, p=p, steps=steps)


def _phase_normalize(basis, hess, square):
    """Diagonal unitary similarity making subdiagonals real nonnegative."""
    rows = hess.shape[0]
    d = np.ones(rows, dtype=np.complex128)
    for j in range(min(hess.shape[1], rows - 1)):
        t = hess[j + 1, j] * d[j]
        d[j + 1] = t / abs(t) if t != 0.0 else 1.0
    cols = rows if square else rows - 1
    hess = np.conj(d)[:, None] * hess * d[None, :cols]
    # entries that should vanish are exact zeros; enforce rather than trust
    hess = np.triu(hess, -1)
    sub = np.arange(min(hess.shape[1], rows - 1))
    hess[sub + 1, sub] = np.abs(hess[sub + 1, sub])
    basis = basis * d[None, :]
    return basis, hess


def implicit_restart_infinity(d):
    """One implicit QR restart with shift at infinity (zero shift on the
    inverted operator).

    For a regular decomposition this shortens the basis by one column and
    multiplies the Krylov space by the operator, purging components of its
    nullspace.  For an exact (broken-down) decomposition the space is
    already invariant, so a square QR similarity step is performed and the
    dimension is preserved.
    """
    if d.exact:
        f = dense.qr(d.hess)
        basis = d.basis @ f.Q
        hess = f.R @ f.Q
        basis, hess = _phase_normalize(basis, hess, square=True)
        return ArnoldiDecomposition(basis=basis, hess=hess, p=d.p,
                                    steps=d.steps, exact=True, breakdown=d.breakdown)
    if d.steps < 2:
        raise ValueError("implicit restart needs at least 2 steps")
    s = d.steps
    f = dense.qr(d.hess)          # (s+1) x s economy factorization
    basis = d.basis @ f.Q         # n x s
    hess = f.R @ f.Q[:s, :s - 1]  # s x (s-1) extended Hessenberg
    basis, hess = _phase_normalize(basis, hess, square=False)
    return ArnoldiDecomposition(basis=basis, hess=hess, p=d.p, steps=s - 1)


def ritz_pairs(d):
    """Eigenpairs of the square Hessenberg part with recurrence residuals.

    ``residual_estimate = h_{l+1,l} |e_l* z|`` (zero after an exact
    breakdown); pairs are sorted by ascending residual.  Ritz values map to
    pencil eigenvalues via ``lambda = sigma + 1/theta`` in the caller.
    """
    if d.steps < 1:
        raise ValueError("empty decomposition")
    theta, Z = dense.hessenberg_eig(d.square_hess)
    hlast = 0.0 if d.exact else float(d.hess[d.steps, d.steps - 1].real)
    pairs = [
        RitzPair(theta=complex(theta[i]), z=Z[:, i],
                 residual_estimate=abs(hlast * Z[-1, i]))
        for i in range(d.steps)
    ]
    pairs.sort(key=lambda rp: rp.residual_estimate)
    return pairs


def purify(bp, x, adjoint_side=False):
    """One application of the shift-and-invert operator, normalized.

    Strips eigenvector components lying in the operator nullspace (the
    border-induced infinite eigenvalues).  Left vectors are purified with
    the transposed-pencil operator.  Raises :class:`PurificationError` for
    vectors entirely inside the nullspace.
    """
    S = ShiftInvertOperator(bp, "transposed_pencil" if adjoint_side else "forward")
    y = S.apply(x)
    norm = np.linalg.norm(y)
    if norm < 1e-280:
        raise PurificationError("vector lies in the nullspace: pure infinite eigenvector")
    return y / norm
