"""Pencils, their rank-completing bordered regularization, the
shift-and-invert operator on the bordered system, and the semi-definite
inner products used by the Krylov iteration.

The bordered pencil of ``A x = lambda B x`` is

    [[A, W],      [[B, 0],
     [V*, 0]]  -    [0, 0]] * lambda

with V and W discovered by the rank-detecting LU of ``A - sigma B``.  All
internal formulas are written at shift zero: the factorization acts on the
pre-shifted matrix and eigenvalues are recovered as ``sigma + mu``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rank_lu
from .errors import DimensionMismatch, NonFiniteInput, SingPencilError
from .sparse import SparseMatrix, add_scaled, adjoint, norm_estimate, spmv, spmv_adjoint


@dataclass(frozen=True)
class Pencil:
    """A (possibly singular or rectangular) matrix pencil ``A - lambda B``.

    Raises :class:`NonFiniteInput` when A or B holds an inf or NaN entry.
    """

    A: SparseMatrix
    B: SparseMatrix

    def __post_init__(self):
        if self.A.shape != self.B.shape:
            raise DimensionMismatch(f"pencil matrices differ in shape: {self.A.shape} vs {self.B.shape}")
        for name, M in (("A", self.A), ("B", self.B)):
            if not np.isfinite(M.values).all():
                raise NonFiniteInput(f"pencil matrix {name} has a non-finite entry")

    @property
    def nrows(self):
        return self.A.nrows

    @property
    def ncols(self):
        return self.A.ncols

    @property
    def is_square(self):
        return self.nrows == self.ncols


def assemble_bordered(M, V, W):
    """Square sparse block matrix ``[[M, W], [V*, 0]]``."""
    n, m = M.shape
    ell, w = V.ncols, W.ncols
    if V.nrows != m or W.nrows != n:
        raise DimensionMismatch("border blocks do not conform with the matrix")
    size = n + ell
    if size != m + w:
        raise DimensionMismatch("bordered matrix would not be square")
    rm, cm, vm = M.coo()
    rv, cv, vv = V.coo()   # V entry (r, c) -> bordered (n + c, r), conjugated
    rw, cw, vw = W.coo()   # W entry (r, c) -> bordered (r, m + c)
    rows = np.concatenate([rm, n + cv, rw])
    cols = np.concatenate([cm, rv, m + cw])
    vals = np.concatenate([vm, np.conj(vv), vw])
    return SparseMatrix.from_coo(size, size, rows, cols, vals)


def assemble_bordered_b(B, size):
    """Square sparse ``[[B, 0], [0, 0]]`` of the given bordered size."""
    if size < max(B.shape):
        raise DimensionMismatch("bordered size smaller than B")
    rows, cols, vals = B.coo()
    return SparseMatrix.from_coo(size, size, rows, cols, vals)


@dataclass(frozen=True)
class BorderedPencil:
    """A pencil together with its regularizing border and factorization.

    ``V`` has ``ncols - normal_rank`` columns and ``W`` has
    ``nrows - normal_rank`` columns; the bordered matrices are square of
    size ``lu.n_final``.  ``lu`` factors the shifted bordered matrix of the
    pencil as given, whatever its shape, and serves both the solves with
    that matrix and those with its adjoint.
    """

    base: Pencil
    V: SparseMatrix
    W: SparseMatrix
    normal_rank: int
    shift: complex
    lu: rank_lu.RankLU

    @property
    def size(self):
        return self.lu.n_final

    @cached_property
    def shifted_matrix(self):
        """Bordered ``[[A - sigma B, W], [V*, 0]]`` (the factored matrix)."""
        shifted = add_scaled(self.base.A, -self.shift, self.base.B)
        return assemble_bordered(shifted, self.V, self.W)

    @cached_property
    def a_matrix(self):
        """Bordered ``[[A, W], [V*, 0]]``."""
        return assemble_bordered(self.base.A, self.V, self.W)

    @cached_property
    def b_matrix(self):
        """Bordered ``[[B, 0], [0, 0]]``."""
        return assemble_bordered_b(self.base.B, self.size)


def regularize(p, sigma, tau):
    """Factor ``A - sigma B`` with rank detection and build the bordered pencil.

    Square, tall and wide pencils are factored as given.  The detected
    rank is the numerical normal rank of the pencil provided ``sigma`` is
    not an eigenvalue.
    """
    sigma = complex(sigma)
    lu = rank_lu.factor(add_scaled(p.A, -sigma, p.B), tau)
    return BorderedPencil(base=p, V=lu.V, W=lu.W, normal_rank=lu.detected_rank,
                          shift=sigma, lu=lu)


class PMatrix:
    """Positive semi-definite inner product ``<x, y> = x* P y``.

    ``identity_block`` restricts the Euclidean product to the leading block
    (border coordinates are invisible); ``b_block`` uses ``diag(B, 0)`` and
    requires a Hermitian positive semi-definite B.
    """

    __slots__ = ("kind", "leading", "total", "B")

    def __init__(self, kind, leading, total, B=None):
        self.kind = kind
        self.leading = int(leading)
        self.total = int(total)
        self.B = B

    def _check(self, x):
        if x.shape[0] != self.total:
            raise DimensionMismatch("vector does not match bordered size")

    def inner(self, x, y):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
        self._check(x)
        self._check(y)
        if self.kind == "identity_block":
            return complex(np.vdot(x[:self.leading], y[:self.leading]))
        return complex(np.vdot(x[:self.leading], spmv(self.B, y[:self.leading])))

    def inners(self, Vblock, w):
        """Vector of ``<v_j, w>`` over the columns of ``Vblock``."""
        if self.kind == "identity_block":
            return Vblock[:self.leading].conj().T @ w[:self.leading]
        return Vblock[:self.leading].conj().T @ spmv(self.B, w[:self.leading])

    def norm(self, x):
        val = self.inner(x, x).real
        return float(np.sqrt(max(val, 0.0)))


def p_matrix(bp, kind, adjoint_side=False):
    """Inner-product descriptor for Krylov runs on a bordered pencil.

    ``identity_block`` is ``diag(I, 0)`` over the leading (pencil) block;
    the leading size differs between the forward side (column space) and
    the adjoint side (row space) for rectangular pencils.  ``b_block``
    is ``diag(B, 0)`` and is rejected unless B is Hermitian positive
    semi-definite.
    """
    if kind not in ("identity_block", "b_block"):
        raise ValueError(f"unknown inner product kind {kind!r}")
    leading = bp.base.nrows if adjoint_side else bp.base.ncols
    if kind == "identity_block":
        return PMatrix("identity_block", leading, bp.size)
    B = bp.base.B
    if B.nrows != B.ncols:
        raise SingPencilError("b_block inner product needs a square B")
    scale = max(norm_estimate(B), 1.0) if B.nnz else 1.0
    herm_defect = 0.0
    diff = add_scaled(B, -1.0, adjoint(B))
    if diff.nnz:
        herm_defect = float(np.abs(diff.values).max())
    if herm_defect > 1e-12 * scale:
        raise SingPencilError("the inner product is not well defined: B is not Hermitian")
    rng = np.random.default_rng(0x5eed)
    for _ in range(20):
        x = rng.standard_normal(B.ncols) + 1j * rng.standard_normal(B.ncols)
        x /= np.linalg.norm(x)
        quad = np.vdot(x, spmv(B, x)).real
        if quad < -1e-12 * scale:
            raise SingPencilError("the inner product is not well defined: B is indefinite")
    return PMatrix("b_block", B.ncols, bp.size, B)


class ShiftInvertOperator:
    """Shift-and-invert operators on the bordered system, sharing one
    factorization.

    direction == "forward"
        ``S v = M^{-1} (B_hat v)`` with ``M`` the shifted bordered matrix.
    direction == "transposed_pencil"
        ``M^{-*} (B_hat* v)``: the shift-and-invert operator of the
        conjugate-transposed bordered pencil.  Its eigenvectors are the
        left eigenvectors of the bordered pencil (with conjugated Ritz
        values), border components included; this is what the two-sided
        iteration and left purification run on.
    """

    __slots__ = ("bordered", "direction")

    def __init__(self, bordered, direction="forward"):
        if direction not in ("forward", "transposed_pencil"):
            raise ValueError(f"unknown direction {direction!r}")
        self.bordered = bordered
        self.direction = direction

    @property
    def size(self):
        return self.bordered.size

    def apply(self, v):
        v = np.asarray(v, dtype=np.complex128).ravel()
        if v.size != self.size:
            raise DimensionMismatch(f"operator size {self.size}, vector size {v.size}")
        bp = self.bordered
        if self.direction == "forward":
            return rank_lu.solve(bp.lu, spmv(bp.b_matrix, v))
        return rank_lu.solve_adjoint(bp.lu, spmv_adjoint(bp.b_matrix, v))
