"""Pencils, their rank-completing bordered regularization and the
shift-and-invert operator on the bordered system.

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
from .errors import DimensionMismatch, NonFiniteInput
from .sparse import SparseMatrix, add_scaled, spmv, spmv_adjoint


@dataclass(frozen=True)
class Pencil:
    """A (possibly singular or rectangular) matrix pencil ``A - lambda B``.

    Raises :class:`DimensionMismatch` when A and B differ in shape or have
    no rows or no columns, and :class:`NonFiniteInput` when A or B holds an
    inf or NaN entry.
    """

    A: SparseMatrix
    B: SparseMatrix

    def __post_init__(self):
        if self.A.shape != self.B.shape:
            raise DimensionMismatch(f"pencil matrices differ in shape: {self.A.shape} vs {self.B.shape}")
        if 0 in self.A.shape:
            raise DimensionMismatch(f"pencil matrices are empty: {self.A.shape}")
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
        return add_scaled(self.a_matrix, -self.shift, self.b_matrix)

    @cached_property
    def a_matrix(self):
        """Bordered ``[[A, W], [V*, 0]]``."""
        return assemble_bordered(self.base.A, self.V, self.W)

    @cached_property
    def b_matrix(self):
        """Bordered ``[[B, 0], [0, 0]]``."""
        return SparseMatrix.from_coo(self.size, self.size, *self.base.B.coo())


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

    ``leading`` is the length of the pencil block of the vectors the
    operator acts on: ``ncols`` of the pencil for ``"forward"`` and
    ``nrows`` for ``"transposed_pencil"``.  The coordinates after it are
    the border, invisible to the Krylov seminorm.
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

    @property
    def leading(self):
        base = self.bordered.base
        return base.ncols if self.direction == "forward" else base.nrows

    def apply(self, v):
        """The operator on a vector or on each column of an ``(size, k)`` block."""
        bp = self.bordered
        if self.direction == "forward":
            return rank_lu.solve(bp.lu, spmv(bp.b_matrix, v))
        return rank_lu.solve_adjoint(bp.lu, spmv_adjoint(bp.b_matrix, v))
