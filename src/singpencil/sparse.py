"""Complex sparse (CSC) primitives used by every other module.

All numerical data is double-precision complex; real problems are embedded.
Compressed sparse column is the native layout because the factorization code
is column driven.  Matrices are immutable after construction and summation
orders are fixed (column major, rows ascending) so results are reproducible
bit for bit on a single platform.
"""

import numpy as np

from .errors import DimensionMismatch


class SparseMatrix:
    """Immutable compressed sparse column matrix with complex128 entries.

    Canonical form: ``col_ptr`` nondecreasing with ``col_ptr[0] == 0`` and
    ``col_ptr[-1] == nnz``; row indices strictly increasing inside each
    column; no explicitly stored zeros.

    Parameters
    ----------
    nrows, ncols : int
        Matrix dimensions.
    col_ptr : (ncols + 1,) integer array
    row_idx : (nnz,) integer array
    values : (nnz,) complex array
    """

    __slots__ = ("nrows", "ncols", "col_ptr", "row_idx", "values")

    def __init__(self, nrows, ncols, col_ptr, row_idx, values):
        col_ptr = np.ascontiguousarray(col_ptr, dtype=np.int64)
        row_idx = np.ascontiguousarray(row_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("negative dimensions")
        if col_ptr.shape != (ncols + 1,):
            raise DimensionMismatch("col_ptr must have length ncols + 1")
        if col_ptr[0] != 0 or col_ptr[-1] != len(values) or len(row_idx) != len(values):
            raise DimensionMismatch("inconsistent col_ptr / index / value lengths")
        if np.any(np.diff(col_ptr) < 0):
            raise DimensionMismatch("col_ptr must be nondecreasing")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= nrows:
                raise DimensionMismatch("row index out of range")
            # strictly increasing inside each column
            same_col = np.ones(row_idx.size - 1, dtype=bool)
            b = col_ptr[1:-1]
            b = b[(b > 0) & (b < row_idx.size)]
            same_col[b - 1] = False  # pairs straddling a column boundary
            if np.any(np.diff(row_idx)[same_col] <= 0):
                raise DimensionMismatch("row indices must increase strictly within columns")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        for arr in (col_ptr, row_idx, values):
            arr.setflags(write=False)
        self.col_ptr = col_ptr
        self.row_idx = row_idx
        self.values = values

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals):
        """Build from triplets; duplicates are summed, exact zeros dropped."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.complex128).ravel()
        if not (rows.size == cols.size == vals.size):
            raise DimensionMismatch("triplet arrays must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
                raise DimensionMismatch("triplet index out of range")
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[order]
            boundary = np.empty(rows.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(boundary)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        col_ptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=ncols), out=col_ptr[1:])
        return cls(nrows, ncols, col_ptr, rows, vals)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.ndim != 2:
            raise DimensionMismatch("from_dense expects a 2-d array")
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n, scale=1.0):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx,
                   np.full(n, scale, dtype=np.complex128))

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, np.zeros(ncols + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return int(self.values.size)

    def column(self, j):
        """Views of (row indices, values) of column ``j``."""
        s, e = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[s:e], self.values[s:e]

    def coo(self):
        """Triplets (rows, cols, vals) in storage order."""
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), np.diff(self.col_ptr))
        return self.row_idx, cols, self.values

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols), dtype=np.complex128)
        rows, cols, vals = self.coo()
        out[rows, cols] = vals
        return out

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


# -- operations -------------------------------------------------------------


def operand(x, n, what):
    """``x`` as a complex vector ``(n,)`` or block ``(n, k)``; the shape every
    product and solve accepts and returns."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatch(f"{what}: operand shape {x.shape} does not start with {n}")
    return x


def spmv(M, x):
    """Sparse product M @ x for a vector or an ``(ncols, k)`` block.

    Contributions are accumulated in storage order (by column, then row),
    so the result is deterministic.  A block is multiplied one column at a
    time, so no ``nnz x k`` temporary is built.
    """
    x = operand(x, M.ncols, "spmv")
    y = np.zeros((M.nrows,) + x.shape[1:], dtype=np.complex128)
    rows, cols, vals = M.coo()
    for xj, yj in zip(np.atleast_2d(x.T), np.atleast_2d(y.T)):  # column by column
        np.add.at(yj, rows, vals * xj[cols])
    return y


def spmv_adjoint(M, y):
    """Conjugate-transpose product M* @ y for a vector or an ``(nrows, k)``
    block, without materializing M*."""
    y = operand(y, M.nrows, "spmv_adjoint")
    out = np.zeros((M.ncols,) + y.shape[1:], dtype=np.complex128)
    rows, cols, vals = M.coo()
    conj = np.conj(vals)
    for yj, oj in zip(np.atleast_2d(y.T), np.atleast_2d(out.T)):  # column by column
        np.add.at(oj, cols, conj * yj[rows])
    return out


def norm_estimate(M):
    """One-norm (maximum column absolute sum): the matrix scale of the
    solver's relative residuals.  The border scale is :func:`two_norm_estimate`."""
    if M.nrows == 0 or M.ncols == 0:
        raise DimensionMismatch("norm_estimate of an empty-dimension matrix")
    sums = np.zeros(M.ncols)
    _, cols, vals = M.coo()
    np.add.at(sums, cols, np.abs(vals))
    return float(sums.max())


#: Power iterations of :func:`two_norm_estimate`
_NORM_ITERS = 40


def two_norm_estimate(M):
    """Deterministic randomized two-norm estimate (power iteration on M*M).

    Fixed seed and iteration count keep runs reproducible; the estimate is
    a slight underestimate of the spectral norm, which is all the border
    scale needs.
    """
    if M.nrows == 0 or M.ncols == 0:
        raise DimensionMismatch("two_norm_estimate of an empty-dimension matrix")
    rng = np.random.default_rng(0x2F0C)
    x = rng.standard_normal(M.ncols)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(_NORM_ITERS):
        y = spmv(M, x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = spmv_adjoint(M, y / ny)
        est = np.linalg.norm(x)
        if est == 0.0:
            return 0.0
        x /= est
    return float(np.sqrt(est * np.linalg.norm(spmv(M, x))))


def add_scaled(A, coef, B):
    """A + coef * B for matrices of identical shape."""
    if A.shape != B.shape:
        raise DimensionMismatch(f"add_scaled: shapes {A.shape} and {B.shape} differ")
    ra, ca, va = A.coo()
    rb, cb, vb = B.coo()
    return SparseMatrix.from_coo(
        A.nrows, A.ncols,
        np.concatenate([ra, rb]),
        np.concatenate([ca, cb]),
        np.concatenate([va, coef * vb]),
    )
