"""Sparse LU with partial pivoting, rank detection and border growth.

The factorization runs column by column (left-looking, lazy dense work
vector).  When every pivot candidate in the current Schur-complement column
falls below ``tau * alpha`` the column is declared a breakdown: a scaled
unit row is appended to the matrix (one more column of the border V), the
new row is pivoted into place with pivot value ``alpha``, and elimination
continues.  After all columns are processed, leftover rows receive scaled
unit border columns W so the bordered matrix

    [[M, W],
     [V*, 0]]

is square and nonsingular, with ``P @ bordered == (I + L) @ (D + U)``
exactly (up to rounding): L strictly lower, U strictly upper and D the
diagonal of pivots.  The number of breakdowns reveals the numerical rank
of M.

When the factor fills in, the sparse loop gives up and the factorization
restarts from column 0 in a dense blocked right-looking kernel with the
same pivot, tie-break and breakdown rules (the sparse-to-dense switch of
UMFPACK and CHOLMOD).  ``RankLU.path`` records which kernel produced the
factor; no option chooses it.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationError, NonFiniteInput
from .sparse import SparseMatrix, operand, two_norm_estimate

#: Columns per panel of the dense kernel; its working array also grows by
#: this many rows at a time.
_PANEL = 64
#: The sparse kernel restarts in the dense one after column ``t`` (from
#: ``_DENSE_MIN_COL`` on) once nnz(L+U) so far exceeds
#: ``_DENSE_FILL * (t + 1) * rows``, if the dense working array fits in
#: ``_DENSE_MAX_BYTES`` at the largest size it can grow to: one row per row
#: of M and per breakdown, at most one per column, plus a panel of slack.
_DENSE_MIN_COL = 31
_DENSE_FILL = 0.1
_DENSE_MAX_BYTES = 256 << 20


@dataclass(frozen=True)
class RankLU:
    """Factorization record of the bordered matrix.

    ``P @ [[M, W], [V*, 0]] == (I + L) @ (diag(pivots) + U)`` with L
    strictly lower triangular, U strictly upper triangular and no zero
    pivot (checked on construction, so the solves need not).  ``perm``
    stores P: row k of ``P @ X`` is row ``perm[k]`` of X.  ``V`` has one
    column ``alpha * e_i`` per breakdown step i (0-based column indices of M);
    ``W`` has one column ``alpha * e_r`` per row r of M that never became a
    pivot.  ``detected_rank = ncols - len(breakdown_steps)``.  ``path`` is
    ``"sparse"`` or ``"dense"``: the kernel that produced the factor.
    """

    perm: np.ndarray
    L: SparseMatrix
    U: SparseMatrix
    pivots: np.ndarray
    V: SparseMatrix
    W: SparseMatrix
    alpha: float
    tau: float
    breakdown_steps: np.ndarray
    breakdown_pivots: np.ndarray  # magnitudes of the rejected pivots (diagnostic)
    detected_rank: int
    nrows: int
    ncols: int
    path: str

    def __post_init__(self):
        if self.path not in ("sparse", "dense"):
            raise FactorizationError(f"unknown factor path {self.path!r}")
        bad = np.flatnonzero(self.pivots == 0.0)
        if bad.size:
            raise FactorizationError(f"zero pivot at column {bad[0]}")
        for name, T, strict in (("L", self.L, np.greater), ("U", self.U, np.less)):
            rows, cols, _ = T.coo()
            bad = cols[~strict(rows, cols)]
            if bad.size:
                raise FactorizationError(f"{name} is not strictly triangular at column {bad[0]}")

    @property
    def n_final(self):
        return self.nrows + len(self.breakdown_steps)

    @property
    def border_rows(self):
        """Number of appended rows (columns of V)."""
        return int(self.V.ncols)

    @property
    def border_cols(self):
        """Number of appended columns (columns of W)."""
        return int(self.W.ncols)

    @cached_property
    def _schedule(self):
        """What the solves read of the pattern, once per factor: for L and
        for U the column pointers as a list and the columns that hold an
        entry, in increasing order; and the mask of U's empty columns."""
        l, u = ((T.col_ptr.tolist(), np.flatnonzero(np.diff(T.col_ptr)).tolist())
                for T in (self.L, self.U))
        return l, u, np.diff(self.U.col_ptr) == 0


def factor(M, tau):
    """Rank-detecting LU of an ``n x m`` sparse matrix of any shape.

    Parameters
    ----------
    M : SparseMatrix
        The (shifted) pencil matrix.  A wide matrix needs no special
        handling: its surplus columns break down and append rows, so the
        bordered size ``n + len(V)`` always reaches ``m``.
    tau : float
        Relative pivot tolerance in ``[0, 1)``; a column whose largest
        remaining entry is below ``tau * alpha`` triggers border growth.
    """
    n, m = M.nrows, M.ncols
    if n == 0 or m == 0:
        raise FactorizationError("cannot factor a matrix with an empty dimension")
    if not (0.0 <= tau < 1.0):
        raise FactorizationError(f"tau must lie in [0, 1); got {tau} (tau >= 1 would border every column)")
    if not np.all(np.isfinite(M.values)):
        raise NonFiniteInput("cannot factor a matrix with a non-finite entry")
    # border scale: spectral-norm estimate, so appended rows match the
    # magnitude of the matrix entries rather than the (larger) column sums
    alpha = two_norm_estimate(M)
    if alpha == 0.0:
        raise FactorizationError("cannot factor an all-zero matrix")

    out = _factor_sparse(M, alpha, tau)
    path = "sparse"
    if out is None:
        out = _factor_dense(M, alpha, tau)
        path = "dense"
    perm, L, U, pivots, breakdown_steps, breakdown_pivots = out

    ell = len(breakdown_steps)
    wcols = len(perm) - m
    steps = np.array(breakdown_steps, dtype=np.int64)
    V = SparseMatrix.from_coo(m, ell, steps, np.arange(ell, dtype=np.int64),
                              np.full(ell, alpha, dtype=np.complex128))
    border = np.full(wcols, alpha, dtype=np.complex128)  # W's entries and its columns' pivots
    W = SparseMatrix.from_coo(n, wcols, perm[m:], np.arange(wcols, dtype=np.int64), border)

    return RankLU(
        perm=perm,
        L=L, U=U, pivots=np.concatenate((pivots, border)), V=V, W=W,
        alpha=float(alpha), tau=float(tau),
        breakdown_steps=steps,
        breakdown_pivots=np.array(breakdown_pivots, dtype=np.float64),
        detected_rank=m - ell,
        nrows=n, ncols=m,
        path=path,
    )


def _factor_sparse(M, alpha, tau):
    """Left-looking sparse kernel; returns ``(perm, L, U, pivots, breakdown
    steps, breakdown pivots)`` with the pivots of M's m columns, or None once
    the fill calls for the dense kernel."""
    n, m = M.nrows, M.ncols
    threshold = tau * alpha
    dense_fits = (n + m + _PANEL) * m * 16 <= _DENSE_MAX_BYTES
    cap = n + m  # upper bound on final size (at most one appended row per column)
    work = np.zeros(cap, dtype=np.complex128)
    touched = np.zeros(cap, dtype=bool)
    pinv = np.full(cap, -1, dtype=np.int64)       # source row -> pivot step
    pos_of_src = np.arange(cap, dtype=np.int64)
    src_of_pos = np.arange(cap, dtype=np.int64)
    l_rows, l_vals = [], []                       # per step, source-row indexed
    u_rows, u_vals = [], []                       # per column, position indexed
    pivots, breakdown_steps, breakdown_pivots = [], [], []
    n_cur = n
    nnz_lu = 0

    for t in range(m):
        heap = []
        touch = []
        rows, vals = M.column(t)
        for r, v in zip(rows.tolist(), vals.tolist()):
            work[r] = v
            touched[r] = True
            touch.append(r)
            k = pinv[r]
            if k >= 0:
                heapq.heappush(heap, int(k))

        # lower-triangular solve restricted to the nonzero pattern;
        # pivot steps are processed in increasing order (fill rows always
        # have later pivot steps, so the heap order is safe)
        urows_t, uvals_t = [], []
        while heap:
            k = heapq.heappop(heap)
            u = work[src_of_pos[k]]
            if u == 0.0:
                continue
            urows_t.append(k)
            uvals_t.append(u)
            lr = l_rows[k]
            if lr.size:
                work[lr] -= l_vals[k] * u
                fresh = lr[~touched[lr]]
                if fresh.size:
                    touched[fresh] = True
                    touch.extend(fresh.tolist())
                    for r in fresh.tolist():
                        k2 = pinv[r]
                        if k2 >= 0:
                            heapq.heappush(heap, int(k2))

        # partial pivot search in the Schur-complement column; ties break
        # towards the earliest current row position
        best_src, best_abs, best_pos = -1, 0.0, cap
        for r in touch:
            if pinv[r] < 0:
                a = abs(work[r])
                if a > best_abs or (a == best_abs and a > 0.0 and pos_of_src[r] < best_pos):
                    best_src, best_abs, best_pos = r, a, pos_of_src[r]

        if best_abs < threshold or best_abs == 0.0:
            # breakdown: append the row alpha * e_t and pivot on it
            breakdown_steps.append(t)
            breakdown_pivots.append(best_abs)
            r_new = n_cur
            n_cur += 1
            work[r_new] = alpha
            touched[r_new] = True
            touch.append(r_new)
            pivot_src = r_new
        else:
            pivot_src = best_src

        p = pos_of_src[pivot_src]
        q = src_of_pos[t]
        src_of_pos[t], src_of_pos[p] = pivot_src, q
        pos_of_src[pivot_src], pos_of_src[q] = t, p
        pinv[pivot_src] = t

        piv = work[pivot_src]
        pivots.append(piv)
        u_rows.append(np.array(urows_t, dtype=np.int64))
        u_vals.append(np.array(uvals_t, dtype=np.complex128))

        lr, lv = [], []
        for r in touch:
            if pinv[r] < 0 and work[r] != 0.0:
                lr.append(r)
                lv.append(work[r] / piv)
        l_rows.append(np.array(lr, dtype=np.int64))
        l_vals.append(np.array(lv, dtype=np.complex128))

        ta = np.array(touch, dtype=np.int64)
        work[ta] = 0.0
        touched[ta] = False

        nnz_lu += len(urows_t) + 1 + len(lr)  # the pivot counts
        if dense_fits and t >= _DENSE_MIN_COL and nnz_lu > _DENSE_FILL * (t + 1) * n_cur:
            return None

    def by_column(rows, vals):
        cols = np.repeat(np.arange(m), [r.size for r in vals])
        return SparseMatrix.from_coo(n_cur, n_cur, rows, cols, np.concatenate(vals))

    L = by_column(pos_of_src[np.concatenate(l_rows)], l_vals)
    U = by_column(np.concatenate(u_rows), u_vals)
    return src_of_pos[:n_cur].copy(), L, U, pivots, breakdown_steps, breakdown_pivots


def _factor_dense(M, alpha, tau):
    """Blocked right-looking kernel on a dense working array, with the
    sparse kernel's pivot, tie-break and breakdown rules; same return value
    as :func:`_factor_sparse`."""
    n, m = M.nrows, M.ncols
    threshold = tau * alpha
    # rows are current positions; the bordered size reaches max(n, m)
    A = np.zeros((max(n, m) + _PANEL, m), dtype=np.complex128)
    A[M.row_idx, np.repeat(np.arange(m), np.diff(M.col_ptr))] = M.values
    src_of_pos = np.arange(n + m, dtype=np.int64)
    breakdown_steps, breakdown_pivots = [], []
    n_cur = n

    for k0 in range(0, m, _PANEL):
        k1 = min(k0 + _PANEL, m)
        for t in range(k0, k1):
            mags = np.abs(A[t:n_cur, t])
            best = mags.max(initial=0.0)
            if best < threshold or best == 0.0:
                # breakdown: the row alpha * e_t takes position t and the
                # displaced row moves to a new last position; the U row is
                # alpha * e_t, so there is no update to make
                breakdown_steps.append(t)
                breakdown_pivots.append(best)
                if n_cur == len(A):
                    A = np.concatenate((A, np.zeros((_PANEL, m), dtype=np.complex128)))
                A[n_cur] = A[t]
                A[t] = 0.0
                A[t, t] = alpha
                src_of_pos[n_cur] = src_of_pos[t]
                src_of_pos[t] = n_cur
                n_cur += 1
                A[t + 1:n_cur, t] /= alpha
            else:
                p = t + int(np.argmax(mags))  # the first maximum: earliest position
                if p != t:
                    A[[t, p]] = A[[p, t]]
                    src_of_pos[[t, p]] = src_of_pos[[p, t]]
                A[t + 1:n_cur, t] /= A[t, t]
                A[t + 1:n_cur, t + 1:k1] -= np.outer(A[t + 1:n_cur, t], A[t, t + 1:k1])
        if k1 < m:
            # U12 rows: forward substitution with the panel's unit-lower L11
            for i in range(k0, k1 - 1):
                A[i + 1:k1, k1:] -= np.outer(A[i + 1:k1, i], A[i, k1:])
            A[k1:n_cur, k1:] -= A[k1:n_cur, k0:k1] @ A[k0:k1, k1:]

    A = A[:n_cur]
    pos = np.arange(n_cur)[:, None]
    col = np.arange(m)
    nonzero = A != 0.0
    L = _csc_from_mask(A, nonzero & (pos > col))
    U = _csc_from_mask(A, nonzero & (pos < col))
    return src_of_pos[:n_cur].copy(), L, U, A[col, col], breakdown_steps, breakdown_pivots


def _csc_from_mask(A, mask):
    """Square ``n_final x n_final`` CSC matrix holding the entries of the
    ``n_final x m`` array ``A`` where ``mask`` is set."""
    nf = len(A)
    cols, rows = np.nonzero(mask.T)  # column-major order, as CSC stores it
    col_ptr = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=nf), out=col_ptr[1:])
    return SparseMatrix(nf, nf, col_ptr, rows, A[rows, cols])


def solve(F, b):
    """Solve ``[[M, W], [V*, 0]] x = b`` through the stored P, L, U and
    pivots, for a vector b or an ``(n_final, k)`` block of right-hand sides."""
    b = operand(b, F.n_final, "solve")
    # a block broadcasts each column update of the factor across its columns
    shape, nonzero = ((-1,), bool) if b.ndim == 1 else ((-1, 1), np.count_nonzero)
    (l_ptr, l_filled), (u_ptr, u_filled), u_empty = F._schedule
    y = b[F.perm]  # apply P
    ptr, rows, vals = l_ptr, F.L.row_idx, F.L.values.reshape(shape)
    for j in l_filled:
        yj = y[j]
        if nonzero(yj):
            s, e = ptr[j], ptr[j + 1]
            y[rows[s:e]] -= vals[s:e] * yj
    piv = F.pivots.reshape(shape)
    ptr, rows, vals = u_ptr, F.U.row_idx, F.U.values.reshape(shape)
    for j in reversed(u_filled):
        xj = y[j] / piv[j]
        y[j] = xj
        if nonzero(xj):
            s, e = ptr[j], ptr[j + 1]
            y[rows[s:e]] -= vals[s:e] * xj
    # the rows of U's empty columns: every update has reached them by now
    y[u_empty] /= piv[u_empty]
    return y


def solve_adjoint(F, b):
    """Solve the conjugate-transposed bordered system ``[[M, W], [V*, 0]]* y = b``
    for a vector b or an ``(n_final, k)`` block of right-hand sides."""
    b = operand(b, F.n_final, "solve_adjoint")
    (l_ptr, l_filled), (u_ptr, u_filled), _ = F._schedule
    piv = np.conj(F.pivots)
    # the answer in the rows of U's empty columns, which nothing updates
    z = b / piv.reshape((-1,) if b.ndim == 1 else (-1, 1))
    ptr, rows, vals = u_ptr, F.U.row_idx, F.U.values
    for j in u_filled:  # U* is lower triangular: forward substitution
        s, e = ptr[j], ptr[j + 1]
        z[j] = (b[j] - np.conj(vals[s:e]) @ z[rows[s:e]]) / piv[j]
    ptr, rows, vals = l_ptr, F.L.row_idx, F.L.values
    for j in reversed(l_filled):  # L* is upper triangular: back substitution
        s, e = ptr[j], ptr[j + 1]
        z[j] -= np.conj(vals[s:e]) @ z[rows[s:e]]
    x = np.empty_like(z)
    x[F.perm] = z  # apply P*
    return x
