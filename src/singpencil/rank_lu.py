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

is square and nonsingular, with ``P @ bordered == L @ U`` exactly (up to
rounding).  The number of breakdowns reveals the numerical rank of M.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FactorizationError
from .sparse import SparseMatrix, two_norm_estimate


@dataclass(frozen=True)
class RankLU:
    """Factorization record of the bordered matrix.

    ``P @ [[M, W], [V*, 0]] == L @ U`` with L unit lower triangular and U
    upper triangular with nonzero diagonal (checked on construction, so
    the solves need not).  ``perm`` stores P: row k of ``P @ X`` is row
    ``perm[k]`` of X.  ``V`` has one column
    ``alpha * e_i`` per breakdown step i (0-based column indices of M);
    ``W`` has one column ``alpha * e_r`` per row r of M that never became a
    pivot.  ``detected_rank = ncols - len(breakdown_steps)``.
    """

    perm: np.ndarray
    L: SparseMatrix
    U: SparseMatrix
    V: SparseMatrix
    W: SparseMatrix
    alpha: float
    tau: float
    breakdown_steps: np.ndarray
    breakdown_pivots: np.ndarray  # magnitudes of the rejected pivots (diagnostic)
    detected_rank: int
    nrows: int
    ncols: int

    def __post_init__(self):
        # the solves divide by the last stored entry of each U column, so
        # it must be the diagonal (stored entries are never exact zeros)
        end = self.U.col_ptr[1:]
        has_diag = end > self.U.col_ptr[:-1]
        cols = np.flatnonzero(has_diag)
        has_diag[cols] = self.U.row_idx[end[cols] - 1] == cols
        bad = np.flatnonzero(~has_diag)
        if bad.size:
            raise FactorizationError(f"U has a zero diagonal entry at column {bad[0]}")

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
    # border scale: spectral-norm estimate, so appended rows match the
    # magnitude of the matrix entries rather than the (larger) column sums
    alpha = two_norm_estimate(M)
    if alpha == 0.0:
        raise FactorizationError("cannot factor an all-zero matrix")
    threshold = tau * alpha

    cap = n + m  # upper bound on final size (at most one appended row per column)
    work = np.zeros(cap, dtype=np.complex128)
    touched = np.zeros(cap, dtype=bool)
    pinv = np.full(cap, -1, dtype=np.int64)       # source row -> pivot step
    perm = np.full(cap, -1, dtype=np.int64)       # pivot step -> source row
    pos_of_src = np.arange(cap, dtype=np.int64)
    src_of_pos = np.arange(cap, dtype=np.int64)
    stamp = np.full(m, -1, dtype=np.int64)        # heap dedup per column
    l_rows, l_vals = [], []                       # per step, source-row indexed
    u_rows, u_vals = [], []                       # per column, position indexed
    breakdown_steps, breakdown_pivots = [], []
    n_cur = n

    for t in range(m):
        heap = []
        touch = []
        rows, vals = M.column(t)
        for r, v in zip(rows.tolist(), vals.tolist()):
            work[r] = v
            touched[r] = True
            touch.append(r)
            k = pinv[r]
            if k >= 0 and stamp[k] != t:
                stamp[k] = t
                heapq.heappush(heap, int(k))

        # lower-triangular solve restricted to the nonzero pattern;
        # pivot steps are processed in increasing order (fill rows always
        # have later pivot steps, so the heap order is safe)
        urows_t, uvals_t = [], []
        while heap:
            k = heapq.heappop(heap)
            u = work[perm[k]]
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
                        if k2 >= 0 and stamp[k2] != t:
                            stamp[k2] = t
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
        perm[t] = pivot_src
        pinv[pivot_src] = t

        piv = work[pivot_src]
        urows_t.append(t)
        uvals_t.append(piv)
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

    ell = len(breakdown_steps)
    n_final = n_cur
    wcols = n_final - m
    detected_rank = m - ell
    leftovers = src_of_pos[m:n_final].copy()
    for j, r in enumerate(leftovers.tolist()):
        perm[m + j] = r
        pinv[r] = m + j

    # assemble L (unit lower triangular; trailing border columns are identity)
    lr_all, lc_all, lv_all = [], [], []
    for t in range(m):
        if l_rows[t].size:
            lr_all.append(pos_of_src[l_rows[t]])
            lc_all.append(np.full(l_rows[t].size, t, dtype=np.int64))
            lv_all.append(l_vals[t])
    diag = np.arange(n_final, dtype=np.int64)
    lr_all.append(diag)
    lc_all.append(diag)
    lv_all.append(np.ones(n_final, dtype=np.complex128))
    L = SparseMatrix.from_coo(n_final, n_final,
                              np.concatenate(lr_all), np.concatenate(lc_all),
                              np.concatenate(lv_all))

    # assemble U (border columns are alpha on the diagonal, zero elsewhere)
    ur_all = list(u_rows)
    uc_all = [np.full(c.size, t, dtype=np.int64) for t, c in enumerate(u_rows)]
    uv_all = list(u_vals)
    if wcols:
        ur_all.append(np.arange(m, n_final, dtype=np.int64))
        uc_all.append(np.arange(m, n_final, dtype=np.int64))
        uv_all.append(np.full(wcols, alpha, dtype=np.complex128))
    U = SparseMatrix.from_coo(n_final, n_final,
                              np.concatenate(ur_all), np.concatenate(uc_all),
                              np.concatenate(uv_all))

    steps = np.array(breakdown_steps, dtype=np.int64)
    V = SparseMatrix.from_coo(m, ell, steps, np.arange(ell, dtype=np.int64),
                              np.full(ell, alpha, dtype=np.complex128))
    W = SparseMatrix.from_coo(n, wcols, leftovers, np.arange(wcols, dtype=np.int64),
                              np.full(wcols, alpha, dtype=np.complex128))

    return RankLU(
        perm=perm[:n_final].copy(),
        L=L, U=U, V=V, W=W,
        alpha=float(alpha), tau=float(tau),
        breakdown_steps=steps,
        breakdown_pivots=np.array(breakdown_pivots, dtype=np.float64),
        detected_rank=int(detected_rank),
        nrows=n, ncols=m,
    )


def solve(F, b):
    """Solve ``[[M, W], [V*, 0]] x = b`` through the stored P, L, U."""
    b = np.asarray(b, dtype=np.complex128).ravel()
    nf = F.n_final
    if b.size != nf:
        raise DimensionMismatch(f"solve: rhs length {b.size} != {nf}")
    y = b[F.perm]  # apply P
    L, U = F.L, F.U
    for j in range(nf):
        yj = y[j]
        if yj != 0.0:
            rows, vals = L.column(j)
            if rows.size > 1:
                y[rows[1:]] -= vals[1:] * yj
    for j in range(nf - 1, -1, -1):
        rows, vals = U.column(j)
        xj = y[j] / vals[-1]
        y[j] = xj
        if xj != 0.0 and rows.size > 1:
            y[rows[:-1]] -= vals[:-1] * xj
    return y


def solve_adjoint(F, b):
    """Solve the conjugate-transposed bordered system ``[[M, W], [V*, 0]]* y = b``."""
    b = np.asarray(b, dtype=np.complex128).ravel()
    nf = F.n_final
    if b.size != nf:
        raise DimensionMismatch(f"solve_adjoint: rhs length {b.size} != {nf}")
    L, U = F.L, F.U
    z = np.empty(nf, dtype=np.complex128)
    for j in range(nf):  # U* is lower triangular: forward substitution
        rows, vals = U.column(j)
        s = b[j]
        if rows.size > 1:
            s -= np.vdot(vals[:-1], z[rows[:-1]])
        z[j] = s / np.conj(vals[-1])
    for j in range(nf - 1, -1, -1):  # L* is upper triangular: back substitution
        rows, vals = L.column(j)
        if rows.size > 1:
            z[j] -= np.vdot(vals[1:], z[rows[1:]])
    x = np.empty_like(z)
    x[F.perm] = z  # apply P*
    return x
