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
UMFPACK and CHOLMOD).  Every panel of ``_PANEL`` columns, the last one
included, is a column loop, one triangular solve for its U rows and one
product for the trailing rows (on zero columns after the last panel), as
in LAPACK's ``getrf``.  ``RankLU.path`` records which kernel produced the
factor; no option chooses it.

The solves run through a plan built once per factor, on the first solve.
``diag(pivots) + U == (I + U diag(pivots)^-1) diag(pivots)``, so both
triangles are unit triangular.  Their columns split into blocks of
``_BLOCK``; each block keeps the explicit inverse of its diagonal part
and its other entries as one dense panel over the rows they touch; a
block with no entry is skipped, as is every block of an empty U.  A
solve is then two matrix products per block, ``x = inv @ y[j0:j1]`` and
``y[rows] -= panel @ x``: forward over L, backward over U, and one
division by the pivots; ``solve_adjoint`` runs the same plan transposed.
A vector is a block of one column; a block of zero columns runs the same plan.

Explicit inverses add an error that grows with the condition of the
diagonal blocks (Du Croz and Higham, IMA J. Numer. Anal. 12, 1992;
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch.
8 and 13-14).  ``RankLU.block_inverse_max`` records the largest |entry|
of the inverses.  For L, whose entries are at most about 1 in magnitude,
it is at most 2^(b-2) (2^14 at b = 16; the worst case is every entry
-1); for U no bound holds.  Measured: 1 on rectangular pencils, 2.2-2.9
on quadratic ones, 2.2-13 on random rank-deficient matrices, and
1e9-1e15 on the perturbed order-10 pencil, whose factor takes a pivot of
1e-9 or of rounding size; there the solves' backward error still read
about 1e-16, as it did with column-by-column substitution.
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
#: Columns per block of the solve plan (see :func:`_unit_steps`).
_BLOCK = 16
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
    def _plan(self):
        """The blocked solve plan, built on the first solve: the steps of
        ``I + L`` and of ``I + U diag(pivots)^-1`` (see :func:`_unit_steps`)
        and the column of reciprocal pivots."""
        return (_unit_steps(self.L, lower=True),
                _unit_steps(self.U, lower=False, pivots=self.pivots),
                (1.0 / self.pivots)[:, None])

    @property
    def block_inverse_max(self):
        """Largest |entry| of the solve plan's inverted diagonal blocks; 1
        when every diagonal block is the identity.  Builds the plan if no
        solve has yet (see the module docstring)."""
        lower, upper, _ = self._plan
        return max((float(np.abs(inv).max()) for _, _, inv, _, _ in lower + upper), default=1.0)


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
    rows, cols, vals = M.coo()
    A[rows, cols] = vals
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
        # U12 rows: one solve with the panel's unit-lower L11 (none after the last panel)
        L11 = np.tril(A[k0:k1, k0:k1], -1) + np.eye(k1 - k0)
        A[k0:k1, k1:] = np.linalg.solve(L11, A[k0:k1, k1:])
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


def _unit_steps(T, lower, pivots=None):
    """Steps of the blocked solve with the unit triangle ``I + T`` (T
    strictly lower if ``lower``, else strictly upper) or, given ``pivots``,
    with ``I + T diag(pivots)^-1``.

    The columns split into blocks of ``_BLOCK``.  A block leads to a step
    ``(j0, j1, inv, rows, panel)`` if it holds an entry: ``inv`` is the
    inverse of its diagonal part (the identity if that part holds no
    entry) and ``panel`` holds its other entries, densely over the
    ``rows`` they touch (a slice when those are contiguous), or is None.
    All inverses are views into one stack and all panels into one array,
    whatever the number of blocks: many small arrays would stay on the
    heap between solves."""
    n, ptr, b = T.ncols, T.col_ptr, _BLOCK
    mark = np.zeros(n, dtype=bool)
    layout, n_pan = [], 0
    for j0 in range(0, n, b):
        j1 = min(j0 + b, n)
        s, e = ptr[j0], ptr[j1]
        if s == e:
            continue
        rows = T.row_idx[s:e]
        inside = rows < j1 if lower else rows >= j0
        touched = rows[~inside]
        if touched.size:  # the rows outside the block, in increasing order
            lo = touched.min()
            mark[touched] = True
            touched = lo + np.flatnonzero(mark[lo:touched.max() + 1])
            mark[touched] = False
        layout.append((j0, j1, s, e, inside, touched))
        n_pan += touched.size * (j1 - j0)
    # the diagonal parts go straight into the stack (a narrow last block
    # padded with the identity) and are inverted there
    inverses = np.zeros((len(layout), b, b), dtype=np.complex128)
    inverses[:, np.arange(b), np.arange(b)] = 1.0
    panels = np.zeros(n_pan, dtype=np.complex128)
    pos = np.empty(n, dtype=np.int64)
    steps, p = [], 0
    for a, (j0, j1, s, e, inside, touched) in enumerate(layout):
        w = j1 - j0
        cols = np.repeat(np.arange(w), np.diff(ptr[j0:j1 + 1]))
        rows, vals = T.row_idx[s:e], T.values[s:e]
        if pivots is not None:
            vals = vals / pivots[j0 + cols]
        inverses[a, rows[inside] - j0, cols[inside]] = vals[inside]
        panel = sel = None
        if touched.size:
            out = ~inside
            pos[touched] = np.arange(touched.size)
            panel = panels[p:p + touched.size * w].reshape(touched.size, w)
            panel[pos[rows[out]], cols[out]] = vals[out]
            p += touched.size * w
            lo, hi = int(touched[0]), int(touched[-1]) + 1
            sel = slice(lo, hi) if hi - lo == touched.size else touched
        steps.append((j0, j1, inverses[a, :w, :w], sel, panel))
    for a in range(0, len(layout), 64):  # 64 blocks at a time keeps the temporary small
        inverses[a:a + 64] = np.linalg.inv(inverses[a:a + 64])
    return steps


def _substitute(steps, y):
    """Run ``steps`` on the ``(n, k)`` block y in place: finish a block,
    then subtract its panel's update from the rows it touches."""
    for j0, j1, inv, rows, panel in steps:
        y[j0:j1] = inv @ y[j0:j1]
        if panel is not None:
            y[rows] -= panel @ y[j0:j1]


def _substitute_transposed(steps, y):
    """Run ``steps`` transposed on y in place: gather a block's updates
    from the rows its panel touches, then finish it."""
    for j0, j1, inv, rows, panel in steps:
        if panel is not None:
            y[j0:j1] -= panel.T @ y[rows]
        y[j0:j1] = inv.T @ y[j0:j1]


def solve(F, b):
    """Solve ``[[M, W], [V*, 0]] x = b`` through the stored P, L, U and
    pivots, for a vector b or an ``(n_final, k)`` block of right-hand sides.

    ``(I + L) (diag(pivots) + U) = (I + L) (I + U diag(pivots)^-1)
    diag(pivots)``: forward over L's blocks, backward over U's, then one
    division by the pivots."""
    b = operand(b, F.n_final, "solve")
    lower, upper, recip = F._plan
    y = b[F.perm].reshape(F.n_final, -1)  # apply P
    _substitute(lower, y)
    _substitute(reversed(upper), y)
    y *= recip
    return y.reshape(b.shape)


def solve_adjoint(F, b):
    """Solve the conjugate-transposed bordered system ``[[M, W], [V*, 0]]* y = b``
    for a vector b or an ``(n_final, k)`` block of right-hand sides, through
    the plan of :func:`solve` transposed and in reverse.  It runs on the
    conjugate of the answer, ``conj(A* y) == A.T conj(y)``, so no
    conjugate of the plan is formed."""
    b = operand(b, F.n_final, "solve_adjoint")
    lower, upper, recip = F._plan
    z = b.reshape(F.n_final, -1).conj() * recip
    _substitute_transposed(upper, z)
    _substitute_transposed(reversed(lower), z)
    x = np.empty_like(z)
    x[F.perm] = z.conj()  # apply P*
    return x.reshape(b.shape)
