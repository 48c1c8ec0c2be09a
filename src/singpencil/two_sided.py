"""Two-sided Arnoldi driver: forward and adjoint Krylov spaces, projection
onto a small generalized problem, eigentriplet extraction, and the
true/spurious/infinite classification by border-component norms.

True eigenvalues of the original pencil have right and left eigenvectors
whose border coordinates vanish; spurious eigenvalues (inherited from the
singular part) show order-one border components.  Full-column-rank
rectangular problems skip the adjoint side and classify on the right
border only.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import arnoldi as _arnoldi
from . import dense
from .bordered import ShiftInvertOperator, p_matrix, regularize
from .errors import PurificationError, SingPencilError
from .sparse import norm_estimate, spmv, spmv_adjoint

LABEL_TRUE = "True"
LABEL_SPURIOUS = "Spurious"
LABEL_INFINITE = "Infinite"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the singular-pencil solve.

    ``krylov_steps`` counts Arnoldi iterations before restarting;
    ``implicit_restarts`` zero-shift restarts each shorten the space by one
    and filter infinite-eigenvalue components.  ``classify_threshold`` is
    the border-norm cut between true and spurious on unit vectors.  An
    out-of-range value (a non-finite ``sigma``, a ``tau`` outside
    ``[0, 1)``, ...) raises ``ValueError``.
    """

    sigma: complex = 0.0
    tau: float = 1e-12
    krylov_steps: int = 20
    implicit_restarts: int = 1
    classify_threshold: float = 1e-6
    seed: int = 42
    p_kind: str = "identity_block"
    force_two_sided: bool = False

    def __post_init__(self):
        if not np.isfinite(complex(self.sigma)):
            raise ValueError(f"sigma must be finite; got {self.sigma}")
        if not (0.0 <= self.tau < 1.0):
            raise ValueError(f"tau must lie in [0, 1); got {self.tau}")
        if self.krylov_steps <= self.implicit_restarts:
            raise ValueError("krylov_steps must exceed implicit_restarts")
        if self.implicit_restarts < 0:
            raise ValueError("implicit_restarts must be >= 0")
        if not (0.0 < self.classify_threshold < 1.0):
            raise ValueError("classify_threshold must lie in (0, 1)")
        if self.p_kind not in ("identity_block", "b_block"):
            raise ValueError(f"unknown p_kind {self.p_kind!r}")


@dataclass(frozen=True)
class EigenTriplet:
    """Ritz triplet with border diagnostics.

    ``x`` is the right Ritz vector on the bordered system (unit two-norm);
    ``y`` the left one (``None`` in one-sided mode).  Border norms are the
    two-norms of the trailing border coordinates.  ``residual_right`` is
    the explicit relative pencil residual in two-sided mode and the Arnoldi
    recurrence estimate (before purification) in one-sided mode.
    """

    lam: complex
    infinite: bool
    x: np.ndarray
    y: np.ndarray | None
    x_border_norm: float
    y_border_norm: float | None
    residual_right: float
    residual_left: float | None
    label: str = ""
    flags: tuple = ()


@dataclass(frozen=True)
class SolveResult:
    triplets: list
    bordered: object
    config: SolverConfig
    one_sided: bool
    timings: dict


def classify(t, threshold):
    """Label a triplet: Infinite overrides everything; True needs every
    available border norm below the threshold; anything else is Spurious."""
    if t.infinite:
        return LABEL_INFINITE
    if t.y_border_norm is None:
        return LABEL_TRUE if t.x_border_norm < threshold else LABEL_SPURIOUS
    if max(t.x_border_norm, t.y_border_norm) < threshold:
        return LABEL_TRUE
    return LABEL_SPURIOUS


def _run_side(S, p, cfg, seed):
    """One Arnoldi run plus restarts.

    A kernel breakdown in the very first step means the start vector was
    unlucky: retry once with a fresh seeded vector.  A kernel breakdown
    later is ordinary exhaustion of the seminorm-visible Krylov space and
    the truncated decomposition is used as is.
    """
    for attempt in range(2):
        v0 = _arnoldi.start_vector(S, seed + 7001 * attempt)
        d = _arnoldi.arnoldi_run(S, v0, p, cfg.krylov_steps)
        if not (d.breakdown == "kernel" and d.steps < 2):
            break
    else:
        raise SingPencilError("Arnoldi trapped in the seminorm kernel twice")
    for _ in range(cfg.implicit_restarts):
        if not d.exact and d.steps < 2:
            break
        d = _arnoldi.implicit_restart_infinity(d)
    if d.steps < 1:
        raise SingPencilError("empty Krylov basis")
    return d


def _border_norm(vec, leading):
    return float(np.linalg.norm(vec[leading:]))


def _residual(A_hat, B_hat, lam, infinite, vec, a_norm, b_norm, adjoint_side=False):
    mv = spmv_adjoint if adjoint_side else spmv
    if infinite:
        return float(np.linalg.norm(mv(B_hat, vec)) / max(b_norm, 1e-300))
    scale = a_norm + abs(lam) * b_norm
    r = mv(A_hat, vec) - (np.conj(lam) if adjoint_side else lam) * mv(B_hat, vec)
    return float(np.linalg.norm(r) / max(scale, 1e-300))


def solve_singular_full(p, cfg):
    """Full pipeline; returns triplets plus the bordered pencil and timings."""
    timings = {}
    t0 = time.perf_counter()
    bp = regularize(p, cfg.sigma, cfg.tau)
    timings["factor"] = time.perf_counter() - t0

    one_sided = (not p.is_square) and bp.V.ncols == 0 and not cfg.force_two_sided
    S = ShiftInvertOperator(bp, "forward")
    Pf = p_matrix(bp, cfg.p_kind, adjoint_side=False)

    t0 = time.perf_counter()
    fwd = _run_side(S, Pf, cfg, cfg.seed)
    adj = None
    if not one_sided:
        Sa = ShiftInvertOperator(bp, "transposed_pencil")
        Pa = p_matrix(bp, cfg.p_kind, adjoint_side=True)
        adj = _run_side(Sa, Pa, cfg, cfg.seed + 104729)
    timings["arnoldi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if one_sided:
        triplets = _one_sided_triplets(bp, fwd, cfg)
    else:
        triplets = _two_sided_triplets(bp, fwd, adj, cfg)
    timings["projection"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    order = {LABEL_TRUE: 0, LABEL_SPURIOUS: 1, LABEL_INFINITE: 2}
    triplets.sort(key=lambda t: (order[t.label], t.lam.real if not t.infinite else 0.0,
                                 t.lam.imag if not t.infinite else 0.0))
    return SolveResult(triplets=triplets, bordered=bp, config=cfg,
                       one_sided=one_sided, timings=timings)


def solve_singular(p, cfg):
    """Solve a singular (square or rectangular) pencil; returns classified
    eigentriplets nearest the shift."""
    return solve_singular_full(p, cfg).triplets


def _normalize(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _one_sided_triplets(bp, d, cfg):
    pairs = _arnoldi.ritz_pairs(d)
    m = bp.base.ncols
    basis = d.basis[:, :d.steps]
    theta_scale = np.linalg.norm(d.square_hess, 2)
    out = []
    for rp in pairs:
        infinite = abs(rp.theta) < dense.INF_THETA_RTOL * max(theta_scale, 1e-300)
        lam = np.inf if infinite else cfg.sigma + 1.0 / rp.theta
        x = _normalize(basis @ rp.z)
        if not infinite:
            try:
                x = _arnoldi.purify(bp, x)
            except PurificationError:
                infinite, lam = True, np.inf
        t = EigenTriplet(
            lam=complex(lam) if not infinite else complex(np.inf),
            infinite=infinite, x=x, y=None,
            x_border_norm=_border_norm(x, m),
            y_border_norm=None,
            residual_right=rp.residual_estimate,
            residual_left=None,
        )
        out.append(replace(t, label=classify(t, cfg.classify_threshold)))
    return out


def _two_sided_triplets(bp, fwd, adj, cfg):
    k = min(fwd.steps, adj.steps)
    if k < 1:
        raise SingPencilError("empty Krylov basis")
    Vk = fwd.basis[:, :k]
    Wk = adj.basis[:, :k]
    A_hat_big = bp.shifted_matrix
    B_hat_big = bp.b_matrix
    AV = np.column_stack([spmv(A_hat_big, Vk[:, j]) for j in range(k)])
    BV = np.column_stack([spmv(B_hat_big, Vk[:, j]) for j in range(k)])
    Ahat_full = Wk.conj().T @ AV
    Bhat_full = Wk.conj().T @ BV
    # exactly solved subspaces can leave degenerate trailing directions;
    # shrink until the projected matrix is comfortably invertible
    eig = None
    while k >= 1:
        Ahat = Ahat_full[:k, :k]
        Bhat = Bhat_full[:k, :k]
        if np.linalg.cond(Ahat) <= 1e15:
            eig = dense.small_generalized_eig(Ahat, Bhat, sigma=cfg.sigma)
            break
        k -= 1
    if eig is None:
        raise SingPencilError("projected pencil is degenerate at every dimension")
    Vk = Vk[:, :k]
    Wk = Wk[:, :k]

    n, m = bp.base.nrows, bp.base.ncols
    a_norm = norm_estimate(bp.a_matrix)
    b_norm = norm_estimate(bp.b_matrix) if bp.b_matrix.nnz else 0.0
    out = []
    for i in range(k):
        infinite = bool(eig.infinite[i])
        lam = eig.eigenvalues[i]
        x = _normalize(Vk @ eig.right_vectors[:, i])
        y = _normalize(Wk @ eig.left_vectors[:, i])
        if not infinite:
            try:
                x = _arnoldi.purify(bp, x)
            except PurificationError:
                infinite, lam = True, np.inf
        if not infinite:
            try:
                y = _arnoldi.purify(bp, y, adjoint_side=True)
            except PurificationError:
                infinite, lam = True, np.inf
        xb = _border_norm(x, m)
        yb = _border_norm(y, n)
        res_r = _residual(bp.a_matrix, bp.b_matrix, lam, infinite, x, a_norm, b_norm)
        res_l = _residual(bp.a_matrix, bp.b_matrix, lam, infinite, y, a_norm, b_norm,
                          adjoint_side=True)
        t = EigenTriplet(
            lam=complex(lam) if not infinite else complex(np.inf),
            infinite=infinite, x=x, y=y,
            x_border_norm=xb, y_border_norm=yb,
            residual_right=res_r, residual_left=res_l,
        )
        label = classify(t, cfg.classify_threshold)
        thr = cfg.classify_threshold
        flags = ()
        if label == LABEL_SPURIOUS and (xb < thr) != (yb < thr):
            flags = ("asymmetric-border",)
        out.append(replace(t, label=label, flags=flags))
    return out


@dataclass(frozen=True)
class TauSweepRow:
    tau: float
    border_rows: int
    border_cols: int
    detected_rank: int


@dataclass(frozen=True)
class TauSweepReport:
    rows: list

    def to_text(self):
        lines = [f"{'tau':>12}  {'border_rows':>11}  {'border_cols':>11}  {'detected_rank':>13}"]
        for r in self.rows:
            lines.append(f"{r.tau:>12.3e}  {r.border_rows:>11d}  {r.border_cols:>11d}  {r.detected_rank:>13d}")
        return "\n".join(lines)


def tau_sweep(p, cfg, taus):
    """Factor at several tolerances and report the border dimensions, so a
    user can pick a tau where the border size is stable."""
    if not taus:
        raise ValueError("taus must be nonempty")
    rows = []
    for tau in taus:
        bp = regularize(p, cfg.sigma, tau)
        rows.append(TauSweepRow(tau=float(tau),
                                border_rows=bp.V.ncols,
                                border_cols=bp.W.ncols,
                                detected_rank=bp.normal_rank))
    return TauSweepReport(rows=rows)


# -- result serialization ----------------------------------------------------


def _fmt_lam(t):
    if t.infinite:
        return "inf"
    if abs(t.lam.imag) < 5e-13 * max(1.0, abs(t.lam.real)):
        return f"{t.lam.real:.6g}"
    sign = "+" if t.lam.imag >= 0 else "-"
    return f"{t.lam.real:.6g}{sign}{abs(t.lam.imag):.6g}i"


def result_table_text(result):
    """Fixed-width text table, one row per triplet.

    Two-sided runs show left/right border norms; one-sided runs show the
    recurrence residual and the right border norm.
    """
    lines = []
    if result.one_sided:
        lines.append(f"{'eigenvalue':>22}  {'residual':>12}  {'x_border':>12}  label")
        for t in result.triplets:
            lines.append(f"{_fmt_lam(t):>22}  {t.residual_right:>12.3e}  "
                         f"{t.x_border_norm:>12.3e}  {t.label}")
    else:
        lines.append(f"{'eigenvalue':>22}  {'y_border':>12}  {'x_border':>12}  label")
        for t in result.triplets:
            lines.append(f"{_fmt_lam(t):>22}  {t.y_border_norm:>12.3e}  "
                         f"{t.x_border_norm:>12.3e}  {t.label}")
    flagged = [t for t in result.triplets if t.flags]
    for t in flagged:
        lines.append(f"# note: {_fmt_lam(t)} flagged {','.join(t.flags)}")
    return "\n".join(lines)


def triplet_to_dict(t):
    d = {
        "eigenvalue": "inf" if t.infinite else [t.lam.real, t.lam.imag],
        "infinite": bool(t.infinite),
        "x_border_norm": t.x_border_norm,
        "y_border_norm": t.y_border_norm,
        "residual_right": t.residual_right,
        "residual_left": t.residual_left,
        "label": t.label,
        "flags": list(t.flags),
    }
    return d


def result_to_dict(result):
    bp = result.bordered
    cfg = result.config
    return {
        "schema_version": 1,
        "mode": "one_sided" if result.one_sided else "two_sided",
        "shift": [complex(cfg.sigma).real, complex(cfg.sigma).imag],
        "config": {
            "tau": cfg.tau,
            "krylov_steps": cfg.krylov_steps,
            "implicit_restarts": cfg.implicit_restarts,
            "classify_threshold": cfg.classify_threshold,
            "seed": cfg.seed,
            "p_kind": cfg.p_kind,
        },
        "border": {
            "rows": int(bp.V.ncols),
            "cols": int(bp.W.ncols),
            "detected_rank": int(bp.normal_rank),
            "alpha": bp.lu.alpha,
            "tau": bp.lu.tau,
        },
        "results": [triplet_to_dict(t) for t in result.triplets],
        "timings": result.timings,
    }


def result_to_json(result, **kwargs):
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True, **kwargs)
