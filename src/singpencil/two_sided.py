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
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from . import arnoldi as _arnoldi
from . import dense
from .bordered import ShiftInvertOperator, regularize
from .errors import ConvergenceError, SingPencilError
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
    the border-norm cut between true and spurious on unit vectors.  A
    numpy number is stored as the Python one.  A ``bool``, a non-finite
    ``sigma``, a ``tau`` outside ``[0, 1)``, a negative ``seed``, a
    non-integer ``krylov_steps``, ... raises ``ValueError``.
    """

    sigma: complex = 0.0
    tau: float = 1e-12
    krylov_steps: int = 20
    implicit_restarts: int = 1
    classify_threshold: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        for name in ("krylov_steps", "implicit_restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer; got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is not JSON
        for name, abc, cast in (("sigma", numbers.Complex, complex), ("tau", numbers.Real, float),
                                ("classify_threshold", numbers.Real, float)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, abc):
                raise ValueError(f"{name} must be a {abc.__name__.lower()} number; got {value!r}")
            object.__setattr__(self, name, cast(value))  # nor is a numpy float or complex
        if not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite; got {self.sigma}")
        if not (0.0 <= self.tau < 1.0):
            raise ValueError(f"tau must lie in [0, 1); got {self.tau}")
        if self.krylov_steps <= self.implicit_restarts:
            raise ValueError("krylov_steps must exceed implicit_restarts")
        if self.implicit_restarts < 0:
            raise ValueError("implicit_restarts must be >= 0")
        if not (0.0 < self.classify_threshold < 1.0):
            raise ValueError("classify_threshold must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")


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


def _run_side(S, cfg, seed):
    """One Arnoldi run plus restarts.

    A kernel breakdown in the very first step means the start vector was
    unlucky: retry once with a fresh seeded vector.  A kernel breakdown
    later is ordinary exhaustion of the seminorm-visible Krylov space and
    the truncated decomposition is used as is.
    """
    for attempt in range(2):
        v0 = _arnoldi.start_vector(S, seed + 7001 * attempt)
        d = _arnoldi.arnoldi_run(S, v0, cfg.krylov_steps)
        if not (d.breakdown == "kernel" and d.steps < 2):
            break
    else:
        raise SingPencilError("Arnoldi trapped in the seminorm kernel twice")
    for _ in range(cfg.implicit_restarts):
        d = _arnoldi.implicit_restart_infinity(d)
    return d


def _residuals(mv, bp, lam, infinite, X):
    """Relative pencil residuals of the columns of X, from one product of
    the block with each bordered matrix: ``mv`` is ``spmv`` for right
    vectors, or ``spmv_adjoint`` with conjugated ``lam`` for left ones.
    A finite column gives ``|A^ x - lam B^ x| / (|A^| + |lam| |B^|)``, an
    ``infinite`` one ``|B^ x| / |B^|``, in one-norm matrix scales."""
    a_norm = norm_estimate(bp.a_matrix)
    b_norm = norm_estimate(bp.b_matrix)
    lam = np.where(infinite, 0.0, lam)
    BX = mv(bp.b_matrix, X)
    R = mv(bp.a_matrix, X) - lam * BX
    finite = np.linalg.norm(R, axis=0) / np.maximum(a_norm + np.abs(lam) * b_norm, 1e-300)
    return np.where(infinite, np.linalg.norm(BX, axis=0) / max(b_norm, 1e-300), finite)


def solve_singular_full(p, cfg):
    """Full pipeline; returns triplets plus the bordered pencil and timings."""
    timings = {}
    t0 = time.perf_counter()
    bp = regularize(p, cfg.sigma, cfg.tau)
    timings["factor"] = time.perf_counter() - t0

    one_sided = (not p.is_square) and bp.V.ncols == 0
    S = ShiftInvertOperator(bp, "forward")
    Sa = ShiftInvertOperator(bp, "transposed_pencil")

    t0 = time.perf_counter()
    fwd = _run_side(S, cfg, cfg.seed)
    adj = None if one_sided else _run_side(Sa, cfg, cfg.seed + 104729)
    timings["arnoldi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if one_sided:
        triplets = _one_sided_triplets(S, fwd, cfg)
    else:
        triplets = _two_sided_triplets(S, Sa, fwd, adj, cfg)
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


def _purify_finite(S, X, infinite):
    """Purify, in one call, the columns of X whose eigenvalue is still
    finite; a column that lies in the nullspace of S comes back unchanged
    and marks its eigenvalue infinite.  Updates X and ``infinite`` in place."""
    cols = np.flatnonzero(~infinite)
    X[:, cols], null = _arnoldi.purify(S, X[:, cols])
    infinite[cols[null]] = True


def _triplets(cfg, lam, infinite, X, xb, res_x, Y=None, yb=None, res_y=None):
    """Labelled triplets from per-column arrays: eigenvalues ``lam`` (read
    only where not ``infinite``), unit vectors, border norms and residuals
    of the right side and, two-sided, of the left side.  A Spurious triplet
    whose two border norms fall on opposite sides of the threshold is
    flagged ``asymmetric-border``."""
    thr = cfg.classify_threshold
    out = []
    for i in range(infinite.size):
        t = EigenTriplet(
            lam=complex(np.inf) if infinite[i] else complex(lam[i]),
            infinite=bool(infinite[i]), x=X[:, i], y=None if Y is None else Y[:, i],
            x_border_norm=float(xb[i]), y_border_norm=None if yb is None else float(yb[i]),
            residual_right=float(res_x[i]),
            residual_left=None if res_y is None else float(res_y[i]),
        )
        label = classify(t, thr)
        flags = ()
        if label == LABEL_SPURIOUS and yb is not None and (xb[i] < thr) != (yb[i] < thr):
            flags = ("asymmetric-border",)
        out.append(replace(t, label=label, flags=flags))
    return out


def _one_sided_triplets(S, d, cfg):
    theta, Z, residual = _arnoldi.ritz_pairs(d)
    lam, infinite = dense._pencil_eigenvalues(theta, np.linalg.norm(d.square_hess, 2),
                                              cfg.sigma)
    X = dense._unit_columns(d.basis[:, :d.steps] @ Z)
    _purify_finite(S, X, infinite)
    return _triplets(cfg, lam, infinite, X, np.linalg.norm(X[S.leading:], axis=0), residual)


def _two_sided_triplets(S, Sa, fwd, adj, cfg):
    bp = S.bordered
    k = min(fwd.steps, adj.steps)
    Vk = fwd.basis[:, :k]
    Wk = adj.basis[:, :k]
    Ahat_full = Wk.conj().T @ spmv(bp.shifted_matrix, Vk)
    Bhat_full = Wk.conj().T @ spmv(bp.b_matrix, Vk)
    # exactly solved subspaces can leave degenerate trailing directions;
    # shrink until the projected matrix is comfortably invertible
    while True:
        try:
            lam, X, Y, infinite = dense.small_generalized_eig(
                Ahat_full[:k, :k], Bhat_full[:k, :k], sigma=cfg.sigma)
            break
        except ConvergenceError:
            k -= 1
            if k < 1:
                raise SingPencilError("projected pencil is degenerate at every dimension")

    X = dense._unit_columns(Vk[:, :k] @ X)
    Y = dense._unit_columns(Wk[:, :k] @ Y)
    _purify_finite(S, X, infinite)
    _purify_finite(Sa, Y, infinite)  # y only where x stayed finite
    return _triplets(cfg, lam, infinite,
                     X, np.linalg.norm(X[S.leading:], axis=0),
                     _residuals(spmv, bp, lam, infinite, X),
                     Y, np.linalg.norm(Y[Sa.leading:], axis=0),
                     _residuals(spmv_adjoint, bp, np.conj(lam), infinite, Y))


def tau_sweep(p, sigma, taus):
    """Factor ``A - sigma B`` at each tolerance and return one
    :class:`~singpencil.rank_lu.RankLU` per tau, so a user can pick a tau
    where the border size is stable."""
    taus = [float(tau) for tau in taus]
    if not taus:
        raise ValueError("taus must be nonempty")
    return [regularize(p, sigma, tau).lu for tau in taus]


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
    middle = "residual" if result.one_sided else "y_border"
    lines = [f"{'eigenvalue':>22}  {middle:>12}  {'x_border':>12}  label"]
    for t in result.triplets:
        m = t.residual_right if result.one_sided else t.y_border_norm
        lines.append(f"{_fmt_lam(t):>22}  {m:>12.3e}  {t.x_border_norm:>12.3e}  {t.label}")
    flagged = [t for t in result.triplets if t.flags]
    for t in flagged:
        lines.append(f"# note: {_fmt_lam(t)} flagged {','.join(t.flags)}")
    return "\n".join(lines)


def triplet_to_dict(t):
    return {
        "eigenvalue": "inf" if t.infinite else [t.lam.real, t.lam.imag],
        "infinite": bool(t.infinite),
        "x_border_norm": t.x_border_norm,
        "y_border_norm": t.y_border_norm,
        "residual_right": t.residual_right,
        "residual_left": t.residual_left,
        "label": t.label,
        "flags": list(t.flags),
    }


def result_to_dict(result):
    bp = result.bordered
    cfg = result.config
    return {
        "schema_version": 2,
        "mode": "one_sided" if result.one_sided else "two_sided",
        "shift": [complex(cfg.sigma).real, complex(cfg.sigma).imag],
        "config": {
            "tau": cfg.tau,
            "krylov_steps": cfg.krylov_steps,
            "implicit_restarts": cfg.implicit_restarts,
            "classify_threshold": cfg.classify_threshold,
            "seed": cfg.seed,
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


def result_to_json(result):
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True)
