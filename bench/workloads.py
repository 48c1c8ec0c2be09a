"""Benchmark workloads: seeded inputs, the solves of one operation, and the
ground-truth gate every answer is checked against.

Each workload stresses one layer the others do not (see README.md):

* ``quadratic`` - fill in ``rank_lu.factor``;
* ``rectangular`` - the tall one-sided path, ``rank_lu.solve`` loops;
* ``wide`` - the adjoint-factored two-sided path, ``rank_lu.solve_adjoint``;
* ``tolerance_study`` - the reference experiments of acceptance criteria
  1, 2 and 5: many tiny calls, so fixed per-call cost dominates.
"""

from dataclasses import dataclass

import numpy as np

import singpencil as sp
from singpencil import problems

NAMES = ("quadratic", "rectangular", "wide", "tolerance_study")


@dataclass(frozen=True)
class Case:
    """One solve of an operation and what its answer must satisfy.

    ``required`` lists ``(eigenvalue, tolerance)`` pairs that must appear
    among the ``True`` labels; ``absent`` pairs must not.  ``truth`` is every
    ground-truth eigenvalue: a ``True`` label farther than ``match_tol``
    from all of them counts as a false ``True``.  ``border_floor`` > 0
    demands every triplet's larger border norm exceed it (the over-bordered
    run of criterion 1).  A ``documented_red`` case is one the reference
    construction provably cannot meet; missing its eigenvalue counts in
    ``fail_frac`` but does not mark the run incorrect.
    """

    pencil: str
    config: sp.SolverConfig
    border: tuple
    rank: int
    required: tuple
    truth: tuple
    match_tol: float
    absent: tuple = ()
    border_floor: float = 0.0
    documented_red: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    pencils: dict   # name -> Pencil, written to Matrix Market before timing
    cases: tuple


def _transpose(M):
    # the generator's matrices are real, so the transpose is the adjoint;
    # transposing avoids conj's -0.0 imaginary parts, which a real-field
    # Matrix Market file cannot carry
    rows, cols, vals = M.coo()
    return sp.SparseMatrix.from_coo(M.ncols, M.nrows, cols, rows, vals)


def build(name, seed, tiny=False):
    """Generate workload ``name`` from ``seed``.  ``tiny`` shrinks the two
    large generators for the smoke test; the solver settings stay."""
    if name == "quadratic":
        g = problems.gen_quadratic_companion(n=40 if tiny else 500, seed=seed)
        cfg = sp.SolverConfig(sigma=1.1, tau=1e-12, krylov_steps=20,
                              implicit_restarts=1, seed=seed)
        case = Case("pencil", cfg, (1, 1), g.normal_rank,
                    tuple((lam, 1e-8) for lam in g.true_eigenvalues),
                    g.true_eigenvalues, 1e-8)
        return Workload(name, {"pencil": g.pencil}, (case,))
    if name in ("rectangular", "wide"):
        g = problems.gen_rectangular(n=200 if tiny else 10000)
        p, border = g.pencil, (0, 2)
        if name == "wide":
            p, border = sp.Pencil(_transpose(p.A), _transpose(p.B)), (2, 0)
        cfg = sp.SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10,
                              implicit_restarts=2, seed=seed)
        case = Case("pencil", cfg, border, g.normal_rank,
                    tuple((lam, 1e-8) for lam in g.true_eigenvalues),
                    g.true_eigenvalues, 1e-8)
        return Workload(name, {"pencil": p}, (case,))
    if name == "tolerance_study":
        return _tolerance_study(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _tolerance_study(seed):
    """Criteria 1, 2 and 5 at their documented tau and step counts.

    The pencils keep their documented mixing seed 1, because the pinned
    border sizes of the over- and under-bordered runs hold for it alone;
    ``seed`` drives the solver's start vectors.
    """
    toy = problems.gen_kronecker_toy()
    clean = problems.gen_tolerance_pencil(perturbed=False, seed=1)
    pert = problems.gen_tolerance_pencil(perturbed=True, seed=1)
    truth = clean.true_eigenvalues

    def cfg(tau, steps):
        return sp.SolverConfig(sigma=0.0, tau=tau, krylov_steps=steps,
                               implicit_restarts=1, seed=seed)

    def near(lams, tol):
        return tuple((complex(lam), tol) for lam in lams)

    cases = (
        Case("clean", cfg(2.2e-15, 11), (2, 2), 8, near(truth, 1e-6), truth, 1e-6),
        Case("clean", cfg(1e-5, 11), (2, 2), 8, near(truth, 1e-6), truth, 1e-6),
        # over-bordered: no triplet may look converged
        Case("clean", cfg(0.2, 12), (3, 3), 7, (), truth, 1e-6, border_floor=1e-12),
        # under-bordered: eigenvalue 3 is documented but unreachable
        Case("perturbed", cfg(1e-16, 10), (1, 1), 9, near([3], 1e-4), truth, 1e-4,
             documented_red=True),
        Case("perturbed", cfg(2.2e-15, 11), (2, 2), 8,
             near([3], 1e-3) + near([1, 2, 4], 1e-10), truth, 1e-3),
        Case("perturbed", cfg(1e-10, 11), (2, 2), 8,
             near([3], 1e-3) + near([1, 2, 4], 1e-10), truth, 1e-3),
        Case("perturbed", cfg(1e-5, 12), (3, 3), 7, near([1, 2, 4], 1e-6), truth, 1e-6,
             absent=near([3], 1e-2)),
        Case("toy", cfg(1e-12, 5), (1, 1), 3, near([1], 1e-12),
             toy.true_eigenvalues, 1e-12),
    )
    pencils = {"toy": toy.pencil, "clean": clean.pencil, "perturbed": pert.pencil}
    return Workload("tolerance_study", pencils, cases)


def _larger_border(t):
    return t.x_border_norm if t.y_border_norm is None else max(t.x_border_norm, t.y_border_norm)


@dataclass(frozen=True)
class Verdict:
    """Gate outcome of one solve.  ``issues`` is empty when it passed."""

    issues: tuple
    strict: bool        # a failure that makes the run incorrect
    true_count: int
    false_true: int
    margin: float | None  # smallest spurious border / largest true border


def check(case, result):
    """Compare one ``SolveResult`` with the case's ground truth."""
    bp = result.bordered
    found = []   # (message, tolerated)
    if (bp.V.ncols, bp.W.ncols) != case.border:
        found.append((f"border {(bp.V.ncols, bp.W.ncols)} != {case.border}", False))
    if bp.normal_rank != case.rank:
        found.append((f"rank {bp.normal_rank} != {case.rank}", False))
    trues = [t for t in result.triplets if t.label == sp.LABEL_TRUE]
    missing = [lam for lam, tol in case.required
               if not any(abs(t.lam - lam) <= tol for t in trues)]
    if missing:
        found.append((f"True set misses {missing}", case.documented_red))
    for lam, tol in case.absent:
        if any(abs(t.lam - lam) <= tol for t in trues):
            found.append((f"True set holds {lam}, which must be absent", False))
    if case.border_floor and min(map(_larger_border, result.triplets),
                                 default=np.inf) <= case.border_floor:
        found.append((f"a triplet has both borders <= {case.border_floor}", False))
    false_true = sum(1 for t in trues
                     if min(abs(t.lam - lam) for lam in case.truth) > case.match_tol)
    spurs = [_larger_border(t) for t in result.triplets if t.label == sp.LABEL_SPURIOUS]
    margin = None
    if trues and spurs:
        margin = min(spurs) / max(max(_larger_border(t) for t in trues), 1e-300)
    return Verdict(tuple(m for m, _ in found), any(not ok for _, ok in found),
                   len(trues), false_true, margin)


def raised(exc):
    return Verdict((f"raised {type(exc).__name__}: {exc}",), True, 0, 0, None)
