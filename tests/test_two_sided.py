import json

import numpy as np
import pytest
from jsonschema import validate as schema_validate

import singpencil
from singpencil import problems
from singpencil.bordered import Pencil
from singpencil.sparse import SparseMatrix
from singpencil.two_sided import (EigenTriplet, SolverConfig, classify,
                                  result_table_text, result_to_dict,
                                  result_to_json, solve_singular,
                                  solve_singular_full, tau_sweep)


def make_triplet(xb, yb=None, infinite=False):
    x = np.zeros(4, dtype=complex)
    x[0] = 1.0
    return EigenTriplet(lam=complex(1.0) if not infinite else complex(np.inf),
                        infinite=infinite, x=x, y=None if yb is None else x,
                        x_border_norm=xb, y_border_norm=yb,
                        residual_right=0.0, residual_left=None)


# -- classify ----------------------------------------------------------------------

def test_classify_true_when_both_borders_small():
    t = make_triplet(1e-9, 1e-9)
    assert classify(t, 1e-6) == "True"


def test_classify_spurious_when_any_border_large():
    assert classify(make_triplet(1.0, 1.0), 1e-6) == "Spurious"
    assert classify(make_triplet(1e-9, 1.0), 1e-6) == "Spurious"
    assert classify(make_triplet(1.0, 1e-9), 1e-6) == "Spurious"


def test_classify_infinite_overrides():
    assert classify(make_triplet(1e-9, 1e-9, infinite=True), 1e-6) == "Infinite"


def test_classify_one_sided_uses_x_only():
    assert classify(make_triplet(1e-9, None), 1e-6) == "True"
    assert classify(make_triplet(1e-3, None), 1e-6) == "Spurious"


def test_classify_phase_invariance():
    # border norms on unit vectors are invariant under unit-modulus scaling
    t = make_triplet(1e-9, 1e-9)
    phase = np.exp(0.7j)
    scaled = EigenTriplet(lam=t.lam, infinite=t.infinite, x=phase * t.x,
                          y=phase * t.y,
                          x_border_norm=float(np.linalg.norm((phase * t.x)[2:])),
                          y_border_norm=t.y_border_norm,
                          residual_right=0.0, residual_left=None)
    assert np.isclose(np.linalg.norm(scaled.x[2:]), np.linalg.norm(t.x[2:]))
    assert classify(scaled, 1e-6) == classify(t, 1e-6)


# -- config validation ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(krylov_steps=2, implicit_restarts=2)
    with pytest.raises(ValueError):
        SolverConfig(classify_threshold=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p_kind="nonsense")
    with pytest.raises(ValueError):
        SolverConfig(implicit_restarts=-1)


# -- end-to-end on analytic problems ---------------------------------------------------

def test_toy_exactly_one_true_triplet():
    toy = problems.gen_kronecker_toy()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=5, implicit_restarts=1)
    triplets = solve_singular(toy.pencil, cfg)
    trues = [t for t in triplets if t.label == "True"]
    assert len(trues) == 1
    t = trues[0]
    assert abs(t.lam - 1.0) <= 1e-12
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    assert 1.0 - abs(np.vdot(t.x, e1)) <= 1e-12  # right vector is e1 up to phase
    assert abs(np.linalg.norm(t.x) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(t.y) - 1.0) <= 1e-12


def test_regular_diagonal_pencil_all_true():
    p = Pencil(SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0])),
               SparseMatrix.identity(3))
    cfg = SolverConfig(sigma=0.4, tau=1e-12, krylov_steps=3, implicit_restarts=1)
    res = solve_singular_full(p, cfg)
    assert res.bordered.V.ncols == 0 and res.bordered.W.ncols == 0
    trues = sorted(t.lam.real for t in res.triplets if t.label == "True")
    assert len(trues) == len(res.triplets) == 3
    np.testing.assert_allclose(trues, [1, 2, 3], atol=1e-12)


def test_order10_true_set_and_flags():
    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=11, implicit_restarts=1)
    res = solve_singular_full(tol.pencil, cfg)
    trues = sorted(t.lam.real for t in res.triplets if t.label == "True")
    np.testing.assert_allclose(trues, [1, 2, 3, 4], atol=1e-8)
    spurs = [t for t in res.triplets if t.label == "Spurious"]
    assert spurs
    # one-sided-degenerate spurious triplets carry the asymmetric flag
    asym = [t for t in spurs if "asymmetric-border" in t.flags]
    assert asym


def test_true_vectors_satisfy_original_pencil_residual():
    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=11, implicit_restarts=1)
    res = solve_singular_full(tol.pencil, cfg)
    A = tol.pencil.A.to_dense()
    B = tol.pencil.B.to_dense()
    scale = np.linalg.norm(A)
    for t in res.triplets:
        if t.label != "True":
            continue
        x1 = t.x[:10]
        r = np.linalg.norm(A @ x1 - t.lam * (B @ x1))
        assert r <= 1e-8 * (scale + abs(t.lam) * np.linalg.norm(B))


def test_small_quadratic_companion_classification():
    quad = problems.gen_quadratic_companion(n=8)
    cfg = SolverConfig(sigma=1.3, tau=1e-12, krylov_steps=12, implicit_restarts=1)
    res = solve_singular_full(quad.pencil, cfg)
    trues = [t.lam for t in res.triplets if t.label == "True"]
    assert len(trues) == 1 and abs(trues[0] - 1.0) <= 1e-6


def test_rectangular_one_sided_and_forced_two_sided_agree():
    rect = problems.gen_rectangular(n=24)
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10, implicit_restarts=2)
    res = solve_singular_full(rect.pencil, cfg)
    assert res.one_sided
    t1 = sorted(t.lam.real for t in res.triplets if t.label == "True")
    cfg2 = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10,
                        implicit_restarts=2, force_two_sided=True)
    res2 = solve_singular_full(rect.pencil, cfg2)
    assert not res2.one_sided
    t2 = sorted(t.lam.real for t in res2.triplets if t.label == "True")
    np.testing.assert_allclose(t1, [1.0], atol=1e-8)
    np.testing.assert_allclose(t2, [1.0], atol=1e-8)


def test_wide_pencil_full_pipeline():
    from singpencil.sparse import adjoint
    rect = problems.gen_rectangular(n=24)
    wide = Pencil(adjoint(rect.pencil.A), adjoint(rect.pencil.B))
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10, implicit_restarts=2)
    res = solve_singular_full(wide, cfg)
    assert not res.one_sided
    assert res.bordered.V.ncols == 2 and res.bordered.W.ncols == 0
    trues = [t for t in res.triplets if t.label == "True"]
    assert len(trues) == 1 and abs(trues[0].lam - 1.0) <= 1e-8
    # the empty right border makes the left norms the informative side
    spurs = [t for t in res.triplets if t.label == "Spurious"]
    assert spurs and all(s.y_border_norm > 1e-3 for s in spurs)


@pytest.mark.parametrize("seed", range(20))
def test_true_set_robust_over_start_vectors(seed):
    """No true eigenvalue missing and no spurious one labeled True, for any
    start vector, on the clean generator problems."""
    toy = problems.gen_kronecker_toy()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=5,
                       implicit_restarts=1, seed=seed)
    trues = [t.lam for t in solve_singular(toy.pencil, cfg) if t.label == "True"]
    assert len(trues) == 1 and abs(trues[0] - 1.0) <= 1e-6

    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=11,
                       implicit_restarts=1, seed=seed)
    trues = sorted(t.lam.real for t in solve_singular(tol.pencil, cfg)
                   if t.label == "True")
    np.testing.assert_allclose(trues, [1, 2, 3, 4], atol=1e-6)


# -- tau sweep ----------------------------------------------------------------------

def test_tau_sweep_clean_reference():
    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0)
    report = tau_sweep(tol.pencil, cfg, [2.2e-15, 1e-5, 0.2])
    assert [r.border_rows for r in report.rows] == [2, 2, 3]
    assert [r.detected_rank for r in report.rows] == [8, 8, 7]
    text = report.to_text()
    assert "border_rows" in text and len(text.splitlines()) == 4


def test_tau_sweep_perturbed_reference():
    pert = problems.gen_tolerance_pencil(perturbed=True)
    cfg = SolverConfig(sigma=0.0)
    report = tau_sweep(pert.pencil, cfg, [1e-16, 1e-10, 1e-5])
    assert [r.border_rows for r in report.rows] == [1, 2, 3]


def test_tau_sweep_identity_pencil():
    p = Pencil(SparseMatrix.identity(4), SparseMatrix.identity(4))
    cfg = SolverConfig(sigma=3.0)
    report = tau_sweep(p, cfg, [1e-15, 1e-8, 1e-2])
    assert all(r.border_rows == 0 and r.border_cols == 0 for r in report.rows)
    with pytest.raises(ValueError):
        tau_sweep(p, cfg, [])


# -- serialization --------------------------------------------------------------------

def _schema():
    import importlib.resources as res
    with res.files(singpencil).joinpath("schemas/result.schema.json").open() as fh:
        return json.load(fh)


def test_result_json_validates_against_schema():
    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=11, implicit_restarts=1)
    res = solve_singular_full(tol.pencil, cfg)
    doc = json.loads(result_to_json(res))
    schema_validate(doc, _schema())
    assert doc["mode"] == "two_sided"
    assert doc["border"] == {"rows": 2, "cols": 2, "detected_rank": 8,
                             "alpha": res.bordered.lu.alpha, "tau": 1e-12}


def test_result_json_one_sided_validates():
    rect = problems.gen_rectangular(n=24)
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=8, implicit_restarts=2)
    res = solve_singular_full(rect.pencil, cfg)
    doc = result_to_dict(res)
    schema_validate(doc, _schema())
    assert doc["mode"] == "one_sided"
    assert all(r["y_border_norm"] is None for r in doc["results"])


def test_result_table_layouts():
    tol = problems.gen_tolerance_pencil()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=11, implicit_restarts=1)
    res = solve_singular_full(tol.pencil, cfg)
    text = result_table_text(res)
    header = text.splitlines()[0]
    assert "y_border" in header and "x_border" in header and "label" in header

    rect = problems.gen_rectangular(n=24)
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=8, implicit_restarts=2)
    res1 = solve_singular_full(rect.pencil, cfg)
    header1 = result_table_text(res1).splitlines()[0]
    assert "residual" in header1 and "x_border" in header1


def test_infinite_rows_render_as_inf():
    toy = problems.gen_kronecker_toy()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=5, implicit_restarts=0)
    res = solve_singular_full(toy.pencil, cfg)
    doc = result_to_dict(res)
    if any(t.infinite for t in res.triplets):
        assert any(r["eigenvalue"] == "inf" for r in doc["results"])
