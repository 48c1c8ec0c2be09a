import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate as schema_validate

import singpencil
from singpencil import arnoldi, cli, problems, rank_lu, two_sided
from singpencil.bordered import Pencil
from singpencil.sparse import SparseMatrix, norm_estimate, spmv, spmv_adjoint
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
        SolverConfig(implicit_restarts=-1)
    with pytest.raises(ValueError):
        SolverConfig(seed=-1)
    # counts and seeds must be integers; a bool is not one
    for bad in ({"krylov_steps": 4.5}, {"implicit_restarts": 0.5}, {"seed": 1.5},
                {"krylov_steps": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            SolverConfig(**bad)
    cfg = SolverConfig(krylov_steps=np.int64(5), implicit_restarts=np.int32(1), seed=np.uint8(3))
    assert json.dumps([cfg.krylov_steps, cfg.implicit_restarts, cfg.seed]) == "[5, 1, 3]"


def test_config_stores_plain_numbers():
    """A numpy float is stored as a Python number, so the result's JSON
    holds it and validates; a bool is not taken for a number."""
    cfg = SolverConfig(sigma=np.float64(0.0), tau=np.float32(1e-12), krylov_steps=5,
                       classify_threshold=np.float16(1e-3))
    assert (type(cfg.sigma), type(cfg.tau), type(cfg.classify_threshold)) == (complex, float, float)
    res = solve_singular_full(problems.gen_kronecker_toy().pencil, cfg)
    schema_validate(json.loads(result_to_json(res)), _schema())
    for bad in ({"sigma": True}, {"tau": False}, {"classify_threshold": np.True_}):
        with pytest.raises(ValueError, match="must be a .* number"):
            SolverConfig(**bad)


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


def test_rectangular_pencil_runs_one_sided():
    rect = problems.gen_rectangular(n=24)
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10, implicit_restarts=2)
    res = solve_singular_full(rect.pencil, cfg)
    assert res.one_sided
    t1 = sorted(t.lam.real for t in res.triplets if t.label == "True")
    np.testing.assert_allclose(t1, [1.0], atol=1e-8)


def test_wide_pencil_full_pipeline():
    rect = problems.gen_rectangular(n=24)
    wide = Pencil(*(SparseMatrix.from_dense(M.to_dense().conj().T)
                    for M in (rect.pencil.A, rect.pencil.B)))
    cfg = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10, implicit_restarts=2)
    res = solve_singular_full(wide, cfg)
    assert not res.one_sided
    assert res.bordered.V.ncols == 2 and res.bordered.W.ncols == 0
    trues = [t for t in res.triplets if t.label == "True"]
    assert len(trues) == 1 and abs(trues[0].lam - 1.0) <= 1e-8
    # the empty right border makes the left norms the informative side
    spurs = [t for t in res.triplets if t.label == "Spurious"]
    assert spurs and all(s.y_border_norm > 1e-3 for s in spurs)


@pytest.mark.parametrize("gen, sigma, steps, restarts, counts, products", [
    (lambda: problems.gen_quadratic_companion(n=40, seed=1), 1.1, 20, 1, (22, 22, 2), (4, 2)),
    (lambda: problems.gen_rectangular(n=200), 0.9, 10, 2, (12, 0, 1), (0, 0)),
], ids=["quadratic", "rectangular"])
def test_purification_is_one_call_per_side(monkeypatch, gen, sigma, steps, restarts, counts,
                                           products):
    """Each side's Ritz vectors are purified by one operator application on
    a block: beyond the start vector and the Arnoldi steps, the projection
    adds one forward (and, two-sided, one adjoint) solve.  Two-sided, the
    projection multiplies blocks by the bordered matrices: two products
    project the pencil and each side's residuals take one with A^ and
    one with B^."""
    calls = {"solve": 0, "solve_adjoint": 0, "purify": 0, "spmv": 0, "spmv_adjoint": 0}
    for mod, name in ((rank_lu, "solve"), (rank_lu, "solve_adjoint"), (arnoldi, "purify"),
                      (two_sided, "spmv"), (two_sided, "spmv_adjoint")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    cfg = SolverConfig(sigma=sigma, tau=1e-12, krylov_steps=steps,
                       implicit_restarts=restarts, seed=1)
    solve_singular_full(gen().pencil, cfg)
    assert (calls["solve"], calls["solve_adjoint"], calls["purify"]) == counts
    assert (calls["spmv"], calls["spmv_adjoint"]) == products


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
    factors = tau_sweep(tol.pencil, 0.0, [2.2e-15, 1e-5, 0.2])
    assert [F.tau for F in factors] == [2.2e-15, 1e-5, 0.2]
    assert [F.border_rows for F in factors] == [2, 2, 3]
    assert [F.detected_rank for F in factors] == [8, 8, 7]


def test_tau_sweep_perturbed_reference():
    pert = problems.gen_tolerance_pencil(perturbed=True)
    factors = tau_sweep(pert.pencil, 0.0, [1e-16, 1e-10, 1e-5])
    assert [F.border_rows for F in factors] == [1, 2, 3]


def test_tau_sweep_identity_pencil():
    p = Pencil(SparseMatrix.identity(4), SparseMatrix.identity(4))
    factors = tau_sweep(p, 3.0, [1e-15, 1e-8, 1e-2])
    assert len(factors) == 3
    assert all(F.border_rows == 0 and F.border_cols == 0 for F in factors)
    with pytest.raises(ValueError):
        tau_sweep(p, 3.0, [])
    # any iterable of numbers: an array, and empty ones
    taus = np.logspace(-15, -5, 3)
    assert [F.tau for F in tau_sweep(p, 3.0, taus)] == list(taus)
    for empty in (np.array([]), (tau for tau in ())):
        with pytest.raises(ValueError, match="nonempty"):
            tau_sweep(p, 3.0, empty)


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


def test_infinite_rows_render_as_inf(monkeypatch, capsys):
    toy = problems.gen_kronecker_toy()
    cfg = SolverConfig(sigma=0.0, tau=1e-12, krylov_steps=5, implicit_restarts=0)
    res = solve_singular_full(toy.pencil, cfg)
    bp = res.bordered
    A, B = bp.a_matrix, bp.b_matrix
    a_norm, b_norm = norm_estimate(A), norm_estimate(B)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((bp.size, 3)) + 1j * rng.standard_normal((bp.size, 3))
    lam = np.array([2.0 - 1j, np.inf, 0.5])
    infinite = np.isinf(lam)
    # one product per matrix on the block gives each column's scalar residual
    for mv, side_lam in ((spmv, lam), (spmv_adjoint, np.conj(lam))):
        got = two_sided._residuals(mv, bp, side_lam, infinite, X)
        for j, x in enumerate(X.T):
            if infinite[j]:
                want = np.linalg.norm(mv(B, x)) / b_norm
            else:
                want = (np.linalg.norm(mv(A, x) - side_lam[j] * mv(B, x))
                        / (a_norm + abs(lam[j]) * b_norm))
            assert got[j] == pytest.approx(want, rel=1e-14)

    x = np.zeros(bp.size, dtype=complex)
    x[-1] = 1.0
    inf_t = EigenTriplet(lam=complex(np.inf), infinite=True, x=x, y=x,
                         x_border_norm=1.0, y_border_norm=1.0,
                         residual_right=0.0, residual_left=0.0, label="Infinite")
    res = replace(res, triplets=res.triplets + [inf_t])

    rows = [ln.split() for ln in result_table_text(res).splitlines()[1:]]
    assert ["inf", "1.000e+00", "1.000e+00", "Infinite"] in rows
    doc = json.loads(result_to_json(res))
    schema_validate(doc, _schema())
    assert doc["results"][-1]["eigenvalue"] == "inf" and doc["results"][-1]["infinite"]
    monkeypatch.setattr(cli, "solve_singular_full", lambda p, c: res)
    assert cli.main(["solve", "--generate", "kronecker_toy", "--format", "csv"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[:3] == ["inf", "", "True"] and last[-2] == "Infinite"


def test_purify_finite_with_every_column_infinite():
    """No finite column: one purification of an empty block, which leaves
    X and ``infinite`` as they were."""
    bp = singpencil.regularize(problems.gen_kronecker_toy().pencil, 0.0, 1e-12)
    X = np.arange(10, dtype=complex).reshape(5, 2)
    infinite = np.ones(2, dtype=bool)
    two_sided._purify_finite(singpencil.ShiftInvertOperator(bp), X, infinite)
    np.testing.assert_array_equal(X, np.arange(10).reshape(5, 2))
    np.testing.assert_array_equal(infinite, [True, True])


@pytest.mark.parametrize("sigma", [1.0, 1.0 + 1e-12, 1.0 - 1e-12])
def test_shift_on_the_toy_eigenvalue_raises(sigma):
    """At a shift on the toy's only eigenvalue both of the Arnoldi run's
    start vectors break down in the seminorm kernel at the first step, and
    the solve raises instead of returning a wrong answer."""
    with pytest.raises(singpencil.SingPencilError, match="trapped in the seminorm kernel twice"):
        solve_singular_full(problems.gen_kronecker_toy().pencil, SolverConfig(sigma=sigma))


@pytest.mark.parametrize("sigma", [1.0 + 2e-12, 1.0 + 1e-11])
def test_shift_beside_the_toy_eigenvalue_finds_it(sigma):
    res = solve_singular_full(problems.gen_kronecker_toy().pencil, SolverConfig(sigma=sigma))
    trues = [t.lam for t in res.triplets if t.label == "True"]
    assert len(trues) == 1 and abs(trues[0] - 1.0) <= 1e-10


# -- pinned answers ---------------------------------------------------------------------


def _transposed(p):
    # the generator's matrices are real, so the transpose is the adjoint
    return Pencil(*(SparseMatrix.from_dense(M.to_dense().T) for M in (p.A, p.B)))


def _answer_cases():
    """(id, pencil factory, config), each with the benchmark's settings."""
    def tol(tau, steps):
        return SolverConfig(sigma=0.0, tau=tau, krylov_steps=steps, implicit_restarts=1, seed=1)

    def quad(seed):
        return SolverConfig(sigma=1.1, tau=1e-12, krylov_steps=20, implicit_restarts=1,
                            seed=seed)

    rect = SolverConfig(sigma=0.9, tau=1e-12, krylov_steps=10, implicit_restarts=2, seed=1)
    pert = lambda: problems.gen_tolerance_pencil(perturbed=True).pencil
    return [
        ("toy", lambda: problems.gen_kronecker_toy().pencil, tol(1e-12, 5)),
        ("clean-tau2.2e-15", lambda: problems.gen_tolerance_pencil().pencil, tol(2.2e-15, 11)),
        ("perturbed-tau1e-16", pert, tol(1e-16, 10)),
        ("perturbed-tau1e-10", pert, tol(1e-10, 11)),
        ("quadratic40-seed1", lambda: problems.gen_quadratic_companion(n=40, seed=1).pencil,
         quad(1)),
        ("quadratic40-seed2", lambda: problems.gen_quadratic_companion(n=40, seed=2).pencil,
         quad(2)),
        ("quadratic100-seed1", lambda: problems.gen_quadratic_companion(n=100, seed=1).pencil,
         quad(1)),
        ("rectangular200", lambda: problems.gen_rectangular(n=200).pencil, rect),
        ("wide200", lambda: _transposed(problems.gen_rectangular(n=200).pencil), rect),
    ]


#: :func:`_answer_digest` per case of :func:`_answer_cases`, with a BLAS
#: that runs one thread, as the benchmark's does.  Recorded on x86-64 with
#: numpy 2 and OpenBLAS 0.3: the answers pass through LAPACK and BLAS
#: products, so a BLAS that rounds differently changes them.
_ANSWER_DIGESTS = {
    "toy": "639c6c2e61bf262b",
    "clean-tau2.2e-15": "9af498616e425f60",
    "perturbed-tau1e-16": "478077963c2bde35",
    "perturbed-tau1e-10": "166c778ae06af355",
    "quadratic40-seed1": "606c0079a474abd3",
    "quadratic40-seed2": "b95cafce1e8c4f95",
    "quadratic100-seed1": "a286cf1cd28ee823",
    "rectangular200": "6b81a9f6316444b6",
    "wide200": "46180a41bd76ba18",
}


def _answer_digest(res):
    """Short SHA-256 of a solve's answer: the border sizes and rank, then
    each triplet in output order (label, flags, eigenvalue, x, y, both
    border norms, both residuals)."""
    h = hashlib.sha256()
    bp = res.bordered
    h.update(repr((bp.V.ncols, bp.W.ncols, bp.normal_rank)).encode())
    for t in res.triplets:
        h.update(repr((t.label, t.flags, t.lam, t.x_border_norm, t.y_border_norm,
                       t.residual_right, t.residual_left)).encode())
        h.update(t.x.tobytes())
        h.update(b"-" if t.y is None else t.y.tobytes())
    return h.hexdigest()[:16]


def answer_digests():
    return {cid: _answer_digest(solve_singular_full(make(), cfg))
            for cid, make, cfg in _answer_cases()}


@pytest.fixture(scope="module")
def single_thread_digests():
    """:func:`answer_digests` from a fresh process whose BLAS runs one
    thread: a threaded BLAS splits the projection's larger products in
    another order, which rounds them differently."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))
    one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    code = "import json, test_two_sided as t; print(json.dumps(t.answer_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tests, env={**os.environ, **one, "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("cid", [c[0] for c in _answer_cases()])
def test_answers_pinned(single_thread_digests, cid):
    """The pipeline's answers, bit for bit, on the benchmark's settings.
    The digests depend on the BLAS's rounding (see :data:`_ANSWER_DIGESTS`);
    a change that moves an answer records them again in CHANGES.md."""
    assert single_thread_digests[cid] == _ANSWER_DIGESTS[cid]
