"""Acceptance suite: the documented reference experiments at their stated
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion.

Two sub-criteria assert documented reference values that the seeded
construction provably cannot reach; they are kept faithful (and red) rather
than loosened, in their own clearly named test functions:

* ``test_acceptance_2_underborder_eigenvalue3`` - at tau = 1e-16 the
  perturbed problem is under-bordered (border 1 against deficiency 2); the
  bordered pencil stays singular, the factorization keeps a rounding-dust
  pivot, and the shifted solves lose all forward accuracy, so no extraction
  recovers eigenvalue 3.
* ``test_acceptance_4_spurious_border_floor`` - unconverged Ritz junk
  spreads its border mass like sqrt(border/size); at size 10,000 that is
  about 1e-3, far below the documented 1e-2 floor (the same measurement at
  size 200 sits above it).
"""

import time

import numpy as np

import singpencil as sp
from singpencil import problems
from singpencil.dense import dense_rank


def _solve(pencil, **kw):
    return sp.solve_singular_full(pencil, sp.SolverConfig(**kw))


def _true_err(triplets, target):
    vals = [t.lam for t in triplets if t.label == "True"]
    return min((abs(v - target) for v in vals), default=np.inf)


def _minmax_border(t):
    if t.y_border_norm is None:
        return t.x_border_norm, t.x_border_norm
    lo = min(t.x_border_norm, t.y_border_norm)
    hi = max(t.x_border_norm, t.y_border_norm)
    return lo, hi


# -- criterion 1: clean order-10 tolerance experiment ---------------------------------


def test_acceptance_1_clean_tolerance_experiment():
    t0 = time.perf_counter()
    clean = problems.gen_tolerance_pencil()

    for tau in (2.2e-15, 1e-5):
        bp = sp.regularize(clean.pencil, 0.0, tau)
        assert bp.normal_rank == 8
        assert bp.V.ncols == 2 and bp.W.ncols == 2
    bp_big = sp.regularize(clean.pencil, 0.0, 0.2)
    assert bp_big.V.ncols == 3

    for tau in (2.2e-15, 1e-5):
        res = _solve(clean.pencil, sigma=0.0, tau=tau, krylov_steps=11,
                     implicit_restarts=1)
        for target in (1, 2, 3, 4):
            assert _true_err(res.triplets, target) <= 1e-6
        borders = [_minmax_border(t)[1] for t in res.triplets if t.label == "True"]
        assert max(borders) <= 1e-12

    res_big = _solve(clean.pencil, sigma=0.0, tau=0.2, krylov_steps=12,
                     implicit_restarts=1)
    assert min(_minmax_border(t)[1] for t in res_big.triplets) > 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (clean tolerance experiment): PASS ({elapsed:.2f} s)")


def test_acceptance_1_infinite_multiplicity():
    """The documented multiplicity 6 belongs to the over-bordered (tau=0.2,
    three-column) pencil of this experiment: expanding its determinant
    across the border leaves a single 7x7 minor, so at most 7 finite
    eigenvalues survive and the infinite eigenvalue has algebraic
    multiplicity 6 for every orthogonal mixing.  The two-column border of
    the small-tau runs leaves an 8x8 minor of full generic degree, giving
    exactly 4.  Both are asserted."""
    clean = problems.gen_tolerance_pencil()
    bp3 = sp.regularize(clean.pencil, 0.0, 0.2)
    assert bp3.V.ncols == 3
    assert problems.infinite_multiplicity(bp3, tol=1e-8) == 6
    bp2 = sp.regularize(clean.pencil, 0.0, 1e-12)
    assert bp2.V.ncols == 2
    assert problems.infinite_multiplicity(bp2, tol=1e-8) == 4


# -- criterion 2: perturbed order-10 tolerance experiment ------------------------------


def test_acceptance_2_perturbed_tolerance_experiment():
    t0 = time.perf_counter()
    pert = problems.gen_tolerance_pencil(perturbed=True)

    bp16 = sp.regularize(pert.pencil, 0.0, 1e-16)
    assert bp16.V.ncols == 1

    for tau in (2.2e-15, 1e-10):
        bp = sp.regularize(pert.pencil, 0.0, tau)
        assert bp.V.ncols == 2
        res = _solve(pert.pencil, sigma=0.0, tau=tau, krylov_steps=11,
                     implicit_restarts=1)
        assert _true_err(res.triplets, 3) <= 1e-3
        for target in (1, 2, 4):
            assert _true_err(res.triplets, target) <= 1e-10

    bp5 = sp.regularize(pert.pencil, 0.0, 1e-5)
    assert bp5.V.ncols == 3
    res5 = _solve(pert.pencil, sigma=0.0, tau=1e-5, krylov_steps=12,
                  implicit_restarts=1)
    for target in (1, 2, 4):
        assert _true_err(res5.triplets, target) <= 1e-6
    assert _true_err(res5.triplets, 3) > 1e-2  # eigenvalue 3 absent

    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2 (perturbed tolerance experiment): PASS ({elapsed:.2f} s)")


def test_acceptance_2_underborder_eigenvalue3():
    """Documented reference: border 1 at tau = 1e-16 still recovers
    eigenvalue 3 to 1e-4.  Under-bordering leaves a singular pencil whose
    shifted factorization has a dust pivot (condition ~1e15), so the solver
    output carries no trace of the spectrum; asserted as documented."""
    pert = problems.gen_tolerance_pencil(perturbed=True)
    res = _solve(pert.pencil, sigma=0.0, tau=1e-16, krylov_steps=10,
                 implicit_restarts=1)
    err = min((abs(t.lam - 3) for t in res.triplets if not t.infinite),
              default=np.inf)
    assert err <= 1e-4, f"eigenvalue-3 error {err:.2e} exceeds 1e-4"


# -- criterion 3: quadratic companion at full scale -------------------------------------


def test_acceptance_3_quadratic_full_scale():
    """Companion size 1000, shift 1.1, 20 steps, 1 restart.

    Which border (left or right) degenerates to zero for the true/spurious
    families depends on where the factorization lands its border columns;
    the published run and this construction land on mirrored sides.  The
    assertions therefore bound the smaller and larger of the two border
    norms per triplet, which is exactly what the classification uses.
    """
    t0 = time.perf_counter()
    quad = problems.gen_quadratic_companion(n=500)
    res = _solve(quad.pencil, sigma=1.1, tau=1e-12, krylov_steps=20,
                 implicit_restarts=1)
    trues = [t for t in res.triplets if t.label == "True"]
    spurs = [t for t in res.triplets if t.label == "Spurious"]
    assert len(trues) == 1
    assert abs(trues[0].lam - 1.0) <= 1e-8
    lo, hi = _minmax_border(trues[0])
    assert lo <= 1e-12   # the structurally zero side
    assert hi <= 1e-5    # the Krylov-error side
    assert spurs
    spur_borders = [_minmax_border(s)[1] for s in spurs]
    assert min(spur_borders) >= 1e-4
    margin = min(spur_borders) / max(hi, 1e-300)
    assert margin >= 1e4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 (quadratic, size 1000): PASS "
          f"(margin {margin:.1e}, {elapsed:.2f} s)")


# -- criterion 4: rectangular problem at full scale --------------------------------------


def test_acceptance_4_rectangular_full_scale():
    t0 = time.perf_counter()
    rect = problems.gen_rectangular(n=10000)
    res = _solve(rect.pencil, sigma=0.9, tau=1e-12, krylov_steps=10,
                 implicit_restarts=2)
    assert res.one_sided
    assert res.bordered.V.ncols == 0
    assert res.bordered.W.ncols == 2
    trues = [t for t in res.triplets if t.label == "True"]
    assert len(trues) == 1
    assert abs(trues[0].lam - 1.0) <= 1e-8
    assert trues[0].residual_right <= 1e-10
    assert trues[0].x_border_norm <= 1e-12
    spurs = [t.x_border_norm for t in res.triplets if t.label == "Spurious"]
    margin = min(spurs) / max(trues[0].x_border_norm, 1e-300)
    assert margin >= 1e4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 (rectangular, 10000 x 9998): PASS "
          f"(margin {margin:.1e}, {elapsed:.2f} s)")


def test_acceptance_4_spurious_border_floor():
    """Documented reference: every spurious border norm at least 1e-2
    (reference run: 0.108).  Border mass of unconverged junk scales like
    sqrt(border/size) here, about 1e-3 at this size; asserted as
    documented."""
    rect = problems.gen_rectangular(n=10000)
    res = _solve(rect.pencil, sigma=0.9, tau=1e-12, krylov_steps=10,
                 implicit_restarts=2)
    spurs = [t.x_border_norm for t in res.triplets if t.label == "Spurious"]
    assert spurs and min(spurs) >= 1e-2, \
        f"smallest spurious border {min(spurs):.2e} below 1e-2"


# -- criterion 5: 4x4 toy exactness -------------------------------------------------------


def test_acceptance_5_toy_exactness():
    t0 = time.perf_counter()
    toy = problems.gen_kronecker_toy()
    bp = sp.regularize(toy.pencil, 0.0, 1e-12)
    # the factorization-derived border reproduces the documented bordered pencil
    expected = np.array([
        [-1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0],
    ], dtype=complex)
    np.testing.assert_array_equal(bp.shifted_matrix.to_dense(), expected)

    # the bordered pencil has the eigenpair (1, e1) exactly
    e1 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    pencil_at_one = bp.a_matrix.to_dense() - 1.0 * bp.b_matrix.to_dense()
    assert np.all(pencil_at_one @ e1 == 0.0)

    res = _solve(toy.pencil, sigma=0.0, tau=1e-12, krylov_steps=5,
                 implicit_restarts=1)
    trues = [t for t in res.triplets if t.label == "True"]
    assert len(trues) == 1
    assert abs(trues[0].lam - 1.0) <= 1e-12
    assert 1.0 - abs(np.vdot(trues[0].x, e1)) <= 1e-12

    assert problems.infinite_multiplicity(bp, tol=1e-8) >= 3
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 5 (4x4 toy exactness): PASS ({elapsed:.2f} s)")


# -- criterion 6: property battery ---------------------------------------------------------


def test_acceptance_6_rank_oracle_battery():
    """Rank detection agrees with the dense full-pivot oracle on 200 seeded
    known-rank instances, sizes 5-60, square and rectangular (wide inputs
    go through the pencil regularization path).  Every other instance is a
    genuine pencil (row/column compression of a diagonal core) factored at
    a random shift."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACCE55)
    from singpencil import rank_lu
    from singpencil.bordered import Pencil
    from singpencil.sparse import SparseMatrix, add_scaled

    checked = 0
    for trial in range(200):
        n = int(rng.integers(5, 61))
        m = int(rng.integers(5, 61))
        k = int(rng.integers(1, min(n, m) + 1))
        t1 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        t2 = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        if trial % 2:
            # pencil with normal rank k, evaluated at a random shift
            da = np.diag(rng.standard_normal(k))
            db = np.diag(rng.standard_normal(k))
            A = SparseMatrix.from_dense(t1 @ da @ t2)
            B = SparseMatrix.from_dense(t1 @ db @ t2)
            mu = complex(rng.standard_normal(), rng.standard_normal())
            M = add_scaled(A, -mu, B)
        else:
            M = SparseMatrix.from_dense(t1 @ t2)
            mu = 0.0
        oracle = dense_rank(M.to_dense(), 1e-10)
        assert oracle == k
        if n >= m:
            F = rank_lu.factor(M, 1e-10)
            assert F.detected_rank == k
            assert F.V.ncols == m - k and F.W.ncols == n - k
        else:
            bp = sp.regularize(Pencil(M, SparseMatrix.zeros(n, m)), 0.0, 1e-10)
            assert bp.normal_rank == k
            assert bp.V.ncols == m - k and bp.W.ncols == n - k
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 200
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 (rank oracle battery, 200 instances): PASS ({elapsed:.2f} s)")
