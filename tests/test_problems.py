import numpy as np
import pytest

from singpencil import SolverConfig, problems, regularize, solve_singular
from singpencil.bordered import Pencil
from singpencil.dense import dense_rank
from singpencil.errors import DimensionMismatch
from singpencil.sparse import SparseMatrix, add_scaled


def pencil_value(p, lam):
    return add_scaled(p.A, -lam, p.B).to_dense()


def rank_at_random_mus(gp, tol=1e-10, count=3):
    rng = np.random.default_rng(0xFEED)
    out = []
    for _ in range(count):
        mu = complex(rng.standard_normal(), rng.standard_normal())
        out.append(dense_rank(pencil_value(gp.pencil, mu), tol))
    return out


# -- kronecker toy ------------------------------------------------------------------

def test_toy_normal_rank_and_drops():
    toy = problems.gen_kronecker_toy()
    assert set(rank_at_random_mus(toy)) == {3}
    assert dense_rank(pencil_value(toy.pencil, 2.0), 1e-12) == 3
    assert dense_rank(pencil_value(toy.pencil, 1.0), 1e-12) == 2
    # the printed spurious "eigenvector" annihilates the pencil at any lambda
    lam = 2.0
    x = np.array([0.0, 1.0, lam, 0.0])
    assert np.linalg.norm(pencil_value(toy.pencil, lam) @ x) <= 1e-14


# -- order-10 tolerance pencil --------------------------------------------------------

def test_tolerance_pencil_rank_and_truth():
    clean = problems.gen_tolerance_pencil()
    assert clean.normal_rank == 8
    assert set(rank_at_random_mus(clean)) == {8}
    assert clean.true_eigenvalues == (1, 2, 3, 4)
    pert = problems.gen_tolerance_pencil(perturbed=True)
    # the tiny entry replaces one order-one direction: exact rank stays 8,
    # but only 7 directions survive a threshold above 1e-10
    assert dense_rank(pencil_value(pert.pencil, 0.77), 1e-13) == 8
    assert dense_rank(pencil_value(pert.pencil, 0.77), 1e-8) == 7


def test_tolerance_pencil_true_eigenvalue_rank_drops():
    clean = problems.gen_tolerance_pencil()
    for lam in (1.0, 2.0, 3.0, 4.0):
        assert dense_rank(pencil_value(clean.pencil, lam), 1e-10) == 7


def test_tolerance_unmixed_blocks_spectrum_on_diagonal():
    A, B = problems.tolerance_pencil_blocks()
    # regular leading block: generalized spectrum is the diagonal of A
    np.testing.assert_array_equal(np.diag(A)[:4], [1, 2, 3, 4])
    np.testing.assert_array_equal(B[:4, :4], np.eye(4))
    lam = np.linalg.eigvals(np.linalg.solve(B[:4, :4], A[:4, :4]))
    np.testing.assert_allclose(sorted(lam.real), [1, 2, 3, 4], atol=1e-14)


def test_generators_deterministic():
    a = problems.gen_tolerance_pencil(seed=7)
    b = problems.gen_tolerance_pencil(seed=7)
    assert a.pencil.A.values.tobytes() == b.pencil.A.values.tobytes()
    assert a.pencil.B.values.tobytes() == b.pencil.B.values.tobytes()
    q1 = problems.gen_quadratic_companion(n=12, seed=3)
    q2 = problems.gen_quadratic_companion(n=12, seed=3)
    assert q1.pencil.A.values.tobytes() == q2.pencil.A.values.tobytes()
    r1 = problems.gen_rectangular(n=16)
    r2 = problems.gen_rectangular(n=16)
    assert r1.pencil.A.values.tobytes() == r2.pencil.A.values.tobytes()


# -- quadratic companion ---------------------------------------------------------------

def test_quadratic_truth_and_rank():
    quad = problems.gen_quadratic_companion(n=8)
    assert quad.true_eigenvalues == (1.0 + 0j,)
    assert quad.normal_rank == 15
    assert set(rank_at_random_mus(quad)) == {15}
    assert dense_rank(pencil_value(quad.pencil, 1.0), 1e-10) == 14


def test_quadratic_beta_variants():
    lin = problems.gen_quadratic_companion(n=6, beta0=-2.0, beta1=1.0, beta2=0.0)
    assert lin.true_eigenvalues == (2.0 + 0j,)
    two = problems.gen_quadratic_companion(n=6, beta0=2.0, beta1=-3.0, beta2=1.0)
    roots = sorted(l.real for l in two.true_eigenvalues)
    np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-14)
    with pytest.raises(ValueError):
        problems.gen_quadratic_companion(n=6, beta0=0.0, beta1=0.0, beta2=0.0)
    with pytest.raises(ValueError):
        problems.gen_quadratic_companion(n=6, beta0=1.0, beta1=0.0, beta2=0.0)
    with pytest.raises(ValueError):
        problems.gen_quadratic_companion(n=2)


@pytest.mark.parametrize("betas", [(0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (-1.0, 1.0, 0.0)],
                         ids=["beta0-zero", "beta1-zero", "beta2-zero"])
@pytest.mark.parametrize("seed", [1, 2])
def test_quadratic_matches_dense_definition(betas, seed):
    """``A = [[A1, A0], [I, 0]]`` and ``B = [[-A2, 0], [0, I]]`` with
    ``Ai = [beta_i e1 | R_i | 0]`` built densely from the docstring: R_i
    the seeded Gaussian of density 5/n, drawn for A0, A1 and A2 in turn,
    each as a mask and then its values.  A zero beta_i leaves no entry."""
    n = 12
    gp = problems.gen_quadratic_companion(n=n, beta0=betas[0], beta1=betas[1],
                                          beta2=betas[2], seed=seed)
    rng = np.random.default_rng(seed)
    blocks = []
    for beta in betas:
        mask = rng.random((n, n - 2)) < 5.0 / n
        R = np.where(mask, rng.standard_normal((n, n - 2)), 0.0)
        blocks.append(np.hstack((beta * np.eye(n, 1), R, np.zeros((n, 1)))))
    A0, A1, A2 = blocks
    I, O = np.eye(n), np.zeros((n, n))
    np.testing.assert_array_equal(gp.pencil.A.to_dense(), np.block([[A1, A0], [I, O]]))
    np.testing.assert_array_equal(gp.pencil.B.to_dense(), np.block([[-A2, O], [O, I]]))
    for M in (gp.pencil.A, gp.pencil.B):
        assert np.all(M.values != 0.0)


# -- rectangular -------------------------------------------------------------------------

def test_rectangular_truth_structure():
    rect = problems.gen_rectangular(n=20, betaA=2.0, betaB=1.0)
    assert rect.true_eigenvalues == (2.0 + 0j,)
    assert rect.pencil.nrows == 20 and rect.pencil.ncols == 18
    assert rect.normal_rank == 18
    assert set(rank_at_random_mus(rect)) == {18}
    # rank drops only at the true eigenvalue
    assert dense_rank(pencil_value(rect.pencil, 2.0), 1e-10) == 17
    assert dense_rank(pencil_value(rect.pencil, 1.0), 1e-10) == 18
    with pytest.raises(ValueError):
        problems.gen_rectangular(n=20, betaB=0.0)
    with pytest.raises(ValueError):
        problems.gen_rectangular(n=4)


def test_rectangular_matches_dense_definition():
    """``A = P [betaA e1 | R_A]`` and ``B = P [betaB e1 | R_B]`` built densely
    from the docstring: P has ones on the main diagonal and the three
    subdiagonals below it, R_A 0.1 on its first subdiagonal, R_B 0.01 on
    its second."""
    n, beta_a, beta_b = 12, 2.0, 0.5
    rect = problems.gen_rectangular(n=n, betaA=beta_a, betaB=beta_b)
    P = sum(np.eye(n, k=-d) for d in range(4))
    e1 = np.eye(n, 1)
    RA = 0.1 * np.eye(n, n - 3, k=-1)
    RB = 0.01 * np.eye(n, n - 3, k=-2)
    np.testing.assert_array_equal(rect.pencil.A.to_dense(), P @ np.hstack((beta_a * e1, RA)))
    np.testing.assert_array_equal(rect.pencil.B.to_dense(), P @ np.hstack((beta_b * e1, RB)))


# -- dense rank-completing oracle ----------------------------------------------------------

def _generated(gp, extra=()):
    return gp.pencil, gp.normal_rank, gp.true_eigenvalues + extra


def _wide(gp):
    A, B = (SparseMatrix.from_dense(M.to_dense().conj().T) for M in (gp.pencil.A, gp.pencil.B))
    return Pencil(A, B), gp.normal_rank, gp.true_eigenvalues


def _quadratic_singular_a():
    """At seed 9 a sparse random column of R0 is empty, so ``[beta0 e1 | R0]``
    loses column rank, rank(A) falls below the normal rank and 0 is an
    eigenvalue that ``true_eigenvalues`` does not list."""
    gp = problems.gen_quadratic_companion(n=30, seed=9)
    assert dense_rank(gp.pencil.A.to_dense(), 1e-10) < gp.normal_rank
    return _generated(gp, (0j,))


def _diag12():
    p = Pencil(SparseMatrix.from_dense(np.diag([1.0, 2.0])), SparseMatrix.identity(2))
    return p, 2, (1.0, 2.0)


# (pencil, normal rank, true eigenvalues) and the solver's (sigma, steps, restarts)
ORACLE_CASES = [
    pytest.param(lambda: _generated(problems.gen_kronecker_toy()), (0.0, 5, 1), id="toy"),
    pytest.param(lambda: _generated(problems.gen_tolerance_pencil(seed=1)), (0.0, 11, 1),
                 id="tolerance-seed1"),
    pytest.param(lambda: _generated(problems.gen_tolerance_pencil(seed=2)), (0.0, 11, 1),
                 id="tolerance-seed2"),
    pytest.param(lambda: _generated(problems.gen_quadratic_companion(n=6)), (1.1, 20, 1),
                 id="quadratic6"),
    pytest.param(lambda: _generated(problems.gen_quadratic_companion(n=30)), (1.1, 20, 1),
                 id="quadratic30"),
    pytest.param(lambda: _generated(problems.gen_quadratic_companion(
        n=6, beta0=2.0, beta1=-3.0, beta2=1.0)), (1.1, 20, 1), id="quadratic6-two-roots"),
    pytest.param(_quadratic_singular_a, (0.1, 20, 1), id="quadratic30-seed9"),
    pytest.param(lambda: _generated(problems.gen_rectangular(n=14)), (0.9, 10, 2),
                 id="rectangular14"),
    pytest.param(lambda: _generated(problems.gen_rectangular(n=30)), (0.9, 10, 2),
                 id="rectangular30"),
    pytest.param(lambda: _generated(problems.gen_rectangular(n=14, betaA=2.0, betaB=0.5)),
                 (0.9, 10, 2), id="rectangular14-beta4"),
    pytest.param(lambda: _generated(problems.gen_rectangular(n=30, betaA=2.0, betaB=0.5)),
                 (0.9, 10, 2), id="rectangular30-beta4"),
    pytest.param(lambda: _wide(problems.gen_rectangular(n=30)), (0.9, 10, 2), id="wide30"),
    pytest.param(_diag12, (0.0, 2, 1), id="diag12"),
]


@pytest.mark.parametrize("seed", [0, 1], ids=lambda s: f"oracle{s}")
@pytest.mark.parametrize("make, solver", ORACLE_CASES)
def test_oracle_rank_and_true_set(make, solver, seed):
    p, rank, truth = make()
    got_rank, true = problems.oracle_pencil_spectrum(p, seed=seed)
    assert got_rank == rank
    assert len(true) == len(truth)
    assert all(np.min(np.abs(true - lam)) <= 1e-8 for lam in truth)


@pytest.mark.parametrize("make, solver", ORACLE_CASES)
def test_solver_true_set_within_oracle(make, solver):
    """The solver's True set is a subset of the oracle's and holds the
    oracle's eigenvalue nearest the shift."""
    p, _, _ = make()
    _, true = problems.oracle_pencil_spectrum(p)
    sigma, steps, restarts = solver
    cfg = SolverConfig(sigma=sigma, tau=1e-12, krylov_steps=steps, implicit_restarts=restarts)
    found = [t.lam for t in solve_singular(p, cfg) if t.label == "True"]
    assert all(np.min(np.abs(true - lam)) <= 1e-8 for lam in found)
    nearest = true[np.argmin(np.abs(true - sigma))]
    assert found and min(abs(lam - nearest) for lam in found) <= 1e-8


def test_oracle_size_guard():
    rect = problems.gen_rectangular(n=300)
    with pytest.raises(DimensionMismatch, match="limited to size 100"):
        problems.oracle_pencil_spectrum(rect.pencil)


def test_oracle_bordered_size_guard():
    """100 x 100 of normal rank 99 is within the row and column bound, but
    its bordered size 101 is one over the oracle's limit."""
    d = np.append(np.ones(99), 0.0)
    p = Pencil(SparseMatrix.from_dense(np.diag(d * np.arange(1, 101))),
               SparseMatrix.from_dense(np.diag(d)))
    with pytest.raises(DimensionMismatch, match="bordered size 101"):
        problems.oracle_pencil_spectrum(p)


# -- bordered dense oracles -------------------------------------------------------------

def test_infinite_multiplicity_toy():
    toy = problems.gen_kronecker_toy()
    bp = regularize(toy.pencil, 0.0, 1e-12)
    # displayed border: eigenvalue 1 plus an infinite eigenvalue of algebraic
    # multiplicity 4 (two chains of length two)
    assert problems.infinite_multiplicity(bp) == 4


def test_theta_spectrum_contains_true_eigenvalue():
    tol = problems.gen_tolerance_pencil()
    bp = regularize(tol.pencil, 0.0, 1e-12)
    theta = problems.bordered_theta_spectrum(bp)
    lams = np.array([1 / t for t in theta if abs(t) > 1e-10])
    for target in (1, 2, 3, 4):
        assert np.min(np.abs(lams - target)) <= 1e-8
