"""Deterministic generators for the built-in test problems, together with
dense oracles for cross-checking ranks and spectra: the rank-completing
bordered eigensolve of a small pencil and the dense spectrum of a
solver's bordered pencil.

Every generator records its analytically known true eigenvalues and normal
rank so automated tests can compare solver output against ground truth.
"""

from dataclasses import dataclass

import numpy as np

from .bordered import Pencil
from .dense import dense_rank, small_generalized_eig
from .errors import DimensionMismatch
from .sparse import SparseMatrix


@dataclass(frozen=True)
class GeneratedProblem:
    pencil: Pencil
    true_eigenvalues: tuple
    normal_rank: int
    description: str


# -- small Kronecker-structured toy ------------------------------------------

def gen_kronecker_toy():
    """4x4 pencil with one finite eigenvalue 1, one right and one left
    minimal singular block, and normal rank 3."""
    A = np.array([
        [-1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
    ], dtype=float)
    B = np.array([
        [-1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ], dtype=float)
    return GeneratedProblem(
        pencil=Pencil(SparseMatrix.from_dense(A), SparseMatrix.from_dense(B)),
        true_eigenvalues=(1.0 + 0.0j,),
        normal_rank=3,
        description="4x4 singular toy: eigenvalue 1 plus two minimal singular blocks",
    )


# -- order-10 tolerance study pencil ------------------------------------------

def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix signs for determinism
    return q * np.sign(np.diag(r))[None, :]


def tolerance_pencil_blocks(perturbed=False):
    """The unmixed block-diagonal (A, B) of the order-10 tolerance pencil:
    a diag(1,2,3,4) regular block (spectrum on the diagonal) plus two
    copies of a rank-2 singular 3x3 block."""
    A = np.zeros((10, 10))
    B = np.zeros((10, 10))
    A[:4, :4] = np.diag([1.0, 2.0, 3.0, 4.0])
    B[:4, :4] = np.eye(4)
    if perturbed:
        A[2, 2] = 3e-10
        B[2, 2] = 1e-10
    a0 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=float)
    b0 = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    for off in (4, 7):
        A[off:off + 3, off:off + 3] = a0
        B[off:off + 3, off:off + 3] = b0
    return A, B


def gen_tolerance_pencil(perturbed=False, seed=1):
    """Order-10 pencil: the blocks of :func:`tolerance_pencil_blocks`
    conjugated by seeded random orthogonal factors.

    The perturbed variant scales the third diagonal pencil entry by 1e-10
    (in both A and B), which replaces one order-one singular direction by a
    tiny one and exercises the pivot-tolerance behaviour.  True eigenvalues
    are {1, 2, 3, 4}; the numerical normal rank is 8.
    """
    rng = np.random.default_rng(seed)
    P = _random_orthogonal(10, rng)
    Q = _random_orthogonal(10, rng)
    A, B = tolerance_pencil_blocks(perturbed)
    A = P @ A @ Q
    B = P @ B @ Q
    kind = "perturbed" if perturbed else "clean"
    return GeneratedProblem(
        pencil=Pencil(SparseMatrix.from_dense(A), SparseMatrix.from_dense(B)),
        true_eigenvalues=(1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j),
        normal_rank=8,
        description=f"order-10 tolerance pencil ({kind}), seed={seed}",
    )


# -- singular quadratic problem via companion linearization -------------------

def _quadratic_roots(beta0, beta1, beta2):
    if beta0 == 0 and beta1 == 0 and beta2 == 0:
        raise ValueError("all beta coefficients are zero")
    if beta2 == 0:
        if beta1 == 0:
            raise ValueError("beta configuration has no finite true eigenvalue")
        return (complex(-beta0 / beta1),)
    disc = np.sqrt(complex(beta1 * beta1 - 4.0 * beta2 * beta0))
    # stable quadratic formula
    q = -0.5 * (beta1 + disc) if (np.conj(beta1) * disc).real >= 0 else -0.5 * (beta1 - disc)
    r1 = q / beta2
    r2 = beta0 / q if q != 0 else complex(0.0)
    return (complex(r1), complex(r2))


def _ai_block(n, beta, rng):
    """Block [beta e1 | R | 0] with R an (n)x(n-2) seeded sparse Gaussian of
    density 5/n."""
    dens = 5.0 / n
    mask = rng.random((n, n - 2)) < dens
    vals = rng.standard_normal((n, n - 2))
    rows, cols = np.nonzero(mask)
    # the (0, 0) entry goes in whatever beta is: SparseMatrix.from_coo drops
    # it when beta is 0, as it drops every exact zero.  Values stay real so
    # sign flips cannot introduce -0.0 imaginary parts.
    return (np.append(rows, 0), np.append(cols + 1, 0),
            np.append(vals[rows, cols], float(beta)))


def gen_quadratic_companion(n=500, beta0=-1.0, beta1=1.0, beta2=0.0, seed=1):
    """Singular quadratic problem ``lambda^2 A2 + lambda A1 + A0`` with
    ``Ai = [beta_i e1 | R_i | 0]``, linearized to the 2n x 2n companion pencil

        A = [[A1, A0], [I, 0]],   B = [[-A2, 0], [0, I]].

    ``true_eigenvalues`` lists the roots of ``beta2 l^2 + beta1 l + beta0``;
    generically the normal rank is 2n - 1.  0 is a true eigenvalue too when
    ``[beta0 e1 | R0]`` loses column rank (rank(A) < 2n - 1), for example
    when a column of the sparse R0 is empty: n=30 at seeds 9 and 12, n=20 at
    seed 13, and n=500 at seeds 1 to 5, where rank(A) is 990 to 997.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    roots = _quadratic_roots(beta0, beta1, beta2)
    rng = np.random.default_rng(seed)
    blocks = [_ai_block(n, b, rng) for b in (beta0, beta1, beta2)]
    (r0, c0, v0), (r1, c1, v1), (r2, c2, v2) = blocks

    idx = np.arange(n, dtype=np.int64)
    ones = np.ones(n, dtype=np.complex128)
    # A: A1 at (0,0), A0 at (0,1), I at (1,0)
    rows_a = np.concatenate([r1, r0, idx + n])
    cols_a = np.concatenate([c1, c0 + n, idx])
    vals_a = np.concatenate([v1, v0, ones])
    # B: -A2 at (0,0), I at (1,1)
    rows_b = np.concatenate([r2, idx + n])
    cols_b = np.concatenate([c2, idx + n])
    vals_b = np.concatenate([-v2, ones])
    A = SparseMatrix.from_coo(2 * n, 2 * n, rows_a, cols_a, vals_a)
    B = SparseMatrix.from_coo(2 * n, 2 * n, rows_b, cols_b, vals_b)
    return GeneratedProblem(
        pencil=Pencil(A, B),
        true_eigenvalues=tuple(roots),
        normal_rank=2 * n - 1,
        description=f"quadratic companion n={n}, betas=({beta0},{beta1},{beta2}), seed={seed}",
    )


# -- rectangular full-column-rank problem -------------------------------------

def gen_rectangular(n=10000, betaA=1.0, betaB=1.0):
    """Rectangular n x (n-2) pencil with a single true eigenvalue
    ``betaA / betaB``.

    ``A = P [betaA e1 | R_A]`` and ``B = P [betaB e1 | R_B]`` where R_A has
    0.1 on its first subdiagonal, R_B has 0.01 on its second subdiagonal,
    and P is banded (ones on the main diagonal and the three subdiagonals
    below it).  ``R_A - lambda R_B`` has full column rank for every lambda,
    so V is empty and the border is two W columns.
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    if betaB == 0:
        raise ValueError("betaB must be nonzero (true eigenvalue would be at infinity)")
    m = n - 2
    cols = np.repeat(np.arange(m, dtype=np.int64), 4)
    band = cols + np.tile(np.arange(4, dtype=np.int64), m)  # P[:, j]'s rows in column j
    first = cols == 0

    def banded(rows, beta, value):
        keep = rows < n
        return SparseMatrix.from_coo(n, m, rows[keep], cols[keep],
                                     np.where(first, beta, value)[keep])

    # column j > 0 of [. | R_A] is 0.1 * P[:, j]; of [. | R_B] is 0.01 * P[:, j+1]
    A = banded(band, betaA, 0.1)
    B = banded(band + ~first, betaB, 0.01)
    return GeneratedProblem(
        pencil=Pencil(A, B),
        true_eigenvalues=(complex(betaA / betaB),),
        normal_rank=m,
        description=f"rectangular banded pencil n={n}, betaA={betaA}, betaB={betaB}",
    )


# -- dense oracles -------------------------------------------------------------

_DENSIFY_LIMIT = 200
# the oracle's bound on the bordered size: its batched SVD holds about four
# size**3 complex arrays, 46 MiB at 100
_ORACLE_LIMIT = 100
_ORACLE_RANK_TOL = 1e-10
_ORACLE_BORDER_TOL = 1e-6


def oracle_pencil_spectrum(p, seed=0):
    """Dense rank-completing oracle: ``(rank, true)`` of a small pencil.

    ``rank`` is the larger :func:`dense_rank` (at ``1e-10``) of ``A - mu B``
    at two seeded random complex ``mu``.  The eigentriplets of ``[[A, W],
    [V*, 0]] - lambda [[B, 0], [0, 0]]``, with seeded complex Gaussian V and
    W of ``ncols - rank`` and ``nrows - rank`` columns, come from
    :func:`small_generalized_eig` at a third random shift.  ``true`` holds
    the finite eigenvalues whose unit right and left vectors both have
    border parts of norm below ``1e-6``.

    It certifies only pencils that are singular up to rounding; a perturbed
    one gives false eigenvalues tiny border parts too.  Its cost grows like
    size**4 (one SVD per eigenvalue), so the bordered size ``nrows + ncols -
    rank`` is limited to 100.
    """
    n, m = p.nrows, p.ncols
    if max(n, m) > _ORACLE_LIMIT:  # the bordered size is at least this
        raise DimensionMismatch(f"oracle limited to size {_ORACLE_LIMIT}")
    A, B = p.A.to_dense(), p.B.to_dense()
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mus = gauss(3)
    rank = max(dense_rank(A - mu * B, _ORACLE_RANK_TOL) for mu in mus[:2])
    if n + m - rank > _ORACLE_LIMIT:
        raise DimensionMismatch(f"bordered size {n + m - rank} exceeds the oracle's "
                                f"limit {_ORACLE_LIMIT}")
    V, W = gauss(m, m - rank), gauss(n, n - rank)
    Ab = np.block([[A, W], [V.conj().T, np.zeros((m - rank, n - rank))]])
    Bb = np.zeros_like(Ab)
    Bb[:n, :m] = B
    lam, X, Y, infinite = small_generalized_eig(Ab - mus[2] * Bb, Bb, sigma=mus[2])
    border = np.maximum(np.linalg.norm(X[m:], axis=0), np.linalg.norm(Y[n:], axis=0))
    return rank, lam[~infinite & (border < _ORACLE_BORDER_TOL)]


def bordered_theta_spectrum(bp):
    """Dense spectrum of the inverted bordered operator.

    Eigenvalues ``theta`` of ``(A_sigma bordered)^{-1} B bordered``; pencil
    eigenvalues are ``sigma + 1/theta`` and infinite eigenvalues cluster at
    ``theta == 0``.  Densifiable sizes only.
    """
    if bp.size > 2 * _DENSIFY_LIMIT:
        raise DimensionMismatch("bordered pencil too large to densify")
    M = bp.shifted_matrix.to_dense()
    Bm = bp.b_matrix.to_dense()
    return np.linalg.eigvals(np.linalg.solve(M, Bm))


def infinite_multiplicity(bp, tol=1e-8):
    """Algebraic multiplicity of the infinite eigenvalue of the bordered
    pencil, counted as the theta-cluster at zero of the inverted operator."""
    theta = bordered_theta_spectrum(bp)
    return int(np.sum(np.abs(theta) <= tol))
