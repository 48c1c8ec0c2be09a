import numpy as np
import pytest

from singpencil.sparse import SparseMatrix


def random_sparse(rng, nrows, ncols, density=0.3, complex_vals=True):
    mask = rng.random((nrows, ncols)) < density
    vals = rng.standard_normal((nrows, ncols))
    if complex_vals:
        vals = vals + 1j * rng.standard_normal((nrows, ncols))
    return SparseMatrix.from_dense(np.where(mask, vals, 0.0))


def random_rank_matrix(rng, nrows, ncols, rank, complex_vals=True):
    """Dense-ish matrix of exact rank ``rank`` as a product of Gaussians."""
    g1 = rng.standard_normal((nrows, rank))
    g2 = rng.standard_normal((rank, ncols))
    if complex_vals:
        g1 = g1 + 1j * rng.standard_normal((nrows, rank))
        g2 = g2 + 1j * rng.standard_normal((rank, ncols))
    return SparseMatrix.from_dense(g1 @ g2)


def dense_bordered(M, V, W):
    """Dense [[M, W], [V*, 0]] for oracle comparisons."""
    n, m = M.shape
    ell, w = V.ncols, W.ncols
    size = n + ell
    out = np.zeros((size, size), dtype=complex)
    out[:n, :m] = M.to_dense()
    out[:n, m:] = W.to_dense()
    out[n:, :m] = V.to_dense().conj().T
    return out


def permutation_matrix(perm):
    """P with ``(P @ X)[k] == X[perm[k]]``."""
    out = np.zeros((perm.size, perm.size))
    out[np.arange(perm.size), perm] = 1.0
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
