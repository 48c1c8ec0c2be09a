"""singpencil: sparse singular and rectangular generalized eigenvalue
problems via rank-detecting LU bordering and two-sided shift-and-invert
Arnoldi."""

__version__ = "0.1.0"

from .sparse import SparseMatrix, spmv, spmv_adjoint, norm_estimate, add_scaled
from .mmio import read_matrix_market, write_matrix_market
from .dense import qr, hessenberg_eig, small_generalized_eig, dense_rank
from .rank_lu import RankLU, factor, solve, solve_adjoint
from .bordered import (Pencil, BorderedPencil, ShiftInvertOperator, regularize,
                       assemble_bordered)
from .arnoldi import (ArnoldiDecomposition, arnoldi_run,
                      implicit_restart_infinity, ritz_pairs, purify, start_vector)
from .two_sided import (SolverConfig, EigenTriplet, SolveResult, solve_singular,
                        solve_singular_full, classify, tau_sweep,
                        result_table_text, result_to_dict, result_to_json,
                        LABEL_TRUE, LABEL_SPURIOUS, LABEL_INFINITE)
from . import problems
from .errors import (SingPencilError, DimensionMismatch, NonFiniteInput,
                     FactorizationError, ConvergenceError, StartVectorError)
