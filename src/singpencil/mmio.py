"""Matrix Market coordinate reader/writer for the sparse core.

Supports ``matrix coordinate real general`` and ``matrix coordinate complex
general`` with 1-based indices on disk.  Duplicate entries are summed on
load and everything is canonicalized to the internal 0-based CSC layout.
Values are written with 17 significant digits so a write/read round trip is
exact.
"""

import warnings

import numpy as np

from .errors import SingPencilError
from .sparse import SparseMatrix


class MatrixMarketError(SingPencilError):
    """Malformed or unsupported Matrix Market content."""


def read_matrix_market(path):
    """Load a coordinate-format file into a :class:`SparseMatrix`.

    Raises :class:`MatrixMarketError` for a bad banner or size line, an
    entry line with the wrong number of fields, an index that is not an
    integer in ``[1, nrows]`` / ``[1, ncols]``, a non-finite value, a
    value that is not an integer in an ``integer`` file, or an entry count
    that differs from the size line.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError(f"{path}: missing MatrixMarket banner")
        tokens = header.strip().split()
        if len(tokens) != 5:
            raise MatrixMarketError(f"{path}: malformed banner {header!r}")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"{path}: only 'matrix coordinate' is supported")
        if field not in ("real", "complex", "integer"):
            raise MatrixMarketError(f"{path}: unsupported field {field!r}")
        if symmetry != "general":
            raise MatrixMarketError(f"{path}: only 'general' symmetry is supported")

        line = fh.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = fh.readline()
        if not line:
            raise MatrixMarketError(f"{path}: missing size line")
        try:
            nrows, ncols, nnz = (int(p) for p in line.split())
        except ValueError:
            raise MatrixMarketError(f"{path}: malformed size line {line!r}") from None
        if min(nrows, ncols, nnz) < 0:
            raise MatrixMarketError(f"{path}: negative size in {line!r}")

        # an integer file's values parse as int64, so a fraction is rejected
        value = np.int64 if field == "integer" else np.float64
        dtype = [("row", np.int64), ("col", np.int64), ("re", value)]
        if field == "complex":
            dtype.append(("im", np.float64))
        try:
            with warnings.catch_warnings():
                # an empty body is valid when nnz == 0; the count check follows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, dtype=dtype, comments="%", ndmin=1)
        except ValueError as exc:
            raise MatrixMarketError(f"{path}: malformed entry: {exc}") from None
    if data.size != nnz:
        raise MatrixMarketError(f"{path}: expected {nnz} entries, found {data.size}")
    rows, cols = data["row"] - 1, data["col"] - 1
    if nnz and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise MatrixMarketError(f"{path}: entry index outside the {nrows}x{ncols} matrix")
    vals = np.empty(nnz, dtype=np.complex128)
    vals.real = data["re"]
    vals.imag = data["im"] if field == "complex" else 0.0
    if not np.isfinite(vals).all():
        raise MatrixMarketError(f"{path}: non-finite entry value")
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


def write_matrix_market(path, M):
    """Write ``M`` in coordinate format, with field ``complex`` when the
    matrix has a nonzero imaginary part and ``real`` otherwise."""
    field = "complex" if np.any(M.values.imag != 0.0) else "real"
    rows, cols, vals = M.coo()
    columns = [rows + 1, cols + 1, vals.real]
    if field == "complex":
        columns.append(vals.imag)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{M.nrows} {M.ncols} {M.nnz}\n")
        # indices stay exact as float64 below 2**53; %.17g round-trips a double
        np.savetxt(fh, np.column_stack(columns), fmt=["%d", "%d"] + ["%.17g"] * (len(columns) - 2))
