import warnings

import numpy as np
import pytest

from singpencil.cli import main
from singpencil.mmio import MatrixMarketError, read_matrix_market, write_matrix_market
from singpencil.sparse import SparseMatrix

from conftest import random_sparse


def test_read_basic_real(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "% a comment\n"
                 "2 3 2\n"
                 "1 1 1.5\n"
                 "2 3 -2\n")
    M = read_matrix_market(p)
    np.testing.assert_array_equal(M.to_dense(), [[1.5, 0, 0], [0, 0, -2]])


def test_read_complex_and_duplicates(tmp_path):
    p = tmp_path / "m.mtx"
    p.write_text("%%MatrixMarket matrix coordinate complex general\n"
                 "2 2 3\n"
                 "1 1 1 2\n"
                 "1 1 2 -1\n"
                 "2 2 0 1\n")
    M = read_matrix_market(p)
    np.testing.assert_array_equal(M.to_dense(), [[3 + 1j, 0], [0, 1j]])


@pytest.mark.parametrize("header,msg", [
    ("%%MatrixMarket matrix array real general", "coordinate"),
    ("%%MatrixMarket matrix coordinate real symmetric", "symmetry"),
    ("%%MatrixMarket matrix coordinate pattern general", "field"),
    ("nonsense", "banner"),
])
def test_read_rejects_unsupported(tmp_path, header, msg):
    p = tmp_path / "bad.mtx"
    p.write_text(header + "\n1 1 0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)


def test_read_entry_count_mismatch(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)


def _case(name, text, expected=None):
    return pytest.param(text, expected, id=name)


@pytest.mark.parametrize("text,expected", [
    _case("comments-between-entries",
          "real general\n2 2 2\n1 1 1.5\n% between entries\n\n2 2 -2\n", [[1.5, 0], [0, -2]]),
    _case("complex-comments", "complex general\n1 2 1\n% c\n1 2 0 -1\n% trailing\n", [[0, -1j]]),
    _case("empty-body", "real general\n2 2 0\n", [[0, 0], [0, 0]]),
    _case("comment-only-body", "real general\n2 2 0\n% comment only\n", [[0, 0], [0, 0]]),
    _case("non-integral-index", "real general\n2 2 1\n1.5 1 1\n"),
    _case("index-below-one", "real general\n2 2 1\n0 1 1\n"),
    _case("column-beyond-ncols", "real general\n2 2 1\n1 3 1\n"),
    _case("row-beyond-nrows", "real general\n2 2 1\n3 1 1\n"),
    _case("nan-value", "real general\n2 2 1\n1 1 nan\n"),
    _case("inf-value", "real general\n2 2 1\n1 1 -inf\n"),
    _case("nan-imaginary-part", "complex general\n2 2 1\n1 1 1 nan\n"),
    _case("entry-too-short", "real general\n2 2 1\n1 1\n"),
    _case("entry-too-long", "real general\n2 2 1\n1 1 1 1\n"),
    _case("complex-entry-too-short", "complex general\n2 2 1\n1 1 1\n"),
    _case("non-integral-size", "real general\n2 2 1.5\n1 1 1\n"),
    _case("negative-size", "real general\n2 -2 0\n"),
    _case("more-entries-than-declared", "real general\n2 2 0\n1 1 1\n"),
])
def test_read_validates_entries(tmp_path, capsys, text, expected):
    p = tmp_path / "m.mtx"
    p.write_text("%%MatrixMarket matrix coordinate " + text)
    if expected is None:
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)
        assert main(["solve", "--a", str(p), "--b", str(p)]) == 1
        assert "numerical failure" not in capsys.readouterr().err
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = read_matrix_market(p)
        np.testing.assert_array_equal(M.to_dense(), expected)


def test_round_trip_bitwise_complex(tmp_path, rng):
    M = random_sparse(rng, 9, 7, density=0.4)
    p = tmp_path / "c.mtx"
    write_matrix_market(p, M)
    M2 = read_matrix_market(p)
    assert M2.values.tobytes() == M.values.tobytes()
    assert M2.row_idx.tobytes() == M.row_idx.tobytes()
    assert M2.col_ptr.tobytes() == M.col_ptr.tobytes()
    assert p.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate complex general"


def test_round_trip_bitwise_real(tmp_path, rng):
    M = random_sparse(rng, 9, 7, density=0.4, complex_vals=False)
    p = tmp_path / "r.mtx"
    write_matrix_market(p, M)
    assert p.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
    M2 = read_matrix_market(p)
    assert M2.values.tobytes() == M.values.tobytes()


def test_write_real_field_rejects_complex(tmp_path):
    M = SparseMatrix.from_coo(1, 1, [0], [0], [1 + 1j])
    with pytest.raises(MatrixMarketError):
        write_matrix_market(tmp_path / "x.mtx", M, field="real")


def test_empty_matrix_round_trip(tmp_path):
    M = SparseMatrix.zeros(3, 5)
    p = tmp_path / "z.mtx"
    write_matrix_market(p, M)
    M2 = read_matrix_market(p)
    assert M2.shape == (3, 5) and M2.nnz == 0
