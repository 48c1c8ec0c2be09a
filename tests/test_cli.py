import json

import pytest
from jsonschema import validate as schema_validate

import singpencil
from singpencil.cli import main
from singpencil.mmio import read_matrix_market, write_matrix_market
from singpencil.sparse import SparseMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _schema():
    import importlib.resources as res
    with res.files(singpencil).joinpath("schemas/result.schema.json").open() as fh:
        return json.load(fh)


def test_solve_generated_text(capsys):
    code, out, err = run(capsys, "solve", "--generate", "tolerance",
                         "--shift", "0", "--steps", "11", "--restarts", "1")
    assert code == 0
    lines = out.splitlines()
    assert "label" in lines[0]
    trues = [ln for ln in lines[1:] if ln.endswith("True")]
    assert len(trues) == 4


def test_solve_json_schema_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, out, err = run(capsys, "solve", "--generate", "tolerance",
                         "--shift", "0", "--steps", "11", "--restarts", "1",
                         "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    schema_validate(doc, _schema())
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["inputs"] == {"generator": "tolerance", "perturbed": False, "seed": 1}
    assert manifest["border"]["detected_rank"] == 8
    assert manifest["result_table"] == str(out_path)
    assert "factor" in manifest["timings"] and "wall" in manifest["timings"]


def test_solve_manifest_records_generator_options(tmp_path, capsys):
    out_path = tmp_path / "res.txt"
    code, _, _ = run(capsys, "solve", "--generate", "quadratic", "--n", "8",
                     "--beta2", "1", "--beta1", "-3", "--beta0", "2",
                     "--shift", "1.1", "--steps", "10", "--out", str(out_path))
    assert code == 0
    inputs = json.loads((tmp_path / "res.txt.manifest.json").read_text())["inputs"]
    # the options given, and the generator's default for the seed
    assert inputs == {"generator": "quadratic", "n": 8, "beta0": 2.0, "beta1": -3.0,
                      "beta2": 1.0, "seed": 1}


def test_solve_manifest_omits_options_the_generator_ignores(tmp_path, capsys):
    out_path = tmp_path / "res.txt"
    code, _, _ = run(capsys, "solve", "--generate", "rectangular", "--n", "14",
                     "--beta0", "5", "--gen-seed", "3", "--perturbed",
                     "--shift", "0.9", "--steps", "10", "--out", str(out_path))
    assert code == 0
    inputs = json.loads((tmp_path / "res.txt.manifest.json").read_text())["inputs"]
    assert inputs == {"generator": "rectangular", "n": 14, "betaA": 1.0, "betaB": 1.0}


def test_solve_deterministic_table(tmp_path, capsys):
    args = ["solve", "--generate", "quadratic", "--n", "40", "--shift", "1.1",
            "--steps", "10", "--restarts", "1", "--format", "csv"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].startswith("eigenvalue_re,")


def test_solve_regular_pencil_degenerate_note(tmp_path, capsys):
    I4 = SparseMatrix.identity(4)
    a = tmp_path / "I.mtx"
    write_matrix_market(a, I4)
    code, out, err = run(capsys, "solve", "--a", str(a), "--b", str(a),
                         "--shift", "5", "--steps", "3")
    assert code == 0
    assert "regular" in err
    rows = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert rows and all(ln.endswith("True") for ln in rows)
    assert all(ln.strip().startswith("1") for ln in rows)  # spectrum {1}


def test_solve_complex_shift_parses(capsys):
    code, out, err = run(capsys, "solve", "--generate", "kronecker_toy",
                         "--shift", "0.3,0.4", "--steps", "4")
    assert code == 0


def test_solve_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--generate", "nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # no problem given
    assert exc.value.code == 1
    code, _, err = run(capsys, "solve", "--a", str(tmp_path / "missing.mtx"),
                       "--b", str(tmp_path / "missing.mtx"))
    assert code == 1 and "singpencil:" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--shift", "nan"],
    ["solve", "--shift", "inf"],
    ["solve", "--steps", "0"],
    ["solve", "--restarts", "-1"],
    ["solve", "--threshold", "2"],
    ["solve", "--tau", "nan"],
    ["solve", "--tau", "1"],
    ["rank", "--taus", "0.1,2"],
    ["rank", "--taus", "1e-12", "--seed", "1"],
    ["solve", "--seed", "-1"],
    ["solve", "--a", "x.mtx"],
    ["rank", "--taus", ","],
    ["rank", "--taus", "abc"],
    ["solve", "--shift", "1,2,3"],
], ids=lambda a: " ".join(a))
def test_bad_option_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--generate", "kronecker_toy"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("gen_args", [
    ["quadratic", "--n", "0"],
    ["quadratic", "--n", "2"],
    ["rectangular", "--n", "2"],
    ["quadratic", "--gen-seed", "-1"],
    ["tolerance", "--gen-seed", "-1"],
    ["quadratic", "--beta0", "0", "--beta1", "0"],
    ["rectangular", "--beta-b", "0"],
], ids=lambda a: " ".join(a))
@pytest.mark.parametrize("command", ["solve", "rank", "export"])
def test_bad_generator_arguments_are_usage_errors(tmp_path, capsys, command, gen_args):
    extra = {"solve": [], "rank": ["--taus", "1e-12"],
             "export": ["--out-prefix", str(tmp_path / "p")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--generate"] + gen_args + extra)
    assert exc.value.code == 1
    assert f"error: --generate {gen_args[0]}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # export wrote nothing


@pytest.mark.parametrize("shapes", [
    ((3, 3), (3, 4)),
    ((0, 0), (0, 0)),
    ((3, 0), (3, 0)),
], ids=["shape-mismatch", "empty", "no-columns"])
@pytest.mark.parametrize("command", [["solve"], ["rank", "--taus", "1e-12"]],
                         ids=["solve", "rank"])
def test_bad_pencil_files_are_usage_errors(tmp_path, capsys, command, shapes):
    paths = []
    for name, shape in zip("AB", shapes):
        paths.append(tmp_path / f"{name}.mtx")
        write_matrix_market(paths[-1], SparseMatrix.zeros(*shape))
    with pytest.raises(SystemExit) as exc:
        main(command + ["--a", str(paths[0]), "--b", str(paths[1])])
    assert exc.value.code == 1
    assert "bad input" in capsys.readouterr().err


def test_solve_numerical_failure_exit_2(capsys):
    # at shift 1 the toy's only finite eigenvalue is the shift itself
    code, _, err = run(capsys, "solve", "--generate", "kronecker_toy", "--shift", "1")
    assert code == 2
    assert "numerical failure" in err and "seminorm kernel" in err


def test_solve_pencil_with_no_finite_eigenvalue_exit_2(tmp_path, capsys):
    # A = I3, B = 0: every eigenvalue is infinite, so the operator is zero
    a, b = tmp_path / "A.mtx", tmp_path / "B.mtx"
    write_matrix_market(a, SparseMatrix.identity(3))
    write_matrix_market(b, SparseMatrix.zeros(3, 3))
    code, _, err = run(capsys, "solve", "--a", str(a), "--b", str(b))
    assert code == 2
    assert "numerical failure: start vector lies in the seminorm kernel" in err


def test_rank_sweep_table(capsys):
    code, out, _ = run(capsys, "rank", "--generate", "tolerance",
                       "--taus", "2.2e-15,1e-5,0.2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 and "border_rows" in lines[0]
    ranks = [int(ln.split()[-1]) for ln in lines[1:]]
    assert ranks == [8, 8, 7]
    borders = [int(ln.split()[1]) for ln in lines[1:]]
    assert borders == [2, 2, 3]


def test_rank_identity(tmp_path, capsys):
    I4 = SparseMatrix.identity(4)
    a = tmp_path / "I.mtx"
    write_matrix_market(a, I4)
    code, out, _ = run(capsys, "rank", "--a", str(a), "--b", str(a),
                       "--shift", "5", "--taus", "1e-14,1e-6,1e-2")
    assert code == 0
    ranks = [int(ln.split()[-1]) for ln in out.splitlines()[1:]]
    assert ranks == [4, 4, 4]


def test_export_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "toy")
    code, out, _ = run(capsys, "export", "--generate", "kronecker_toy",
                       "--out-prefix", prefix)
    assert code == 0
    A = read_matrix_market(prefix + "_A.mtx")
    assert A.shape == (4, 4)
    truth = json.loads((tmp_path / "toy_truth.json").read_text())
    assert truth["normal_rank"] == 3
    assert truth["true_eigenvalues"] == [[1.0, 0.0]]


def test_export_quadratic_bitwise_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "quad")
    code, _, _ = run(capsys, "export", "--generate", "quadratic", "--n", "10",
                     "--out-prefix", prefix)
    assert code == 0
    from singpencil import problems
    gen = problems.gen_quadratic_companion(n=10)
    for name, M in (("_A.mtx", gen.pencil.A), ("_B.mtx", gen.pencil.B)):
        loaded = read_matrix_market(prefix + name)
        assert loaded.values.tobytes() == M.values.tobytes()
        assert loaded.row_idx.tobytes() == M.row_idx.tobytes()


def test_export_requires_generate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--out-prefix", "/tmp/x"])
    assert exc.value.code == 1
