"""Batch command-line front end.

Three subcommands: ``solve`` runs the full classification pipeline on a
matrix pair or a generated problem, ``rank`` sweeps pivot tolerances and
reports border dimensions, ``export`` writes a generated problem to Matrix
Market files with its ground truth.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__, problems
from .bordered import Pencil
from .errors import SingPencilError
from .mmio import MatrixMarketError, read_matrix_market, write_matrix_market
from .two_sided import (SolverConfig, result_table_text, result_to_dict,
                        solve_singular_full, tau_sweep)

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_complex(text):
    """'re' or 're,im' -> complex."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value {text!r} (want re or re,im)")


GENERATORS = {
    "kronecker_toy": lambda a: problems.gen_kronecker_toy(),
    "tolerance": lambda a: problems.gen_tolerance_pencil(
        perturbed=a.perturbed, **({} if a.gen_seed is None else {"seed": a.gen_seed})),
    "quadratic": lambda a: problems.gen_quadratic_companion(
        n=a.n or 500, beta0=a.beta0, beta1=a.beta1, beta2=a.beta2,
        **({} if a.gen_seed is None else {"seed": a.gen_seed})),
    "rectangular": lambda a: problems.gen_rectangular(
        n=a.n or 10000, betaA=a.beta_a, betaB=a.beta_b),
}


def _add_problem_args(p):
    p.add_argument("--a", dest="a_path", metavar="MTX", help="Matrix Market file for A")
    p.add_argument("--b", dest="b_path", metavar="MTX", help="Matrix Market file for B")
    p.add_argument("--generate", choices=sorted(GENERATORS), help="built-in problem generator")
    p.add_argument("--n", type=int, help="generator size parameter")
    p.add_argument("--gen-seed", type=int, default=None,
                   help="generator seed (defaults to the generator's reference seed)")
    p.add_argument("--perturbed", action="store_true", help="tolerance generator: perturbed variant")
    p.add_argument("--beta0", type=float, default=-1.0)
    p.add_argument("--beta1", type=float, default=1.0)
    p.add_argument("--beta2", type=float, default=0.0)
    p.add_argument("--beta-a", type=float, default=1.0)
    p.add_argument("--beta-b", type=float, default=1.0)


def _load_problem(args, parser):
    if args.generate and (args.a_path or args.b_path):
        parser.error("--generate conflicts with --a/--b")
    if args.generate:
        gen = GENERATORS[args.generate](args)
        return gen.pencil, {"generator": args.generate, "n": args.n,
                            "gen_seed": args.gen_seed, "perturbed": args.perturbed}
    if not (args.a_path and args.b_path):
        parser.error("need --a and --b, or --generate")
    A = read_matrix_market(args.a_path)
    B = read_matrix_market(args.b_path)
    return Pencil(A, B), {"a": args.a_path, "b": args.b_path}


def _render_csv(d):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eigenvalue_re", "eigenvalue_im", "infinite", "residual_right",
                     "residual_left", "x_border_norm", "y_border_norm", "label", "flags"])
    for r in d["results"]:
        ev = r["eigenvalue"]
        re_, im_ = ("inf", "") if ev == "inf" else (repr(ev[0]), repr(ev[1]))
        writer.writerow([re_, im_, r["infinite"], repr(r["residual_right"]),
                         "" if r["residual_left"] is None else repr(r["residual_left"]),
                         repr(r["x_border_norm"]),
                         "" if r["y_border_norm"] is None else repr(r["y_border_norm"]),
                         r["label"], ";".join(r["flags"])])
    return buf.getvalue()


def _config(parser, shift, **kwargs):
    """SolverConfig from option values; a value it rejects is a usage error."""
    try:
        return SolverConfig(sigma=_parse_complex(shift), **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_solve(args, parser):
    cfg = _config(parser, args.shift,
                  tau=args.tau,
                  krylov_steps=args.steps,
                  implicit_restarts=args.restarts,
                  classify_threshold=args.threshold,
                  seed=args.seed,
                  p_kind={"identity": "identity_block", "b": "b_block"}[args.p])
    pencil, inputs = _load_problem(args, parser)
    t0 = time.perf_counter()
    result = solve_singular_full(pencil, cfg)
    wall = time.perf_counter() - t0
    bp = result.bordered
    if pencil.is_square and bp.V.ncols == 0 and bp.W.ncols == 0:
        print("note: pencil is regular at this shift (empty border); "
              "all Ritz values will classify True", file=sys.stderr)

    d = result_to_dict(result)
    if args.format == "text":
        rendered = result_table_text(result) + "\n"
    elif args.format == "json":
        rendered = json.dumps(d, indent=2, sort_keys=True) + "\n"
    else:
        rendered = _render_csv(d)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        manifest = {
            "version": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "command": "solve",
            "inputs": inputs,
            "config": d["config"] | {"shift": d["shift"], "format": args.format},
            "seed": cfg.seed,
            "border": d["border"],
            "mode": d["mode"],
            "timings": d["timings"] | {"wall": wall},
            "result_table": args.out,
        }
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out} and {args.out}.manifest.json")
    else:
        sys.stdout.write(rendered)
    return 0


def cmd_rank(args, parser):
    try:
        taus = [float(t) for t in args.taus.split(",") if t.strip()]
    except ValueError as exc:
        parser.error(f"bad --taus: {exc}")
    if not taus:
        parser.error("--taus must list at least one tolerance")
    cfgs = [_config(parser, args.shift, tau=tau, seed=args.seed) for tau in taus]
    pencil, _ = _load_problem(args, parser)
    report = tau_sweep(pencil, cfgs[0], taus)
    print(report.to_text())
    return 0


def cmd_export(args, parser):
    if not args.generate:
        parser.error("export needs --generate")
    gen = GENERATORS[args.generate](args)
    prefix = args.out_prefix
    a_path, b_path = f"{prefix}_A.mtx", f"{prefix}_B.mtx"
    write_matrix_market(a_path, gen.pencil.A)
    write_matrix_market(b_path, gen.pencil.B)
    truth = {
        "generator": args.generate,
        "description": gen.description,
        "true_eigenvalues": [[l.real, l.imag] for l in gen.true_eigenvalues],
        "normal_rank": gen.normal_rank,
        "nrows": gen.pencil.nrows,
        "ncols": gen.pencil.ncols,
    }
    truth_path = f"{prefix}_truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    print(f"wrote {a_path}, {b_path}, {truth_path}")
    return 0


def build_parser():
    parser = _Parser(prog="singpencil",
                     description="Singular and rectangular generalized eigenvalue "
                                 "problems via rank-detecting LU bordering and "
                                 "two-sided shift-and-invert Arnoldi.")
    parser.add_argument("--version", action="version", version=f"singpencil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="classify eigenvalues near a shift")
    _add_problem_args(ps)
    ps.add_argument("--shift", default="0", help="shift sigma as re or re,im (default 0)")
    ps.add_argument("--tau", type=float, default=1e-12, help="pivot tolerance (default 1e-12)")
    ps.add_argument("--steps", type=int, default=20, help="Arnoldi steps (default 20)")
    ps.add_argument("--restarts", type=int, default=1, help="implicit restarts (default 1)")
    ps.add_argument("--threshold", type=float, default=1e-6,
                    help="border-norm classification threshold (default 1e-6)")
    ps.add_argument("--p", choices=["identity", "b"], default="identity",
                    help="semi-inner-product kind (default identity)")
    ps.add_argument("--format", choices=["text", "json", "csv"], default="text")
    ps.add_argument("--out", help="write the table here (plus <out>.manifest.json)")
    ps.add_argument("--seed", type=int, default=42, help="start-vector seed (default 42)")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("rank", help="tau sweep: border dimensions per tolerance")
    _add_problem_args(pr)
    pr.add_argument("--shift", default="0", help="shift sigma as re or re,im")
    pr.add_argument("--taus", required=True, help="comma-separated tolerances")
    pr.add_argument("--seed", type=int, default=42)
    pr.set_defaults(func=cmd_rank)

    pe = sub.add_parser("export", help="write a generated problem to Matrix Market")
    _add_problem_args(pe)
    pe.add_argument("--out-prefix", required=True, help="path prefix for the output files")
    pe.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, MatrixMarketError) as exc:
        print(f"singpencil: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SingPencilError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"singpencil: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
