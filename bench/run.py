"""End-to-end and per-layer benchmark of the singpencil solver.

    python3 bench/run.py --workload quadratic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One run generates the workload from ``--seed``, writes
its pencils as Matrix Market files and checks the read-back bit for bit,
times the Matrix Market set-up path, then solves through the public API,
one operation at a time: a first operation, then warm ones for about
``--seconds`` seconds.  Every answer is checked against the generator's
ground truth.

``--trace 0`` reports the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced operations with traced ones, in which every layer
function is wrapped (see spans.py), and reports the per-layer metrics;
the spans are written to ``bench/out/``.  Report lines come first; the last
line of standard output is the result as one JSON object.  See README.md.
"""

import os

# single-threaded BLAS baseline; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = {
    "solve_s": "s",
    "first_solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "true_precision": "ratio",
}

PER_LAYER = {
    "rank_lu.factor_s": "s",
    "rank_lu.factor_calls": "count",
    "rank_lu.nnz_lu": "count",
    "rank_lu.fill_ratio": "ratio",
    "rank_lu.factor_us_per_nnz": "us",
    "rank_lu.border_rows": "count",
    "rank_lu.border_cols": "count",
    "rank_lu.detected_rank": "count",
    "bordered.regularize_s": "s",
    "rank_lu.solve_calls": "count",
    "rank_lu.solve_s": "s",
    "rank_lu.solve_ms": "ms",
    "rank_lu.solve_adjoint_calls": "count",
    "rank_lu.solve_adjoint_s": "s",
    "rank_lu.solve_adjoint_ms": "ms",
    "rank_lu.solve_bytes_computed": "B",
    "arnoldi.run_s": "s",
    "arnoldi.run_self_s": "s",
    "arnoldi.steps": "count",
    "arnoldi.breakdowns": "count",
    "arnoldi.restart_calls": "count",
    "arnoldi.restart_s": "s",
    "arnoldi.ritz_s": "s",
    "arnoldi.purify_calls": "count",
    "arnoldi.purify_s": "s",
    "sparse.spmv_calls": "count",
    "sparse.spmv_s": "s",
    "sparse.spmv_adjoint_calls": "count",
    "sparse.spmv_adjoint_s": "s",
    "sparse.two_norm_estimate_s": "s",
    "dense.calls": "count",
    "dense.s": "s",
    "mmio.read_s": "s",
    "mmio.read_bytes": "B",
    "two_sided.factor_s": "s",
    "two_sided.krylov_s": "s",
    "two_sided.projection_s": "s",
    "two_sided.projection_self_s": "s",
    "two_sided.triplets": "count",
    "two_sided.true_count": "count",
    "two_sided.false_true": "count",
    "two_sided.class_margin": "ratio",
    "trace.overhead_frac": "ratio",
    "env.calib_s": "s",
}

SETUP_REPS = (5, 500)   # fewest and most set-up repetitions per worker ...
SETUP_SECONDS = 0.5     # ... repeating until this much time is spent
WORKERS = 3             # fresh processes per untraced run
KEEP_TRACED_OPS = 3     # spans of later traced operations are dropped after use
DENSE = ("dense.small_generalized_eig", "dense.hessenberg_eig", "dense.qr")
KRYLOV = ("arnoldi.arnoldi_run", "arnoldi.implicit_restart_infinity")


def load_package():
    """Import singpencil from this checkout's ``src``; None if it is absent."""
    src = ROOT / "src"
    if not (src / "singpencil" / "__init__.py").is_file():
        return None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import singpencil
    if Path(singpencil.__file__).resolve().parent != (src / "singpencil").resolve():
        return None
    return singpencil


def calibrate(reps=15):
    """Fixed machine-speed probe (Python loop plus a small LAPACK call);
    lets drift of the host be told apart from a change of the program."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((160, 160))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        np.linalg.qr(a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(calib_s):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "calib_s": calib_s}


def summary(samples, unit):
    """Median plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.6g} {unit}"
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            text += f", p{p:g} {s[math.ceil(n * p / 100.0) - 1]:.6g} {unit}"
            break
    return text + f" (n={n})"


def bitwise_equal(a, b):
    return (a.shape == b.shape and a.col_ptr.tobytes() == b.col_ptr.tobytes()
            and a.row_idx.tobytes() == b.row_idx.tobytes()
            and a.values.tobytes() == b.values.tobytes())


class Bench:
    """State of one benchmark run: the workload, its inputs on disk and the
    outcome of every solve."""

    def __init__(self, sp, workloads, name, seed, tiny):
        self.sp, self.wl_mod = sp, workloads
        self.wl = workloads.build(name, seed, tiny)
        self.tally = Counter()
        self.issues = []

    def write_inputs(self, directory):
        """Write every pencil as two .mtx files (untimed) and check that
        the read-back is bit-identical."""
        self.files = {}
        ok = True
        for key, p in self.wl.pencils.items():
            paths = (str(Path(directory) / f"{key}_A.mtx"), str(Path(directory) / f"{key}_B.mtx"))
            self.sp.write_matrix_market(paths[0], p.A)
            self.sp.write_matrix_market(paths[1], p.B)
            back = [self.sp.read_matrix_market(f) for f in paths]
            ok &= bitwise_equal(back[0], p.A) and bitwise_equal(back[1], p.B)
            self.files[key] = paths
        return ok

    def setup(self):
        """The CLI's ``solve --a --b`` path: read both files, build the Pencil."""
        sp = self.sp
        t0 = time.perf_counter()
        pencils = {key: sp.Pencil(sp.read_matrix_market(a), sp.read_matrix_market(b))
                   for key, (a, b) in self.files.items()}
        return time.perf_counter() - t0, pencils

    def op(self, pencils):
        """One operation: every case of the workload, timed as a whole."""
        sp = self.sp
        results = []
        t0 = time.perf_counter()
        for case in self.wl.cases:
            try:
                results.append(sp.solve_singular_full(pencils[case.pencil], case.config))
            except Exception as exc:  # a failed solve is counted, not fatal
                results.append(exc)
        return time.perf_counter() - t0, results

    def gate(self, results):
        verdicts = []
        for case, res in zip(self.wl.cases, results):
            if isinstance(res, Exception):
                if self.tally["raised"] < 3:
                    traceback.print_exception(res, file=sys.stderr)
                self.tally["raised"] += 1
                verdicts.append(self.wl_mod.raised(res))
            else:
                verdicts.append(self.wl_mod.check(case, res))
        t = self.tally
        t["ops"] += 1
        t["failed_ops"] += any(v.strict for v in verdicts)
        t["solves"] += len(verdicts)
        t["solve_failures"] += sum(1 for v in verdicts if v.issues)
        t["true_count"] += sum(v.true_count for v in verdicts)
        t["false_true"] += sum(v.false_true for v in verdicts)
        for v in verdicts:
            for msg in v.issues:
                if msg not in self.issues:
                    self.issues.append(msg)
        return verdicts


def layer_metrics(spans, selfs, results, verdicts):
    """Per-layer metrics of one traced operation."""
    calls, dur, own, notes = Counter(), defaultdict(float), defaultdict(float), defaultdict(list)
    for s, st in zip(spans, selfs):
        calls[s[0]] += 1
        dur[s[0]] += s[2] - s[1]
        own[s[0]] += st
        if s[5] is not None:
            notes[s[0]].append(s[5])
    fac = notes["rank_lu.factor"]
    nnz_lu = sum(n["nnz_lu"] for n in fac)
    nnz_in = sum(n["nnz_in"] for n in fac)
    runs = notes["arnoldi.arnoldi_run"]
    solved = [r for r in results if not isinstance(r, Exception)]

    # projection phase: the solver's own timer minus the wrapped calls made
    # after the last Krylov span of each solve
    projection_self = 0.0
    roots = [i for i, s in enumerate(spans) if s[0] == "two_sided.solve_singular_full"]
    for i, res in zip(roots, results):
        if isinstance(res, Exception):
            continue
        kids = [s for s in spans if s[3] == i]
        krylov_end = max((s[2] for s in kids if s[0] in KRYLOV), default=spans[i][1])
        projection_self += res.timings["projection"] - sum(
            s[2] - s[1] for s in kids if s[1] >= krylov_end)

    def per_call_ms(name):
        return 1e3 * dur[name] / calls[name] if calls[name] else 0.0

    margins = [v.margin for v in verdicts if v.margin is not None]
    return {
        "rank_lu.factor_s": dur["rank_lu.factor"],
        "rank_lu.factor_calls": calls["rank_lu.factor"],
        "rank_lu.nnz_lu": nnz_lu,
        "rank_lu.fill_ratio": nnz_lu / nnz_in if nnz_in else 0.0,
        "rank_lu.factor_us_per_nnz": 1e6 * dur["rank_lu.factor"] / nnz_lu if nnz_lu else 0.0,
        "rank_lu.border_rows": sum(n["border_rows"] for n in fac),
        "rank_lu.border_cols": sum(n["border_cols"] for n in fac),
        "rank_lu.detected_rank": sum(n["detected_rank"] for n in fac),
        "bordered.regularize_s": dur["bordered.regularize"],
        "rank_lu.solve_calls": calls["rank_lu.solve"],
        "rank_lu.solve_s": dur["rank_lu.solve"],
        "rank_lu.solve_ms": per_call_ms("rank_lu.solve"),
        "rank_lu.solve_adjoint_calls": calls["rank_lu.solve_adjoint"],
        "rank_lu.solve_adjoint_s": dur["rank_lu.solve_adjoint"],
        "rank_lu.solve_adjoint_ms": per_call_ms("rank_lu.solve_adjoint"),
        "rank_lu.solve_bytes_computed": sum(
            n["bytes"] for n in notes["rank_lu.solve"] + notes["rank_lu.solve_adjoint"]),
        "arnoldi.run_s": dur["arnoldi.arnoldi_run"],
        "arnoldi.run_self_s": own["arnoldi.arnoldi_run"],
        "arnoldi.steps": sum(n["steps"] for n in runs),
        "arnoldi.breakdowns": sum(1 for n in runs if n["breakdown"] is not None),
        "arnoldi.restart_calls": calls["arnoldi.implicit_restart_infinity"],
        "arnoldi.restart_s": dur["arnoldi.implicit_restart_infinity"],
        "arnoldi.ritz_s": dur["arnoldi.ritz_pairs"],
        "arnoldi.purify_calls": calls["arnoldi.purify"],
        "arnoldi.purify_s": dur["arnoldi.purify"],
        "sparse.spmv_calls": calls["sparse.spmv"],
        "sparse.spmv_s": dur["sparse.spmv"],
        "sparse.spmv_adjoint_calls": calls["sparse.spmv_adjoint"],
        "sparse.spmv_adjoint_s": dur["sparse.spmv_adjoint"],
        "sparse.two_norm_estimate_s": dur["sparse.two_norm_estimate"],
        "dense.calls": sum(calls[n] for n in DENSE),
        "dense.s": sum(dur[n] for n in DENSE),
        "two_sided.factor_s": sum(r.timings["factor"] for r in solved),
        "two_sided.krylov_s": sum(r.timings["arnoldi"] for r in solved),
        "two_sided.projection_s": sum(r.timings["projection"] for r in solved),
        "two_sided.projection_self_s": projection_self,
        "two_sided.triplets": sum(len(r.triplets) for r in solved),
        "two_sided.true_count": sum(v.true_count for v in verdicts),
        "two_sided.false_true": sum(v.false_true for v in verdicts),
        "two_sided.class_margin": min(margins, default=0.0),
    }


def worker(name, seed, seconds, trace, tiny=False, min_ops=1):
    """Measure in this process: write and check the inputs, time the
    set-up path, then run operations for about ``seconds`` seconds.
    Returns the raw samples as a JSON-ready dict."""
    sp = load_package()
    import workloads
    from spans import Tracer, check_self_time_sum, self_times

    bench = Bench(sp, workloads, name, seed, tiny)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    setup_times, read_s, read_bytes = [], [], []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"inputs-{name}-") as tmp:
        readback_ok = bench.write_inputs(tmp)
        t_setup = time.perf_counter()
        while len(setup_times) < SETUP_REPS[1] and (
                len(setup_times) < SETUP_REPS[0] or time.perf_counter() - t_setup < SETUP_SECONDS):
            if trace:
                lo = len(tracer.spans)
                with tracer.installed(), tracer.root("setup", -1 - len(setup_times)):
                    dt, pencils = bench.setup()
                reads = [s for s in tracer.spans[lo:] if s[0] == "mmio.read_matrix_market"]
                read_s.append(sum(s[2] - s[1] for s in reads))
                read_bytes.append(sum(s[5]["bytes"] for s in reads))
                if len(setup_times) >= KEEP_TRACED_OPS:
                    del tracer.spans[lo:]
            else:
                dt, pencils = bench.setup()
            setup_times.append(dt)
    if not readback_ok:
        bench.issues.append("Matrix Market read-back is not bit-identical")

    first, results = bench.op(pencils)
    bench.gate(results)
    del results
    # the window for warm operations opens after the first one
    t_start = time.perf_counter()
    warm, traced, per_op, gap = [], [], [], 0.0
    while True:
        elapsed = time.perf_counter() - t_start
        est = statistics.median(warm or [first]) * (2 if trace else 1)
        if len(warm) >= min_ops and elapsed + est > seconds:
            break
        dt, results = bench.op(pencils)
        bench.gate(results)
        warm.append(dt)
        if trace:
            lo = len(tracer.spans)
            with tracer.installed(), tracer.root("op", len(traced)) as root:
                _, results = bench.op(pencils)
            traced.append(root[2] - root[1])
            verdicts = bench.gate(results)
            spans = [s[:3] + [s[3] - lo if s[3] >= 0 else -1] + s[4:]
                     for s in tracer.spans[lo:]]
            selfs = self_times(spans)
            gap = max(gap, check_self_time_sum(spans, selfs))
            per_op.append(layer_metrics(spans, selfs, results, verdicts))
            if len(traced) > KEEP_TRACED_OPS:
                del tracer.spans[lo:]
        del results

    out = {"first": first, "warm": warm, "setup": setup_times,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "readback_ok": readback_ok, "tally": dict(bench.tally), "issues": bench.issues}
    if trace:
        gap = max(gap, check_self_time_sum(tracer.spans, self_times(tracer.spans)))
        out.update(traced=traced, per_op=per_op, read_s=read_s, read_bytes=read_bytes,
                   gap=gap, spans=tracer.to_json())
    return out


def spawn_worker(name, seed, seconds, tiny):
    """Run ``worker`` in a fresh interpreter, so each first operation is
    the first of its process, as it is for a CLI user."""
    spec = json.dumps({"name": name, "seed": seed, "seconds": seconds, "tiny": tiny})
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--worker", spec],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, trace, tiny=False, workers=WORKERS):
    """One benchmark run; returns ``(report lines, result dict)``, or None
    when the package cannot be imported from this checkout.

    Untraced, the run is split over ``workers`` fresh worker processes,
    run one after another, each running warm operations for
    ``seconds / workers``; their samples are pooled.  Traced, one worker
    runs in this process.
    """
    if load_package() is None:
        return None
    calib_s = calibrate()
    env = environment(calib_s)
    if trace:
        parts = [worker(name, seed, seconds, True, tiny, min_ops=2)]
    else:
        parts = [spawn_worker(name, seed, seconds / workers, tiny) for _ in range(workers)]

    tally = Counter()
    issues = []
    for p in parts:
        tally.update(p["tally"])
        issues += [m for m in p["issues"] if m not in issues]
    firsts = [p["first"] for p in parts]
    warm = [t for p in parts for t in p["warm"]]
    setup = [t for p in parts for t in p["setup"]]
    fail_frac = tally["solve_failures"] / tally["solves"]
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} "
             f"processes {len(parts)}",
             f"solve_s {summary(warm, 's')}",
             f"first_solve_s {summary(firsts, 's')}",
             f"setup_s {summary(setup, 's')}",
             f"fail_frac {fail_frac:.6g} ({tally['solve_failures']}/{tally['solves']} solves)",
             f"false_true {tally['false_true'] / tally['ops']:.6g} per operation "
             f"({tally['false_true']} of {tally['true_count']} True labels)"]
    lines += [f"gate: {msg}" for msg in issues]
    if trace:
        p = parts[0]
        metrics = {k: statistics.median(m[k] for m in p["per_op"]) for k in p["per_op"][0]}
        metrics["mmio.read_s"] = statistics.median(p["read_s"])
        metrics["mmio.read_bytes"] = statistics.median(p["read_bytes"])
        metrics["trace.overhead_frac"] = (statistics.median(p["traced"])
                                          / statistics.median(p["warm"]) - 1.0)
        metrics["env.calib_s"] = calib_s
        units = PER_LAYER
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"env": env, "workload": name, "seed": seed,
                                          "spans": p["spans"]}))
        lines += [f"trace: {len(p['traced'])} traced operations; self times sum to their "
                  f"root span within {p['gap']:.1e} of it (tolerance 1e-9)",
                  f"trace: spans written to {trace_path.relative_to(ROOT)}"]
    else:
        precision = 1.0 - tally["false_true"] / tally["true_count"] if tally["true_count"] else 0.0
        metrics = {
            "solve_s": statistics.median(warm),
            "first_solve_s": statistics.median(firsts),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in parts),
            "ok_frac": 1.0 - fail_frac,
            "true_precision": precision,
        }
        units = END_TO_END
    lines += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    correct = all(p["readback_ok"] for p in parts) and tally["failed_ops"] == 0
    result = {"correct": correct, "attempted": tally["ops"], "failed": tally["failed_ops"],
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("quadratic", "rectangular", "wide", "tolerance_study"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        spec = json.loads(args.worker)
        print(json.dumps(worker(spec["name"], spec["seed"], spec["seconds"], False, spec["tiny"])))
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        print(f"error: the singpencil package is not in {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines, result = out
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
