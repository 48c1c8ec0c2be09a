"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 bench/smoke.py

Runs every workload at tiny size with one repetition, traced and untraced,
and checks that every metric named in BENCHMARK.json is reported with its
unit; checks that the ground-truth gate fails tampered results and that
the self-time check catches overlapping spans; and checks that the
benchmark refuses to run where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

FAILURES = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def check_metrics():
    run.load_package()
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.NAMES),
           "BENCHMARK.json names only known workloads")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.NAMES:
            lines, result = run.measure(name, 1, 0, trace, tiny=True, workers=1)
            json.loads(json.dumps(result))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={int(trace)}: result keys")
            expect(got == want, f"{name} trace={int(trace)}: every {key} metric, with its unit")
            expect(result["correct"] and result["attempted"] >= 2 and result["failed"] == 0,
                   f"{name} trace={int(trace)}: gate passes")
            printed = {ln.split(" = ")[0] for ln in lines if " = " in ln}
            expect(set(want) <= printed, f"{name} trace={int(trace)}: report names every metric")


def check_gate():
    sp = run.load_package()
    import workloads
    wl = workloads.build("rectangular", 1, tiny=True)
    case = wl.cases[0]
    res = sp.solve_singular_full(wl.pencils["pencil"], case.config)
    expect(not workloads.check(case, res).issues, "gate passes an untouched result")

    relabelled = [replace(t, label=sp.LABEL_SPURIOUS) if t.label == sp.LABEL_TRUE else t
                  for t in res.triplets]
    v = workloads.check(case, replace(res, triplets=relabelled))
    expect(v.strict and v.issues, "gate fails a result whose True triplet was relabelled")

    bp = res.bordered
    swapped = replace(res, bordered=replace(bp, V=bp.W, W=bp.V))
    v = workloads.check(case, swapped)
    expect(v.strict and any("border" in m for m in v.issues),
           "gate fails a result with wrong border sizes")

    spur = next(t for t in res.triplets if t.label == sp.LABEL_SPURIOUS
                and abs(t.lam - 1.0) > case.match_tol)
    false = [replace(t, label=sp.LABEL_TRUE) if t is spur else t for t in res.triplets]
    v = workloads.check(case, replace(res, triplets=false))
    expect(v.false_true == 1, "gate counts a spurious triplet relabelled True as false_true")

    tol = workloads.build("tolerance_study", 1)
    red = [c for c in tol.cases if c.documented_red]
    v = workloads.check(red[0], sp.solve_singular_full(tol.pencils[red[0].pencil], red[0].config))
    expect(v.issues and not v.strict,
           "documented-red under-bordered solve fails but does not fail the run")


def check_spans():
    from spans import check_self_time_sum, self_times
    nested = [["op", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None],
              ["b", 2.0, 3.0, 1, 0, None], ["c", 5.0, 9.0, 0, 0, None]]
    expect(self_times(nested) == [3.0, 2.0, 1.0, 4.0], "self times of nested spans")
    expect(check_self_time_sum(nested, self_times(nested)) == 0.0, "self times add up")
    overlapping = nested + [["d", 3.5, 6.0, 0, 0, None]]
    try:
        check_self_time_sum(overlapping, [s[2] - s[1] for s in overlapping])
        caught = False
    except AssertionError:
        caught = True
    expect(caught, "self-time check catches overlapping sibling spans")


def check_refuses_without_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "quadratic",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "refuses to run without the package sources")


def main():
    check_spans()
    check_gate()
    check_metrics()
    check_refuses_without_sources()
    print(f"smoke: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'all checks passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
