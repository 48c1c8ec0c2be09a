"""The benchmark harness still runs against the package.

``bench/smoke.py`` runs every benchmark workload at tiny size and checks
that each metric of ``BENCHMARK.json`` is reported and that the gate
passes; it reads the factor (``F.L.nnz`` and friends) through the spans
of ``bench/spans.py``, so a change to what the package exposes that
breaks the benchmark fails here instead of only at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "smoke: all checks passed" in proc.stdout
