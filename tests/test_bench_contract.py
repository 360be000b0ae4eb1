"""The benchmark's command line runs against the library as it stands.

``bench/worker.py`` calls the library with keywords (``seed=`` for
``equivalence_roundtrip`` and ``classify_point``) and ``bench/tracing.py``
wraps names such as ``cli.Report.to_json``; a change that breaks either
shows here, in one short run per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["smooth_roundtrip", "corner_classify"])
def test_bench_run_is_correct_and_fails_nothing(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
