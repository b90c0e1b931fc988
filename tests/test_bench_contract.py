"""The benchmark's use of the library: one traced round of each workload.

``bench/run.py`` wraps library functions from outside ``src/`` (module
globals, a tracing model proxy) and cross-checks the traced gradient calls
against the run's own counters.  A library change that breaks any of that
fails here, not only when the benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


# Every workload of BENCHMARK.json: its traced round checks the gradient
# counters, determinism, the CSV round trip and, for quad_expected, the
# theorem verdicts.
@pytest.mark.parametrize("workload", ["char_sampled", "quad_expected", "char_expected"])
def test_traced_round_is_correct(tmp_path, workload):
    # The benchmark writes under its working directory, so it runs from a
    # temporary root that links to the sources instead of from the repository.
    for name in ("src", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(REPO / name)
    cmd = [sys.executable, str(REPO / "bench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
