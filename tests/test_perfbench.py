"""The benchmark's trace targets and reads exist: a short traced run of each workload works."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["infer", "train", "verify"])
def test_traced_run_finds_every_target(workload):
    """Every wrapped library name exists, and what the run reads of a forward result
    (``outputs`` as ``(stride, tensor)`` levels with ``tensors()``) still has that shape."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "correct = True" in proc.stdout
