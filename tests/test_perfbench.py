"""The benchmark's trace targets still exist: a short traced verify run succeeds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_verify_run_finds_every_target():
    """The tracer wraps ``verify.grad_check``, ``gradcheck.backward`` and ``verify.conv2d``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "correct = True" in proc.stdout
