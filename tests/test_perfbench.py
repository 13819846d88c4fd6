"""Smoke test of the benchmark harness against the current library.

perfbench/worker.py binds every workload operation by name and warms the
library's caches before it measures anything, so a changed signature or a
removed function breaks the benchmark; these tests make that break fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
REFS = {
    "audit-default": ROOT / "perfbench" / "ref" / "audit_default.json",
    "zeros-t100": ROOT / "perfbench" / "ref" / "zeros_t100.json",
    "points-mixed": None,  # generated with mpmath on demand; set-up never reads it
}


def _worker(tmp_path, workload, *extra):
    """Run the worker from the repository root; its exit code and last stdout line."""
    ref = REFS[workload] or tmp_path / "unread-reference.json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1", "--ref", str(ref),
         "--out-dir", str(tmp_path), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr


@pytest.mark.parametrize("workload", sorted(REFS))
def test_setup_binds_every_operation(tmp_path, workload):
    code, last = _worker(tmp_path, workload, "--seconds", "0", "--setup-only")
    assert code == 0, last
    assert json.loads(last)["setup_s"] > 0.0


def test_zeros_pass_matches_its_reference(tmp_path):
    code, last = _worker(tmp_path, "zeros-t100", "--seconds", "0")
    assert code == 0, last
    result = json.loads(last)
    assert result["attempted"] == 29
    assert result["failed"] == 0
