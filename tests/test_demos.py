"""The fast demos run to completion on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script, cwd):
    # the demos run outside the checkout, so that demo_output/ lands in cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sparse_storage_demo_runs(tmp_path):
    assert "verified bitwise" in run_demo("03_sparse_storage.py", tmp_path)


def test_parallel_determinism_demo_runs(tmp_path):
    assert "bit for bit" in run_demo("04_parallel_determinism.py", tmp_path)


def test_performance_model_demo_runs(tmp_path):
    run_demo("05_performance_model.py", tmp_path)
    assert (tmp_path / "demo_output" / "perf.csv").is_file()
