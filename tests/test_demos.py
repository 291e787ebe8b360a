"""The demo scripts run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["curate_and_store.py", "horizon_scheduling.py",
                                    "sparse_vs_dense_bench.py", "train_tiny_forecaster.py",
                                    "zero_shot_eval.py"])
def test_demo_runs(script, tmp_path):
    # The demos write into the working directory, so they run in tmp_path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
