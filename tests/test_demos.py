"""Every demo runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from convexlab.data import DATA_DIR_ENV

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
OFFLINE_DEMOS = (
    "01_risk_averting_criteria.py",
    "02_gradient_verification.py",
    "03_convexity_scan.py",
    "04_training_strategies.py",
)


def run_demo(name, tmp_path, **env):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **env)
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=full_env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", OFFLINE_DEMOS)
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mnist_demo_runs(mnist_dir, tmp_path):
    # skipped with the MNIST criteria when the files are unreachable
    proc = run_demo("05_mnist_pipeline.py", tmp_path, **{DATA_DIR_ENV: os.path.abspath(mnist_dir)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
