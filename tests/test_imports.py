"""What importing the pipeline loads."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_dataset_builder_import_does_not_load_networkx():
    """Only the Eagle coupling graph needs networkx, and a build never makes one."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import sys, repro.dataset.builder; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
