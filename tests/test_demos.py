"""Every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=300, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
