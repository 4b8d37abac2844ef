"""Each demo runs to completion against the package sources."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # TMPDIR puts the run directory that demo 06 makes inside tmp_path, so
    # the test can see that the demo removes it and keeps its random name out
    # of stdout
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("seqssl_demo_*")) == []
    assert str(tmp_path) not in proc.stdout
