"""Every script in demos/ runs to completion against the library as it is.

The demos call the forward API (densities, drift evaluators, payoffs,
Hellinger bounds, games) the way a reader would, so each one runs in its own
interpreter and must exit 0 without a traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfcontrol

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(Path(mfcontrol.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
