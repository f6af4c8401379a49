"""A failing property test is reported as one failure under the suite's
settings, and the session goes on.

hypothesis's pytest plugin imports libcst to write a failing example's patch,
and that import warns about mypy_extensions.TypedDict.  Under
filterwarnings = ["error"] the warning became an INTERNALERROR that ended
the session, so every test after the failing one went unrun.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_after():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
