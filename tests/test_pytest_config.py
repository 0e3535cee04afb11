"""The repository's pytest configuration reports a failing property test and runs on.

pyproject.toml turns every warning into an error. Hypothesis's report of a
failing example imports libcst, which warns on import; unfiltered, that
error inside the report hook ends the session with INTERNALERROR (exit 3)
and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FILE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
