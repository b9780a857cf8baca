"""The test settings in pyproject.toml: a failing property test is an
ordinary failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; filterwarnings = ["error"] alone turns that into INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_failing.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
