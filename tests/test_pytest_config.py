"""The test configuration in ``pyproject.toml``."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """Every warning is an error, but reporting a failing ``@given`` example
    imports libcst, which warns on import; that must not end the session
    with an internal error (exit 3) before the other tests run."""
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n != n

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
