"""The suite's own pytest configuration keeps a failing test from stopping the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(max_examples=5, derandomize=True)
    @given(st.integers())
    def test_fails(x):
        assert x != x


    def test_after_one():
        pass


    def test_after_two():
        pass
    """
)


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # reporting a failed hypothesis test imports libcst, which warns on a deprecated
    # mypy_extensions name; under filterwarnings = error that warning used to end the
    # run with INTERNALERROR (exit 3) before the later tests ran
    (tmp_path / "test_three.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "test_three.py::test_fails FAILED" in out
    assert "test_three.py::test_after_one PASSED" in out
    assert "test_three.py::test_after_two PASSED" in out
