"""The test runner's own settings in pyproject.toml."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(n):
    assert n < 10


def test_other_deprecation_warning():
    warnings.warn("something else is deprecated", DeprecationWarning)
'''


def test_a_failing_property_prints_its_example_and_other_warnings_stay_errors(
        tmp_path):
    # to report a failure, hypothesis imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; as an error, that warning
    # ended the run in INTERNALERROR before the example was printed
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_property(" in output
    assert "DeprecationWarning: something else is deprecated" in output
    assert "2 failed" in output
    assert run.returncode == 1
