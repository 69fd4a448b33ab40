"""What ``import sltrack`` does to a fresh interpreter: numpy loads with one
BLAS thread unless a variable sets the count, and the environment is left
as it was. Each check runs in a child interpreter, as this one has numpy
loaded already."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_DEFAULT_NUM_THREADS")

CHILD = '''
import json, os, subprocess, sys
{before}
environ = dict(os.environ)
import sltrack
task = "/proc/self/task"
print(json.dumps({{
    "unchanged": dict(os.environ) == environ,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "grandchild": subprocess.run(
        [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, check=True).stdout.strip(),
}}))
'''


def import_in_child(before: str = "", **preset: str) -> dict:
    """What a fresh interpreter reports after ``before`` and ``import
    sltrack``, none of BLAS_THREADS set but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", CHILD.format(before=before)],
                         env={**env, **preset}, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_import_leaves_the_environment_as_it_was():
    report = import_in_child()
    assert report["unchanged"]
    assert report["blas"] is None
    assert report["grandchild"] == "None"


def test_import_loads_numpy_without_a_blas_thread_pool():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    assert import_in_child()["threads"] == 1


def test_a_preset_blas_thread_count_is_kept():
    report = import_in_child(OPENBLAS_NUM_THREADS="2")
    assert report["unchanged"]
    assert report["blas"] == report["grandchild"] == "2"


def test_numpy_imported_first_leaves_the_environment_as_it_was():
    report = import_in_child(before="import numpy")
    assert report["unchanged"]
    assert report["blas"] is None
