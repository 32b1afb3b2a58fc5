"""The benchmark's tracer test, run alone in a fresh interpreter.

The engine memoizes its twist-independent layers (registry, exterior
powers, form dictionary) and, below them, the untraced record of each
label shape (``bundles._shape``).  Inside the full suite earlier tests
warm those memos, so only a fresh process checks that the traced call counts
repeat from a cold start: a memo whose miss path calls another traced
function would make the first traced run count differently.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TEST = "perfbench/test_perfbench.py::test_tracer_counts_repeat_and_wrappers_come_off"


def test_tracer_counts_repeat_from_a_cold_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", TEST],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
