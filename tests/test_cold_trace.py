"""The memo rule, checked against the benchmark's tracer.

The engine memoizes its twist-independent layers (registry, relative
forms, exterior powers, form dictionary) and, below them, the untraced
record of each label shape (``bundles._shape``).  A memo's miss path
must call no other traced function, or the first traced run would count
differently from a warm one.  Each memo is checked here in process, by
one traced cold call; and since earlier tests in the full suite warm the
memos, the benchmark's own tracer test is also run alone in a fresh
interpreter, to check that the traced call counts of its workload paths
repeat from a cold start.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from flagcalc import bundles, geometry, transform
from flagcalc.geometry import MAX_N, registry, relative_cotangent

ROOT = pathlib.Path(__file__).resolve().parents[1]
TEST = "perfbench/test_perfbench.py::test_tracer_counts_repeat_and_wrappers_come_off"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (traced name, module, attribute, arguments of one call)
MEMOS = [
    ("geometry.registry", geometry, "registry", lambda: (4,)),
    ("geometry.relative_cotangent", geometry, "relative_cotangent", lambda: (registry(4)["nu"],)),
    ("bundles.exterior_power", bundles, "exterior_power",
     lambda: (relative_cotangent(registry(3)["mu"]), 2)),
    ("transform.form_dictionary", transform, "form_dictionary", lambda: (4,)),
]


@pytest.mark.parametrize("name, module, attr, args", MEMOS, ids=[m[0] for m in MEMOS])
def test_a_memo_miss_calls_no_traced_function(name, module, attr, args):
    args = args()
    getattr(module, attr).cache_clear()
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        getattr(module, attr)(*args)  # the traced wrapper around the cold memo
    finally:
        tracer.enabled = False
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["calls"][name] == 1
    assert [edge for edge in snap["edges"] if edge.startswith(f"{name} -> ")] == []


def test_each_leg_is_built_once_and_equals_a_fresh_build():
    for n in range(2, MAX_N + 1):
        for leg in ("mu", "nu", "eta"):
            f = registry(n)[leg]
            assert relative_cotangent(f) is relative_cotangent(f)
            assert relative_cotangent(f) == relative_cotangent.__wrapped__(f)


def test_tracer_counts_repeat_from_a_cold_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", TEST],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
