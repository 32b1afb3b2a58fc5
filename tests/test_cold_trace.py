"""The memo rule, checked against the benchmark's tracer.

The engine memoizes its twist-independent layers (registry, relative
forms, exterior powers, form dictionary) and, below them, untraced
records: the shape of each label (``bundles._shape``), the adjacent
pairs of each filtration (``bbw._adjacent_pairs``) and the compiled
kernels of each weight length (``weights._reducer`` and
``weights._pair_scan``) and of each block shape (``bundles._rank_kernel``).  A memo's miss path
must call no other traced function, or the first traced run would count
differently from a warm one.  Each memo is checked here in process, by
one cold call under an enabled tracer; and since earlier tests in the
full suite warm the memos, the benchmark's own tracer test is also run
alone in a fresh interpreter, to check that the traced call counts of
its workload paths repeat from a cold start.  The traced call counts of
a few fixed ops are pinned, so that a change which moves any of them
shows here.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import flagcalc
from flagcalc import bbw, bundles, geometry, transform, weights
from flagcalc.bundles import exterior_power
from flagcalc.geometry import MAX_N, registry, relative_cotangent

ROOT = pathlib.Path(__file__).resolve().parents[1]
TEST = "perfbench/test_perfbench.py::test_tracer_counts_repeat_and_wrappers_come_off"


def _perfbench_module(name: str):
    """A benchmark module loaded from its file, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


def _filtration(n: int, p: int) -> tuple:
    wedge = exterior_power(relative_cotangent(registry(n)["mu"]), p)
    return wedge.components, wedge.levels


# (name, module, attribute, arguments of one call); an untraced memo's name
# is not in the tracer's table, and its cold call must count nothing at all
MEMOS = [
    ("geometry.registry", geometry, "registry", lambda: (4,)),
    ("geometry.relative_cotangent", geometry, "relative_cotangent", lambda: (registry(4)["nu"],)),
    ("bundles.exterior_power", bundles, "exterior_power",
     lambda: (relative_cotangent(registry(3)["mu"]), 2)),
    ("transform.form_dictionary", transform, "form_dictionary", lambda: (4,)),
    ("bundles._shape", bundles, "_shape", lambda: ("X", 3)),
    ("bbw._adjacent_pairs", bbw, "_adjacent_pairs", lambda: _filtration(3, 2)),
    ("weights._reducer", weights, "_reducer", lambda: (3,)),
    ("weights._pair_scan", weights, "_pair_scan", lambda: (3,)),
    ("bundles._rank_kernel", bundles, "_rank_kernel", lambda: ((1, 3),)),
]


@pytest.mark.parametrize("name, module, attr, args", MEMOS, ids=[m[0] for m in MEMOS])
def test_a_memo_miss_calls_no_traced_function(name, module, attr, args):
    args = args()
    getattr(module, attr).cache_clear()
    tracer = _perfbench_module("tracer").Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        getattr(module, attr)(*args)  # the traced wrapper around the cold memo
    finally:
        tracer.enabled = False
        tracer.uninstall()
    snap = tracer.snapshot()
    traced = {name: 1} if name in snap["calls"] else {}
    assert {called: c for called, c in snap["calls"].items() if c} == traced
    assert [edge for edge in snap["edges"] if edge.startswith(f"{name} -> ")] == []


def test_each_leg_is_built_once_and_equals_a_fresh_build():
    for n in range(2, MAX_N + 1):
        for leg in ("mu", "nu"):
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


# (workload runner, n, box twist, modes) -> nonzero traced calls of those ops.
# The transform's page is one pass over the untwisted wedges, so a sweep op
# calls no twist_by, direct_images or merge; run_e1 calls the public three.
# (3|0,0|-3) collapses without an involutive rule, so it asks the rule's
# predicate and never calls involutive_cohomology.  A complex's ranks call the
# rank kernels directly, so the one traced rank of a sweep op is the
# involutive rule's rank of its module.
PINNED_CALLS = {
    ("run_sweep", 3, (0, 0, 0, 0), ("paper",)): {
        "weights.bbw_reduce": 17, "bundles.exterior_power": 5, "bundles.rank": 2,
        "geometry.registry": 2, "geometry.relative_cotangent": 1,
        "transform.assemble_transform": 1, "transform.annotate_form_types": 1,
        "transform.form_dictionary": 1, "transform.check_ellipticity": 1,
        "transform.involutive_cohomology": 1},
    ("run_sweep", 3, (1, 0, 0, -2), ("paper",)): {
        "weights.bbw_reduce": 16, "bundles.exterior_power": 5, "geometry.registry": 1,
        "geometry.relative_cotangent": 1, "transform.assemble_transform": 1},
    ("run_sweep", 3, (3, 0, 0, -3), ("paper",)): {
        "weights.bbw_reduce": 16, "bundles.exterior_power": 5, "geometry.registry": 1, "geometry.relative_cotangent": 1,
        "transform.assemble_transform": 1, "transform.annotate_form_types": 1,
        "transform.form_dictionary": 1, "transform.check_ellipticity": 1},
    ("run_e1", 2, (2, -1, -3), ("paper", "conservative")): {
        "weights.bbw_reduce": 8, "bundles.exterior_power": 6, "bundles.twist_by": 6,
        "geometry.registry": 2, "geometry.relative_cotangent": 2, "bbw.direct_images": 6,
        "bbw.merge": 2},
    ("run_e1", 3, (-1, 1, 1, 2), ("paper", "conservative")): {
        "weights.bbw_reduce": 32, "bundles.exterior_power": 10, "bundles.twist_by": 10,
        "geometry.registry": 2, "geometry.relative_cotangent": 2, "bbw.direct_images": 10,
        "bbw.merge": 2},
}


@pytest.mark.parametrize("ops", PINNED_CALLS,
                         ids=lambda ops: f"{ops[0]}-n{ops[1]}-{','.join(map(str, ops[2]))}")
def test_traced_call_counts_of_fixed_ops_are_pinned(ops):
    workloads = _perfbench_module("workloads")
    runner, n, twist, modes = ops
    tracer = _perfbench_module("tracer").Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for mode in modes:
            op = workloads.Op(n, workloads.BOXES[n].index(twist), mode)
            getattr(workloads, runner)(flagcalc, op)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    calls = tracer.snapshot()["calls"]
    assert {name: c for name, c in calls.items() if c} == PINNED_CALLS[ops]
