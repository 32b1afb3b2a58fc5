"""Tests of the benchmark itself: the output gate, the tracer, the contract.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gate import Gate, alternating_rank_sum, column_euler, load_reference, m_rank
from runinfo import ROOT, child_env, load_engine
from tracer import Tracer, layer_metrics
from workloads import BOXES, Op, run_e1, run_sweep

fc = load_engine()
REF = load_reference()
TRIVIAL = BOXES[3].index((0, 0, 0, 0))
RUN = Path(__file__).resolve().parent / "run.py"


def corrupted(path: list) -> dict:
    """The reference with one digest's first hex digit changed."""
    ref = copy.deepcopy(REF)
    node = ref
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = ("0" if old[0] != "0" else "1") + old[1:]
    return ref


def test_sweep_gate_catches_a_corrupted_digest():
    op = Op(3, TRIVIAL)
    res, report = run_sweep(fc, op)
    assert Gate(REF).check_sweep(op, res, report) == []
    problems = Gate(corrupted(["sweep_n3", TRIVIAL])).check_sweep(op, res, report)
    assert problems and "reference digest" in problems[0]


def test_e1_gate_catches_a_corrupted_digest():
    op = Op(2, 5, "conservative")
    table = run_e1(fc, op)
    fresh = lambda: fc.assemble_transform(fc.z_label(op.weight), op.n, op.mode).table  # noqa: E731
    assert Gate(REF).check_e1(op, table, fresh) == []
    assert Gate(corrupted(["e1_pages", "2", "conservative", 5])).check_e1(op, table, fresh)


def test_cli_gate_catches_a_corrupted_digest_on_fresh_process_output():
    op = Op(3, TRIVIAL, command="transform")
    proc = subprocess.run([sys.executable, "-m", "flagcalc.cli", *op.argv()],
                          env=child_env(), cwd=ROOT, capture_output=True, timeout=60)
    assert Gate(REF).check_cli(op, proc.returncode, proc.stdout) == []
    bad = Gate(corrupted(["cli_session", "3", "transform", TRIVIAL]))
    assert bad.check_cli(op, proc.returncode, proc.stdout)
    assert Gate(REF).check_cli(op, 1, proc.stdout) == [f"{op.key}: exit code 1"]


def test_invariants_use_their_own_rank_formula():
    assert m_rank("(0||-1,0,1)") == 8 == fc.rank(fc.m_label((0, -1, 0, 1)))
    assert alternating_rank_sum([["(0||0,0,0)"], ["(1||-1,0,0)", "(-1||0,0,1)"]]) == 1 - 6
    assert column_euler({"0,1": ["(0||-1,0,1)"], "0,2": ["(0||0,0,0)"], "1,1": []}) == {0: -7}


def test_gate_catches_a_mode_dependent_euler_characteristic():
    gate = Gate(REF)
    op = Op(3, TRIVIAL, "paper")
    good = run_e1(fc, op)
    other = run_e1(fc, Op(3, TRIVIAL + 1, "conservative"))  # a different twist's page
    assert gate.check_e1(op, good, lambda: good) == []
    problems = gate.check_e1(Op(3, TRIVIAL, "conservative"), other, lambda: other)
    assert any("Euler" in p for p in problems)


def _traced_counts() -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for i in (TRIVIAL, 0, 17):
            run_sweep(fc, Op(3, i))
            run_e1(fc, Op(2, i, "paper"))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    snap = tracer.snapshot()
    return {k: snap[k] for k in ("calls", "edges", "counts")}


def test_tracer_counts_repeat_and_wrappers_come_off():
    original = fc.bundles.rank
    first = _traced_counts()
    assert first == _traced_counts()
    assert first["calls"]["transform.form_dictionary"] > 0
    # rank is reached through the imports in bbw and transform too
    assert any(edge.startswith("transform.") and edge.endswith("-> bundles.rank")
               for edge in first["edges"])
    assert fc.bundles.rank is original and fc.transform.rank is original


def test_tracer_reports_a_missing_function_as_not_called(monkeypatch):
    monkeypatch.delattr(fc.bundles, "branch_to_torus")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["bundles.branch_to_torus"]
    assert layer_metrics(tracer.snapshot())["bundles.branch_to_torus.calls"] == (0, "count")


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_a_short_run_prints_the_contract_line():
    proc = _run(ROOT, "--workload", "sweep_n3", "--seed", "3", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(last["metrics"]) == names


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_session", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert "error:" in proc.stderr
