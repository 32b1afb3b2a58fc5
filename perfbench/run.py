"""The flagcalc benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload sweep_n3 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run times ops for ``--seconds`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` it replays a fixed
number of passes, each once untraced and once with every module wrapped
by ``tracer.Tracer``, and reports the per-layer metrics; the fixed
length makes its counts repeat exactly.  Every op's output goes through
``gate.Gate`` outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also writes the full result with its run
record.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from gate import Gate, load_reference, valid_cli_picks
from runinfo import ROOT, EngineMissing, child_env, load_engine, machine_record
from tracer import TRACE_PREFIX, Tracer, layer_metrics, merge_snapshots
from workloads import PARAMS, SETUP_PROBES, WORKLOADS, Op, passes, run_e1, run_sweep

SETUP_REPS = 9
TRACE_PASSES = {"sweep_n3": 2, "e1_pages": 2, "cli_session": 2}
CLI_TIMEOUT_S = 60
CLI_STUB = "import sys; from flagcalc.cli import main; sys.exit(main())"  # the console script
TRACER_SCRIPT = str(Path(__file__).resolve().parent / "tracer.py")
MAX_SHOWN_FAILURES = 20

clock = time.perf_counter


def setup_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports the engine and runs a first op."""
    t0 = clock()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBES[workload]], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
    elapsed = clock() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
    return elapsed


class Executor:
    """Runs one op, times it and checks its output outside the timing."""

    def __init__(self, workload: str, fc, gate: Gate):
        self.workload, self.fc, self.gate = workload, fc, gate
        self.tracer: Tracer | None = None
        self.child_traces: list[dict] = []
        self.corpus_cases = 0

    def __call__(self, op) -> tuple[float, list[str]]:
        elapsed, out, error = (self._cli if self.workload == "cli_session" else self._in_process)(op)
        if error:
            return elapsed, [f"{op.key}: {error}"]
        try:
            return elapsed, self._check(op, out)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            return elapsed, [f"{op.key}: output check raised {exc!r}"]

    def _in_process(self, op):
        run = run_sweep if self.workload == "sweep_n3" else run_e1
        if self.tracer:
            self.tracer.enabled = True
        t0 = clock()
        try:
            out = run(self.fc, op)
        except Exception as exc:  # a failing op is counted, the run goes on
            return clock() - t0, None, f"raised {exc!r}"
        finally:
            elapsed = clock() - t0
            if self.tracer:
                self.tracer.enabled = False
        return elapsed, out, None

    def _check(self, op, out) -> list[str]:
        if self.workload == "cli_session":
            return self._check_cli(op, out)
        if self.workload == "sweep_n3":
            return self.gate.check_sweep(op, *out)
        fc = self.fc
        return self.gate.check_e1(
            op, out, lambda: fc.assemble_transform(fc.z_label(op.weight), op.n, op.mode).table)

    def _cli(self, op):
        traced = self.tracer is not None
        cmd = [sys.executable, *((TRACER_SCRIPT,) if traced else ("-c", CLI_STUB)), *op.argv()]
        t0 = clock()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return clock() - t0, None, f"no exit within {CLI_TIMEOUT_S} s"
        return clock() - t0, proc, None

    def _check_cli(self, op, proc) -> list[str]:
        problems = self.gate.check_cli(op, proc.returncode, proc.stdout)
        if op.command == "corpus" and not problems:
            self.corpus_cases += len(json.loads(proc.stdout)["results"])
        if self.tracer is not None:
            lines = proc.stderr.decode(errors="replace").splitlines()
            if lines and lines[-1].startswith(TRACE_PREFIX):
                self.child_traces.append(json.loads(lines[-1][len(TRACE_PREFIX):]))
            else:
                problems.append(f"{op.key}: traced child wrote no trace")
        return problems


class Tally:
    """Per-op repetition count and fastest time, every latency, and failures.

    Latencies go into one flat array so that the harness's own memory
    stays small next to the engine's in ``peak_rss_mb``.
    """

    def __init__(self):
        self.best: dict[Op, list] = {}      # op -> [repetitions, fastest seconds]
        self.samples = array("d")
        self.failed = 0
        self.failures: list[str] = []

    def add(self, op, elapsed: float, problems: list[str]):
        entry = self.best.setdefault(op, [0, elapsed])
        entry[0] += 1
        entry[1] = min(entry[1], elapsed)
        self.samples.append(elapsed)
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def extend(self, other: "Tally"):
        for op, (count, fastest) in other.best.items():
            entry = self.best.setdefault(op, [0, fastest])
            entry[0] += count
            entry[1] = min(entry[1], fastest)
        self.samples.extend(other.samples)
        self.failed += other.failed
        self.failures += other.failures

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.samples)


def run_for(execute, pass_iter, seconds: float, probe) -> tuple[Tally, list[float]]:
    """Ops until ``seconds`` have passed, with set-up probes spread evenly over them.

    Spreading the probes makes their median describe the same stretch of
    machine time as the ops.  A probe runs between ops, never during one.
    """
    tally, setup = Tally(), []
    start = clock()
    for ops in pass_iter:
        for op in ops:
            if len(setup) < SETUP_REPS and clock() >= start + len(setup) * seconds / SETUP_REPS:
                setup.append(probe())
            tally.add(op, *execute(op))
            if clock() >= start + seconds:
                setup += [probe() for _ in range(SETUP_REPS - len(setup))]
                return tally, setup
    raise AssertionError("passes() never ends")


def run_ops(execute, ops) -> Tally:
    tally = Tally()
    for op in ops:
        tally.add(op, *execute(op))
    return tally


def _percentile(sorted_values: list[float], k: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[k - 1]


def _at_fastest(entries) -> list[float]:
    """Every executed op, timed at its op's fastest repetition, sorted."""
    return sorted(fastest for count, fastest in entries for _ in range(count))


def _summary(times: list[float]) -> dict:
    """Throughput and percentiles of sorted op times, with the samples beyond each."""
    out = {"ops_per_s": len(times) / sum(times), "samples": len(times)}
    for name, k in (("p50", 5), ("p90", 9)):
        value = _percentile(times, k)
        out[f"{name}_ms"] = value * 1e3
        out[f"samples_beyond_{name}"] = sum(1 for x in times if x > value)
    return out


def best_case_stats(tally: Tally) -> dict:
    """Throughput and percentiles with each op timed at its fastest repetition.

    A pass repeats every op, and on a shared machine the other tenants
    slow whole stretches of a run by tens of percent; the fastest
    repetition is the op's own cost.  The same figures over every raw
    sample are kept alongside, and for e1_pages the figures of each mode.
    """
    out = _summary(_at_fastest(tally.best.values()))
    out["raw"] = _summary(sorted(tally.samples))
    by_mode: dict[str, list] = {}
    for op, entry in tally.best.items():
        by_mode.setdefault(op.mode, []).append(entry)
    if len(by_mode) > 1:
        out["by_mode"] = {mode: _summary(_at_fastest(entries)) for mode, entries in by_mode.items()}
    return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(args, execute, make_passes) -> tuple[Tally, dict, dict]:
    probe = lambda: setup_probe(args.workload)  # noqa: E731
    probe()  # untimed: writes the bytecode cache, which users have
    tally, setup = run_for(execute, make_passes(), args.seconds, probe)
    pct = best_case_stats(tally)
    metrics = {
        "ops_per_s": (pct["ops_per_s"], "1/s"),
        "op_p50_ms": (pct["p50_ms"], "ms"),
        "op_p90_ms": (pct["p90_ms"], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    detail = {"percentiles": pct, "setup_s_samples": setup}
    return tally, metrics, detail


def traced(args, execute, make_passes) -> tuple[Tally, dict, dict]:
    """Fixed passes, each run once untraced and once traced, in ABBA order."""
    count = TRACE_PASSES[args.workload]
    in_process = args.workload != "cli_session"
    tracer = Tracer()
    plain, traced_tally = Tally(), Tally()
    for i, ops in enumerate(itertools.islice(make_passes(), count)):
        for trace_on in ((False, True) if i % 2 == 0 else (True, False)):
            if trace_on and in_process:
                tracer.install()
            execute.tracer = tracer if trace_on else None
            try:
                (traced_tally if trace_on else plain).extend(run_ops(execute, ops))
            finally:
                execute.tracer = None
                if trace_on and in_process:
                    tracer.uninstall()
    if args.workload == "cli_session":
        snap = merge_snapshots(execute.child_traces)
        import_s = statistics.median(t["import_s"] for t in execute.child_traces) \
            if execute.child_traces else 0.0
    else:
        snap, import_s = tracer.snapshot(), 0.0
    metrics = layer_metrics(snap)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.corpus_cases"] = (execute.corpus_cases, "count")
    metrics["trace.overhead"] = (plain.ops_per_s / traced_tally.ops_per_s, "ratio")
    total = Tally()
    total.extend(plain)
    total.extend(traced_tally)
    detail = {"passes": count, "untraced_ops_per_s": plain.ops_per_s,
              "traced_ops_per_s": traced_tally.ops_per_s, "trace": snap}
    return total, metrics, detail


def run_one(args) -> int:
    try:
        fc = load_engine()
    except (EngineMissing, ImportError) as exc:
        print(f"error: cannot load the engine: {exc}", file=sys.stderr)
        return 2
    ref = load_reference()
    execute = Executor(args.workload, fc, Gate(ref))
    make_passes = lambda: passes(args.workload, args.seed, valid_cli_picks(ref))  # noqa: E731
    measure = traced if args.trace else end_to_end
    tally, metrics, detail = measure(args, execute, make_passes)

    attempted = tally.attempted
    record = {**machine_record(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "params": PARAMS[args.workload]}
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>14.6g} {unit}")
    if not args.trace:
        pct = detail["percentiles"]
        for name in ("p50", "p90"):
            print(f"# op_{name}_ms from {pct['samples']} ops at their op's fastest repetition, "
                  f"{pct['samples_beyond_' + name]} beyond it")
        print("# with every sample as timed: ops_per_s {ops_per_s:.6g}, op_p50_ms {p50_ms:.6g}, "
              "op_p90_ms {p90_ms:.6g}".format(**pct["raw"]))
        for mode, m in pct.get("by_mode", {}).items():
            print(f"# {mode} mode alone: ops_per_s {m['ops_per_s']:.6g}, "
                  f"op_p50_ms {m['p50_ms']:.6g}, op_p90_ms {m['p90_ms']:.6g}")
        print(f"# setup_s is the median of {SETUP_REPS} fresh processes spread over the run")
    else:
        idle = [k for k, (v, _) in metrics.items() if k.endswith(".calls") and v == 0]
        print(f"# trace overhead: {detail['untraced_ops_per_s']:.6g} ops/s untraced, "
              f"{detail['traced_ops_per_s']:.6g} traced, over {detail['passes']} passes each")
        if detail["trace"]["missing"]:
            print("# functions not found, reported as not called: " + ", ".join(detail["trace"]["missing"]))
        if idle:
            print("# not called on this workload: " + ", ".join(k[:-6] for k in idle))
    print(f"{'error_rate':<38} {tally.failed / attempted:>14.6g} ratio  "
          f"({tally.failed} failed / {attempted} attempted)")
    for problem in tally.failures[:MAX_SHOWN_FAILURES]:
        print(f"# FAIL {problem}")

    summary = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        result = {"record": record, **summary, "error_rate": tally.failed / attempted,
                  "failures": tally.failures[:MAX_SHOWN_FAILURES], **detail}
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own child process, so memory peaks stay apart.

    ``--out`` names a directory that receives ``BENCH_<workload>.json``
    (``.trace.json`` for a traced run).  The last line merges the
    children's, with each metric prefixed by its workload.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            suffix = ".trace.json" if args.trace else ".json"
            cmd += ["--out", str(Path(args.out) / f"BENCH_{workload}{suffix}")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        code = max(code, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            return code or 2
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="also write the full result to this file (a directory for 'all')")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
