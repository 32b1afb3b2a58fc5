"""Outside-in tracing of the engine's modules.

``Tracer.install`` wraps each function named in ``TRACED`` at every
attribute of a loaded ``flagcalc`` module bound to it (so a call through
``transform``'s or ``cli``'s own import of ``rank`` counts too), and
methods on their class.  A wrapper records calls and self time: the
span's duration minus the time covered by wrapped children.  Spans are
aggregated in memory, per function and per caller -> callee edge.  A
function that no longer exists is listed in ``missing`` and its layer
reported as not called.

Run as a script, this file is one traced CLI call:

    PYTHONPATH=src python3 perfbench/tracer.py transform --twist "(1|0,0|0)"

It prints what the CLI prints and writes its trace as the last line of
standard error, after ``TRACE_PREFIX``.
"""

import sys
import time

TRACE_PREFIX = "perfbench-trace "

# (metric prefix, module under flagcalc, attribute path, report .calls too)
TRACED = (
    ("weights.bbw_reduce", "weights", "bbw_reduce", True),
    ("notation.parse_label", "notation", "parse_label", True),
    ("notation.format_entries", "notation", "format_entries", True),
    ("bundles.exterior_power", "bundles", "exterior_power", True),
    ("bundles.twist_by", "bundles", "FilteredBundle.twist_by", True),
    ("bundles.rank", "bundles", "rank", True),
    ("bundles.pieri_tensor", "bundles", "pieri_tensor", True),
    ("bundles.branch_to_torus", "bundles", "branch_to_torus", True),
    ("geometry.registry", "geometry", "registry", True),
    ("geometry.relative_cotangent", "geometry", "relative_cotangent", True),
    ("geometry.pullback_factors", "geometry", "pullback_factors", False),
    ("geometry.conormal", "geometry", "conormal", False),
    ("bbw.direct_images", "bbw", "direct_images", True),
    ("bbw.merge", "bbw", "DirectImageTable.merge", True),
    ("transform.assemble_transform", "transform", "assemble_transform", True),
    ("transform.annotate_form_types", "transform", "annotate_form_types", True),
    ("transform.form_dictionary", "transform", "form_dictionary", True),
    ("transform.check_ellipticity", "transform", "check_ellipticity", True),
    ("transform.formal_adjoint", "transform", "formal_adjoint", False),
    ("transform.involutive_cohomology", "transform", "involutive_cohomology", False),
    ("cli.main", "cli", "main", False),
)


def _observe_bbw_reduce(counts, result):
    counts["weights.singular"] += not result


def _observe_direct_images(counts, table):
    counts["bbw.cancel_candidates"] += len(table.log)
    counts["bbw.cancel_applied"] += sum(r.applied for r in table.log)


def _observe_assemble(counts, res):
    counts["transform.collapsed"] += res.complex_ is not None


def _observe_annotate(counts, result):
    counts["transform.annotated"] += result is not None


# Result hooks for the counters and ratios measured where the work happens.
OBSERVERS = {
    "weights.bbw_reduce": _observe_bbw_reduce,
    "bbw.direct_images": _observe_direct_images,
    "transform.assemble_transform": _observe_assemble,
    "transform.annotate_form_types": _observe_annotate,
}
COUNTERS = ("weights.singular", "bbw.cancel_candidates", "bbw.cancel_applied",
            "transform.collapsed", "transform.annotated")


class Tracer:
    """Per-function calls and self time, collected while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = {name: 0 for name, *_ in TRACED}
        self.self_s = {name: 0.0 for name, *_ in TRACED}
        self.edges: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[list] = []   # [name, time covered by children]
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        calls, self_s, edges, stack, counts = self.calls, self.self_s, self.edges, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            edge = f"{stack[-1][0] if stack else 'op'} -> {name}"
            edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if observe is not None:
                observe(counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every traced function; the engine must already be imported."""
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "flagcalc" or key.startswith("flagcalc."))]
        for name, module, path, _ in TRACED:
            owner = sys.modules.get(f"flagcalc.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if cls_path:  # a method or staticmethod on a class
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(name, fn)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._undo.append((owner, attr, raw))
                continue
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "edges": dict(self.edges), "counts": dict(self.counts),
                "missing": list(self.missing)}


def merge_snapshots(snaps: list[dict]) -> dict:
    """Sum several snapshots (one per traced child process)."""
    out = Tracer().snapshot()
    for snap in snaps:
        for part in ("calls", "self_s", "edges", "counts"):
            for key, value in snap[part].items():
                out[part][key] = out[part].get(key, 0) + value
        out["missing"] = sorted(set(out["missing"]) | set(snap["missing"]))
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics derived from a snapshot: name -> (value, unit)."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name, _module, _path, report_calls in TRACED:
        if name == "cli.main":
            continue
        if report_calls:
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["weights.singular_share"] = (
        _share(counts["weights.singular"], calls["weights.bbw_reduce"]), "ratio")
    out["bbw.cancel_candidates"] = (counts["bbw.cancel_candidates"], "count")
    out["bbw.cancel_applied"] = (counts["bbw.cancel_applied"], "count")
    out["transform.collapse_share"] = (
        _share(counts["transform.collapsed"], calls["transform.assemble_transform"]), "ratio")
    out["transform.annotate_hit_share"] = (
        _share(counts["transform.annotated"], calls["transform.annotate_form_types"]), "ratio")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    return out


def _child_main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import flagcalc.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = flagcalc.cli.main(argv)
    finally:
        tracer.enabled = False
    import json

    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps({"import_s": import_s, **tracer.snapshot()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
