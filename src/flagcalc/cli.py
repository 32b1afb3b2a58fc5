"""Command-line front end.

``main`` reads the run settings once (``RunConfig.from_args``) and passes
them to the command.  A command computes its result, builds one JSON
document and a lazy markdown renderer, and ``_show`` prints one of the two
by ``--format``: human-readable text (``markdown``, the default) or
deterministic JSON (sorted keys, stable ordering); a JSON run renders no
markdown, and the complex and check reports read the document.  A command fails only by raising.  A mathematical failure (a
table that does not collapse to a complex, a failed ellipticity check,
failed corpus cases) prints its report first; an unsupported twist prints
nothing.  ``main`` reads the exit code off the exception: 2 for an
``ArgumentError``, 1 for any other ``ValueError``, 0 when nothing was
raised; every nonzero exit writes an ``error:`` line.  The engine raises
``ArgumentError`` for what it cannot take as given: a label that does not
parse, a wedge column out of range, a twist not on Z or X or for another
n, ``--conormal`` on a Z-leg, an involutive twist not on Z, a ``--line``
for another n.  This module raises it for its own input checks: bad flags
or config values, labels that do not fit their space, of more than
MAX_N + 1 entries or with an entry over MAX_ENTRY in absolute value, n
outside 2..MAX_N, ``--conormal`` with ``-p``, an empty fixture directory,
a malformed fixture file or case (named as ``file[index]``).

A JSON config file (``--config``) may supply defaults for ``n``,
``twist``, ``mode``, ``format`` and ``fibration``; explicit flags win.
With no ``fibration``, ``_forms`` takes the leg the op works on: ``nu``
for the conormal part, ``mu`` otherwise.  A fixture case's ``n``,
``twist``, ``mode`` and ``fibration`` go through the same ``RunConfig``,
and an op that mirrors a command runs that command's compute function and
projects its JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .bbw import MODES, CohomologyResult, DirectImageTable, global_cohomology
from .bundles import (
    BundleLabel,
    FilteredBundle,
    label_from_string,
    label_space,
    pieri_tensor,
    rank,
    tensor_line,
    trivial_label,
)
from .geometry import (
    MAX_N,
    conormal,
    pullback_factors,
    pullback_line,
    registry,
    twist_frames,
)
from .notation import ArgumentError, Value, _quoted, format_weight, parse_label
from .transform import (
    ComplexOnM,
    EllipticityReport,
    FormType,
    TransformResult,
    alternating_sum,
    assemble_transform,
    check_ellipticity,
    complex_from_form_types,
    e1_page,
    emit_realization,
    formal_adjoint,
    involutive_cohomology,
    twisted_forms,
)
from .weights import bbw_reduce

__all__ = ["main", "RunConfig"]

FORMATS = ("markdown", "json")
FIBRATIONS = ("mu", "nu", "eta")
# Largest |entry| of a label from outside: with MAX_N + 1 entries every printed
# number stays far under Python's 4300-digit int -> str limit (a GL(17) rank < 1300).
MAX_ENTRY = 10**9


class RunConfig(Value):
    """The one reader of run settings: a config file, then flags; or a
    fixture case's fields.  ``n`` is an integer in 2..MAX_N."""

    n: int = 3
    twist: str | None = None
    mode: str = "paper"
    format: str = "markdown"
    fibration: str | None = None  # the leg the op works on (_forms)

    def __post_init__(self):
        if type(self.n) is not int:
            raise ArgumentError(f"n must be an integer, got {self.n!r}")
        if not 2 <= self.n <= MAX_N:
            raise ArgumentError(f"n must be in 2..{MAX_N}, got {self.n}")
        if not isinstance(self.twist, (str, type(None))):
            raise ArgumentError(f"twist must be a label string, got {self.twist!r}")
        for key, allowed in (("mode", MODES), ("format", FORMATS), ("fibration", FIBRATIONS)):
            value = getattr(self, key)
            if value not in allowed and (key, value) != ("fibration", None):
                raise ArgumentError(f"{key} must be one of {allowed}, got {value!r}")

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        """The config file, then flags."""
        base: dict = {}
        if getattr(args, "config", None):
            try:  # ValueError covers bad UTF-8 and bad JSON
                with open(args.config, encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, ValueError, RecursionError) as exc:
                raise ArgumentError(f"cannot read config {args.config}: {exc}")
            if not isinstance(loaded, dict):
                raise ArgumentError("config file must hold a JSON object")
            base.update(loaded)
        keys = set(RunConfig.__slots__)  # the fields
        for key in keys:
            value = getattr(args, key, None)
            if value is not None:
                base[key] = value
        unknown = set(base) - keys
        if unknown:
            raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**base)


# ------------------------------------------------------------- parsing

def _parse_or_usage(text: str):
    """Every label from a flag, a config file or a fixture case: at most
    MAX_N + 1 entries of at most MAX_ENTRY in absolute value, so that no
    command works on an unbounded weight or prints an unbounded number."""
    parsed = parse_label(text)
    if len(parsed.weight) > MAX_N + 1:
        raise ArgumentError(f"a label has at most {MAX_N + 1} entries (n <= {MAX_N}), "
                            f"got {len(parsed.weight)}")
    if (top := max(map(abs, parsed.weight))) > MAX_ENTRY:
        raise ArgumentError(f"a label entry is at most {MAX_ENTRY} in absolute value, "
                            f"got one of {len(str(top))} digits")
    return parsed


def _label(text: str, space: str | None = None) -> BundleLabel:
    """A label from outside on ``space``, or on the space its separators name."""
    parsed = _parse_or_usage(text)
    if space is None:
        space = label_space(parsed)
    try:
        return label_from_string(text, space, parsed)
    except ValueError as exc:
        raise ArgumentError(f"cannot read {_quoted(text)} as a bundle on {space}: {exc}")


def _twist_label(cfg: RunConfig) -> BundleLabel:
    """The run's twist, the trivial Z-line by default; ``twist_frames``
    refuses one that is not on Z or X or is for another n."""
    if cfg.twist is None or cfg.twist == "trivial":
        return trivial_label("Z", cfg.n)
    label = _label(cfg.twist)
    twist_frames(label, cfg.n)
    return label


# -------------------------------------------------------- serialization

def filtered_to_json(f: FilteredBundle) -> dict:
    return {
        "factors": [str(b) for b in f.factors],
        "components": list(f.components),
        "levels": list(f.levels),
        "display": str(f),
    }


def table_to_json(t: DirectImageTable) -> dict:
    return {
        "cells": {f"{p},{q}": [str(b) for b in labs] for (p, q), labs in t.cells.items()},
        "mode": t.mode,
        "cancellations": [
            {
                "p": r.p,
                "quotient": str(r.quotient),
                "sub": str(r.sub),
                "q": r.q,
                "image": str(r.base_label),
                "applied": r.applied,
            }
            for r in t.log
        ],
    }


def cohomology_to_json(coh: CohomologyResult) -> dict:
    return {"by_degree": {str(r): coh.dim_at(r) for r in coh.degrees()}}


def complex_to_json(c: ComplexOnM) -> dict:
    return {
        "terms": [[str(b) for b in term] for term in c.terms],
        "q": c.q_row,
        "start_p": c.start_p,
        "ranks": list(c.ranks()),
        "form_types": (
            None if c.form_types is None
            else [[str(ft) for ft in t] for t in c.form_types]
        ),
        "claims": None if c.claims is None else list(c.claims),
        "claim_tags": (
            None if c.claim_tags is None
            else {str(k): v for k, v in sorted(c.claim_tags.items())}
        ),
    }


def transform_to_json(res: TransformResult) -> dict:
    table = table_to_json(res.table)
    return {
        "E1": table["cells"],
        "cancellations": table["cancellations"],
        "complex": None if res.complex_ is None else complex_to_json(res.complex_),
        "reason": res.reason,
        "mode": res.mode,
    }


def check_to_json(report: EllipticityReport) -> dict:
    return {
        "ranks": list(report.ranks),
        "alternating_sum": report.alternating_sum,
        "arrows": [
            {
                "index": a.index,
                "ok": a.ok,
                "admissible": [[str(s), str(t)] for s, t in a.admissible],
                "inadmissible": [[str(s), str(t)] for s, t in a.inadmissible],
            }
            for a in report.arrows
        ],
        "passed": report.passed,
    }


def _table_markdown(t: DirectImageTable) -> str:
    if not t.cells:
        return "(all direct images vanish)"
    ps = sorted({p for p, _ in t.cells})
    qs = sorted({q for _, q in t.cells}, reverse=True)
    head = "| q \\ p | " + " | ".join(str(p) for p in ps) + " |"
    sep = "|---" * (len(ps) + 1) + "|"
    rows = [f"| {q} | " + " | ".join(" (+) ".join(map(str, t.labels_at(p, q))) or "-"
                                     for p in ps) + " |" for q in qs]
    return "\n".join([head, sep, *rows, *(r.describe() for r in t.log)])


def _complex_markdown(doc: dict) -> str:
    """A complex's report, read off its JSON document."""
    ranks = doc["ranks"]
    lines = ["0 -> " + " -> ".join(" (+) ".join(term) or "0" for term in doc["terms"]) + " -> 0",
             f"ranks: {ranks}  (alternating sum {alternating_sum(ranks)})"]
    if doc["form_types"] is not None:
        lines.append("form types: " + " -> ".join("+".join(t) for t in doc["form_types"]))
    if doc["claims"] is not None:
        tags = doc["claim_tags"] or {}
        lines.append("cohomology claims: " + ", ".join(
            f"{i}:{d}" + (f" ({tags[str(i)]})" if tags.get(str(i)) else "")
            for i, d in enumerate(doc["claims"])))
    return "\n".join(lines)


# ----------------------------------------------------------- commands

def _show(cfg: RunConfig, doc: dict, markdown: Callable[[], str]) -> None:
    """The one print path: the command's JSON document, or its markdown
    report, which is rendered only when asked for."""
    print(json.dumps(doc, sort_keys=True, indent=2) if cfg.format == "json" else markdown())


def cmd_bbw(cfg: RunConfig, args) -> None:
    weight = _parse_or_usage(args.weight).weight
    result = bbw_reduce(weight)
    doc = {"weight": list(weight), "k": len(weight), "singular": result is None}
    if result is not None:
        doc["q"], doc["dominant"] = result[0], list(result[1])
    _show(cfg, doc, lambda: "singular" if result is None
          else f"q={result[0]} -> {format_weight(result[1])}")


def cmd_rank(cfg: RunConfig, args) -> None:
    label = _label(args.label, args.space)
    doc = {"label": str(label), "space": label.space, "rank": rank(label)}
    _show(cfg, doc, lambda: f"rank {doc['label']} = {doc['rank']}")


def cmd_tensor(cfg: RunConfig, args) -> None:
    label = _label(args.label, "M")
    if args.line is not None:
        terms = [tensor_line(label, _label(args.line, "M"))]
    else:
        terms = pieri_tensor(label)
    doc = {"input": str(label), "terms": [str(t) for t in terms]}
    _show(cfg, doc, lambda: "\n".join(doc["terms"]))


def _forms(cfg: RunConfig, p: int, conormal_part: bool) -> FilteredBundle:
    """Lambda^p of the relative forms along the run's leg, or the conormal
    part of the relative cotangent bundle, tensored with the twist.  With no
    leg given, the conormal part splits along the M-leg nu, the forms along mu."""
    fib = registry(cfg.n)[cfg.fibration or ("nu" if conormal_part else "mu")]
    twist_x = twist_frames(_twist_label(cfg), cfg.n)[1]
    if conormal_part:
        return conormal(fib).twist_by(twist_x)
    [(_p, bundle)] = twisted_forms(fib, twist_x, p)
    return bundle


def cmd_relative_forms(cfg: RunConfig, args) -> None:
    if args.conormal and args.p is not None:
        raise ArgumentError(f"--conormal splits the 1-forms and takes no -p, got -p {args.p}")
    doc = filtered_to_json(_forms(cfg, 1 if args.p is None else args.p, args.conormal))
    _show(cfg, doc, lambda: "\n".join([doc["display"], *(
        f"  {b}  component={c} level={v}"
        for b, c, v in zip(doc["factors"], doc["components"], doc["levels"]))]))


def _e1(cfg: RunConfig, p: int | None) -> DirectImageTable:
    """Column p of the first page (every column when p is None)."""
    return e1_page(twist_frames(_twist_label(cfg), cfg.n)[1], cfg.mode, p)


def cmd_direct_images(cfg: RunConfig, args) -> None:
    table = _e1(cfg, args.p)
    _show(cfg, table_to_json(table), lambda: _table_markdown(table))


def _transform(cfg: RunConfig, refusal: str = "") -> TransformResult:
    """The assembled transform behind transform, adjoint and check; with a
    refusal, a page that did not collapse is an error."""
    res = assemble_transform(_twist_label(cfg), cfg.n, cfg.mode)
    if refusal and res.complex_ is None:
        raise ValueError(f"{refusal}: {res.reason}")
    return res


def cmd_transform(cfg: RunConfig, args) -> None:
    res = _transform(cfg)
    doc = transform_to_json(res)
    _show(cfg, doc, lambda: "\n".join([
        _table_markdown(res.table), doc["reason"] if doc["complex"] is None
        else _complex_markdown(doc["complex"])]))
    if res.complex_ is None:
        raise ValueError(f"no complex: {res.reason}")


def _involutive(cfg: RunConfig) -> CohomologyResult:
    """Involutive cohomology of the run's twist, the trivial one by default."""
    return involutive_cohomology(_twist_label(cfg))


def cmd_involutive(cfg: RunConfig, args) -> None:
    coh = _involutive(cfg)
    _show(cfg, cohomology_to_json(coh), lambda: "\n".join(
        [f"H^{r} = C^{coh.dim_at(r)}" for r in coh.degrees()] or ["H^r = 0 for all r"]))


def _adjoint(cfg: RunConfig) -> ComplexOnM:
    return formal_adjoint(_transform(cfg, "no complex to dualize").complex_)


def cmd_adjoint(cfg: RunConfig, args) -> None:
    doc = complex_to_json(_adjoint(cfg))
    _show(cfg, {"adjoint": doc}, lambda: _complex_markdown(doc))


def _check(cfg: RunConfig) -> EllipticityReport:
    return check_ellipticity(_transform(cfg, "nothing to check").complex_)


def _check_markdown(doc: dict) -> str:
    """The symbol check's report, read off its JSON document."""
    lines = [f"ranks {doc['ranks']}, alternating sum {doc['alternating_sum']}"]
    for a in doc["arrows"]:
        status = "ok" if a["ok"] else "NO ADMISSIBLE COMPONENT"
        lines.append(f"arrow {a['index']}: {len(a['admissible'])} admissible, "
                     f"{len(a['inadmissible'])} inadmissible ({status})")
        lines += [f"  forbidden: {s} -> {t}" for s, t in a["inadmissible"]]
    lines.append("PASS" if doc["passed"] else "FAIL")
    return "\n".join(lines)


def cmd_check(cfg: RunConfig, args) -> None:
    doc = check_to_json(_check(cfg))
    _show(cfg, doc, lambda: _check_markdown(doc))
    if not doc["passed"]:
        raise ValueError("the symbol check failed")


# ------------------------------------------------------- corpus runner

def _run_case(case: dict) -> dict:
    """Execute one fixture case and return the actual outcome; an op that
    mirrors a command projects that command's document."""
    op = case["op"]
    # the case's settings (a case has no output format)
    cfg = RunConfig(**{k: case[k] for k in ("n", "twist", "mode", "fibration") if k in case})
    if op in ("exterior_power", "relative_cotangent", "conormal"):
        p = case["p"] if op == "exterior_power" else 1
        return filtered_to_json(_forms(cfg, p, op == "conormal"))
    if op == "direct_images":
        doc = table_to_json(_e1(cfg, case["p"]))
        return {
            "cells": doc["cells"],
            "applied": sum(c["applied"] for c in doc["cancellations"]),
            "candidates": len(doc["cancellations"]),
        }
    if op == "transform":
        doc = transform_to_json(_transform(cfg))
        return {
            "cells": doc["E1"],
            "applied": sum(c["applied"] for c in doc["cancellations"]),
            "complex": doc["complex"],
        }
    if op == "adjoint":
        return {"adjoint": complex_to_json(_adjoint(cfg))}
    if op == "check":
        report = _check(cfg)
        return {
            "ranks": list(report.ranks),
            "alternating_sum": report.alternating_sum,
            "passed": report.passed,
            "unreachable": [{"arrow": a.index, "targets": sorted(str(t) for t in missing)}
                            for a in report.arrows if (missing := a.unreachable)],
        }
    if op == "pullback_factors":
        return filtered_to_json(pullback_factors(_label(case["label"], "M")))
    if op == "pullback_line":
        return {"image": str(pullback_line(_label(case["label"], "Z")))}
    if op == "pieri":
        terms = pieri_tensor(_label(case["label"], "M"))
        return {"terms": [str(t) for t in terms]}
    if op == "global_cohomology":
        coh = global_cohomology(_label(case["label"], case.get("space", "Z")))
        return {"by_degree": {} if coh is None else {str(coh[0]): [str(coh[1])]}}
    if op == "involutive":
        return cohomology_to_json(_involutive(cfg))
    if op == "form_complex":
        types = [tuple(FormType(*ft) for ft in term) for term in case["types"]]
        cx = complex_from_form_types(types, cfg.n)
        report = check_ellipticity(cx)
        return {
            "terms": [[str(b) for b in t] for t in cx.terms],
            "ranks": list(cx.ranks()),
            "alternating_sum": report.alternating_sum,
            "passed": report.passed,
        }
    if op == "realization":
        # no twist means the canonical one here, not the trivial one
        rep = emit_realization(None if cfg.twist is None else _twist_label(cfg), cfg.n)
        return {
            "degree": rep.degree,
            "source": str(rep.source),
            "dbar_targets": [str(b) for b in rep.dbar_targets],
            "d_targets": [str(b) for b in rep.d_targets],
            "dbar_full": [str(b) for b in rep.dbar_full],
            "d_full": [str(b) for b in rep.d_full],
        }
    raise ArgumentError(f"unknown fixture op {op!r}")


def _replay(case, where: str) -> tuple:
    """(expected, actual) of one fixture case.  Errors name the case: a
    missing or ill-typed field is a usage error, a refusal keeps its class."""
    try:
        return case["expect"], _run_case(case)
    except ValueError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise ArgumentError(f"{where}: malformed case: {exc!r}")


def cmd_corpus(cfg: RunConfig, args) -> None:
    import pathlib  # only this command reads files; importlib.resources loads inspect on 3.12+
    from importlib import resources

    root = resources.files("flagcalc") / "fixtures"
    if args.fixtures is not None:
        root = pathlib.Path(args.fixtures)
        if not root.is_dir():
            raise ArgumentError(f"fixture directory {args.fixtures!r} does not exist")
    files = sorted((e for e in root.iterdir() if e.name.endswith(".json")
                    and (args.only is None or e.name[:-5] == args.only)), key=lambda e: e.name)
    if not files:
        raise ArgumentError("no fixtures found: nothing was verified")
    results = []
    for entry in files:
        key = entry.name[:-5]
        try:  # ValueError covers bad UTF-8 and bad JSON
            cases = json.loads(entry.read_bytes())["cases"]
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ArgumentError(f"{key}: not a fixture file with a 'cases' list: {exc!r}")
        if not isinstance(cases, list):
            raise ArgumentError(f"{key}: 'cases' must be a list")
        for idx, case in enumerate(cases):
            expect, actual = _replay(case, f"{key}[{idx}]")
            results.append((key, idx, actual == expect, expect, actual))
    failed = sum(not ok for _, _, ok, _, _ in results)
    doc = {
        "results": [{"key": k, "case": i, "ok": ok} for k, i, ok, _, _ in results],
        "passed": len(results) - failed,
        "failed": failed,
    }

    def markdown() -> str:
        lines = []
        for k, i, ok, expect, actual in results:
            lines.append(f"{k}[{i}] {'PASS' if ok else 'FAIL'}")
            if not ok:
                lines.append(f"  expected: {json.dumps(expect, sort_keys=True)}")
                lines.append(f"  actual:   {json.dumps(actual, sort_keys=True)}")
        lines.append(f"{doc['passed']} passed, {doc['failed']} failed")
        return "\n".join(lines)

    _show(cfg, doc, markdown)
    if failed:
        raise ValueError(f"{failed} corpus case(s) failed")


# --------------------------------------------------------------- main

def _add_common(p: argparse.ArgumentParser, func, *, n=True, twist=False, mode=False,
                fibration=False):
    """The subcommand's handler and the options it shares with others."""
    p.set_defaults(func=func)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--config", default=None, metavar="FILE")
    if n:
        p.add_argument("-n", "--n", type=int, default=None)
    if twist:
        p.add_argument("--twist", default=None,
                       help="line-bundle twist on Z or X ('trivial' for none)")
    if mode:
        p.add_argument("--mode", choices=MODES, default=None)
    if fibration:
        p.add_argument("--fibration", default=None, choices=FIBRATIONS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flagcalc",
        description="exact homogeneous-bundle calculus on flag quotients of GL(n+1)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bbw", help="reduce a fiber weight to (q, dominant) or 'singular'")
    p.add_argument("weight")
    _add_common(p, cmd_bbw, n=False)

    p = sub.add_parser("rank", help="rank of an irreducible bundle label")
    p.add_argument("label")
    p.add_argument("--space", choices=("M", "Z", "X", "fiber"), default=None)
    _add_common(p, cmd_rank, n=False)

    p = sub.add_parser("tensor", help="Pieri decomposition (or line tensor) on the base")
    p.add_argument("label")
    p.add_argument("--line", default=None)
    _add_common(p, cmd_tensor, n=False)

    p = sub.add_parser("relative-forms",
                       help="relative cotangent bundle and its wedge powers")
    p.add_argument("-p", type=int, default=None,
                   help="wedge power (default: 1; not with --conormal)")
    p.add_argument("--conormal", action="store_true")
    _add_common(p, cmd_relative_forms, twist=True, fibration=True)

    p = sub.add_parser("direct-images", help="first-page table of direct images")
    p.add_argument("-p", type=int, default=None,
                   help="column to push down (default: all)")
    _add_common(p, cmd_direct_images, twist=True, mode=True)

    p = sub.add_parser("transform",
                       help="full pipeline: first page plus the collapsed complex")
    _add_common(p, cmd_transform, twist=True, mode=True)

    p = sub.add_parser("involutive", help="cohomology of the involutive complex")
    _add_common(p, cmd_involutive, twist=True)

    p = sub.add_parser("adjoint", help="formal adjoint of the collapsed complex")
    _add_common(p, cmd_adjoint, twist=True, mode=True)

    p = sub.add_parser("check", help="symbol-level ellipticity checks")
    _add_common(p, cmd_check, twist=True, mode=True)

    p = sub.add_parser("corpus", help="replay the bundled worked examples")
    p.add_argument("--fixtures", default=None, metavar="DIR")
    p.add_argument("--only", default=None, metavar="KEY")
    _add_common(p, cmd_corpus, n=False)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(RunConfig.from_args(args), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ArgumentError) else 1
    except BrokenPipeError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
