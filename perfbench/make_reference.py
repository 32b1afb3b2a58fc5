"""Regenerate ``reference/digests.json`` from the engine in ``src/``.

Run from the repository root:

    python3 perfbench/make_reference.py

Only do this at a commit whose outputs are known to be right: the file
is the benchmark's output gate.  Every digest covers the full twist
boxes, so any seed's subset of operations can be checked.  CLI outputs
are captured in-process through ``flagcalc.cli.main``; they are the
same bytes a fresh ``flagcalc ... --format json`` process prints.
"""

from __future__ import annotations

import contextlib
import io
import json

from gate import REFERENCE_PATH, digest, digest_bytes, sweep_doc, table_doc
from runinfo import ROOT, git_commit, load_engine
from workloads import BOXES, CLI_COMMANDS, MODES, Op, run_e1, run_sweep


def cli_digest(fc, argv: list[str]) -> str | None:
    """Digest of the command's stdout, or None when it does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fc.cli.main(argv)
    return digest_bytes(out.getvalue().encode()) if code == 0 else None


def build(fc) -> dict:
    sweep = [digest(sweep_doc(*run_sweep(fc, Op(3, i)))) for i in range(len(BOXES[3]))]
    e1: dict = {}
    for n, box in BOXES.items():
        for mode in MODES:
            column = e1.setdefault(str(n), {}).setdefault(mode, [])
            for i, w in enumerate(box):
                doc = table_doc(run_e1(fc, Op(n, i, mode)))
                if doc != table_doc(fc.assemble_transform(fc.z_label(w), n, mode).table):
                    raise SystemExit(f"e1 table for n={n} {w} {mode} differs from the transform's")
                column.append(digest(doc))
    cli: dict = {"corpus": cli_digest(fc, Op(0, -1, command="corpus").argv())}
    for n, box in BOXES.items():
        cli[str(n)] = {
            cmd: [cli_digest(fc, Op(n, i, command=cmd).argv()) for i in range(len(box))]
            for cmd in CLI_COMMANDS
        }
    return {"generated_at": git_commit(), "sweep_n3": sweep, "e1_pages": e1, "cli_session": cli}


def dumps(obj, indent: int = 0) -> str:
    """JSON with nested objects indented and each list on one line."""
    if not isinstance(obj, dict):
        return json.dumps(obj, separators=(",", ":"))
    pad = " " * (indent + 1)
    body = ",\n".join(f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items())
    return "{\n" + body + "\n" + " " * indent + "}"


if __name__ == "__main__":
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(dumps(build(load_engine())) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
