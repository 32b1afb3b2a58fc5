"""The output gate: reference digests plus invariants that do not use the engine.

Each timed op's output is turned into a canonical JSON document, hashed
and compared with the digest stored for that twist in
``reference/digests.json`` (generated by ``make_reference.py``).  On the
first encounter of a twist in a run the gate also checks invariants
computed from the printed labels alone, with its own Weyl dimension
formula:

* every emitted complex has alternating rank sum 0;
* every column's Euler characteristic agrees between paper and
  conservative mode;
* every e1_pages table equals ``assemble_transform(...).table``;
* every cli_session call exits 0, and ``corpus`` reports 41 passed.

A refusal to collapse is a valid output; only a mismatch is a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import BOXES, CLI_COMMANDS, MODES, Op

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "digests.json"
DIGEST_HEX = 12
CORPUS_CASES = 41


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def digest(doc) -> str:
    """Digest of a document's canonical JSON (sorted keys, no spaces)."""
    return digest_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


# ------------------------------------------------------ canonical documents

def table_doc(t) -> dict:
    return {
        "cells": {f"{p},{q}": [str(b) for b in labs] for (p, q), labs in t.cells.items()},
        "mode": t.mode,
        "log": [[r.p, str(r.quotient), str(r.sub), r.q, str(r.base_label), r.applied]
                for r in t.log],
    }


def complex_doc(c) -> dict:
    return {
        "terms": [[str(b) for b in term] for term in c.terms],
        "q": c.q_row,
        "start_p": c.start_p,
        "form_types": None if c.form_types is None else [[str(f) for f in t] for t in c.form_types],
        "claims": None if c.claims is None else list(c.claims),
        "claim_tags": None if c.claim_tags is None else {str(k): v for k, v in c.claim_tags.items()},
    }


def report_doc(r) -> dict:
    return {
        "ranks": list(r.ranks),
        "alternating_sum": r.alternating_sum,
        "arrows": [[a.index, [[str(s), str(t)] for s, t in a.admissible],
                    [[str(s), str(t)] for s, t in a.inadmissible]] for a in r.arrows],
        "passed": r.passed,
    }


def sweep_doc(res, report) -> dict:
    return {
        "table": table_doc(res.table),
        "complex": None if res.complex_ is None else complex_doc(res.complex_),
        "reason": res.reason,
        "mode": res.mode,
        "check": None if report is None else report_doc(report),
    }


# ------------------------------------------------- engine-free invariants

def weyl_dim(mu: list[int]) -> int:
    """Dimension of the GL(m) irreducible with nondecreasing weight mu."""
    num = den = 1
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            num *= mu[j] - mu[i] + j - i
            den *= j - i
    return num // den


def m_rank(label: str) -> int:
    """Rank of a printed M-label ``(a||b,...)``: the GL(n) block's dimension."""
    return weyl_dim([int(x) for x in re.findall(r"-?\d+", label)[1:]])


def alternating_rank_sum(terms: list[list[str]]) -> int:
    return sum((-1) ** i * sum(m_rank(b) for b in term) for i, term in enumerate(terms))


def column_euler(cells: dict[str, list[str]]) -> dict[int, int]:
    """Euler characteristic of each p-column of a printed first page."""
    out: dict[int, int] = {}
    for pq, labels in cells.items():
        p, q = map(int, pq.split(","))
        out[p] = out.get(p, 0) + (-1) ** q * sum(m_rank(b) for b in labels)
    return {p: chi for p, chi in out.items() if chi}


# ------------------------------------------------------------- reference

def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def valid_cli_picks(ref: dict) -> dict[tuple[int, str], list[int]]:
    """Box indices on which each CLI command exits 0 at the reference commit."""
    return {
        (n, cmd): [i for i, d in enumerate(ref["cli_session"][str(n)][cmd]) if d]
        for n in BOXES for cmd in CLI_COMMANDS
    }


class Gate:
    """Checks op outputs against the reference; one instance per run."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.seen: set[str] = set()
        self.euler: dict[tuple[int, int], dict[str, dict]] = {}

    def _first(self, op: Op) -> bool:
        if op.key in self.seen:
            return False
        self.seen.add(op.key)
        return True

    def check_sweep(self, op: Op, res, report) -> list[str]:
        doc = sweep_doc(res, report)
        problems = []
        if digest(doc) != self.ref["sweep_n3"][op.index]:
            problems.append(f"{op.key}: output differs from the reference digest")
        if self._first(op) and doc["complex"] is not None:
            s = alternating_rank_sum(doc["complex"]["terms"])
            if s != 0:
                problems.append(f"{op.key}: complex has alternating rank sum {s}")
        return problems

    def check_e1(self, op: Op, table, transform_table) -> list[str]:
        """``transform_table`` is called on first encounter, outside the timing."""
        doc = table_doc(table)
        problems = []
        if digest(doc) != self.ref["e1_pages"][str(op.n)][op.mode][op.index]:
            problems.append(f"{op.key}: table differs from the reference digest")
        if not self._first(op):
            return problems
        if doc != table_doc(transform_table()):
            problems.append(f"{op.key}: table differs from assemble_transform(...).table")
        modes = self.euler.setdefault((op.n, op.index), {})
        modes[op.mode] = column_euler(doc["cells"])
        if len(modes) == len(MODES) and modes["paper"] != modes["conservative"]:
            problems.append(f"{op.key}: column Euler characteristics differ between modes: {modes}")
        return problems

    def check_cli(self, op: Op, code: int, stdout: bytes) -> list[str]:
        if code != 0:
            return [f"{op.key}: exit code {code}"]
        section = self.ref["cli_session"]
        want = section["corpus"] if op.command == "corpus" else section[str(op.n)][op.command][op.index]
        problems = []
        if digest_bytes(stdout) != want:
            problems.append(f"{op.key}: stdout differs from the reference digest")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return problems + [f"{op.key}: stdout is not JSON"]
        if op.command == "corpus" and (doc.get("passed"), doc.get("failed")) != (CORPUS_CASES, 0):
            problems.append(f"{op.key}: corpus reports {doc.get('passed')} passed, "
                            f"{doc.get('failed')} failed")
        terms = {"transform": (doc.get("complex") or {}).get("terms"),
                 "adjoint": (doc.get("adjoint") or {}).get("terms")}.get(op.command)
        if terms and alternating_rank_sum(terms) != 0:
            problems.append(f"{op.key}: complex has nonzero alternating rank sum")
        return problems
