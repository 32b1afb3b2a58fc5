"""Locating the engine under test and recording the machine a run used."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class EngineMissing(RuntimeError):
    pass


def load_engine():
    """Import flagcalc from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "flagcalc" / "__init__.py").is_file():
        raise EngineMissing(f"no flagcalc sources under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import flagcalc
    import flagcalc.cli  # noqa: F401  (bound here so the tracer can wrap its imports)

    if Path(flagcalc.__file__).resolve().parent != SRC / "flagcalc":
        raise EngineMissing(f"flagcalc was imported from {flagcalc.__file__}, not {SRC}")
    return flagcalc


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the engine from ``src/`` only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """Digest of every file under ``src/flagcalc``, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "flagcalc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
