"""The three workloads: twist boxes, seeded passes and the timed operations.

Every workload is a closed loop with one client: the next operation
starts only after the previous one has returned.  A pass visits every
operation of the workload once, in an order drawn from the seed; for
``cli_session`` the seed also picks the twist of each call, once per run.

The boxes are the fixed twist boxes of the ROADMAP:

* n = 3: ``(a|b,b|c)`` with a, c in [-4, 4] and b in [-2, 2] (405 twists);
* n = 2: ``(a|b|c)`` with a, c in [-6, 6] and b in [-3, 3] (1183 twists).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep_n3", "e1_pages", "cli_session")
MODES = ("paper", "conservative")

BOXES = {
    2: tuple((a, b, c) for a in range(-6, 7) for b in range(-3, 4) for c in range(-6, 7)),
    3: tuple((a, b, b, c) for a in range(-4, 5) for b in range(-2, 3) for c in range(-4, 5)),
}

# One cli_session pass: the corpus replay once, then each of these per n.
CLI_COMMANDS = (
    "transform", "check", "adjoint", "direct-images",
    "relative-forms", "involutive", "bbw", "rank",
)

PARAMS = {
    "sweep_n3": {"n": 3, "box": "(a|b,b|c), a,c in [-4,4], b in [-2,2]", "twists": 405,
                 "mode": "paper", "op": "assemble_transform + check_ellipticity",
                 "ops_per_pass": 405},
    "e1_pages": {"boxes": {"2": "(a|b|c), a,c in [-6,6], b in [-3,3]",
                           "3": "(a|b,b|c), a,c in [-4,4], b in [-2,2]"},
                 "twists": 1588, "modes": list(MODES),
                 "op": "registry, relative_cotangent, exterior_power, twist_by,"
                       " direct_images per column, DirectImageTable.merge",
                 "ops_per_pass": 3176},
    "cli_session": {"n": [2, 3], "commands": ["corpus", *CLI_COMMANDS],
                    "op": "one fresh flagcalc process, --format json",
                    "ops_per_pass": 1 + 2 * len(CLI_COMMANDS)},
}

# Fresh-process set-up probes: import the engine and finish a first op.
# The op is fixed (the trivial twist, n = 3) so that set-up time does not
# depend on the seed.
SETUP_PROBES = {
    "sweep_n3": (
        "import flagcalc as fc\n"
        "r = fc.assemble_transform(fc.z_label((0, 0, 0, 0)), 3, 'paper')\n"
        "fc.check_ellipticity(r.complex_)\n"
    ),
    "e1_pages": (
        "import flagcalc as fc\n"
        "reg = fc.registry(3)\n"
        "tx = fc.pullback_line(fc.z_label((0, 0, 0, 0)))\n"
        "lam = fc.relative_cotangent(reg['mu'])\n"
        "fc.DirectImageTable.merge([fc.direct_images(fc.exterior_power(lam, p).twist_by(tx),"
        " reg['nu'], 'paper', p) for p in range(len(lam) + 1)])\n"
    ),
    "cli_session": "import flagcalc.cli\n",
}


def twist_text(w: tuple[int, ...]) -> str:
    """The Z-label of a box twist: ``(a|b,...,b|c)``."""
    return f"({w[0]}|{','.join(map(str, w[1:-1]))}|{w[-1]})"


def fiber_weight_text(w: tuple[int, ...]) -> str:
    """The twist's entries read as one GL(n+1) weight, the ``bbw`` input."""
    return f"({','.join(map(str, w))})"


def m_label_text(w: tuple[int, ...]) -> str:
    """An irreducible label on M built from the twist, the ``rank`` input."""
    return f"({w[0]}||{','.join(map(str, sorted(w[1:])))})"


@dataclass(frozen=True)
class Op:
    """One operation: a twist of a box (or the corpus) and how to run it."""

    n: int
    index: int             # position of the twist in BOXES[n]; -1 for the corpus
    mode: str = "paper"
    command: str = ""      # cli_session only

    @property
    def weight(self) -> tuple[int, ...]:
        return BOXES[self.n][self.index]

    @property
    def key(self) -> str:
        name = self.command or self.mode
        return name if self.index < 0 else f"n={self.n} {name} {twist_text(self.weight)}"

    def argv(self) -> list[str]:
        """Command-line arguments of a cli_session call."""
        if self.command == "corpus":
            return ["corpus", "--format", "json"]
        if self.command == "bbw":
            return ["bbw", fiber_weight_text(self.weight), "--format", "json"]
        if self.command == "rank":
            return ["rank", m_label_text(self.weight), "--format", "json"]
        extra = ["-p", "2"] if self.command == "relative-forms" else []
        return [self.command, *extra, "-n", str(self.n),
                "--twist", twist_text(self.weight), "--format", "json"]


def passes(workload: str, seed: int, valid: dict):
    """Yield passes forever: the workload's ops, each pass in a new seeded order.

    ``valid[(n, command)]`` lists the box indices on which a CLI command
    exits 0 (from the reference digests).  For cli_session the seed picks
    one twist per command and n, so that every pass repeats the same calls.
    """
    rng = random.Random(seed)
    if workload == "sweep_n3":
        ops = [Op(3, i) for i in range(len(BOXES[3]))]
    elif workload == "e1_pages":
        ops = [Op(n, i, mode) for n in (2, 3) for i in range(len(BOXES[n])) for mode in MODES]
    else:
        ops = [Op(0, -1, command="corpus")] + [
            Op(n, rng.choice(valid[(n, command)]), command=command)
            for n in (2, 3) for command in CLI_COMMANDS
        ]
    while True:
        yield rng.sample(ops, len(ops))


def run_sweep(fc, op: Op):
    """What ``flagcalc check`` does: the transform, then the symbol check."""
    res = fc.assemble_transform(fc.z_label(op.weight), op.n, "paper")
    report = fc.check_ellipticity(res.complex_) if res.complex_ is not None else None
    return res, report


def run_e1(fc, op: Op):
    """One direct-image table through the documented public functions."""
    reg = fc.registry(op.n)
    tx = fc.pullback_line(fc.z_label(op.weight))
    lam = fc.relative_cotangent(reg["mu"])
    columns = [
        fc.direct_images(fc.exterior_power(lam, p).twist_by(tx), reg["nu"], op.mode, p)
        for p in range(len(lam) + 1)
    ]
    return fc.DirectImageTable.merge(columns)
