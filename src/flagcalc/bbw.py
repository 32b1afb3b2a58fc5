"""Direct images along the M-leg and global Bott-Borel-Weil cohomology.

A line-bundle factor on the correspondence space restricts to each
fiber of the M-leg as a line bundle on a flag manifold of GL(n,C); its
fiberwise cohomology is computed by bbw_reduce on the weight entries
inside the fiber coordinates, with the first entry a spectator.  The
q-th direct image is then the irreducible bundle on the base whose
block-2 weight is the resulting dominant weight.

Filtered bundles produce one candidate per factor.  Two reporting
modes:

* ``conservative`` — every surviving (q, label) is listed, and pairs
  that *might* cancel through a connecting homomorphism are flagged.
* ``paper`` — flagged pairs satisfying all three cancellation
  conditions (composition-series adjacency, image degrees q and q+1,
  identical base labels) are removed from the table, each removal
  logged.  This reproduces the worked derivation; the rule's validity
  beyond those cases is an assumption the log keeps visible.
"""

from __future__ import annotations

from .bundles import BundleLabel, FilteredBundle, fiber_label, is_line
from .geometry import Fibration, sigma_swap
from .notation import Value
from .weights import bbw_reduce

__all__ = [
    "CancellationRecord",
    "DirectImageTable",
    "CohomologyResult",
    "direct_images",
    "reduce_factor",
    "global_cohomology",
    "MODES",
]

MODES = ("paper", "conservative")


class FrozenDict(dict):
    """The mapping field of a frozen result: a dict that refuses writes and
    hashes by its items, so the result stays immutable and hashable."""

    __slots__ = ()

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return FrozenDict, (dict(self),)


class CancellationRecord(Value):
    """One connecting-homomorphism candidate (quotient at q, sub at q+1)."""

    p: int
    quotient: BundleLabel       # factor on X whose image sits in degree q
    sub: BundleLabel            # deeper factor whose image sits in degree q+1
    q: int                      # lower of the two image degrees
    base_label: BundleLabel     # the shared direct-image label on M
    applied: bool               # True when paper mode removed the pair

    def describe(self) -> str:
        verb = "cancelled" if self.applied else "candidate"
        return (
            f"p={self.p}: {verb} {self.quotient} (q={self.q}) against "
            f"{self.sub} (q={self.q + 1}), both imaging to {self.base_label}"
        )


class DirectImageTable(Value):
    """Cells (p, q) -> labels on the base, plus the cancellation log."""

    cells: dict[tuple[int, int], tuple[BundleLabel, ...]]
    mode: str
    log: tuple[CancellationRecord, ...]

    # built once per first-page column: a plain __init__ costs less than __post_init__
    def __init__(self, cells, mode: str, log: tuple[CancellationRecord, ...] = ()):
        object.__setattr__(self, "cells", FrozenDict(cells))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "log", log)

    def labels_at(self, p: int, q: int) -> tuple[BundleLabel, ...]:
        return self.cells.get((p, q), ())

    def qs_for_column(self, p: int) -> tuple[int, ...]:
        return tuple(sorted({q for (pp, q) in self.cells if pp == p}))

    @staticmethod
    def merge(tables: list["DirectImageTable"]) -> "DirectImageTable":
        cells: dict[tuple[int, int], tuple[BundleLabel, ...]] = {}
        log: list[CancellationRecord] = []
        modes = {t.mode for t in tables}
        if len(modes) != 1:
            raise ValueError(f"cannot merge tables from modes {sorted(modes)}")
        for t in tables:
            overlap = cells.keys() & t.cells.keys()
            if overlap:
                raise ValueError(f"duplicate cells {sorted(overlap)}")
            cells.update(t.cells)
            log.extend(t.log)
        return DirectImageTable(cells, modes.pop(), tuple(log))


def _fiber_entries(f: Fibration) -> tuple[int, int]:
    if f.base.name != "M":
        raise ValueError(f"direct images are computed along the M-leg, not {f.name}")
    return 1, f.total.n + 1  # fiber coordinates: everything past the spectator


def reduce_factor(b: BundleLabel, fib: Fibration):
    """Fiberwise cohomology of one line-bundle factor: None or (q, label)."""
    if b.space != "X":
        raise ValueError(f"factors live on the correspondence space, got {b!r}")
    if not is_line(b):
        raise ValueError(f"not a line bundle along the fibers: {b}")
    lo, hi = _fiber_entries(fib)
    reduced = bbw_reduce(b.weight[lo:hi])
    if reduced is None:
        return None
    q, dom = reduced
    return q, BundleLabel("M", (b.weight[0], *dom))


def direct_images(
    f: FilteredBundle, fib: Fibration, mode: str = "paper", p: int = 0
) -> DirectImageTable:
    """Direct images of a filtered bundle: one p-column of the E1 page."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    images: dict[int, tuple[int, BundleLabel]] = {}  # factor index -> (q, label)
    for i, factor in enumerate(f.factors):
        res = reduce_factor(factor, fib)
        if res is not None:
            images[i] = res

    # connecting-homomorphism candidates: quotient directly above sub in
    # one composition series, images in degrees q and q+1, same label
    comps, levels = f.components, f.levels
    candidates = []
    for i, (qi, li) in images.items():
        for j, (qj, lj) in images.items():
            if (
                comps[i] == comps[j]
                and levels[j] == levels[i] + 1
                and qj == qi + 1
                and lj == li
            ):
                candidates.append((i, j))
    candidates.sort(key=lambda ij: (f.components[ij[0]], f.levels[ij[0]], images[ij[0]][0],
                                    f.factors[ij[0]].weight, f.factors[ij[1]].weight))

    removed: set[int] = set()
    log = []
    for i, j in candidates:
        apply = mode == "paper" and i not in removed and j not in removed
        if apply:
            removed.update((i, j))
        log.append(
            CancellationRecord(
                p, f.factors[i], f.factors[j], images[i][0], images[i][1], apply
            )
        )

    cells: dict[tuple[int, int], list[BundleLabel]] = {}
    for i, (q, label) in images.items():
        if i not in removed:
            cells.setdefault((p, q), []).append(label)
    return DirectImageTable(
        {pq: tuple(sorted(labs)) for pq, labs in sorted(cells.items())},
        mode,
        tuple(log),
    )


# ------------------------------------------------- global cohomology

class CohomologyResult(Value):
    """Cohomology dimensions by degree; an absent degree means zero."""

    by_degree: dict[int, int] = FrozenDict()

    def __post_init__(self):
        object.__setattr__(self, "by_degree", FrozenDict(self.by_degree))

    def dim_at(self, r: int) -> int:
        return self.by_degree.get(r, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_degree))


def global_cohomology(b: BundleLabel) -> tuple[int, BundleLabel] | None:
    """Cohomology of a line bundle over the twistor space: None, or
    (q, fiber label) for the one degree q where it lives.

    Z-labels are written in Bott-Borel-Weil-ready order, so the full
    weight reduces directly; labels on the correspondence space carry
    the sigma-twisted frame and have their first two entries swapped
    back before reducing.
    """
    if b.space not in ("Z", "X"):
        raise ValueError(f"global cohomology computed on Z or X labels, got {b!r}")
    if not is_line(b):
        raise ValueError(f"line bundles only, got {b}")
    reduced = bbw_reduce(sigma_swap(b.weight) if b.space == "X" else b.weight)
    if reduced is None:
        return None
    q, dom = reduced
    return q, fiber_label(dom)
