"""Direct images along the M-leg and global Bott-Borel-Weil cohomology.

A line-bundle factor on the correspondence space restricts to each
fiber of the M-leg as a line bundle on a flag manifold of GL(n,C); its
fiberwise cohomology is computed by bbw_reduce on the weight entries
inside the fiber coordinates, with the first entry a spectator.  The
q-th direct image is then the irreducible bundle on the base whose
block-2 weight is the resulting dominant weight.

The first page of the transform is built here, whole: e1_page takes
each wedge power of the relative cotangent bundle of the Z-leg,
untwisted and memoised, with the twist as its line, checks its one
column rule (_column) and pushes every column down the M-leg in one
reduction (_page), which direct_images shares for a single column.

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

from functools import lru_cache

from .bundles import (BundleLabel, FilteredBundle, _check_twist, _shape, exterior_power,
                      fiber_label, is_line, rank, tensor_line)
from .geometry import Fibration, registry, relative_cotangent, twist_frames
from .notation import ArgumentError, FrozenDict, Value
from .weights import bbw_reduce

__all__ = [
    "CancellationRecord",
    "DirectImageTable",
    "direct_images",
    "e1_page",
    "global_cohomology",
    "twisted_forms",
    "MODES",
]

MODES = ("paper", "conservative")


class CancellationRecord(Value):
    """One connecting-homomorphism candidate (quotient at q, sub at q+1)."""

    p: int
    quotient: BundleLabel       # factor on X whose image sits in degree q
    sub: BundleLabel            # deeper factor whose image sits in degree q+1
    q: int                      # lower of the two image degrees
    base_label: BundleLabel     # the shared direct-image label on M
    applied: bool               # True when paper mode removed the pair


class DirectImageTable(Value):
    """Cells (p, q) -> labels on the base, plus the cancellation log."""

    cells: dict[tuple[int, int], tuple[BundleLabel, ...]]
    mode: str
    log: tuple[CancellationRecord, ...] = ()

    @staticmethod
    def merge(tables: list["DirectImageTable"]) -> "DirectImageTable":
        tables = tuple(tables)  # a generator is read once; a refusal below reads the tuple
        cells: dict[tuple[int, int], tuple[BundleLabel, ...]] = {}
        log: list[CancellationRecord] = []
        modes, count = set(), 0
        for t in tables:  # one pass; the refusals below read what it gathered
            cells.update(t.cells)
            log.extend(t.log)
            modes.add(t.mode)
            count += len(t.cells)
        if len(modes) != 1:
            raise ValueError(f"cannot merge tables from modes {sorted(modes)}")
        if len(cells) != count:  # some cell came twice
            keys = [cell for t in tables for cell in t.cells]
            raise ValueError(f"duplicate cells {sorted({c for c in keys if keys.count(c) > 1})}")
        return DirectImageTable(FrozenDict(cells), modes.pop(), tuple(log))


def _mode_refused(mode) -> ValueError:
    """The refusal of a mode outside MODES.  Each caller tests membership
    inline, so a valid mode costs the one-column path no call."""
    return ValueError(f"mode must be one of {MODES}, got {mode!r}")


def direct_images(
    f: FilteredBundle, fib: Fibration, mode: str = "paper", p: int = 0
) -> DirectImageTable:
    """Direct images of a filtered bundle: one p-column of the E1 page."""
    if mode not in MODES:
        raise _mode_refused(mode)
    if f.space != "X":  # every factor lives on f.space
        raise ValueError(f"factors live on the correspondence space, got {f.space!r}")
    if fib.base.name != "M":
        raise ValueError(f"direct images are computed along the M-leg, not {fib.name}")
    if fib.total.n != f.n:
        raise ArgumentError(f"the leg {fib.name} is over n={fib.total.n}, the bundle over n={f.n}")
    return _page(((p, f),), f.line, mode)


def _column(lam: FilteredBundle, p) -> int:
    """One column of a first page of lam's wedges: p, which must be an int
    (True is not a column) in 0..rank(lam) (ArgumentError)."""
    if type(p) is not int:
        raise ArgumentError(f"column p must be an int, got {p!r}")
    if 0 <= p <= rank(lam):
        return p
    raise ArgumentError(f"column p={p} is outside 0..{rank(lam)}")


def twisted_forms(fib: Fibration, twist_x: BundleLabel, p: int) -> FilteredBundle:
    """Lambda^p of the relative forms of fib, tensored with twist_x; a p that
    _column refuses is an ArgumentError."""
    lam = relative_cotangent(fib)
    return exterior_power(lam, _column(lam, p)).twist_by(twist_x)


def e1_page(twist_x: BundleLabel, mode: str = "paper", p: int | None = None) -> DirectImageTable:
    """The first page over twist_x's n, or its column p: the Z-leg's twisted
    wedges pushed down the M-leg; twist_x is the twist in the X frame
    (twist_frames).

    One pass over the memoised untwisted wedges: twist_x is checked once,
    after the first wedge, where twist_by checks it, then the mode; the
    columns are reduced in one pass, with twist_x as their line, into one
    table."""
    lam = relative_cotangent(registry(twist_x.n)["mu"])
    # len(lam) is its rank: every factor is a line, or the wedge refuses
    first, *rest = range(len(lam) + 1) if p is None else (_column(lam, p),)
    wedges = [(first, exterior_power(lam, first))]
    _check_twist(lam.space, lam.n, lam.untwisted[0].blocks, twist_x)
    wedges += [(k, exterior_power(lam, k)) for k in rest]
    if mode not in MODES:
        raise _mode_refused(mode)
    return _page(wedges, twist_x, mode)


def _page(columns, line: BundleLabel | None, mode: str) -> DirectImageTable:
    """The table of the columns, one or more (p, f) pairs of filtered bundles
    on one space and n, each f's untwisted factors tensored with line
    (checked, or None; f's own line is not read), pushed down the M-leg
    column by column.  Each image is an M-label over f.n, named and ordered by
    its weight alone, so each surviving label is built once, in cell order.
    The callers check the mode, the space and the leg."""
    cells: dict[tuple[int, int], tuple[BundleLabel, ...]] = {}
    log: list[CancellationRecord] = []
    _p, first = columns[0]
    links = _shape(first.space, first.n).links  # read once per call: no links, no line test
    # the fiber coordinates are every entry past the spectator; the line adds
    # its weight to every factor: to the spectator here, and to the fiber
    # entries inside bbw_reduce; a twisted label is built only for a
    # cancellation record, or to name a refused factor
    a, d = (line.weight[0], line.weight[1:]) if line is not None else (0, ())
    for p, f in columns:
        untwisted = f.untwisted
        if links:
            for factor in untwisted:
                if not is_line(factor):  # tensoring with a line keeps the answer
                    name = factor if line is None else tensor_line(factor, line)
                    raise ValueError(f"not a line bundle along the fibers: {name}")
        if len(untwisted) == 1:  # one factor: no candidate, nothing to sort
            w = untwisted[0].weight
            if (reduced := bbw_reduce(w[1:], d)) is not None:
                q, dom = reduced
                cells[p, q] = cells.get((p, q), ()) + (BundleLabel("M", (w[0] + a, *dom)),)
            continue
        images: dict[int, tuple[int, tuple[int, ...]]] = {}  # factor index -> (q, M-weight)
        for i, factor in enumerate(untwisted):
            w = factor.weight
            reduced = bbw_reduce(w[1:], d)
            if reduced is not None:
                q, dom = reduced
                images[i] = q, (w[0] + a, *dom)

        # connecting-homomorphism candidates: quotient directly above sub in
        # one composition series, images in degrees q and q+1, same label; a
        # candidate needs two images
        candidates = []
        if len(images) > 1:
            for i, j in _adjacent_pairs(f.components, f.levels):
                if i in images and j in images:
                    (qi, wi), (qj, wj) = images[i], images[j]
                    if qj == qi + 1 and wj == wi:
                        candidates.append((i, j))

        if candidates:
            removed: set[int] = set()
            # one line on every factor keeps the order of their untwisted weights
            candidates.sort(key=lambda ij: (f.components[ij[0]], f.levels[ij[0]],
                                            images[ij[0]][0], untwisted[ij[0]].weight,
                                            untwisted[ij[1]].weight))
            for i, j in candidates:
                apply = mode == "paper" and i not in removed and j not in removed
                if apply:
                    removed.update((i, j))
                quotient, sub = untwisted[i], untwisted[j]
                if line is not None:
                    quotient, sub = tensor_line(quotient, line), tensor_line(sub, line)
                log.append(CancellationRecord(p, quotient, sub, images[i][0],
                                              BundleLabel("M", images[i][1]), apply))
            for i in removed:
                del images[i]

        for q, weight in sorted(images.values()):  # cell order: by q, then by weight
            cells[p, q] = cells.get((p, q), ()) + (BundleLabel("M", weight),)
    return DirectImageTable(FrozenDict(cells), mode, tuple(log))


@lru_cache
def _adjacent_pairs(components: tuple[int, ...],
                    levels: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) with factor j directly below factor i in one composition
    series, in (i, j) order: the only places a connecting homomorphism can sit.
    They depend on the filtration alone, never on the twist, so they are built
    once per (components, levels) and shared by every twist of one wedge."""
    at: dict[tuple[int, int], list[int]] = {}  # (component, level) -> factors
    for j, place in enumerate(zip(components, levels)):
        at.setdefault(place, []).append(j)
    return tuple((i, j) for i, (c, level) in enumerate(zip(components, levels))
                 for j in at.get((c, level + 1), ()))


# ------------------------------------------------- global cohomology

def global_cohomology(b: BundleLabel) -> tuple[int, BundleLabel] | None:
    """Cohomology of a line bundle over the twistor space: None, or
    (q, fiber label) for the one degree q where it lives.

    Z-labels are written in Bott-Borel-Weil-ready order, so the full
    weight reduces directly.  An X-line has the cohomology of the Z-line it
    is pulled back from (mu's fibers are contractible), its Z frame from
    ``twist_frames``; an X-line with no Z frame is refused.
    """
    if b.space not in ("Z", "X"):
        raise ArgumentError(f"global cohomology computed on Z or X labels, got {b!r}")
    if not is_line(b):
        raise ArgumentError(f"line bundles only, got {b}")
    if (on_z := b if b.space == "Z" else twist_frames(b, b.n)[0]) is None:
        raise ArgumentError(f"{b} is not pulled back from a line bundle on Z")
    reduced = bbw_reduce(on_z.weight)
    if reduced is None:
        return None
    q, dom = reduced
    return q, fiber_label(dom)
