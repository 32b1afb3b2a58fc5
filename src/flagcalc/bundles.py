"""Irreducible homogeneous bundles and filtered bundles on flag quotients.

An irreducible bundle is recorded by its *label*: a tuple of integers
split into blocks by the flag type, nondecreasing inside each block
(our dominance convention; see weights.py).  The spaces in play, whose
blocks over GL(n+1) only ``block_shape(space, n)`` knows:

==========  ===========  =====================================
space tag   blocks       printed shape (n = 3)
==========  ===========  =====================================
``"M"``     (1, n)       (a||b,c,d)
``"X"``     (1,1,...,1)  (a||b|c|d)      full flag when n <= 3
``"Z"``     (1, n-1, 1)  (a|b,c|d)
``"fiber"`` (n+1,)       (b,c,d)         plain GL(n+1) weight
==========  ===========  =====================================

The ``||`` after the first entry marks the distinguished line of the
ambient space; the twistor space Z is written without it.

Reducible but filtered bundles (relative cotangent bundles and their
wedge powers) are ``FilteredBundle``s: an ordered factor list — top
quotient first, deepest subbundle last — with each factor assigned a
direct-summand component and a filtration level inside its component.
Between consecutive factors of one component a level step of +1 is the
composition-series adjacency written ``A + B`` (B the subbundle);
everything else is a genuine ``(+)`` direct sum.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import prod
from operator import add, index

from .notation import ArgumentError, ParsedLabel, Value, format_entries, parse_label
from .weights import _kernel_per_length, _listed, is_dominant

__all__ = [
    "BundleLabel",
    "FilteredBundle",
    "block_shape",
    "m_label",
    "x_label",
    "z_label",
    "fiber_label",
    "trivial_label",
    "label_space",
    "label_from_string",
    "rank",
    "dual",
    "is_line",
    "tensor_line",
    "pieri_tensor",
    "branch_to_torus",
    "exterior_power",
]

# Spaces whose printed form puts '||' after the first entry.
_DOUBLE_BAR_SPACES = frozenset({"M", "X"})


def block_shape(space: str, n: int) -> tuple[int, ...]:
    """Block sizes of labels on a space over GL(n+1).  X is the full flag
    for n <= 3; for larger n a block of size n-2 sits in the middle of its
    last three blocks."""
    if space == "X":
        return (1,) * (n + 1) if n <= 3 else (1, 1, n - 2, 1)
    if space == "M":
        return (1, n)
    if space == "Z":
        return (1, n - 1, 1)
    if space == "fiber":
        return (n + 1,)
    raise ValueError(f"unknown space tag {space!r}")


class _Shape(Value):
    """What the label checks read off ``block_shape(space, n)``, settled once
    per (space, n): whether the blocks fit a weight at all is ``fits``."""

    blocks: tuple[int, ...]
    fits: bool                          # every block holds at least one entry
    spans: tuple[tuple[int, int], ...]  # block j holds weight[lo:hi]
    links: tuple[int, ...]              # i where entries i and i+1 share a block


@lru_cache
def _shape(space: str, n: int) -> _Shape:
    """The shape of labels on a space over GL(n+1), built once per (space, n)."""
    blocks = block_shape(space, n)
    ends = tuple(accumulate(blocks, initial=0))
    spans = tuple(zip(ends, ends[1:]))
    links = tuple(i for lo, hi in spans for i in range(lo, hi - 1))
    return _Shape(blocks, min(blocks, default=0) >= 1, spans, links)


class BundleLabel(Value, order=True):
    """An irreducible homogeneous bundle, named by its space and weight;
    ``blocks`` is derived, and labels order by (space, blocks, weight)."""

    space: str
    blocks: tuple[int, ...]
    weight: tuple[int, ...]

    def __init__(self, space: str, weight: tuple[int, ...]):
        if type(weight) is not tuple:  # a list would print, but never hash or compare
            raise TypeError(f"a label's weight is a tuple of ints, got {weight!r}")
        shape = _shape(space, len(weight) - 1)
        if not shape.fits:
            raise ValueError(f"blocks {shape.blocks} do not fit weight {weight}")
        for i in shape.links:
            if weight[i] > weight[i + 1]:
                raise ValueError(
                    f"entries must be nondecreasing within each block: {weight}"
                    f" with blocks {shape.blocks}"
                )
        set_space, set_blocks, set_weight = BundleLabel._setters  # frozen: set once, here
        set_space(self, space)
        set_blocks(self, shape.blocks)
        set_weight(self, weight)

    @property
    def n(self) -> int:
        """Ambient rank minus one: the label lives over a quotient of GL(n+1)."""
        return len(self.weight) - 1

    def __str__(self) -> str:
        return format_entries(self.weight, self.blocks, self.space in _DOUBLE_BAR_SPACES)

    def __repr__(self) -> str:
        return f"<{self.space} {self}>"

    def __reduce__(self):  # unpickling and copying go through the checks above
        return BundleLabel, (self.space, self.weight)


# The constructors by space take any iterable of integers: operator.index
# reads True as 1 and refuses a str or a float with a TypeError.

def m_label(weight) -> BundleLabel:
    return BundleLabel("M", tuple(map(index, weight)))


def x_label(weight) -> BundleLabel:
    return BundleLabel("X", tuple(map(index, weight)))


def z_label(weight) -> BundleLabel:
    return BundleLabel("Z", tuple(map(index, weight)))


def fiber_label(weight) -> BundleLabel:
    return BundleLabel("fiber", tuple(map(index, weight)))


def trivial_label(space: str, n: int) -> BundleLabel:
    return BundleLabel(space, (0,) * (n + 1))


def label_space(parsed: ParsedLabel) -> str:
    """The space a label's separators name, read off the shapes above:
    ``||`` with two blocks is M and with more X; without ``||``, three
    blocks are Z and any other count a fiber weight."""
    if parsed.double_bar:
        return "M" if len(parsed.blocks) == 2 else "X"
    return "Z" if len(parsed.blocks) == 3 else "fiber"


def label_from_string(text: str, space: str, parsed: ParsedLabel | None = None) -> BundleLabel:
    """Parse a label string and place it on the named space; a caller that
    has parsed ``text`` already passes the result as ``parsed``.

    The block structure implied by the separators must agree with the
    space's own; this catches e.g. an M-style label handed to the
    twistor space.
    """
    if parsed is None:
        parsed = parse_label(text)
    lab = BundleLabel(space, parsed.weight)
    want_bar = space in _DOUBLE_BAR_SPACES
    if parsed.blocks != lab.blocks or (parsed.double_bar != want_bar and len(parsed.blocks) > 1):
        raise ValueError(
            f"the label has blocks {parsed.blocks}"
            f"{' with ||' if parsed.double_bar else ''}, "
            f"but space {space} wants {lab.blocks}{' with ||' if want_bar else ''}"
        )
    return lab


# ---------------------------------------------------------------- rank

def _label_rank(b: BundleLabel) -> int:
    """Rank of a label: the product of the Weyl ranks of its blocks (1 for a one-entry
    block).  Untraced, so a memo's miss path (``geometry._assemble_filtered``) may check ranks."""
    return _rank_kernel(b.blocks)(b.weight)


@_kernel_per_length
def _rank_kernel(blocks: tuple[int, ...]) -> list[str]:
    """The rank of a weight ``w`` cut into blocks of these lengths, unpacked into
    its entries ``w{i}``: each block's product of shifted root pairings written
    out, a block with no irreducible refused by its own weight, and the product
    of all over the product of the plain pairings, a constant of the blocks."""
    ends = list(accumulate(blocks, initial=0))
    body, nums, den = [f"({_listed(f'w{i}' for i in range(ends[-1]))}) = w"], [], 1
    for lo, hi in zip(ends, ends[1:]):
        if hi - lo < 2:  # no root: the one irreducible of each weight is a line
            continue
        pairs = list(combinations(range(lo, hi), 2))
        den *= prod(j - i for i, j in pairs)
        nums.append(num := f"n{lo}")
        body += [
            f"{num} = {' * '.join(f'(w{j} - w{i} + {j - i})' for i, j in pairs)}",
            f"if {num} <= 0:",
            f"    raise ValueError(f'no GL({hi - lo}) irreducible has the weight "
            f"{{({_listed(f'w{i}' for i in range(lo, hi))})}}')",
        ]
    return ["w", *body, f"return {' * '.join(nums) or 1}{f' // {den}' if den > 1 else ''}"]


def rank(b) -> int:
    """Rank of a BundleLabel or a FilteredBundle (sum over factors).  A
    line is constant on every block, so a twist leaves each factor's rank
    as it is and the untwisted factors are summed."""
    if isinstance(b, FilteredBundle):
        return sum(rank(f) for f in b.untwisted)
    return _label_rank(b)


def is_line(b: BundleLabel) -> bool:
    """Rank one <=> the weight is constant on every block."""
    w = b.weight
    for i in _shape(b.space, len(w) - 1).links:
        if w[i] != w[i + 1]:
            return False
    return True


def dual(b: BundleLabel) -> BundleLabel:
    """Dual bundle: negate and reverse the weight inside each block."""
    w = list(b.weight)
    for lo, hi in _shape(b.space, b.n).spans:
        w[lo:hi] = [-x for x in reversed(w[lo:hi])]
    return BundleLabel(b.space, tuple(w))


def tensor_line(a: BundleLabel, b: BundleLabel) -> BundleLabel:
    """Tensor product when at least one factor is a line bundle.

    This is the only tensor that stays irreducible for free: the line
    bundle just shifts the weight entrywise.
    """
    if a.space != b.space or len(a.weight) != len(b.weight):
        raise ArgumentError(f"cannot tensor labels on different spaces or over different n: "
                            f"{a!r} vs {b!r}")
    if not (is_line(a) or is_line(b)):
        raise ValueError(f"neither {a} nor {b} is a line bundle; use pieri_tensor")
    return BundleLabel(a.space, tuple(map(add, a.weight, b.weight)))


# ------------------------------------------------------- Pieri tensor

def pieri_tensor(b: BundleLabel) -> list[BundleLabel]:
    """Constituents of b tensored with the rank-2n cotangent generator sum.

    On the base the two generating line-bundle directions contribute,
    for a label (a || mu), the terms (a+1 || mu - e_i) and
    (a-1 || mu + e_i) over all coordinates i keeping mu dominant.  The
    decomposition is multiplicity-free (Pieri for a fundamental weight),
    and total rank is conserved: 2n * rank(b).
    """
    if b.space != "M":
        raise ValueError(f"pieri_tensor expects a base-space label, got {b!r}")
    a, mu = b.weight[0], list(b.weight[1:])
    out: set[tuple[int, ...]] = set()
    for i in range(len(mu)):
        for da, dmu in ((1, -1), (-1, 1)):
            cand = mu.copy()
            cand[i] += dmu
            if is_dominant(tuple(cand)):
                out.add((a + da, *cand))
    return [m_label(w) for w in sorted(out)]


# -------------------------------------------- Gelfand-Tsetlin branching

# Largest rank branch_to_torus enumerates: it visits one pattern per torus
# weight, so a wider weight is refused before any work is done.
MAX_BRANCH_RANK = 1000


def branch_to_torus(mu: tuple[int, ...]) -> Counter:
    """Torus weight multiset of the GL(m) irreducible with weight mu.

    Enumerates Gelfand-Tsetlin patterns: rows interleave downwards, and
    the j-th weight entry is (sum of row j) - (sum of row j-1).  The
    multiset is Weyl-invariant, so the nondecreasing input is read in
    reverse (conventional nonincreasing top row) without loss.
    """
    mu = tuple(mu)
    if not is_dominant(mu):
        raise ValueError(f"weight must be dominant (nondecreasing): {mu}")
    if (r := _rank_kernel((len(mu),))(mu)) > MAX_BRANCH_RANK:
        raise ValueError(
            f"{mu} has rank {r}, over the {MAX_BRANCH_RANK} torus weights "
            "branch_to_torus enumerates"
        )
    top = tuple(reversed(mu))
    out: Counter = Counter()

    def descend(row: tuple[int, ...], partial: tuple[int, ...]):
        if len(row) == 1:
            out[partial + (row[0],)] += 1
            return
        total = sum(row)
        # x_(i+1) <= row[i+1] <= x_i, so the ranges alone make the entries interleave
        for nxt in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
            descend(nxt, partial + (total - sum(nxt),))

    # weight entries come out last-coordinate-first; reverse at the end
    descend(top, ())
    return Counter({tuple(reversed(w)): c for w, c in out.items()})


# ------------------------------------------------------ FilteredBundle

def _check_twist(space: str, n: int, blocks: tuple[int, ...], line) -> None:
    """The one test of a twisting line: a line bundle on the space over n
    (label blocks ``blocks``; on one space equal blocks mean equal n)."""
    if not (type(line) is BundleLabel and line.space == space and line.blocks == blocks
            and is_line(line)):
        raise ValueError(f"twist_by needs a line bundle on {space} over n={n}, got {line!r}")


class FilteredBundle(Value):
    """Ordered factors of a filtered homogeneous bundle, tensored with a line.

    ``components[i]`` is the direct-summand index of factor i (0-based,
    nondecreasing along the list) and ``levels[i]`` its filtration depth
    inside that component, 0 for the top quotient.  Factors are listed
    quotient-first within each component.  ``line`` is a line bundle on the
    same space and n, or None for no line: the factors are stored
    ``untwisted``, and ``factors`` tensors each one with the line when it
    is read.
    """

    space: str
    n: int
    untwisted: tuple[BundleLabel, ...] = ()
    components: tuple[int, ...] = ()
    levels: tuple[int, ...] = ()
    line: BundleLabel | None = None

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError(f"a filtered bundle is named by its space and n, got n={self.n!r}")
        untwisted, components, levels = self.untwisted, self.components, self.levels
        if not type(untwisted) is type(components) is type(levels) is tuple:  # a list never hashes
            field = ("untwisted" if type(untwisted) is not tuple else
                     "components" if type(components) is not tuple else "levels")
            raise TypeError(f"a filtered bundle's {field} is a tuple, got {getattr(self, field)!r}")
        if not len(untwisted) == len(components) == len(levels):
            raise ValueError("factors, components and levels differ in length")
        shape = _shape(self.space, self.n)  # refuses unknown spaces
        if not shape.fits:
            raise ValueError(f"no label lives on {self.space} over n={self.n}: "
                             f"blocks {shape.blocks}")
        space, blocks = self.space, shape.blocks
        for f in untwisted:  # a label built on this shape holds its very blocks tuple
            if f.space != space or (f.blocks is not blocks and f.blocks != blocks):
                raise ValueError(f"factor {f!r} does not live on {self.space} over n={self.n}")
        if tuple(sorted(components)) != components:
            raise ValueError("components must be listed contiguously")
        line = self.line
        if line is not None:
            _check_twist(space, self.n, blocks, line)

    def __hash__(self) -> int:  # equal bundles share a filtration: a memo hit hashes no label
        return hash((self.space, self.n, self.components, self.levels))

    def __eq__(self, other) -> bool:
        """Equal filtrations and equal twisted factors."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.n, self.components, self.levels, self.factors) == \
            (other.space, other.n, other.components, other.levels, other.factors)

    def __len__(self) -> int:
        return len(self.untwisted)

    @property
    def factors(self) -> tuple[BundleLabel, ...]:
        """The factors tensored with the line, each built and checked on read."""
        line = self.line
        if line is None:
            return self.untwisted
        return tuple(tensor_line(f, line) for f in self.untwisted)

    def edges(self) -> tuple[str, ...]:
        """Separator between consecutive factors: '+' = composition-series
        adjacency (right factor is the deeper subbundle), '(+)' = direct sum."""
        out = []
        for i in range(len(self.untwisted) - 1):
            adjacent = (
                self.components[i] == self.components[i + 1]
                and self.levels[i + 1] == self.levels[i] + 1
            )
            out.append("+" if adjacent else "(+)")
        return tuple(out)

    def __str__(self) -> str:
        factors = self.factors
        if not factors:
            return "0"
        bits = [str(factors[0])]
        for sep, f in zip(self.edges(), factors[1:]):
            bits.append(sep)
            bits.append(str(f))
        return " ".join(bits)

    def twist_by(self, line: BundleLabel) -> "FilteredBundle":
        """Tensor every factor by a line bundle on this space and n (filtration
        unchanged): the line is recorded, or composed with the one already
        there.  A line is constant on each block, so every twisted factor
        stays dominant; the constructor refuses anything else."""
        if self.line is not None:  # the new line is checked first; the old one has the blocks
            _check_twist(self.space, self.n, self.line.blocks, line)
            line = tensor_line(self.line, line)
        return FilteredBundle(self.space, self.n, self.untwisted, self.components, self.levels,
                              line)


@lru_cache
def exterior_power(f: FilteredBundle, p: int) -> FilteredBundle:
    """Associated graded of the p-th wedge of a filtered sum of lines (any
    filtered bundle for p <= 1: the trivial line, or the bundle itself).

    Each p-subset of factors contributes the line with the summed
    weight.  Subsets are grouped into output components by their
    *multidegree* — how many factors they draw from each input
    component — ordered lexicographically descending; inside a
    component the level is the (normalised) sum of input levels.  This
    is the canonical weight-by-weight expansion of
    wedge(A (+) B) = (+)_{i+j=p} wedge^i A (x) wedge^j B
    together with the filtration each wedge inherits.

    Memoized on (f, p): both are frozen, the engine only wedges the few
    relative cotangent bundles, and the result is frozen too.
    """
    if p < 0:
        raise ValueError("negative exterior power")
    given = f.factors  # a twisted bundle builds its twisted labels once, here
    if p >= 2 and any(not is_line(x) for x in given):
        raise ValueError(
            "exterior_power needs line-bundle factors; "
            "non-full-flag totals (n >= 4) are not supported"
        )
    ncomp = (max(f.components) + 1) if f.components else 0
    entries = []
    for subset in combinations(range(len(given)), p):
        weight = tuple(
            sum(given[i].weight[k] for i in subset)
            for k in range(f.n + 1)
        )
        multidegree = tuple(
            -sum(1 for i in subset if f.components[i] == c) for c in range(ncomp)
        )
        level = sum(f.levels[i] for i in subset)
        entries.append((multidegree, level, subset, weight))
    entries.sort()

    factors, components, levels = [], [], []
    comp_of: dict[tuple[int, ...], int] = {}
    base_level: dict[int, int] = {}
    for multidegree, level, _subset, weight in entries:
        c = comp_of.setdefault(multidegree, len(comp_of))
        base_level.setdefault(c, level)
        factors.append(BundleLabel(f.space, weight))
        components.append(c)
        levels.append(level - base_level[c])
    return FilteredBundle(f.space, f.n, tuple(factors), tuple(components), tuple(levels))
