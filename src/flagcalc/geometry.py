"""The double fibration: spaces, isotropy roots, relative cotangent bundles.

Everything lives inside GL(n+1,C) acting on C^{n+1} with coordinates
0..n.  Three homogeneous spaces matter:

* ``M``  — projective n-space, complex dimension n, carrying the real
  structure on which the assembled complexes live.
* ``Z``  — the twistor space of pairs (line, hyperplane containing
  it), complex dimension 2n-1.  Its standard parabolic is conjugated
  by the transposition sigma = (0 1) of the first two coordinates;
  weight labels on Z are written so that Bott-Borel-Weil applies to
  the entries as printed.
* ``X``  — the correspondence space of triples (line, hyperplane,
  second line in the hyperplane), an open orbit with isotropy roots
  forming a chain parabolic pattern on coordinates 1..n only; complex
  dimension 4n-3.  X-labels are written in the sigma-twisted frame, so
  pulling back a line bundle from Z just swaps the first two entries.

A root (i, j) stands for e_i - e_j (the (i,j) matrix position); each
isotropy is the chain parabolic of the space's ``bundles.block_shape``,
pinned by the relative cotangent bundle of mu and by the complex
dimensions (2n-1, n, 4n-3) of Z, M and X: n(n+1) minus the isotropy
roots, a count the tests make for every n up to MAX_N.

Relative forms, the conormal part and pullbacks from M reach X as a
multiplicity-free set of torus weights, whose constituents are found by
their sums over X's blocks (its Levi roots keep them).  This is exact: a
GL(k) irreducible holds every dominant weight below its highest one, so
all irreducibles of one degree share the most balanced weight, and a
block-sum class is one constituent exactly when it is that weight's Weyl
orbit, as many weights as its rank; any other class is refused.  The
nilradical joins them by moves between X's fiber blocks, in one pass.
"""

from __future__ import annotations

from functools import cache, lru_cache
from types import MappingProxyType

from .bundles import (
    BundleLabel,
    FilteredBundle,
    _label_rank,
    block_shape,
    branch_to_torus,
    is_line,
    m_label,
    trivial_label,
    x_label,
    z_label,
)
from .notation import ArgumentError, Value

__all__ = [
    "FlagSpace",
    "Fibration",
    "registry",
    "relative_cotangent",
    "conormal",
    "sigma_swap",
    "pullback_line",
    "twist_frames",
    "pullback_factors",
    "fiber_betti",
]

Root = tuple[int, int]

# Largest n the registry builds: torus branching and the relative forms grow
# with n, and for n >= 4 only the wedges p <= 1 work anyway.
MAX_N = 16


class FlagSpace(Value):
    """A homogeneous space, described by its isotropy root set; labels on
    it have the blocks ``block_shape(name, n)``."""

    name: str
    n: int
    isotropy: frozenset[Root]         # roots (i, j) of the isotropy subalgebra


class Fibration(Value):
    """One leg of the double fibration, with stored fiber topology.

    ``fiber`` is the flag type (k_1, ..., k_r) of the flag manifold of
    C^(k_1+...+k_r) that the fiber is homotopy equivalent to: () is a
    point, (1, m) is projective m-space, (1,) * k the full flags in C^k.
    Topology is stored data — the engine never tries to prove
    contractibility.
    """

    name: str
    total: FlagSpace
    base: FlagSpace
    fiber: tuple[int, ...]


def _chain_roots(block_sizes: tuple[int, ...], coords: tuple[int, ...]) -> frozenset[Root]:
    """Roots of the chain parabolic with the given blocks on the given
    coordinates: (i, j) whenever block(i) <= block(j), i != j."""
    block_of = {}
    pos = 0
    for b, size in enumerate(block_sizes):
        for c in coords[pos:pos + size]:
            block_of[c] = b
        pos += size
    return frozenset(
        (i, j)
        for i in coords
        for j in coords
        if i != j and block_of[i] <= block_of[j]
    )


@cache
def registry(n: int) -> MappingProxyType:
    """Named spaces and fibrations for ambient rank n+1 (2 <= n <= MAX_N).

    Built once per n and returned read-only: every caller shares it.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"need 2 <= n <= {MAX_N}, got {n}")
    coords = tuple(range(n + 1))
    sigma = sigma_swap(coords)

    m_space = FlagSpace("M", n, _chain_roots(block_shape("M", n), coords))

    # Z's standard parabolic, conjugated by sigma
    z_std = _chain_roots(block_shape("Z", n), coords)
    z_space = FlagSpace("Z", n, frozenset((sigma[i], sigma[j]) for i, j in z_std))

    # X's isotropy: the chain parabolic of its own blocks past the spectator
    x_fiber = block_shape("X", n)[1:]
    x_space = FlagSpace("X", n, _chain_roots(x_fiber, coords[1:]))

    return MappingProxyType({
        "M": m_space,
        "Z": z_space,
        "X": x_space,
        # holomorphic legs of the correspondence
        "mu": Fibration("mu", x_space, z_space, ()),
        "nu": Fibration("nu", x_space, m_space, x_fiber),
        # the underlying smooth Z-leg of the incidence variety; same root
        # data as mu, but the fiber topology the collapse arguments use
        "eta": Fibration("eta", x_space, z_space, (1, n - 2)),
    })


# ----------------------------------------------------- fiber topology

def fiber_betti(f: Fibration) -> list[int]:
    """Betti numbers of the fiber, a flag manifold of type k = f.fiber.

    Its Poincare polynomial is the Gaussian multinomial
    prod_{j <= |k|} (1 - q^j) / prod_i prod_{j <= k_i} (1 - q^j) at
    q = t^2, computed as a power series cut after its top degree, the
    complex dimension (|k|^2 - sum k_i^2) / 2.
    """
    size = sum(f.fiber)
    top = (size * size - sum(k * k for k in f.fiber)) // 2
    poly = [1] + [0] * top
    for j in range(1, size + 1):  # times (1 - q^j)
        for i in range(top, j - 1, -1):
            poly[i] -= poly[i - j]
    for k in f.fiber:
        for j in range(1, k + 1):  # divided by (1 - q^j)
            for i in range(j, top + 1):
                poly[i] += poly[i - j]
    betti = [0] * (2 * top + 1)
    betti[::2] = poly
    return betti


# ------------------------------------------- relative cotangent bundles

def _root_weight(alpha: Root, n: int) -> tuple[int, ...]:
    w = [0] * (n + 1)
    w[alpha[0]] += 1
    w[alpha[1]] -= 1
    return tuple(w)


def _assemble_filtered(weights: list[tuple[int, ...]], space: FlagSpace) -> FilteredBundle:
    """Group a multiplicity-free weight set into a filtered bundle on X.

    The constituents are the classes of equal sums over X's blocks, each
    accepted only when its members are the permutations inside the blocks
    of its one dominant member, as many as that label's rank: the
    irreducibles with a single dominant weight, one per class (see the
    module docstring).  A nilradical root moves a unit of block sum from a
    fiber block q to an earlier one p < q, one step deeper into the
    filtration; as each class is a full Weyl orbit, two classes whose sums
    differ by such a move are joined by it.  Components are the weak
    connectivity classes and the level is the longest path of moves from a
    top quotient: each move lowers the potential sum(b * s_b) of the block
    sums s_b, so descending potential visits a class after all above it.
    """
    if len(set(weights)) != len(weights):
        raise ValueError("filtration grouping needs a multiplicity-free weight set")
    shape = block_shape(space.name, space.n)
    block_of = [b for b, size in enumerate(shape) for _ in range(size)]
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for w in weights:
        sums = [0] * len(shape)
        for b, x in zip(block_of, w):
            sums[b] += x
        classes.setdefault(tuple(sums), []).append(w)

    labels = []
    for members in classes.values():
        # sorting (block, entry) pairs sorts each weight inside its blocks
        tops = {tuple(x for _b, x in sorted(zip(block_of, w))) for w in members}
        label = BundleLabel(space.name, min(tops))
        if len(tops) > 1 or _label_rank(label) != len(members):
            raise ValueError(
                f"cannot resolve a Levi constituent from weights {sorted(members)}; "
                "unsupported flag type"
            )
        labels.append(label)

    # moves a -> b (b deeper) and longest-path levels in one descending pass
    index = {sums: a for a, sums in enumerate(classes)}
    near: list[set[int]] = [set() for _ in labels]  # moves taken both ways
    level = [0] * len(labels)
    for sums in sorted(index, key=lambda s: sum(b * x for b, x in enumerate(s)), reverse=True):
        a = index[sums]
        for p in range(1, len(shape)):
            for q in range(p + 1, len(shape)):
                moved = list(sums)
                moved[p] += 1
                moved[q] -= 1
                if (b := index.get(tuple(moved))) is not None:
                    near[a].add(b)
                    near[b].add(a)
                    level[b] = max(level[b], level[a] + 1)

    # weak components in one walk
    groups, seen = [], set()
    for start in range(len(labels)):
        if start not in seen:
            seen.add(start)
            groups.append([start])
            for a in groups[-1]:
                for b in near[a] - seen:
                    seen.add(b)
                    groups[-1].append(b)
    # order components by their top quotient's weight; members by level
    ordered = sorted(groups, key=lambda g: min(labels[i].weight for i in g if level[i] == 0))
    factors, components, levels = [], [], []
    for c, members in enumerate(ordered):
        for i in sorted(members, key=lambda i: (level[i], labels[i].weight)):
            factors.append(labels[i])
            components.append(c)
            levels.append(level[i])
    return FilteredBundle(space.name, space.n, tuple(factors), tuple(components), tuple(levels))


@lru_cache
def relative_cotangent(f: Fibration) -> FilteredBundle:
    """Holomorphic 1-forms along the fibers of f, as a filtered bundle.

    The factors are the lines -alpha for each isotropy root alpha of
    the base (Z's in the sigma frame) that is not an isotropy root of the
    total space; the filtration comes from the total space's nilradical
    as in _assemble_filtered.

    Memoized on the frozen leg: the forms depend on the leg and n only,
    never on a twist, and the result is frozen too.  The miss path checks
    ranks through the untraced ``bundles._label_rank``.
    """
    extra = f.base.isotropy - f.total.isotropy
    weights = [_root_weight((j, i), f.total.n) for i, j in sorted(extra)]  # -(e_i - e_j)
    return _assemble_filtered(weights, f.total)


def conormal(f: Fibration) -> FilteredBundle:
    """The conormal complement on the correspondence space.

    For the M-leg this is the kernel of restricting the pulled-back
    1-forms of the base to the fiber directions of the Z-leg: weights
    of both cotangent generators of the base minus the weights of the
    Z-leg's relative cotangent bundle.
    """
    if f.base.name != "M":
        raise ArgumentError(f"conormal splitting is defined along the M-leg, not {f.name}")
    n = f.total.n
    mu_fib = registry(n)["mu"]
    used = set(relative_cotangent(mu_fib).factors)
    base_forms = [m_label((1, -1) + (0,) * (n - 1)), m_label((-1,) + (0,) * (n - 1) + (1,))]
    weights = []
    for gen in base_forms:
        for w in pullback_factors(gen).factors:
            if w not in used:
                weights.append(w.weight)
    return _assemble_filtered(weights, f.total)


# ---------------------------------------------------------- pullbacks

def sigma_swap(entries: tuple) -> tuple:
    """sigma = (0 1), an involution: Z's frame and the Z <-> X frame change."""
    return (entries[1], entries[0], *entries[2:])


def pullback_line(b: BundleLabel) -> BundleLabel:
    """Pull a line bundle on Z back to the correspondence space.

    sigma swaps the first two weight entries; the result is relabeled
    onto X's block structure.
    """
    if b.space != "Z":
        raise ValueError(f"pullback_line starts on Z, got {b!r}")
    if not is_line(b):
        raise ValueError(f"only line bundles pull back to a single label: {b}")
    return x_label(sigma_swap(b.weight))


def twist_frames(twist, n: int) -> tuple[BundleLabel | None, BundleLabel]:
    """(Z-label or None, X-label) of None (trivial), a Z-line or an X-line.

    An X-twist whose swapped weight is not a Z-label has no Z form.  A twist
    on another space or over another n is an ArgumentError.
    """
    if twist is None:
        twist = trivial_label("Z", n)
    if twist.space not in ("Z", "X"):
        raise ArgumentError(f"twists live on Z or X, got {twist!r}")
    if twist.n != n:
        raise ArgumentError(f"twist {twist} is for n={twist.n}, but the run has n={n}")
    if twist.space == "Z":
        return twist, pullback_line(twist)
    try:
        return z_label(sigma_swap(twist.weight)), twist
    except ValueError:
        return None, twist


def pullback_factors(b: BundleLabel) -> FilteredBundle:
    """Pull an irreducible bundle on M back to X, with its filtration.

    The torus weights of the GL(n) block (Gelfand-Tsetlin branching)
    become line-bundle factors on X; works when that weight multiset is
    multiplicity-free, which covers every pinned case.
    """
    if b.space != "M":
        raise ValueError(f"pullback_factors starts on M, got {b!r}")
    n = b.n
    space = registry(n)["X"]
    mults = branch_to_torus(b.weight[1:])
    if any(c > 1 for c in mults.values()):
        raise ValueError(f"weight multiset of {b} is not multiplicity-free")
    weights = [(b.weight[0], *w) for w in mults]
    return _assemble_filtered(weights, space)


