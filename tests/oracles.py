"""Independent reference implementations used to cross-check the engine.

These are deliberately naive: the weight reduction is redone by brute
force over all k! orderings, ranks and torus characters are recounted by
enumerating interleaved integer patterns one row at a time, and the
characters of wedge products come from listing subsets, and the Euler
characteristic of a direct-image column is the Weyl dimension polynomial
at each unsorted fiber weight, with no reduction at all.  The (p,q)-form
tables for n = 2, 3 are kept as the hand-written data they once were.
Nothing here shares code with the package, except that the old naming of
form types, an exhaustive cover search kept verbatim at the end, reads
the package's form dictionary (itself checked against the character
oracle above) and its FormType names, and the old symbol-check test,
membership in the listed Pieri tensor, reads the package's
``pieri_tensor`` (checked in test_bundles by its worked values and by
rank conservation).  The old grouping of relative forms into a filtered
bundle, kept verbatim at the end, finds each Levi constituent by a
breadth-first search over the +-Levi root vectors and levels by a
fixed-point loop; it reads the package's labels, ``rank`` (checked
against the pattern count above) and the space's isotropy roots, which
``complex_dim`` counts against the dimensions of the spaces.  The
old per-block label rules, ``is_dominant`` on each block's slice and one
distinct value per block for a line, cut the weight by the package's
``block_shape``, the one statement of the block sizes.  The Euler rank
of a direct-image column sums the package's ``rank`` over its cells.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product

from flagcalc.bundles import BundleLabel, FilteredBundle, block_shape, pieri_tensor, rank
from flagcalc.geometry import FlagSpace, _root_weight
from flagcalc.transform import FormType, form_dictionary
from flagcalc.weights import is_dominant


def brute_reduce(weight: tuple[int, ...]):
    """Reduce a weight by trying every permutation of its shift.

    Returns None for a repeated shifted entry, else (q, dominant) where
    q counts the inversions of the unique sorting permutation.
    """
    k = len(weight)
    shifted = tuple(w + i for i, w in enumerate(weight))
    if len(set(shifted)) != k:
        return None
    for perm in permutations(range(k)):
        arranged = tuple(shifted[i] for i in perm)
        if all(arranged[i] < arranged[i + 1] for i in range(k - 1)):
            q = sum(
                1
                for a in range(k)
                for b in range(a + 1, k)
                if perm[a] > perm[b]
            )
            return q, tuple(arranged[i] - i for i in range(k))
    raise AssertionError("unreachable: a permutation always sorts distinct values")


@lru_cache(maxsize=None)
def pattern_count(top: tuple[int, ...]) -> int:
    """Number of triangular interlacing patterns below a nonincreasing row."""
    k = len(top)
    if k <= 1:
        return 1
    total = 0

    def rows(prefix: list[int], i: int):
        nonlocal total
        if i == k - 1:
            total += pattern_count(tuple(prefix))
            return
        lo, hi = top[i + 1], top[i]
        for v in range(lo, hi + 1):
            if not prefix or prefix[-1] >= v:
                rows(prefix + [v], i + 1)

    rows([], 0)
    return total


def count_rank(mu: tuple[int, ...]) -> int:
    """Rank of the irreducible with nondecreasing highest weight mu."""
    return pattern_count(tuple(reversed(mu)))


def weyl_euler(weight: tuple[int, ...]) -> int:
    """The Weyl polynomial prod_{i<j} (w_j - w_i + j - i) / (j - i) at any
    integer weight, unsorted: (-1)^q times the rank of its cohomology in
    degree q, and 0 for a singular weight, so a sum of these is an Euler
    characteristic.  The product of each numerator is a multiple of the
    denominator's, so the one division is exact."""
    num = den = 1
    for i, j in combinations(range(len(weight)), 2):
        num *= weight[j] - weight[i] + j - i
        den *= j - i
    return num // den


def euler_rank(table, p: int) -> int:
    """The alternating rank sum of column p of a direct-image table, by the
    package's ``rank``: the Euler characteristic that ``weyl_euler`` counts
    per factor, read off the cells the table lists."""
    return sum((-1) ** q * sum(rank(b) for b in labs)
               for (pp, q), labs in table.cells.items() if pp == p)


def block_slices(space: str, weight: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """The weight cut into the blocks of its space, or None when the shape
    has a block of size below one (too few entries for the space)."""
    blocks = block_shape(space, len(weight) - 1)
    if min(blocks, default=0) < 1:
        return None
    ends = [sum(blocks[:j]) for j in range(len(blocks) + 1)]
    return [weight[lo:hi] for lo, hi in zip(ends, ends[1:])]


def block_dominant(space: str, weight: tuple[int, ...]) -> bool:
    """The old label check on a weight that fits its space: nondecreasing
    inside every block."""
    return all(is_dominant(part) for part in block_slices(space, weight))


def block_line(label: BundleLabel) -> bool:
    """The old line test: one distinct value in every block."""
    return all(len(set(part)) == 1 for part in block_slices(label.space, label.weight))


def complex_dim(space: FlagSpace) -> int:
    """Complex dimension of a homogeneous space of GL(n+1): the roots
    (i, j), i != j, outside its isotropy, that is n(n+1) - |isotropy|."""
    coords = range(space.n + 1)
    return sum(1 for i in coords for j in coords if i != j and (i, j) not in space.isotropy)


def pieri_admissible(source: BundleLabel, target: BundleLabel) -> bool:
    """The symbol check's old test of one arrow component: the target is
    one of the labels the source's Pieri tensor lists."""
    return target in set(pieri_tensor(source))


def torus_character(mu: tuple[int, ...]) -> Counter:
    """Torus weights, with multiplicity, of the GL(k) irreducible with
    nondecreasing highest weight mu: one weight per interlacing pattern,
    entry j being (sum of row j) - (sum of row j-1)."""
    out: Counter = Counter()

    def descend(row: tuple[int, ...], tail: tuple[int, ...]):
        if not row:
            out[tail] += 1
            return
        for below in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
            descend(below, (sum(row) - sum(below),) + tail)

    descend(tuple(sorted(mu, reverse=True)), ())
    return out


def wedge_pair_character(n: int, p: int, q: int) -> Counter:
    """Torus weights of Lambda^p(V*) (x) Lambda^q(V), V = C^n: one weight
    e_T - e_S per p-subset S and q-subset T of the coordinates."""
    out: Counter = Counter()
    for s in combinations(range(n), p):
        for t in combinations(range(n), q):
            out[tuple((i in t) - (i in s) for i in range(n))] += 1
    return out


# The (p,q)-form dictionary as it was once stored by hand, n -> (full,
# perp): full[(p, q)] lists the irreducible constituents of L(p,q) on the
# base, perp[(p, q)] its primitive part.
FORM_TABLES = {
    2: (
        {
            (0, 0): ["(0||0,0)"],
            (1, 0): ["(1||-1,0)"], (0, 1): ["(-1||0,1)"],
            (2, 0): ["(2||-1,-1)"], (1, 1): ["(0||-1,1)", "(0||0,0)"], (0, 2): ["(-2||1,1)"],
            (2, 1): ["(1||-1,0)"], (1, 2): ["(-1||0,1)"],
            (2, 2): ["(0||0,0)"],
        },
        {(1, 1): ["(0||-1,1)"]},
    ),
    3: (
        {
            (0, 0): ["(0||0,0,0)"],
            (1, 0): ["(1||-1,0,0)"], (0, 1): ["(-1||0,0,1)"],
            (2, 0): ["(2||-1,-1,0)"], (1, 1): ["(0||-1,0,1)", "(0||0,0,0)"],
            (0, 2): ["(-2||0,1,1)"],
            (3, 0): ["(3||-1,-1,-1)"], (2, 1): ["(1||-1,-1,1)", "(1||-1,0,0)"],
            (1, 2): ["(-1||-1,1,1)", "(-1||0,0,1)"], (0, 3): ["(-3||1,1,1)"],
            (3, 1): ["(2||-1,-1,0)"], (2, 2): ["(0||-1,0,1)", "(0||0,0,0)"],
            (1, 3): ["(-2||0,1,1)"],
            (3, 2): ["(1||-1,0,0)"], (2, 3): ["(-1||0,0,1)"],
            (3, 3): ["(0||0,0,0)"],
        },
        {
            (1, 1): ["(0||-1,0,1)"], (2, 2): ["(0||-1,0,1)"],
            (1, 2): ["(-1||-1,1,1)"], (2, 1): ["(1||-1,-1,1)"],
        },
    ),
}


# Form-type naming as it once was: every way to cover a term exactly by
# named bundles of one degree, found by backtracking, then the chain rule.
# Exponential in n; the reference for transform.annotate_form_types.
_Catalog = dict[int, list[tuple[FormType, Counter]]]


def _catalog(n: int) -> _Catalog:
    """Every named form bundle with its label counts, grouped by degree."""
    full, perp = form_dictionary(n)
    cat = [(FormType(p, q, "full"), labs) for (p, q), labs in full.items()]
    cat += [(FormType(p, q, "perp"), labs) for (p, q), labs in perp.items()]
    by_degree: _Catalog = {}
    for ft, labs in sorted(cat, key=lambda e: e[0]):
        by_degree.setdefault(ft.degree, []).append((ft, Counter(labs)))
    return dict(sorted(by_degree.items()))


def _partitions_of(
    term: tuple[BundleLabel, ...], catalog: _Catalog
) -> dict[int, list[tuple[FormType, ...]]]:
    """All ways to write a term as a disjoint union of named bundles of
    one common total degree, grouped by that degree.  A catalog entry
    with a label outside the term can never be used, so it is dropped
    before the search."""
    want = Counter(term)
    by_degree: dict[int, list] = {}
    for d, all_entries in catalog.items():
        entries = [(ft, labs) for ft, labs in all_entries if labs.keys() <= want.keys()]

        found: list[tuple[FormType, ...]] = []

        def cover(remaining: Counter, start: int, used: tuple[FormType, ...]):
            if not +remaining:
                found.append(used)
                return
            for k in range(start, len(entries)):
                ft, labs = entries[k]
                if all(remaining[x] >= c for x, c in labs.items()):
                    cover(remaining - labs, k, used + (ft,))

        cover(want, 0, ())
        if found:
            by_degree[d] = [tuple(sorted(f)) for f in found]
    return by_degree


def annotate_form_types(
    terms: tuple[tuple[BundleLabel, ...], ...], n: int
) -> tuple[tuple[FormType, ...], ...] | None:
    """Assign (p,q)-form names to every term, or None when ambiguous.

    Terms must carry consecutive total degrees (the arrows are first
    order); subject to that chain constraint the partition of every
    term must be unique.
    """
    if not terms:
        return None
    catalog = _catalog(n)
    options = [_partitions_of(t, catalog) for t in terms]
    starts = [
        d0 for d0 in options[0]
        if all(d0 + i in opt for i, opt in enumerate(options))
    ]
    if len(starts) != 1:
        return None
    d0 = starts[0]
    chosen = []
    for i, opt in enumerate(options):
        parts = set(opt[d0 + i])
        if len(parts) != 1:
            return None
        chosen.append(next(iter(parts)))
    return tuple(chosen)


# ------------------------------------- filtration grouping (old search)

def _neg(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in w)


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def assemble_filtered(weights: list[tuple[int, ...]], space: FlagSpace) -> FilteredBundle:
    """Group a multiplicity-free weight set into a filtered bundle on X.

    Levi-reachability inside the isotropy groups weights into
    irreducible constituents; nilradical roots then give the "who
    extends whom" order: adding a nilradical root moves deeper into the
    filtration.  Components are the weak connectivity classes and the
    level is the longest nilradical path from a top quotient.
    """
    if len(set(weights)) != len(weights):
        raise ValueError("filtration grouping needs a multiplicity-free weight set")
    n = space.n
    levi_roots = {a for a in space.isotropy if (a[1], a[0]) in space.isotropy}
    levi = [_root_weight(a, n) for a in levi_roots]
    levi += [_neg(r) for r in levi]
    nil = [_root_weight(a, n) for a in space.isotropy - levi_roots]
    pool = set(weights)

    def constituent_label(orbit: set) -> BundleLabel:
        doms = []
        for w in orbit:
            try:
                doms.append(BundleLabel(space.name, w))
            except ValueError:
                continue
        if len(doms) != 1 or rank(doms[0]) != len(orbit):
            raise ValueError(
                f"cannot resolve a Levi constituent from weights {sorted(orbit)}; "
                "unsupported flag type"
            )
        return doms[0]

    # constituents: orbits under adding +-Levi roots, each resolved to its
    # label as soon as it is found, so an unsupported flag type fails fast
    orbit_of: dict[tuple[int, ...], int] = {}
    orbits: list[set] = []
    labels: list[BundleLabel] = []
    for w in weights:
        if w in orbit_of:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            v = frontier.pop()
            for r in levi:
                u = _add(v, r)
                if u in pool and u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        labels.append(constituent_label(orbit))
        for v in orbit:
            orbit_of[v] = len(orbits)
        orbits.append(orbit)

    # nilradical edges between constituents: a -> b means b is deeper
    k = len(orbits)
    succ: list[set[int]] = [set() for _ in range(k)]
    for a, orbit in enumerate(orbits):
        for w in orbit:
            for r in nil:
                u = _add(w, r)
                if u in pool and orbit_of[u] != a:
                    succ[a].add(orbit_of[u])

    level = [0] * k
    changed = True
    while changed:  # longest-path relaxation; the graph is tiny and acyclic
        changed = False
        for a in range(k):
            for b in succ[a]:
                if level[b] < level[a] + 1:
                    if level[a] + 1 > k:
                        raise ValueError("cyclic extension order; not a filtration")
                    level[b] = level[a] + 1
                    changed = True

    comp = list(range(k))  # union-find over weak connectivity

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for a in range(k):
        for b in succ[a]:
            comp[find(a)] = find(b)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    # order components by their top quotient's weight; members by level
    ordered = sorted(
        groups.values(),
        key=lambda g: min(labels[i].weight for i in g if level[i] == min(level[j] for j in g)),
    )
    factors, components, levels = [], [], []
    for c, members in enumerate(ordered):
        for i in sorted(members, key=lambda i: (level[i], labels[i].weight)):
            factors.append(labels[i])
            components.append(c)
            levels.append(level[i])
    return FilteredBundle(
        space.name, space.n, tuple(factors), tuple(components), tuple(levels)
    )
