"""Independent reference implementations used to cross-check the engine.

These are deliberately naive: the weight reduction is redone by brute
force over all k! orderings, ranks and torus characters are recounted by
enumerating interleaved integer patterns one row at a time, and the
characters of wedge products come from listing subsets.  The (p,q)-form
tables for n = 2, 3 are kept as the hand-written data they once were.
Nothing here shares code with the package.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product


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
