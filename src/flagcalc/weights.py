"""Integral weights of GL(k,C) and the Bott-Borel-Weil reduction.

Conventions, fixed once and used everywhere in this package:

* a weight is a tuple of integers (w_1, ..., w_k), one entry per
  coordinate line in C^k;
* *dominant* means nondecreasing, w_1 <= w_2 <= ... <= w_k;
* the half-sum shift is rho = (0, 1, ..., k-1), so w is nonsingular
  exactly when w + rho has pairwise distinct entries.

With these choices the affine Weyl action needed for Bott-Borel-Weil is
just "sort w + rho, remembering how disordered it was": the cohomology
degree is the inversion count of w + rho and the resulting dominant
weight is sorted(w + rho) - rho.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import add, gt, sub

Weight = tuple[int, ...]

__all__ = [
    "Weight",
    "is_dominant",
    "bbw_reduce",
]


def is_dominant(w: Weight) -> bool:
    """True iff the entries are nondecreasing."""
    return all(a <= b for a, b in zip(w, w[1:]))


def bbw_reduce(w: Weight) -> tuple[int, Weight] | None:
    """Bott-Borel-Weil reduction of a GL(k,C) weight, k = len(w).

    Returns None when w + rho has a repeated entry (the weight is
    singular: no cohomology at all), and otherwise the pair
    ``(q, dominant)`` where q is the inversion count of w + rho and
    ``dominant`` is the unique dominant weight in the affine Weyl orbit:
    sorted(w + rho) - rho.
    """
    rho = range(len(w))
    shifted = list(map(add, w, rho))
    if len(set(shifted)) != len(shifted):
        return None
    q = sum(starmap(gt, combinations(shifted, 2)))  # pairs i < j out of order
    shifted.sort()
    return q, tuple(map(sub, shifted, rho))
