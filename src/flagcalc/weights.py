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

from functools import cache, wraps

from .notation import ArgumentError

Weight = tuple[int, ...]

__all__ = [
    "Weight",
    "is_dominant",
    "bbw_reduce",
]

# Largest n the registry builds, so a weight has at most MAX_N + 1 entries:
# torus branching and the relative forms grow with n, and for n >= 4 only
# the wedges p <= 1 work anyway.
MAX_N = 16


def is_dominant(w: Weight) -> bool:
    """True iff the entries are nondecreasing."""
    return all(a <= b for a, b in zip(w, w[1:]))


def bbw_reduce(w: Weight, shift: Weight = ()) -> tuple[int, Weight] | None:
    """Bott-Borel-Weil reduction of a GL(k,C) weight, k = len(w), tensored
    with a line: the weight reduced is w + shift, entrywise, where the
    shift is a tuple of k entries or the empty one.

    Returns None when w + rho has a repeated entry (the weight is
    singular: no cohomology at all), and otherwise the pair
    ``(q, dominant)`` where q is the inversion count of w + rho and
    ``dominant`` is the unique dominant weight in the affine Weyl orbit:
    sorted(w + rho) - rho.  A weight or shift that is not a tuple is
    refused (``TypeError``), and a weight of more than MAX_N + 1 entries, or
    a shift of another length, too (``ArgumentError``).
    """
    if not type(w) is tuple is type(shift):  # the kernel would unpack any sequence
        name, value = ("weight", w) if type(w) is not tuple else ("shift", shift)
        raise TypeError(f"bbw_reduce's {name} is a tuple of ints, got {value!r}")
    k = len(w)
    if not shift:
        return _reducer(k)(w)
    if len(shift) != k:
        raise ArgumentError(f"the shift added to {w} has {k} entries, got {shift}")
    return _reducer(k)(w, shift)


def _listed(items) -> str:
    """Source text of comma-separated items, each followed by a comma, so
    that one item in parentheses is still a tuple."""
    return "".join(f"{x}, " for x in items)


def _kernel_per_length(build):
    """Memoize, by its key alone, the function that ``build(key)`` writes,
    compiled on a miss: its first line is the parameter list and the rest is
    the body.  A key is a weight length k, or the tuple of block lengths of a
    weight of k entries.

    A body holds only names and integers derived from the key, never an
    input value, so one kernel serves every weight of that shape.  The bodies
    grow as k^2, so k over MAX_N + 1 is refused before ``build`` is called."""

    @cache
    @wraps(build)
    def kernel(key):
        blocks = key if type(key) is tuple else (key,)
        if (k := sum(blocks)) > MAX_N + 1:
            raise ArgumentError(f"a weight has at most {MAX_N + 1} entries (n <= {MAX_N}), "
                                f"got {k}")
        name = f"{build.__name__}_{'_'.join(map(str, blocks))}"
        params, *body = build(key)
        made: dict = {}
        exec("\n    ".join([f"def {name}({params}):", *body]), {}, made)
        return made[name]
    return kernel


@_kernel_per_length
def _reducer(k: int) -> list[str]:
    """``bbw_reduce`` on a weight ``w`` of k entries and its shift ``d`` (k
    zeros when none is passed), each unpacked into its entries ``w{i}`` and
    ``d{i}``: shift by rho entry by entry, sort by a bubble network of
    adjacent compare-and-swap steps whose swaps count the out-of-order pairs,
    test the sorted neighbours for a repeated entry, then shift back."""
    unpack = [f"({_listed(f'{x}{i}' for i in range(k))}) = {x}" for x in "wd"]
    bubble = [f"if s{j} > s{j + 1}: s{j}, s{j + 1} = s{j + 1}, s{j}; q += 1"
              for top in range(k - 1, 0, -1) for j in range(top)]
    repeat = " or ".join(f"s{i} == s{i + 1}" for i in range(k - 1))
    return [
        f"w, d=({_listed(0 for _ in range(k))})",
        *unpack,
        *(f"s{i} = w{i} + d{i}" + (f" + {i}" if i else "") for i in range(k)),
        "q = 0",
        *bubble,
        *([f"if {repeat}:", "    return None"] if repeat else []),
        f"return q, ({_listed(f's{i}' + (f' - {i}' if i else '') for i in range(k))})",
    ]


@_kernel_per_length
def _pair_scan(k: int) -> list[str]:
    """The symbol check's pairs of one source: the source ``s`` with its
    ``blocks``, first entry ``a``, GL(n) part ``mu`` of k entries and entry
    sum ``total`` against each target ``(t, blocks, first entry, GL(n) part,
    entry sum)`` of ``targets``, the pair ``(s, t)`` appended to ``adm`` when
    t - s = (+-1, -+e_i), else to ``bad``.  The tests run cheapest first: the
    first-entry step, the entry sum, the blocks (so a target's GL(n) part is
    unpacked only at length k), then whether the parts, unpacked into
    ``u{i}`` and ``v{i}``, differ in exactly one place: at the first entry
    that differs, every later entry must agree; no entry differs, no place."""
    one_place = [line for i in range(k - 1) for line in (
        f"{'if' if i == 0 else 'elif'} u{i} != v{i}:",
        f"    ok = {' and '.join(f'u{j} == v{j}' for j in range(i + 1, k))}")]
    last = f"ok = u{k - 1} != v{k - 1}" if k else "ok = False"
    one_place += ["else:", f"    {last}"] if k > 1 else [last]
    return [
        "s, blocks, a, mu, total, targets, adm, bad",
        f"({_listed(f'u{i}' for i in range(k))}) = mu",
        "up, down = a + 1, a - 1",
        "for t, t_blocks, ta, tmu, t_total in targets:",
        "    if (ta == up or ta == down) and t_total == total and t_blocks == blocks:",
        f"        ({_listed(f'v{i}' for i in range(k))}) = tmu",
        *(f"        {line}" for line in one_place),
        "    else:",
        "        ok = False",
        "    (adm if ok else bad).append((s, t))",
    ]
