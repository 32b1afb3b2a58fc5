"""Weight arithmetic: dominance and reduction."""

import random
import re
from collections import Counter
from math import comb
from operator import add, ne, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc import weights
from flagcalc.bundles import m_label, x_label
from flagcalc.notation import ArgumentError
from flagcalc.weights import MAX_N, bbw_reduce, is_dominant

from oracles import brute_reduce, loop_reduce, pieri_admissible

# the refusal of a weight of too many entries, up to the count it was given
TOO_LONG = rf"a weight has at most {MAX_N + 1} entries \(n <= {MAX_N}\), got "


def test_dominance_is_nondecreasing():
    assert is_dominant((-1, 0, 1))
    assert is_dominant((2, 2, 2))
    assert not is_dominant((1, 0))


@pytest.mark.parametrize(
    "weight, expected",
    [
        ((0, 0, 1), (0, (0, 0, 1))),
        ((1, -1, 0), (1, (0, 0, 0))),
        ((2, 0, 1), (1, (1, 1, 1))),
        ((3, 0, -3), (3, (-1, 0, 1))),
        ((1, 1, 1), (0, (1, 1, 1))),
        ((1, -1, 0, 0), (1, (0, 0, 0, 0))),
        ((0, 0, 0), (0, (0, 0, 0))),
    ],
)
def test_reduction_worked_values(weight, expected):
    assert bbw_reduce(weight) == expected


@pytest.mark.parametrize("weight", [(0, 1, 0), (1, 0, 0), (3, 1, 2, 0), (0, -1)])
def test_reduction_singular_values(weight):
    assert bbw_reduce(weight) is None


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_reduction_output_is_dominant_with_bounded_degree(entries):
    result = bbw_reduce(tuple(entries))
    if result:
        q, dom = result
        assert is_dominant(dom)
        assert 0 <= q <= comb(len(entries), 2)  # at most every pair out of order


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.integers(-4, 4))
def test_reduction_commutes_with_determinant_twist(entries, c):
    w = tuple(entries)
    base = bbw_reduce(w)
    twisted = bbw_reduce(tuple(e + c for e in w))
    if base:
        q, dom = base
        assert twisted == (q, tuple(d + c for d in dom))
    else:
        assert twisted is None


def test_dominant_weights_reduce_to_themselves():
    for w in [(-2, 0, 3), (0, 0, 0, 0), (1, 1, 2)]:
        assert bbw_reduce(w) == (0, w)


def _typed(result):
    """A reduction with the type of each of its parts, so that a bool count
    or a list weight shows against an int or a tuple."""
    if result is None:
        return None
    q, dom = result
    return type(result), type(q), q, type(dom), tuple(map(type, dom)), dom


def _random_weights(rng: random.Random, k: int, count: int):
    """Seeded weights of k entries, half of them made singular by giving two
    shifted entries one value; a few entries are far beyond any box."""
    for t in range(count):
        w = [rng.choice((rng.randint(-8, 8), rng.randint(-10**15, 10**15))) for _ in range(k)]
        if t % 2 and k >= 2:
            i, j = sorted(rng.sample(range(k), 2))
            w[j] = w[i] + i - j  # w + rho repeats an entry
        yield tuple(w)


@pytest.mark.parametrize("k", range(MAX_N + 2))
def test_each_length_kernel_matches_the_loop_and_the_permutation_search(k):
    rng = random.Random(k)
    seen = set()
    for w in _random_weights(rng, k, 200):
        got = bbw_reduce(w)
        assert _typed(got) == _typed(loop_reduce(w)), w
        assert _typed(bbw_reduce(w, ())) == _typed(got), w
        if k <= 6:
            assert got == brute_reduce(w), w
        seen.add(got is None)
    assert seen == ({False, True} if k >= 2 else {False})  # both kinds were met


@pytest.mark.parametrize("k", range(MAX_N + 2))
def test_each_length_kernel_reduces_a_weight_plus_its_shift(k):
    # bbw_reduce(u, s) reduces u + s: split each test weight w into w - s and
    # a seeded shift s, so that singular sums are met as often as above
    rng = random.Random(k)
    seen = set()
    for w in _random_weights(rng, k, 200):
        s = tuple(rng.choice((rng.randint(-8, 8), rng.randint(-10**15, 10**15)))
                  for _ in range(k))
        u = tuple(map(sub, w, s))
        got = bbw_reduce(u, s)
        assert _typed(got) == _typed(loop_reduce(tuple(map(add, u, s)))), (u, s)
        seen.add(got is None)
    assert seen == ({False, True} if k >= 2 else {False})
    for wrong in {(0,) * (k - 1), (0,) * (k + 1)} - {()}:  # a shift has k entries or none
        with pytest.raises(ArgumentError, match=re.escape(f"has {k} entries, got {wrong}") + "$"):
            bbw_reduce((0,) * k, wrong)


@pytest.mark.parametrize("k", range(MAX_N + 2))
def test_the_bubble_network_swaps_every_pair_and_sees_the_last_repeat(k):
    # w + rho strictly decreasing: every one of the k(k-1)/2 network steps
    # swaps, and the dominant weight is w + rho reversed, less rho
    reducer = weights._reducer(k)
    anti = tuple(-2 * i for i in range(k))  # w + rho = (0, -1, ..., 1-k)
    assert reducer(anti) == reducer(anti, (0,) * k) == (comb(k, 2), (1 - k,) * k)
    # w + rho = (k-2, 0, 1, ..., k-2) and (k-2, k-2, k-3, ..., 0) both sort to
    # (0, 1, ..., k-2, k-2): only the last sorted neighbours repeat
    if k >= 2:
        for shifted in (range(k - 1), range(k - 2, -1, -1)):
            w = tuple(x - i for i, x in enumerate((k - 2, *shifted)))
            assert reducer(w) is None and bbw_reduce(w) is None, w
            assert reducer(w, (1,) + (0,) * (k - 1)) is not None  # one more at the front: regular


def test_a_weight_or_shift_that_is_not_a_tuple_is_refused_by_name():
    # the kernel unpacks its weight and shift, so a list would be reduced as
    # if it were a tuple; it is refused before any length is read
    refusals = [
        (([1, 2],), "weight", [1, 2]),
        (([1, 2], (0, 0)), "weight", [1, 2]),
        (([0] * (MAX_N + 2),), "weight", [0] * (MAX_N + 2)),
        ((range(3),), "weight", range(3)),
        (((1, 2), [0, 0]), "shift", [0, 0]),
        (((1, 2), [0]), "shift", [0]),
        (((1, 2), []), "shift", []),
        (((), None), "shift", None),
    ]
    for args, name, value in refusals:
        with pytest.raises(TypeError) as err:
            bbw_reduce(*args)
        assert str(err.value) == f"bbw_reduce's {name} is a tuple of ints, got {value!r}"
    assert bbw_reduce((2, 0)) == bbw_reduce((2, 0), ()) == (1, (1, 1))
    assert bbw_reduce((1, -1), (1, 1)) == (1, (1, 1))


def test_a_weight_over_the_bound_is_refused_before_any_source_is_written():
    built = []

    @weights._kernel_per_length
    def kernel(k):
        built.append(k)
        return [weights._listed(f"w{i}" for i in range(k)), f"return {k}"]

    with pytest.raises(ArgumentError, match=f"{TOO_LONG}{MAX_N + 2}$"):
        kernel(MAX_N + 2)
    assert built == [] and kernel.cache_info().currsize == 0
    assert kernel(MAX_N + 1)(*range(MAX_N + 1)) == MAX_N + 1 and built == [MAX_N + 1]
    with pytest.raises(ArgumentError, match=f"{TOO_LONG}{MAX_N + 2}$"):
        bbw_reduce((0,) * (MAX_N + 2))


def _read(t):
    """A label as the symbol check reads it: the label, its blocks on M (None
    off M), its first entry, its GL(n) part and its entry sum."""
    w = t.weight
    return t, t.blocks if t.space == "M" else None, w[0], w[1:], sum(w)


def _scan_targets(rng: random.Random, s) -> list:
    """Labels near s that the symbol check would test as targets: its Pieri
    steps, steps moved in a second place, nearby weights, the source itself,
    labels over another n with the same first-entry step and entry sum, and
    the steps on X."""
    a, mu = s.weight[0], s.weight[1:]
    k = len(mu)
    steps = [(a + da, *(x - da * (j == i) for j, x in enumerate(mu)))
             for i in range(k) for da in (1, -1)]
    weights = [*steps, s.weight]
    for w in rng.sample(steps, min(4, len(steps))):  # a second place moved, the sum kept
        v = list(w)
        i, j = rng.sample(range(1, k + 1), 2) if k >= 2 else (1, 1)
        v[i] += 1
        v[j] -= 1
        weights.append(tuple(v))
    weights += [tuple(x + rng.choice((-1, 0, 0, 1)) for x in s.weight) for _ in range(4)]
    out = []
    for w in weights:
        for make in (m_label, x_label):
            try:
                out.append(make(w))
            except ValueError:  # not dominant on that space
                pass
    for other in {k - 1, k + 1} - {0}:  # one step, sum kept, over another n
        rest = sorted((*mu, 0)[:other])
        rest[-1 if sum(mu) - 1 >= sum(rest) else 0] += sum(mu) - 1 - sum(rest)  # stays dominant
        out.append(m_label((a + 1, *rest)))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("k", range(MAX_N + 2))
def test_the_one_place_kernel_agrees_with_counting_the_differences(k):
    # the pair scan of GL(n) parts of k entries, whose last test is that the
    # parts differ in exactly one place: seeded source and target terms put
    # each pair on the side the Pieri membership oracle puts it, in order,
    # and on the side that counting the differences puts it
    rng = random.Random(700 + k)
    scan = weights._pair_scan(k)
    sides = Counter()
    for _ in range(25 if k else 1):
        if not k:  # no label has an empty GL(n) part: the scan reads tuples alone
            sources = [("s", (1, 0), a, (), a) for a in (-1, 0, 1)]
            targets = [(f"t{a}", (1, 0), a, (), a) for a in (-1, 0, 1)]
        else:
            sources = [_read(m_label((rng.randint(-3, 3), *sorted(rng.randint(-2, 2)
                                                                  for _ in range(k)))))
                       for _ in range(rng.randint(1, 3))]
            targets = [_read(t) for s in sources for t in _scan_targets(rng, s[0])]
        adm, bad, want = [], [], ([], [])
        for source in sources:
            scan(*source, targets, adm, bad)
            s, blocks, a, mu, total = source
            for t, t_blocks, ta, tmu, t_total in targets:
                counted = (abs(ta - a) == 1 and t_total == total and t_blocks == blocks
                           and sum(map(ne, mu, tmu)) == 1)
                assert not k or counted == pieri_admissible(s, t), (s, t)
                want[not counted].append((s, t))
                sides[counted, t_blocks == blocks] += 1
        assert (adm, bad) == want
    if k:  # both verdicts, and targets off M or over another n, were met
        assert sides.keys() == {(True, True), (False, True), (False, False)}, sides
    else:
        assert sides == {(False, True): 9}


def test_the_one_place_kernel_refuses_a_length_over_the_bound():
    with pytest.raises(ArgumentError, match=f"{TOO_LONG}{MAX_N + 2}$"):
        weights._pair_scan(MAX_N + 2)
