"""Weight arithmetic: dominance and reduction."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc.weights import bbw_reduce, is_dominant


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
