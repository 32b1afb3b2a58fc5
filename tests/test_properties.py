"""Structural invariants checked over randomized inputs."""

from math import comb

from hypothesis import given
from hypothesis import strategies as st

from flagcalc.bbw import direct_images
from flagcalc.bundles import (
    BundleLabel,
    branch_to_torus,
    dual,
    exterior_power,
    pieri_tensor,
    rank,
    z_label,
)
from flagcalc.geometry import pullback_line, registry, relative_cotangent
from flagcalc.notation import format_entries, parse_label
from flagcalc.weights import bbw_reduce

from oracles import brute_reduce, count_rank

small_entries = st.integers(min_value=-5, max_value=5)


@given(st.lists(small_entries, min_size=1, max_size=5).map(tuple))
def test_reduction_agrees_with_permutation_search(w):
    got = bbw_reduce(w)
    want = brute_reduce(w)
    if want is None:
        assert not got
    else:
        assert got == want


@given(st.lists(small_entries, min_size=1, max_size=5).map(tuple))
def test_reduction_lands_dominant_within_the_degree_bound(w):
    got = bbw_reduce(w)
    if got:
        q, dom = got
        assert list(dom) == sorted(dom)
        assert 0 <= q <= comb(len(w), 2)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4))
def test_rank_agrees_with_pattern_enumeration(entries):
    mu = tuple(sorted(entries))
    label = BundleLabel("fiber", mu)
    assert rank(label) == count_rank(mu)


def dominant_m_labels(max_abs=4):
    def build(draw_entries):
        a, rest = draw_entries
        return BundleLabel("M", (a, *sorted(rest)))
    return st.tuples(
        st.integers(min_value=-max_abs, max_value=max_abs),
        st.lists(st.integers(min_value=-max_abs, max_value=max_abs),
                 min_size=3, max_size=3),
    ).map(build)


@given(dominant_m_labels())
def test_dual_is_an_involution(b):
    assert dual(dual(b)) == b
    assert rank(dual(b)) == rank(b)


@given(dominant_m_labels())
def test_labels_round_trip_through_their_display_form(b):
    text = str(b)
    parsed = parse_label(text)
    assert parsed.weight == b.weight
    assert parsed.blocks == b.blocks
    assert format_entries(parsed.weight, parsed.blocks, parsed.double_bar) == text


@given(dominant_m_labels(max_abs=3))
def test_pieri_conserves_total_rank(b):
    # tensoring with the rank-2n sum of both cotangent directions
    terms = pieri_tensor(b)
    assert sum(rank(t) for t in terms) == 6 * rank(b)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=4))
def test_branching_multiplicities_account_for_the_full_rank(entries):
    mu = tuple(sorted(entries))
    label = BundleLabel("fiber", mu)
    assert sum(branch_to_torus(mu).values()) == rank(label)


@given(st.integers(min_value=0, max_value=4))
def test_wedge_sizes_are_binomial(p):
    lam = relative_cotangent(registry(3)["mu"])
    assert len(exterior_power(lam, p)) == comb(4, p)


# a Z-twist is a line bundle only when the middle block is constant
twists = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
).map(lambda w: (w[0], w[1], w[1], w[2]))


@given(twists, st.integers(min_value=0, max_value=4))
def test_cancellation_is_euler_neutral(twist, p):
    # paper-mode removals happen in (q, q+1) pairs of equal rank, so the
    # alternating sum per column never moves; cells only ever disappear
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    fb = exterior_power(lam, p).twist_by(pullback_line(z_label(twist)))
    loud = direct_images(fb, reg["nu"], mode="conservative", p=p)
    quiet = direct_images(fb, reg["nu"], mode="paper", p=p)
    assert quiet.euler_rank(p) == loud.euler_rank(p)
    assert set(quiet.cells) <= set(loud.cells)
    for pq, labs in quiet.cells.items():
        assert set(labs) <= set(loud.cells[pq])
    assert len(quiet.log) == len(loud.log)
    assert not any(rec.applied for rec in loud.log)


@given(twists)
def test_pullback_of_a_twist_restricts_trivially_to_rank(twist):
    line = pullback_line(z_label(twist))
    assert rank(line) == 1
    assert line.weight == (twist[1], twist[0], twist[2], twist[3])
