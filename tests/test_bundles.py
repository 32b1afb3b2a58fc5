"""Bundle labels, ranks, tensor operations, filtered bundles."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcalc.bundles import (
    MAX_BRANCH_RANK,
    BundleLabel,
    FilteredBundle,
    block_shape,
    branch_to_torus,
    dual,
    exterior_power,
    fiber_label,
    is_line,
    label_from_string,
    m_label,
    pieri_tensor,
    rank,
    tensor_line,
    trivial_label,
    x_label,
    z_label,
)
from flagcalc.bundles import _label_rank, _rank_kernel
from flagcalc.geometry import MAX_N
from flagcalc.notation import ArgumentError

from oracles import block_dominant, block_line, block_slices, count_rank, loop_weyl_rank
from test_weights import TOO_LONG


def test_constructors_enforce_block_monotonicity():
    m_label((1, -1, 0, 0))
    with pytest.raises(ValueError):
        m_label((1, 0, -1, 0))       # second block (0,-1,0) decreases
    z_label((3, 0, 0, -3))
    with pytest.raises(ValueError):
        z_label((0, 1, 0, 0))        # middle block (1,0) decreases
    x_label((0, 3, 0, -3))           # lines: any entries allowed per singleton block


def test_labels_and_filtered_bundles_take_no_block_tuple():
    # blocks come from the space and n alone, so none can be passed in
    with pytest.raises(TypeError):
        BundleLabel("M", (1, 3), (0, 0, 0, 0))
    with pytest.raises(TypeError):
        FilteredBundle("X", (1, 1, 1, 1))
    with pytest.raises(ValueError, match="unknown space tag 'Q'"):
        FilteredBundle("Q", 3)
    assert BundleLabel("M", (0, 0, 0, 0)) == m_label((0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"blocks \(\) do not fit weight \(\)"):
        x_label(())  # no shape has no blocks


def test_the_label_constructor_is_the_input_boundary():
    # a weight that is not a tuple would print, but never hash or equal a label
    for weight in ([0, 1, 2], range(3), (x for x in (0, 1, 2))):
        with pytest.raises(TypeError, match="tuple of ints"):
            BundleLabel("M", weight)
    # the constructors by space read every entry as an integer
    coerced = m_label((0, True, 2))
    assert str(coerced) == "(0||1,2)"
    assert coerced == m_label((0, 1, 2)) == m_label([0, 1, 2])
    assert hash(coerced) == hash(m_label((0, 1, 2)))
    assert all(type(x) is int for x in coerced.weight)
    for make in (m_label, x_label, z_label, fiber_label):
        for weight in (("a", "b", "c"), (0, 1.0, 2), (0, None, 2)):
            with pytest.raises(TypeError):
                make(weight)


@pytest.mark.parametrize("space", ["M", "X", "Z", "fiber"])
def test_label_checks_agree_with_the_per_block_oracles(space):
    # every n the registry builds, and weights of 0 to 2 entries, which fit
    # few shapes or none; a third of the weights are sorted inside each
    # block and a third made constant there, so every outcome is drawn
    rng = random.Random(1201)
    outcomes = set()
    for n in (-1, 0, 1, *range(2, MAX_N + 1)):
        blocks = block_shape(space, n)
        for _ in range(30):
            w = tuple(rng.randint(-1, 1) for _ in range(n + 1))
            parts, kind = block_slices(space, w), rng.randrange(3)
            if parts is not None and kind:
                w = tuple(x for part in parts
                          for x in (sorted(part) if kind == 1 else part[:1] * len(part)))
            if parts is None:
                message = f"blocks {blocks} do not fit weight {w}"
            elif not block_dominant(space, w):
                message = f"entries must be nondecreasing within each block: {w} with blocks {blocks}"
            else:
                label = BundleLabel(space, w)
                assert label.blocks == blocks
                assert is_line(label) == block_line(label), label
                assert rank(label) == prod(map(count_rank, block_slices(space, w))), label
                outcomes.add("line" if is_line(label) else "not a line")
                continue
            with pytest.raises(ValueError) as err:
                BundleLabel(space, w)
            assert str(err.value) == message
            outcomes.add(message.split()[0])
    assert outcomes == {"line", "not a line", "entries", "blocks"}


def test_label_strings_round_trip():
    for text, space in [
        ("(1||-1,0,0)", "M"),
        ("(0||3|0|-3)", "X"),
        ("(3|0,0|-3)", "Z"),
        ("(0,0,2)", "fiber"),
    ]:
        lab = label_from_string(text, space)
        assert str(lab) == text
        assert label_from_string(str(lab), space) == lab


def test_label_space_mismatch_rejected():
    with pytest.raises(ValueError):
        label_from_string("(1||-1,0,0)", "Z")
    with pytest.raises(ValueError):
        label_from_string("(3|0,0|-3)", "M")


@pytest.mark.parametrize(
    "text, space, expected",
    [
        ("(0||0,0,0)", "M", 1),
        ("(1||-1,0,0)", "M", 3),
        ("(0||-1,0,1)", "M", 8),
        ("(1||-1,-1,1)", "M", 6),
        ("(-2||0,1,1)", "M", 3),
        ("(0,0,2)", "fiber", 6),
        ("(0||3|0|-3)", "X", 1),
        ("(3|0,0|-3)", "Z", 1),
        ("(0|-1,1|0)", "Z", 3),
    ],
)
def test_rank_worked_values(text, space, expected):
    assert rank(label_from_string(text, space)) == expected


def test_form_bundle_ranks_sum_to_binomial_products():
    # All (p,q)-form constituents together must have rank C(n,p)*C(n,q).
    from math import comb

    from flagcalc.transform import form_dictionary

    for n in range(2, 7):
        full, perp = form_dictionary(n)
        for (p, q), labs in full.items():
            assert sum(rank(b) for b in labs) == comb(n, p) * comb(n, q)
        for (p, q), labs in perp.items():
            # Lefschetz: perp omits a copy of the (p-1,q-1) forms wedged with
            # kappa up to the middle degree, of the (p+1,q+1) forms past it
            s = -1 if p + q <= n else 1
            cut = comb(n, p + s) * comb(n, q + s)
            assert sum(rank(b) for b in labs) + cut == comb(n, p) * comb(n, q)


def test_duality_is_an_involution_and_preserves_rank():
    for text, space in [
        ("(1||-1,0,0)", "M"),
        ("(3|0,0|-3)", "Z"),
        ("(0,1,1)", "fiber"),
    ]:
        lab = label_from_string(text, space)
        assert dual(dual(lab)) == lab
        assert rank(dual(lab)) == rank(lab)


def test_dual_reverses_and_negates_per_block():
    lab = z_label((3, 0, 0, -3))
    assert dual(lab).weight == (-3, 0, 0, 3)
    lab = m_label((1, -1, 0, 0))
    assert dual(lab).weight == (-1, 0, 0, 1)


def test_line_detection_and_line_tensor():
    line = m_label((2, 1, 1, 1))
    assert is_line(line)
    assert not is_line(m_label((0, -1, 0, 1)))
    out = tensor_line(m_label((0, -1, 0, 1)), line)
    assert out == m_label((2, 0, 1, 2))
    with pytest.raises(ValueError):
        tensor_line(m_label((0, -1, 0, 1)), m_label((0, -1, 0, 1)))


def test_pieri_with_cotangent_generators():
    assert [str(t) for t in pieri_tensor(trivial_label("M", 3))] == [
        "(-1||0,0,1)",
        "(1||-1,0,0)",
    ]
    # A highest weight at the dominance wall loses the blocked directions.
    assert [str(t) for t in pieri_tensor(m_label((-2, 1, 1, 1)))] == [
        "(-3||1,1,2)",
        "(-1||0,1,1)",
    ]


@given(
    st.integers(-5, 5),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4).map(sorted),
)
def test_pieri_conserves_rank(a, mu):
    lab = m_label((a, *mu))
    n = len(mu)
    assert sum(rank(t) for t in pieri_tensor(lab)) == 2 * n * rank(lab)


def test_branching_to_torus_weights():
    weights = branch_to_torus((0, 0, 2))
    assert sum(weights.values()) == 6
    assert weights == {
        (0, 0, 2): 1, (0, 1, 1): 1, (0, 2, 0): 1,
        (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 0): 1,
    }
    assert branch_to_torus((0, 1)) == {(0, 1): 1, (1, 0): 1}
    # the weight multiset is symmetric under entry permutation
    big = branch_to_torus((-1, 0, 1))
    assert all(big[tuple(reversed(w))] == m for w, m in big.items())


def test_branching_refuses_weights_over_the_rank_cap():
    # the cap sits above every GL(4) weight with entries in [-3, 3], which
    # the property tests branch, and far above the corpus's rank 3
    assert max(rank(fiber_label(mu))
               for mu in combinations_with_replacement(range(-3, 4), 4)) < MAX_BRANCH_RANK
    # 401^3 Gelfand-Tsetlin patterns: refused before any is enumerated
    with pytest.raises(ValueError, match=r"rank 64481201, over the \d+ torus weights"):
        branch_to_torus((-400, 0, 400))


def _fraction_weyl(mu):
    dim = Fraction(1)
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            dim *= Fraction(mu[j] - mu[i] + j - i, j - i)
    return dim


def test_integer_weyl_rank_matches_the_rational_product():
    # every weight, dominant or not: the same value or the same refusal
    for m in (1, 2, 3, 4):
        for mu in product(range(-2, 3), repeat=m):
            dim = _fraction_weyl(mu)
            if dim > 0 and dim.denominator == 1:
                assert _rank_kernel((m,))(mu) == dim, mu
            else:
                with pytest.raises(ValueError, match=f"no GL\\({m}\\) irreducible"):
                    _rank_kernel((m,))(mu)


@pytest.mark.parametrize("m", range(MAX_N + 2))
def test_each_length_weyl_kernel_matches_the_loop(m):
    # dominant weights, and unsorted ones that the loop mostly refuses:
    # the same int or the same refusal, message and all
    rng = random.Random(m)
    outcomes = set()
    for t in range(200):
        mu = [rng.choice((rng.randint(-6, 6), rng.randint(-10**15, 10**15))) for _ in range(m)]
        mu = tuple(sorted(mu) if t % 2 else mu)
        try:
            want = loop_weyl_rank(mu)
        except ValueError as refusal:
            with pytest.raises(ValueError) as got:
                _rank_kernel((m,))(mu)
            assert type(got.value) is ValueError and str(got.value) == str(refusal)
            outcomes.add("refused")
        else:
            got = _rank_kernel((m,))(mu)
            assert type(got) is int and got == want, mu
            outcomes.add("rank")
    assert outcomes == ({"rank", "refused"} if m >= 2 else {"rank"})


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_a_label_rank_is_the_product_of_the_loop_over_its_blocks(n):
    # one compiled kernel per block shape, against the old loop on each
    # block's slice: seeded labels on every space, entries up to +-10^15
    rng = random.Random(n)
    for space in ("M", "X", "Z", "fiber"):
        for _ in range(40):
            entries = [rng.choice((rng.randint(-6, 6), rng.randint(-10**15, 10**15)))
                       for _ in range(n + 1)]
            weight = tuple(x for part in block_slices(space, tuple(entries))
                           for x in sorted(part))  # dominant inside every block
            lab = BundleLabel(space, weight)
            want = prod(loop_weyl_rank(part) for part in block_slices(space, weight))
            assert rank(lab) == _label_rank(lab) == want, lab
            assert type(rank(lab)) is int


def test_a_weyl_rank_over_the_bound_is_refused():
    assert _rank_kernel((MAX_N + 1,))((0,) * (MAX_N + 1)) == 1
    for m in (MAX_N + 2, MAX_N + 3):
        with pytest.raises(ArgumentError, match=f"{TOO_LONG}{m}$"):
            _rank_kernel((m,))((0,) * m)


def test_filtered_bundle_edges_and_display():
    a, b, c = (x_label(w) for w in [(-1, 0, 0, 1), (-1, 0, 1, 0), (1, -1, 0, 0)])
    fb = FilteredBundle("X", 3, (a, b, c), (0, 0, 1), (0, 1, 0))
    assert fb.edges() == ("+", "(+)")
    assert str(fb) == "(-1||0|0|1) + (-1||0|1|0) (+) (1||-1|0|0)"
    assert len(fb) == 3
    assert rank(fb) == 3


def test_filtered_bundle_validates_component_shape():
    a, b = x_label((0, 1, 0, 0)), x_label((0, 0, 1, 0))
    with pytest.raises(ValueError):
        FilteredBundle("X", 3, (a, b), (1, 0), (0, 0))  # not nondecreasing
    for components in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (2, 1, 1, 3)):
        with pytest.raises(ValueError) as err:
            FilteredBundle("X", 3, (a,) * 4, components, (0, 0, 0, 0))
        assert type(err.value) is ValueError
        assert str(err.value) == "components must be listed contiguously"
    for components in ((0, 0, 0, 0), (0, 0, 1, 1), (-1, 0, 2, 2)):
        assert FilteredBundle("X", 3, (a,) * 4, components, (0, 0, 0, 0)).components == components
    with pytest.raises(ValueError, match="differ in length"):
        FilteredBundle("X", 3, (a, b), (0,), (0, 0))
    # sparse numbering is tolerated: only adjacency of equal ids matters
    sparse = FilteredBundle("X", 3, (a, b), (0, 2), (0, 0))
    assert sparse.edges() == ("(+)",)


def test_twist_by_shifts_every_factor():
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    tw = x_label((0, 1, 0, 0))
    out = lam.twist_by(tw)
    assert [f.weight for f in out.factors] == [
        tuple(a + b for a, b in zip(f.weight, tw.weight)) for f in lam.factors
    ]
    assert out.components == lam.components and out.levels == lam.levels


def test_twist_by_refuses_what_tensor_line_refuses():
    from flagcalc.geometry import registry, relative_cotangent

    lam2, lam3, lam4 = (relative_cotangent(registry(n)["mu"]) for n in (2, 3, 4))
    nonline = x_label((0, 0, 0, 1, 0))  # rank 2 on the GL(2) block of X at n = 4
    line = x_label((1, 1, 2, 2, 3))
    # only a line on the bundle's own space and n twists it, whatever the factors
    refusals = [
        (FilteredBundle("X", 4, (nonline,), (0,), (0,)), nonline,
         "twist_by needs a line bundle on X over n=4, got <X (0||0|0,1|0)>"),
        (lam4, nonline, "twist_by needs a line bundle on X over n=4, got <X (0||0|0,1|0)>"),
        (FilteredBundle("X", 4, (line,), (0,), (0,)), nonline,
         "twist_by needs a line bundle on X over n=4, got <X (0||0|0,1|0)>"),
        (lam3, z_label((1, 0, 0, 0)),
         "twist_by needs a line bundle on X over n=3, got <Z (1|0,0|0)>"),
        (lam3, m_label((1, 0, 0, 0)),
         "twist_by needs a line bundle on X over n=3, got <M (1||0,0,0)>"),
        (lam3, x_label((1, 0, 0)),
         "twist_by needs a line bundle on X over n=3, got <X (1||0|0)>"),
        (lam4, z_label((0, 0, 0, 0, 0)),
         "twist_by needs a line bundle on X over n=4, got <Z (0|0,0,0|0)>"),
        (lam4, x_label((1, 1, 1, 1)),  # a line on X over another n
         "twist_by needs a line bundle on X over n=4, got <X (1||1|1|1)>"),
        (lam3, trivial_label("X", 4),
         "twist_by needs a line bundle on X over n=3, got <X (0||0|0,0|0)>"),
        (lam2, trivial_label("X", 3),
         "twist_by needs a line bundle on X over n=2, got <X (0||0|0|0)>"),
        (FilteredBundle("X", 3), z_label((1, 0, 0, 0)),  # nothing to tensor, still refused
         "twist_by needs a line bundle on X over n=3, got <Z (1|0,0|0)>"),
        (lam4, (1, 1, 1, 1, 1),  # a line's weight is not its label
         "twist_by needs a line bundle on X over n=4, got (1, 1, 1, 1, 1)"),
    ]
    for bundle, twist, message in refusals:
        # the constructor is the one check: twist_by of an untwisted bundle goes
        # through it, and twist_by of a twisted one checks the new line there
        # before composing it with the old
        entry_points = (
            lambda line: FilteredBundle(bundle.space, bundle.n, bundle.untwisted,
                                        bundle.components, bundle.levels, line=line),
            bundle.twist_by,
            bundle.twist_by(trivial_label("X", bundle.n)).twist_by,
        )
        for enter in entry_points:
            with pytest.raises(ValueError) as err:
                enter(twist)
            assert type(err.value) is ValueError and str(err.value) == message
    # a line shifts any factor
    shifted = FilteredBundle("X", 4, (x_label((1, 1, 2, 3, 3)),), (0,), (0,))
    assert FilteredBundle("X", 4, (nonline,), (0,), (0,)).twist_by(line) == shifted
    assert FilteredBundle("X", 3).twist_by(x_label((1, 0, 0, 0))) == FilteredBundle("X", 3)


def test_a_twisted_bundle_equals_and_hashes_like_its_explicit_factors():
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    line, other = x_label((1, -1, 2, 0)), x_label((0, 0, 0, 1))
    for p in range(len(lam) + 1):
        wedge = exterior_power(lam, p)
        twisted = wedge.twist_by(line)
        explicit = FilteredBundle(wedge.space, wedge.n,
                                  tuple(tensor_line(f, line) for f in wedge.factors),
                                  wedge.components, wedge.levels)
        assert (twisted.untwisted, twisted.line) == (wedge.untwisted, line)
        assert twisted == explicit and explicit == twisted and hash(twisted) == hash(explicit)
        assert twisted.factors == explicit.factors and str(twisted) == str(explicit)
        assert (len(twisted), rank(twisted), twisted.edges()) == \
            (len(explicit), rank(explicit), explicit.edges())
        assert twisted != wedge and twisted != wedge.twist_by(other)
        assert wedge.twist_by(trivial_label("X", 3)) == wedge  # a trivial line is no line
    # a wedge of a twisted bundle reads its twisted factors: Λᵖ(E ⊗ L) = ΛᵖE ⊗ Lᵖ
    for p in range(len(lam) + 1):
        power = x_label(tuple(p * x for x in line.weight))
        assert exterior_power(lam.twist_by(line), p) == exterior_power(lam, p).twist_by(power)


def test_twist_by_twice_composes():
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    a, b = x_label((1, 0, 0, -1)), x_label((0, 2, -1, 3))
    twice = lam.twist_by(a).twist_by(b)
    assert twice.line == tensor_line(a, b) and twice.untwisted == lam.untwisted
    assert twice == lam.twist_by(tensor_line(a, b)) == lam.twist_by(b).twist_by(a)
    assert twice.factors == tuple(tensor_line(tensor_line(f, a), b) for f in lam.factors)
    assert twice.twist_by(dual(a)).twist_by(dual(b)) == lam


def test_a_shift_that_is_not_a_line_is_refused():
    # the constructor takes the line as a label on the bundle's space and n;
    # a weight, as a list or a tuple, is refused like any label that is not one
    a = x_label((0, 1, 0, 0))
    for line in ([0, 0, 0, 0], (0, 0, 0, 0), x_label((0, 0, 0)), x_label((0, 0, 0, 0, 0))):
        with pytest.raises(ValueError) as err:
            FilteredBundle("X", 3, (a,), (0,), (0,), line)
        assert str(err.value) == f"twist_by needs a line bundle on X over n=3, got {line!r}"
    # X's third block holds two entries at n = 4, and a line is constant on it
    b = x_label((0, 1, 0, 2, 0))
    assert FilteredBundle("X", 4, (b,), (0,), (0,), x_label((1, 1, 2, 2, 3))).factors == \
        (x_label((1, 2, 2, 4, 3)),)
    with pytest.raises(ValueError, match=r"over n=4, got <X \(0\|\|0\|0,1\|0\)>$"):
        FilteredBundle("X", 4, (b,), (0,), (0,), x_label((0, 0, 0, 1, 0)))
    with pytest.raises(ValueError, match=r"^no label lives on Z over n=1: blocks \(1, 0, 1\)$"):
        FilteredBundle("Z", 1, (), (), (), (0, 0))  # no label has Z's blocks: refused before the line
    with pytest.raises(ValueError, match="does not live on X over n=3"):  # factors first
        FilteredBundle("X", 3, (b,), (0,), (0,), x_label((0, 0, 0, 0)))


def test_twist_by_of_an_untwisted_wedge_tests_one_line(monkeypatch):
    from flagcalc import bundles
    from flagcalc.geometry import registry, relative_cotangent

    wedges = [exterior_power(relative_cotangent(registry(3)[leg]), p)
              for leg in ("mu", "nu") for p in range(4)]
    wedges.append(relative_cotangent(registry(4)["mu"]))  # factors that are not lines
    tested = []
    real = bundles.is_line
    monkeypatch.setattr(bundles, "is_line", lambda b: tested.append(b) or real(b))
    for wedge in wedges:
        line = x_label((1, -1, 2, 0)) if wedge.n == 3 else x_label((0, 1, 2, 2, -1))
        tested.clear()
        wedge.twist_by(line)
        assert tested == [line], wedge


def test_a_filtered_bundle_refuses_a_list_field():
    # a list would print, but the bundle could never hash, so no memo could take it
    fields = {"untwisted": (x_label((0, 1, 0, 0)),), "components": (0,), "levels": (0,)}
    for name, value in fields.items():
        with pytest.raises(TypeError) as err:
            FilteredBundle("X", 3, **dict(fields, **{name: list(value)}))
        assert str(err.value) == f"a filtered bundle's {name} is a tuple, got {list(value)!r}"
    assert hash(FilteredBundle("X", 3, **fields)) == hash(("X", 3, (0,), (0,)))


@pytest.mark.parametrize("space, n, blocks", [("X", -1, "()"), ("M", 0, "(1, 0)"),
                                               ("Z", 1, "(1, 0, 1)"), ("fiber", -1, "(0,)")])
def test_a_filtered_bundle_over_an_n_with_no_label_is_refused(space, n, blocks):
    # with no factor to refuse, the shape itself must: no label fits these blocks
    with pytest.raises(ValueError) as err:
        FilteredBundle(space, n)
    assert type(err.value) is ValueError
    assert str(err.value) == f"no label lives on {space} over n={n}: blocks {blocks}"


@pytest.mark.parametrize("p, count", [(0, 1), (1, 4), (2, 6), (3, 4), (4, 1)])
def test_exterior_power_sizes(p, count):
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    assert len(exterior_power(lam, p)) == count


def test_exterior_power_extremes():
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    assert len(exterior_power(lam, 5)) == 0      # beyond the top degree: zero
    assert rank(exterior_power(lam, 0)) == 1     # bottom degree: the trivial line
    with pytest.raises(ValueError):
        exterior_power(lam, -1)


def test_exterior_power_of_an_equal_bundle_is_equal():
    from flagcalc.geometry import registry, relative_cotangent

    lam = relative_cotangent(registry(3)["mu"])
    copy = FilteredBundle(lam.space, lam.n, tuple(x_label(f.weight) for f in lam.factors),
                          lam.components, lam.levels)
    assert copy == lam and copy is not lam
    for p in range(len(lam) + 1):
        assert exterior_power(copy, p) == exterior_power(lam, p)
    assert exterior_power(lam, 2) is exterior_power(lam, 2)


def test_a_memo_hit_on_a_wedge_hashes_no_label(monkeypatch):
    # a filtered bundle hashes by its filtration, which equal bundles share,
    # so a warm exterior_power call never hashes a factor label
    from flagcalc.geometry import registry, relative_cotangent

    lams = [relative_cotangent(registry(n)["mu"]) for n in (2, 3)]
    warm = [exterior_power(lam, p) for lam in lams for p in range(len(lam) + 1)]
    hashed = []
    label_hash = BundleLabel.__hash__
    monkeypatch.setattr(BundleLabel, "__hash__",
                        lambda label: hashed.append(label) or label_hash(label))
    assert [exterior_power(lam, p) for lam in lams for p in range(len(lam) + 1)] == warm
    assert hashed == []
    hash(lams[0].factors[0])  # the count sees a label's hash
    assert hashed == [lams[0].factors[0]]
