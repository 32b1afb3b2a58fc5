"""Direct images along the M-leg: fiberwise reduction, cancellation, merging."""

from itertools import product

import pytest

from flagcalc.bbw import MODES, DirectImageTable, direct_images, global_cohomology
from flagcalc.bundles import (
    BundleLabel,
    FilteredBundle,
    exterior_power,
    label_from_string,
    rank,
    x_label,
    z_label,
)
from flagcalc.geometry import pullback_line, registry, relative_cotangent, twist_frames
from flagcalc.notation import ArgumentError

from oracles import block_slices, brute_reduce, direct_image_column, euler_rank, simple_root_step
from oracles import merge as generator_merge
from oracles import twist_by as explicit_twist
from test_transform import TWIST_BOXES


@pytest.fixture(scope="module")
def setup():
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    return reg, lam


def _one_factor_image(factor, fib):
    """The column of a one-factor bundle, read back as None or (q, label)."""
    table = direct_images(FilteredBundle(factor.space, factor.n, (factor,), (0,), (0,)), fib)
    assert table.log == ()
    if not table.cells:
        return None
    ((p, q), labels), = table.cells.items()
    assert p == 0 and len(labels) == 1
    return q, labels[0]


@pytest.mark.parametrize(
    "factor, expected",
    [
        ("(0||-1|0|1)", (0, "(0||-1,0,1)")),
        ("(0||0|0|0)", (0, "(0||0,0,0)")),
        ("(1||1|-1|0)", (1, "(1||0,0,0)")),
        ("(3||0|0|-3)", (2, "(3||-1,-1,-1)")),
        ("(0||0|-1|1)", None),     # rho-shift collides: no cohomology at all
        ("(0||-1|1|0)", None),
        ("(1||0|-1|1)", None),
        ("(-1||0|1|0)", None),
    ],
)
def test_single_factor_images(setup, factor, expected):
    reg, _ = setup
    got = _one_factor_image(label_from_string(factor, "X"), reg["nu"])
    if expected is None:
        assert got is None
    else:
        q, label = got
        assert (q, str(label)) == expected


def test_one_factor_column_first_entry_is_a_spectator(setup):
    # shifting the spectator entry shifts the image label, never the degree
    reg, _ = setup
    q0, lab0 = _one_factor_image(x_label((0, 0, 0, -3)), reg["nu"])
    q7, lab7 = _one_factor_image(x_label((7, 0, 0, -3)), reg["nu"])
    assert q0 == q7 == 2
    assert lab0.weight[1:] == lab7.weight[1:]
    assert (lab0.weight[0], lab7.weight[0]) == (0, 7)


def test_one_factor_column_rejects_wrong_inputs(setup):
    reg, _ = setup
    with pytest.raises(ValueError, match="correspondence space"):
        _one_factor_image(label_from_string("(1||0,0,0)", "M"), reg["nu"])
    with pytest.raises(ValueError, match="M-leg"):
        _one_factor_image(x_label((0, 0, 0, 0)), reg["mu"])  # wrong leg
    big = registry(4)
    with pytest.raises(ValueError, match="not a line bundle"):
        _one_factor_image(label_from_string("(0||0|0,1|0)", "X"), big["nu"])  # rank 2


def test_a_refused_factor_is_named_as_twisted():
    # the n = 4 column p = 1 of mu holds a rank-2 factor; the refusal names it
    # tensored with the line, as `flagcalc direct-images -n 4 -p 1` prints it
    big = registry(4)
    lam = relative_cotangent(big["mu"])
    twist_x = pullback_line(z_label((1, 0, 0, 0, -1)))
    for bundle, name in [(lam, "(-1||0|0,1|0)"), (lam.twist_by(twist_x), "(-1||1|0,1|-1)")]:
        with pytest.raises(ValueError) as err:
            direct_images(bundle, big["nu"], "paper", 1)
        assert str(err.value) == f"not a line bundle along the fibers: {name}"


UNTWISTED_COLUMNS = {
    0: {(0, 0): ["(0||0,0,0)"]},
    1: {(1, 0): ["(-1||0,0,1)", "(1||-1,0,0)"]},
    2: {(2, 0): ["(-2||0,1,1)", "(0||-1,0,1)", "(0||0,0,0)", "(2||-1,-1,0)"]},
    3: {(3, 0): ["(-1||-1,1,1)", "(-1||0,0,1)", "(1||-1,-1,1)", "(1||-1,0,0)"]},
    4: {(4, 0): ["(0||-1,0,1)"]},
}


@pytest.mark.parametrize("p", sorted(UNTWISTED_COLUMNS))
def test_untwisted_columns_concentrate_in_degree_zero(setup, p):
    reg, lam = setup
    table = direct_images(exterior_power(lam, p), reg["nu"], mode="paper", p=p)
    got = {pq: [str(b) for b in labs] for pq, labs in table.cells.items()}
    assert got == UNTWISTED_COLUMNS[p]
    assert {q for _p, q in table.cells} == {0}
    assert not table.log


def test_hyperplane_column_p1_cancels_completely(setup):
    reg, lam = setup
    twisted = exterior_power(lam, 1).twist_by(x_label((0, 1, 0, 0)))

    loud = direct_images(twisted, reg["nu"], mode="conservative", p=1)
    assert {pq: [str(b) for b in labs] for pq, labs in loud.cells.items()} == {
        (1, 0): ["(1||0,0,0)"],
        (1, 1): ["(1||0,0,0)"],
    }
    assert len(loud.log) == 1 and not loud.log[0].applied

    quiet = direct_images(twisted, reg["nu"], mode="paper", p=1)
    assert quiet.cells == {}
    assert len(quiet.log) == 1 and quiet.log[0].applied
    rec = quiet.log[0]
    assert str(rec.base_label) == "(1||0,0,0)"
    assert (str(rec.quotient), str(rec.sub)) == ("(1||0|0|0)", "(1||1|-1|0)")


def test_hyperplane_column_p2_keeps_the_uncancelled_factor(setup):
    reg, lam = setup
    twisted = exterior_power(lam, 2).twist_by(x_label((0, 1, 0, 0)))
    quiet = direct_images(twisted, reg["nu"], mode="paper", p=2)
    assert {pq: [str(b) for b in labs] for pq, labs in quiet.cells.items()} == {
        (2, 0): ["(-2||1,1,1)"]
    }
    assert sum(rec.applied for rec in quiet.log) == 1


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("twist", [None, (0, 1, 0, 0)])
def test_euler_characteristic_survives_cancellation(setup, p, twist):
    # removing a (q, q+1) pair with equal labels is Euler-neutral, so the
    # alternating rank sum of each column must agree across modes
    reg, lam = setup
    fb = exterior_power(lam, p)
    if twist is not None:
        fb = fb.twist_by(x_label(twist))
    loud = direct_images(fb, reg["nu"], mode="conservative", p=p)
    quiet = direct_images(fb, reg["nu"], mode="paper", p=p)
    assert euler_rank(loud, p) == euler_rank(quiet, p)
    # paper mode never invents cells, it only removes them
    assert set(quiet.cells) <= set(loud.cells)


def test_direct_images_rejects_unknown_mode(setup):
    reg, lam = setup
    with pytest.raises(ValueError):
        direct_images(exterior_power(lam, 1), reg["nu"], mode="optimistic", p=1)


def test_merge_keeps_columns_apart(setup):
    reg, lam = setup
    cols = [
        direct_images(exterior_power(lam, p), reg["nu"], mode="paper", p=p)
        for p in range(5)
    ]
    merged = DirectImageTable.merge(cols)
    assert set(merged.cells) == {(p, 0) for p in range(5)}
    assert merged.mode == "paper"
    with pytest.raises(ValueError, match=r"duplicate cells \[\(1, 0\)\]$"):
        DirectImageTable.merge([cols[0], cols[1], cols[1]])  # duplicate cells
    loud = direct_images(exterior_power(lam, 2), reg["nu"], mode="conservative", p=2)
    with pytest.raises(ValueError, match="modes"):
        DirectImageTable.merge([cols[1], loud])  # mixed modes


@pytest.mark.parametrize(
    "weight, space, expected",
    [
        ((3, 0, 0, -3), "Z", {5: 1}),
        ((2, -1, -1, -1), "Z", {}),
        ((1, 0, 0, 0), "Z", {}),
        ((0, 0, 0, 0), "Z", {0: 1}),
        ((0, 1, 0, 0), "X", {}),
    ],
)
def test_global_cohomology_worked_values(weight, space, expected):
    label = z_label(weight) if space == "Z" else x_label(weight)
    result = global_cohomology(label)
    assert ({} if result is None else {result[0]: rank(result[1])}) == expected


def test_global_cohomology_frame_swap_matches_the_pullback():
    # an X-label and the Z-label it pulls back agree degree by degree
    for w in [(1, 0, 0, 0), (3, 0, 0, -3), (0, 0, 0, 0), (-1, 1, 1, 2)]:
        on_z = global_cohomology(z_label(w))
        on_x = global_cohomology(pullback_line(z_label(w)))
        assert on_z == on_x


def test_global_cohomology_rejects_wrong_inputs():
    with pytest.raises(ArgumentError):
        global_cohomology(label_from_string("(1||0,0,0)", "M"))
    with pytest.raises(ArgumentError):
        global_cohomology(z_label((0, -1, 1, 0)))  # rank 3, not a line


@pytest.mark.parametrize("n", [2, 3])
def test_an_x_line_has_cohomology_only_as_the_pullback_of_a_z_line(n):
    # H(X, mu^-1 L) = H(Z, L), mu's fibers being contractible: every X-line
    # with entries in [-2, 2] whose sigma-swapped weight is constant on each
    # of Z's blocks is answered as that Z-line, whose pullback it is, and every
    # other one is refused.  The expected side reads the raw weight,
    # block_slices and brute_reduce only.
    answered = refused = 0
    for w in product(range(-2, 3), repeat=n + 1):
        x, swapped = x_label(w), (w[1], w[0], *w[2:])
        if all(len(set(part)) == 1 for part in block_slices("Z", swapped)):
            got, on_z = global_cohomology(x), z_label(swapped)
            assert (None if got is None else (got[0], got[1].weight)) == brute_reduce(swapped), w
            assert got == global_cohomology(on_z), w
            assert twist_frames(x, n) == (on_z, x) and pullback_line(on_z) == x, w
            answered += 1
        else:
            with pytest.raises(ArgumentError) as err:
                global_cohomology(x)
            assert str(err.value) == f"{x} is not pulled back from a line bundle on Z", w
            assert twist_frames(x, n) == (None, x), w
            refused += 1
    assert (answered, refused) == {2: (125, 0), 3: (125, 500)}[n]


@pytest.mark.parametrize("bundle_n, leg_n", [(3, 2), (2, 3)])
def test_direct_images_refuses_a_leg_over_another_n(bundle_n, leg_n):
    # the fiber entries are read off the leg, so a leg over another n would
    # cut the weights short or run past them and name labels over the wrong n
    for p in range(3):
        bundle = exterior_power(relative_cotangent(registry(bundle_n)["mu"]), p)
        with pytest.raises(ArgumentError) as err:
            direct_images(bundle, registry(leg_n)["nu"], p=p)
        assert type(err.value) is ArgumentError
        assert str(err.value) == f"the leg nu is over n={leg_n}, the bundle over n={bundle_n}"


def test_the_column_and_merge_refusals_keep_their_text(setup):
    # direct_images reads the leg inline and merge gathers in one pass; each
    # refusal keeps its class and its full text (the leg over another n is
    # pinned in full by test_direct_images_refuses_a_leg_over_another_n)
    reg, lam = setup
    refusals = [
        (lambda: direct_images(lam, reg["mu"]), ValueError,
         "direct images are computed along the M-leg, not mu"),
        (lambda: direct_images(lam, registry(2)["mu"]), ValueError,  # the leg's base first
         "direct images are computed along the M-leg, not mu"),
        (lambda: DirectImageTable.merge([]), ValueError, "cannot merge tables from modes []"),
    ]
    for call, kind, message in refusals:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is kind and str(err.value) == message


@pytest.mark.parametrize("n", [2, 3])
def test_the_one_pass_merge_matches_the_generator_merge_on_the_boxes(n):
    # every page of the benchmark's boxes in both modes merges to the same
    # cells in the same order, the same mode and the same log in the same
    # order as the old merge, and a duplicate or mixed-mode merge is refused
    # by both alike
    reg = registry(n)
    lam = relative_cotangent(reg["mu"])
    wedges = [(p, exterior_power(lam, p)) for p in range(len(lam) + 1)]
    pages = spread = 0  # spread: pages whose log comes from two columns or more
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        pair = []
        for mode in MODES:
            cols = [direct_images(wedge.twist_by(twist_x), reg["nu"], mode, p)
                    for p, wedge in wedges]
            merged, old = DirectImageTable.merge(cols), generator_merge(cols)
            assert list(merged.cells.items()) == list(old.cells.items()), (w, mode)
            assert (merged.mode, merged.log) == (old.mode, old.log), (w, mode)
            assert merged == old and type(merged.cells) is type(old.cells)
            pages += 1
            spread += len({r.p for r in merged.log}) > 1
            pair.append(cols)
        (paper, loud), full = pair, [t for t in pair[0] if t.cells][-1:]
        for tables in ([*paper, *full], [*full, paper[0], loud[1]], [paper[0], paper[0], loud[1]]):
            if tables == paper:  # no column has a cell to repeat
                continue
            with pytest.raises(ValueError) as new_err:
                DirectImageTable.merge(tables)
            with pytest.raises(ValueError) as old_err:
                generator_merge(tables)
            assert str(new_err.value) == str(old_err.value), (w, tables)
    # the mu leg's wedges never cancel at n = 2
    assert pages == 2 * len(TWIST_BOXES[n]) and (spread > 0) == (n == 3)


def test_merge_reads_a_generator_like_a_list(setup):
    # merge gathers in one pass, so a generator is read once; a refusal names
    # the repeated cells from what that pass kept, as it does for a list
    reg, lam = setup
    twist_x = pullback_line(z_label((1, 0, 0, -2)))
    cols = [direct_images(exterior_power(lam, p).twist_by(twist_x), reg["nu"], "paper", p)
            for p in range(5)]
    col = cols[1]  # the p = 1 column of (1|0,0|-2): one cell, (1, 2)
    assert list(col.cells) == [(1, 2)]
    for tables in ([col, col], (t for t in [col, col])):
        with pytest.raises(ValueError) as err:
            DirectImageTable.merge(tables)
        assert str(err.value) == "duplicate cells [(1, 2)]"
    merged, listed = DirectImageTable.merge(t for t in cols), DirectImageTable.merge(cols)
    assert list(merged.cells.items()) == list(listed.cells.items())
    assert (merged.mode, merged.log) == (listed.mode, listed.log) and merged == listed


@pytest.mark.parametrize("n", [2, 3])
def test_cancellation_matches_the_pair_scan_oracle_on_the_boxes(n):
    # every column of both legs' twisted wedges, pushed down the M-leg in both
    # modes, logs the candidates of the quadratic scan over image pairs in the
    # same order with the same applied flags, and keeps the same cells; every
    # candidate is a simple-root step of pairing 1, read off its raw weights
    reg = registry(n)
    seen = dict.fromkeys(("columns", "candidates", "applied"), 0)
    steps = {"mu": set(), "nu": set()}  # distinct (quotient, sub) fiber weights
    for leg in ("mu", "nu"):
        lam = relative_cotangent(reg[leg])
        wedges = [(p, exterior_power(lam, p)) for p in range(len(lam) + 1)]
        for w in TWIST_BOXES[n]:
            twist_x = pullback_line(z_label(w))
            for p, wedge in wedges:
                bundle = wedge.twist_by(twist_x)
                for mode in MODES:
                    table = direct_images(bundle, reg["nu"], mode, p)
                    cells, log = direct_image_column(bundle, mode, p)
                    assert [(r.p, r.quotient, r.sub, r.q, r.base_label, r.applied)
                            for r in table.log] == log, (leg, w, p, mode)
                    assert table.cells == cells, (leg, w, p, mode)
                    assert list(table.cells) == list(cells), (leg, w, p, mode)  # cell order
                    for r in table.log:
                        assert simple_root_step(r.quotient.weight, r.sub.weight), r
                        steps[leg].add((r.quotient.weight[1:], r.sub.weight[1:]))
                    seen["columns"] += 1
                    seen["candidates"] += len(log)
                    seen["applied"] += sum(r[-1] for r in log)
    assert seen["columns"] == {2: 2 * 1183 * (3 + 4), 3: 2 * 405 * (5 + 7)}[n]
    # the transform cancels along mu's wedges only, and never at n = 2
    assert {leg: len(pairs) for leg, pairs in steps.items()} == {
        2: {"mu": 0, "nu": 12}, 3: {"mu": 96, "nu": 136}}[n]
    assert seen["applied"] > 0 and seen["candidates"] > seen["applied"], seen


@pytest.mark.parametrize("n", [2, 3])
def test_a_shifted_column_matches_the_explicitly_twisted_one_on_the_boxes(n):
    # twist_by keeps the untwisted factors and the line; the old
    # twist_by built every twisted factor as a label.  On every column of both
    # legs' wedges and both modes the two give one bundle and one table, cells,
    # cell order and log alike
    reg = registry(n)
    columns = records = 0
    for leg in ("mu", "nu"):
        lam = relative_cotangent(reg[leg])
        wedges = [(p, exterior_power(lam, p)) for p in range(len(lam) + 1)]
        for w in TWIST_BOXES[n]:
            twist_x = pullback_line(z_label(w))
            for p, wedge in wedges:
                shifted, explicit = wedge.twist_by(twist_x), explicit_twist(wedge, twist_x)
                assert shifted.line == twist_x and explicit.line is None
                assert shifted == explicit and hash(shifted) == hash(explicit), (leg, w, p)
                for mode in MODES:
                    table = direct_images(shifted, reg["nu"], mode, p)
                    other = direct_images(explicit, reg["nu"], mode, p)
                    assert table == other, (leg, w, p, mode)
                    assert list(table.cells) == list(other.cells), (leg, w, p, mode)
                    columns += 1
                    records += len(table.log)
    assert columns == {2: 2 * 1183 * (3 + 4), 3: 2 * 405 * (5 + 7)}[n]
    assert records > 0


def test_a_twisted_column_builds_x_labels_only_for_its_records(monkeypatch):
    # twist_by stores the line and direct_images reduces each weight plus the
    # line's, so twisting, len() and a column build no X-label, except the two
    # factors each cancellation record names
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    wedges = [exterior_power(lam, p) for p in range(len(lam) + 1)]
    twists = [pullback_line(z_label(w)) for w in TWIST_BOXES[3]]
    built = []
    label_init = BundleLabel.__init__

    def counted(label, space, weight):
        built.append(space)
        label_init(label, space, weight)

    monkeypatch.setattr(BundleLabel, "__init__", counted)
    records = 0
    for twist_x in twists:
        for p, wedge in enumerate(wedges):
            bundle = wedge.twist_by(twist_x)
            assert len(bundle) == len(wedge)
            for mode in MODES:
                records += len(direct_images(bundle, reg["nu"], mode, p).log)
    assert records > 0 and built.count("X") == 2 * records
    x_label((0, 0, 0, 0))  # the count sees an X-label
    assert built.count("X") == 2 * records + 1
