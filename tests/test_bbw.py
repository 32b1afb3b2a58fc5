"""Direct images along the M-leg: fiberwise reduction, cancellation, merging."""

import pytest

from flagcalc.bbw import (
    CohomologyResult,
    DirectImageTable,
    direct_images,
    global_cohomology,
    reduce_factor,
)
from flagcalc.bundles import exterior_power, label_from_string, rank, x_label, z_label
from flagcalc.geometry import pullback_line, registry, relative_cotangent

from oracles import euler_rank


@pytest.fixture(scope="module")
def setup():
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    return reg, lam


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
    got = reduce_factor(label_from_string(factor, "X"), reg["nu"])
    if expected is None:
        assert got is None
    else:
        q, label = got
        assert (q, str(label)) == expected


def test_reduce_factor_first_entry_is_a_spectator(setup):
    # shifting the spectator entry shifts the image label, never the degree
    reg, _ = setup
    q0, lab0 = reduce_factor(x_label((0, 0, 0, -3)), reg["nu"])
    q7, lab7 = reduce_factor(x_label((7, 0, 0, -3)), reg["nu"])
    assert q0 == q7 == 2
    assert lab0.weight[1:] == lab7.weight[1:]
    assert (lab0.weight[0], lab7.weight[0]) == (0, 7)


def test_reduce_factor_rejects_wrong_inputs(setup):
    reg, _ = setup
    with pytest.raises(ValueError):
        reduce_factor(label_from_string("(1||0,0,0)", "M"), reg["nu"])
    with pytest.raises(ValueError):
        reduce_factor(x_label((0, 0, 0, 0)), reg["mu"])  # wrong leg
    big = registry(4)
    with pytest.raises(ValueError):
        reduce_factor(label_from_string("(0||0|0,1|0)", "X"), big["nu"])  # rank 2


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
    assert table.qs_for_column(p) == (0,)
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
    assert "cancelled" in rec.describe()
    assert "candidate" in loud.log[0].describe()


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
    with pytest.raises(ValueError, match="duplicate cells"):
        DirectImageTable.merge([cols[1], cols[1]])  # duplicate cells
    loud = direct_images(exterior_power(lam, 2), reg["nu"], mode="conservative", p=2)
    with pytest.raises(ValueError, match="modes"):
        DirectImageTable.merge([cols[1], loud])  # mixed modes


def test_cohomology_result_helpers():
    empty = CohomologyResult({})
    assert empty.dim_at(0) == 0
    assert empty.degrees() == ()

    two = CohomologyResult({0: 1, 2: 6})
    assert two.degrees() == (0, 2)
    assert two.dim_at(0) == 1
    assert two.dim_at(2) == 6
    assert two.dim_at(1) == 0


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
    with pytest.raises(ValueError):
        global_cohomology(label_from_string("(1||0,0,0)", "M"))
    with pytest.raises(ValueError):
        global_cohomology(z_label((0, -1, 1, 0)))  # rank 3, not a line
