"""Acceptance gate: every deliverable behavior, one test per criterion.

Each test pins the full expected output at exact equality — no
tolerances, no spot checks.  The randomized suites draw at least ten
thousand cases each from seeded generators, so a red run here is
reproducible.
"""

import random
from math import comb

from flagcalc.bbw import direct_images
from flagcalc.bundles import (
    BundleLabel,
    exterior_power,
    pieri_tensor,
    rank,
    x_label,
    z_label,
)
from flagcalc.cli import main
from flagcalc.geometry import (
    pullback_line,
    registry,
    relative_cotangent,
)
from flagcalc.notation import format_entries, parse_label
from flagcalc.transform import (
    assemble_transform,
    check_ellipticity,
    emit_realization,
    formal_adjoint,
    involutive_cohomology,
)
from flagcalc.weights import bbw_reduce

from oracles import brute_reduce, complex_dim, count_rank

SEED = 20260818


def strings(labels):
    return [str(b) for b in labels]


# 1 ─ the relative cotangent bundle of the contractible-fiber leg

def test_relative_forms_match_pinned_chains():
    lam = relative_cotangent(registry(3)["mu"])
    assert strings(lam.factors) == [
        "(-1||0|0|1)", "(-1||0|1|0)", "(1||-1|0|0)", "(1||0|-1|0)"]
    assert lam.components == (0, 0, 1, 1)
    assert lam.levels == (0, 1, 0, 1)
    assert str(lam) == ("(-1||0|0|1) + (-1||0|1|0) (+) "
                        "(1||-1|0|0) + (1||0|-1|0)")


# 2 ─ wedge powers: factor multisets and extension patterns

def test_wedge_power_factor_multisets():
    lam = relative_cotangent(registry(3)["mu"])

    w2 = exterior_power(lam, 2)
    assert strings(w2.factors) == [
        "(-2||0|1|1)", "(0||-1|0|1)", "(0||0|-1|1)", "(0||-1|1|0)",
        "(0||0|0|0)", "(2||-1|-1|0)"]
    assert w2.components == (0, 1, 1, 1, 1, 2)
    assert w2.levels == (0, 0, 1, 1, 2, 0)

    w3 = exterior_power(lam, 3)
    assert strings(w3.factors) == [
        "(-1||-1|1|1)", "(-1||0|0|1)", "(1||-1|-1|1)", "(1||-1|0|0)"]
    assert w3.components == (0, 0, 1, 1)
    assert w3.levels == (0, 1, 0, 1)

    w4 = exterior_power(lam, 4)
    assert strings(w4.factors) == ["(0||-1|0|1)"]
    assert w4.components == (0,)
    assert w4.levels == (0,)


# 3 ─ untwisted direct images land in degree zero only

def test_untwisted_direct_images():
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    expected = {
        1: ["(-1||0,0,1)", "(1||-1,0,0)"],
        2: ["(-2||0,1,1)", "(0||-1,0,1)", "(0||0,0,0)", "(2||-1,-1,0)"],
        3: ["(-1||-1,1,1)", "(-1||0,0,1)", "(1||-1,-1,1)", "(1||-1,0,0)"],
        4: ["(0||-1,0,1)"],
    }
    for p, labels in expected.items():
        table = direct_images(exterior_power(lam, p), reg["nu"], "paper", p)
        assert {pq: strings(labs) for pq, labs in table.cells.items()} == {
            (p, 0): labels}
        assert {q for _p, q in table.cells} == {0}


# 4 ─ the hyperplane-twist pipeline: table, cancellations, complex

def test_hyperplane_pipeline():
    res = assemble_transform(x_label((0, 1, 0, 0)), 3, "paper")

    assert {pq: strings(labs) for pq, labs in res.table.cells.items()} == {
        (2, 0): ["(-2||1,1,1)"],
        (3, 0): ["(-1||0,1,1)", "(1||0,0,0)"],
        (4, 0): ["(0||0,0,1)"],
    }

    applied = [(r.p, str(r.quotient), str(r.sub), r.q, str(r.base_label))
               for r in res.table.log if r.applied]
    assert applied == [
        (1, "(1||0|0|0)", "(1||1|-1|0)", 0, "(1||0,0,0)"),
        (2, "(0||0|0|1)", "(0||1|-1|1)", 0, "(0||0,0,1)"),
    ]

    c = res.complex_
    assert [strings(t) for t in c.terms] == [
        ["(-2||1,1,1)"],
        ["(-1||0,1,1)", "(1||0,0,0)"],
        ["(0||0,0,1)"],
    ]
    assert c.ranks() == (1, 4, 3)
    assert (c.q_row, c.start_p) == (0, 2)

    # same pipeline through the Z-frame spelling of the twist
    same = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper")
    assert same.table.cells == res.table.cells
    assert same.complex_.terms == c.terms


# 5 ─ the canonical-twist pipeline: factor lists and top-row images

def test_canonical_pipeline():
    reg = registry(3)
    lam = relative_cotangent(reg["mu"])
    line = pullback_line(z_label((3, 0, 0, -3)))
    assert str(line) == "(0||3|0|-3)"

    factor_lists = {
        0: ["(0||3|0|-3)"],
        1: ["(-1||3|0|-2)", "(-1||3|1|-3)", "(1||2|0|-3)", "(1||3|-1|-3)"],
        2: ["(-2||3|1|-2)", "(0||2|0|-2)", "(0||3|-1|-2)", "(0||2|1|-3)",
            "(0||3|0|-3)", "(2||2|-1|-3)"],
        3: ["(-1||2|1|-2)", "(-1||3|0|-2)", "(1||2|-1|-2)", "(1||2|0|-3)"],
        4: ["(0||2|0|-2)"],
    }
    for p, labels in factor_lists.items():
        assert strings(exterior_power(lam, p).twist_by(line).factors) == labels

    res = assemble_transform(z_label((3, 0, 0, -3)), 3, "paper")
    assert {pq: strings(labs) for pq, labs in res.table.cells.items()} == {
        (0, 3): ["(0||-1,0,1)"],
        (1, 3): ["(-1||-1,1,1)", "(-1||0,0,1)", "(1||-1,-1,1)", "(1||-1,0,0)"],
        (2, 3): ["(-2||0,1,1)", "(0||-1,0,1)", "(0||0,0,0)", "(2||-1,-1,0)"],
        (3, 3): ["(-1||0,0,1)", "(1||-1,0,0)"],
        (4, 3): ["(0||0,0,0)"],
    }
    assert all(q == 3 for (_, q) in res.table.cells)
    assert not res.table.log
    assert res.complex_.ranks() == (8, 18, 15, 6, 1)
    assert res.complex_.q_row == 3

    rep = emit_realization(res.complex_)
    assert rep.degree == 3
    assert str(rep.source) == "(0||-1,0,1)"
    assert strings(rep.dbar_targets) == ["(-1||-1,1,1)", "(-1||0,0,1)"]
    assert strings(rep.d_targets) == ["(1||-1,-1,1)", "(1||-1,0,0)"]


# 6 ─ cohomology of the involutive structure on the pinned twists

def test_involutive_cohomology_pinned_cases():
    assert involutive_cohomology(z_label((0, 0, 0, 0))) == {0: 1, 2: 1}
    assert involutive_cohomology(z_label((1, 0, 0, 0))) == {}
    assert involutive_cohomology(z_label((0, 0, 0))) == {0: 1}


# 7 ─ the formal adjoint of the untwisted complex

def test_formal_adjoint_reverses_form_types():
    c = assemble_transform(None, 3, "paper").complex_
    assert [[str(t) for t in term] for term in c.form_types] == [
        ["L(0,0)"],
        ["L(0,1)", "L(1,0)"],
        ["L(0,2)", "L(1,1)", "L(2,0)"],
        ["L(1,2)", "L(2,1)"],
        ["L(2,2)_perp"],
    ]
    adj = formal_adjoint(c)
    assert [strings(t) for t in adj.terms] == [
        ["(0||-1,0,1)"],
        ["(-1||-1,1,1)", "(-1||0,0,1)", "(1||-1,-1,1)", "(1||-1,0,0)"],
        ["(-2||0,1,1)", "(0||-1,0,1)", "(0||0,0,0)", "(2||-1,-1,0)"],
        ["(-1||0,0,1)", "(1||-1,0,0)"],
        ["(0||0,0,0)"],
    ]
    assert [[str(t) for t in term] for term in adj.form_types] == [
        ["L(1,1)_perp"],
        ["L(1,2)", "L(2,1)"],
        ["L(1,3)", "L(2,2)", "L(3,1)"],
        ["L(2,3)", "L(3,2)"],
        ["L(3,3)"],
    ]
    assert adj.ranks() == (8, 18, 15, 6, 1)
    assert formal_adjoint(adj).terms == c.terms


# 8 ─ symbol-level checks on both assembled complexes

def test_symbol_checks():
    untwisted = assemble_transform(None, 3, "paper").complex_
    rep = check_ellipticity(untwisted)
    assert rep.ranks == (1, 6, 15, 18, 8)
    assert 1 - 6 + 15 - 18 + 8 == 0
    assert rep.alternating_sum == 0
    assert rep.passed
    assert all(arrow.ok for arrow in rep.arrows)

    hyp = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper").complex_
    rep = check_ellipticity(hyp)
    assert rep.ranks == (1, 4, 3)
    assert 1 - 4 + 3 == 0
    assert rep.alternating_sum == 0
    assert rep.passed
    forbidden = [(str(a), str(b)) for a, b in rep.arrows[0].inadmissible]
    assert ("(-2||1,1,1)", "(1||0,0,0)") in forbidden


# 9 ─ randomized suites against independent oracles (>= 10^4 cases each)

def test_bulk_reduction_matches_the_permutation_oracle():
    rng = random.Random(SEED)
    for _ in range(10_000):
        w = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
        fast = bbw_reduce(w)
        slow = brute_reduce(w)
        if slow is None:
            assert not fast, w
        else:
            assert fast == slow, w


def test_bulk_rank_matches_the_pattern_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(10_000):
        mu = tuple(sorted(rng.randint(-4, 4)
                          for _ in range(rng.randint(1, 4))))
        label = BundleLabel("fiber", mu)
        assert rank(label) == count_rank(mu), mu


def test_bulk_pieri_conserves_rank():
    rng = random.Random(SEED + 2)
    for _ in range(10_000):
        a = rng.randint(-4, 4)
        mu = tuple(sorted(rng.randint(-4, 4) for _ in range(3)))
        b = BundleLabel("M", (a, *mu))
        assert sum(rank(t) for t in pieri_tensor(b)) == 6 * rank(b), b


def test_bulk_determinant_twist_equivariance():
    rng = random.Random(SEED + 3)
    for _ in range(10_000):
        k = rng.randint(1, 5)
        w = tuple(rng.randint(-5, 5) for _ in range(k))
        c = rng.randint(-3, 3)
        shifted = tuple(x + c for x in w)
        base, moved = bbw_reduce(w), bbw_reduce(shifted)
        if not base:
            assert not moved, (w, c)
        else:
            q, dom = base
            assert moved == (q, tuple(x + c for x in dom)), (w, c)


def test_bulk_notation_round_trip():
    rng = random.Random(SEED + 4)
    for _ in range(10_000):
        k = rng.randint(1, 6)
        weight = tuple(rng.randint(-9, 9) for _ in range(k))
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1))) if k > 1 else []
        blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [k]))
        # '||' is reserved for the (1, k-1) split
        double_bar = (len(blocks) == 2 and blocks[0] == 1
                      and rng.random() < 0.5)
        # per-block entries must be nondecreasing to be a valid label
        pos, fixed = 0, []
        for size in blocks:
            fixed.extend(sorted(weight[pos:pos + size]))
            pos += size
        weight = tuple(fixed)
        text = format_entries(weight, blocks, double_bar)
        parsed = parse_label(text)
        assert parsed.weight == weight, text
        assert parsed.blocks == blocks, text
        assert parsed.double_bar == double_bar, text
        assert format_entries(parsed.weight, parsed.blocks,
                              parsed.double_bar) == text


# 10 ─ dimension bookkeeping from the block structures alone

def test_rank_and_dimension_bookkeeping():
    lam3 = relative_cotangent(registry(3)["mu"])
    for p in range(5):
        assert rank(exterior_power(lam3, p)) == comb(4, p)
    lam2 = relative_cotangent(registry(2)["mu"])
    for p in range(3):
        assert rank(exterior_power(lam2, p)) == comb(2, p)
    assert [complex_dim(registry(3)[s]) for s in ("Z", "M", "X")] == [5, 3, 9]


# the bundled corpus replays clean end to end

def test_bundled_corpus_replays_clean(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
