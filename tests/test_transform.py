"""Assembly on projective space: collapse, form naming, adjoints, symbols."""

import random
from collections import Counter

import pytest

from flagcalc.bbw import MODES, global_cohomology
from flagcalc.bundles import (
    BundleLabel,
    dual,
    fiber_label,
    m_label,
    tensor_line,
    trivial_label,
    x_label,
    z_label,
)
from flagcalc.geometry import MAX_N, pullback_line, registry
from flagcalc.transform import (
    ComplexOnM,
    FormType,
    UnsupportedTwistError,
    alternating_sum,
    annotate_form_types,
    assemble_transform,
    check_ellipticity,
    complex_from_form_types,
    e1_page,
    emit_realization,
    form_dictionary,
    formal_adjoint,
    involutive_cohomology,
    twisted_forms,
)

from oracles import (
    FORM_TABLES,
    euler_rank,
    pieri_admissible,
    torus_character,
    wedge_pair_character,
    weyl_euler,
)
from oracles import annotate_form_types as cover_search_annotation


def test_form_type_naming_and_degree():
    plain = FormType(1, 2, "full")
    assert str(plain) == "L(1,2)"
    assert plain.degree == 3
    assert str(FormType(1, 1, "perp")) == "L(1,1)_perp"
    assert str(FormType(2, 2, "kappa")) == "L(2,2)_kappa"


@pytest.mark.parametrize("n", [2, 3])
def test_form_dictionary_reproduces_the_stored_tables(n):
    full, perp = form_dictionary(n)
    for derived, stored in zip((full, perp), FORM_TABLES[n]):
        assert {k: sorted(map(str, v)) for k, v in derived.items()} == {
            k: sorted(v) for k, v in stored.items()}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_form_dictionary_matches_the_character_oracle(n):
    full, perp = form_dictionary(n)
    assert set(full) == {(p, q) for p in range(n + 1) for q in range(n + 1)}
    for (p, q), labs in full.items():
        assert {b.weight[0] for b in labs} == {p - q}
        character = Counter()
        for b in labs:
            character += torus_character(b.weight[1:])
        assert character == wedge_pair_character(n, p, q), (p, q)
    assert set(perp) < set(full)


def test_form_dictionary_needs_n_at_least_2():
    with pytest.raises(ValueError):
        form_dictionary(1)


def test_form_dictionary_is_bounded_in_n():
    assert len(form_dictionary(MAX_N)[0]) == (MAX_N + 1) ** 2
    for n in (MAX_N + 1, 100, 10**9):
        with pytest.raises(ValueError, match=f"need 2 <= n <= {MAX_N}"):
            form_dictionary(n)


def test_form_dictionary_is_built_once_and_read_only():
    full, perp = form_dictionary(3)
    assert form_dictionary(3) is form_dictionary(3)
    with pytest.raises(TypeError):
        full[(0, 0)] = ()
    with pytest.raises(TypeError):
        perp[(1, 1)] = ()


def test_form_naming_and_adjoint_work_at_n4():
    types = (
        (FormType(0, 0),),
        (FormType(0, 1), FormType(1, 0)),
        (FormType(0, 2), FormType(1, 1, "perp"), FormType(1, 1, "kappa"), FormType(2, 0)),
        (FormType(1, 2, "perp"), FormType(2, 1)),
    )
    c = complex_from_form_types(types, 4)
    assert c.ranks() == (1, 8, 28, 44)
    adj = formal_adjoint(c)
    assert [[str(t) for t in term] for term in adj.form_types] == [
        ["L(2,3)", "L(3,2)_perp"],
        ["L(2,4)", "L(3,3)_kappa", "L(3,3)_perp", "L(4,2)"],
        ["L(3,4)", "L(4,3)"],
        ["L(4,4)"],
    ]
    again = formal_adjoint(adj)
    assert again.terms == c.terms
    assert again.form_types == c.form_types


@pytest.mark.parametrize(
    "make",
    [
        lambda: FormType(1, 0, "bogus"),
        lambda: complex_from_form_types([[FormType(9, 9)]], 3),
        lambda: complex_from_form_types([[FormType(-1, 0)]], 3),
        lambda: complex_from_form_types([[FormType(0, 4)]], 3),
        lambda: complex_from_form_types([[FormType(1, 0, "perp")]], 3),
        lambda: complex_from_form_types([[FormType(3, 3, "perp")]], 3),
        lambda: complex_from_form_types([[FormType(0, 0, "kappa")]], 3),
        lambda: complex_from_form_types([[FormType(3, 3, "kappa")]], 3),
        lambda: complex_from_form_types([[FormType(1, 2, "kappa")]], 3),
    ],
    ids=["bogus role", "(9,9)", "negative p", "q > n", "irreducible perp",
         "corner perp", "kappa at (0,0)", "kappa at (n,n)", "kappa off the diagonal"],
)
def test_unnamed_form_types_are_refused(make):
    with pytest.raises(ValueError):
        make()


def test_annotation_of_the_untwisted_complex():
    c = assemble_transform(None, 3, "paper").complex_
    ann = annotate_form_types(c.terms)
    assert [[str(t) for t in term] for term in ann] == [
        ["L(0,0)"],
        ["L(0,1)", "L(1,0)"],
        ["L(0,2)", "L(1,1)", "L(2,0)"],
        ["L(1,2)", "L(2,1)"],
        ["L(2,2)_perp"],
    ]
    assert c.form_types == ann


def test_annotation_refuses_ambiguity_and_gaps():
    trivial = m_label((0, 0, 0, 0))
    # a lone trivial factor could be L(0,0) or L(3,3): no unique chain
    assert annotate_form_types(((trivial,),)) is None
    # degree must step by one between consecutive terms
    gapped = ((trivial,), (m_label((-2, 0, 1, 1)),))
    assert annotate_form_types(gapped) is None
    # a label outside the dictionary poisons its term
    alien = ((m_label((2, 0, 0, 0)),),)
    assert annotate_form_types(alien) is None


def _hand_built_chain(rng: random.Random, n: int) -> tuple[tuple, ...]:
    """1-4 terms of consecutive degrees, each a sum of named form bundles,
    sometimes with a label dropped, an extra named label or a foreign one."""
    full, perp = form_dictionary(n)
    named = list(full.items()) + list(perp.items())
    every_label = sorted({lab for _pq, labs in named for lab in labs})
    length = rng.randint(1, 4)
    d0 = rng.randint(0, 2 * n + 1 - length)
    chain = []
    for i in range(length):
        pool = [labs for (p, q), labs in named if p + q == d0 + i]
        term = [lab for _ in range(rng.randint(1, 3)) for lab in rng.choice(pool)]
        change = rng.choice(["none", "none", "drop", "add", "foreign"])
        if change == "drop":
            term.remove(rng.choice(term))
        elif change == "add":
            term.append(rng.choice(every_label))
        elif change == "foreign":
            term.append(m_label((rng.randint(-n, n), *sorted(rng.choices(range(-2, 3), k=n)))))
        rng.shuffle(term)
        chain.append(tuple(term))
    return tuple(chain)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_annotation_matches_the_cover_search_oracle(n):
    rng = random.Random(20_000 + n)
    named = 0
    for _ in range(600):
        chain = _hand_built_chain(rng, n)
        if not any(chain):  # every label dropped: no n to read
            with pytest.raises(ValueError, match="got no label"):
                annotate_form_types(chain)
            continue
        expected = cover_search_annotation(chain, n)
        assert annotate_form_types(chain) == expected, chain
        named += expected is not None
    assert 0 < named < 600  # both outcomes are exercised


def test_two_copies_of_every_degree_n_bundle_are_named_at_the_largest_n():
    """The cover search in oracles.py grows about 7x per step in n on this
    term; annotate_form_types is linear in its size."""
    n = MAX_N
    full, _perp = form_dictionary(n)
    degree_n = [(p, n - p) for p in range(n + 1)]
    term = tuple(lab for pq in degree_n for lab in full[pq] * 2)
    [names] = annotate_form_types((term,))
    assert Counter(names) == {FormType(p, q): 2 for p, q in degree_n}


def test_untwisted_assembly_fields():
    res = assemble_transform(None, 3, "paper")
    assert res.reason == ""
    assert str(res.twist_z) == "(0|0,0|0)"
    assert str(res.twist_x) == "(0||0|0|0)"
    c = res.complex_
    assert c.ranks() == (1, 6, 15, 18, 8)
    assert alternating_sum(c.ranks()) == 0
    assert (c.q_row, c.start_p) == (0, 0)
    assert c.claims == (1, 0, 1, 0, 0)
    assert c.claim_tags == {0: "constants", 2: "Kaehler form"}
    assert str(c).startswith("0 -> (0||0,0,0) ->")
    assert str(c).endswith("-> 0")


def test_twist_may_be_given_in_either_frame():
    on_z = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper")
    on_x = assemble_transform(x_label((0, 1, 0, 0)), 3, "paper")
    assert on_z.table.cells == on_x.table.cells
    assert on_z.complex_.terms == on_x.complex_.terms
    assert str(on_x.twist_z) == "(1|0,0|0)"


def test_e1_page_columns_and_their_range():
    twist_x = x_label((0, 1, 0, 0))
    full = assemble_transform(z_label((1, 0, 0, 0)), 3, "conservative").table
    assert e1_page(twist_x, "conservative") == full
    for p in range(5):
        column = e1_page(twist_x, "conservative", p)
        assert column.cells == {pq: labs for pq, labs in full.cells.items() if pq[0] == p}
        assert column.log == tuple(r for r in full.log if r.p == p)
    for p in (-1, 5):
        with pytest.raises(ValueError, match=r"outside 0\.\.4"):
            e1_page(twist_x, "conservative", p)


# the benchmark's twist boxes: (a|b|c) for n = 2 and (a|b,b|c) for n = 3
TWIST_BOXES = {
    2: [(a, b, c) for a in range(-6, 7) for b in range(-3, 4) for c in range(-6, 7)],
    3: [(a, b, b, c) for a in range(-4, 5) for b in range(-2, 3) for c in range(-4, 5)],
}


@pytest.mark.parametrize("n", [2, 3])
def test_column_euler_characteristic_matches_the_weyl_oracle(n):
    # each X-factor contributes W(its fiber weight) to its column, singular
    # or not and cancelled or not, with no reduction and no sorting
    reg = registry(n)
    columns = nonzero = 0
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        forms = twisted_forms(reg["mu"], twist_x)
        for mode in MODES:
            table = e1_page(twist_x, mode)
            for p, bundle in forms:
                euler = sum(weyl_euler(f.weight[1:]) for f in bundle.factors)
                assert euler_rank(table, p) == euler, (w, mode, p)
                columns += 1
                nonzero += euler != 0
    assert columns == {2: 7098, 3: 4050}[n]
    assert nonzero > columns // 2


@pytest.mark.parametrize("n", [2, 3])
def test_labels_built_unchecked_pass_full_validation(n):
    # twist_by shifts every factor by the line's weight and builds each
    # label through the public constructor; on the twist boxes that must
    # equal tensor_line, factor by factor
    untwisted = twisted_forms(registry(n)["mu"], trivial_label("X", n))
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        for p, bundle in untwisted:
            expected = tuple(tensor_line(f, twist_x) for f in bundle.factors)
            assert bundle.twist_by(twist_x).factors == expected, (w, p)


def _canonical(n: int) -> BundleLabel:
    """K_Z = (n|0,...,0|-n), the canonical line of the twistor space."""
    return z_label((n, *(0,) * (n - 1), -n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_canonical_line_has_one_dimensional_top_cohomology(n):
    # dim Z = 2n - 1, and Serre duality pairs H^(2n-1)(K_Z) with H^0(O)
    assert global_cohomology(_canonical(n)) == (2 * n - 1, trivial_label("fiber", n))


def _dual_labels(labels) -> tuple[BundleLabel, ...]:
    return tuple(sorted(dual(b) for b in labels))


@pytest.mark.parametrize("n", [2, 3])
def test_the_pipeline_commutes_with_serre_duality(n):
    # L* (x) K_Z has the table of L with (p, q) sent to (P - p, Q - q) and each
    # label dualized: P = 2n - 2 is the rank of mu's forms, Q = 2n - 3 the
    # dimension of nu's fiber.  It cancels as often as L, collapses exactly
    # when L does, and then its complex is L's reversed and dualized.
    big_p, big_q = 2 * n - 2, 2 * n - 3
    collapsed = {mode: 0 for mode in MODES}
    for w in TWIST_BOXES[n]:
        twist = z_label(w)
        other = tensor_line(dual(twist), _canonical(n))
        for mode in MODES:
            res, dual_res = (assemble_transform(t, n, mode) for t in (twist, other))
            assert dual_res.table.cells == {
                (big_p - p, big_q - q): _dual_labels(labs)
                for (p, q), labs in res.table.cells.items()
            }, (w, mode)
            assert sum(r.applied for r in dual_res.table.log) == \
                sum(r.applied for r in res.table.log), (w, mode)
            assert (res.complex_ is None) == (dual_res.complex_ is None), (w, mode)
            if res.complex_ is not None:
                collapsed[mode] += 1
                assert dual_res.complex_.terms == tuple(
                    _dual_labels(term) for term in reversed(res.complex_.terms)), (w, mode)
    assert collapsed == {2: {"paper": 1106, "conservative": 1106},
                         3: {"paper": 365, "conservative": 225}}[n]


def test_hyperplane_assembly_collapses_only_in_paper_mode():
    quiet = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper")
    assert quiet.complex_ is not None
    assert quiet.complex_.ranks() == (1, 4, 3)
    assert quiet.complex_.form_types is None  # no unambiguous naming
    assert quiet.complex_.claims == (0, 0, 0)
    assert quiet.complex_.claim_tags is None

    loud = assemble_transform(z_label((1, 0, 0, 0)), 3, "conservative")
    assert loud.complex_ is None
    assert "spread over degrees" in loud.reason


def test_canonical_assembly_sits_in_the_top_row():
    res = assemble_transform(z_label((3, 0, 0, -3)), 3, "paper")
    c = res.complex_
    assert c.q_row == 3
    assert c.ranks() == (8, 18, 15, 6, 1)
    assert c.claims is None  # no pinned row-cohomology rule for this twist
    assert not res.table.log


def test_n2_assembly():
    res = assemble_transform(None, 2, "paper")
    c = res.complex_
    assert c.ranks() == (1, 4, 3)
    assert c.claims == (1, 0, 0)
    assert c.claim_tags == {0: "constants"}
    assert [[str(t) for t in term] for term in c.form_types] == [
        ["L(0,0)"],
        ["L(0,1)", "L(1,0)"],
        ["L(1,1)_perp"],
    ]


def test_assembly_validates_mode():
    with pytest.raises(ValueError):
        assemble_transform(None, 3, "optimistic")


@pytest.mark.parametrize(
    "twist, n, expected",
    [
        ((0, 0, 0, 0), 3, {0: 1, 2: 1}),
        ((1, 0, 0, 0), 3, {}),
        ((0, 0, 0), 2, {0: 1}),
        ((1, 0, 0), 2, {}),
    ],
)
def test_involutive_cohomology_whitelist(twist, n, expected):
    label = z_label(twist)
    assert label.n == n  # the rule reads n from the twist
    res = involutive_cohomology(label)
    assert {r: res.dim_at(r) for r in res.degrees()} == expected


def test_involutive_cohomology_refuses_other_twists():
    assert issubclass(UnsupportedTwistError, ValueError)
    with pytest.raises(UnsupportedTwistError):
        involutive_cohomology(z_label((3, 0, 0, -3)))
    with pytest.raises(UnsupportedTwistError):
        involutive_cohomology(z_label((0, 0, 0, 2)))


def test_formal_adjoint_reverses_and_reflects():
    c = assemble_transform(None, 3, "paper").complex_
    adj = formal_adjoint(c)
    assert adj.ranks() == tuple(reversed(c.ranks()))
    assert [[str(t) for t in term] for term in adj.form_types] == [
        ["L(1,1)_perp"],
        ["L(1,2)", "L(2,1)"],
        ["L(1,3)", "L(2,2)", "L(3,1)"],
        ["L(2,3)", "L(3,2)"],
        ["L(3,3)"],
    ]
    again = formal_adjoint(adj)
    assert again.terms == c.terms
    assert again.form_types == c.form_types


def test_formal_adjoint_needs_annotations():
    hyp = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper").complex_
    with pytest.raises(ValueError):
        formal_adjoint(hyp)


def test_the_adjoint_and_the_form_names_read_n_from_the_labels():
    c = assemble_transform(None, 3, "paper").complex_
    assert {b.n for term in formal_adjoint(c).terms for b in term} == {3}
    for labelless in ((), ((),)):
        with pytest.raises(ValueError, match="got no label"):
            annotate_form_types(labelless)
        with pytest.raises(ValueError, match="got no label"):
            formal_adjoint(ComplexOnM(labelless))
    mixed = ((m_label((0, 0, 0)),), (m_label((0, 0, 0, 0)),))
    with pytest.raises(ValueError, match=r"labels over n in \[2, 3\]"):
        annotate_form_types(mixed)


def test_symbol_check_flags_the_unreachable_target():
    hyp = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper").complex_
    rep = check_ellipticity(hyp)
    assert rep.passed
    assert rep.alternating_sum == 0
    assert rep.ranks == (1, 4, 3)
    pairs = [(str(a), str(b)) for arrow in rep.arrows for a, b in arrow.inadmissible]
    assert ("(-2||1,1,1)", "(1||0,0,0)") in pairs
    assert all(arrow.ok for arrow in rep.arrows)
    assert [[str(t) for t in arrow.unreachable] for arrow in rep.arrows] == [["(1||0,0,0)"], []]


def test_the_unreachable_targets_are_the_next_term_less_the_admissible_ones():
    for twist in ((0, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, -3), (-1, 1, 1, 2)):
        cx = assemble_transform(z_label(twist), 3, "paper").complex_
        for arrow in check_ellipticity(cx).arrows:
            hit = {t for _s, t in arrow.admissible}
            assert arrow.unreachable == tuple(sorted(set(cx.terms[arrow.index + 1]) - hit))


def test_symbol_check_failure_modes():
    trivial = m_label((0, 0, 0, 0))
    # no Pieri route from constants to constants: the arrow is hopeless
    stuck = ComplexOnM((
        (trivial,), (trivial,)), 0, 0, None, None, None)
    rep = check_ellipticity(stuck)
    assert not rep.passed
    assert [a.ok for a in rep.arrows] == [False]

    # reachable targets but ranks that cannot be exact(1 - 6 != 0)
    skew = ComplexOnM((
        (trivial,), (m_label((-1, 0, 0, 1)), m_label((1, -1, 0, 0)))),
        0, 0, None, None, None)
    rep = check_ellipticity(skew)
    assert not rep.passed
    assert all(a.ok for a in rep.arrows)
    assert rep.alternating_sum == -5


def _arrow_partition(source_term, target_term):
    adm, bad = [], []
    for pair in ((s, t) for s in source_term for t in target_term):
        (adm if pieri_admissible(*pair) else bad).append(pair)
    return tuple(adm), tuple(bad)


@pytest.mark.parametrize("n", [2, 3])
def test_symbol_check_matches_the_pieri_membership_oracle_on_the_boxes(n):
    # every arrow component of every collapsed complex of the benchmark
    # boxes, in both modes, lands on the same side in the same order
    complexes = pairs = admissible = 0
    for w in TWIST_BOXES[n]:
        for mode in MODES:
            cx = assemble_transform(z_label(w), n, mode).complex_
            if cx is None:
                continue
            complexes += 1
            for i, arrow in enumerate(check_ellipticity(cx).arrows):
                adm, bad = _arrow_partition(cx.terms[i], cx.terms[i + 1])
                assert (arrow.admissible, arrow.inadmissible) == (adm, bad), (w, mode, i)
                pairs += len(adm) + len(bad)
                admissible += len(adm)
    # n = 3 in paper mode alone: 365 complexes and 11,390 pairs
    assert (complexes, pairs, admissible) == {2: (2212, 8232, 8232),
                                              3: (590, 21804, 14628)}[n]


def _random_m_weight(rng: random.Random, n: int) -> tuple[int, ...]:
    return (rng.randint(-3, 3), *sorted(rng.randint(-2, 2) for _ in range(n)))


def _targets(rng: random.Random, s: BundleLabel) -> list[BundleLabel]:
    """Labels near s, on M and elsewhere, each tried as an arrow target."""
    n, a, mu = s.n, s.weight[0], s.weight[1:]
    weights = []
    for i in range(n):  # every Pieri step, dominant or not
        for da in (1, -1):
            weights.append((a + da, *(x - da * (j == i) for j, x in enumerate(mu))))
    for _ in range(6):  # nearby weights, some moved in two places or in a alone
        weights.append(tuple(x + rng.choice((-1, 0, 0, 1)) for x in s.weight))
    weights.append(_random_m_weight(rng, n))
    out = []
    for w in weights:
        for make in (m_label, z_label, x_label, fiber_label):
            try:
                out.append(make(w))
            except ValueError:  # not dominant on that space
                pass
    for other in (n - 1, n + 1):  # the same steps over another n
        if other >= 1:
            out.append(m_label((a + 1, *sorted(rng.randint(-2, 2) for _ in range(other)))))
            out.append(m_label((a - 1, *mu[:other], *(mu[-1:] * (other - n)))))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symbol_check_matches_the_pieri_membership_oracle_on_random_pairs(n):
    rng = random.Random(9000 + n)
    seen = Counter()
    for _ in range(150):
        s = m_label(_random_m_weight(rng, n))
        targets = tuple(_targets(rng, s))
        arrow, = check_ellipticity(ComplexOnM(((s,), targets), 0, 0)).arrows
        assert (arrow.admissible, arrow.inadmissible) == _arrow_partition((s,), targets), s
        seen["admissible"] += len(arrow.admissible)
        seen.update(t.space for _s, t in arrow.inadmissible)
        seen["other n"] += sum(t.n != n for t in targets)
    assert min(seen.values()) > 50, seen


def test_symbol_check_refuses_a_source_off_the_base():
    target = m_label((1, 0, 0, 0))
    for source in (z_label((0, 0, 0, 0)), x_label((0, 0, 0, 0)), fiber_label((0, 0, 0, 0))):
        with pytest.raises(ValueError, match="expects base-space labels"):
            check_ellipticity(ComplexOnM(((source,), (target,)), 0, 0))
    # a label off the base that is only ever a target is inadmissible, as before
    rep = check_ellipticity(ComplexOnM(((m_label((0, 0, 0, 0)),), (z_label((1, 0, 0, -1)),)), 0, 0))
    assert [a.ok for a in rep.arrows] == [False]


def test_comparison_complex_from_form_types():
    types = (
        (FormType(0, 0, "full"),),
        (FormType(0, 1, "full"), FormType(1, 0, "full")),
        (FormType(0, 2, "full"), FormType(1, 1, "perp")),
        (FormType(1, 2, "perp"),),
    )
    c = complex_from_form_types(types, 3)
    assert c.ranks() == (1, 6, 11, 6)
    assert check_ellipticity(c).passed
    assert [[str(b) for b in t] for t in c.terms] == [
        ["(0||0,0,0)"],
        ["(-1||0,0,1)", "(1||-1,0,0)"],
        ["(-2||0,1,1)", "(0||-1,0,1)"],
        ["(-1||-1,1,1)"],
    ]


def test_realization_is_pinned_to_the_canonical_twist():
    rep = emit_realization(z_label((3, 0, 0, -3)), 3)
    assert rep.degree == 3
    assert str(rep.source) == "(0||-1,0,1)"
    assert [str(b) for b in rep.dbar_targets] == ["(-1||-1,1,1)", "(-1||0,0,1)"]
    assert [str(b) for b in rep.d_targets] == ["(1||-1,-1,1)", "(1||-1,0,0)"]
    # the full Pieri decompositions carry one extra summand each,
    # projected away in the complex
    assert [str(b) for b in rep.dbar_full] == [
        "(-1||-1,0,2)", "(-1||-1,1,1)", "(-1||0,0,1)"]
    assert [str(b) for b in rep.d_full] == [
        "(1||-2,0,1)", "(1||-1,-1,1)", "(1||-1,0,0)"]
    assert set(rep.dbar_targets) < set(rep.dbar_full)
    assert set(rep.d_targets) < set(rep.d_full)

    # the canonical twist is also the default
    assert emit_realization(None, 3).source == rep.source
    with pytest.raises(ValueError):
        emit_realization(z_label((1, 0, 0, 0)), 3)
    with pytest.raises(ValueError):
        emit_realization(None, 2)
