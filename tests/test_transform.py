"""Assembly on projective space: collapse, form naming, adjoints, symbols."""

import json
import pathlib
import random
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from flagcalc import bundles, transform
from flagcalc.bbw import MODES, DirectImageTable, e1_page, global_cohomology, twisted_forms
from flagcalc.bundles import (
    BundleLabel,
    dual,
    fiber_label,
    label_from_string,
    m_label,
    pieri_tensor,
    rank,
    tensor_line,
    trivial_label,
    x_label,
    z_label,
)
from flagcalc.cli import _run_case, main
from flagcalc.geometry import (
    MAX_N,
    canonical_line,
    pullback_line,
    registry,
    relative_cotangent,
    twist_frames,
)
from flagcalc.notation import ArgumentError
from flagcalc.transform import (
    ComplexOnM,
    FormType,
    _degrees,
    _owner,
    alternating_sum,
    annotate_form_types,
    assemble_transform,
    check_ellipticity,
    complex_from_form_types,
    emit_realization,
    form_dictionary,
    formal_adjoint,
    involutive_cohomology,
)

from oracles import (
    FORM_TABLES,
    block_slices,
    brute_reduce,
    count_rank,
    euler_rank,
    flag_betti,
    loop_weyl_rank,
    pieri_admissible,
    restricts_to,
    stabilizer_types,
    symbol_rank_bound,
    torus_character,
    wedge_pair_character,
    weyl_euler,
)
from oracles import annotate_form_types as cover_search_annotation
from oracles import e1_page as composed_e1_page

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_form_type_naming_and_degree():
    plain = FormType(1, 2, "full")
    assert str(plain) == "L(1,2)"
    assert plain.p + plain.q == 3  # its degree
    assert str(FormType(1, 1, "perp")) == "L(1,1)_perp"
    assert str(FormType(2, 2, "kappa")) == "L(2,2)_kappa"


@pytest.mark.parametrize("field", ["p", "q"])
@pytest.mark.parametrize("bad", [True, False, 1.0, "0"])
def test_a_form_degree_that_is_not_an_int_is_refused_by_name(field, bad):
    # True would print as L(True,0) and 1.0 would name L(2,2.0) as an adjoint
    with pytest.raises(ArgumentError) as err:
        FormType(**{"p": 1, "q": 1, "role": "perp", field: bad})
    assert str(err.value) == f"form-type {field} must be an int, got {bad!r}"


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


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_the_derived_owner_equals_the_dictionary_index(n):
    # the owner read off a label equals the (degree, label) -> (p, q) index
    # of the dictionary, and is None wherever that index has no entry
    full, _perp = form_dictionary(n)
    index = {(p + q, lab): (p, q) for (p, q), labs in full.items() for lab in labs}
    for d in range(2 * n + 1):
        for lab in {lab for labs in full.values() for lab in labs}:
            assert _owner(lab, d) == index.get((d, lab)), (d, lab)


def test_the_derived_owner_refuses_labels_off_the_dictionary():
    lab = m_label((0, -1, 0, 1))  # L(1,1) in degree 2, L(2,2) in degree 4
    assert [_owner(lab, d) for d in range(7)] == [None, None, (1, 1), None, (2, 2), None, None]
    refused = [
        x_label((0, -1, 0, 1)),      # off M
        z_label((0, -1, 0, 1)),      # off M
        m_label((0, -2, 0, 2)),      # entries outside {-1, 0, 1}
        m_label((0, -1, 1, 2)),
        m_label((1, -1, 0, 1)),      # first entry not p - q
        m_label((-2, -1, 0, 1)),
    ]
    for other in refused:
        assert [_owner(other, d) for d in range(7)] == [None] * 7, other
    assert all(_owner(lab, d) is None for d in (1, 3, 5))  # degree of the wrong parity


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_start_degrees_of_a_label_are_those_with_an_owner(n):
    # every M-label with entries in [-2, 2]: the degrees read off its Pieri
    # place are exactly those at which it has an owner; off M there are none
    owned = 0
    for a in range(-2, 3):
        for mu in combinations_with_replacement(range(-2, 3), n):
            lab = m_label((a, *mu))
            assert list(_degrees(lab)) == [d for d in range(2 * n + 1) if _owner(lab, d)], lab
            owned += bool(_degrees(lab))
            for other in (x_label, z_label):
                assert not _degrees(other((a, *mu))), (other, mu)
    # one label (i - l || -1^i, 0^(n-i-l), 1^l) per i + l <= n, with a = i - l in the window
    assert owned == sum(abs(i - l) <= 2 for i in range(n + 1) for l in range(n + 1 - i))


def _named(chain):
    """A chain's form names as strings, or None."""
    names = annotate_form_types(chain)
    return names and [[str(ft) for ft in term] for term in names]


def test_annotation_tries_only_the_start_degrees_of_its_first_label():
    # the start degrees come from the first label of the first nonempty term;
    # an empty term names as () at every degree, and refusals keep their order
    one_zero, two_zero = m_label((1, -1, 0, 0)), m_label((2, -1, -1, 0))
    assert _named(((), (one_zero,), (two_zero,))) == [[], ["L(1,0)"], ["L(2,0)"]]
    # degree 1 would start at -1, outside the range, where it would make a second chain
    assert _named(((), (), (one_zero,))) == [[], [], ["L(3,2)"]]
    assert _named(((), (one_zero,), ())) is None
    assert _named(((x_label((0, 0, 0, 0)), one_zero), (two_zero,))) is None
    assert _named(((m_label((0, 0, 0, 0)), x_label((0, 0, 0, 0))),)) is None
    for chain in (((), (one_zero,), (two_zero,)), ((), (), (one_zero,)),
                  ((x_label((0, 0, 0, 0)), one_zero), (two_zero,))):
        assert annotate_form_types(chain) == cover_search_annotation(chain, 3), chain
    for n in (1, MAX_N + 1):
        with pytest.raises(ValueError, match=f"need 2 <= n <= {MAX_N}, got {n}$"):
            annotate_form_types(((), (m_label((0,) * (n + 1)),)))
    with pytest.raises(ValueError, match=r"labels over n in \[1, 3\]$"):
        annotate_form_types(((m_label((0, 0)),), (), (one_zero,)))
    with pytest.raises(ValueError, match="got no label$"):
        annotate_form_types(((), ()))


def test_annotation_names_the_two_sweep_complexes_as_the_cover_search_does():
    # of the n = 3 box's collapsed complexes in paper mode, the trivial and the
    # canonical twist are the two that have a naming
    named = {}
    for w in TWIST_BOXES[3]:
        cx = assemble_transform(z_label(w), 3, "paper").complex_
        if cx is not None and cx.form_types is not None:
            named[w] = cx.form_types
    assert sorted(named) == [(0, 0, 0, 0), (3, 0, 0, -3)]
    for w, names in named.items():
        terms = assemble_transform(z_label(w), 3, "paper").complex_.terms
        assert names == annotate_form_types(terms) == cover_search_annotation(terms, 3), w


def test_form_naming_and_adjoint_work_at_n4():
    types = (
        (FormType(0, 0, "full"),),
        (FormType(0, 1, "full"), FormType(1, 0, "full")),
        (FormType(0, 2, "full"), FormType(1, 1, "perp"), FormType(1, 1, "kappa"),
         FormType(2, 0, "full")),
        (FormType(1, 2, "perp"), FormType(2, 1, "full")),
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
        lambda: complex_from_form_types([[FormType(9, 9, "full")]], 3),
        lambda: complex_from_form_types([[FormType(-1, 0, "full")]], 3),
        lambda: complex_from_form_types([[FormType(0, 4, "full")]], 3),
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
    assert Counter(names) == {FormType(p, q, "full"): 2 for p, q in degree_n}


def test_untwisted_assembly_fields(capsys):
    res = assemble_transform(None, 3, "paper")
    assert res.reason == ""
    assert [str(t) for t in twist_frames(None, 3)] == ["(0|0,0|0)", "(0||0|0|0)"]
    c = res.complex_
    assert c.ranks() == (1, 6, 15, 18, 8)
    assert alternating_sum(c.ranks()) == 0
    assert (c.q_row, c.start_p) == (0, 0)
    assert c.claims == (1, 0, 1, 0, 0)
    assert c.claim_tags == {0: "constants", 2: "Kaehler form"}
    assert main(["transform"]) == 0
    [line] = [x for x in capsys.readouterr().out.splitlines() if x.startswith("0 -> ")]
    assert line.startswith("0 -> (0||0,0,0) ->") and line.endswith("-> 0")


def test_twist_may_be_given_in_either_frame():
    on_z = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper")
    on_x = assemble_transform(x_label((0, 1, 0, 0)), 3, "paper")
    assert on_z == on_x  # the claims too: the X twist has the Z form (1|0,0|0)
    assert str(twist_frames(x_label((0, 1, 0, 0)), 3)[0]) == "(1|0,0|0)"


def test_a_column_that_is_not_an_int_is_refused_by_name():
    # True compares as 1 and a float as its value: neither is a column
    twist_x, fib = x_label((0, 1, 0, 0)), registry(3)["mu"]
    for p in (True, False, 1.0, "1", None):
        # None asks e1_page for every column, and twisted_forms for no column
        makes = [lambda: e1_page(twist_x, "paper", p)] if p is not None else []
        makes.append(lambda: twisted_forms(fib, twist_x, p))
        for make in makes:
            with pytest.raises(ArgumentError) as err:
                make()
            assert str(err.value) == f"column p must be an int, got {p!r}"
    assert e1_page(twist_x, "paper", 1).cells == {
        pq: labs for pq, labs in e1_page(twist_x, "paper").cells.items() if pq[0] == 1}
    assert e1_page(twist_x, "paper", None) == e1_page(twist_x, "paper")


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
def test_the_one_pass_page_matches_the_composed_page_on_the_boxes(n):
    # every page and every single column of both benchmark boxes, in both
    # modes, equals the old composition (twist_by, direct_images per column,
    # merge): the same cells in the same order, the same mode, the same log
    # in the same order
    lam = relative_cotangent(registry(n)["mu"])
    columns = [None, *range(rank(lam) + 1)]
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        for mode in MODES:
            for p in columns:
                page, old = e1_page(twist_x, mode, p), composed_e1_page(twist_x, mode, p)
                assert list(page.cells.items()) == list(old.cells.items()), (w, mode, p)
                assert (page.mode, page.log) == (old.mode, old.log), (w, mode, p)
                assert page == old and type(page.cells) is type(old.cells)


def test_a_warm_page_builds_no_twisted_bundle(monkeypatch):
    # the page reduces the memoised untwisted wedges with the twist as their
    # line: once warm, it constructs no FilteredBundle, twists none and merges
    # no tables
    pages = [(pullback_line(z_label(w)), mode, p) for w in ((1, 0, 0, -2), (-4, -2, -2, -4),
                                                            (2, -1, -3), (0, 0, 0))
             for mode in MODES for p in (None, 0, 1, 2)]
    warm = [e1_page(*args) for args in pages]  # warms the memos
    built = []
    post_init = bundles.FilteredBundle.__post_init__
    monkeypatch.setattr(bundles.FilteredBundle, "__post_init__",
                        lambda self: built.append("FilteredBundle") or post_init(self))
    monkeypatch.setattr(bundles.FilteredBundle, "twist_by",
                        lambda self, line: built.append("twist_by"))
    monkeypatch.setattr(DirectImageTable, "merge", lambda tables: built.append("merge"))
    for args, page in zip(pages, warm):
        assert e1_page(*args) == page and built == [], args
    bundles.FilteredBundle("X", 3).twist_by(x_label((0,) * 4))
    DirectImageTable.merge([page])
    assert built == ["FilteredBundle", "twist_by", "merge"]  # the patches are live


X4, X4_LINE, X4_NOT_LINE = x_label((0,) * 5), x_label((1, 1, 2, 2, 3)), x_label((0, 0, 0, 1, 0))
WEDGE = "exterior_power needs line-bundle factors; non-full-flag totals (n >= 4) are not supported"
MODE = "mode must be one of ('paper', 'conservative'), got 'loud'"


@pytest.mark.parametrize("twist_x, mode, p, kind, message", [
    # the twist is checked after the first wedge, as twist_by checked it
    (X4_NOT_LINE, "paper", None, ValueError,
     "twist_by needs a line bundle on X over n=4, got <X (0||0|0,1|0)>"),
    (X4_NOT_LINE, "loud", 1, ValueError,
     "twist_by needs a line bundle on X over n=4, got <X (0||0|0,1|0)>"),
    (z_label((1, 0, 0, 0)), "loud", None, ValueError,
     "twist_by needs a line bundle on X over n=3, got <Z (1|0,0|0)>"),
    # a single column's wedge comes before the twist, every wedge before the mode
    (X4, "paper", 2, ValueError, WEDGE),
    (X4_NOT_LINE, "paper", 2, ValueError, WEDGE),
    (X4, "loud", None, ValueError, WEDGE),
    # the mode comes before each column's factor test, which names the twisted factor
    (X4, "loud", 1, ValueError, MODE),
    (x_label((0,) * 4), "loud", None, ValueError, MODE),
    (X4, "paper", 1, ValueError, "not a line bundle along the fibers: (-1||0|0,1|0)"),
    (X4_LINE, "conservative", 1, ValueError, "not a line bundle along the fibers: (0||1|2,3|3)"),
    # the column's range comes first of all
    (z_label((1, 0, 0, 0)), "loud", 5, ArgumentError, "column p=5 is outside 0..4"),
    (x_label((0,) * 4), "paper", -1, ArgumentError, "column p=-1 is outside 0..4"),
])
def test_the_page_refuses_in_the_composed_page_order(twist_x, mode, p, kind, message):
    for page in (e1_page, composed_e1_page):
        with pytest.raises(ValueError) as err:
            page(twist_x, mode, p)
        assert (type(err.value), str(err.value)) == (kind, message), page


@pytest.mark.parametrize("n", [2, 3])
def test_column_euler_characteristic_matches_the_weyl_oracle(n):
    # each X-factor contributes W(its fiber weight) to its column, singular
    # or not and cancelled or not, with no reduction and no sorting
    reg = registry(n)
    columns = range(len(relative_cotangent(reg["mu"])) + 1)
    counted = nonzero = 0
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        forms = [twisted_forms(reg["mu"], twist_x, p) for p in columns]
        for mode in MODES:
            table = e1_page(twist_x, mode)
            for p, bundle in enumerate(forms):
                euler = sum(weyl_euler(f.weight[1:]) for f in bundle.factors)
                assert euler_rank(table, p) == euler, (w, mode, p)
                counted += 1
                nonzero += euler != 0
    assert counted == {2: 7098, 3: 4050}[n]
    assert nonzero > counted // 2


# every U(n+1) type gamma with entries in [-9, 9]: the page's identity per type
GAMMA_WINDOW = 9


@cache
def _u_types(lab: BundleLabel) -> tuple[tuple[int, ...], ...]:
    """Every gamma in the window whose V_gamma holds the M-label (a||mu):
    gamma_0 runs from the window up to mu_1, each inner gamma_i over
    [mu_i, mu_(i+1)] and gamma_n is fixed by the entry sum; ``restricts_to``
    decides."""
    a, mu = lab.weight[0], lab.weight[1:]
    gammas = ((*head, a + sum(mu) - sum(head))
              for head in product(range(-GAMMA_WINDOW, mu[0] + 1),
                                  *(range(lo, hi + 1) for lo, hi in zip(mu, mu[1:]))))
    return tuple(g for g in gammas if g[-1] <= GAMMA_WINDOW and restricts_to(g, lab))


def _k_type_euler_sums(table: DirectImageTable) -> dict:
    """gamma -> the sum over the cells (p, q) of (-1)^(p+q) times the number of
    the cell's labels inside V_gamma, for every gamma in the window, zeros
    dropped.  The signed sums are kept in a dict: a Counter's unary plus
    would drop the negative ones."""
    sums: dict[tuple[int, ...], int] = {}
    for (p, q), labels in table.cells.items():
        for lab in labels:
            for gamma in _u_types(lab):
                sums[gamma] = sums.get(gamma, 0) + (-1) ** (p + q)
    return {gamma: s for gamma, s in sums.items() if s}


def test_the_interlacing_rule_splits_each_irreducible_by_rank():
    # V_gamma restricted to U(1) x U(n) is the sum of the M-types (a||mu) that
    # restricts_to admits, so their ranks add up to the rank of V_gamma
    for n in (2, 3):
        for gamma in combinations_with_replacement(range(-2, 3), n + 1):
            split = sum(count_rank(mu)
                        for mu in combinations_with_replacement(range(-2, 3), n)
                        if restricts_to(gamma, m_label((sum(gamma) - sum(mu), *mu))))
            assert split == count_rank(gamma), gamma
    assert restricts_to((0, 0, 1), m_label((1, 0, 0))) and restricts_to((0, 0, 1), m_label((0, 0, 1)))
    assert not restricts_to((0, 0, 1), m_label((0, 0, 0)))  # |gamma| - |mu| is 1
    assert not restricts_to((0, 0, 1), m_label((-1, 1, 1)))  # 1 sits above gamma's 0
    assert not restricts_to((0, 0, 1), z_label((1, 0, 0)))  # only M-labels restrict


@pytest.mark.parametrize("n", [2, 3])
def test_each_u_type_of_the_page_sums_to_the_twist_cohomology(n):
    # sum over the cells of (-1)^(p+q) times the labels of cell (p, q) inside
    # V_gamma equals sum_i (-1)^(q_Z + i) b_i [gamma = dom], where (q_Z, dom)
    # reduces the Z-weight and b_i are the Betti numbers of the Z-leg's fiber
    # P^(n-2): the page computes the twist's cohomology through the
    # involutive complex.  The expected side reads no engine code.
    betti = flag_betti((1, n - 2))
    nonzero = 0
    for w in TWIST_BOXES[n]:
        expected: dict[tuple[int, ...], int] = {}
        if (reduced := brute_reduce(w)) is not None:
            q_z, dom = reduced
            assert max(map(abs, dom)) <= GAMMA_WINDOW, w  # the window holds every prediction
            expected[dom] = sum((-1) ** (q_z + i) * b for i, b in enumerate(betti))
            nonzero += 1
        twist_x = pullback_line(z_label(w))
        for mode in MODES:
            assert _k_type_euler_sums(e1_page(twist_x, mode)) == expected, (w, mode)
    assert nonzero == {2: 938, 3: 225}[n]


@cache
def _collapsed(n: int) -> tuple:
    """(twist weight, mode, complex) for every twist of the box whose page
    collapses, in both modes."""
    return tuple((w, mode, cx) for w in TWIST_BOXES[n] for mode in MODES
                 if (cx := assemble_transform(z_label(w), n, mode).complex_) is not None)


def _term_multiplicities(terms) -> dict:
    """gamma -> [the number of labels of term i inside V_gamma, for each i],
    for every gamma in the window that some term holds."""
    m: dict[tuple[int, ...], list[int]] = {}
    for i, term in enumerate(terms):
        for lab in term:
            for gamma in _u_types(lab):
                m.setdefault(gamma, [0] * len(terms))[i] += 1
    return m


def _predicted_multiplicities(w, n: int, cx: ComplexOnM) -> dict:
    """gamma -> [the multiplicity of V_gamma in the cohomology at term i]: by
    the involutive complex, b_(r - q_Z) copies of V_dom in total degree r,
    where (q_Z, dom) reduces the Z-weight and b are the Betti numbers of the
    Z-leg's fiber P^(n-2).  Reads brute_reduce and flag_betti only, and the
    complex's place in its table."""
    if (reduced := brute_reduce(w)) is None:
        return {}
    q_z, dom = reduced
    betti = flag_betti((1, n - 2))
    degrees = [cx.start_p + cx.q_row + i - q_z for i in range(len(cx.terms))]
    return {dom: [betti[d] if 0 <= d < len(betti) else 0 for d in degrees]}


def _map_ranks(ms: list, hs: list) -> list:
    """The ranks r_i = m_i - h_i - r_(i-1) that the maps out of positions
    0, 1, ... must have, given m_i copies of a type at position i and h_i in
    the cohomology there."""
    ranks, r = [], 0
    for m_i, h_i in zip(ms, hs):
        r = m_i - h_i - r
        ranks.append(r)
    return ranks


def _rank_feasible(m: dict, h: dict, length: int) -> bool:
    """Whether, for every gamma, the ranks r_i = m_i - h_i - r_(i-1) that the
    maps of a complex of this length restricted to V_gamma must have are >= 0
    and the last one is 0."""
    zeros = [0] * length
    return all(min(ranks := _map_ranks(m.get(gamma, zeros), h.get(gamma, zeros))) >= 0
               and not ranks[-1] for gamma in m.keys() | h.keys())


@pytest.mark.parametrize("n", [2, 3])
def test_each_collapsed_complex_is_tight_and_rank_feasible(n):
    # per U(n+1)-type gamma, term i holds V_gamma m_i times and the predicted
    # cohomology there holds it h_i times.  Tight: wherever the prediction is
    # nonzero, term i holds V_dom exactly h_i times.  Rank feasible: every
    # gamma's implied ranks r_i = m_i - h_i - r_(i-1) are >= 0 and end at 0.
    tight = 0
    for w, mode, cx in _collapsed(n):
        m, h = _term_multiplicities(cx.terms), _predicted_multiplicities(w, n, cx)
        for gamma, hs in h.items():
            if any(hs):
                assert m.get(gamma) == hs, (w, mode)
                tight += 1
        assert _rank_feasible(m, h, len(cx.terms)), (w, mode)
    assert tight == {2: 2 * 938, 3: 2 * 225}[n]


def test_rank_feasibility_catches_a_label_moved_two_terms_down():
    # moving the first label of term 0 to term 2 keeps every per-type Euler
    # number, so only the ranks can tell; they do on a third of the paper-mode
    # and on more than half of the conservative n = 3 complexes
    caught = {mode: 0 for mode in MODES}
    for w, mode, cx in _collapsed(3):
        terms = [list(term) for term in cx.terms]
        terms[2].append(terms[0].pop(0))
        m, h = _term_multiplicities(terms), _predicted_multiplicities(w, 3, cx)
        euler = {gamma: sum((-1) ** i * x for i, x in enumerate(ms)) for gamma, ms in m.items()}
        assert euler == {gamma: sum((-1) ** i * x for i, x in enumerate(ms))
                         for gamma, ms in _term_multiplicities(cx.terms).items()}, (w, mode)
        caught[mode] += not _rank_feasible(m, h, len(terms))
    assert {mode: sum(m == mode for _w, m, _cx in _collapsed(3)) for mode in MODES} == \
        {"paper": 365, "conservative": 225}
    assert caught == {"paper": 125, "conservative": 125}


# per n and mode: (pages that do not collapse, types with a nonzero k_r, the
# types forced uniquely split by the page r' = p' - p of each nonzero k_r)
FORCED = {
    2: {"paper": (77, 532, {(2,): 532}), "conservative": (77, 532, {(2,): 532})},
    3: {"paper": (40, 628, {(2,): 324}),
        "conservative": (180, 6716, {(1,): 1484, (1, 1): 1492, (2,): 236, (0, 2): 44,
                                     (2, 0): 44})},
}


@pytest.mark.parametrize("n", [2, 3])
def test_each_u_type_of_a_page_that_does_not_collapse_forces_its_differentials(n):
    # per U(n+1)-type gamma, the cells of total degree r = p + q hold V_gamma
    # m_r times and the abutment h_r = b_(r - q_Z) [gamma = dom] times, so the
    # differentials out of degree r have rank k_r = m_r - h_r - k_(r-1): each
    # >= 0 and the last 0, with some k_r > 0 on every page.  A type is forced
    # uniquely when each nonzero k_r has one source and one target cell, and
    # then (p, q) -> (p', q') is a d_(p' - p).  The abutment reads
    # brute_reduce and flag_betti only.
    betti = flag_betti((1, n - 2))
    found: dict = {}
    for w in TWIST_BOXES[n]:
        reduced = brute_reduce(w)
        for mode in MODES:
            if (res := assemble_transform(z_label(w), n, mode)).complex_ is not None:
                continue
            cells = res.table.cells
            length = 1 + max(max(p + q for p, q in cells),
                             reduced[0] + len(betti) - 1 if reduced else 0)
            m: dict = {}
            where: dict = {}  # gamma -> the columns p of the cells of each degree holding it
            for (p, q), labels in cells.items():
                for lab in labels:
                    for gamma in _u_types(lab):
                        m.setdefault(gamma, [0] * length)[p + q] += 1
                        where.setdefault(gamma, [set() for _ in range(length)])[p + q].add(p)
            h = {}
            if reduced:
                q_z, dom = reduced
                h[dom] = [betti[r - q_z] if 0 <= r - q_z < len(betti) else 0
                          for r in range(length)]
            assert _rank_feasible(m, h, length), (w, mode)
            pages, types, unique = found.get(mode, (0, 0, Counter()))
            forcing = 0
            for gamma, ms in m.items():
                ks = _map_ranks(ms, h.get(gamma, [0] * length))
                if not any(ks):
                    continue
                forcing += 1
                cols = where[gamma]
                steps = [(cols[r], cols[r + 1]) for r, k in enumerate(ks) if k]
                if all(len(src) == len(tgt) == 1 for src, tgt in steps):
                    unique[tuple(min(tgt) - min(src) for src, tgt in steps)] += 1
            assert forcing, (w, mode)
            found[mode] = pages + 1, types + forcing, unique
    assert found == FORCED[n]


def _h_type_sums(terms, types=stabilizer_types) -> dict:
    """tau -> the sum over the terms i of (-1)^i times the number of labels of
    term i holding the stabilizer type tau, zeros dropped; a signed dict."""
    sums: dict = {}
    for i, term in enumerate(terms):
        for lab in term:
            for tau in types(lab):
                sums[tau] = sums.get(tau, 0) + (-1) ** i
    return {tau: s for tau, s in sums.items() if s}


def _opposite_charge(lab: BundleLabel) -> frozenset:
    """The types with the sign of the charge flipped: (a - |mu| + |nu|; nu)."""
    return frozenset((2 * lab.weight[0] - t, nu) for t, nu in stabilizer_types(lab))


def test_stabilizer_types_split_each_label_by_rank():
    # (a||mu) restricted to U(1) x U(n-1) is the sum of its types, so the
    # ranks of their nu add up to the rank of mu, and each type's charge
    # carries the entry sum
    for n in (2, 3):
        for w in product(range(-2, 3), repeat=n + 1):
            if w[1:] == tuple(sorted(w[1:])):
                types = stabilizer_types(m_label(w))
                assert sum(count_rank(nu) for _t, nu in types) == count_rank(w[1:]), w
                assert all(t + sum(nu) == sum(w) for t, nu in types), w
    assert stabilizer_types(m_label((1, -1, 0, 2))) == {(3, (-1, 0)), (2, (-1, 1)), (1, (-1, 2)),
                                                       (2, (0, 0)), (1, (0, 1)), (0, (0, 2))}


@pytest.mark.parametrize("n", [2, 3])
def test_every_stabilizer_type_of_a_collapsed_complex_sums_to_zero(n):
    # the symbol sequence of an elliptic complex is exact at the covector
    # (1||-1,0,...,0) and commutes with its stabilizer H, so each H-type's
    # alternating count vanishes; with the charge's sign flipped none balance
    opposite = 0
    for w, mode, cx in _collapsed(n):
        assert _h_type_sums(cx.terms) == {}, (w, mode)
        opposite += _h_type_sums(cx.terms, _opposite_charge) == {}
    assert opposite == 0


def _corpus_complexes() -> list:
    """(case, complex) for the corpus's check, form_complex and adjoint
    cases, each complex built as the corpus runner builds it."""
    cases = [case for path in sorted((SRC / "flagcalc" / "fixtures").glob("*.json"))
             for case in json.loads(path.read_text(encoding="utf-8"))["cases"]
             if case["op"] in ("check", "form_complex", "adjoint")]
    assert sorted(Counter(case["op"] for case in cases).items()) == \
        [("adjoint", 1), ("check", 3), ("form_complex", 1)]
    out = []
    for case in cases:
        if case["op"] == "form_complex":
            types = [tuple(FormType(*ft) for ft in term) for term in case["types"]]
            cx = complex_from_form_types(types, case["n"])
        else:
            twist = label_from_string(case["twist"], "Z") if "twist" in case else None
            cx = assemble_transform(twist, case["n"], case["mode"]).complex_
            cx = formal_adjoint(cx) if case["op"] == "adjoint" else cx
        out.append((case, cx))
    return out


def test_the_corpus_complexes_balance_every_stabilizer_type():
    for case, cx in _corpus_complexes():
        assert _h_type_sums(cx.terms) == {}, case


# (kind, mode) -> (mutants made, mutants check_ellipticity passes) on each box;
# at n = 2 both modes collapse to the same complexes
MUTANTS = {
    2: {("conjugate", "paper"): (3934, 2044), ("a+2", "paper"): (4270, 2212),
        ("conjugate", "conservative"): (3934, 2044), ("a+2", "conservative"): (4270, 2212)},
    3: {("conjugate", "paper"): (3824, 3128), ("a+2", "paper"): (4020, 3286),
        ("conjugate", "conservative"): (3096, 2700), ("a+2", "conservative"): (3252, 2834)},
}


@pytest.mark.parametrize("n", [2, 3])
def test_the_stabilizer_types_catch_every_rank_preserving_mutant(n):
    # each label of each collapsed complex in turn, swapped for its conjugate
    # (a||-mu reversed) or for (a+2||mu): the ranks stay, the per-type sums
    # catch every mutant, and check_ellipticity passes about half of them
    kinds = {"conjugate": lambda w: (w[0], *(-x for x in reversed(w[1:]))),
             "a+2": lambda w: (w[0] + 2, *w[1:])}
    types = cache(stabilizer_types)
    tally: dict[tuple[str, str], tuple[int, int]] = {}
    for w, mode, cx in _collapsed(n):
        for i, term in enumerate(cx.terms):
            for j, lab in enumerate(term):
                for kind, swap in kinds.items():
                    if (new := m_label(swap(lab.weight))) == lab:
                        continue
                    mutant = ComplexOnM((*cx.terms[:i], (*term[:j], new, *term[j + 1:]),
                                         *cx.terms[i + 1:]))
                    assert mutant.ranks() == cx.ranks(), (w, mode, new)
                    assert _h_type_sums(mutant.terms, types) != {}, (w, mode, new)
                    made, passed = tally.get((kind, mode), (0, 0))
                    tally[kind, mode] = made + 1, passed + check_ellipticity(mutant).passed
    assert tally == MUTANTS[n]


@pytest.mark.parametrize("n", [2, 3])
def test_each_collapsed_complex_meets_the_symbol_rank_bound(n):
    # per stabilizer type, the ranks that exactness at the covector forces
    # fit in the Pieri-admissible pairs of each arrow
    types, admissible = cache(stabilizer_types), cache(pieri_admissible)
    for w, mode, cx in _collapsed(n):
        assert symbol_rank_bound(cx.terms, admissible, types) == (), (w, mode)
    assert len(_collapsed(n)) == {2: 2212, 3: 590}[n]


def test_the_corpus_complexes_meet_the_symbol_rank_bound():
    for case, cx in _corpus_complexes():
        assert symbol_rank_bound(cx.terms) == (), case


# (kind, mode) -> (mutants made, caught by per-type rank feasibility, caught
# by the symbol rank bound, passed by check_ellipticity) on each box.  A pair
# mutant adds a copy of term i's first label to terms i and i+1, an L -> L
# arrow; a two-down mutant moves one label of term i to term i+2.  At n = 2
# both modes collapse to the same complexes.
RANK_MUTANTS = {
    2: {("pair", "paper"): (2058, 0, 1421, 2058), ("two-down", "paper"): (952, 0, 0, 0),
        ("pair", "conservative"): (2058, 0, 1421, 2058),
        ("two-down", "conservative"): (952, 0, 0, 0)},
    3: {("pair", "paper"): (1252, 0, 762, 1252), ("two-down", "paper"): (2505, 94, 94, 2160),
        ("pair", "conservative"): (868, 0, 458, 868),
        ("two-down", "conservative"): (2157, 46, 46, 1952)},
}


def _rank_mutants(terms):
    """(kind, mutant terms) for each pair and each two-down mutant."""
    for i in range(len(terms) - 1):
        lab = terms[i][0]
        yield "pair", (*terms[:i], (*terms[i], lab), (*terms[i + 1], lab), *terms[i + 2:])
    for i in range(len(terms) - 2):
        for j, lab in enumerate(terms[i]):
            yield "two-down", (*terms[:i], (*terms[i][:j], *terms[i][j + 1:]), terms[i + 1],
                               (*terms[i + 2], lab), *terms[i + 3:])


@pytest.mark.parametrize("n", [2, 3])
def test_the_symbol_rank_bound_catches_mutants_the_euler_sums_miss(n):
    # neither kind moves a per-type Euler number; rank feasibility is a
    # violation with r_i < 0 or in the last term, where no map leaves
    types, admissible = cache(stabilizer_types), cache(pieri_admissible)
    tally: dict[tuple[str, str], tuple[int, int, int, int]] = {}
    for w, mode, cx in _collapsed(n):
        for kind, terms in _rank_mutants(cx.terms):
            assert _h_type_sums(terms, types) == {}, (w, mode, kind)
            bad = symbol_rank_bound(terms, admissible, types)
            feasible = all(r >= 0 and i < len(terms) - 1 for _tau, i, r, _nu in bad)
            passed = all(terms) and check_ellipticity(ComplexOnM(terms)).passed
            made, infeasible, caught, passes = tally.get((kind, mode), (0, 0, 0, 0))
            tally[kind, mode] = (made + 1, infeasible + (not feasible), caught + bool(bad),
                                 passes + passed)
    assert tally == RANK_MUTANTS[n]


@pytest.mark.parametrize("n", [2, 3])
def test_labels_built_unchecked_pass_full_validation(n):
    # a twisted bundle builds each factor from its shift when read, through
    # the public constructor; on the twist boxes that must equal tensor_line,
    # factor by factor
    mu, trivial = registry(n)["mu"], trivial_label("X", n)
    untwisted = [twisted_forms(mu, trivial, p) for p in range(len(relative_cotangent(mu)) + 1)]
    for w in TWIST_BOXES[n]:
        twist_x = pullback_line(z_label(w))
        for p, bundle in enumerate(untwisted):
            expected = tuple(tensor_line(f, twist_x) for f in bundle.factors)
            assert bundle.twist_by(twist_x).factors == expected, (w, p)


def _shifted(lab: BundleLabel, b: int) -> BundleLabel:
    return BundleLabel(lab.space, tuple(x + b for x in lab.weight))


@pytest.mark.parametrize("n", [2, 3])
def test_the_e1_page_is_equivariant_under_characters(n):
    # tensoring by det^b, the Z-line (b|b,...,b|b), shifts every label on M by
    # (b||b,...,b): the page of (a|b^(n-1)|c) is the page of (a-b|0^(n-1)|c-b)
    # with every label shifted, cancels the same pairs and collapses alike
    shifted = {mode: 0 for mode in MODES}
    for w in TWIST_BOXES[n]:
        b = w[1]
        base = (w[0] - b, *(0,) * (n - 1), w[-1] - b)
        for mode in MODES:
            res, base_res = (assemble_transform(z_label(t), n, mode) for t in (w, base))
            assert res.table.cells == {
                pq: tuple(_shifted(lab, b) for lab in labs)
                for pq, labs in base_res.table.cells.items()
            }, (w, mode)
            assert [r.applied for r in res.table.log] == \
                [r.applied for r in base_res.table.log], (w, mode)
            assert (res.complex_ is None) == (base_res.complex_ is None), (w, mode)
            shifted[mode] += b != 0 and bool(res.table.cells)
    assert all(count > len(TWIST_BOXES[n]) // 2 for count in shifted.values()), shifted


@pytest.mark.parametrize("n", [2, 3])
def test_the_collapse_locus_on_the_twist_plane(n):
    # the twists (x|0,...,0|y), |x|, |y| <= 14, regular when weight + rho has
    # no repeated entry: every regular line collapses in both modes, and the
    # lines that do not are the wall x - y = n (where the first and last
    # entries of weight + rho meet), with two more points at n = 3 in paper
    # mode and every singular line at n = 3 in conservative mode
    window = range(-14, 15)
    singular = {(x, y) for x in window for y in window
                if brute_reduce((x, *(0,) * (n - 1), y)) is None}
    assert len(window) ** 2 - len(singular) == {2: 758, 3: 705}[n]
    wall = {(x, y) for x in window for y in window if x - y == n}
    expected = {
        (2, "paper"): wall, (2, "conservative"): wall,
        (3, "paper"): wall | {(1, -1), (2, -2)}, (3, "conservative"): singular,
    }
    for mode in MODES:
        stuck = {(x, y) for x in window for y in window
                 if assemble_transform(z_label((x, *(0,) * (n - 1), y)), n, mode).complex_ is None}
        assert stuck <= singular, (mode, sorted(stuck - singular))
        assert stuck == expected[n, mode], (mode, sorted(stuck ^ expected[n, mode]))
    assert len(wall) == {2: 27, 3: 26}[n] and wall <= singular


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_canonical_line_has_one_dimensional_top_cohomology(n):
    # dim Z = 2n - 1, and Serre duality pairs H^(2n-1)(K_Z) with H^0(O)
    assert global_cohomology(canonical_line(n)) == (2 * n - 1, trivial_label("fiber", n))


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
        other = tensor_line(dual(twist), canonical_line(n))
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
    assert involutive_cohomology(label) == expected


def test_involutive_cohomology_refuses_other_twists():
    for twist in ((3, 0, 0, -3), (0, 0, 0, 2)):
        with pytest.raises(ValueError) as err:
            involutive_cohomology(z_label(twist))
        assert type(err.value) is ValueError
        assert str(err.value) == (
            f"no pinned row-cohomology rule for twist {z_label(twist)}; "
            "only the trivial and hyperplane twists are known to collapse")


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
    check = _run_case({"op": "check", "n": 3, "twist": "(1|0,0|0)"})
    assert check["unreachable"] == [{"arrow": 0, "targets": ["(1||0,0,0)"]}]


def test_the_unreachable_targets_are_the_next_term_less_the_admissible_ones():
    # the corpus check op's projection, on every collapsed complex of the box
    for w, mode, cx in _collapsed(3):
        want = []
        for arrow in check_ellipticity(cx).arrows:
            hit = {t for _s, t in arrow.admissible}
            if missing := set(cx.terms[arrow.index + 1]) - hit:
                want.append({"arrow": arrow.index, "targets": sorted(map(str, missing))})
        check = _run_case({"op": "check", "n": 3, "twist": str(z_label(w)), "mode": mode})
        assert check["unreachable"] == want, (w, mode)


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
    # boxes, in both modes, lands on the same side in the same order; a
    # complex with a one-label first term is realized exactly when its first
    # arrow is wholly admissible, with every Pieri step of it as a target
    complexes = pairs = admissible = 0
    realized = Counter()
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
            if len(cx.terms[0]) != 1:
                continue
            [source], targets = cx.terms[0], cx.terms[1]
            if not all(pieri_admissible(source, t) for t in targets):
                with pytest.raises(ValueError, match="needs an admissible first arrow"):
                    emit_realization(cx)
                realized[mode, "refused"] += 1
                continue
            rep = emit_realization(cx)
            a = source.weight[0]
            assert (rep.degree, rep.source) == (cx.q_row, source), (w, mode)
            assert rep.dbar_targets + rep.d_targets == tuple(
                sorted(targets, key=lambda t: t.weight[0])), (w, mode)
            assert all(t.weight[0] == a - 1 for t in rep.dbar_targets + rep.dbar_full)
            assert all(t.weight[0] == a + 1 for t in rep.d_targets + rep.d_full)
            assert sorted(rep.dbar_full + rep.d_full) == sorted(pieri_tensor(source))
            realized[mode, "accepted"] += 1
    # n = 3 in paper mode alone: 365 complexes and 11,390 pairs
    assert (complexes, pairs, admissible) == {2: (2212, 8232, 8232),
                                              3: (590, 21804, 14628)}[n]
    assert realized == {
        2: {("paper", "accepted"): 1022, ("conservative", "accepted"): 1022},
        3: {("paper", "accepted"): 325, ("conservative", "accepted"): 205,
            ("paper", "refused"): 20},
    }[n]


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


def _oracle_ranks(terms) -> tuple[int, ...]:
    """Each term's rank, with no engine kernel: per label, the product of the
    loop Weyl ranks of its blocks."""
    return tuple(sum(prod(loop_weyl_rank(part) for part in block_slices(b.space, b.weight))
                     for b in term) for term in terms)


@pytest.mark.parametrize("n", [2, 3])
def test_complex_ranks_match_the_loop_weyl_oracle_on_the_boxes(n):
    # every collapsed complex of the benchmark boxes, in both modes, term by
    # term; the symbol check reports the same ranks
    for w, mode, cx in _collapsed(n):
        want = _oracle_ranks(cx.terms)
        assert cx.ranks() == want, (w, mode)
        assert check_ellipticity(cx).ranks == want, (w, mode)
    assert len(_collapsed(n)) == {2: 2212, 3: 590}[n]


def test_complex_ranks_look_up_one_kernel_per_run_of_a_block_shape(monkeypatch):
    # terms that mix M-labels over n = 2 and n = 3 and an X-label: the kernel
    # is looked up again exactly where the block shape changes
    terms = (
        (m_label((0, 0, 1)), m_label((1, -1, 2)), m_label((1, -1, 0, 0))),
        (m_label((2, -1, 0, 1)), x_label((0, 1, 2, 3)), x_label((5, 1, 0, 3))),
        (m_label((0, -2, 1)), m_label((0, 0, 0, 1))),
    )
    looked_up = []
    kernel = transform._rank_kernel
    monkeypatch.setattr(transform, "_rank_kernel",
                        lambda blocks: looked_up.append(blocks) or kernel(blocks))
    cx = ComplexOnM(terms)
    assert cx.ranks() == _oracle_ranks(terms) == (2 + 4 + 3, 8 + 1 + 1, 4 + 3)
    assert looked_up == [(1, 2), (1, 3), (1, 1, 1, 1), (1, 2), (1, 3)]
    assert [rank(b) for b in terms[0]] == [2, 4, 3]  # one label still goes through rank


def test_symbol_check_puts_a_target_off_the_common_case_among_the_inadmissible():
    # targets with the source's first-entry step and entry sum, over another
    # n or on X, fail the test before the pair scan reads their GL(n)
    # parts, so no part of another length is unpacked
    s = m_label((0, -1, 0, 1))
    step = m_label((1, -1, 0, 0))  # the Pieri step mu - e_3
    off = (m_label((1, -1, 0)), m_label((1, -1, 0, 0, 0)), m_label((-1, 0, 0, 0, 1)),
           x_label((1, -1, 0, 0)))
    assert all(t.weight[0] in (-1, 1) and sum(t.weight) == 0 for t in (step, *off))
    arrow, = check_ellipticity(ComplexOnM(((s,), (off[0], step, *off[1:])), 0, 0)).arrows
    assert arrow.admissible == ((s, step),)
    assert arrow.inadmissible == tuple((s, t) for t in off)
    assert (arrow.admissible, arrow.inadmissible) == _arrow_partition((s,), (off[0], step, *off[1:]))


def test_symbol_check_scans_sources_of_mixed_n_at_their_own_length():
    # sources over n = 2 and n = 3 alternate inside a term and across terms:
    # each is scanned at its own GL(n) length, and each pair lands on the side
    # the Pieri membership oracle puts it, in order
    terms = (
        (m_label((0, 0, 0)), m_label((0, 0, 0, 0)), m_label((1, -1, 0))),
        (m_label((1, -1, 0)), m_label((-1, 0, 0, 1)), m_label((-1, 0, 1)), m_label((0, -1, 1))),
        (m_label((0, 0, 0)), m_label((0, -1, 0, 1)), m_label((2, -2, 0))),
    )
    rep = check_ellipticity(ComplexOnM(terms))
    for i, arrow in enumerate(rep.arrows):
        assert (arrow.admissible, arrow.inadmissible) == _arrow_partition(terms[i], terms[i + 1])
    assert [len(a.admissible) for a in rep.arrows] == [4, 4]


def test_symbol_check_over_the_kernels_bound_refuses_as_the_rank_does():
    # a GL(n) part too long for a kernel is a label the ranks refuse, after
    # every arrow: a source off the base in a later term is refused first
    s, t = m_label((0,) * (MAX_N + 3)), m_label((1, -1) + (0,) * (MAX_N + 1))
    too_long = rf"a weight has at most {MAX_N + 1} entries \(n <= {MAX_N}\), got {MAX_N + 3}$"
    with pytest.raises(ArgumentError, match=too_long):
        check_ellipticity(ComplexOnM(((s,), (t,)), 0, 0))
    with pytest.raises(ValueError, match="expects base-space labels, got <X"):
        check_ellipticity(ComplexOnM(((s,), (t, x_label((0,) * 4)), (m_label((0,) * 4),)), 0, 0))


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


def test_realization_projects_the_first_arrow_of_the_check():
    rep = emit_realization(assemble_transform(canonical_line(3), 3, "paper").complex_)
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

    # the trivial twist presents its constants, with nothing projected away
    rep = emit_realization(assemble_transform(None, 3).complex_)
    assert (rep.degree, str(rep.source)) == (0, "(0||0,0,0)")
    assert rep.dbar_targets == rep.dbar_full == (m_label((-1, 0, 0, 1)),)
    assert rep.d_targets == rep.d_full == (m_label((1, -1, 0, 0)),)
    # K_Z at n = 2
    rep = emit_realization(assemble_transform(canonical_line(2), 2).complex_)
    assert (rep.degree, str(rep.source)) == (1, "(0||-1,1)")
    assert [str(b) for b in rep.dbar_targets + rep.d_targets] == ["(-1||0,1)", "(1||-1,0)"]
    # the hyperplane twist's first arrow steps (-2||1,1,1) -> (1||0,0,0) by +3
    hyperplane = assemble_transform(z_label((1, 0, 0, 0)), 3, "paper").complex_
    with pytest.raises(ValueError, match=r"first arrow, but \(-2\|\|1,1,1\) -> \(1\|\|0,0,0\) "
                                         "is not a Pieri step"):
        emit_realization(hyperplane)
    # a first term of two labels, a complex of one term, or of none, has no presentation
    head = "realization needs a first arrow out of a one-label term, got "
    for terms, got in (
            (((m_label((1, -1, 0, 0)), m_label((-1, 0, 0, 1))), (m_label((0,) * 4),)),
             "2 label(s) in the first of 2 term(s)"),
            (((m_label((0,) * 4),),), "1 label(s) in the first of 1 term(s)"),
            ((), "0 term(s)")):
        with pytest.raises(ValueError) as err:
            emit_realization(ComplexOnM(terms))
        assert str(err.value) == head + got
