"""End-to-end assembly of the transform and the checks on its output.

Feeding a line-bundle twist through the machinery means:

1. pull the twist back from the twistor space (twist_frames),
2. read its first page, built whole by bbw.e1_page, and
3. when that first-page table is concentrated in a single
   fiber degree q with contiguous nonempty columns, read off the
   complex of irreducible bundles on the base (assemble_transform).

The engine never guesses: a table that fails the concentration test is
returned as a table, with the offending columns named.

The form dictionary at the bottom splits the (p,q)-form bundles on the
base into irreducibles for every n by the Pieri rule: L(p,q) has one
constituent (p-q || -1^(p-k), 0^(n-p-q+2k), 1^(q-k)) for each
k = max(0, p+q-n) .. min(p, q).  It powers the form-type annotations,
the formal adjoint, and the comparison complexes.  "perp" marks the
primitive part, the smallest-k constituent (the complement of the
neighbouring diagonal wedged with the Kaehler class).  Naming a term
reads the rule backwards in one pass, linear in the term size, for every
n <= MAX_N: a label lies in at most one L(p,q) of each degree, so the
term splits by owner and each part is a*full + b*perp in at most one way.
"""

from __future__ import annotations

from functools import cache

from .bbw import DirectImageTable, e1_page, global_cohomology
from .bundles import BundleLabel, _rank_kernel, m_label, pieri_tensor, rank, trivial_label
from .geometry import fiber_betti, registry, twist_frames
from .notation import ArgumentError, FrozenDict, Value
from .weights import MAX_N, _pair_scan

__all__ = [
    "FormType",
    "ComplexOnM",
    "TransformResult",
    "ArrowCheck",
    "EllipticityReport",
    "RealizationReport",
    "assemble_transform",
    "involutive_cohomology",
    "check_ellipticity",
    "alternating_sum",
    "formal_adjoint",
    "form_dictionary",
    "complex_from_form_types",
    "annotate_form_types",
    "emit_realization",
]


# ----------------------------------------------------------- complexes

_ROLE_SUFFIX = {"full": "", "perp": "_perp", "kappa": "_kappa"}


class FormType(Value, order=True):
    """Name of a summand of the (p,q)-forms: full bundle, primitive
    part ("perp"), or the Kaehler line inside a diagonal bundle."""

    p: int
    q: int
    role: str

    def __post_init__(self):
        # True compares as 1 and 1.0 as 1, but neither names a form degree
        if type(self.p) is not int or type(self.q) is not int:
            name, x = ("p", self.p) if type(self.p) is not int else ("q", self.q)
            raise ArgumentError(f"form-type {name} must be an int, got {x!r}")
        if self.role not in _ROLE_SUFFIX:
            raise ValueError(f"form-type role must be one of {tuple(_ROLE_SUFFIX)}, "
                             f"got {self.role!r}")

    def __str__(self) -> str:
        return f"L({self.p},{self.q}){_ROLE_SUFFIX[self.role]}"


def alternating_sum(ranks) -> int:
    """r0 - r1 + r2 - ...: the Euler characteristic of a complex of ranks."""
    return sum((-1) ** i * r for i, r in enumerate(ranks))


class ComplexOnM(Value):
    """A complex of direct sums of irreducible bundles on the base.

    ``claims[i]`` is the asserted cohomology dimension at position i
    (None when nothing is asserted); ``q_row``/``start_p`` remember
    where the terms sat in the first-page table they collapsed from.
    """

    terms: tuple[tuple[BundleLabel, ...], ...]
    q_row: int | None = None
    start_p: int | None = None
    form_types: tuple[tuple[FormType, ...], ...] | None = None
    claims: tuple[int, ...] | None = None
    claim_tags: dict[int, str] | None = None

    def ranks(self) -> tuple[int, ...]:
        """Each term's rank: the rank kernel of a block shape is looked up once
        per run of labels with that very blocks tuple, then called per label."""
        out, blocks, kernel = [], None, None
        for term in self.terms:
            total = 0
            for b in term:
                if b.blocks is not blocks:
                    blocks = b.blocks
                    kernel = _rank_kernel(blocks)
                total += kernel(b.weight)
            out.append(total)
        return tuple(out)


class TransformResult(Value):
    table: DirectImageTable
    complex_: ComplexOnM | None
    reason: str            # empty when a complex was emitted
    mode: str


def assemble_transform(twist=None, n: int = 3, mode: str = "paper") -> TransformResult:
    """Run the whole pipeline for one twist; collapse when honest."""
    twist_z, twist_x = twist_frames(twist, n)
    table = e1_page(twist_x, mode)

    ps = sorted({p for p, _q in table.cells})
    qs = sorted({q for _p, q in table.cells})
    reason = ""
    if not table.cells:
        reason = "every direct image vanishes"
    elif len(qs) != 1:
        bad = [p for p in ps if sum(pp == p for pp, _q in table.cells) > 1]
        reason = f"no collapse: columns p={bad or ps} spread over degrees q={qs}"
    elif ps != list(range(ps[0], ps[-1] + 1)):
        reason = f"no collapse: nonempty columns {ps} are not contiguous"
    if reason:
        return TransformResult(table, None, reason, mode)

    q0 = qs[0]
    cells = table.cells
    terms = tuple([cells[p, q0] for p in ps])  # ps is contiguous, each cell in row q0
    claims = claim_tags = None
    if twist_z is not None and _has_involutive_rule(twist_z):
        inv = involutive_cohomology(twist_z)
        claims = tuple(inv.get(ps[0] + i + q0, 0) for i in range(len(terms)))
        if all(x == 0 for x in twist_z.weight):
            claim_tags = {
                i: ("constants" if ps[0] + i + q0 == 0 else "Kaehler form")
                for i in range(len(terms))
                if claims[i]
            }
    cx = ComplexOnM(
        terms,
        q_row=q0,
        start_p=ps[0],
        form_types=annotate_form_types(terms),
        claims=claims,
        claim_tags=claim_tags,
    )
    return TransformResult(table, cx, "", mode)


# ------------------------------------------------ involutive cohomology

def _has_involutive_rule(twist: BundleLabel) -> bool:
    """The twists whose row cohomology has a pinned rule: the trivial and
    the hyperplane twist (1|0,...,0) on Z."""
    w = twist.weight
    # first entry 0 or 1 and every other entry 0: the zeros then number len(w) - w[0]
    return twist.space == "Z" and (w[0] == 0 or w[0] == 1) and w.count(0) == len(w) - w[0]


def involutive_cohomology(twist: BundleLabel) -> FrozenDict:
    """Cohomology of the involutive complex on the correspondence space,
    as a read-only mapping degree -> dimension; an absent degree means 0.

    The topology spectral sequence of the Z-leg collapses for exactly
    two twists — the trivial one and the hyperplane twist (1|0,...,0) —
    giving H^r = (+)_i H^(r-i)(Z, twist) over the even Betti degrees i
    of the projective-space fiber, where BBW puts H(Z, twist) in a
    single degree.  Anything else has no pinned rule and is refused.
    """
    if twist.space != "Z":
        raise ArgumentError(f"involutive cohomology needs a twist on Z, got {twist!r}")
    if not _has_involutive_rule(twist):
        raise ValueError(
            f"no pinned row-cohomology rule for twist {twist}; "
            "only the trivial and hyperplane twists are known to collapse"
        )
    zcoh = global_cohomology(twist)
    betti = fiber_betti(registry(twist.n)["mu"])
    if zcoh is None:
        return FrozenDict()
    q, module = zcoh
    return FrozenDict({q + i: b * rank(module) for i, b in enumerate(betti) if b})


# ------------------------------------------------------- form dictionary

@cache
def form_dictionary(n: int) -> tuple[FrozenDict, FrozenDict]:
    """(full, perp): the irreducible constituents of the (p,q)-form bundles.

    By Pieri, L(p,q) = (p-q || Lambda^p V* (x) Lambda^q V) over the GL(n)
    block V has one constituent (p-q || -1^(p-k), 0^(n-p-q+2k), 1^(q-k))
    per k = max(0, p+q-n) .. min(p, q).  The primitive part, perp, listed
    where L(p,q) is reducible, is the smallest k: by Lefschetz that is
    full(p,q) - full(p-1,q-1) for p+q <= n, else full(p,q) - full(p+1,q+1).
    Built once per n (2 <= n <= MAX_N) and returned read-only.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"need 2 <= n <= {MAX_N}, got {n}")
    full = {
        (p, q): tuple(
            m_label((p - q, *(-1,) * (p - k), *(0,) * (n - p - q + 2 * k), *(1,) * (q - k)))
            for k in range(max(0, p + q - n), min(p, q) + 1)
        )
        for p in range(n + 1)
        for q in range(n + 1)
    }
    perp = {pq: labs[:1] for pq, labs in full.items() if len(labs) > 1}
    return FrozenDict(full), FrozenDict(perp)


def _labels_for(ft: FormType, n: int) -> tuple[BundleLabel, ...]:
    if ft.role == "kappa" and 0 < ft.p == ft.q < n:
        return (trivial_label("M", n),)  # the Kaehler line
    full, perp = form_dictionary(n)
    labs = {"full": full, "perp": perp}.get(ft.role, {}).get((ft.p, ft.q))
    if labs is None:
        raise ValueError(
            f"no form type {ft} for n={n}: p and q run over 0..{n}, a perp part needs"
            f" a reducible L(p,q), and kappa lies in L(p,p) with 0 < p < {n}"
        )
    return labs


def _pieri_place(lab: BundleLabel) -> tuple[int, int] | None:
    """(i, l) when the label is (i-l || -1^i, 0^(n-i-l), 1^l) on M, else None:
    the Pieri rule read backwards puts such a label in L(i+k, l+k) for each
    k = 0..n-i-l, and a label not of that shape in no L(p,q)."""
    if lab.space != "M":
        return None
    a, mu = lab.weight[0], lab.weight[1:]
    i, l = mu.count(-1), mu.count(1)
    if a != i - l or i + l + mu.count(0) != len(mu):
        return None
    return i, l


def _owner(lab: BundleLabel, d: int) -> tuple[int, int] | None:
    """The L(p,q) of degree d = p+q that holds the label, or None: d fixes
    the k of _pieri_place."""
    if (place := _pieri_place(lab)) is None:
        return None
    i, l = place
    k, odd = divmod(d - i - l, 2)
    if odd or not 0 <= k <= len(lab.weight) - 1 - i - l:
        return None
    return i + k, l + k


def _degrees(lab: BundleLabel) -> range:
    """The degrees d at which the label has an owner: i+l, i+l+2, .., 2n-i-l."""
    if (place := _pieri_place(lab)) is None:
        return range(0)
    low = sum(place)
    return range(low, 2 * (len(lab.weight) - 1) - low + 1, 2)


def _naming(labels: tuple[BundleLabel, ...], d: int, full, perp) -> tuple[FormType, ...] | None:
    """The term with these labels as a sum of a*full(p,q) + b*perp(p,q) over
    the L(p,q) of degree d that own its labels, or None at the first label
    with no owner.  A label lies in at most one L(p,q) of a degree, and the
    constituents of one L(p,q) are distinct, so a and b are read off each
    group's label counts: the naming is the only one.  An owned label is an
    M-label over the dictionary's n, so its weight names it and is what is
    counted."""
    groups: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    for lab in labels:
        if (pq := _owner(lab, d)) is None:
            return None
        got = groups.setdefault(pq, {})
        w = lab.weight
        got[w] = got.get(w, 0) + 1
    out: list[FormType] = []
    for (p, q), got in groups.items():
        labs, prim = full[p, q], perp.get((p, q), ())
        a = min(got.get(lab.weight, 0) for lab in labs if lab not in prim)
        b = got.get(prim[0].weight, 0) - a if prim else 0
        if b < 0 or got != {lab.weight: c for lab in labs if (c := a + b * (lab in prim))}:
            return None
        out += [FormType(p, q, "full")] * a + [FormType(p, q, "perp")] * b
    return tuple(sorted(out))


def _labels_n(terms) -> int:
    """The n that every label of a complex lives over."""
    ns = {len(b.weight) - 1 for term in terms for b in term}
    if len(ns) != 1:
        raise ValueError("form names need labels over one n, got "
                         + (f"labels over n in {sorted(ns)}" if ns else "no label"))
    return ns.pop()


def annotate_form_types(
    terms: tuple[tuple[BundleLabel, ...], ...]
) -> tuple[tuple[FormType, ...], ...] | None:
    """Assign (p,q)-form names to every term, or None when ambiguous.

    Terms must carry consecutive total degrees (the arrows are first
    order): exactly one start degree d0 may name every term i at degree
    d0 + i.  Each term has at most one naming per degree (_naming).  The
    first label, of term j, has an owner only at its _degrees, so the only
    start degrees tried are those less j; an empty term names as () at every
    degree.  n is read from the labels; terms with no label, or over several
    n, are refused.
    """
    n = _labels_n(terms)
    full, perp = form_dictionary(n)
    j, first = next((j, term[0]) for j, term in enumerate(terms) if term)
    starts = range(2 * n + 2 - len(terms))
    chains = []
    for d0 in [d - j for d in _degrees(first) if d - j in starts]:
        chain = []
        for i, term in enumerate(terms):
            if (named := _naming(term, d0 + i, full, perp)) is None:
                break
            chain.append(named)
        else:
            chains.append(tuple(chain))
    return chains[0] if len(chains) == 1 else None


def complex_from_form_types(types, n: int) -> ComplexOnM:
    """Build a comparison complex directly from named form bundles."""
    fts = tuple(tuple(sorted(t)) for t in types)
    terms = tuple(
        tuple(sorted(lab for ft in t for lab in _labels_for(ft, n))) for t in fts
    )
    return ComplexOnM(terms, form_types=fts)


# --------------------------------------------------------- ellipticity

class ArrowCheck(Value):
    index: int
    admissible: tuple[tuple[BundleLabel, BundleLabel], ...]
    inadmissible: tuple[tuple[BundleLabel, BundleLabel], ...]

    @property
    def ok(self) -> bool:
        return bool(self.admissible)


class EllipticityReport(Value):
    ranks: tuple[int, ...]
    alternating_sum: int
    arrows: tuple[ArrowCheck, ...]
    passed: bool


def check_ellipticity(c: ComplexOnM) -> EllipticityReport:
    """Symbol-level consistency of a complex on the base.

    Per arrow, a component (source label -> target label) is admissible
    when the target occurs in the source's Pieri tensor with the
    cotangent generators (a first-order invariant operator can exist);
    the arrow passes when at least one component is admissible, and
    every inadmissible component is reported.  The complex passes when
    all arrows do and the alternating rank sum vanishes.  The Pieri tensor
    of s reaches the dominant labels s + (+-1, -+e_i), so an M-label t (dominant
    already) is admissible when t - s = (+-1, -+e_i) for exactly one i: when the first
    entries differ by one, the entry sums agree and the GL(n) parts differ in one place.
    """
    if not c.terms or not all(c.terms):
        raise ValueError("malformed complex: empty terms")
    # each label's blocks (None off M), first entry, GL(n) part and entry sum,
    # read once per complex, as a source of one arrow and a target of the one
    # before; on M, equal blocks mean equal n, and no target off M has equal blocks
    read = []
    for term in c.terms:
        row = []
        for t in term:
            w = t.weight
            row.append((t, t.blocks if t.space == "M" else None, w[0], w[1:], sum(w)))
        read.append(row)
    arrows, every = [], True
    for i, (sources, targets) in enumerate(zip(read, read[1:])):
        adm, bad = [], []
        for s, blocks, a, mu, total in sources:
            if blocks is None:
                raise ValueError(f"the symbol check expects base-space labels, got {s!r}")
            if len(mu) <= MAX_N + 1:
                _pair_scan(len(mu))(s, blocks, a, mu, total, targets, adm, bad)
            else:  # a label that ranks() refuses below, after every arrow: no verdict is read
                bad += [(s, t[0]) for t in targets]
        every = every and bool(adm)
        arrows.append(ArrowCheck(i, tuple(adm), tuple(bad)))
    ranks = c.ranks()
    total = alternating_sum(ranks)
    return EllipticityReport(ranks, total, tuple(arrows), total == 0 and every)


# ------------------------------------------------------- formal adjoint

def formal_adjoint(c: ComplexOnM) -> ComplexOnM:
    """Reverse the complex and send each L(p,q) summand to L(n-p,n-q).

    Labels are regenerated from the dictionary, so applying the map
    twice restores the original complex (in canonical order).  n is read
    from the labels; a complex with no label, or whose terms cannot be
    annotated, is rejected.
    """
    n = _labels_n(c.terms)
    fts = c.form_types if c.form_types is not None else annotate_form_types(c.terms)
    if fts is None:
        raise ValueError(
            "formal adjoint needs (p,q)-form annotations; "
            "these terms have no unambiguous naming"
        )
    new_types = tuple(
        tuple(sorted(FormType(n - ft.p, n - ft.q, ft.role) for ft in t))
        for t in reversed(fts)
    )
    return complex_from_form_types(new_types, n)


# ---------------------------------------------------------- realization

class RealizationReport(Value):
    """Kernel presentation of the first term of a complex on the base."""

    degree: int
    source: BundleLabel
    dbar_targets: tuple[BundleLabel, ...]
    d_targets: tuple[BundleLabel, ...]
    dbar_full: tuple[BundleLabel, ...]
    d_full: tuple[BundleLabel, ...]


def emit_realization(c: ComplexOnM) -> RealizationReport:
    """The kernel presentation of a collapsed complex's first term.

    A projection of the symbol check's first arrow: its admissible targets
    split into the antiholomorphic (first entry -1) and holomorphic (first
    entry +1) directions, beside the source's full Pieri tensor split the
    same way, so the projection is visible; the degree is the complex's
    row.  A first term of more than one label, and a first arrow with an
    inadmissible pair, are refused.
    """
    if len(c.terms) < 2 or len(c.terms[0]) != 1:
        first = f"{len(c.terms[0])} label(s) in the first of " if c.terms else ""
        raise ValueError("realization needs a first arrow out of a one-label term, got "
                         f"{first}{len(c.terms)} term(s)")
    arrow = check_ellipticity(c).arrows[0]
    if arrow.inadmissible:
        s, t = arrow.inadmissible[0]
        raise ValueError(f"realization needs an admissible first arrow, but {s} -> {t} "
                         "is not a Pieri step")
    source = c.terms[0][0]
    a = source.weight[0]
    targets = [t for _s, t in arrow.admissible]
    pieri = pieri_tensor(source)
    return RealizationReport(
        c.q_row, source,
        *(tuple(t for t in labs if t.weight[0] == a + step)
          for labs, step in ((targets, -1), (targets, 1), (pieri, -1), (pieri, 1))),
    )
