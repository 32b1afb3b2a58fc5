"""End-to-end assembly of the transform and the checks on its output.

Feeding a line-bundle twist through the machinery means:

1. pull the twist back from the twistor space (twist_frames),
2. tensor it onto each wedge power of the relative cotangent bundle of
   the Z-leg (twisted_forms),
3. push every column down the M-leg (e1_page), and
4. when the resulting first-page table is concentrated in a single
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

from collections import Counter
from functools import cache
from types import MappingProxyType

from .bbw import CohomologyResult, DirectImageTable, FrozenDict, direct_images, global_cohomology
from .bundles import (
    BundleLabel,
    FilteredBundle,
    exterior_power,
    m_label,
    pieri_tensor,
    rank,
    trivial_label,
    z_label,
)
from .geometry import MAX_N, Fibration, fiber_betti, registry, relative_cotangent, twist_frames
from .notation import ArgumentError, Value

__all__ = [
    "FormType",
    "ComplexOnM",
    "TransformResult",
    "ArrowCheck",
    "EllipticityReport",
    "RealizationReport",
    "UnsupportedTwistError",
    "twisted_forms",
    "e1_page",
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


class UnsupportedTwistError(ValueError):
    """Raised when no pinned rule covers the requested twist."""


# ----------------------------------------------------------- complexes

_ROLE_SUFFIX = {"full": "", "perp": "_perp", "kappa": "_kappa"}


class FormType(Value, order=True):
    """Name of a summand of the (p,q)-forms: full bundle, primitive
    part ("perp"), or the Kaehler line inside a diagonal bundle."""

    p: int
    q: int
    role: str = "full"

    def __post_init__(self):
        if self.role not in _ROLE_SUFFIX:
            raise ValueError(f"form-type role must be one of {tuple(_ROLE_SUFFIX)}, "
                             f"got {self.role!r}")

    def __str__(self) -> str:
        return f"L({self.p},{self.q}){_ROLE_SUFFIX[self.role]}"

    @property
    def degree(self) -> int:
        return self.p + self.q


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

    def __post_init__(self):
        if self.claim_tags is not None:
            object.__setattr__(self, "claim_tags", FrozenDict(self.claim_tags))

    def ranks(self) -> tuple[int, ...]:
        return tuple(sum(rank(b) for b in term) for term in self.terms)

    def __str__(self) -> str:
        def side(term):
            return " (+) ".join(str(b) for b in term) if term else "0"

        return "0 -> " + " -> ".join(side(t) for t in self.terms) + " -> 0"


class TransformResult(Value):
    table: DirectImageTable
    complex_: ComplexOnM | None
    reason: str            # empty when a complex was emitted
    twist_z: BundleLabel | None
    twist_x: BundleLabel
    mode: str


def twisted_forms(
    fib: Fibration, twist_x: BundleLabel, p: int | None = None
) -> list[tuple[int, FilteredBundle]]:
    """(p, Lambda^p of the relative forms of fib, tensored with twist_x) for
    column p, or for every column 0..rank when p is None; a column outside
    0..rank is an ArgumentError."""
    lam = relative_cotangent(fib)
    if p is None:
        ps = range(len(lam) + 1)  # every factor is a line, or the wedge refuses
    elif 0 <= p <= rank(lam):
        ps = (p,)
    else:
        raise ArgumentError(f"column p={p} is outside 0..{rank(lam)}")
    return [(k, exterior_power(lam, k).twist_by(twist_x)) for k in ps]


def e1_page(twist_x: BundleLabel, mode: str = "paper", p: int | None = None) -> DirectImageTable:
    """The first page over twist_x's n: twisted_forms of the Z-leg pushed
    down the M-leg; twist_x is the twist in the X frame (twist_frames)."""
    reg = registry(twist_x.n)
    return DirectImageTable.merge([
        direct_images(bundle, reg["nu"], mode, k)
        for k, bundle in twisted_forms(reg["mu"], twist_x, p)
    ])


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
        bad = [p for p in ps if len(table.qs_for_column(p)) > 1]
        reason = f"no collapse: columns p={bad or ps} spread over degrees q={qs}"
    elif ps != list(range(ps[0], ps[-1] + 1)):
        reason = f"no collapse: nonempty columns {ps} are not contiguous"
    if reason:
        return TransformResult(table, None, reason, twist_z, twist_x, mode)

    q0 = qs[0]
    terms = tuple(table.labels_at(p, q0) for p in range(ps[0], ps[-1] + 1))
    claims = claim_tags = None
    if twist_z is not None and _has_involutive_rule(twist_z):
        inv = involutive_cohomology(twist_z)
        claims = tuple(inv.dim_at(ps[0] + i + q0) for i in range(len(terms)))
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
    return TransformResult(table, cx, "", twist_z, twist_x, mode)


# ------------------------------------------------ involutive cohomology

def _has_involutive_rule(twist: BundleLabel) -> bool:
    """The twists whose row cohomology has a pinned rule: the trivial and
    the hyperplane twist (1|0,...,0) on Z."""
    n = twist.n
    return twist.space == "Z" and twist.weight in ((0,) * (n + 1), (1,) + (0,) * n)


def involutive_cohomology(twist: BundleLabel) -> CohomologyResult:
    """Cohomology of the involutive complex on the correspondence space.

    The topology spectral sequence of the Z-leg collapses for exactly
    two twists — the trivial one and the hyperplane twist (1|0,...,0) —
    giving H^r = (+)_i H^(r-i)(Z, twist) over the even Betti degrees i
    of the projective-space fiber, where BBW puts H(Z, twist) in a
    single degree.  Anything else has no pinned rule and is refused.
    """
    if twist.space != "Z":
        raise ArgumentError(f"involutive cohomology needs a twist on Z, got {twist!r}")
    if not _has_involutive_rule(twist):
        raise UnsupportedTwistError(
            f"no pinned row-cohomology rule for twist {twist}; "
            "only the trivial and hyperplane twists are known to collapse"
        )
    zcoh = global_cohomology(twist)
    betti = fiber_betti(registry(twist.n)["eta"])
    if zcoh is None:
        return CohomologyResult({})
    q, module = zcoh
    return CohomologyResult({q + i: b * rank(module) for i, b in enumerate(betti) if b})


# ------------------------------------------------------- form dictionary

@cache
def form_dictionary(n: int) -> tuple[MappingProxyType, MappingProxyType]:
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
    return MappingProxyType(full), MappingProxyType(perp)


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


def _naming(counts: Counter, d: int, owner: dict, full, perp) -> tuple[FormType, ...] | None:
    """The term with these label counts as a sum of a*full(p,q) + b*perp(p,q)
    over the L(p,q) of degree d that own its labels, or None.  A label lies
    in at most one L(p,q) of a degree, and the constituents of one L(p,q) are
    distinct, so a and b are read off each group: the naming is the only one."""
    groups: dict[tuple[int, int], Counter] = {}
    for lab, c in counts.items():
        if (d, lab) not in owner:
            return None
        groups.setdefault(owner[d, lab], Counter())[lab] = c
    out: list[FormType] = []
    for (p, q), got in groups.items():
        labs, prim = full[p, q], perp.get((p, q), ())
        a = min(got[lab] for lab in labs if lab not in prim)
        b = got[prim[0]] - a if prim else 0
        if b < 0 or got != Counter({lab: a + b * (lab in prim) for lab in labs}):
            return None
        out += [FormType(p, q, "full")] * a + [FormType(p, q, "perp")] * b
    return tuple(sorted(out))


def _labels_n(terms) -> int:
    """The n that every label of a complex lives over."""
    ns = {b.n for term in terms for b in term}
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
    d0 + i.  Each term has at most one naming per degree (_naming).  n is
    read from the labels; terms with no label, or over several n, are refused.
    """
    n = _labels_n(terms)
    full, perp = form_dictionary(n)
    owner = {(p + q, lab): (p, q) for (p, q), labs in full.items() for lab in labs}
    counts = [Counter(t) for t in terms]
    chains = []
    for d0 in range(2 * n + 2 - len(terms)):
        chain = []
        for i, c in enumerate(counts):
            if (named := _naming(c, d0 + i, owner, full, perp)) is None:
                break
            chain.append(named)
        else:
            chains.append(tuple(chain))
    return chains[0] if len(chains) == 1 else None


def complex_from_form_types(types, n: int = 3) -> ComplexOnM:
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

    @property
    def unreachable(self) -> tuple[BundleLabel, ...]:
        """The targets no admissible pair reaches, in label order; every
        target is in some pair, since every source meets every target."""
        hit = {t for _s, t in self.admissible}
        return tuple(sorted({t for _s, t in self.inadmissible} - hit))


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
    already) is admissible when t - s = (+-1, -+e_i) for exactly one i.
    """
    if not c.terms or any(not t for t in c.terms):
        raise ValueError("malformed complex: empty terms")
    arrows = []
    for i in range(len(c.terms) - 1):
        adm, bad = [], []
        for s in c.terms[i]:
            if s.space != "M":
                raise ValueError(f"the symbol check expects base-space labels, got {s!r}")
            a, mu, n = s.weight[0], s.weight[1:], s.n
            for t in c.terms[i + 1]:
                step = t.weight[0] - a
                ok = (t.space == "M" and t.n == n and step in (1, -1)
                      and [y - x for x, y in zip(mu, t.weight[1:]) if x != y] == [-step])
                (adm if ok else bad).append((s, t))
        arrows.append(ArrowCheck(i, tuple(adm), tuple(bad)))
    ranks = c.ranks()
    total = alternating_sum(ranks)
    passed = total == 0 and all(a.ok for a in arrows)
    return EllipticityReport(ranks, total, tuple(arrows), passed)


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
    """Kernel presentation of the top cohomology over the flag domain."""

    degree: int
    source: BundleLabel
    dbar_targets: tuple[BundleLabel, ...]
    d_targets: tuple[BundleLabel, ...]
    dbar_full: tuple[BundleLabel, ...]
    d_full: tuple[BundleLabel, ...]


def emit_realization(twist=None, n: int = 3) -> RealizationReport:
    """The canonical-twist kernel presentation (n = 3 only).

    Runs the canonical-bundle pipeline and presents the single
    surviving cohomology as the kernel of the first arrow, splitting
    its targets into the holomorphic (first entry +1) and
    antiholomorphic (first entry -1) directions; the full Pieri lists
    are included so the projection is visible.
    """
    canonical = z_label((3,) + (0,) * (n - 1) + (-3,))
    if twist is None:
        twist = canonical
    if n != 3 or twist != canonical:
        raise ValueError(f"realization is pinned to the canonical twist for n=3, got {twist}")
    res = assemble_transform(twist, n, "paper")
    cx = res.complex_
    if cx is None or len(cx.terms[0]) != 1:
        raise ValueError(f"canonical pipeline did not collapse to one source: {res.reason}")
    source = cx.terms[0][0]
    a = source.weight[0]
    nxt = cx.terms[1]
    dbar_targets = tuple(t for t in nxt if t.weight[0] == a - 1)
    d_targets = tuple(t for t in nxt if t.weight[0] == a + 1)
    pieri = pieri_tensor(source)
    dbar_full = tuple(t for t in pieri if t.weight[0] == a - 1)
    d_full = tuple(t for t in pieri if t.weight[0] == a + 1)
    if not (set(dbar_targets) <= set(dbar_full) and set(d_targets) <= set(d_full)):
        raise ValueError("realization targets are not Pieri constituents of the source")
    return RealizationReport(
        cx.q_row, source, dbar_targets, d_targets, dbar_full, d_full
    )
