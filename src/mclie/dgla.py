"""Differential graded Lie algebras: construction-time axiom checks, MC
elements, twisting, connected covers, the sphere dgla, adjoining MC
variables, disjoint products, homology and the gauge action.

Degrees are homological; Maurer-Cartan elements live in degree -1 and the
twisted differential is d(y) + [y, xi].  Finite dglas carry an optional
per-basis-element weight witness certifying nilpotence; algebras built from
presentations can be re-materialized at any truncation weight, which is how
completeness claims are checked by stabilization.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .linalg import (
    ONE,
    QQ,
    DegreeMismatch,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    linear_combination,
    _DgAlgebra,
    _add_scaled,
    _axpy,
    _cycles,
    _element_of,
)
from .freelie import (
    FreeLieTruncation,
    LiePresentation,
    QuotientLie,
    free_product_presentation,
)

AXIOM_PAIR_CAP = 60
AXIOM_TRIPLE_CAP = 24


class NotMaurerCartan(Exception):
    """The element does not satisfy the Maurer-Cartan equation."""


class NotNilpotent(Exception):
    """ad of the gauge parameter did not vanish within the expected bound."""


class AxiomViolation(Exception):
    """A dgla axiom failed on construction."""


class Dgla(_DgAlgebra):
    """Finite-dimensional dgla given by a basis, a differential d_fn(n,
    label) and a bracket bracket_fn(deg1, label1, deg2, label2) on basis
    pairs, evaluated lazily (see _DgAlgebra)."""

    _SIGN = -ONE
    _SYMMETRY = "antisymmetry"
    _TRIPLE_LAW = "Jacobi"
    _VIOLATION = AxiomViolation
    _TRIPLE_CAP = AXIOM_TRIPLE_CAP

    def __init__(self, space: GradedVectorSpace,
                 d_fn: Optional[Callable[[int, str], GradedElement]],
                 bracket_fn: Callable[[int, str, int, str], GradedElement],
                 weights: Optional[Mapping[str, int]] = None,
                 presentation: Optional["DglaPresentation"] = None,
                 weight_bound: Optional[int] = None,
                 twisted_by: Optional[GradedElement] = None,
                 check: str = "auto"):
        self.weights = dict(weights) if weights else None
        self.presentation = presentation
        self.weight_bound = weight_bound
        self.twisted_by = twisted_by
        super().__init__(space, d_fn, bracket_fn, check)

    bracket_labels = _DgAlgebra._product_labels
    bracket = _DgAlgebra._product

    def is_abelian(self) -> bool:
        """Every basis bracket vanishes.  Pairs whose bracket lands in a
        degree with a basis go first, so a non-abelian g answers early;
        every pair is still checked before True."""
        items = self.basis_items()
        live = {n for n in self.space.degrees() if self.space.labels(n)}
        for landing in (True, False):
            for (d1, l1), (d2, l2) in itertools.combinations_with_replacement(items, 2):
                if ((d1 + d2) in live) == landing and \
                        not self.bracket_labels(d1, l1, d2, l2).is_zero():
                    return False
        return True

    # -- axioms ---------------------------------------------------------------

    def verify_axioms(self, pair_cap: int = AXIOM_PAIR_CAP,
                      triple_cap: int = AXIOM_TRIPLE_CAP) -> list[tuple[str, int, int]]:
        """Exhaustive antisymmetry/Leibniz on basis pairs and graded Jacobi
        on basis triples, within the given size caps; returns the laws the
        caps skipped (see _check_axioms)."""
        return self._check_axioms(pair_cap, triple_cap)

    def _triple_failure(self, table: list[list[dict[int, Fraction]]],
                        degrees: list[int]) -> Optional[tuple[int, int, int]]:
        """The first basis triple (i, j, k), in itertools.product order,
        with [u,[v,w]] - [[u,v],w] - (-1)^{|u||v|} [v,[u,w]] nonzero,
        contracted over the table; None when Jacobi holds."""
        n = len(table)
        for i, j in itertools.product(range(n), repeat=2):
            uv, row_i, row_j = table[i][j], table[i], table[j]
            odd = (degrees[i] * degrees[j]) % 2
            for k in range(n):
                vw, uw = row_j[k], row_i[k]
                if not (uv or vw or uw):
                    continue
                acc: dict[int, Fraction] = {}
                for b, c in vw.items():
                    _axpy(acc, row_i[b], c)
                for a, c in uv.items():
                    _axpy(acc, table[a][k], -c)
                for b, c in uw.items():
                    _axpy(acc, row_j[b], c if odd else -c)
                if any(acc.values()):
                    return i, j, k
        return None


class DglaPresentation:
    """Re-materializable origin of a dgla: a Lie presentation plus an
    optional twisting MC element (coordinates in quotient labels, valid in
    any deeper truncation)."""

    def __init__(self, pres: LiePresentation, twist: Optional[GradedElement] = None):
        self.pres = pres
        self.twist = twist

    def materialize(self, m: int, check: str = "auto") -> Dgla:
        q = self.pres.materialize(m)
        g = dgla_from_quotient(q, presentation=DglaPresentation(self.pres), check=check)
        if self.twist is not None:
            g = twist(g, q.project(self.twist), check=check)
            g.presentation = self
        return g


def dgla_from_quotient(q: QuotientLie, presentation=None, check: str = "auto") -> Dgla:
    def bracket_fn(d1, l1, d2, l2):
        return q.bracket_labels(l1, l2)

    return Dgla(q.space, lambda n, lab: q.d_label(lab), bracket_fn,
                weights=q.weight_of_label,
                presentation=presentation, weight_bound=q.m, check=check)


def dgla_from_table(basis: Mapping[int, Sequence[str]],
                    brackets: Mapping[tuple[str, str], GradedElement],
                    differentials: Optional[Mapping[str, GradedElement]] = None,
                    weights: Optional[Mapping[str, int]] = None,
                    check: str = "full") -> Dgla:
    """Finite dgla from explicit structure constants.

    brackets maps (label1, label2) to [e_1, e_2]; missing mirror pairs are
    filled in by graded antisymmetry, everything else is zero.
    """
    space = GradedVectorSpace(basis)
    table = Dgla._mirror_filled(space, brackets)
    differentials = differentials or {}

    def bracket_fn(d1, l1, d2, l2):
        return table.get((l1, l2), GradedElement())

    return Dgla(space, lambda n, lab: differentials.get(lab, GradedElement()),
                bracket_fn, weights=weights, check=check)


# -- stock algebras -----------------------------------------------------------


def zero_dgla() -> Dgla:
    return Dgla(GradedVectorSpace({}), None, lambda *a: GradedElement())


def sphere_dgla(m: int = 2) -> Dgla:
    """The model of the 0-sphere: spanned by x and [x,x] with |x| = -1 and
    d(x) = -1/2 [x,x]."""
    pres = LiePresentation(
        [("x", -1)],
        dgens={"x": GradedElement({(-2, "[x,x]"): QQ(-1, 2)})})
    return DglaPresentation(pres).materialize(max(m, 2))


def abelian_dgla(basis: Mapping[int, Sequence[str]],
                 differentials: Optional[Mapping[str, GradedElement]] = None) -> Dgla:
    return dgla_from_table(basis, {}, differentials)


def heisenberg_dgla() -> Dgla:
    """3-dimensional Heisenberg algebra in degree 0, weight-graded with the
    central generator in weight 2."""
    pres = heisenberg_presentation()
    return DglaPresentation(pres).materialize(3)


def heisenberg_presentation() -> LiePresentation:
    free = FreeLieTruncation([("a", 0), ("b", 0), ("c", 0, 2)], 3)
    a, b, c = (free.generator(n) for n in "abc")
    rels = [free.bracket(a, c), free.bracket(b, c), free.bracket(a, b) - c]
    return LiePresentation([("a", 0), ("b", 0), ("c", 0, 2)], rels)


def g_s_dgla(size: int, m: int = 2) -> Dgla:
    """Free dgla on degree -1 generators x_1..x_size with
    d(x_s) = -1/2 [x_s, x_s]; models the discrete space S + basepoint."""
    gens = [("x%d" % (s + 1), -1) for s in range(size)]
    dgens = {}
    for name, _ in gens:
        dgens[name] = GradedElement({(-2, "[%s,%s]" % (name, name)): QQ(-1, 2)})
    pres = LiePresentation(gens, dgens=dgens)
    return DglaPresentation(pres).materialize(m)


def f_xa_dgla(m: int) -> Dgla:
    """The free dgla on x (degree -1) and a (degree 0) with
    d(x) = -1/2 [x,x], d(a) = 0, truncated at weight m."""
    pres = LiePresentation(
        [("a", 0), ("x", -1)],
        dgens={"x": GradedElement({(-2, "[x,x]"): QQ(-1, 2)})})
    return DglaPresentation(pres).materialize(m)


# -- presentations of arbitrary finite dglas ----------------------------------


def presentation_of(g: Dgla) -> DglaPresentation:
    """A presentation whose weight-m truncations recover g: generators are
    the basis labels, relations encode the bracket table."""
    if g.presentation is not None:
        return g.presentation
    items = g.basis_items()
    weights = g.weights or {lab: 1 for _, lab in items}
    gens = [(lab, n, weights.get(lab, 1)) for n, lab in items]
    depth = max((weights.get(l1, 1) + weights.get(l2, 1)
                 for (_, l1), (_, l2) in itertools.product(items, repeat=2)),
                default=2)
    free = FreeLieTruncation(gens, max(depth, 2))
    rels = []
    for (d1, l1), (d2, l2) in itertools.combinations_with_replacement(items, 2):
        val = g.bracket_labels(d1, l1, d2, l2)
        rels.append(free.bracket(free.generator(l1), free.generator(l2)) - val)
    dgens = {lab: g.d(g.space.basis_element(n, lab)) for n, lab in items}
    return DglaPresentation(LiePresentation(gens, rels, dgens))


def _rename_generators(pres: LiePresentation, taken: set[str]):
    """Rename clashing generator names by priming; returns the renamed
    presentation and the old -> new mapping."""
    mapping = {}
    for name, deg, w in pres.generators:
        new = name
        while new in taken:
            new += "'"
        mapping[name] = new
        taken.add(new)
    if all(k == v for k, v in mapping.items()):
        return pres, mapping

    def rename_elt(e: GradedElement) -> GradedElement:
        out = {}
        for (d, lab), c in e.coeffs.items():
            new = lab
            # labels of relations/differentials only involve generator names
            # and brackets of them; rename leaf names longest-first
            for old in sorted(mapping, key=len, reverse=True):
                new = _replace_label(new, old, mapping[old])
            out[(d, new)] = c
        return GradedElement(out)

    gens = [(mapping[n], d, w) for n, d, w in pres.generators]
    rels = [rename_elt(r) for r in pres.relations]
    dgens = {mapping[n]: rename_elt(v) for n, v in pres.dgens.items()}
    return LiePresentation(gens, rels, dgens), mapping


def _replace_label(label: str, old: str, new: str) -> str:
    """Replace the generator name old by new inside a bracket label,
    matching only complete names (delimited by [ , ])."""
    out = []
    i = 0
    while i < len(label):
        if label.startswith(old, i):
            before = label[i - 1] if i else ""
            j = i + len(old)
            after = label[j] if j < len(label) else ""
            if before in ("", "[", ",") and after in ("", ",", "]"):
                out.append(new)
                i = j
                continue
        out.append(label[i])
        i += 1
    return "".join(out)


# -- MC elements, twisting, covers, gauge -------------------------------------


def mc_residual(g: Dgla, xi: GradedElement) -> GradedElement:
    if not xi.is_zero() and xi.degree() != -1:
        raise DegreeMismatch("MC candidates must be homogeneous of degree -1")
    return g.d(xi) + g.bracket(xi, xi).scale(QQ(1, 2))


def is_mc(g: Dgla, xi: GradedElement) -> tuple[bool, GradedElement]:
    """Exact MC residual d(xi) + 1/2 [xi, xi]; true iff it vanishes."""
    r = mc_residual(g, xi)
    return r.is_zero(), r


def twist(g: Dgla, xi: GradedElement, check: str = "auto") -> Dgla:
    """The dgla with the twisted differential; requires xi MC.

    Internally the twist is the left adjoint d(y) + [xi, y], the degree -1
    derivation; on odd-degree elements (in particular throughout the MC
    theory) this agrees with adding [y, xi]."""
    ok, res = is_mc(g, xi)
    if not ok:
        raise NotMaurerCartan("residual %r" % res)
    return Dgla(g.space,
                lambda n, lab: g.d(g.space.basis_element(n, lab)) +
                g.bracket(xi, g.space.basis_element(n, lab)),
                g._product_labels, weights=g.weights,
                weight_bound=g.weight_bound, twisted_by=xi, check=check)


def adjoin_mc_variable(g: Dgla, m: int, var: str = "x") -> Dgla:
    """g<x>: freely adjoin x with |x| = -1 and d(x) = -1/2 [x,x], truncated
    at weight m.  x is MC in the result."""
    pres_g = presentation_of(g).pres
    taken = {name for name, _, _ in pres_g.generators}
    while var in taken:
        var += "'"
    sq = "[%s,%s]" % (var, var)
    adjoined = LiePresentation(
        list(pres_g.generators) + [(var, -1, 1)],
        pres_g.relations,
        dict(pres_g.dgens, **{var: GradedElement({(-2, sq): QQ(-1, 2)})}))
    out = DglaPresentation(adjoined).materialize(m)
    out.adjoined_variable = var
    x = out.element(var)
    ok, res = is_mc(out, x)
    if not ok:
        raise NotMaurerCartan("adjoined variable fails MC: %r" % res)
    return out


def disjoint_product(g: Dgla, h: Dgla, m: int, check: str = "auto") -> Dgla:
    """(g * s)^x * h truncated at weight m, carrying the distinguished MC
    element -x (the twist datum x is recorded as .twist_of)."""
    pres_g = presentation_of(g).pres
    taken = {name for name, _, _ in pres_g.generators}
    var = "x"
    while var in taken:
        var += "'"
    taken.add(var)
    pres_h, h_renames = _rename_generators(presentation_of(h).pres, taken)
    sq = "[%s,%s]" % (var, var)
    # twisted differential: d^x(u) = d(u) + [u, x] on the g*s factor
    dgens = {}
    gen_elts = {}
    gens = list(pres_g.generators) + [(var, -1, 1)] + list(pres_h.generators)
    names_g = [name for name, _, _ in pres_g.generators]
    free = FreeLieTruncation(gens, 2 + max(w for _, _, w in gens) if gens else 2)
    for name, deg, w in pres_g.generators:
        base = pres_g.dgens.get(name, GradedElement())
        dgens[name] = base + free.bracket(free.generator(var), free.generator(name))
    dgens[var] = GradedElement({(-2, sq): QQ(1, 2)})
    for name, deg, w in pres_h.generators:
        dgens[name] = pres_h.dgens.get(name, GradedElement())
    pres = LiePresentation(gens, list(pres_g.relations) + list(pres_h.relations), dgens)
    out = DglaPresentation(pres).materialize(m, check=check)
    out.presentation = DglaPresentation(pres)
    out.twist_of = out.element(var)
    out.variable_name = var
    out.second_factor_names = h_renames
    base_point = -out.twist_of
    ok, res = is_mc(out, base_point)
    if not ok:
        raise NotMaurerCartan("distinguished MC element fails: %r" % res)
    out.distinguished_mc = base_point
    return out


def free_product_dgla(g: Dgla, h: Dgla, m: int, check: str = "auto") -> Dgla:
    """Plain (untwisted) free product g * h truncated at weight m."""
    pres_g = presentation_of(g).pres
    taken = {name for name, _, _ in pres_g.generators}
    pres_h, h_renames = _rename_generators(presentation_of(h).pres, taken)
    pres = free_product_presentation(
        pres_g.generators, pres_g.relations, pres_g.dgens,
        pres_h.generators, pres_h.relations, pres_h.dgens)
    out = DglaPresentation(pres).materialize(m, check=check)
    out.second_factor_names = h_renames
    return out


def connected_cover(g: Dgla) -> tuple[Dgla, GradedLinearMap]:
    """Sub-dgla keeping positive degrees, replacing degree 0 by ker(d_0),
    dropping negative degrees; returns (cover, inclusion)."""
    basis: dict[int, list[str]] = {}
    incl_vectors: dict[str, GradedElement] = {}
    ker0 = _cycles(g.d_map, 0)
    for n in g.space.degrees():
        if n > 0:
            basis[n] = list(g.space.labels(n))
            for lab in basis[n]:
                incl_vectors[lab] = g.space.basis_element(n, lab)
        elif n == 0:
            labs = []
            for i, v in enumerate(ker0):
                lab = "ker0_%d" % i
                labs.append(lab)
                incl_vectors[lab] = g.space.from_vector(v, 0)
            if labs:
                basis[0] = labs
    space = GradedVectorSpace(basis)
    inclusion = GradedLinearMap.from_function(space, g.space, 0,
                                              lambda n, lab: incl_vectors[lab])

    def to_cover(elt: GradedElement) -> GradedElement:
        x = inclusion.solve(elt)
        if x is None:
            raise AxiomViolation("element not in the connected cover")
        return x

    def bracket_fn(d1, l1, d2, l2):
        return to_cover(g.bracket(incl_vectors[l1], incl_vectors[l2]))

    weights = None
    if g.weights is not None:
        weights = {}
        for n in space.degrees():
            for lab in space.labels(n):
                if n > 0:
                    weights[lab] = g.weights[lab]
                else:
                    weights[lab] = min((g.weights[l2]
                                        for (_, l2) in incl_vectors[lab].coeffs),
                                       default=1)
    cover = Dgla(space, lambda n, lab: to_cover(g.d(incl_vectors[lab])), bracket_fn,
                 weights=weights, weight_bound=g.weight_bound, check="auto")
    return cover, inclusion


def _ad_bound(g: Dgla) -> int:
    if g.weight_bound is not None:
        return g.weight_bound + 1
    return g.space.total_dim() + 1


def _gauge_series(g: Dgla, a: GradedElement, xi: GradedElement) -> dict[int, GradedElement]:
    """exp(t a).xi = sum_k t^k (ad_a^k xi - ad_a^{k-1} da) / k! (no da
    term at k = 0) as {k: coefficient of t^k}, zero coefficients left
    out; raises NotNilpotent when ad_a^k of xi or of da is nonzero at
    k = _ad_bound(g)."""
    bound = _ad_bound(g)
    series: dict[int, dict] = {}
    for term, power, sign in ((xi, 0, ONE), (g.d(a), 1, -ONE)):
        k, fact = 0, ONE  # fact = (power + k)!, as power is 0 or 1
        while not term.is_zero():
            if k == bound:
                raise NotNilpotent("ad of the gauge parameter is not nilpotent")
            _add_scaled(series.setdefault(power + k, {}), term, sign / fact)
            k += 1
            fact *= power + k
            term = g.bracket(a, term)
    return {k: _element_of(c) for k, c in sorted(series.items()) if c}


def gauge_act(g: Dgla, a: GradedElement, xi: GradedElement) -> GradedElement:
    """Gauge action exp(a).xi = e^{ad_a} xi - sum_k ad_a^k/(k+1)! (da),
    the gauge series at t = 1; requires a of degree 0 with nilpotent ad,
    and xi MC.  The output satisfies the MC equation exactly."""
    if not a.is_zero() and a.degree() != 0:
        raise DegreeMismatch("gauge parameters must have degree 0")
    ok, res = is_mc(g, xi)
    if not ok:
        raise NotMaurerCartan("residual %r" % res)
    out = linear_combination((ONE, c) for c in _gauge_series(g, a, xi).values())
    ok, res = is_mc(g, out)
    if not ok:
        raise NotMaurerCartan("gauge action broke the MC equation: %r" % res)
    return out


def homology_stability(g: Dgla, m: Optional[int] = None) -> dict:
    """Per-degree homology at truncation m with stabilization flags.

    For weight-graded truncations with a differential of uniform weight
    shift +1, the cells of weight <= m-1 are final; "dim" reports their sum
    and "edge" the provisional top-weight contribution, with the final
    cells re-verified against the m+1 truncation.  Otherwise "dim" is the
    full per-degree dimension and "stable" means it is unchanged at m+1.
    """
    if g.presentation is None or (m is None and g.weight_bound is None):
        h = g.homology()
        return {n: {"dim": h.dim(n), "stable": True, "edge": 0} for n in h.degrees()}
    m = m if m is not None else g.weight_bound
    g1 = g if m == g.weight_bound else g.presentation.materialize(m, check="skip")
    g2 = g.presentation.materialize(m + 1, check="skip")
    if g1._weight_shift() == 1 and g2._weight_shift() == 1:
        c1 = g1._cell_homology(1)
        c2 = g2._cell_homology(1)
        degrees = sorted({n for (_, n) in c1} | {n for (_, n) in c2} |
                         set(g1.space.degrees()))
        report = {}
        for n in degrees:
            final = sum(v for (w, nn), v in c1.items() if nn == n and w <= m - 1)
            edge = sum(v for (w, nn), v in c1.items() if nn == n and w == m)
            confirmed = all(c2.get((w, n), 0) == v
                            for (w, nn), v in c1.items() if nn == n and w <= m - 1)
            report[n] = {"dim": final, "stable": confirmed, "edge": edge}
        return report
    h1, h2 = g1.homology(), g2.homology()
    degrees = sorted(set(h1.degrees()) | set(h2.degrees()) |
                     set(g1.space.degrees()) | set(g2.space.degrees()))
    return {n: {"dim": h1.dim(n), "stable": h1.dim(n) == h2.dim(n), "edge": 0}
            for n in degrees}
