"""Differential graded Lie algebras: construction-time axiom checks, MC
elements, twisting, connected covers, the sphere dgla, adjoining MC
variables, disjoint products, homology and the gauge action.

Degrees are homological; Maurer-Cartan elements live in degree -1 and the
twisted differential is d(y) + [y, xi].  Finite dglas carry an optional
per-basis-element weight witness certifying nilpotence; algebras built from
presentations can be re-materialized at any truncation weight, which is how
completeness claims are checked by stabilization.

One MC-variable adjunction (_adjoin_variable, plain or twisted by the
variable) and one free product (_free_product) build the sphere, g_S, f_xa,
g<x>, the disjoint product (g * s)^x * h and the free product g * h.
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
    McLieError,
    linear_combination,
    _DgAlgebra,
    _accumulate,
    _cycles,
    _element_of,
)
from .freelie import (
    FreeLieTruncation,
    InvalidDifferential,
    InvalidPresentation,
    LiePresentation,
    _fresh,
    _tree_label,
    free_product_presentation,
)

AXIOM_PAIR_CAP = 60
AXIOM_TRIPLE_CAP = 24


class NotMaurerCartan(McLieError):
    """The element does not satisfy the Maurer-Cartan equation."""


class NotNilpotent(McLieError):
    """ad of the gauge parameter did not vanish within the expected bound."""


class AxiomViolation(McLieError):
    """A dgla axiom failed on construction."""


class Dgla(_DgAlgebra):
    """Finite-dimensional dgla given by a basis, a differential d and a
    bracket bracket_fn(deg1, label1, deg2, label2) on basis pairs,
    evaluated lazily (see _DgAlgebra)."""

    _SIGN = -ONE
    _SYMMETRY = "antisymmetry"
    _TRIPLE_LAW = "Jacobi"
    _VIOLATION = AxiomViolation
    _TRIPLE_CAP = AXIOM_TRIPLE_CAP

    def __init__(self, space: GradedVectorSpace,
                 d: "GradedLinearMap | Callable[[int, str], GradedElement] | None",
                 bracket_fn: Callable[[int, str, int, str], GradedElement],
                 weights: Optional[Mapping[str, int]] = None,
                 presentation: Optional["DglaPresentation"] = None,
                 weight_bound: Optional[int] = None,
                 check: str = "auto"):
        self.weights = dict(weights) if weights else None
        self.presentation = presentation
        self.weight_bound = weight_bound
        super().__init__(space, d, bracket_fn, check)

    bracket_labels = _DgAlgebra._product_labels
    bracket = _DgAlgebra._product

    def is_abelian(self) -> bool:
        """Every basis bracket vanishes.  Degree pairs whose bracket lands
        in a degree with a basis go first, so a non-abelian g answers after
        a few brackets; every pair is still checked before True.  The
        brackets are read through the uncached product, so an abelian g
        of dimension n does not keep its n(n+1)/2 zero brackets."""
        live = [n for n in self.space.degrees() if self.space.labels(n)]
        pairs = sorted(itertools.combinations_with_replacement(live, 2),
                       key=lambda dd: dd[0] + dd[1] not in live)
        for d1, d2 in pairs:
            labels = self.space.labels(d1)
            if d1 == d2:
                label_pairs = itertools.combinations_with_replacement(labels, 2)
            else:
                label_pairs = itertools.product(labels, self.space.labels(d2))
            for l1, l2 in label_pairs:
                if not self._product_fn(d1, l1, d2, l2).is_zero():
                    return False
        return True

    # -- axioms ---------------------------------------------------------------

    def verify_axioms(self, pair_cap: int = AXIOM_PAIR_CAP,
                      triple_cap: int = AXIOM_TRIPLE_CAP) -> list[tuple[str, int, int]]:
        """Exhaustive antisymmetry/Leibniz on basis pairs and graded Jacobi
        on basis triples, within the given size caps; returns the laws the
        caps skipped (see _check_axioms)."""
        return self._check_axioms(pair_cap, triple_cap)


class DglaPresentation:
    """Re-materializable origin of a dgla: a Lie presentation."""

    def __init__(self, pres: LiePresentation):
        self.pres = pres

    def materialize(self, m: int, check: str = "auto") -> Dgla:
        """The weight-m truncation, on the quotient's basis and weights."""
        q = self.pres.materialize(m)
        return Dgla(q.space, q.d_map(),
                    lambda d1, l1, d2, l2: q.bracket_labels(l1, l2),
                    weights=q.weight_of_label, presentation=self,
                    weight_bound=m, check=check)


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
    pres = _adjoin_variable(LiePresentation([]), "x")
    return DglaPresentation(pres).materialize(max(m, 2))


def abelian_dgla(basis: Mapping[int, Sequence[str]],
                 differentials: Optional[Mapping[str, GradedElement]] = None) -> Dgla:
    return dgla_from_table(basis, {}, differentials)


def heisenberg_dgla() -> Dgla:
    """3-dimensional Heisenberg algebra in degree 0, weight-graded with the
    central generator in weight 2."""
    return DglaPresentation(heisenberg_presentation()).materialize(3)


def heisenberg_presentation() -> LiePresentation:
    free = FreeLieTruncation([("a", 0), ("b", 0), ("c", 0, 2)], 3)
    a, b, c = (free.generator(n) for n in "abc")
    rels = [free.bracket(a, c), free.bracket(b, c), free.bracket(a, b) - c]
    return LiePresentation([("a", 0), ("b", 0), ("c", 0, 2)], rels)


def g_s_dgla(size: int, m: int = 2) -> Dgla:
    """Free dgla on degree -1 generators x_1..x_size with
    d(x_s) = -1/2 [x_s, x_s]; models the discrete space S + basepoint."""
    pres = _adjoin_variable(LiePresentation([]),
                            *["x%d" % (s + 1) for s in range(size)])
    return DglaPresentation(pres).materialize(m)


def f_xa_dgla(m: int) -> Dgla:
    """The free dgla on x (degree -1) and a (degree 0) with
    d(x) = -1/2 [x,x], d(a) = 0, truncated at weight m."""
    pres = _adjoin_variable(LiePresentation([("a", 0)]), "x")
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
                weight_bound=g.weight_bound, check=check)


def _adjoin_variable(pres: LiePresentation, *variables: str,
                     twisted: bool = False) -> LiePresentation:
    """pres with the variables (degree -1, weight 1) appended last, in
    order, and d(var) = -1/2 [var,var] on each.  twisted gives the twist by
    the one variable var instead: d(var) = +1/2 [var,var] and d(u) + [var,u]
    on each generator u of pres."""
    gens = pres.generators + [(var, -1, 1) for var in variables]
    dgens = dict(pres.dgens)
    if twisted:
        var, = variables
        free = FreeLieTruncation(gens, 1 + max(w for _, _, w in gens))
        for name, _, _ in pres.generators:
            dgens[name] = pres.dgens.get(name, GradedElement()) + \
                free.bracket(free.generator(var), free.generator(name))
    for var in variables:
        dgens[var] = GradedElement({(-2, _tree_label((0, 0), [var])): QQ(1 if twisted else -1, 2)})
    return LiePresentation(gens, pres.relations, dgens)


def _free_product(first: LiePresentation, h: Dgla, m: int, check: str) -> Dgla:
    """first * h truncated at weight m, h's generators primed away from
    first's; the renaming is recorded as .second_factor_names."""
    taken = {name for name, _, _ in first.generators}
    second, renames = presentation_of(h).pres.primed(taken)
    out = DglaPresentation(free_product_presentation(first, second)).materialize(
        m, check=check)
    out.second_factor_names = renames
    return out


def adjoin_mc_variable(g: Dgla, m: int) -> Dgla:
    """g<x>: freely adjoin x with |x| = -1 and d(x) = -1/2 [x,x], truncated
    at weight m.  x is MC in the result."""
    pres = presentation_of(g).pres
    var = _fresh("x", {name for name, _, _ in pres.generators})
    out = DglaPresentation(_adjoin_variable(pres, var)).materialize(m)
    ok, res = is_mc(out, out.element(var))
    if not ok:
        raise NotMaurerCartan("adjoined variable fails MC: %r" % res)
    return out


def disjoint_product(g: Dgla, h: Dgla, m: int, check: str = "auto") -> Dgla:
    """(g * s)^x * h truncated at weight m, carrying the distinguished MC
    element -x (the twist datum x is recorded as .twist_of)."""
    pres_g = presentation_of(g).pres
    var = _fresh("x", {name for name, _, _ in pres_g.generators})
    out = _free_product(_adjoin_variable(pres_g, var, twisted=True), h, m, check)
    out.twist_of = out.element(var)
    base_point = -out.twist_of
    ok, res = is_mc(out, base_point)
    if not ok:
        raise NotMaurerCartan("distinguished MC element fails: %r" % res)
    out.distinguished_mc = base_point
    return out


def free_product_dgla(g: Dgla, h: Dgla, m: int, check: str = "auto") -> Dgla:
    """Plain (untwisted) free product g * h truncated at weight m."""
    return _free_product(presentation_of(g).pres, h, m, check)


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
            _accumulate(series.setdefault(power + k, {}), term.coeffs, sign / fact)
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


def homology_stability(g: Dgla) -> dict:
    """Per-degree homology of a presented dgla at its truncation weight m,
    with stabilization flags.

    For weight-graded truncations with a differential of uniform weight
    shift +1, the cells of weight <= m-1 are final; "dim" reports their sum
    and "edge" the provisional top-weight contribution, with the final
    cells re-verified against the m+1 truncation.  Otherwise "dim" is the
    full per-degree dimension and "stable" means it is unchanged at m+1.
    When the presentation is no dgla at m+1 (d*d or the relation ideal
    fails only above m), every degree is the weight-m homology, unstable.
    """
    m = g.weight_bound
    try:
        g2 = g.presentation.materialize(m + 1, check="skip")
    except (InvalidDifferential, InvalidPresentation):
        h = g.homology()
        return {n: {"dim": h.dim(n), "stable": False, "edge": 0}
                for n in sorted(set(h.degrees()) | set(g.space.degrees()))}
    h1, h2 = g.homology(), g2.homology()
    if h1.shift == 1 and h2.shift == 1:
        c1, c2 = h1.cell_dims, h2.cell_dims
        degrees = sorted({n for (_, n) in c1} | {n for (_, n) in c2} |
                         set(g.space.degrees()))
        report = {}
        for n in degrees:
            final = sum(v for (w, nn), v in c1.items() if nn == n and w <= m - 1)
            edge = sum(v for (w, nn), v in c1.items() if nn == n and w == m)
            confirmed = all(c2.get((w, n), 0) == v
                            for (w, nn), v in c1.items() if nn == n and w <= m - 1)
            report[n] = {"dim": final, "stable": confirmed, "edge": edge}
        return report
    degrees = sorted(set(h1.degrees()) | set(h2.degrees()) |
                     set(g.space.degrees()) | set(g2.space.degrees()))
    return {n: {"dim": h1.dim(n), "stable": h1.dim(n) == h2.dim(n), "edge": 0}
            for n in degrees}
