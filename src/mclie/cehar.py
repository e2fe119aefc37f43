"""Chevalley-Eilenberg and Harrison functors, free-product cohomology
comparison, the MC/augmentation dictionary, and truncated minimal models
via homotopy transfer.

Sign conventions (calibrated so that d*d = 0 holds on every constructed
instance and the evaluation at an MC element is a dg augmentation; the
two-point algebra maps to the sphere dgla on the nose):

  CE side, generators s(b) dual to the basis b of g, cohdeg |b|+1:
      d_I  s(k) = sum_j D_kj s(j)          D_kj = coeff of b_k in d(b_j)
      d_II s(k) = -1/2 sum_ij (-1)^{|b_i|} c_ij^k s(i) s(j)

  Harrison side, generators T(b) dual to a basis of the augmentation
  ideal, homological degree cohdeg(b) - 1:
      d_I  T(b) = sum_{b'} (coeff of b in d b') T(b')
      d_II T(b) = -1/2 sum (-1)^{cohdeg b'} (coeff of b in b'b'') [T(b'),T(b'')]
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional

from .linalg import (
    ONE,
    QQ,
    ZERO,
    CertificateFailure,
    Coordinates,
    GradedElement,
    GradedVectorSpace,
    RowSpace,
    _add_scaled,
    _element_of,
    linear_combination,
)
from .freelie import InvalidDifferential, LiePresentation
from .dgla import (
    Dgla,
    DglaPresentation,
    disjoint_product,
    free_product_dgla,
    is_mc,
    presentation_of,
)
from .cdga import Cdga, CdgaMorphism, FreePolynomialCdga, NoAugmentation


class CEComplex:
    """The Chevalley-Eilenberg cdga C(g) = (S Sigma g*, d_I + d_II),
    truncated by word length (or by the weight grading of g when
    truncate_by="weight"), with the canonical augmentation at 0.

    Under truncate_by="weight" the algebra's (weight, degree) cells are
    the weight blocks of C(g), and g must be weight-graded (d and the
    bracket keep weight): a generator differential with a term of another
    weight raises InvalidDifferential."""

    def __init__(self, g: Dgla, bound: int, truncate_by: str = "length"):
        if bound < 1:
            raise ValueError("CE truncation bound must be >= 1, got %d" % bound)
        self.g = g
        self.bound = bound
        self.truncate_by = truncate_by
        items = g.basis_items()
        self.sigma_of = {lab: "s(%s)" % lab for _, lab in items}
        # the truncation weight of each basis element: its cell's weight in
        # g, or 1 for every element under truncation by word length
        if truncate_by == "weight":
            weight_of = {(n, lab): w for (w, n), labs in g._cells().items()
                         for lab in labs}
        else:
            weight_of = dict.fromkeys(items, 1)
        gens = [(self.sigma_of[lab], n + 1, weight_of[(n, lab)]) for n, lab in items]
        # both parts are assembled source-first: one differential per basis
        # element and one bracket per ordered basis pair, scattered over the
        # targets k in their support; each target still receives its terms
        # in the order of a loop over k outside the sources
        acc: dict[str, dict] = {lab: {} for _, lab in items}
        for nj, labj in items:
            key = (-(nj + 1), self.sigma_of[labj])
            for (_, labk), c in g.d(g.space.basis_element(nj, labj)).coeffs.items():
                acc[labk][key] = c
        # d_II needs products of generators; multiply in a scratch copy at
        # the same truncation, so products beyond it are zero.  s(i) s(j)
        # has weight w_i + w_j, so i meets only the cells of weight at most
        # bound - w_i, in basis order, and of those only the degrees that
        # add up with n_i to a degree with a basis
        scratch = FreePolynomialCdga(gens, bound, {}, check="skip")
        degrees = set(g.space.degrees())
        partners: dict[int, list[tuple[int, str]]] = {}
        for ni, labi in items:
            cap = bound - weight_of[(ni, labi)]
            if cap not in partners:
                partners[cap] = [key for key in items if weight_of[key] <= cap]
            for nj, labj in partners[cap]:
                if ni + nj not in degrees:
                    continue
                br = g.bracket_labels(ni, labi, nj, labj).coeffs
                if not br:
                    continue
                prod = scratch.multiply(
                    scratch.generator_element(self.sigma_of[labi]),
                    scratch.generator_element(self.sigma_of[labj]))
                sign = -ONE if ni % 2 else ONE
                for (_, labk), c in br.items():
                    _add_scaled(acc[labk], prod, QQ(-1, 2) * sign * c)
        dgens = {self.sigma_of[lab]: GradedElement(acc[lab]) for _, lab in items}
        aug = dict.fromkeys(dgens, ZERO)
        if truncate_by == "weight":
            # each weight block is a subcomplex only if d keeps weight; a
            # term missing from scratch is a generator above the bound
            gen_weight = {name: w for name, _, w in gens}
            for n, lab in items:
                w = weight_of[(n, lab)]
                off = [t for _, t in acc[lab]
                       if scratch.weights.get(t, gen_weight.get(t)) != w]
                if off:
                    raise InvalidDifferential(
                        "truncation by weight needs a weight-graded dgla: d(%s) "
                        "has the term %s, not of weight %d"
                        % (self.sigma_of[lab], off[0], w))
        self.algebra = FreePolynomialCdga(gens, bound, dgens, aug, check="auto")
        self._cell_dims: Optional[dict[tuple[int, int], int]] = None

    def reduced_homology_dims(self) -> dict[int, int]:
        """Cohomological dimensions of H(C_+): d has no constant term, so
        H(C) = H(C_+) + Q 1, and the unit's class is left out."""
        h = self.algebra.homology()
        return {-n: v for n in h.degrees() if (v := h.dim(n) - (n == 0))}

    def weight_block_dims(self, weight: int) -> dict[int, int]:
        """H(C_+) of the given total g-weight block, cohomological keys: the
        homology of the algebra's cells of that weight, computed once, less
        the unit's class in the cell (0, 0)."""
        if self.truncate_by != "weight":
            raise ValueError("weight blocks need a CE complex truncated by weight")
        if self._cell_dims is None:
            self._cell_dims = self.algebra._cell_homology(0)
            self._cell_dims[(0, 0)] -= 1
        return {-n: v for (w, n), v in self._cell_dims.items() if w == weight and v}


def ce_complex(g: Dgla, word_bound: int, truncate_by: str = "length") -> CEComplex:
    return CEComplex(g, word_bound, truncate_by)


def ce_cohomology(g: Dgla, word_bound: int,
                  degree_range: Optional[tuple[int, int]] = None) -> dict:
    """Reduced CE cohomology table with exactness flags.

    For non-negatively graded g every generator has cohomological degree
    >= 1, so the cochains of degree n have word length <= n and d maps
    them into word lengths <= n + 1. Degree n is flagged exact once
    word_bound >= n + 1, or once word_bound >= n when no degree-(n + 1)
    word of length n + 1 exists: such a word is a product of n + 1
    distinct odd generators dual to g_0, so none exists when
    n + 1 > dim g_0. Other degrees are flagged by agreement between
    word_bound and word_bound + 1.
    """
    ce = ce_complex(g, word_bound)
    dims = ce.reduced_homology_dims()
    nonneg = all(n >= 0 for n in g.space.degrees())
    dim_g0 = g.space.dim(0)
    if degree_range is None:
        degs = sorted(set(dims) | {0})
        lo, hi = (min(degs), max(degs)) if degs else (0, 0)
    else:
        lo, hi = degree_range
    out = {}
    bigger = None
    for n in range(lo, hi + 1):
        if nonneg and (word_bound >= n + 1
                       or (word_bound >= n and n + 1 > dim_g0)):
            out[n] = {"dim": dims.get(n, 0), "flag": "exact"}
        else:
            if bigger is None:
                bigger = ce_complex(g, word_bound + 1).reduced_homology_dims()
            stable = dims.get(n, 0) == bigger.get(n, 0)
            out[n] = {"dim": dims.get(n, 0),
                      "flag": "stable" if stable else "unstable"}
    return out


# ---------------------------------------------------------------------------
# Harrison complex
# ---------------------------------------------------------------------------

class HarrisonComplex:
    """L(A) = (free Lie on the desuspended dual of the augmentation ideal,
    d_I + d_II), truncated at bracket weight m; materialized as a Dgla with
    a re-usable presentation."""

    def __init__(self, a: Cdga, m: int):
        if a.augmentation is None:
            raise NoAugmentation("the Harrison complex needs an augmentation")
        self.source = a
        self.m = m
        items = a.basis_items()
        # basis of A_+ : adjusted basis elements b - eps(b) 1 for b not in
        # the line of the unit; by convention we drop one designated label
        # with eps != 0 (the "unit slot"), which must exist
        unit_slots = [(n, lab) for n, lab in items if a.augmentation.get(lab, ZERO)]
        if not unit_slots:
            raise NoAugmentation("no basis label with nonzero augmentation")
        drop = unit_slots[0]
        plus = [(n, lab) for n, lab in items if (n, lab) != drop]
        self.tau_of = {lab: "T(%s)" % lab for _, lab in plus}
        self.plus_items = plus

        def plus_coords(elt: GradedElement) -> GradedElement:
            """Coordinates of an element of A over the adjusted basis (the
            unit-slot coordinate is determined by eps = 0)."""
            adj = elt - a.unit.scale(a.eps(elt))
            # expand over {b - eps(b) unit}: coordinates equal those of the
            # non-dropped labels once the drop-label coordinate is
            # eliminated via the unit expansion
            coeffs = dict(adj.coeffs)
            dn, dlab = drop
            cdrop = coeffs.pop((dn, dlab), ZERO)
            if cdrop:
                # drop-label appears inside the unit: unit = sum u_k b_k;
                # rewrite c * b_drop = (c / u_drop) (unit - others)
                u = a.unit
                u_drop = u.coeff(dn, dlab)
                if not u_drop:
                    raise CertificateFailure(
                        "unit has no component on the unit slot")
                rest = GradedElement({k: v for k, v in u.coeffs.items()
                                      if k != (dn, dlab)})
                corr = rest.scale(-cdrop / u_drop)
                for k, v in corr.coeffs.items():
                    coeffs[k] = coeffs.get(k, ZERO) + v
                # the unit itself contributes eps-zero overall, consistent
                # with adj being in the augmentation ideal
            return GradedElement(coeffs)

        gens = []
        for n, lab in plus:
            cohdeg = -n
            gens.append((self.tau_of[lab], cohdeg - 1, 1))
        from .freelie import FreeLieTruncation
        scratch = FreeLieTruncation(gens, 2)
        # source-first, as in CEComplex: d_I terms first, then d_II with one
        # product and one bracket per ordered pair, scattered over targets
        acc: dict[str, dict] = {lab: {} for _, lab in plus}
        for n2, lab2 in plus:
            img = plus_coords(a.d(a.space.basis_element(n2, lab2)))
            for (n, lab), c in img.coeffs.items():
                if n == n2 - 1:
                    _add_scaled(acc[lab], scratch.generator(self.tau_of[lab2]), c)
        degrees = {n for n, _ in plus}
        for (n1, lab1), (n2, lab2) in itertools.product(plus, repeat=2):
            if n1 + n2 not in degrees:
                continue
            prod = plus_coords(a.multiply(a.space.basis_element(n1, lab1),
                                          a.space.basis_element(n2, lab2)))
            terms = [(lab, c) for (n, lab), c in prod.coeffs.items()
                     if n == n1 + n2]
            if not terms:
                continue
            sign = -ONE if (-n1) % 2 else ONE
            br = scratch.bracket(scratch.generator(self.tau_of[lab1]),
                                 scratch.generator(self.tau_of[lab2]))
            for lab, c in terms:
                _add_scaled(acc[lab], br, QQ(-1, 2) * sign * c)
        dgens = {self.tau_of[lab]: GradedElement(acc[lab]) for _, lab in plus}
        pres = LiePresentation(gens, [], dgens)
        self.presentation = DglaPresentation(pres)
        self.dgla = self.presentation.materialize(m)


def harrison(a: Cdga, m: int) -> HarrisonComplex:
    return HarrisonComplex(a, m)


def cdga_product(a: Cdga, b: Cdga) -> Cdga:
    """Direct product A x B, augmented through the second factor (the
    non-unital monoidal structure on augmented cdgas)."""
    if b.augmentation is None:
        raise NoAugmentation("the second factor must be augmented")
    basis: dict[int, list[str]] = {}
    for n, lab in a.basis_items():
        basis.setdefault(n, []).append("A.%s" % lab)
    for n, lab in b.basis_items():
        basis.setdefault(n, []).append("B.%s" % lab)
    space = GradedVectorSpace(basis)

    def tag(elt: GradedElement, side: str) -> GradedElement:
        return GradedElement({(n, "%s.%s" % (side, lab)): c
                              for (n, lab), c in elt.coeffs.items()})

    def mult_fn(d1, l1, d2, l2):
        s1, lab1 = l1.split(".", 1)
        s2, lab2 = l2.split(".", 1)
        if s1 != s2:
            return GradedElement()
        alg = a if s1 == "A" else b
        return tag(alg.mult_labels(d1, lab1, d2, lab2), s1)

    def d_fn(n, lab):
        s, base = lab.split(".", 1)
        alg = a if s == "A" else b
        return tag(alg.d(alg.space.basis_element(n, base)), s)

    unit = tag(a.unit, "A") + tag(b.unit, "B")
    aug = {}
    for n, lab in b.basis_items():
        v = b.augmentation.get(lab, ZERO)
        if v:
            aug["B.%s" % lab] = v
    return Cdga(space, d_fn, mult_fn, unit, aug, check="auto")


def dgla_map_from_generators(src: Dgla, dst: Dgla,
                             images: Mapping[str, GradedElement]) -> dict:
    """Extend a generator assignment of a presented dgla to all basis
    labels (through the free tree structure), check d-compatibility on
    every generator, and compare dimensions; returns a report with the
    label-by-label image map."""
    q = src.presentation.pres.materialize(src.weight_bound)

    label_images: dict[str, GradedElement] = {}

    def image_of(lab: str) -> GradedElement:
        if lab in label_images:
            return label_images[lab]
        if lab in images:
            label_images[lab] = images[lab]
            return images[lab]
        tree = q.free.tree_of_label[lab]
        t1, t2 = tree
        l1 = q.free.label_of_tree[t1]
        l2 = q.free.label_of_tree[t2]
        out = dst.bracket(image_of(l1), image_of(l2))
        label_images[lab] = out
        return out

    d_compatible = True
    for name in images:
        u = src.element(name)
        pushed = linear_combination((c, image_of(lab))
                                    for (_, lab), c in src.d(u).coeffs.items())
        if not (pushed - dst.d(images[name])).is_zero():
            d_compatible = False
            break
    dims_match = all(src.space.dim(n) == dst.space.dim(n)
                     for n in set(src.space.degrees()) | set(dst.space.degrees()))
    surjective = None
    if dims_match and d_compatible:
        surjective = True
        for n in src.space.degrees():
            span = RowSpace(dst.space.dim(n))
            for lab in src.space.labels(n):
                span._add(dst.space.to_vector(image_of(lab), n))
            if span.dim() != dst.space.dim(n):
                surjective = False
    return {"d_compatible": d_compatible, "dims_match": dims_match,
            "bijective": bool(dims_match and d_compatible and surjective),
            "images": label_images}


def harrison_product_comparison(a: Cdga, b: Cdga, m: int) -> dict:
    """The Harrison functor takes products to disjoint products:
    L(A x B) and L(A) u L(B) are isomorphic, checked as truncated structure
    constants under the generator matching T(A.1) -> -x, T(A.b) -> T(b),
    T(B.c) -> T(c)."""
    prod = cdga_product(a, b)
    lhs = harrison(prod, m)
    la = harrison(a, m)
    lb = harrison(b, m)
    rhs = disjoint_product(la.dgla, lb.dgla, m)
    # the unit slot dropped on the product side is B.<unit slot of B>; the
    # A.1-type generator present is the one with eps_A != 0 dropped... the
    # product's augmentation lives on the B side, so all A-labels survive.
    images = {}
    x = rhs.twist_of
    a_unit_labels = [lab for _, lab in a.basis_items()
                     if (a.augmentation or {}).get(lab, ZERO)]
    renames = rhs.second_factor_names
    for n, lab in lhs.plus_items:
        side, base = lab.split(".", 1)
        name = lhs.tau_of[lab]
        if side == "A" and base in a_unit_labels:
            images[name] = -x
        elif side == "A":
            images[name] = rhs.element(la.tau_of[base])
        else:
            images[name] = rhs.element(renames[lb.tau_of[base]])
    report = dgla_map_from_generators(lhs.dgla, rhs, images)
    report.pop("images")
    return report


# ---------------------------------------------------------------------------
# free product cohomology comparison (appendix theorems)
# ---------------------------------------------------------------------------

def _product_truncation(g: Dgla, h: Dgla, m: int) -> int:
    """max(m - 1, the heaviest relation weight) when the presentations of
    g and h have no generator differentials and only weight-homogeneous
    relations, else m (see compare_free_product)."""
    heaviest = 0
    for alg in (g, h):
        pres = presentation_of(alg).pres
        weights = pres.relation_weights()
        if any(not v.is_zero() for v in pres.dgens.values()) or None in weights:
            return m
        heaviest = max([heaviest, *weights])
    return max(m - 1, heaviest)


def _check_weight_graded(g: Dgla) -> None:
    """Raise InvalidDifferential at the first basis bracket [u, v] with a
    term not of weight w(u) + w(v): every pair of a finite table, and the
    pairs within the weight bound of a presented dgla (beyond it every
    bracket is zero)."""
    weight_of = {lab: w for (w, _), labs in g._cells().items() for lab in labs}
    for (d1, l1), (d2, l2) in itertools.combinations_with_replacement(g.basis_items(), 2):
        w = weight_of[l1] + weight_of[l2]
        if g.weight_bound is not None and w > g.weight_bound:
            continue
        off = [lab for _, lab in g.bracket_labels(d1, l1, d2, l2).coeffs
               if weight_of[lab] != w]
        if off:
            raise InvalidDifferential(
                "truncation by weight needs a weight-graded dgla: [%s,%s] has "
                "the term %s, not of weight %d" % (l1, l2, off[0], w))


def compare_free_product(g: Dgla, h: Dgla, m: int, word_bound: int) -> dict:
    """Per-(weight, degree) comparison of H(C_+(g*h)) against
    H(C_+(g)) + H(C_+(h)) in the faithful window weight < m.

    Inputs must be weight-graded with zero differential (the appendix
    hypothesis), and both halves are checked: a nonzero differential
    raises ValueError, and a bracket [u, v] with a term of another weight
    raises InvalidDifferential.  One with w(u) + w(v) < m is refused when
    the CE complexes are built (see CEComplex); the CE complexes never
    read the heavier brackets, so each factor's own basis brackets are
    then checked against its weights (_check_weight_graded).
    word_bound must be at least m - 1 so the window is complete.

    The CE complexes are truncated at weight m - 1, so they read only the
    cells of g*h of weight below m.  When its presentation has no
    generator differentials and only weight-homogeneous relations, g*h is
    built at t = max(m - 1, the heaviest relation weight) instead of m.
    Then the ideal is spanned by homogeneous elements: the relations, and
    brackets of generators with homogeneous ideal elements.  With columns
    ordered by weight, the reduced row echelon form of its saturation is
    block-diagonal by weight, and the weight-w block is spanned by the
    relations of weight w and by brackets that land in weight w from
    lower weights, none of which a truncation at t >= w cuts.  So at any
    such t the cells of weight below m are the same labels, brackets and
    differential.  t = m - 1 never builds the weight-m cell (the bulk of
    the basis), and a relation heavier than m, which a truncation at m
    cannot hold, raises t to its weight.  Any other presentation is built
    at m as before, so a heavy relation there is still refused.
    """
    if word_bound < m - 1:
        raise ValueError("need word_bound >= m - 1 for a faithful window")
    for alg in (g, h):
        if not alg.d_map.is_zero():
            raise ValueError("free-product comparison needs zero differentials")
    if h.total_dim() == 0:
        prod = g
    elif g.total_dim() == 0:
        prod = h
    else:
        prod = free_product_dgla(g, h, _product_truncation(g, h, m), check="skip")
    ce_p = ce_complex(prod, m - 1, truncate_by="weight") if prod.total_dim() \
        else None
    ce_g = ce_complex(g, m - 1, truncate_by="weight") if g.total_dim() else None
    ce_h = ce_complex(h, m - 1, truncate_by="weight") if h.total_dim() else None
    for alg in (g, h):
        _check_weight_graded(alg)
    table = {}
    ok = True
    for w in range(1, m):
        left = ce_p.weight_block_dims(w) if ce_p else {}
        right: dict[int, int] = {}
        for ce_f in (ce_g, ce_h):
            if ce_f is None:
                continue
            for n, v in ce_f.weight_block_dims(w).items():
                right[n] = right.get(n, 0) + v
        degrees = sorted(set(left) | set(right))
        for n in degrees:
            cell_ok = left.get(n, 0) == right.get(n, 0)
            table[(w, n)] = {"product": left.get(n, 0),
                             "factors": right.get(n, 0), "equal": cell_ok}
            ok = ok and cell_ok
    return {"pass": ok, "cells": table, "window": "weights 1..%d" % (m - 1)}


# ---------------------------------------------------------------------------
# MC <-> augmentation dictionary
# ---------------------------------------------------------------------------

def evaluation_augmentation(ce: CEComplex, xi: GradedElement) -> dict[str, Fraction]:
    """eps_xi on basis monomials: evaluation at the (degree-0) point
    Sigma xi, which is xi's coefficient on each s(b) with |b| = -1 and
    zero on every other generator."""
    return ce.algebra._evaluation({ce.sigma_of[lab]: xi.coeff(-1, lab)
                                   for _, lab in ce.g.basis_items()})


def _evaluate(eps_values: Mapping[str, Fraction], elt: GradedElement) -> Fraction:
    """eps(elt) for eps given on basis monomials."""
    s = ZERO
    for (_, lab), c in elt.coeffs.items():
        v = eps_values.get(lab, ZERO)
        if v:
            s += c * v
    return s


def _augmentation_failure(ce: CEComplex, eps_values: Mapping[str, Fraction]):
    """(name, eps(d name)) for the first generator on whose differential eps
    is nonzero, or None: eps is dg exactly when it is None (by the
    derivation property, generators decide dg-compatibility)."""
    for name, _cohdeg, _w in ce.algebra.generators:
        s = _evaluate(eps_values, ce.algebra._dgens.get(name, GradedElement()))
        if s:
            return name, s
    return None


def mc_augmentation_dictionary(g: Dgla, xi: GradedElement, word_bound: int) -> dict:
    """The evaluation augmentation eps_xi of C(g), the shift isomorphism
    phi_xi: C(g) -> C(g^xi), and the commuting triangle eps_0 . phi_xi =
    eps_xi, verified on all monomials up to the word bound.

    eps_xi is dg exactly when xi is Maurer-Cartan; for non-MC xi the first
    failing generator is reported as a witness.
    """
    from .dgla import twist
    ce = ce_complex(g, word_bound)
    eps_xi = evaluation_augmentation(ce, xi)
    failure = _augmentation_failure(ce, eps_xi)
    mc, residual = is_mc(g, xi)
    out = {"eps_is_dg": failure is None, "is_mc": mc,
           "match": (failure is None) == mc}
    if not mc:
        if failure is not None:
            out["witness"] = {"generator": failure[0], "value": failure[1]}
        return out
    twisted = twist(g, xi, check="skip")
    ce_t = ce_complex(twisted, word_bound)
    # phi_xi on generators: s(b) -> s(b) + xi_b * 1
    phi = {}
    for _, lab in g.basis_items():
        name = ce.sigma_of[lab]
        img = ce_t.algebra.generator_element(name)
        c = xi.coeff(-1, lab)
        if c:
            img = img + ce_t.algebra.unit.scale(c)
        phi[name] = img
    phi_map = CdgaMorphism(ce.algebra, ce_t.algebra, phi, check=False)
    out["phi_is_dg"] = phi_map.non_dg_generator() is None
    # triangle eps_0(phi(f)) = eps_xi(f) on every monomial
    eps0_t = evaluation_augmentation(ce_t, GradedElement())
    out["triangle"] = all(
        _evaluate(eps0_t, phi_map.apply_label(lab)) == eps_xi.get(lab, ZERO)
        for _, lab in ce.algebra.basis_items())
    return out


# ---------------------------------------------------------------------------
# minimal models by homotopy transfer
# ---------------------------------------------------------------------------

class TransferData:
    """Deterministic Hodge-style splitting: A = B + H + C with d: C ~ B,
    h = (d|C)^{-1} on B and zero on H + C; satisfies the side conditions
    p i = id, h i = 0, p h = 0, h h = 0 and dh + hd = id - i p."""

    def __init__(self, g: Dgla):
        self.g = g
        h = g.homology()
        self.h_reps: dict[int, list[GradedElement]] = {
            n: h.representatives.get(n, []) for n in g.space.degrees()}
        self.boundaries: dict[int, list[GradedElement]] = {
            n: h.boundaries.get(n, []) for n in g.space.degrees()}
        self.preimages: dict[int, list[GradedElement]] = {}
        for n in g.space.degrees():
            pres = []
            for beta in self.boundaries.get(n - 1, []):
                x = g.d_map.solve(beta)
                if x is None:
                    raise CertificateFailure(
                        "boundary in degree %d has no preimage" % (n - 1))
                pres.append(x)
            self.preimages[n] = pres
        # B + H + C coordinates per degree
        self._decomp: dict[int, Coordinates] = {}
        for n in g.space.degrees():
            cols = [g.space.to_vector(v, n) for v in self.boundaries[n] +
                    self.h_reps[n] + self.preimages[n]]
            dim = g.space.dim(n)
            self._decomp[n] = Coordinates(cols, dim)
            if len(cols) != dim or self._decomp[n].rank() != dim:
                raise CertificateFailure("splitting does not span degree %d" % n)

    def coords(self, elt: GradedElement, n: int) -> dict[int, Fraction]:
        """elt's degree-n coordinates {i: c} in index order, over the
        boundaries, then the representatives, then the preimages."""
        x = self._decomp[n].coords(self.g.space.to_vector(elt.homogeneous_part(n), n))
        if x is None:
            raise CertificateFailure(
                "element outside the splitting of degree %d" % n)
        return x

    def p(self, elt: GradedElement) -> dict[tuple[int, int], Fraction]:
        """Projection onto homology coordinates {(degree, index): c}."""
        out = {}
        for n in sorted(elt.degrees()):
            nb, nh = len(self.boundaries[n]), len(self.h_reps[n])
            for i, c in self.coords(elt, n).items():
                if nb <= i < nb + nh:
                    out[(n, i - nb)] = c
        return out

    def i(self, n: int, idx: int) -> GradedElement:
        return self.h_reps[n][idx]

    def h(self, elt: GradedElement) -> GradedElement:
        out: dict = {}
        for n in sorted(elt.degrees()):
            nb = len(self.boundaries[n])
            for i, c in self.coords(elt, n).items():
                if i < nb:
                    _add_scaled(out, self.preimages[n + 1][i], c)
        return _element_of(out)


class MinimalModel:
    """Transferred minimal structure on H(g): zero differential, the
    induced bracket l2, and the first homotopy correction l3 (arity <= 3);
    the inclusion of representatives is the quasi-isomorphism datum."""

    def __init__(self, g: Dgla, arity_bound: int = 3):
        if arity_bound < 2 or arity_bound > 3:
            raise ValueError("transfer implemented for arities 2 and 3")
        self.g = g
        self.arity_bound = arity_bound
        self.transfer = TransferData(g)
        t = self.transfer
        self.generators = [(n, i) for n in sorted(t.h_reps)
                           for i in range(len(t.h_reps[n]))]
        self.l2: dict[tuple, dict] = {}
        for (n1, i1), (n2, i2) in itertools.product(self.generators, repeat=2):
            val = t.p(g.bracket(t.i(n1, i1), t.i(n2, i2)))
            if val:
                self.l2[((n1, i1), (n2, i2))] = val
        self.l3: dict[tuple, dict] = {}
        if arity_bound >= 3:
            for a, b, c in itertools.product(self.generators, repeat=3):
                val = self._l3(a, b, c)
                if val:
                    self.l3[(a, b, c)] = val

    def _l3(self, a, b, c):
        t = self.transfer
        g = self.g
        ia, ib, ic = t.i(*a), t.i(*b), t.i(*c)
        da, db, dc = a[0], b[0], c[0]
        term1 = g.bracket(t.h(g.bracket(ia, ib)), ic)
        term2 = g.bracket(t.h(g.bracket(ia, ic)), ib).scale(
            -ONE if (db * dc) % 2 else ONE)
        term3 = g.bracket(t.h(g.bracket(ib, ic)), ia).scale(
            -ONE if (da * (db + dc)) % 2 else ONE)
        return t.p(term1 + term2 + term3)

    def linear_part_is_zero(self) -> bool:
        """The transferred differential p d i vanishes identically."""
        t = self.transfer
        for n, i in self.generators:
            if t.p(self.g.d(t.i(n, i))):
                return False
        return True

    def homology_dims(self) -> dict[int, int]:
        return {n: len(self.transfer.h_reps[n])
                for n in self.transfer.h_reps if self.transfer.h_reps[n]}

    def has_higher_corrections(self) -> bool:
        return bool(self.l3)

    def as_dgla(self) -> Dgla:
        """The honest finite dgla (H, l2, d = 0); only valid when l3 = 0,
        i.e. when no homotopy corrections survived."""
        if self.l3:
            raise ValueError("model carries arity-3 corrections; "
                             "it is an L-infinity structure, not a plain dgla")
        basis: dict[int, list[str]] = {}
        for n, i in self.generators:
            basis.setdefault(n, []).append("h%d_%d" % (n, i))
        space = GradedVectorSpace(basis)

        def bracket_fn(d1, l1, d2, l2):
            i1 = int(l1.rsplit("_", 1)[1])
            i2 = int(l2.rsplit("_", 1)[1])
            val = self.l2.get(((d1, i1), (d2, i2)), {})
            return GradedElement({(n, "h%d_%d" % (n, i)): c
                                  for (n, i), c in val.items()})

        return Dgla(space, None, bracket_fn, check="auto")

    def quasi_iso_verified(self, degree_range: Optional[tuple[int, int]] = None) -> bool:
        """The transfer's side conditions on every basis element of the
        requested degree range (all degrees by default): d i = 0 and
        p i = id on the homology basis, p d = 0 and dh + hd = id - i p on
        the basis of g.  Together they make i a quasi-isomorphism with
        homotopy inverse p."""
        t, g = self.transfer, self.g
        lo, hi = degree_range or (float("-inf"), float("inf"))
        for n, idx in self.generators:
            e = t.i(n, idx)
            if lo <= n <= hi and (not g.d(e).is_zero() or t.p(e) != {(n, idx): ONE}):
                return False
        for n, lab in g.basis_items():
            if not lo <= n <= hi:
                continue
            x = g.space.basis_element(n, lab)
            ip = linear_combination((c, t.i(*key)) for key, c in t.p(x).items())
            if t.p(g.d(x)) or g.d(t.h(x)) + t.h(g.d(x)) != x - ip:
                return False
        return True


def minimal_model(g: Dgla, arity_bound: int = 3,
                  degree_range: Optional[tuple[int, int]] = None) -> MinimalModel:
    model = MinimalModel(g, arity_bound)
    if not model.linear_part_is_zero():
        raise CertificateFailure("transferred differential has a linear part")
    if not model.quasi_iso_verified(degree_range):
        raise CertificateFailure("inclusion of representatives is not a "
                                 "quasi-isomorphism")
    return model
