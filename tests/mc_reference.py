"""References that the tests compare mclie's MC layer against.

The constraint system of the structured solver expanded over the monomial
basis of the form algebra, against the residual of the generic element
computed in the honest tensor dgla; the face and degeneracy maps of the
simplicial MC set applied to every emitted simplex; the constraint system
expanded pair by pair through the polynomial product; and the solver's
propagation as a full rescan of the equations after every rule, with
states keyed on their Fraction coefficients."""

import itertools
from typing import Optional

from mclie.cdga import omega_degeneracy_map, omega_face_map, tensor_dgla_forms
from mclie.dgla import Dgla, is_mc
from mclie.linalg import ONE, QQ, ZERO, GradedElement, _accumulate, _element_of
from mclie.mc import (MCConstraintSystem, SymbolTable, _add_term, _assign,
                      _close, _constrain, _isolated, mc_simplices, poly_mul,
                      poly_scale, poly_zero, unknown_symbol)


def expand_system_over_forms(system: MCConstraintSystem, tensor) -> dict:
    """Expand the symbolic system over the monomial basis of the form
    algebra: each unknown alpha_b becomes the generic combination
    sum_mu c_{b,mu} mu; returns {(component label, form monomial):
    {c-monomial: coefficient}}."""
    omega = tensor.form_algebra
    table = system.table
    expansions: dict[tuple, list] = {}
    for sym, glab in system.unknowns.items():
        p = table.form_degree[sym]
        monos = [(nw, wlab) for nw, wlab in omega.basis_items() if nw == -p]
        expansions[(sym, False)] = [
            ((glab, wlab), omega.space.basis_element(nw, wlab))
            for nw, wlab in monos]
        expansions[(sym, True)] = [
            ((glab, wlab), omega.d(omega.space.basis_element(nw, wlab)))
            for nw, wlab in monos]
    out: dict = {}
    for elab, poly in system.equations.items():
        for mono, coeff in poly.items():
            # expand the product of factors
            terms = [((), omega.unit.scale(coeff))]
            for factor in mono:
                new_terms = []
                for cmono, val in terms:
                    for cv, fval in expansions[factor]:
                        prod = omega.multiply(val, fval)
                        if prod.is_zero():
                            continue
                        new_terms.append((tuple(sorted(cmono + (cv,))), prod))
                terms = new_terms
            for cmono, val in terms:
                for (nw, wlab), c in val.coeffs.items():
                    key = (elab, wlab)
                    cell = out.setdefault(key, {})
                    _add_term(cell, cmono, c)
    return {k: v for k, v in out.items() if v}


def oracle_system_over_forms(g: Dgla, n: int, max_degree: int,
                             support_weight: Optional[int] = None) -> dict:
    """Independent expansion: substitute the generic element
    xi = sum c_{b,mu} (b (x) mu) into the exact residual of the honest
    tensor dgla and collect coefficients per (component, form monomial)."""
    tensor = tensor_dgla_forms(g, n, max_degree, check="skip")
    omega = tensor.form_algebra
    gens: list[tuple] = []
    for deg in g.space.degrees():
        p = deg + 1
        if p < 0 or p > n:
            continue
        for lab in g.space.labels(deg):
            if support_weight is not None and g.weights is not None and \
                    g.weights.get(lab, 1) > support_weight:
                continue
            for nw, wlab in omega.basis_items():
                if nw == -p:
                    gens.append((lab, wlab, deg, nw))
    out: dict = {}

    def accumulate(elt: GradedElement, cmono):
        for (dd, tlab), c in elt.coeffs.items():
            glab2, wlab2 = tlab.split("|", 1)
            key = (glab2, wlab2)
            cell = out.setdefault(key, {})
            _add_term(cell, cmono, c)

    for lab, wlab, deg, nw in gens:
        b = GradedElement({(deg + nw, "%s|%s" % (lab, wlab)): ONE})
        accumulate(tensor.d(b), ((lab, wlab),))
    for (l1, w1, d1, nw1), (l2, w2, d2, nw2) in itertools.product(gens, repeat=2):
        b1 = GradedElement({(d1 + nw1, "%s|%s" % (l1, w1)): ONE})
        b2 = GradedElement({(d2 + nw2, "%s|%s" % (l2, w2)): ONE})
        br = tensor.bracket(b1, b2)
        if br.is_zero():
            continue
        cmono = tuple(sorted(((l1, w1), (l2, w2))))
        accumulate(br.scale(QQ(1, 2)), cmono)
    return {k: v for k, v in out.items() if v}


def pair_expansion_constraints(g: Dgla, n: int,
                               support_weight: Optional[int] = None):
    """derive_constraints with every term built as a polynomial: each pair
    of unknowns multiplied by poly_mul and scaled by +-1/2, each sum taken
    as 0 + c.  Returns (table, unknowns, equations)."""
    def add(out, mono, c):
        v = out.get(mono, ZERO) + c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)

    def symbol(sym, diff=False):
        return {((sym, diff),): ONE}

    table = SymbolTable()
    unknowns: dict[str, str] = {}
    terms = []
    for deg in g.space.degrees():
        p = deg + 1
        if p < 0 or p > n:
            continue
        for lab in g.space.labels(deg):
            if support_weight is not None and g.weights is not None and \
                    g.weights.get(lab, 1) > support_weight:
                continue
            sym = unknown_symbol(lab)
            table.add(sym, p)
            if n == 0:
                table.constant.add(sym)
            unknowns[sym] = lab
            terms.append((sym, deg, lab))
    equations: dict[str, dict] = {}

    def accumulate(target: GradedElement, poly):
        for (_, lab2), c in target.coeffs.items():
            eq = equations.setdefault(lab2, {})
            for mono, v in poly.items():
                add(eq, mono, v * c)

    for sym, deg, lab in terms:
        accumulate(g.d(g.space.basis_element(deg, lab)), symbol(sym))
        sgn = -ONE if deg % 2 else ONE
        accumulate(g.space.basis_element(deg, lab),
                   poly_scale(symbol(sym, diff=True), sgn))
    for (s1, d1, l1), (s2, d2, l2) in itertools.product(terms, repeat=2):
        br = g.bracket_labels(d1, l1, d2, l2)
        if br.is_zero():
            continue
        sign = -ONE if ((d1 + 1) * d2) % 2 else ONE
        prod = poly_mul(symbol(s1), symbol(s2), table)
        accumulate(br, poly_scale(prod, sign * QQ(1, 2)))
    equations = {lab: p for lab, p in equations.items() if p}
    return table, unknowns, equations


def apply_form_map(tensor_src, tensor_dst, morphism, elt: GradedElement) -> GradedElement:
    """Push an element of g (x) Omega along id (x) (a form morphism)."""
    out: dict = {}
    for (_, lab), c in elt.coeffs.items():
        glab, wlab = lab.split("|", 1)
        gdeg = tensor_src.tensor_info[lab][0]
        img = morphism.apply_label(wlab)
        _accumulate(out, {(gdeg + nw2, "%s|%s" % (glab, wlab2)): c2
                          for (nw2, wlab2), c2 in img.coeffs.items()}, c)
    return _element_of(out)


def faces_preserve_mc(g: Dgla, n: int, max_degree: int,
                      support: Optional[int] = None) -> bool:
    """Every emitted n-simplex maps to an MC element under all face maps
    (and degeneracies into level n+1)."""
    data = mc_simplices(g, n, max_degree, support)
    tensor = data["tensor"]
    ambient = tensor.coefficient_dgla
    omega = tensor.form_algebra
    ok = True
    for elt in data["samples"]:
        if n >= 1:
            for face in range(n + 1):
                phi = omega_face_map(omega, face)
                dst = tensor_dgla_forms(ambient, n - 1, max_degree, check="skip")
                img = apply_form_map(tensor, dst, phi, elt)
                good, _ = is_mc(dst, img)
                ok = ok and good
        for j in range(n + 1):
            phi = omega_degeneracy_map(omega, j)
            dst = tensor_dgla_forms(ambient, n + 1, max_degree, check="skip")
            img = apply_form_map(tensor, dst, phi, elt)
            good, _ = is_mc(dst, img)
            ok = ok and good
    return ok


def rescan_propagate(state):
    """The forced rules of the structured solver, each time applied to the
    first equation in label order that one fits, found by scanning every
    equation again after each rule; None on a nonzero constant."""
    while True:
        state.equations = {lab: p for lab, p in state.equations.items() if p}
        for lab, p in state.equations.items():
            if len(p) == 1:
                (mono, _c), = p.items()
                if not mono:
                    return None
                if len(mono) == 1:
                    sym, diff = mono[0]
                    if diff:
                        _close(state, sym)
                    else:
                        _assign(state, sym, poly_zero())
                    break
            if all(len(m) == 1 and m[0][1] for m in p):
                _constrain(state, p)
                state.equations = {l2: q for l2, q in state.equations.items()
                                   if l2 != lab}
                break
            iso = _isolated(p)
            if iso is not None:
                _assign(state, *iso)
                break
        else:
            return state


def fraction_poly_key(p) -> tuple:
    return tuple(sorted(p.items()))


def fraction_state_key(state) -> tuple:
    """A solver state's key read off its equations, each sorted and keyed
    on its Fraction coefficients on every call."""
    return (tuple((lab, fraction_poly_key(p)) for lab, p in state.equations.items()),
            tuple(sorted((s, fraction_poly_key(v)) for s, v in state.assigned.items())),
            tuple(sorted(state.constants)),
            tuple(sorted(fraction_poly_key(c) for c in state.constraints)))
