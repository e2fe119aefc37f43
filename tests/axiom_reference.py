"""The construction-time axiom checker as it stood before it read a
structure-constant table: the pair and triple loops of
linalg._DgAlgebra._check_axioms and both triple residuals, every law
evaluated through nested GradedElement products.  A test oracle for the
table checker: same laws, order, caps, exceptions and messages."""

import itertools

from mclie.cdga import Cdga, CdgaAxiomViolation
from mclie.linalg import ONE, ZERO


def cdga_triple_residual(a, u, v, w, d1, d2):
    """(uv)w - u(vw)."""
    return a.multiply(a.multiply(u, v), w) - a.multiply(u, a.multiply(v, w))


def dgla_triple_residual(g, u, v, w, d1, d2):
    """[u,[v,w]] - [[u,v],w] - (-1)^{|u||v|} [v,[u,w]]."""
    return g.bracket(u, g.bracket(v, w)) - (
        g.bracket(g.bracket(u, v), w) +
        g.bracket(v, g.bracket(u, w)).scale(-ONE if (d1 * d2) % 2 else ONE))


def check_axioms(alg, pair_cap, triple_cap):
    """The graded symmetry and Leibniz on basis pairs, then the triple law
    on basis triples, within the caps; returns the skipped laws."""
    residual = cdga_triple_residual if isinstance(alg, Cdga) else dgla_triple_residual
    items = alg.basis_items()
    n = len(items)
    basis = [(d, lab, alg.space.basis_element(d, lab)) for d, lab in items]
    skipped = []
    if n <= pair_cap:
        for (d1, l1, u), (d2, l2, v) in itertools.product(basis, repeat=2):
            uv = alg._product_labels(d1, l1, d2, l2)
            vu = alg._product_labels(d2, l2, d1, l1)
            if not (uv - vu.scale(alg._mirror_sign(d2, d1))).is_zero():
                raise alg._VIOLATION("%s fails on (%s, %s)" % (alg._SYMMETRY, l1, l2))
            rhs = alg._product(alg.d(u), v) + \
                alg._product(u, alg.d(v)).scale(-ONE if d1 % 2 else ONE)
            if not (alg.d(uv) - rhs).is_zero():
                raise alg._VIOLATION("Leibniz fails on (%s, %s)" % (l1, l2))
    else:
        skipped += [(alg._SYMMETRY, n, pair_cap), ("Leibniz", n, pair_cap)]
    if n <= triple_cap:
        for (d1, l1, u), (d2, l2, v), (_, l3, w) in itertools.product(basis, repeat=3):
            if not residual(alg, u, v, w, d1, d2).is_zero():
                raise alg._VIOLATION("%s fails on (%s, %s, %s)"
                                     % (alg._TRIPLE_LAW, l1, l2, l3))
    else:
        skipped.append((alg._TRIPLE_LAW, n, triple_cap))
    return skipped


def verify_axioms(alg, pair_cap, triple_cap):
    """verify_axioms of a Cdga (the unit first, the augmentation last) or
    of a Dgla, on the reference loops."""
    if not isinstance(alg, Cdga):
        return check_axioms(alg, pair_cap, triple_cap)
    items = alg.basis_items()
    for (dd, lab) in items:
        e = alg.space.basis_element(dd, lab)
        if not (alg.multiply(alg.unit, e) - e).is_zero():
            raise CdgaAxiomViolation("unit fails on %s" % lab)
    if not alg.d(alg.unit).is_zero():
        raise CdgaAxiomViolation("unit is not a cocycle")
    skipped = check_axioms(alg, pair_cap, triple_cap)
    if alg.augmentation is not None:
        for (dd, lab) in items:
            if dd != 0 and alg.augmentation.get(lab, ZERO):
                raise CdgaAxiomViolation("augmentation nonzero off degree 0")
            e = alg.space.basis_element(dd, lab)
            if alg.eps(alg.d(e)):
                raise CdgaAxiomViolation("augmentation is not a dg map")
        if alg.eps(alg.unit) != ONE:
            raise CdgaAxiomViolation("augmentation of the unit is not 1")
        for (d1, l1), (d2, l2) in itertools.product(items, repeat=2):
            if d1 + d2 == 0 and alg.eps(alg.multiply(
                    alg.space.basis_element(d1, l1), alg.space.basis_element(d2, l2))) != \
                    alg.eps(alg.space.basis_element(d1, l1)) * \
                    alg.eps(alg.space.basis_element(d2, l2)):
                raise CdgaAxiomViolation(
                    "augmentation is not multiplicative on (%s, %s)" % (l1, l2))
    return skipped
