"""The path object as it stood before it was built as A (x) Omega(Delta^1):
A[t,dt] with its own labels lab, lab*t^k, lab*dt and lab*t^k*dt, its own
truncation, Koszul sign, d(t^k) = k t^(k-1) dt and evaluation maps.  A test
oracle for cdga.path_object: the same algebra and maps under the relabeling
lab*t^k[*dt] <-> lab|t1^k[*dt1]."""

from mclie.cdga import Cdga
from mclie.linalg import ONE, QQ, GradedElement, GradedVectorSpace, _accumulate, _element_of


def old_label(lab: str, k: int, e: int) -> str:
    """The label of lab t^k dt^e."""
    if e == 0:
        return lab if k == 0 else "%s*t^%d" % (lab, k)
    return "%s*t^%d*dt" % (lab, k) if k else "%s*dt" % lab


def path_object(a: Cdga, t_degree: int = 3):
    """D[t,dt] = D (x) k[t,dt] with |t| = 0, d(t) = dt, truncated at
    polynomial degree t_degree; returns (path, p0, p1, i) where p0, p1 are
    the evaluations at 0 and 1 and i the constant inclusion, each a dict
    label -> GradedElement."""
    K = t_degree
    labels = {}
    basis: dict[int, list[str]] = {}
    for n, lab in a.basis_items():
        for k in range(K + 1):
            name = old_label(lab, k, 0)
            basis.setdefault(n, []).append(name)
            labels[name] = (lab, n, k, 0)
        for k in range(K):
            name = old_label(lab, k, 1)
            basis.setdefault(n - 1, []).append(name)
            labels[name] = (lab, n, k, 1)
    space = GradedVectorSpace(basis)

    def embed(elt: GradedElement, k, e) -> GradedElement:
        return GradedElement({(n - e, old_label(lab, k, e)): c
                              for (n, lab), c in elt.coeffs.items()})

    def mult_fn(d1, l1, d2, l2):
        lab1, n1, k1, e1 = labels[l1]
        lab2, n2, k2, e2 = labels[l2]
        if e1 and e2:
            return GradedElement()
        # truncation keeps t^k for k <= K and t^k dt for k <= K-1
        k, e = k1 + k2, e1 + e2
        if e == 0 and k > K:
            return GradedElement()
        if e == 1 and k > K - 1:
            return GradedElement()
        prod = a.mult_labels(n1, lab1, n2, lab2)
        # sign: move t^{k1} dt^{e1} past the second table factor
        sign = -ONE if (e1 * n2) % 2 else ONE
        return embed(prod, k, e).scale(sign)

    def d_fn(n, name):
        lab, n0, k, e = labels[name]
        out = dict(embed(a.d(a.space.basis_element(n0, lab)), k, e).coeffs)
        if e == 0 and k >= 1:
            # d(t^k) = k t^(k-1) dt, moved past the table factor
            _accumulate(out, {(n0 - 1, old_label(lab, k - 1, 1)): QQ(k)},
                        -ONE if n0 % 2 else ONE)
        return _element_of(out)

    path = Cdga(space, d_fn, mult_fn, embed(a.unit, 0, 0), check="auto")

    p0 = {name: (a.space.basis_element(n0, lab)
                 if (k == 0 and e == 0) else GradedElement())
          for name, (lab, n0, k, e) in labels.items()}
    p1 = {name: (a.space.basis_element(n0, lab) if e == 0 else GradedElement())
          for name, (lab, n0, k, e) in labels.items()}
    inc = {lab: embed(a.space.basis_element(n, lab), 0, 0)
           for n, lab in a.basis_items()}
    return path, p0, p1, inc
